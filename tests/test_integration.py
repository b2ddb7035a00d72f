from __future__ import annotations

import re

import numpy as np
import pytest

from roughstruct import (
    ControlledPath,
    SampledPath,
    convergence_order_fit,
    generate_path,
    lift_piecewise_smooth,
    make_dyadic_grid,
    refinement_errors,
    rough_integral_path,
    rough_integral_sum,
    young_integral,
)


def test_young_t_against_t_squared():
    grid = make_dyadic_grid(1.0, 10)
    y = SampledPath(grid, grid.nodes)
    w = SampledPath(grid, grid.nodes**2)
    val = young_integral(y, w)
    assert abs(val[-1, 0] - 2.0 / 3.0) < 1e-3


def test_young_constant_telescopes_exactly():
    grid = make_dyadic_grid(1.0, 7)
    w = generate_path("fbm", grid, dim=2, hurst=0.5, seed=14)
    one = SampledPath(grid, np.ones(grid.num_nodes))
    val = young_integral(one, w)
    assert np.array_equal(val[-1], w.values[-1] - w.values[0])


def test_young_w_dw_smooth_closed_form():
    grid = make_dyadic_grid(1.0, 10)
    w = SampledPath(grid, np.sin(grid.nodes) + 0.7)
    val = young_integral(SampledPath(grid, w.values[:, 0]), w)
    w0, w1 = w.values[0, 0], w.values[-1, 0]
    expect = (w1**2 - w0**2) / 2
    assert abs(val[-1, 0] - expect) < 2.0 ** -9


def test_young_rejects_reversed_window():
    # nodes off the grid, (0, 17), (-4, 16) and (3, 20), failed in numpy broadcasting
    grid = make_dyadic_grid(1.0, 4)
    w = SampledPath(grid, grid.nodes)
    for s, t in [(5, 2), (0, 17), (-4, 16), (3, 20)]:
        with pytest.raises(ValueError, match=rf"need 0 <= s <= t <= 16, got \({s}, {t}\)"):
            young_integral(w, w, s, t)


def test_rough_sum_constant_integrand_every_mesh():
    grid = make_dyadic_grid(1.0, 10)
    w = generate_path("sin_cos", grid, dim=2)
    rp = lift_piecewise_smooth(w, "sin_cos", 0.45)
    cp = ControlledPath(
        np.full(grid.num_nodes, 2.5), np.zeros((grid.num_nodes, 1, 2)), w
    )
    target = 2.5 * (w.values[-1] - w.values[0])
    for mesh in (3, 6, 10):
        val = rough_integral_sum(cp, rp, mesh_level=mesh)
        assert np.allclose(val, target, atol=1e-13)


def test_rough_sum_w_dw_compensation_exact():
    # with the canonical lift, y = W and y' = 1 the compensated one-interval
    # sums reproduce the iterated integral exactly: mesh independence
    grid = make_dyadic_grid(1.0, 10)
    w = SampledPath(grid, np.sin(grid.nodes))
    rp = lift_piecewise_smooth(w, "sin_cos", 0.5)
    cp = ControlledPath(w.values[:, 0], np.ones(grid.num_nodes), w)
    expect = (w.values[-1, 0] ** 2 - w.values[0, 0] ** 2) / 2
    assert rough_integral_sum(cp, rp)[0] == pytest.approx(expect, abs=1e-12)
    assert rough_integral_sum(cp, rp, mesh_level=2)[0] == pytest.approx(expect, abs=1e-4)


def test_rough_sum_guards():
    grid = make_dyadic_grid(1.0, 5)
    w = generate_path("fbm", grid, hurst=0.5, seed=2)
    rp = lift_piecewise_smooth(w, "linear", 0.45)
    cp = ControlledPath(w.values[:, 0], np.ones(grid.num_nodes), w)
    with pytest.raises(ValueError):
        rough_integral_sum(cp, rp, 10, 5)
    with pytest.raises(ValueError):
        rough_integral_sum(cp, rp, mesh_level=9)


@pytest.mark.parametrize("s, t", [(-4, 8), (0, 33), (-1, 32), (10, 5)])
def test_rough_sum_refuses_nodes_off_the_grid(s, t):
    # (-4, 8) returned a number: negative nodes were read from the end
    grid = make_dyadic_grid(1.0, 5)
    w = generate_path("fbm", grid, hurst=0.5, seed=2)
    rp = lift_piecewise_smooth(w, "linear", 0.45)
    cp = ControlledPath(w.values[:, 0], np.ones(grid.num_nodes), w)
    with pytest.raises(ValueError, match=rf"need 0 <= s <= t <= 32, got \({s}, {t}\)"):
        rough_integral_sum(cp, rp, s, t)


def _nonlinear_cp(w):
    wv = w.values[:, 0]
    return ControlledPath(np.sin(wv), np.cos(wv), w)


def test_chasles_defect_decays():
    grid = make_dyadic_grid(1.0, 10)
    w = generate_path("fbm", grid, hurst=0.5, seed=5)
    rp = lift_piecewise_smooth(w, "linear", 0.45)
    cp = _nonlinear_cp(w)
    mid = grid.num_intervals // 2
    rows = []
    for mesh in range(3, 10):
        whole = rough_integral_sum(cp, rp, 0, grid.num_intervals, mesh)
        parts = rough_integral_sum(cp, rp, 0, mid, mesh) + rough_integral_sum(
            cp, rp, mid, grid.num_intervals, mesh
        )
        rows.append((grid.horizon / (1 << mesh), float(np.linalg.norm(whole - parts))))
    slope, _ = convergence_order_fit(rows, drop_coarsest=2)
    assert slope >= 3 * 0.45 - 1 - 0.1


def test_refinement_cauchy_rate():
    grid = make_dyadic_grid(1.0, 10)
    w = generate_path("fbm", grid, hurst=0.5, seed=5)
    rp = lift_piecewise_smooth(w, "linear", 0.45)
    rows = refinement_errors(_nonlinear_cp(w), rp)
    slope, _ = convergence_order_fit(rows, drop_coarsest=2)
    assert slope >= 3 * 0.45 - 1 - 0.1


def test_young_and_rough_agree_on_smooth_driver():
    grid = make_dyadic_grid(1.0, 10)
    w = SampledPath(grid, np.sin(grid.nodes))
    rp = lift_piecewise_smooth(w, "sin_cos", 0.5)
    cp = _nonlinear_cp(w)
    rough = rough_integral_sum(cp, rp)[0]
    young = young_integral(SampledPath(grid, cp.y[:, 0]), w)[-1, 0]
    assert rough == pytest.approx(young, rel=1e-3)


def test_cumulative_path_matches_sums():
    grid = make_dyadic_grid(1.0, 8)
    w = generate_path("sin_cos", grid, dim=2)
    rp = lift_piecewise_smooth(w, "sin_cos", 0.45)
    yp = np.zeros((grid.num_nodes, 1, 2))
    yp[:, 0, 0] = 1.0
    cp = ControlledPath(w.values[:, 0], yp, w)
    path = rough_integral_path(cp, rp)
    assert np.allclose(path[0], 0.0)
    for k in (17, 100, 256):
        assert np.allclose(path[k], rough_integral_sum(cp, rp, 0, k), atol=1e-13)


def test_fit_recovers_synthetic_orders():
    cubic = [(2.0**-k, 2.0 ** (-3 * k)) for k in range(8)]
    slope, r2 = convergence_order_fit(cubic)
    assert slope == pytest.approx(3.0, abs=0.01)
    assert r2 > 0.999
    flat = [(2.0**-k, 0.5) for k in range(8)]
    slope, _ = convergence_order_fit(flat)
    assert abs(slope) < 0.01


def test_fit_zero_errors_sentinel():
    rows = [(2.0**-k, 0.0) for k in range(8)]
    slope, _ = convergence_order_fit(rows)
    assert slope == float("inf")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_fit_refuses_non_finite_samples(bad):
    # all-nan errors gave (inf, 1.0), read as machine-exact convergence; inf
    # errors gave (nan, nan) with a RuntimeWarning
    rows = [(2.0**-k, 2.0**-k) for k in range(8)]
    for where in ([3], list(range(8))):
        samples = [(s, bad if k in where else e) for k, (s, e) in enumerate(rows)]
        with pytest.raises(ValueError, match=re.escape(f"got {[samples[k] for k in where]}")):
            convergence_order_fit(samples)
    with pytest.raises(ValueError, match=re.escape(f"got {[(bad, 0.1)]}")):
        convergence_order_fit(rows[:5] + [(bad, 0.1)])


def test_fit_preconditions():
    with pytest.raises(ValueError):
        convergence_order_fit([(1.0, 0.1), (0.5, 0.01)])
    with pytest.raises(ValueError):
        convergence_order_fit([(1.0, 0.1), (0.9, 0.09), (0.8, 0.08), (0.7, 0.07)])


def _polyfit_slope_r2(samples, drop_coarsest: int = 2) -> tuple[float, float]:
    """The former fit: ``np.polyfit`` (LAPACK least squares) after the same
    ordering, dropping and zero filtering."""
    scales, errors = map(np.array, zip(*sorted(samples, reverse=True)))
    x, z = np.log(scales[drop_coarsest:]), np.log(errors[drop_coarsest:])
    slope, intercept = np.polyfit(x, z, 1)
    ss_res = np.sum((z - (slope * x + intercept)) ** 2)
    return float(slope), float(1.0 - ss_res / np.sum((z - z.mean()) ** 2))


def test_convergence_fit_is_closed_form_least_squares(monkeypatch):
    rng = np.random.default_rng(17)
    cases = []
    for _ in range(300):
        k = int(rng.integers(4, 14))
        scales = rng.uniform(0.5, 2.0) * 2.0 ** -np.arange(k)
        errors = scales ** rng.uniform(0.2, 3.0) * np.exp(0.3 * rng.standard_normal(k))
        samples = list(zip(scales.tolist(), errors.tolist()))
        cases.append((samples, _polyfit_slope_r2(samples)))

    def no_lapack(*args, **kwargs):
        raise AssertionError("the fit called LAPACK least squares")

    monkeypatch.setattr(np.linalg, "lstsq", no_lapack)
    for samples, (slope, r2) in cases:
        got_slope, got_r2 = convergence_order_fit(samples)
        assert got_slope == pytest.approx(slope, rel=1e-13, abs=1e-13)
        assert got_r2 == pytest.approx(r2, rel=1e-12, abs=1e-12)


def test_convergence_fit_refuses_a_drop_that_leaves_no_fit():
    # -1 and len - 1 reported an infinite slope, -7 dropped nothing
    samples = [(4.0**-k, 2.0**-k) for k in range(6)]
    for drop in (-7, -1, 5, 6):
        with pytest.raises(ValueError, match=rf"drop_coarsest must be in \[0, 4\], got {drop}"):
            convergence_order_fit(samples, drop_coarsest=drop)
    for drop in (0, 4):
        assert convergence_order_fit(samples, drop_coarsest=drop)[0] == pytest.approx(0.5)
