from __future__ import annotations

import numpy as np
import pytest

from roughstruct import (
    ControlledPath,
    ModelledDistribution,
    ONE,
    PolynomialModel,
    RoughModel,
    SampledPath,
    StieltjesMeasure,
    Wdot,
    X,
    ReducedModel,
    antiderivative_from_distribution,
    chen_defect,
    convergence_order_fit,
    generate_path,
    lift_continuity_gap,
    lift_piecewise_smooth,
    make_dyadic_grid,
    multiply_by_Wdot,
    reconstruct,
    rough_integral_path,
    rough_path_distance,
    rough_path_seminorm,
    three_point_defect,
    to_modelled,
    wavelet_lift,
    wavelet_rough_integral,
)
from roughstruct.grids import TestFunction

ALPHA = 0.45


def test_antiderivative_of_lebesgue(basis):
    grid = make_dyadic_grid(1.0, 12)
    xi = StieltjesMeasure(SampledPath(grid, grid.nodes))
    z = antiderivative_from_distribution(xi, basis, max_level=10)
    assert z.values[0, 0] == 0.0
    assert np.abs(z.values[:, 0] - grid.nodes).max() < 1e-4


def test_antiderivative_of_sine_measure(basis):
    grid = make_dyadic_grid(1.0, 12)
    xi = StieltjesMeasure(SampledPath(grid, np.sin(grid.nodes)))
    z = antiderivative_from_distribution(xi, basis, max_level=10)
    assert np.abs(z.values[:, 0] - np.sin(grid.nodes)).max() < 1e-4


def test_antiderivative_of_zero_measure(basis):
    grid = make_dyadic_grid(1.0, 10)
    xi = StieltjesMeasure(SampledPath(grid, np.ones(grid.num_nodes)))
    z = antiderivative_from_distribution(xi, basis)
    assert np.abs(z.values).max() == 0.0


def test_reconstruct_constant_jet(basis):
    # f = c One under the rough model: the antiderivative is c t
    grid = make_dyadic_grid(1.0, 12)
    w = generate_path("fbm", grid, hurst=ALPHA, seed=7)
    model = RoughModel(lift_piecewise_smooth(w, "linear", ALPHA))
    f = ModelledDistribution(
        2 * ALPHA, {ONE: np.full(grid.num_nodes, 1.3)}, grid, model.structure, w
    )
    rr = reconstruct(f, model, basis, trunc_level=10)
    assert np.abs(rr.antiderivative.values[:, 0] - 1.3 * grid.nodes).max() < 1e-6


def test_reconstruct_polynomial_jets(basis):
    # jets of smooth g under the polynomial model recover int g
    # oracle: trapezoid of g at the finest resolution
    grid = make_dyadic_grid(1.0, 12)
    pm = PolynomialModel(grid)
    g = np.sin(3 * grid.nodes) + grid.nodes
    gp = 3 * np.cos(3 * grid.nodes) + 1.0
    f = ModelledDistribution(2.0, {ONE: g, X(1): gp}, grid, pm.structure, None)
    rr = reconstruct(f, pm, basis, trunc_level=10)
    oracle = np.concatenate(
        [[0.0], np.cumsum(0.5 * (g[:-1] + g[1:]) * grid.step)]
    )
    assert np.abs(rr.antiderivative.values[:, 0] - oracle).max() < 1e-5


def test_reconstruct_guards(basis):
    grid = make_dyadic_grid(1.0, 8)
    w = generate_path("fbm", grid, hurst=ALPHA, seed=3)
    model = RoughModel(lift_piecewise_smooth(w, "linear", ALPHA))
    cp = ControlledPath(w.values[:, 0], np.ones(grid.num_nodes), w)
    f = multiply_by_Wdot(to_modelled(cp, ALPHA))
    with pytest.raises(ValueError):
        reconstruct(f, model, basis, trunc_level=12)  # beyond grid resolution
    bad_gamma = ModelledDistribution(
        ALPHA - 1.2, f.coeffs, grid, f.structure, w
    )
    with pytest.raises(ValueError):
        reconstruct(bad_gamma, model, basis)


def test_reconstruct_rejects_weak_basis(basis_db3):
    import roughstruct

    grid = make_dyadic_grid(1.0, 8)
    w = generate_path("fbm", grid, hurst=ALPHA, seed=3)
    model = RoughModel(lift_piecewise_smooth(w, "linear", ALPHA))
    cp = ControlledPath(w.values[:, 0], np.ones(grid.num_nodes), w)
    f = multiply_by_Wdot(to_modelled(cp, ALPHA))
    db2 = roughstruct.daubechies_basis(2)  # regularity 0.55 < 1 - alpha
    with pytest.raises(ValueError):
        reconstruct(f, model, db2)
    reconstruct(f, model, basis_db3, trunc_level=6)  # regular enough


def test_pairing_consistent_with_antiderivative(basis):
    # pairing the reconstruction against a plateau window telescopes to
    # increments of the antiderivative
    grid = make_dyadic_grid(1.0, 10)
    w = generate_path("sin_cos", grid, dim=1)
    rp = lift_piecewise_smooth(w, "sin_cos", ALPHA)
    model = RoughModel(rp)
    cp = ControlledPath(w.values[:, 0], np.ones(grid.num_nodes), w)
    f = multiply_by_Wdot(to_modelled(cp, ALPHA))
    rr = reconstruct(f, model, basis)
    a, b, ramp = 0.25, 0.75, 0.05

    def window(u):
        u = np.asarray(u)
        up = np.clip((u - a) / ramp, 0.0, 1.0)
        down = np.clip((b - u) / ramp, 0.0, 1.0)
        return np.minimum(up, down)

    z = rr.antiderivative.values[:, 0]
    ia = int(round(a * grid.num_intervals))
    ib = int(round(b * grid.num_intervals))
    # the ramp regions contribute ~ramp * |density|; compare at that scale
    assert rr.pair(window) == pytest.approx(z[ib] - z[ia], abs=5e-2)
    mid_a = int(round((a + ramp / 2) * grid.num_intervals))
    mid_b = int(round((b - ramp / 2) * grid.num_intervals))
    assert rr.pair(window) == pytest.approx(z[mid_b] - z[mid_a], abs=2e-3)


def test_wavelet_rough_integral_constant(basis):
    grid = make_dyadic_grid(1.0, 13)
    w = generate_path("sin_cos", grid, dim=1)
    rp = lift_piecewise_smooth(w, "sin_cos", ALPHA)
    cp = ControlledPath(np.ones(grid.num_nodes), np.zeros(grid.num_nodes), w)
    integral = wavelet_rough_integral(cp, rp, basis, trunc_level=11)
    expect = w.values[:, 0] - w.values[0, 0]
    assert np.abs(integral.values[:, 0] - expect).max() < 1e-4


def test_wavelet_rough_integral_w_dw(basis):
    grid = make_dyadic_grid(1.0, 12)
    w = generate_path("sin_cos", grid, dim=1)
    rp = lift_piecewise_smooth(w, "sin_cos", ALPHA)
    cp = ControlledPath(w.values[:, 0], np.ones(grid.num_nodes), w)
    integral = wavelet_rough_integral(cp, rp, basis, trunc_level=10)
    w0 = w.values[0, 0]
    expect = (w.values[:, 0] ** 2 - w0**2) / 2
    assert np.abs(integral.values[:, 0] - expect).max() < 1e-3


def test_wavelet_integral_against_fine_stieltjes_oracle(basis):
    # oracle: plain left-point Stieltjes sums at level J + 4, no rough
    # machinery involved
    grid = make_dyadic_grid(1.0, 14)
    w = generate_path("sin_cos", grid, dim=1)
    rp = lift_piecewise_smooth(w, "sin_cos", ALPHA)
    wv = w.values[:, 0]
    cp = ControlledPath(np.sin(wv), np.cos(wv), w)
    integral = wavelet_rough_integral(cp, rp, basis, trunc_level=10)
    oracle = np.concatenate([[0.0], np.cumsum(np.sin(wv[:-1]) * np.diff(wv))])
    rel = np.abs(integral.values[:, 0] - oracle).max() / np.abs(oracle).max()
    assert rel <= 1e-3


def test_wavelet_route_agrees_with_riemann(basis):
    grid = make_dyadic_grid(1.0, 12)
    w = generate_path("sin_cos", grid, dim=2)
    rp = lift_piecewise_smooth(w, "sin_cos", ALPHA)
    yp = np.zeros((grid.num_nodes, 1, 2))
    yp[:, 0, 0] = 1.0
    cp = ControlledPath(w.values[:, 0], yp, w)
    wavelet = wavelet_rough_integral(cp, rp, basis, trunc_level=10)
    riemann = rough_integral_path(cp, rp)
    rel = np.abs(wavelet.values - riemann).max() / np.abs(riemann).max()
    assert rel < 1e-3


def test_three_point_certificate_slope(basis):
    # |I_{s,t} - y_s W_{s,t} - y'_s WW_{s,t}| <= C |t-s|^(3 alpha): the
    # fitted slope over the measurable octaves clears 3*0.4 - 0.1
    alpha = 0.4
    grid = make_dyadic_grid(1.0, 12)
    w = generate_path("sin_cos", grid, dim=2)
    rp = lift_piecewise_smooth(w, "sin_cos", alpha)
    wv = w.values[:, 0]
    yp = np.zeros((grid.num_nodes, 1, 2))
    yp[:, 0, 0] = np.cos(wv)
    cp = ControlledPath(np.sin(wv), yp, w)
    integral = wavelet_rough_integral(cp, rp, basis, trunc_level=10)
    cert = three_point_defect(integral.values, cp, rp)
    spans = {round(np.log2(s / grid.step)): d for s, d in cert}
    rows = [(grid.step * 2**m, spans[m]) for m in (8, 9, 10, 11)]
    slope, _ = convergence_order_fit(rows, drop_coarsest=0)
    assert slope >= 3 * alpha - 0.1


def test_reconstruction_error_certificate_bounded(basis):
    # the probe-battery quotient |<Rf - Pi_s f(s), eta^lam>| / lam^gamma
    # never grows past 3x its coarsest-scale value, and the defect itself
    # decays with slope >= gamma - 0.1
    grid = make_dyadic_grid(1.0, 12)
    w = generate_path("sin_cos", grid, dim=2)
    rp = lift_piecewise_smooth(w, "sin_cos", ALPHA)
    model = RoughModel(rp)
    wv = w.values[:, 0]
    yp = np.zeros((grid.num_nodes, 1, 2))
    yp[:, 0, 0] = np.cos(wv)
    cp = ControlledPath(np.sin(wv), yp, w)
    f = multiply_by_Wdot(to_modelled(cp, ALPHA), 0)
    rr = reconstruct(f, model, basis, trunc_level=10)
    rows = rr.error_certificate()
    per_lam: dict[float, float] = {}
    for lam, _, ratio in rows:
        per_lam[lam] = max(per_lam.get(lam, 0.0), ratio)
    lams = sorted(per_lam, reverse=True)
    ratios = np.array([per_lam[l] for l in lams])
    assert ratios.max() <= 3.0 * ratios[0]
    defect_rows = [(lam, per_lam[lam] * lam**f.gamma) for lam in lams]
    slope, _ = convergence_order_fit(defect_rows, drop_coarsest=0)
    assert slope >= f.gamma - 0.1


def test_wavelet_lift_scalar_square_identity(basis):
    grid = make_dyadic_grid(1.0, 12)
    w = SampledPath(grid, np.sin(2 * grid.nodes))
    rp = wavelet_lift(w, ALPHA, basis, trunc_level=10)
    stride = 16
    s_idx, t_idx = np.triu_indices(grid.num_intervals // stride + 1, k=1)
    ww = rp.pairs(s_idx * stride, t_idx * stride)[:, 0, 0]
    dw = w.values[t_idx * stride, 0] - w.values[s_idx * stride, 0]
    w_inf = np.abs(w.values).max()
    assert np.abs(ww - dw**2 / 2).max() <= 1e-3 * (1 + w_inf**2)


def test_wavelet_lift_scalar_error_decreases(basis):
    # 1-D lifts approach W^2/2 as the truncation grows
    errors = []
    for level in (6, 8, 10):
        grid = make_dyadic_grid(1.0, level + 2)
        w = SampledPath(grid, np.sin(2 * grid.nodes))
        rp = wavelet_lift(w, ALPHA, basis, trunc_level=level)
        dw = w.values[-1, 0] - w.values[0, 0]
        errors.append(abs(rp.pair(0, grid.num_intervals)[0, 0] - dw**2 / 2))
    assert errors[0] > errors[1] > errors[2]


def test_wavelet_lift_levy_area_converges(basis):
    errors = []
    for level in (6, 8, 10):
        grid = make_dyadic_grid(np.pi / 2, level + 2)
        w = generate_path("sin_cos", grid, dim=2)
        rp = wavelet_lift(w, ALPHA, basis, trunc_level=level)
        got = rp.pair(0, grid.num_intervals)[0, 1]
        errors.append(abs(got + np.pi / 4))
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] <= 5e-3


def test_wavelet_lift_linear_path(basis):
    grid = make_dyadic_grid(1.0, 12)
    vals = np.stack([grid.nodes, 2 * grid.nodes], axis=1)
    w = SampledPath(grid, vals)
    rp = wavelet_lift(w, ALPHA, basis, trunc_level=10)
    dw = w.values[-1] - w.values[0]
    assert np.abs(rp.pair(0, grid.num_intervals) - 0.5 * np.outer(dw, dw)).max() < 2e-3


def test_wavelet_lift_passes_chen(basis):
    grid = make_dyadic_grid(1.0, 10)
    w = generate_path("fbm", grid, dim=2, hurst=0.45, seed=19)
    rp = wavelet_lift(w, ALPHA, basis)
    w_inf = np.abs(w.values).max()
    assert chen_defect(rp) <= 1e-8 * (1 + w_inf**2)
    first, second, _ = rough_path_seminorm(rp)
    assert np.isfinite(first) and np.isfinite(second)


def test_lift_uniqueness_split(basis):
    # gamma > 0: truncation levels J and J+2 agree on the antiderivative
    grid = make_dyadic_grid(1.0, 12)
    w = generate_path("sin_cos", grid, dim=1)
    rp = lift_piecewise_smooth(w, "sin_cos", ALPHA)
    model = RoughModel(rp)
    cp = ControlledPath(w.values[:, 0], np.ones(grid.num_nodes), w)
    f = multiply_by_Wdot(to_modelled(cp, ALPHA))
    z8 = reconstruct(f, model, basis, trunc_level=8).antiderivative.values
    z10 = reconstruct(f, model, basis, trunc_level=10).antiderivative.values
    assert np.abs(z8 - z10).max() < 1e-3


def test_lift_continuity_gap_stable(basis):
    grid = make_dyadic_grid(1.0, 9)
    w = generate_path("sin_cos", grid, dim=2)
    bump = TestFunction(0.5, 0.4)
    direction = np.stack([bump(grid.nodes), np.zeros(grid.num_nodes)], axis=1)
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        w_tilde = SampledPath(grid, w.values + eps * direction)
        ratios.append(lift_continuity_gap(w, w_tilde, ALPHA, basis, trunc_level=7))
    assert max(ratios) <= 3.0 * min(ratios)


def test_lift_continuity_gap_divides_by_its_own_first_level(basis):
    # above grid level 8 the distance scans aligned dyadic pairs; the
    # denominator |W - W~|_alpha must come from the same pairs
    grid = make_dyadic_grid(1.0, 10)
    w = generate_path("sin_cos", grid, dim=2)
    bump = TestFunction(0.5, 0.4)
    w_tilde = SampledPath(grid, w.values + 1e-3 * np.outer(bump(grid.nodes), [1.0, 0.0]))
    first, _, total = rough_path_distance(
        wavelet_lift(w, ALPHA, basis, trunc_level=7),
        wavelet_lift(w_tilde, ALPHA, basis, trunc_level=7),
    )
    assert lift_continuity_gap(w, w_tilde, ALPHA, basis, trunc_level=7) == total / first


def test_lift_continuity_gap_identical_paths(basis):
    grid = make_dyadic_grid(1.0, 6)
    w = generate_path("sin_cos", grid, dim=2)
    with pytest.raises(ValueError):
        lift_continuity_gap(w, w, ALPHA, basis)


def test_lift_scaling_by_two(basis):
    # doubling a scalar path quadruples the canonical second level
    grid = make_dyadic_grid(1.0, 11)
    w = SampledPath(grid, np.sin(grid.nodes))
    w2 = SampledPath(grid, 2 * w.values)
    rp = wavelet_lift(w, ALPHA, basis, trunc_level=9)
    rp2 = wavelet_lift(w2, ALPHA, basis, trunc_level=9)
    a = rp.pair(0, grid.num_intervals)[0, 0]
    b = rp2.pair(0, grid.num_intervals)[0, 0]
    assert b == pytest.approx(4 * a, abs=4e-3)


# ---------------------------------------------------------------------------
# one reconstruct call per vector-valued jet, against per-component loops


def _rel_close(got, want, tol=1e-12) -> None:
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_wavelet_lift_matches_per_component_loop(basis, reconstruct_calls, dim):
    grid = make_dyadic_grid(1.13, 9)
    w = generate_path("fbm", grid, dim=dim, hurst=ALPHA, seed=21)
    got = wavelet_lift(w, ALPHA, basis).second
    assert len(reconstruct_calls) == 1
    # one reconstruction per (i, j) with the scalar jet W^i on Wdot^j
    model = ReducedModel(w, ALPHA)
    z = np.zeros((grid.num_nodes, dim, dim))
    for i in range(dim):
        for j in range(dim):
            f = ModelledDistribution(2 * ALPHA - 1.0, {Wdot(j): w.values[:, i].copy()},
                                     grid, model.structure, w)
            z[:, i, j] = reconstruct(f, model, basis).antiderivative.values[:, 0]
    want = np.diff(z, axis=0) - np.einsum("ki,kj->kij", w.values[:-1], w.increments())
    _rel_close(got, want)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_wavelet_rough_integral_matches_per_component_loop(basis, reconstruct_calls, dim):
    grid = make_dyadic_grid(1.13, 9)
    w = generate_path("fbm", grid, dim=dim, hurst=ALPHA, seed=22)
    rp = lift_piecewise_smooth(w, "linear", ALPHA)
    yp = np.zeros((grid.num_nodes, 1, dim))
    yp[:, 0, 0] = np.cos(w.values[:, 0])
    yp[:, 0, 1:] = 0.3
    cp = ControlledPath(np.sin(w.values[:, 0]), yp, w)
    got = wavelet_rough_integral(cp, rp, basis)
    assert len(reconstruct_calls) == 1
    f = to_modelled(cp, ALPHA)
    model = RoughModel(rp)
    want = np.stack([reconstruct(multiply_by_Wdot(f, j), model, basis).antiderivative.values[:, 0]
                     for j in range(dim)], axis=1)
    _rel_close(got.values, want)

