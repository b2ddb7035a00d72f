from __future__ import annotations

import numpy as np
import pytest

from reference_impl import wavelet_picard_per_call
from roughstruct import (
    ControlledPath,
    FunctionDescriptor,
    ModelledDistribution,
    RoughModel,
    RoughPath,
    RoughStructure,
    SampledPath,
    SolverConfig,
    SolverError,
    Wdot,
    WWdot,
    builtin_descriptor,
    generate_path,
    lift_piecewise_smooth,
    make_dyadic_grid,
    picard_step,
    reconstruct,
    scalar_descriptor,
    solution_residual,
    solve_rde,
    to_modelled,
)


@pytest.fixture(scope="module")
def time_driver():
    grid = make_dyadic_grid(1.0, 10)
    w = generate_path("polynomial", grid, coeffs=[[0.0, 1.0]])
    return lift_piecewise_smooth(w, "linear", 0.45)


CFG = SolverConfig(alpha=0.4, beta=0.5)


def test_config_exponent_order():
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.5, beta=0.5)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.3, beta=0.45)


def test_zero_field_fixed_point_immediately(time_driver):
    F0 = scalar_descriptor("zero", lambda y: np.zeros_like(y), lambda y: np.zeros_like(y))
    sol, diag = solve_rde(2.7, F0, time_driver, CFG)
    assert np.abs(sol.y - 2.7).max() == 0.0
    assert all(w["iters"] == 1 for w in diag["windows"])


def test_constant_field_linear_in_w(time_driver):
    Fc = scalar_descriptor("c", lambda y: np.full_like(y, 0.7), lambda y: np.zeros_like(y))
    sol, diag = solve_rde(0.3, Fc, time_driver, CFG)
    w = time_driver.path
    expect = 0.3 + 0.7 * (w.values[:, 0] - w.values[0, 0])
    assert np.abs(sol.y[:, 0] - expect).max() < 1e-12
    assert np.abs(sol.y_prime - 0.7).max() < 1e-12


def test_exponential_oracle(time_driver):
    sol, diag = solve_rde(1.0, builtin_descriptor("linear"), time_driver, CFG)
    assert sol.y[-1, 0] == pytest.approx(np.e, abs=1e-3)
    assert all(w["ratio"] < 1.0 for w in diag["windows"])
    assert diag["residual"] <= 10 * CFG.fixed_point_tol


def test_picard_step_constant_field_is_projection(time_driver):
    w = time_driver.path
    n = w.grid.num_nodes
    F0 = scalar_descriptor("zero", lambda y: np.zeros_like(y), lambda y: np.zeros_like(y))
    start = to_modelled(
        ControlledPath(np.sin(w.values[:, 0]), np.cos(w.values[:, 0]), w), CFG.alpha
    )
    stepped = picard_step(start, F0, time_driver, CFG, xi=np.array([0.25]))
    from roughstruct import ONE, W

    assert np.allclose(stepped.coeffs[ONE], 0.25)
    assert np.allclose(stepped.coeffs[W(0)], 0.0)


def test_rotation_field_circle(time_driver):
    grid = time_driver.path.grid
    sol, _ = solve_rde(np.array([1.0, 0.0]), builtin_descriptor("rotation"), time_driver, CFG)
    expect = np.stack([np.cos(grid.nodes), np.sin(grid.nodes)], axis=1)
    assert np.abs(sol.y - expect).max() < 1e-3


def test_fixed_point_identity(time_driver):
    Fs = builtin_descriptor("sin")
    sol, _ = solve_rde(0.5, Fs, time_driver, CFG)
    assert np.abs(sol.y_prime[:, 0, 0] - np.sin(sol.y[:, 0])).max() <= 2 * CFG.fixed_point_tol


def test_residual_detects_corruption(time_driver):
    Fc = scalar_descriptor("c", lambda y: np.full_like(y, 0.7), lambda y: np.zeros_like(y))
    sol, _ = solve_rde(0.3, Fc, time_driver, CFG)
    bad_y = sol.y.copy()
    bad_y[500, 0] += 0.1
    bad = ControlledPath(bad_y, sol.y_prime, time_driver.path)
    assert solution_residual(bad, 0.3, Fc, time_driver) >= 0.05


def test_exact_fixed_point_residual(time_driver):
    w = time_driver.path
    Fc = scalar_descriptor("c", lambda y: np.full_like(y, 2.0), lambda y: np.zeros_like(y))
    exact = ControlledPath(
        1.0 + 2.0 * (w.values[:, 0] - w.values[0, 0]),
        np.full(w.grid.num_nodes, 2.0),
        w,
    )
    assert solution_residual(exact, 1.0, Fc, time_driver) <= 1e-12


def test_window_invariance(time_driver):
    F = builtin_descriptor("sin")
    one_window = SolverConfig(alpha=0.4, beta=0.5, initial_window=1.0)
    halves = SolverConfig(alpha=0.4, beta=0.5, initial_window=0.5)
    sol_a, _ = solve_rde(0.4, F, time_driver, one_window)
    sol_b, _ = solve_rde(0.4, F, time_driver, halves)
    assert np.abs(sol_a.y - sol_b.y).max() <= 10 * one_window.fixed_point_tol


def test_rough_driver_solve():
    grid = make_dyadic_grid(1.0, 10)
    w = generate_path("fbm", grid, hurst=0.5, seed=23)
    rp = lift_piecewise_smooth(w, "linear", 0.45)
    sol, diag = solve_rde(0.5, builtin_descriptor("tanh"), rp, CFG)
    assert diag["residual"] <= 10 * CFG.fixed_point_tol
    assert all(wd["ratio"] < 1.0 for wd in diag["windows"])


def test_driver_continuity_under_mollification():
    # solutions driven by mollified lifts approach the smooth-driver
    # solution as the smoothing radius shrinks
    grid = make_dyadic_grid(1.0, 10)
    base_vals = np.sin(3 * grid.nodes)
    base = SampledPath(grid, base_vals)
    rp = lift_piecewise_smooth(base, "linear", 0.45)
    F = builtin_descriptor("sin")
    sol0, _ = solve_rde(0.5, F, rp, CFG)
    dists = []
    for radius in (32, 8, 2):
        kernel = np.ones(2 * radius + 1) / (2 * radius + 1)
        padded = np.pad(base_vals, radius, mode="edge")
        mollified = SampledPath(grid, np.convolve(padded, kernel, mode="valid"))
        rp_m = lift_piecewise_smooth(mollified, "linear", 0.45)
        sol_m, _ = solve_rde(0.5, F, rp_m, CFG)
        dists.append(np.abs(sol_m.y - sol0.y).max())
    assert dists[0] > dists[1] > dists[2]


def test_wavelet_route_cross_validation(time_driver):
    cfg_w = SolverConfig(alpha=0.4, beta=0.5, integral_route="wavelet")
    sol_w, _ = solve_rde(1.0, builtin_descriptor("linear"), time_driver, cfg_w)
    sol_r, _ = solve_rde(1.0, builtin_descriptor("linear"), time_driver, CFG)
    assert np.abs(sol_w.y - sol_r.y).max() < 2e-2


def test_wavelet_route_on_tiny_window_fails_cleanly():
    grid = make_dyadic_grid(1.0, 1)
    w = SampledPath(grid, grid.nodes)
    rp = lift_piecewise_smooth(w, "linear", 0.45)
    cfg = SolverConfig(alpha=0.4, beta=0.5, integral_route="wavelet")
    with pytest.raises(SolverError):
        solve_rde(1.0, builtin_descriptor("linear"), rp, cfg)


def test_working_box_exceeded_propagates(time_driver):
    # exponential growth escapes a tight declared box
    tight = scalar_descriptor(
        "boxed", lambda y: y, lambda y: np.ones_like(y), box=(0.0, 1.5)
    )
    with pytest.raises(ValueError, match="box"):
        solve_rde(1.0, tight, time_driver, CFG)


def test_fbm_rejects_bad_hurst():
    with pytest.raises(ValueError):
        generate_path("fbm", make_dyadic_grid(1.0, 4), hurst=1.5, seed=0)


def test_non_contraction_reported():
    # single-interval windows converge within a couple of iterations by
    # construction (left-point data), so exhausting a one-iteration budget
    # is the honest way to drive halving below grid resolution
    grid = make_dyadic_grid(1.0, 4)
    w = SampledPath(grid, grid.nodes)
    rp = lift_piecewise_smooth(w, "linear", 0.45)
    F = builtin_descriptor("linear")
    cfg = SolverConfig(alpha=0.4, beta=0.5, max_picard_iters=1)
    with pytest.raises(SolverError):
        solve_rde(1.0, F, rp, cfg)


@pytest.mark.parametrize("d, n", [(1, 1), (2, 1), (3, 2)])
def test_wavelet_integrate_matches_per_component_loop(reconstruct_calls, d, n):
    from roughstruct.solver import _integrator

    grid = make_dyadic_grid(1.13, 8)
    rp = lift_piecewise_smooth(generate_path("fbm", grid, dim=n, hurst=0.45, seed=4), "linear", 0.45)
    rng = np.random.default_rng(2)
    g = rng.normal(size=(grid.num_nodes, d, n))
    dg = rng.normal(size=(grid.num_nodes, d, n, n))
    got = _integrator(rp, SolverConfig(0.4, 0.5, integral_route="wavelet"))(g, dg)
    assert len(reconstruct_calls) == 1
    # one scalar reconstruction per solution component m
    model = RoughModel(rp)
    want = np.zeros((grid.num_nodes, d))
    for m in range(d):
        coeffs = {}
        for j in range(n):
            coeffs[Wdot(j)] = g[:, m, j].copy()
            for i in range(n):
                coeffs[WWdot(i, j)] = dg[:, m, j, i].copy()
        f = ModelledDistribution(3 * rp.alpha - 1.0, coeffs, grid, model.structure, rp.path)
        want[:, m] = reconstruct(f, model).antiderivative.values[:, 0]
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------------------
# the wavelet route builds one reconstruction plan per window


def _fbm_driver(level: int, n: int = 1, seed: int = 6):
    w = generate_path("fbm", make_dyadic_grid(1.0, level), dim=n, hurst=0.45, seed=seed)
    return lift_piecewise_smooth(w, "linear", 0.45)


def test_wavelet_solve_realizes_symbols_once_per_window(monkeypatch):
    # d = n = 1: the one-form jet moves onto the two symbols Wdot, WWdot
    rp = _fbm_driver(10)
    realized, attempts = [], []
    pi_measure, restrict = RoughModel.pi_measure, RoughPath.restrict
    monkeypatch.setattr(RoughModel, "pi_measure",
                        lambda m, s, sym: realized.append(sym) or pi_measure(m, s, sym))
    monkeypatch.setattr(RoughPath, "restrict",
                        lambda r, s, lv: attempts.append(s) or restrict(r, s, lv))
    iters = []
    for tol in (1e-9, 1e-5):
        realized.clear()
        attempts.clear()
        cfg = SolverConfig(alpha=0.4, beta=0.45, fixed_point_tol=tol, integral_route="wavelet")
        _, diag = solve_rde(0.3, builtin_descriptor("tanh"), rp, cfg)
        iters.append(sum(w["iters"] for w in diag["windows"]))
        assert iters[-1] > len(attempts)
        assert len(realized) == 2 * len(attempts)
        assert {repr(s) for s in realized} == {repr(Wdot(0)), repr(WWdot(0, 0))}
    assert iters[0] != iters[1]


def test_wavelet_solve_resolves_gamma_once_per_window(monkeypatch):
    # the plan's Gamma is fixed: its shift rules are read on a window's first
    # apply only (Wdot and WWdot, d = n = 1), not on every Picard iterate
    rp = _fbm_driver(10)
    shifted, attempts = [], []
    gamma_symbol, restrict = RoughStructure.gamma_symbol, RoughPath.restrict
    monkeypatch.setattr(RoughStructure, "gamma_symbol",
                        lambda st, sym, h: shifted.append(sym) or gamma_symbol(st, sym, h))
    monkeypatch.setattr(RoughPath, "restrict",
                        lambda r, s, lv: attempts.append(s) or restrict(r, s, lv))
    cfg = SolverConfig(alpha=0.4, beta=0.45, fixed_point_tol=1e-9, integral_route="wavelet")
    _, diag = solve_rde(0.3, builtin_descriptor("tanh"), rp, cfg)
    assert sum(w["iters"] for w in diag["windows"]) > len(attempts)
    assert len(shifted) == 2 * len(attempts)
    assert {repr(s) for s in shifted} == {repr(Wdot(0)), repr(WWdot(0, 0))}


def _linear_field(d: int, n: int) -> FunctionDescriptor:
    """F(y)_{pj} = A_{pj} . y with small fixed weights."""
    a = 0.3 * np.random.default_rng(d + n).normal(size=(d, n, d))

    def value(y):
        return np.einsum("pjq,...q->...pj", a, y)

    def jacobian(y):
        return np.broadcast_to(a, y.shape[:-1] + a.shape).copy()

    return FunctionDescriptor(f"linear({d}x{n})", value, jacobian)


@pytest.mark.parametrize("kind", ["sin_cos", "fbm"])
@pytest.mark.parametrize("d, n", [(1, 1), (2, 1), (3, 2)])
def test_wavelet_solve_matches_per_iteration_reconstruction(kind, d, n):
    level = 8
    if kind == "fbm":
        rp = _fbm_driver(level, n)
    else:
        w = generate_path("sin_cos", make_dyadic_grid(1.0, level), dim=n)
        rp = lift_piecewise_smooth(w, "linear", 0.45)
    F = builtin_descriptor("tanh") if d == 1 else _linear_field(d, n)
    xi = np.linspace(0.3, 0.6, d)
    cfg = SolverConfig(alpha=0.4, beta=0.45, integral_route="wavelet")
    sol, diag = solve_rde(xi, F, rp, cfg)
    window_level = level - 2
    assert [w["t1"] - w["t0"] for w in diag["windows"]] == [0.25] * 4  # no halving
    y, yp, iters = wavelet_picard_per_call(xi, F, rp, window_level, cfg.fixed_point_tol,
                                           cfg.max_picard_iters)
    assert iters == [w["iters"] for w in diag["windows"]]
    assert np.array_equal(sol.y, y)
    assert np.array_equal(sol.y_prime, yp)
