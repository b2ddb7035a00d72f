"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPT c<k> pass|FAIL`` line (visible with
``pytest -s`` or in the captured output of a failing run) and asserts the
stated tolerance.  Runtime-limited criteria time themselves.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from roughstruct import (
    ControlledPath,
    ModelSpaceVector,
    PolynomialStructure,
    RoughModel,
    RoughStructure,
    SampledPath,
    SolverConfig,
    X,
    builtin_descriptor,
    chen_defect,
    controlled_seminorm,
    convergence_order_fit,
    daubechies_basis,
    gamma_apply,
    generate_path,
    lift_continuity_gap,
    lift_piecewise_smooth,
    make_dyadic_grid,
    md_norm_star,
    md_seminorm,
    multiply_by_Wdot,
    reconstruct,
    rough_integral_path,
    solve_rde,
    three_point_defect,
    to_modelled,
    wavelet_lift,
    wavelet_rough_integral,
    young_integral,
)
from roughstruct.grids import TestFunction
from roughstruct.modelled import compose
from roughstruct.structure import ONE


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPT {name} {'pass' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def basis():
    return daubechies_basis(4)


def test_c1_chen_exactness_of_linear_lifts():
    start = time.perf_counter()
    grid = make_dyadic_grid(1.0, 8)
    worst = 0.0
    for seed in range(20):
        w = generate_path("fbm", grid, dim=2, hurst=0.5, seed=seed)
        rp = lift_piecewise_smooth(w, "linear", alpha=0.45)
        worst = max(worst, chen_defect(rp))
    elapsed = time.perf_counter() - start
    _report(
        "c1",
        worst <= 1e-10 and elapsed < 5.0,
        f"20 linear lifts at J=8: worst defect {worst:.3e} (<=1e-10), {elapsed:.2f}s (<5s)",
    )


def test_c2_levy_area_oracle(basis):
    start = time.perf_counter()
    errors = []
    for level in (6, 8, 10):
        grid = make_dyadic_grid(np.pi / 2, level + 2)
        w = generate_path("sin_cos", grid, dim=2)
        rp = wavelet_lift(w, 0.45, basis, trunc_level=level)
        got = rp.pair(0, grid.num_intervals)[0, 1]
        errors.append(abs(got + np.pi / 4))
    elapsed = time.perf_counter() - start
    ok = errors[0] > errors[1] > errors[2] and errors[-1] <= 5e-3 and elapsed < 30.0
    _report(
        "c2",
        ok,
        f"WW12 -> -pi/4 errors {[f'{e:.2e}' for e in errors]} strictly decreasing, "
        f"final <=5e-3, {elapsed:.2f}s (<30s)",
    )


def test_c3_scalar_lift_identity(basis):
    grid = make_dyadic_grid(1.0, 12)
    w = SampledPath(grid, np.sin(2 * grid.nodes))
    rp = wavelet_lift(w, 0.45, basis, trunc_level=10)
    stride = 16
    s_idx, t_idx = np.triu_indices(grid.num_intervals // stride + 1, k=1)
    ww = rp.pairs(s_idx * stride, t_idx * stride)[:, 0, 0]
    dw = w.values[t_idx * stride, 0] - w.values[s_idx * stride, 0]
    err = float(np.abs(ww - dw**2 / 2).max())
    tol = 1e-3 * (1 + float(np.abs(w.values).max()) ** 2)
    _report("c3", err <= tol, f"|WW - W^2/2| = {err:.2e} <= {tol:.2e} at J=10")


def test_c4_three_point_bound_slope(basis):
    start = time.perf_counter()
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
    table = {round(np.log2(span / grid.step)): d for span, d in cert}
    rows = [(grid.step * 2**m, table[m]) for m in (8, 9, 10, 11)]
    slope, r2 = convergence_order_fit(rows, drop_coarsest=0)
    elapsed = time.perf_counter() - start
    _report(
        "c4",
        slope >= 3 * alpha - 0.1 and elapsed < 10.0,
        f"defect slope {slope:.2f} >= {3 * alpha - 0.1} over 3 octaves "
        f"(R^2 {r2:.3f}), {elapsed:.2f}s (<10s)",
    )


def test_c5_route_agreement(basis):
    grid = make_dyadic_grid(1.0, 12)
    w = generate_path("sin_cos", grid, dim=2)
    rp = lift_piecewise_smooth(w, "sin_cos", 0.45)
    yp = np.zeros((grid.num_nodes, 1, 2))
    yp[:, 0, 0] = 1.0
    cp = ControlledPath(w.values[:, 0], yp, w)
    wavelet = wavelet_rough_integral(cp, rp, basis, trunc_level=10)
    riemann = rough_integral_path(cp, rp)
    rel = float(np.abs(wavelet.values - riemann).max() / np.abs(riemann).max())
    _report("c5", rel <= 1e-3, f"wavelet vs compensated-Riemann relative gap {rel:.2e} <= 1e-3")


def test_c6_reconstruction_bound(basis):
    # smooth drivers over-satisfy the lambda^gamma bound (the defect decays
    # strictly faster), so the empirical constant peaks at the coarsest
    # scale; bounded-within-3 is asserted against that peak
    alpha = 0.45
    grid = make_dyadic_grid(1.0, 12)
    w = generate_path("sin_cos", grid, dim=2)
    rp = lift_piecewise_smooth(w, "sin_cos", alpha)
    model = RoughModel(rp)
    wv = w.values[:, 0]
    yp = np.zeros((grid.num_nodes, 1, 2))
    yp[:, 0, 0] = np.cos(wv)
    cp = ControlledPath(np.sin(wv), yp, w)
    f = multiply_by_Wdot(to_modelled(cp, alpha), 0)
    assert f.gamma == pytest.approx(3 * alpha - 1)
    rr = reconstruct(f, model, basis, trunc_level=10)
    per_lam: dict[float, float] = {}
    for lam, _, ratio in rr.error_certificate():
        per_lam[lam] = max(per_lam.get(lam, 0.0), ratio)
    lams = sorted(per_lam, reverse=True)
    ratios = np.array([per_lam[l] for l in lams])
    ok = bool(ratios.max() <= 3.0 * ratios[0])
    _report(
        "c6",
        ok,
        "battery ratios per lambda "
        + str([f"{r:.2e}" for r in ratios])
        + f" bounded by 3x coarsest ({3 * ratios[0]:.2e})",
    )


def test_c7_exponential_rde_oracle():
    start = time.perf_counter()
    grid = make_dyadic_grid(1.0, 10)
    w = generate_path("polynomial", grid, coeffs=[[0.0, 1.0]])
    rp = lift_piecewise_smooth(w, "linear", 0.45)
    cfg = SolverConfig(alpha=0.4, beta=0.5)
    sol, diag = solve_rde(1.0, builtin_descriptor("linear"), rp, cfg)
    err = abs(sol.y[-1, 0] - np.e)
    worst_ratio = max(wd["ratio"] for wd in diag["windows"])
    elapsed = time.perf_counter() - start
    _report(
        "c7",
        err <= 1e-3 and worst_ratio < 1.0 and elapsed < 10.0,
        f"y(1) err {err:.2e} <= 1e-3, worst contraction ratio {worst_ratio:.3f} < 1, "
        f"{elapsed:.2f}s (<10s)",
    )


def test_c8_norm_equivalence():
    alpha = 0.45
    rng = np.random.default_rng(7)
    grid = make_dyadic_grid(1.0, 8)
    failures = []
    for trial in range(20):
        dim = 1 if trial % 2 == 0 else 2
        w = generate_path("fbm", grid, dim=dim, hurst=0.5, seed=100 + trial)
        model = RoughModel(lift_piecewise_smooth(w, "linear", alpha))
        d = 1 if trial % 3 else 2
        t = grid.nodes
        y = rng.standard_normal(d)[None, :] * np.sin(3 * t)[:, None] + w.values[:, :1] * rng.standard_normal()
        y = y[:, :d] if d <= y.shape[1] else np.tile(y, (1, d))[:, :d]
        yp = rng.standard_normal((1, d, dim)) * np.cos(2 * t)[:, None, None]
        cp = ControlledPath(y, yp, w)
        jet = md_seminorm(to_modelled(cp, alpha), model)
        _, _, total = controlled_seminorm(cp, alpha)
        if not (jet <= total + 1e-12 and total <= 2 * jet + 1e-12):
            failures.append((trial, jet, total))
    _report(
        "c8",
        not failures,
        f"|Y| <= |(y,y')| <= 2|Y| exactly on 20 random controlled paths "
        f"(failures: {failures})",
    )


def test_c9_composition_lipschitz():
    alpha = 0.45
    grid = make_dyadic_grid(1.0, 8)
    w = generate_path("fbm", grid, hurst=0.5, seed=42)
    model = RoughModel(lift_piecewise_smooth(w, "linear", alpha))
    wv = w.values[:, 0]
    t = grid.nodes
    base = ControlledPath(0.2 * wv, np.full_like(wv, 0.2), w)
    f1 = to_modelled(base, alpha)
    F = builtin_descriptor("sin")
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(20):
        da, db, dc = 1e-2 * rng.standard_normal(3)
        pert = ControlledPath(
            base.y[:, 0] + da * np.sin(2 * t) + db * wv,
            base.y_prime[:, 0, 0] + db + dc * np.cos(t),
            w,
        )
        f2 = to_modelled(pert, alpha)
        num = md_norm_star(compose(F, f1) - compose(F, f2), model)
        den = md_norm_star(f1 - f2, model)
        ratios.append(num / den)
    spread = max(ratios) / min(ratios)
    _report(
        "c9",
        spread <= 2.0,
        f"composition quotient across 20 pairs in [{min(ratios):.4f}, {max(ratios):.4f}], "
        f"spread {spread:.3f} <= 2",
    )


def test_c10_lift_continuity(basis):
    grid = make_dyadic_grid(1.0, 9)
    w = generate_path("sin_cos", grid, dim=2)
    bump = TestFunction(0.5, 0.4)
    direction = np.stack([bump(grid.nodes), np.zeros(grid.num_nodes)], axis=1)
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        w_tilde = SampledPath(grid, w.values + eps * direction)
        ratios.append(lift_continuity_gap(w, w_tilde, 0.45, basis, trunc_level=7))
    spread = max(ratios) / min(ratios)
    _report(
        "c10",
        spread <= 3.0,
        f"lift gap ratios {[f'{r:.3f}' for r in ratios]} vary by {spread:.3f} <= 3",
    )


def test_c11_young_oracle():
    grid = make_dyadic_grid(1.0, 10)
    y = SampledPath(grid, grid.nodes)
    w = SampledPath(grid, grid.nodes**2)
    val = float(young_integral(y, w)[-1, 0])
    _report("c11", abs(val - 2.0 / 3.0) <= 1e-3, f"int t d(t^2) = {val:.6f} = 2/3 +- 1e-3")


def test_c12_group_law():
    rng = np.random.default_rng(11)
    rough = RoughStructure(0.42, 2)
    poly = PolynomialStructure(dim=1)
    poly_syms = [ONE, X(1), X(2), X(3)]
    worst = 0.0
    for _ in range(1000):
        h1, h2 = rng.standard_normal(2), rng.standard_normal(2)
        for sym in rough.symbols():
            v = ModelSpaceVector({sym: 1.0})
            nested = gamma_apply(h1, gamma_apply(h2, v, rough), rough)
            direct = gamma_apply(h1 + h2, v, rough)
            delta = nested - direct
            worst = max(
                worst,
                max((abs(float(np.max(np.abs(np.asarray(c))))) for c in delta.coeffs.values()), default=0.0),
            )
        g1, g2 = rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)
        for sym in poly_syms:
            v = ModelSpaceVector({sym: 1.0})
            nested = gamma_apply(g1, gamma_apply(g2, v, poly), poly)
            direct = gamma_apply(g1 + g2, v, poly)
            delta = nested - direct
            worst = max(
                worst,
                max((abs(float(np.max(np.abs(np.asarray(c))))) for c in delta.coeffs.values()), default=0.0),
            )
    _report("c12", worst <= 1e-14, f"group-law coefficient error {worst:.2e} <= 1e-14 over 1000 pairs")
