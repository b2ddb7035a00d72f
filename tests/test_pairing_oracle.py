"""The stencil engine against a direct per-coefficient quadrature.

The reference pairs every basis function with the anchored local model one
coefficient at a time: it samples ``phi^J_k`` with ``cascade_evaluate`` at
the unit-time grid midpoints ``(m + 1/2) / N`` inside its support and dots
the samples with ``Pi_anchor f(anchor)``, realized by the model at the
anchor itself (no re-expansion through Gamma).  Antiderivatives are summed
termwise from the cumulative tables.  Agreement is required to 1e-12
relative to the largest entry, far below the reconstruction tolerances,
so an offset of half a cell in a stencil cannot pass.

The reconstruction certificate is checked the same way: its reference
realizes ``Pi_s f(s)`` at every probe center s itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from roughstruct import (
    ONE,
    ControlledPath,
    ModelledDistribution,
    PolynomialModel,
    ReducedModel,
    RoughModel,
    StieltjesMeasure,
    TestFunction,
    W,
    Wdot,
    WWdot,
    X,
    antiderivative_from_distribution,
    cascade_evaluate,
    daubechies_basis,
    generate_path,
    lift_piecewise_smooth,
    make_dyadic_grid,
    multiply_by_Wdot,
    reconstruct,
    to_modelled,
    wavelet_coefficients,
)
from reference_impl import plan_apply_by_gamma_apply
from roughstruct.reconstruction import ReconstructionPlan

ALPHA = 0.45
GRID_LEVEL = 9
TOL = 1e-12


def _unit_mids(grid) -> np.ndarray:
    return (np.arange(grid.num_intervals) + 0.5) / grid.num_intervals


def _center_of_mass(basis) -> float:
    t = np.arange(-basis.center_shift, basis.taps - 1 - basis.center_shift + 1e-9,
                  basis.table_step)
    return float(np.trapezoid(basis.evaluate("father", t) * t, t))


def _reference_coeffs(f, model, basis, j: int) -> np.ndarray:
    grid = f.grid
    num = grid.num_intervals
    u_mid = _unit_mids(grid)
    du = 1.0 / num
    c = basis.support_radius
    com = _center_of_mass(basis)
    scale = 2.0 ** (-j / 2.0)
    out = []
    for k in basis.index_set(j):
        k = int(k)
        anchor = min(max(int(round((k + com) * num / (1 << j))), 0), num)
        inside = (u_mid >= (k - c) / (1 << j)) & (u_mid <= (k + c) / (1 << j))
        vals = cascade_evaluate(basis, "father", j, k, u_mid[inside])
        at0 = basis.integral("father", float(-k))
        at1 = basis.integral("father", float((1 << j) - k))
        total = 0.0
        for sym, coeff in f.coeffs.items():
            if model.pi_kind(sym) == "measure":
                base = np.dot(vals, model.pi_measure(anchor, sym)[inside])
            else:
                g = model.pi_function(anchor, sym)
                g0 = g[anchor]
                inner = np.dot(vals, 0.5 * (g[:-1] + g[1:])[inside] - g0) * du
                base = (g0 * scale * (at1 - at0) + inner
                        + g[0] * scale * at0 + g[-1] * scale * (1.0 - at1))
            total += float(coeff[anchor]) * float(base)
        out.append(total)
    return np.array(out)


def _reference_primitive(basis, which: str, j: int, coeffs: np.ndarray, num: int) -> np.ndarray:
    """``sum_k coeffs_k int_0^u`` of the level-j basis functions at the unit nodes;
    beyond the support the exact total (1 for phi, 0 for psi) applies."""
    ks = basis.index_set(j).astype(float)
    x = (1 << j) * (np.arange(num + 1) / num)[None, :] - ks[:, None]
    total = 1.0 if which == "father" else 0.0
    cum = np.where(x >= basis.support_radius, total, basis.integral(which, x))
    return 2.0 ** (-j / 2.0) * coeffs @ (cum - basis.integral(which, -ks)[:, None])


def _close(got, want) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= TOL * np.abs(want).max()


def _rough_setup(horizon: float):
    grid = make_dyadic_grid(horizon, GRID_LEVEL)
    w = generate_path("fbm", grid, dim=2, hurst=ALPHA, seed=5)
    rp = lift_piecewise_smooth(w, "linear", ALPHA)
    wv = w.values[:, 0]
    yp = np.zeros((grid.num_nodes, 1, 2))
    yp[:, 0, 0] = np.cos(wv)
    yp[:, 0, 1] = 0.7
    return RoughModel(rp), ControlledPath(np.sin(wv), yp, w)


def _case(name: str, horizon: float):
    if name == "rough-measure":
        model, cp = _rough_setup(horizon)
        return multiply_by_Wdot(to_modelled(cp, ALPHA), 1), model
    if name == "rough-function":
        model, cp = _rough_setup(horizon)
        return to_modelled(cp, ALPHA), model
    grid = make_dyadic_grid(horizon, GRID_LEVEL)
    if name == "reduced":
        w = generate_path("fbm", grid, dim=2, hurst=ALPHA, seed=8)
        model = ReducedModel(w, ALPHA)
        coeffs = {Wdot(0): w.values[:, 1].copy()}
        return ModelledDistribution(2 * ALPHA - 1, coeffs, grid, model.structure, w), model
    model = PolynomialModel(grid)
    t = grid.nodes
    coeffs = {ONE: np.sin(3 * t) + t, X(1): 3 * np.cos(3 * t) + 1, X(2): -4.5 * np.sin(3 * t)}
    return ModelledDistribution(3.0, coeffs, grid, model.structure, None), model


@pytest.mark.parametrize("moments", [3, 4])
@pytest.mark.parametrize("horizon", [1.0, 1.13])
@pytest.mark.parametrize("name", ["rough-measure", "rough-function", "reduced", "polynomial"])
def test_reconstruct_matches_per_coefficient_quadrature(name, horizon, moments):
    basis = daubechies_basis(moments)
    f, model = _case(name, horizon)
    j = GRID_LEVEL - 2
    rr = reconstruct(f, model, basis)
    want = _reference_coeffs(f, model, basis, j)
    # the full index set: both boundary shifts and every interior one
    _close(rr.scaling_coeffs, want)
    for pos in (0, 1, len(want) // 2, -2, -1):
        assert abs(rr.scaling_coeffs[pos] - want[pos]) <= TOL * np.abs(want).max()
    z = _reference_primitive(basis, "father", j, want, f.grid.num_intervals)
    if rr.kind == "function":
        z = z * horizon
    _close(rr.antiderivative.values[:, 0], z)


@pytest.mark.parametrize("moments", [3, 4])
@pytest.mark.parametrize("horizon", [1.0, 1.13])
def test_wavelet_tables_match_per_coefficient_quadrature(horizon, moments):
    basis = daubechies_basis(moments)
    grid = make_dyadic_grid(horizon, GRID_LEVEL)
    xi = StieltjesMeasure(generate_path("fbm", grid, hurst=ALPHA, seed=13))
    dz = xi.integrator.increments()[:, 0]
    u_mid = _unit_mids(grid)
    table = wavelet_coefficients(xi, basis)
    levels = range(table.base_level, table.max_level + 1)

    def row(which: str, j: int) -> np.ndarray:
        return np.array([np.dot(cascade_evaluate(basis, which, j, int(k), u_mid), dz)
                         for k in basis.index_set(j)])

    phi = row("father", table.base_level)
    _close(table.phi, phi)
    z = _reference_primitive(basis, "father", table.base_level, phi, grid.num_intervals)
    for j in levels:
        psi = row("mother", j)
        _close(table.psi_row(j), psi)
        z = z + _reference_primitive(basis, "mother", j, psi, grid.num_intervals)
    assert len(table.psi) == sum(basis.index_set(j).size for j in levels)
    _close(antiderivative_from_distribution(xi, basis).values[:, 0], z)


def test_density_matches_direct_synthesis(basis):
    f, model = _case("rough-measure", 1.0)
    rr = reconstruct(f, model, basis)
    j = rr.max_level
    fine = (np.arange(1 << 15) + 0.5) / (1 << 15)
    density = sum(c * cascade_evaluate(basis, "father", j, int(k), fine)
                  for k, c in zip(basis.index_set(j), rr.scaling_coeffs))

    def probe(u):
        return np.exp(-((u - 0.4) / 0.1) ** 2)

    assert rr.pair(probe) == pytest.approx(np.dot(probe(fine), density) / fine.size, rel=TOL)


@pytest.mark.parametrize("name", ["rough-measure", "rough-function"])
def test_reconstruct_realizes_each_symbol_once(name):
    # the jet is re-expanded at one base point: one model realization per
    # transported symbol, however many coefficients there are
    grid_level = 12
    grid = make_dyadic_grid(1.0, grid_level)
    w = generate_path("sin_cos", grid, dim=2)
    model = RoughModel(lift_piecewise_smooth(w, "sin_cos", ALPHA))
    cp = ControlledPath(np.sin(w.values[:, 0]), np.ones((grid.num_nodes, 1, 2)), w)
    f = to_modelled(cp, ALPHA)
    if name == "rough-measure":
        f = multiply_by_Wdot(f, 0)
    calls = []
    for method in ("pi_measure", "pi_function"):
        bound = getattr(model, method)

        def counted(s_idx, sym, bound=bound):
            calls.append((s_idx, sym))
            return bound(s_idx, sym)

        setattr(model, method, counted)
    reconstruct(f, model)
    symbols = {sym for _, sym in calls}
    assert len(calls) == len(symbols) == len(f.coeffs)
    assert {s for s, _ in calls} == {0}
    # a vector-valued jet realizes the same symbols, not symbols x components
    calls.clear()
    vec = {sym: np.stack([c, 2.0 * c, -c], axis=1) for sym, c in f.coeffs.items()}
    reconstruct(ModelledDistribution(f.gamma, vec, grid, f.structure, f.reference), model)
    assert sorted(map(repr, (sym for _, sym in calls))) == sorted(map(repr, symbols))


def test_plan_realizes_each_symbol_once_across_jets():
    # a plan applied to two function-kind jets realizes each transported
    # symbol once in all, and each application equals its own reconstruct
    grid = make_dyadic_grid(1.0, 10)
    w = generate_path("sin_cos", grid, dim=2)
    model = RoughModel(lift_piecewise_smooth(w, "sin_cos", ALPHA))
    jets = [to_modelled(ControlledPath(np.sin(a * w.values[:, 0]), np.ones((grid.num_nodes, 1, 2)),
                                       w), ALPHA) for a in (1.0, 2.0)]
    want = [reconstruct(f, model).antiderivative.values for f in jets]
    calls = []
    bound = model.pi_function
    model.pi_function = lambda s_idx, sym: calls.append((s_idx, sym)) or bound(s_idx, sym)
    plan = ReconstructionPlan(model, grid)
    got = [plan.apply(f).antiderivative.values for f in jets]
    assert len(calls) == len({sym for _, sym in calls}) == len(jets[0].coeffs)
    assert {s for s, _ in calls} == {0}
    for g, h in zip(got, want):
        assert np.array_equal(g, h)


def _plan_jets(name: str):
    """A model and two jets of one layout: the solver's one-form jet on the
    rough measure symbols, ``(N, d)``; ``wavelet_lift``'s ``(N, n, n)`` jet on
    the reduced structure; a controlled path's ``(N, d)`` function-kind jet;
    a scalar polynomial jet, whose Gamma is a batch of binomial shifts."""
    grid = make_dyadic_grid(1.13, GRID_LEVEL)
    w = generate_path("fbm", grid, dim=2, hurst=ALPHA, seed=21)
    wv, t = w.values, grid.nodes
    if name == "polynomial":
        model = PolynomialModel(grid)
        jets = [{ONE: np.sin(a * t), X(1): a * np.cos(a * t), X(2): -0.5 * a * a * np.sin(a * t)}
                for a in (3.0, 5.0)]
        return model, [ModelledDistribution(3.0, c, grid, model.structure, None) for c in jets]
    if name == "reduced":
        model = ReducedModel(w, ALPHA)
        jets = []
        for a in (1.0, -0.5):
            jet = {Wdot(j): np.zeros((grid.num_nodes, 2, 2)) for j in range(2)}
            for j in range(2):
                jet[Wdot(j)][:, :, j] = a * wv
            jets.append(jet)
        return model, [ModelledDistribution(2 * ALPHA - 1, c, grid, model.structure, w) for c in jets]
    model = RoughModel(lift_piecewise_smooth(w, "linear", ALPHA))
    if name == "rough-function":
        jets = [{ONE: np.column_stack([np.sin(a * wv[:, 0]), np.cos(wv[:, 1])]),
                 W(0): np.column_stack([a * np.cos(a * wv[:, 0]), 0 * t]),
                 W(1): np.column_stack([0 * t, -np.sin(wv[:, 1])])} for a in (1.0, 2.0)]
        return model, [ModelledDistribution(ALPHA, c, grid, model.structure, w) for c in jets]
    jets = []
    for a in (1.0, 0.3):
        g = np.stack([np.tanh(a * wv), np.sin(wv[:, ::-1])], axis=1)  # (N, d, n)
        dg = a * np.stack([g, -g], axis=3)  # (N, d, n, n)
        jet = {}
        for j in range(2):
            jet[Wdot(j)] = g[:, :, j]
            for i in range(2):
                jet[WWdot(i, j)] = dg[:, :, j, i]
        jets.append(jet)
    return model, [ModelledDistribution(3 * ALPHA - 1, c, grid, model.structure, w) for c in jets]


@pytest.mark.parametrize("name", ["rough-measure", "reduced", "rough-function", "polynomial"])
def test_plan_apply_equals_gamma_apply_transport(name):
    # the plan resolves its Gamma's terms on a layout's first apply and sums
    # them on every apply; the reference moves each jet by gamma_apply anew
    model, jets = _plan_jets(name)
    plan = ReconstructionPlan(model, jets[0].grid)
    for f in jets:
        rr = plan.apply(f)
        coeffs, z = plan_apply_by_gamma_apply(plan, f)
        assert np.array_equal(rr.scaling_coeffs, coeffs)
        assert np.array_equal(rr.antiderivative.values, z)


@pytest.mark.parametrize("horizon", [1.0, 1.13])
@pytest.mark.parametrize("value_shape", [(2,), (2, 2)], ids=["2", "2x2"])
@pytest.mark.parametrize("name", ["rough-measure", "rough-function"])
def test_vector_reconstruct_matches_scalar_calls(name, value_shape, horizon):
    f, model = _case(name, horizon)
    size = int(np.prod(value_shape))
    rng = np.random.default_rng(17)
    # component m of every symbol: a distinct perturbation of the scalar jet
    columns = [{sym: (1.0 + 0.5 * m) * c + 0.1 * rng.normal(size=c.shape)
                for sym, c in f.coeffs.items()} for m in range(size)]
    vec = {sym: np.stack([col[sym] for col in columns], axis=1).reshape((-1,) + value_shape)
           for sym in f.coeffs}
    rr = reconstruct(ModelledDistribution(f.gamma, vec, f.grid, f.structure, f.reference), model)
    ks = rr.basis.index_set(rr.max_level).size
    assert rr.scaling_coeffs.shape == (ks,) + value_shape
    assert rr.antiderivative.values.shape == (f.grid.num_nodes, size)
    for m, col in enumerate(columns):
        one = reconstruct(ModelledDistribution(f.gamma, col, f.grid, f.structure, f.reference),
                          model)
        _close(rr.scaling_coeffs.reshape(ks, size)[:, m], one.scaling_coeffs)
        _close(rr.antiderivative.values[:, m], one.antiderivative.values[:, 0])


def _certificate_case(level: int, horizon: float, kind: str):
    grid = make_dyadic_grid(horizon, level)
    w = generate_path("fbm", grid, dim=2, hurst=ALPHA, seed=4)
    model = RoughModel(lift_piecewise_smooth(w, "linear", ALPHA))
    wv = w.values[:, 0]
    yp = np.zeros((grid.num_nodes, 1, 2))
    yp[:, 0, 0] = np.cos(wv)
    yp[:, 0, 1] = 0.3
    f = to_modelled(ControlledPath(np.sin(wv), yp, w), ALPHA)
    return (multiply_by_Wdot(f, 0) if kind == "measure" else f), model


def _reference_certificate(rr, f, model) -> list[tuple[float, float, float]]:
    """Per probe: ``Pi_s f(s)`` realized at the center node s, unit-time midpoint rule."""
    num = f.grid.num_intervals
    u_mid = _unit_mids(f.grid)
    rows = []
    for lam in (2.0**-m for m in range(1, 7)):
        for s_u in np.linspace(0.1, 0.9, 9):
            if s_u - lam < 0.0 or s_u + lam > 1.0:
                continue
            s_node = int(round(s_u * num))
            probe = TestFunction(float(s_u), float(lam))
            fm = probe(u_mid)
            local = 0.0
            for sym, coeff in f.coeffs.items():
                if model.pi_kind(sym) == "measure":
                    base = np.dot(fm, model.pi_measure(s_node, sym))
                else:
                    g = model.pi_function(s_node, sym)
                    base = np.dot(fm, 0.5 * (g[:-1] + g[1:])) / num
                local += float(coeff[s_node]) * float(base)
            rows.append((lam, float(s_u), abs(rr.pair(probe) - local) / lam**rr.gamma))
    return rows


@pytest.mark.parametrize("kind", ["measure", "function"])
@pytest.mark.parametrize("horizon", [1.0, 1.13])
@pytest.mark.parametrize("level", [12, 13])
def test_certificate_matches_per_probe_realization(level, horizon, kind):
    # the certificate defect is a difference of O(1) pairings, so moving
    # every jet through Gamma shows as a relative drift above eps
    f, model = _certificate_case(level, horizon, kind)
    rr = reconstruct(f, model)
    got = rr.error_certificate()
    want = _reference_certificate(rr, f, model)
    assert [row[:2] for row in got] == [row[:2] for row in want]
    for (_, _, a), (_, _, b) in zip(got, want):
        assert a == pytest.approx(b, rel=1e-9)


def test_certificate_realizes_each_symbol_once():
    f, model = _certificate_case(12, 1.0, "measure")
    rr = reconstruct(f, model)
    calls = []
    for method in ("pi_measure", "pi_function"):
        bound = getattr(model, method)

        def counted(s_idx, sym, bound=bound):
            calls.append((s_idx, sym))
            return bound(s_idx, sym)

        setattr(model, method, counted)
    rows = rr.error_certificate()
    assert len(rows) == 40
    # Wdot(0), WWdot(0, 0) and WWdot(1, 0), each realized once at node 0
    assert sorted(map(repr, (sym for _, sym in calls))) == sorted(map(repr, f.coeffs))
    assert {s for s, _ in calls} == {0}


class _SizeRecordingProbe:
    """A test function that records how many points it is evaluated at."""

    def __init__(self, probe: TestFunction):
        self.probe, self.support, self.sizes = probe, probe.support, []

    def __call__(self, u):
        self.sizes.append(np.size(u))
        return self.probe(u)


@pytest.mark.parametrize("horizon", [1.0, 1.13])
@pytest.mark.parametrize("level", [12, 13])
def test_certificate_probes_are_paired_on_their_support(level, horizon):
    # pair() evaluates a probe with a support on the fine cells covering it
    # only; the reference is the midpoint sum over the whole fine grid
    f, model = _certificate_case(level, horizon, "measure")
    rr = reconstruct(f, model)
    got = rr.error_certificate()
    n = rr._density.size
    whole = []

    def whole_grid(probe):
        whole.append(float(np.dot(probe((np.arange(n) + 0.5) / n), rr._density) / n))
        return whole[-1]

    rr.pair = whole_grid
    want = rr.error_certificate()
    del rr.pair
    assert len(got) == len(want) == len(whole) == 40
    for (lam, s_u, a), (_, _, b), pairing in zip(got, want, whole):
        assert abs(a - b) * lam**rr.gamma <= 1e-12 * abs(pairing)
        probe = _SizeRecordingProbe(TestFunction(s_u, lam))
        assert rr.pair(probe) == pytest.approx(pairing, rel=1e-12, abs=0.0)
        assert probe.sizes == [pytest.approx(2 * lam * n, abs=2)]
