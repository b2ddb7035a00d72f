from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from roughstruct import (
    ONE,
    ModelSpaceVector,
    PolynomialModel,
    PolynomialStructure,
    ReducedModel,
    RoughModel,
    RoughStructure,
    W,
    Wdot,
    WWdot,
    X,
    gamma_apply,
    generate_path,
    lift_piecewise_smooth,
    make_dyadic_grid,
    multiply,
    pi_pair,
)
from roughstruct.grids import SampledPath, TestFunction


def _coeff_err(v: ModelSpaceVector) -> float:
    return max((float(np.max(np.abs(np.asarray(c)))) for c in v.coeffs.values()), default=0.0)


def test_homogeneities():
    st = RoughStructure(0.45, 2)
    assert st.homogeneity(ONE) == 0.0
    assert st.homogeneity(W(0)) == pytest.approx(0.45)
    assert st.homogeneity(Wdot(1)) == pytest.approx(-0.55)
    assert st.homogeneity(WWdot(0, 1)) == pytest.approx(-0.1)
    ps = PolynomialStructure()
    assert ps.homogeneity(X(3)) == 3.0


def test_gamma_identity_at_zero_shift():
    st = RoughStructure(0.4, 2)
    g0 = np.zeros(2)
    for sym in st.symbols():
        out = gamma_apply(g0, ModelSpaceVector({sym: 1.0}), st)
        assert out.coeffs[sym] == 1.0
        assert _coeff_err(out - ModelSpaceVector({sym: 1.0})) == 0.0


def test_gamma_wwdot_rule():
    # the second-order symbol picks up h^i times the matching noise symbol
    st = RoughStructure(0.45, 2)
    g = np.array([1.0, 0.0])
    out = gamma_apply(g, ModelSpaceVector({WWdot(0, 1): 1.0}), st)
    assert out.coeffs[WWdot(0, 1)] == 1.0
    assert out.coeffs[Wdot(1)] == 1.0
    assert set(out.support()) == {WWdot(0, 1), Wdot(1)}


def test_gamma_polynomial_binomial():
    ps = PolynomialStructure(dim=1)
    g = np.array([0.5])
    out = gamma_apply(g, ModelSpaceVector({X(2): 1.0}), ps)
    assert out.coeffs[X(2)] == pytest.approx(1.0)
    assert out.coeffs[X(1)] == pytest.approx(1.0)  # 2 * 0.5
    assert out.coeffs[ONE] == pytest.approx(0.25)


def test_gamma_dimension_mismatch():
    ps = PolynomialStructure(dim=2)
    g = np.array([0.5])
    with pytest.raises(ValueError):
        gamma_apply(g, ModelSpaceVector({X((1, 1)): 1.0}), ps)


def test_group_law_rough(rng):
    st = RoughStructure(0.42, 2)
    for _ in range(200):
        h1, h2 = rng.standard_normal(2), rng.standard_normal(2)
        for sym in st.symbols():
            v = ModelSpaceVector({sym: 1.0})
            nested = gamma_apply(h1, gamma_apply(h2, v, st), st)
            direct = gamma_apply(h1 + h2, v, st)
            assert _coeff_err(nested - direct) <= 1e-14


def test_group_law_polynomial(rng):
    ps = PolynomialStructure(dim=1)
    for _ in range(200):
        h1, h2 = rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)
        for sym in [ONE, X(1), X(2), X(3)]:
            v = ModelSpaceVector({sym: 1.0})
            nested = gamma_apply(h1, gamma_apply(h2, v, ps), ps)
            direct = gamma_apply(h1 + h2, v, ps)
            assert _coeff_err(nested - direct) <= 1e-14


def test_triangularity(rng):
    # Gamma tau - tau is supported strictly below tau's homogeneity
    st = RoughStructure(0.45, 2)
    g = rng.standard_normal(2)
    for sym in st.symbols():
        hom = st.homogeneity(sym)
        moved = gamma_apply(g, ModelSpaceVector({sym: 1.0}), st)
        delta = moved - ModelSpaceVector({sym: 1.0})
        for low in delta.support():
            assert st.homogeneity(low) < hom - 1e-12


def test_product_table():
    st = RoughStructure(0.45, 2)
    assert st.product(W(0), Wdot(1)) == WWdot(0, 1)
    assert st.product(Wdot(1), W(0)) == WWdot(0, 1)
    assert st.product(ONE, Wdot(1)) == Wdot(1)
    assert st.product(W(0), ONE) == W(0)
    # blank cells of the table are zero: the sum of homogeneities leaves A
    assert st.product(W(0), W(1)) is None
    assert st.product(Wdot(0), Wdot(1)) is None
    assert st.product(WWdot(0, 1), W(0)) is None
    assert st.product(WWdot(0, 1), WWdot(1, 0)) is None


def test_product_grading():
    st = RoughStructure(0.41, 2)
    for a in st.symbols():
        for b in st.symbols():
            out = st.product(a, b)
            if out is not None:
                assert st.homogeneity(out) == pytest.approx(
                    st.homogeneity(a) + st.homogeneity(b)
                )


def test_multiply_bilinear():
    st = RoughStructure(0.45, 1)
    v = ModelSpaceVector({ONE: 2.0, W(0): 3.0})
    w = ModelSpaceVector({Wdot(0): 1.0})
    out = multiply(v, w, st)
    assert out.coeffs[Wdot(0)] == 2.0
    assert out.coeffs[WWdot(0, 0)] == 3.0


def test_polynomial_product():
    ps = PolynomialStructure(dim=1)
    out = multiply(ModelSpaceVector({X(1): 2.0}), ModelSpaceVector({X(2): 5.0}), ps)
    assert out.coeffs[X(3)] == 10.0


# ---------------------------------------------------------------------------
# models


@pytest.fixture(scope="module")
def smooth_rough_model():
    grid = make_dyadic_grid(1.0, 8)
    w = generate_path("sin_cos", grid, dim=2)
    return RoughModel(lift_piecewise_smooth(w, "sin_cos", 0.45))


def test_model_cocycle(smooth_rough_model):
    m = smooth_rough_model
    g1 = m.gamma_of(10, 100)
    g2 = m.gamma_of(100, 200)
    g12 = m.gamma_of(10, 200)
    assert np.allclose(g1 + g2, g12, atol=1e-15)


def test_model_algebraic_identity(smooth_rough_model):
    # Pi_s Gamma_{s,t} = Pi_t paired against a battery of localized bumps
    m = smooth_rough_model
    st = m.structure
    worst = 0.0
    for s_idx, t_idx in [(32, 128), (64, 200), (5, 250)]:
        g = m.gamma_of(s_idx, t_idx)
        for sym in st.symbols():
            v = ModelSpaceVector({sym: 1.0})
            moved = gamma_apply(g, v, st)
            for lam in (0.25, 0.125):
                probe = TestFunction(0.5, lam)
                lhs = pi_pair(m, s_idx, moved, probe)
                rhs = pi_pair(m, t_idx, v, probe)
                worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-8


def test_pi_pair_constant_symbol_unit_profile(smooth_rough_model):
    # the constant symbol pairs a localized probe to its integral: the bump's
    # integral over (-1, 1), whatever the centre and scale
    u = np.linspace(-1.0, 1.0, 200001)
    bump_integral = np.trapezoid(TestFunction()(u), u)
    probe = TestFunction(0.5, 0.125)
    val = pi_pair(smooth_rough_model, 0, ModelSpaceVector({ONE: 1.0}), probe)
    assert val / bump_integral == pytest.approx(1.0, abs=1e-6)


def test_pi_pair_odd_moment_vanishes():
    grid = make_dyadic_grid(1.0, 10)
    w = SampledPath(grid, grid.nodes)
    m = RoughModel(lift_piecewise_smooth(w, "linear", 0.5))
    probe = TestFunction(0.5, 0.25)
    val = pi_pair(m, grid.num_intervals // 2, ModelSpaceVector({W(0): 1.0}), probe)
    assert abs(val) < 1e-6


def test_pi_pair_lebesgue_noise_equals_constant():
    # dW = dt makes the noise pairing coincide with the constant pairing
    grid = make_dyadic_grid(1.0, 10)
    w = SampledPath(grid, grid.nodes)
    m = RoughModel(lift_piecewise_smooth(w, "linear", 0.5))
    probe = TestFunction(0.3, 0.2)
    a = pi_pair(m, 0, ModelSpaceVector({Wdot(0): 1.0}), probe)
    b = pi_pair(m, 0, ModelSpaceVector({ONE: 1.0}), probe)
    assert a == pytest.approx(b, abs=1e-9)


def test_pi_pair_missing_second_order():
    grid = make_dyadic_grid(1.0, 6)
    w = generate_path("fbm", grid, dim=1, hurst=0.5, seed=0)
    reduced = ReducedModel(w, 0.45)
    with pytest.raises(KeyError):
        pi_pair(reduced, 0, ModelSpaceVector({WWdot(0, 0): 1.0}), TestFunction())


def test_zero_path_noise_contribution_vanishes():
    grid = make_dyadic_grid(1.0, 6)
    w = SampledPath(grid, np.zeros(grid.num_nodes))
    m = RoughModel(lift_piecewise_smooth(w, "linear", 0.45))
    for s_idx, lam in [(0, 0.5), (16, 0.25), (40, 0.125), (64, 1.0)]:
        probe = TestFunction(grid.nodes[s_idx], lam)
        assert pi_pair(m, s_idx, ModelSpaceVector({Wdot(0): 1.0}), probe) == 0.0


# ---------------------------------------------------------------------------
# re-expansion at one base point: Pi_s tau = Pi_0 (Gamma_{0,s} tau)


def _models_for_reexpansion(horizon: float = 1.3):
    grid = make_dyadic_grid(horizon, 7)
    w = generate_path("fbm", grid, dim=2, hurst=0.45, seed=21)
    rough = RoughModel(lift_piecewise_smooth(w, "linear", 0.45))
    reduced = ReducedModel(w, 0.45)
    poly = PolynomialModel(grid, max_degree=4)
    return {"rough": rough, "reduced": reduced, "polynomial": poly}


_REEXPANSION_MODELS = _models_for_reexpansion()


def _realize(model, s_idx: int, sym) -> np.ndarray:
    if model.pi_kind(sym) == "measure":
        return model.pi_measure(s_idx, sym)
    return model.pi_function(s_idx, sym)


@settings(max_examples=40, deadline=None)
@given(
    name=hst.sampled_from(sorted(_REEXPANSION_MODELS)),
    s_idx=hst.integers(min_value=0, max_value=128),
)
def test_pi_s_is_pi_0_after_gamma(name, s_idx):
    model = _REEXPANSION_MODELS[name]
    for sym in model.structure.symbols():
        moved = gamma_apply(model.gamma_of(0, s_idx), ModelSpaceVector({sym: 1.0}),
                            model.structure)
        rebuilt = sum(c * _realize(model, 0, tau) for tau, c in moved.coeffs.items())
        direct = _realize(model, s_idx, sym)
        assert np.abs(rebuilt - direct).max() <= 1e-12 * (1.0 + np.abs(direct).max())


@settings(max_examples=20, deadline=None)
@given(
    name=hst.sampled_from(sorted(_REEXPANSION_MODELS)),
    anchors=hst.lists(hst.integers(min_value=0, max_value=128), min_size=1, max_size=12),
)
def test_batched_gamma_matches_scalar_calls(name, anchors):
    model = _REEXPANSION_MODELS[name]
    anchors = np.array(anchors)
    jets = {sym: np.linspace(-1.0, 2.0, anchors.size) for sym in model.structure.symbols()}
    batched = gamma_apply(model.gamma_of(0, anchors), ModelSpaceVector(jets), model.structure)
    for q, t_idx in enumerate(anchors):
        one = ModelSpaceVector({sym: float(c[q]) for sym, c in jets.items()})
        scalar = gamma_apply(model.gamma_of(0, int(t_idx)), one, model.structure)
        assert batched.coeffs.keys() == scalar.coeffs.keys()
        for sym, c in scalar.coeffs.items():
            assert np.asarray(batched.coeffs[sym])[q] == pytest.approx(c, rel=1e-15, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(
    name=hst.sampled_from(sorted(_REEXPANSION_MODELS)),
    value_shape=hst.sampled_from([(), (3,), (3, 2)]),
    pairs=hst.lists(hst.tuples(hst.integers(0, 128), hst.integers(0, 128)), min_size=1, max_size=8),
)
def test_batched_gamma_of_index_pairs_on_vector_jets(name, value_shape, pairs):
    # gamma_of(t, s) over two index arrays, applied to scalar, (d,) and
    # (d, n) coefficients with one leading row per pair
    model = _REEXPANSION_MODELS[name]
    t_idx, s_idx = (np.array(v) for v in zip(*pairs))
    rng = np.random.default_rng(len(pairs))
    jets = {sym: rng.standard_normal((len(pairs), *value_shape))
            for sym in model.structure.symbols()}
    batched = gamma_apply(model.gamma_of(t_idx, s_idx), ModelSpaceVector(jets), model.structure)
    for q, (t, s) in enumerate(pairs):
        one = ModelSpaceVector({sym: c[q] for sym, c in jets.items()})
        scalar = gamma_apply(model.gamma_of(t, s), one, model.structure)
        assert batched.coeffs.keys() == scalar.coeffs.keys()
        for sym, c in scalar.coeffs.items():
            assert np.shape(batched.coeffs[sym]) == (len(pairs), *value_shape)
            np.testing.assert_allclose(batched.coeffs[sym][q], c, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("name", sorted(_REEXPANSION_MODELS))
def test_gamma_of_is_its_float_shift_array(name):
    # Gamma_{s,t} is h itself: (n,) for one pair, (n, K) for K pairs
    model = _REEXPANSION_MODELS[name]
    n = 1 if name == "polynomial" else 2
    one = model.gamma_of(3, 40)
    batch = model.gamma_of(np.array([3, 5, 7]), np.array([40, 0, 7]))
    for h, shape in ((one, (n,)), (batch, (n, 3))):
        assert isinstance(h, np.ndarray) and h.dtype == np.float64 and h.shape == shape
    np.testing.assert_array_equal(batch[:, 0], one)


def test_gamma_apply_takes_a_list_or_a_one_element_shift():
    ps = PolynomialStructure(dim=1)
    v = ModelSpaceVector({X(2): 1.0})
    ref = gamma_apply(np.array([0.5]), v, ps).coeffs
    for h in ([0.5], 0.5):
        assert gamma_apply(h, v, ps).coeffs == ref


# ---------------------------------------------------------------------------
# one pairing for every diagnostic: the direct realization at s as oracle


def _direct_pair(model, s_idx: int, sym, probe) -> float:
    """``<Pi_s sym, probe>`` realized at s itself, midpoint rule in real time."""
    grid = model.grid
    fm = probe(grid.midpoints())
    if model.pi_kind(sym) == "measure":
        return float(np.sum(fm * model.pi_measure(s_idx, sym)))
    g = model.pi_function(s_idx, sym)
    return float(np.sum(fm * 0.5 * (g[:-1] + g[1:]) * grid.step))


@pytest.mark.parametrize("name", ["rough", "reduced", "polynomial"])
def test_pi_pair_matches_direct_realization(name):
    model = _REEXPANSION_MODELS[name]
    for s_idx, lam in [(0, 0.5), (37, 0.25), (64, 0.125), (128, 1.0)]:
        probe = TestFunction(model.grid.nodes[s_idx], lam)
        for sym in model.structure.symbols():
            want = _direct_pair(model, s_idx, sym, probe)
            got = pi_pair(model, s_idx, ModelSpaceVector({sym: 1.0}), probe)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("value_shape", [(3,), (3, 2)])
def test_pi_pair_vector_coefficients_match_scalar_calls(value_shape):
    # vector-valued coefficients pass through linearly: each component of
    # the pairing is the pairing of that component's scalar jet
    model = _REEXPANSION_MODELS["rough"]
    rng = np.random.default_rng(3)
    jet = {sym: rng.standard_normal(value_shape) for sym in model.structure.symbols()}
    probe = TestFunction(0.6, 0.3)
    got = pi_pair(model, 50, ModelSpaceVector(jet), probe)
    assert np.shape(got) == value_shape
    for pos in np.ndindex(*value_shape):
        one = ModelSpaceVector({sym: float(c[pos]) for sym, c in jet.items()})
        assert got[pos] == pytest.approx(pi_pair(model, 50, one, probe), rel=1e-13, abs=1e-15)
