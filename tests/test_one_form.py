"""The one-form kernels against the per-route code they replaced.

The references below are the earlier separate implementations, kept here
verbatim in substance: the scalar compensated germ, the solver's own
composition, Riemann sum and wavelet jet build, and the array form of
``compose``.  Every library value must match them bit for bit when the
driver and solution dimensions are at most 2 (sums of at most two nonzero
products round the same in any order), and to 1e-15 relative at dimension 3.
"""

from __future__ import annotations

import numpy as np
import pytest

from roughstruct import (
    ControlledPath,
    FunctionDescriptor,
    ModelledDistribution,
    RoughModel,
    SolverConfig,
    W,
    Wdot,
    WWdot,
    builtin_descriptor,
    compose,
    generate_path,
    lift_piecewise_smooth,
    make_dyadic_grid,
    picard_step,
    reconstruct,
    rough_integral_path,
    solve_rde,
    three_point_defect,
    to_modelled,
)
from roughstruct.integration import rough_integral
from roughstruct.structure import ONE

# ---------------------------------------------------------------------------
# references


def ref_germ(cp, rp, u, v, ww=None):
    dw = rp.path.values[v] - rp.path.values[u]
    ww = rp.pairs(u, v) if ww is None else ww
    return cp.y[u, 0, None] * dw + np.einsum("pi,pij->pj", cp.y_prime[u, 0, :], ww)


def ref_rough_integral_path(cp, rp):
    k = np.arange(rp.path.grid.num_intervals)
    out = np.zeros((rp.path.grid.num_nodes, rp.dim))
    out[1:] = np.cumsum(ref_germ(cp, rp, k, k + 1, rp.second), axis=0)
    return out


def ref_three_point_defect(integral, cp, rp):
    grid = rp.path.grid
    rows = []
    for span in [1 << m for m in range(1, grid.level)]:
        starts = np.arange(0, grid.num_intervals - span + 1, span)
        ends = starts + span
        defect = np.linalg.norm(integral[ends] - integral[starts] - ref_germ(cp, rp, starts, ends),
                                axis=1)
        rows.append((span * grid.step, float(defect.max())))
    return rows


def ref_integrand(F, y, yp):
    g = np.asarray(F.value(y), dtype=float)
    jac = np.asarray(F.jacobian(y), dtype=float)
    if g.shape[1:] == (1, 1):  # a 1x1 field: the direct product
        return g, (jac[:, 0, 0, 0] * yp[:, 0, 0])[:, None, None, None]
    return g, np.einsum("tpnq,tqi->tpni", jac, yp)


def ref_integrate(g, dg, rp, route):
    grid = rp.path.grid
    if route == "riemann":
        steps = np.einsum("tpj,tj->tp", g[:-1], rp.path.increments())
        steps += np.einsum("tpji,tij->tp", dg[:-1], rp.second)
        out = np.zeros((grid.num_nodes, g.shape[1]))
        out[1:] = np.cumsum(steps, axis=0)
        return out
    model = RoughModel(rp)
    coeffs = {}
    for j in range(rp.dim):
        coeffs[Wdot(j)] = g[:, :, j]
        for i in range(rp.dim):
            coeffs[WWdot(i, j)] = dg[:, :, j, i]
    f = ModelledDistribution(3 * rp.alpha - 1.0, coeffs, grid, model.structure, rp.path)
    return reconstruct(f, model).antiderivative.values


def ref_compose(F, y, yp):
    """The non-scalar branch of the earlier ``compose``: one einsum per W^i."""
    val = np.asarray(F.value(y), dtype=float)
    jac = np.asarray(F.jacobian(y), dtype=float)
    return val, [np.einsum("tpnq,tq->tpn", jac, yp[:, :, i]) for i in range(yp.shape[2])]


# ---------------------------------------------------------------------------
# fixtures


def _same(got, want, dim):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if dim <= 2:
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def _rough(n, level=9):
    w = generate_path("fbm", make_dyadic_grid(1.13, level), dim=n, hurst=0.45, seed=10 + n)
    return lift_piecewise_smooth(w, "linear", 0.45)


def _field(d, n, seed):
    """A nonlinear matrix-valued F(y)_{pj} = sin(B_{pj} . y) / 3."""
    b = np.random.default_rng(seed).normal(size=(d, n, d))

    def value(y):
        return np.sin(np.einsum("pjq,...q->...pj", b, y)) / 3

    def jacobian(y):
        return np.cos(np.einsum("pjq,...q->...pj", b, y))[..., None] * b / 3

    return FunctionDescriptor(f"sin({d}x{n})", value, jacobian)


def _jet(rp, d, seed):
    rng = np.random.default_rng(seed)
    nodes = rp.path.grid.num_nodes
    y = 0.5 * rng.normal(size=(nodes, d))
    yp = 0.5 * rng.normal(size=(nodes, d, rp.dim))
    return to_modelled(ControlledPath(y, yp, rp.path), rp.alpha)


DIMS = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3), (3, 3)]

# ---------------------------------------------------------------------------
# equality with the references


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scalar_adapters_match_the_scalar_germ(n):
    rp = _rough(n)
    w = rp.path.values
    yp = np.zeros((len(w), 1, n))
    yp[:, 0, :] = np.cos(w)
    cp = ControlledPath(np.sin(w[:, 0]), yp, rp.path)
    got = rough_integral_path(cp, rp)
    _same(got, ref_rough_integral_path(cp, rp), n)
    rows, want = three_point_defect(got, cp, rp), ref_three_point_defect(got, cp, rp)
    assert [s for s, _ in rows] == [s for s, _ in want]
    _same([e for _, e in rows], [e for _, e in want], n)


@pytest.mark.parametrize("d, n", DIMS)
def test_compose_matches_the_array_form(d, n):
    rp = _rough(n, level=6)
    F = _field(d, n, seed=d + 10 * n)
    Y = _jet(rp, d, seed=3)
    y, yp = Y.coeffs[ONE].reshape(-1, d), np.stack(
        [Y.coeffs[W(i)].reshape(-1, d) for i in range(n)], axis=-1)
    val, cols = ref_compose(F, y, yp)
    out = compose(F, Y)
    if (d, n) == (1, 1):  # a scalar jet against a scalar driver keeps (nodes,) coefficients
        assert out.coeffs[ONE].shape == out.coeffs[W(0)].shape == (len(y),)
        val, cols = val.reshape(-1), [c.reshape(-1) for c in cols]
    _same(out.coeffs[ONE], val, max(d, n))
    for i in range(n):
        _same(out.coeffs[W(i)], cols[i], max(d, n))


def test_compose_scalar_matches_the_solver_integrand():
    rp = _rough(1, level=6)
    Y = _jet(rp, 1, seed=4)
    F = builtin_descriptor("tanh")
    g, dg = ref_integrand(F, Y.coeffs[ONE][:, None], Y.coeffs[W(0)][:, None, None])
    out = compose(F, Y)
    assert np.array_equal(out.coeffs[ONE], g[:, 0, 0])
    assert np.array_equal(out.coeffs[W(0)], dg[:, 0, 0, 0])


@pytest.mark.parametrize("route", ["riemann", "wavelet"])
@pytest.mark.parametrize("d, n", DIMS)
def test_picard_step_matches_the_solver_reference(route, d, n):
    rp = _rough(n)
    F = _field(d, n, seed=d + 10 * n)
    Y = _jet(rp, d, seed=5)
    y = Y.coeffs[ONE].reshape(-1, d)
    yp = np.stack([Y.coeffs[W(i)].reshape(-1, d) for i in range(n)], axis=-1)
    g, dg = ref_integrand(F, y, yp)
    want_y = y[0][None, :] + ref_integrate(g, dg, rp, route)
    out = picard_step(Y, F, rp, SolverConfig(0.4, 0.5, integral_route=route))
    _same(out.coeffs[ONE].reshape(-1, d), want_y, max(d, n))
    for i in range(n):
        _same(out.coeffs[W(i)].reshape(-1, d), g[:, :, i], max(d, n))


# ---------------------------------------------------------------------------
# a driver-dimension-2 solve against its closed form


def _commuting_linear_field():
    """``F(y) dW = y dW^1 / 2 + J y dW^2`` with J the rotation generator."""
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    jac = np.stack([0.5 * np.eye(2), rot], axis=1)  # (d, n, d)

    def value(y):
        return np.einsum("pjq,...q->...pj", jac, y)

    def jacobian(y):
        return np.broadcast_to(jac, y.shape[:-1] + jac.shape).copy()

    return FunctionDescriptor("half-and-rotation", value, jacobian)


@pytest.mark.parametrize("route, tol", [("riemann", 1e-6), ("wavelet", 1e-2)])
def test_driver_dim_two_solve_matches_closed_form(route, tol):
    # 1/2 I and J commute, so y_t = exp(W^1_{0,t} / 2) R(W^2_{0,t}) xi exactly
    grid = make_dyadic_grid(1.0, 10)
    rp = lift_piecewise_smooth(generate_path("sin_cos", grid, dim=2), "sin_cos", 0.45)
    xi = np.array([1.0, 0.5])
    sol, diag = solve_rde(xi, _commuting_linear_field(), rp,
                          SolverConfig(0.4, 0.5, integral_route=route))
    dw = rp.path.values - rp.path.values[0]
    c, s = np.cos(dw[:, 1]), np.sin(dw[:, 1])
    exact = np.exp(dw[:, :1] / 2) * np.stack([c * xi[0] - s * xi[1], s * xi[0] + c * xi[1]], axis=1)
    assert np.abs(sol.y - exact).max() <= tol


# ---------------------------------------------------------------------------
# one field layout, one finest-mesh sum


@pytest.mark.parametrize("route", ["riemann", "wavelet"])
@pytest.mark.parametrize("n, xi", [(1, [1.0, 2.0]), (2, 1.0)])
def test_solver_refuses_a_field_of_the_wrong_shape(route, n, xi):
    # a 1x1 field is not a (2, 1) one, nor a (1, 2) one on a 2-D driver
    with pytest.raises(ValueError, match="tanh"):
        solve_rde(xi, builtin_descriptor("tanh"), _rough(n),
                  SolverConfig(0.4, 0.5, integral_route=route))


@pytest.mark.parametrize("horizon", [1.0, 1.3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_finest_sum_reads_the_stored_tensors(n, horizon):
    # g = 0 and g' selecting WW^{ij} in component (i, j): the sum of the
    # stored interval tensors, bit for bit
    w = generate_path("fbm", make_dyadic_grid(horizon, 9), dim=n, hurst=0.45, seed=20 + n)
    rp = lift_piecewise_smooth(w, "linear", 0.45)
    nodes = rp.path.grid.num_nodes
    dg = np.zeros((nodes, n * n, n, n))
    for i in range(n):
        for j in range(n):
            dg[:, i * n + j, j, i] = 1.0
    got = rough_integral(np.zeros((nodes, n * n, n)), dg, rp)
    assert not got[0].any()
    for i in range(n):
        for j in range(n):
            assert np.array_equal(got[1:, i * n + j], np.cumsum(rp.second[:, i, j]))
