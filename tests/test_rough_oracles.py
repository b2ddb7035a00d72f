"""Exact pathwise oracles for the RDE solver on rough (fBm) drivers.

With the linear lift, ``WW_{k,k+1} = dW_k (x) dW_k / 2`` on every interval,
so for a linear field ``F(y) dW = sum_j A_j y dW^j`` with commuting ``A_j``
the compensated Riemann fixed point is the recursion
``y_{k+1} = (1 + M_k + M_k^2 / 2) y_k``, ``M_k = sum_j A_j dW^j_k``, while the
exact solution is ``exp(sum_k M_k) xi``.  Their ratio is
``prod_k (1 + M_k + M_k^2 / 2) e^{-M_k}``, and each factor is within
``|x|^3 e^{2|x|} / 6`` of 1 at ``x = |M_k|`` (Taylor remainder of
``(1 + x + x^2/2) e^{-x}``), so the relative error is at most
``expm1(sum_k |M_k|^3 e^{2|M_k|} / 6)`` for every sample path.
"""

from __future__ import annotations

import numpy as np
import pytest

from roughstruct import (
    SolverConfig,
    builtin_descriptor,
    generate_path,
    lift_piecewise_smooth,
    make_dyadic_grid,
    solve_rde,
)
from test_one_form import _commuting_linear_field

CFG = SolverConfig(alpha=0.35, beta=0.4)
HURSTS = (0.4, 0.45, 0.5)
LEVELS = (8, 10, 12)


def _linear_lift(hurst: float, level: int, dim: int):
    w = generate_path("fbm", make_dyadic_grid(1.0, level), dim=dim, hurst=hurst, seed=31)
    return lift_piecewise_smooth(w, "linear", CFG.alpha)


def _taylor_bound(x: np.ndarray) -> float:
    """``expm1(sum |x|^3 e^{2|x|} / 6)``: the product bound of the module docstring."""
    x = np.abs(x)
    return float(np.expm1(np.sum(x**3 * np.exp(2 * x)) / 6))


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("hurst", HURSTS)
def test_scalar_linear_equation_on_fbm(hurst, level):
    # dy = y dW: y_t = xi e^{W_t - W_0}
    rp = _linear_lift(hurst, level, 1)
    xi = 0.7
    sol, _ = solve_rde(xi, builtin_descriptor("linear"), rp, CFG)
    dw = rp.path.increments()[:, 0]
    recursion = xi * np.concatenate([[1.0], np.cumprod(1 + dw + dw**2 / 2)])
    tol = 10 * CFG.fixed_point_tol
    assert np.abs(sol.y[:, 0] - recursion).max() <= tol
    exact = xi * np.exp(rp.path.values[:, 0] - rp.path.values[0, 0])
    assert np.abs(sol.y[:, 0] / exact - 1).max() <= _taylor_bound(dw) + tol


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("hurst", HURSTS)
def test_commuting_field_on_fbm(hurst, level):
    # 1/2 y dW^1 + J y dW^2: y_t = e^{W^1_{0,t} / 2} R(W^2_{0,t}) xi, and M_k acts
    # as the complex number dW^1_k / 2 + i dW^2_k, of modulus lambda_k
    rp = _linear_lift(hurst, level, 2)
    xi = np.array([1.0, 0.5])
    sol, _ = solve_rde(xi, _commuting_linear_field(), rp, CFG)
    dw = rp.path.values - rp.path.values[0]
    c, s = np.cos(dw[:, 1]), np.sin(dw[:, 1])
    exact = np.exp(dw[:, :1] / 2) * np.stack([c * xi[0] - s * xi[1], s * xi[0] + c * xi[1]], axis=1)
    lam = np.hypot(rp.path.increments()[:, 0] / 2, rp.path.increments()[:, 1])
    err = np.linalg.norm(sol.y - exact, axis=1) / np.linalg.norm(exact, axis=1)
    assert err.max() <= _taylor_bound(lam) + 10 * CFG.fixed_point_tol
