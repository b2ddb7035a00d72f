"""Oracles for the one seminorm pair scan.

Each oracle enumerates its own node pairs (every pair up to grid level 8,
the aligned dyadic pairs ``(k 2^m, (k+1) 2^m)`` beyond) and divides by exact
lags ``(t - s) * h``.  The horizon 1.3 is not dyadic, so differences of
grid nodes would carry round-off that exact lags do not.
"""

from __future__ import annotations

import numpy as np
import pytest

from roughstruct import (
    ONE,
    ControlledPath,
    ModelledDistribution,
    PolynomialModel,
    RoughModel,
    X,
    controlled_seminorm,
    gamma_apply,
    generate_path,
    lift_piecewise_smooth,
    make_dyadic_grid,
    md_seminorm,
    multiply_by_Wdot,
    rough_path_distance,
    rough_path_seminorm,
    to_modelled,
)
from roughstruct import grids

HORIZON = 1.3
ALPHA = 0.45


def _pairs(level: int, all_pairs_level: int = 8) -> tuple[np.ndarray, np.ndarray]:
    n = 1 << level
    if level <= all_pairs_level:
        return np.triu_indices(n + 1, k=1)
    s = np.concatenate([np.arange(0, n, 1 << m) for m in range(level + 1)])
    t = s + np.concatenate([np.full(n >> m, 1 << m) for m in range(level + 1)])
    return s, t


def _lags(grid, s, t) -> np.ndarray:
    return (t - s) * grid.step


# (13, 12): above level 12, holder_seminorm's fallback scan gets the pairs
# its own all-pairs level would pick, the aligned dyadic ones
@pytest.mark.parametrize("level, all_pairs_level", [(0, 8), (3, 8), (8, 8), (9, 8), (13, 12)])
def test_pair_scan_visits_policy_pairs_in_chunks(monkeypatch, level, all_pairs_level):
    monkeypatch.setattr(grids, "PAIR_CHUNK", 37)
    grid = make_dyadic_grid(HORIZON, level)
    seen = []

    def norms(s, t):
        assert 0 < len(s) <= 37
        seen.append(np.stack([s, t], axis=1))
        return np.stack([np.ones(len(s)), (t - s).astype(float)])

    best = grids.pair_scan(grid, norms, (0.5, 1.0))
    visited = np.concatenate(seen)
    s, t = _pairs(level, all_pairs_level)
    expected = np.stack([s, t], axis=1)
    assert len(visited) == len(expected)
    assert np.array_equal(np.unique(visited, axis=0), np.unique(expected, axis=0))
    # 1 / lag**0.5 peaks at the shortest lag; lag / (lag * h) is 1 / h
    assert best[0] == pytest.approx(grid.step**-0.5, rel=1e-15)
    assert best[1] == pytest.approx(1.0 / grid.step, rel=1e-15)


def _fbm_lift(level: int, seed: int):
    grid = make_dyadic_grid(HORIZON, level)
    w = generate_path("fbm", grid, dim=2, hurst=0.45, seed=seed)
    return lift_piecewise_smooth(w, "linear", ALPHA)


def _second_level(rp, s, t) -> np.ndarray:
    return np.array([rp.pair(int(i), int(j)) for i, j in zip(s, t)])


@pytest.mark.parametrize("level", [6, 10])
def test_rough_path_seminorm_matches_pair_list(level):
    rp = _fbm_lift(level, seed=level)
    grid = rp.path.grid
    s, t = _pairs(level)
    w = rp.path.values
    first = np.max(np.linalg.norm(w[t] - w[s], axis=1) / _lags(grid, s, t) ** ALPHA)
    ww = _second_level(rp, s, t)
    second = np.max(np.linalg.norm(ww, axis=(1, 2)) / _lags(grid, s, t) ** (2 * ALPHA))
    got = rough_path_seminorm(rp)
    assert got == pytest.approx((first, second, first + second), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("level", [6, 10])
def test_rough_path_distance_matches_pair_list(level):
    a, b = _fbm_lift(level, seed=level), _fbm_lift(level, seed=level + 50)
    grid = a.path.grid
    s, t = _pairs(level)
    dw = a.path.values - b.path.values
    first = np.max(np.linalg.norm(dw[t] - dw[s], axis=1) / _lags(grid, s, t) ** ALPHA)
    dww = _second_level(a, s, t) - _second_level(b, s, t)
    second = np.max(np.linalg.norm(dww, axis=(1, 2)) / _lags(grid, s, t) ** (2 * ALPHA))
    got = rough_path_distance(a, b)
    assert got == pytest.approx((first, second, first + second), rel=1e-14, abs=0.0)


def _controlled(level: int) -> ControlledPath:
    rp = _fbm_lift(level, seed=level + 7)
    w = rp.path
    t = w.grid.nodes
    y = np.stack([np.sin(2 * t) + w.values[:, 0], np.cos(t) * w.values[:, 1]], axis=1)
    yp = np.cos(3 * t)[:, None, None] * np.array([[1.0, -0.5], [0.25, 2.0]])
    return ControlledPath(y, yp, w)


@pytest.mark.parametrize("level", [6, 10])
def test_controlled_seminorm_matches_pair_list(level):
    cp = _controlled(level)
    grid = cp.grid
    s, t = _pairs(level)
    dyp = cp.y_prime[t] - cp.y_prime[s]
    yp_norm = np.max(np.linalg.norm(dyp, axis=1).sum(axis=1) / _lags(grid, s, t) ** ALPHA)
    dw = cp.reference.values[t] - cp.reference.values[s]
    rem = cp.y[t] - cp.y[s] - np.einsum("pdn,pn->pd", cp.y_prime[s], dw)
    rem_norm = np.max(np.linalg.norm(rem, axis=1) / _lags(grid, s, t) ** (2 * ALPHA))
    got = controlled_seminorm(cp, ALPHA)
    assert got == pytest.approx((yp_norm, rem_norm, yp_norm + rem_norm), rel=1e-14, abs=0.0)


def _md_by_scalar_gamma(f: ModelledDistribution, model, level: int) -> float:
    """Per-pair loop of ``f(t) - Gamma_{t,s} f(s)`` with scalar ``gamma_of``."""
    st = f.structure
    best = 0.0
    for s, t in zip(*_pairs(level)):
        diff = f.at(t) - gamma_apply(model.gamma_of(int(t), int(s)), f.at(s), st)
        lag = (t - s) * f.grid.step
        for lv in diff.levels(st):
            if lv < f.gamma - 1e-12:
                best = max(best, diff.level_norm(st, lv) / lag ** (f.gamma - lv))
    return best


def _jets(level: int):
    cp = _controlled(level)
    model = RoughModel(lift_piecewise_smooth(cp.reference, "linear", ALPHA))
    vector = to_modelled(cp, ALPHA)
    scalar_cp = ControlledPath(cp.y[:, 0], cp.y_prime[:, :1, :], cp.reference)
    noise = multiply_by_Wdot(to_modelled(scalar_cp, ALPHA), 1)
    grid = cp.grid
    poly = PolynomialModel(grid, max_degree=3)
    u = grid.nodes
    taylor = ModelledDistribution(
        2.5, {ONE: np.sin(u), X(1): np.cos(u), X(2): -np.sin(u) / 2}, grid, poly.structure
    )
    return {"vector": (vector, model), "noise": (noise, model), "taylor": (taylor, poly)}


@pytest.mark.parametrize("jet", ["vector", "noise", "taylor"])
@pytest.mark.parametrize("level", [6, 10])
def test_md_seminorm_matches_scalar_gamma_loop(level, jet):
    f, model = _jets(level)[jet]
    expected = _md_by_scalar_gamma(f, model, level)
    assert expected > 0.0
    assert md_seminorm(f, model) == pytest.approx(expected, rel=1e-14, abs=0.0)
