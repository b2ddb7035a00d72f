"""Classical integration routes: Young sums and compensated Riemann sums.

Both are left-point sums on dyadic partitions.  The compensated sum adds
the ``y'_u WW_{u,v}`` correction, which is what makes the limit exist for
drivers rougher than 1/2-Hölder; on smooth drivers the two routes agree
and serve as oracles for the wavelet-route integral.
"""

from __future__ import annotations

import numpy as np

from .grids import SampledPath
from .modelled import ControlledPath
from .roughpath import RoughPath


def _partition(i0: int, i1: int, stride: int) -> np.ndarray:
    pts = np.arange(i0, i1, stride)
    return np.append(pts, i1)


def _germ(cp: ControlledPath, rp: RoughPath, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The compensated germ ``y_u W_{u,v} + y'_u WW_{u,v}`` of a scalar
    controlled path over node pairs, shape (P, n)."""
    dw = rp.path.values[v] - rp.path.values[u]
    return cp.y[u, 0, None] * dw + np.einsum("pi,pij->pj", cp.y_prime[u, 0, :], rp.pairs(u, v))


def young_integral(y: SampledPath, w: SampledPath, s: int = 0, t: int | None = None) -> np.ndarray:
    """Left-point Riemann-Stieltjes sum ``sum y_u W_{u,v}`` on the finest grid.

    ``y`` must be scalar; the result has one component per driver column.
    Node indices ``s <= t`` select the window.
    """
    if y.dim != 1:
        raise ValueError("young_integral integrates a scalar path")
    if y.grid.num_nodes != w.grid.num_nodes:
        raise ValueError("integrand and integrator must share the grid")
    if t is None:
        t = w.grid.num_intervals
    if s > t:
        raise ValueError(f"need s <= t, got {s} > {t}")
    dw = w.values[s + 1 : t + 1] - w.values[s:t]
    return dw.T @ y.values[s:t, 0]


def rough_integral_sum(
    cp: ControlledPath,
    rp: RoughPath,
    s: int = 0,
    t: int | None = None,
    mesh_level: int | None = None,
) -> np.ndarray:
    """Compensated sum ``sum y_u W_{u,v} + y'_u WW_{u,v}`` over the dyadic
    partition of ``[t_s, t_t]`` at ``mesh_level`` (grid level by default).

    The integrand is scalar (d = 1); the result is the vector of integrals
    against each driver component: ``I^j = int y dW^j``.
    """
    if cp.dim != 1:
        raise ValueError("rough_integral_sum integrates a scalar controlled path")
    grid = rp.path.grid
    if cp.grid.num_nodes != grid.num_nodes:
        raise ValueError("controlled path and rough path must share the grid")
    if t is None:
        t = grid.num_intervals
    if s > t:
        raise ValueError(f"need s <= t, got {s} > {t}")
    if mesh_level is None:
        mesh_level = grid.level
    if mesh_level > grid.level:
        raise ValueError(f"mesh level {mesh_level} finer than grid level {grid.level}")
    stride = 1 << (grid.level - mesh_level)
    pts = _partition(s, t, stride)
    return _germ(cp, rp, pts[:-1], pts[1:]).sum(axis=0)


def rough_integral_path(cp: ControlledPath, rp: RoughPath) -> np.ndarray:
    """Cumulative compensated sum at the finest mesh: ``I(t_k)`` for every
    node, shape (num_nodes, n), with I(0) = 0."""
    k = np.arange(rp.path.grid.num_intervals)
    out = np.zeros((rp.path.grid.num_nodes, rp.dim))
    out[1:] = np.cumsum(_germ(cp, rp, k, k + 1), axis=0)
    return out


def three_point_defect(
    integral: np.ndarray,
    cp: ControlledPath,
    rp: RoughPath,
    lengths: list[int] | None = None,
) -> list[tuple[float, float]]:
    """Max over aligned dyadic pairs of
    ``|I_{s,t} - y_s W_{s,t} - y'_s WW_{s,t}|`` per interval length.

    ``integral`` is a cumulative node table (num_nodes, n).  Returns
    ``(length_in_time, max_defect)`` rows for the convergence fit.
    """
    grid = rp.path.grid
    if lengths is None:
        lengths = [1 << m for m in range(1, grid.level)]
    rows = []
    for span in lengths:
        starts = np.arange(0, grid.num_intervals - span + 1, span)
        ends = starts + span
        pred = _germ(cp, rp, starts, ends)
        defect = np.linalg.norm(integral[ends] - integral[starts] - pred, axis=1)
        rows.append((span * grid.step, float(defect.max())))
    return rows


def convergence_order_fit(
    samples: list[tuple[float, float]], drop_coarsest: int = 2
) -> tuple[float, float]:
    """Least-squares slope of log|error| against log(scale), with R^2.

    The coarsest ``drop_coarsest`` scales are pre-asymptotic and excluded
    by default.  Exact zeros cannot be fitted: all-zero errors report an
    infinite slope (machine-exact convergence), isolated zeros are dropped.
    """
    if len(samples) < 4:
        raise ValueError("need at least 4 (scale, error) samples")
    scales = np.array([s for s, _ in samples], dtype=float)
    errors = np.abs(np.array([e for _, e in samples], dtype=float))
    if scales.max() / scales.min() < 4.0:
        raise ValueError("samples must span at least two octaves")
    order = np.argsort(scales)[::-1]
    scales, errors = scales[order], errors[order]
    if drop_coarsest:
        scales, errors = scales[drop_coarsest:], errors[drop_coarsest:]
    keep = errors > 0.0
    if not np.any(keep):
        return float("inf"), 1.0
    scales, errors = scales[keep], errors[keep]
    if len(scales) < 2:
        return float("inf"), 1.0
    x = np.log(scales)
    z = np.log(errors)
    slope, intercept = np.polyfit(x, z, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((z - fitted) ** 2))
    ss_tot = float(np.sum((z - z.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def refinement_errors(
    cp: ControlledPath, rp: RoughPath, levels: list[int] | None = None
) -> list[tuple[float, float]]:
    """Cauchy differences ``|sum(mesh) - sum(mesh/2)|`` per mesh size, for the
    full-horizon compensated sum."""
    grid = rp.path.grid
    if levels is None:
        levels = list(range(2, grid.level))
    rows = []
    prev = None
    prev_mesh = None
    for lvl in sorted(levels) + [max(levels) + 1]:
        if lvl > grid.level:
            break
        val = rough_integral_sum(cp, rp, mesh_level=lvl)
        if prev is not None:
            rows.append((prev_mesh, float(np.linalg.norm(val - prev))))
        prev = val
        prev_mesh = grid.horizon / (1 << lvl)
    return rows
