"""Classical integration routes: Young sums and compensated Riemann sums.

Every rough integral is ``int g dW`` of a controlled one-form ``(g, g')``,
shapes (nodes, d, n) and (nodes, d, n, n), the last axis of ``g'`` the
direction of the derivative (Gubinelli 2004; Friz & Hairer, ch. 4).  The
Riemann route's one kernel is :func:`one_form_germs`, the compensated germ
``g_u W_{u,v} + g'_u WW_{u,v}`` over node pairs.  One chunked loop sums it on
the finest mesh, with the stored tensors, for :func:`rough_integral` (the
solver's) and :func:`rough_integral_path`, whose one-form ``y (x) I_n`` of a
scalar controlled path y integrates to ``int y dW^j`` in component j.  The Young
route's one kernel is :func:`young_integral`, the cumulative left-point sum
the CLI's ``integrate --route young`` writes.  On smooth drivers Young sums,
compensated sums and the wavelet route all agree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from .grids import scan_chunks

if TYPE_CHECKING:
    from .grids import SampledPath
    from .modelled import ControlledPath
    from .roughpath import RoughPath


def scalar_one_form(cp: ControlledPath, nodes=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """The one-form ``(y I_n, y' (x) I_n)`` at ``nodes`` of a scalar controlled
    path, whose integral is ``int y dW^j`` in component j.  Zero-filled with
    the diagonal assigned, so no ``-0.0`` products enter the sums."""
    if cp.dim != 1:
        raise ValueError("a scalar one-form needs a scalar controlled path")
    y, yp = cp.y[nodes], cp.y_prime[nodes]
    rows, n = y.shape[0], yp.shape[2]
    diag = np.arange(n)
    g = np.zeros((rows, n, n))
    g[:, diag, diag] = y
    dg = np.zeros((rows, n, n, n))
    dg[:, diag, diag, :] = yp
    return g, dg


def one_form_germs(g: np.ndarray, dg: np.ndarray, rp: RoughPath, u: np.ndarray | slice,
                   v: np.ndarray | slice) -> np.ndarray:
    """The compensated germs ``g_u W_{u,v} + g'_u WW_{u,v}`` over node pairs
    ``(u, v)`` of the one-form ``(g, g')`` given at u, shape (P, d).  Slices
    ``u = lo:hi``, ``v = lo+1:hi+1`` read views of the path and of the stored
    fine tensors; index arrays take ``WW`` from :meth:`RoughPath.pairs`."""
    dw = rp.path.values[v] - rp.path.values[u]
    ww = rp.second[u] if isinstance(u, slice) else rp.pairs(u, v)
    germs = np.einsum("pdj,pj->pd", g, dw)
    germs += np.einsum("pdji,pij->pd", dg, ww)
    return germs


def _cumulative_sum(rp: RoughPath, d: int, one_form: Callable[[slice], tuple]) -> np.ndarray:
    """The finest germs summed cumulatively, (num_nodes, d), ``one_form(u)`` on chunk u."""
    out = np.zeros((rp.path.grid.num_nodes, d))
    for lo, hi in scan_chunks(rp.path.grid.num_intervals, rp.dim**3):
        u = slice(lo, hi)
        germs = one_form_germs(*one_form(u), rp, u, slice(lo + 1, hi + 1))
        germs[0] += out[lo]  # + 0.0 changes no bit at lo = 0: einsum sums are never -0.0
        np.cumsum(germs, axis=0, out=out[lo + 1 : hi + 1])
    return out


def rough_integral(g: np.ndarray, dg: np.ndarray, rp: RoughPath) -> np.ndarray:
    """Cumulative compensated sum of the one-form ``(g, g')`` at the finest
    mesh: ``I(t_k) = int_0^{t_k} g dW`` on every node, (num_nodes, d)."""
    return _cumulative_sum(rp, g.shape[1], lambda u: (g[u], dg[u]))


def young_integral(y: SampledPath, w: SampledPath, s: int = 0, t: int | None = None) -> np.ndarray:
    """Cumulative left-point Riemann-Stieltjes sums ``sum y_u W_{u,v}`` of a
    scalar y on the finest grid over the node window ``s <= t``: row k, over
    ``[t_s, t_{s+k}]``, is the germ ``y_s W_{s,t_{s+k}}`` plus the sum of
    ``(y_u - y_s) W_{u,v}`` (so a constant y telescopes exactly), one column
    per driver component; shape ``(t - s + 1, n)``, row 0 zero."""
    if y.dim != 1:
        raise ValueError("young_integral integrates a scalar path")
    if y.grid.num_nodes != w.grid.num_nodes:
        raise ValueError("integrand and integrator must share the grid")
    if t is None:
        t = w.grid.num_intervals
    if not 0 <= s <= t <= w.grid.num_intervals:
        raise ValueError(f"need 0 <= s <= t <= {w.grid.num_intervals}, got ({s}, {t})")
    ys, ws = y.values[s], w.values[s + 1 : t + 1]
    out = np.zeros((t - s + 1, w.dim))
    np.cumsum((y.values[s:t] - ys) * (ws - w.values[s:t]), axis=0, out=out[1:])
    out[1:] += ys * (ws - w.values[s])
    return out


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
    grid = rp.path.grid
    if cp.grid.num_nodes != grid.num_nodes:
        raise ValueError("controlled path and rough path must share the grid")
    if t is None:
        t = grid.num_intervals
    if not 0 <= s <= t <= grid.num_intervals:
        raise ValueError(f"need 0 <= s <= t <= {grid.num_intervals}, got ({s}, {t})")
    if mesh_level is None:
        mesh_level = grid.level
    if mesh_level > grid.level:
        raise ValueError(f"mesh level {mesh_level} finer than grid level {grid.level}")
    pts = np.append(np.arange(s, t, 1 << (grid.level - mesh_level)), t)
    return one_form_germs(*scalar_one_form(cp, pts[:-1]), rp, pts[:-1], pts[1:]).sum(axis=0)


def rough_integral_path(cp: ControlledPath, rp: RoughPath) -> np.ndarray:
    """:func:`rough_integral` of a scalar controlled path's one-form, built per chunk."""
    return _cumulative_sum(rp, rp.dim, lambda u: scalar_one_form(cp, u))


def three_point_defect(integral: np.ndarray, cp: ControlledPath,
                       rp: RoughPath) -> list[tuple[float, float]]:
    """Max over aligned dyadic pairs of
    ``|I_{s,t} - y_s W_{s,t} - y'_s WW_{s,t}|`` per interval length
    ``2^m``, ``1 <= m < J``, each length scanned in chunks.

    ``integral`` is a cumulative node table (num_nodes, n).  Returns
    ``(length_in_time, max_defect)`` rows for the convergence fit.
    """
    grid = rp.path.grid
    rows = []
    for span in (1 << m for m in range(1, grid.level)):
        starts = np.arange(0, grid.num_intervals - span + 1, span)
        worst = 0.0
        for lo, hi in scan_chunks(len(starts), rp.dim**3):
            u = starts[lo:hi]
            pred = one_form_germs(*scalar_one_form(cp, u), rp, u, u + span)
            gap = integral[u + span] - integral[u] - pred
            worst = np.maximum(worst, np.linalg.norm(gap, axis=1).max())
        rows.append((span * grid.step, float(worst)))
    return rows


def convergence_order_fit(
    samples: list[tuple[float, float]], drop_coarsest: int = 2
) -> tuple[float, float]:
    """Least-squares slope of log|error| against log(scale > 0), with R^2.

    The coarsest ``drop_coarsest`` scales are pre-asymptotic and excluded
    by default; at least two must remain.  Every sample must be finite.  Exact
    zeros cannot be fitted: all-zero errors report an infinite slope
    (machine-exact convergence), isolated zeros are dropped.
    """
    if len(samples) < 4:
        raise ValueError("need at least 4 (scale, error) samples")
    if not 0 <= drop_coarsest <= len(samples) - 2:
        raise ValueError(f"drop_coarsest must be in [0, {len(samples) - 2}], got {drop_coarsest}")
    scales = np.array([s for s, _ in samples], dtype=float)
    errors = np.abs(np.array([e for _, e in samples], dtype=float))
    finite = np.isfinite(scales) & np.isfinite(errors)
    if not finite.all():
        raise ValueError(f"samples must be finite, got {[samples[k] for k in np.flatnonzero(~finite)]}")
    if not (scales > 0.0).all():
        raise ValueError(f"scales must be positive, got {scales[~(scales > 0.0)].tolist()}")
    if scales.max() / scales.min() < 4.0:
        raise ValueError("samples must span at least two octaves")
    order = np.argsort(scales)[::-1]
    scales, errors = scales[order], errors[order]
    scales, errors = scales[drop_coarsest:], errors[drop_coarsest:]
    keep = errors > 0.0
    if not np.any(keep):
        return float("inf"), 1.0
    scales, errors = scales[keep], errors[keep]
    if len(scales) < 2:
        return float("inf"), 1.0
    # closed-form least squares on centred sums: np.polyfit would page in LAPACK
    x, z = np.log(scales), np.log(errors)
    x -= x.mean()
    z -= z.mean()
    slope = float(np.sum(x * z) / np.sum(x * x))
    ss_res = float(np.sum((z - slope * x) ** 2))
    ss_tot = float(np.sum(z**2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, r2


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
