"""Direct reference implementations that tests compare the library against.

They are the slow, obvious forms of what the library computes another way:
Chen's relation folded interval by interval, the dense fBm covariance, the
Hölder quotient of every node pair, and a wavelet-route Picard solve that
rebuilds its whole reconstruction on every iteration.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from roughstruct.grids import PAIR_CHUNK
from roughstruct.modelled import compose_one_form
from roughstruct.structure import ModelSpaceVector, RoughModel, Wdot, WWdot, gamma_apply
from roughstruct.wavelets import analyse, daubechies_basis, stencil, synthesise


def chen_extend(proc, w, s: int, t: int) -> np.ndarray:
    """``WW_{t_s, t_t}`` of a second-order process over a sampled path,
    assembled left to right from the finest tensors."""
    if s > t:
        raise ValueError(f"need s <= t, got {s} > {t}")
    if (s, t) in proc.pair_overrides:
        return proc.pair_overrides[(s, t)].copy()
    n = proc.dim
    acc = np.zeros((n, n))
    for k in range(s, t):
        acc += proc.increments[k] + np.outer(w.increment(s, k), w.increment(k, k + 1))
    return acc


def fbm_covariance(times: np.ndarray, hurst: float) -> np.ndarray:
    """Fractional Brownian covariance ``(s^2H + t^2H - |t-s|^2H) / 2``."""
    s = times[:, None]
    t = times[None, :]
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(s) ** h2 + np.abs(t) ** h2 - np.abs(t - s) ** h2)


def holder_lag_scan(path, alpha: float) -> float:
    """``max |Z_{s,t}| / ((t - s) h)**alpha`` over all node pairs of a
    sampled path, scanned lag by lag in blocks of lags taken as strided
    views of the values."""
    n_int = path.grid.num_intervals
    x = np.ascontiguousarray(path.values.T)
    step = path.grid.step
    best = 0.0
    block = max(1, PAIR_CHUNK // x.size)  # lags per block: ~2 MiB of increments
    # edge padding credits x_N with a longer lag than it has, so a padded
    # quotient never exceeds the true one of (s, N), scanned at its own lag
    xpad = np.concatenate([x, np.repeat(x[:, -1:], block - 1, axis=1)], axis=1)
    for lag in range(1, n_int + 1, block):
        width = n_int + 1 - lag
        # rows[:, b, s] = x_{s+lag+b}
        rows = sliding_window_view(xpad[:, lag:], width, axis=1)[:, : min(block, width)]
        inc = rows - x[:, None, :width]
        sq = np.einsum("ibs,ibs->bs", inc, inc).max(axis=1)
        lags = np.arange(lag, lag + len(sq))
        best = max(best, float(np.max(np.sqrt(sq) / (lags * step) ** alpha)))
    return best


def wavelet_integral_per_call(g: np.ndarray, dg: np.ndarray, rp) -> np.ndarray:
    """``int_0^t g dW`` of the one-form ``(g, g')`` on every node by the
    partial-sum reconstruction of its ``(d,)``-valued measure jet
    ``g^j Wdot^j + g'^{ji} WWdot^{ij}``, built from scratch: model, anchors,
    batched Gamma, stencils and every symbol's realization."""
    model = RoughModel(rp)
    basis = daubechies_basis(4)
    grid = rp.path.grid
    jet = {}
    for j in range(rp.dim):
        jet[Wdot(j)] = g[:, :, j]
        for i in range(rp.dim):
            jet[WWdot(i, j)] = dg[:, :, j, i]
    level = max(basis.min_base_level(), grid.level - 2)
    num = grid.num_intervals
    ks = basis.index_set(level)
    lattice = (ks + basis.father_center_of_mass) * num / (1 << level)
    anchors = np.clip(np.rint(lattice).astype(int), 0, num)
    jets = ModelSpaceVector({sym: c[anchors] for sym, c in jet.items()})
    moved = gamma_apply(model.gamma_of(0, anchors), jets, model.structure).coeffs
    table = stencil(basis, "father", level, grid.level)
    coeffs = np.zeros((ks.size, g.shape[1]))
    for sym, c in moved.items():
        coeffs += c * analyse(model.pi_measure(0, sym), table)[:, None]
    z = np.zeros((grid.num_nodes, g.shape[1]))
    z[1:] = np.cumsum(synthesise(coeffs, stencil(basis, "father", level, grid.level,
                                                 cumulative=True)), axis=0)
    return z


def wavelet_picard_per_call(xi: np.ndarray, F, rp, window_level: int, tol: float,
                            max_iters: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """``y = xi + int F(y) dW`` by Picard iteration on consecutive windows of
    ``2**window_level`` intervals (no halving), each iterate integrated by
    :func:`wavelet_integral_per_call`; stops a window once the sup change
    of (y, y') drops below ``tol``.  Returns y, y' and the iterations per
    window."""
    nodes, n = rp.path.grid.num_nodes, rp.dim
    y_full = np.zeros((nodes, xi.size))
    yp_full = np.zeros((nodes, xi.size, n))
    y_full[0] = xi
    iters = []
    start, span, current = 0, 1 << window_level, xi.copy()
    while start < nodes - 1:
        sub = rp.restrict(start, window_level)
        y = np.tile(current, (span + 1, 1))
        yp = np.tile(compose_one_form(F, y[:1], np.zeros((1, xi.size, n)))[0][0], (span + 1, 1, 1))
        for it in range(1, max_iters + 1):
            g, dg = compose_one_form(F, y, yp)
            y_next = current[None, :] + wavelet_integral_per_call(g, dg, sub)
            diff = max(float(np.abs(y_next - y).max()), float(np.abs(g - yp).max()))
            y, yp = y_next, g
            if diff < tol:
                break
        else:
            raise RuntimeError(f"window at node {start} did not converge")
        y_full[start : start + span + 1] = y
        yp_full[start : start + span + 1] = yp
        iters.append(it)
        current = y[-1].copy()
        start += span
    return y_full, yp_full, iters
