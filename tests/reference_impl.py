"""Direct reference implementations that tests compare the library against.

They are the slow, obvious forms of what the library computes another way:
Chen's relation folded interval by interval, the dense fBm covariance, and
the Hölder quotient of every node pair.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from roughstruct.grids import PAIR_CHUNK


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
