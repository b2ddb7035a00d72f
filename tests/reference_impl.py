"""Direct reference implementations that tests compare the library against.

They are the slow, obvious forms of what the library computes another way:
Chen's relation folded interval by interval, and the dense fBm covariance.
"""

from __future__ import annotations

import numpy as np


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
