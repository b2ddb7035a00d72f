"""Dyadic time grids, sampled paths and localized test functions.

Everything downstream (lifts, wavelet pairings, integrals, the RDE solver)
works on uniform dyadic grids: ``t_k = k * T * 2**-J``.  Dyadic grids keep
wavelet anchor points on grid nodes, which makes the reconstruction sums
exact at the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MAX_GRID_LEVEL = 24

#: Seminorm scans visit all node pairs up to these grid levels, aligned
#: dyadic pairs beyond (:func:`pair_scan`).  Path increments: until the
#: lag-block scan of :func:`holder_seminorm` gets slow (60 ms at level 12).
PATH_PAIR_LEVEL = 12
#: Second-order tensors and jets gather a matrix per pair: all pairs would
#: take seconds at level 12 (a rough-path seminorm: 2-3 s instead of 3 ms).
JET_PAIR_LEVEL = 8
PAIR_CHUNK = 1 << 18


@dataclass(frozen=True)
class TimeGrid:
    """Uniform dyadic grid on ``[0, horizon]`` with ``2**level`` intervals."""

    horizon: float
    level: int

    def __post_init__(self) -> None:
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not 0 <= self.level <= MAX_GRID_LEVEL:
            raise ValueError(f"level must be in [0, {MAX_GRID_LEVEL}], got {self.level}")

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.num_intervals + 1)

    @property
    def num_intervals(self) -> int:
        return 1 << self.level

    @property
    def num_nodes(self) -> int:
        return self.num_intervals + 1

    @property
    def step(self) -> float:
        return self.horizon / self.num_intervals

    def midpoints(self) -> np.ndarray:
        t = self.nodes
        return 0.5 * (t[:-1] + t[1:])

    def subgrid(self, level: int) -> "TimeGrid":
        """Coarser grid over the same horizon (``level <= self.level``)."""
        if level > self.level:
            raise ValueError("subgrid level exceeds grid level")
        return TimeGrid(self.horizon, level)


def make_dyadic_grid(horizon: float, level: int) -> TimeGrid:
    """Build the dyadic grid with ``2**level + 1`` nodes spanning ``[0, horizon]``."""
    return TimeGrid(float(horizon), int(level))


@dataclass(frozen=True)
class SampledPath:
    """A path on a dyadic grid with values in ``R^n``.

    ``values`` has shape ``(num_nodes, n)``; scalar input is promoted to a
    single column.  Increments are ``Z_{s,t} = Z_t - Z_s``.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] != self.grid.num_nodes:
            raise ValueError(
                f"values must have shape ({self.grid.num_nodes}, n), got {vals.shape}"
            )
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def increment(self, i: int, j: int) -> np.ndarray:
        """``Z_{t_i, t_j}`` for node indices ``i <= j``."""
        return self.values[j] - self.values[i]

    def increments(self) -> np.ndarray:
        """Per-interval increments, shape ``(num_intervals, n)``."""
        return np.diff(self.values, axis=0)

    def component(self, i: int) -> "SampledPath":
        return SampledPath(self.grid, self.values[:, i])

    def restrict(self, start: int, level: int) -> "SampledPath":
        """Sub-path on a window of ``2**level`` intervals starting at node ``start``."""
        n = 1 << level
        if start + n > self.grid.num_intervals:
            raise ValueError("window exceeds grid")
        sub = TimeGrid(self.grid.step * n, level)
        return SampledPath(sub, self.values[start : start + n + 1])


def euclidean_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each ``a[k]`` over all its trailing axes."""
    flat = a.reshape(len(a), -1)
    return np.sqrt(np.einsum("ki,ki->k", flat, flat))


def pair_scan(grid: TimeGrid, all_pairs_level: int, norms: Callable, exponents) -> np.ndarray:
    """Per exponent ``theta``, the max over node pairs ``s < t`` of
    ``norms(s, t) / ((t - s) * h)**theta``, with exact lags.

    Pairs: all of them up to grid level ``all_pairs_level``, else the
    aligned dyadic ``(k 2**m, (k+1) 2**m)`` of every scale m.  ``norms`` gets
    at most ``PAIR_CHUNK`` at once, returns ``(len(exponents), P)`` or ``(P,)``.
    """
    n_int = grid.num_intervals
    if grid.level <= all_pairs_level:
        lags = np.arange(1, n_int + 1)
        strides = np.ones_like(lags)
    else:
        lags = strides = 1 << np.arange(grid.level + 1)
    # pair number k of the flat scan is start number k - first[r] of row r
    first = np.concatenate([[0], np.cumsum((n_int - lags) // strides + 1)])
    # one denominator per row, not per pair
    den = np.array([[(lag * grid.step) ** float(th) for lag in lags.tolist()]
                    for th in np.atleast_1d(exponents)])
    best = np.zeros(len(den))
    for lo in range(0, first[-1], PAIR_CHUNK):
        k = np.arange(lo, min(lo + PAIR_CHUNK, first[-1]))
        row = np.searchsorted(first, k, side="right") - 1
        s = (k - first[row]) * strides[row]
        q = norms(s, s + lags[row]) / den[:, row]
        best = np.maximum(best, q.max(axis=1))
    return best


def holder_seminorm(path: SampledPath, alpha: float) -> float:
    """Grid proxy for the alpha-Hölder seminorm: max over node pairs of
    ``|Z_{s,t}| / |t-s|**alpha``, with exact lags ``(t - s) * h``.

    Exact over all pairs up to ``PATH_PAIR_LEVEL``, scanned lag by lag with
    one denominator per lag in blocks of lags taken as strided views of the
    values, in O(N) memory; beyond it :func:`pair_scan`'s aligned dyadic
    pairs.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if path.grid.num_nodes < 2:
        raise ValueError("path needs at least two nodes")
    if path.grid.level > PATH_PAIR_LEVEL:
        z = path.values
        return float(pair_scan(path.grid, PATH_PAIR_LEVEL,
                               lambda s, t: euclidean_norms(z[t] - z[s]), alpha)[0])
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


# ---------------------------------------------------------------------------
# path generators


def _sin_cos_values(t: np.ndarray, dim: int) -> np.ndarray:
    out = np.empty((t.size, dim))
    for i in range(dim):
        freq = i // 2 + 1
        out[:, i] = np.sin(freq * t) if i % 2 == 0 else np.cos(freq * t)
    return out


def fbm_covariance(times: np.ndarray, hurst: float) -> np.ndarray:
    """Fractional Brownian covariance ``(s^2H + t^2H - |t-s|^2H) / 2``."""
    s = times[:, None]
    t = times[None, :]
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(s) ** h2 + np.abs(t) ** h2 - np.abs(t - s) ** h2)


def fgn_from_normals(z: np.ndarray, hurst: float, step: float) -> np.ndarray:
    """Fractional Gaussian noise, shape ``(..., n)``, on steps of width
    ``step`` from standard normals ``z`` of shape ``(..., 2n)``: Davies &
    Harte (1987) circulant embedding of the noise autocovariance, exact and
    O(n log n).  Linear in ``z``, so the identity yields the implied
    covariance.  Raises ``ValueError`` on a negative embedding eigenvalue
    beyond round-off (fGn has none: Dietrich & Newsam 1997).
    """
    n = z.shape[-1] // 2
    h2 = 2.0 * hurst
    k = np.arange(2, n + 1, dtype=float)
    # (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2 via expm1/log1p: the plain second
    # difference loses ~eps k^2 relative at large lags
    far = 0.5 * k**h2 * (np.expm1(h2 * np.log1p(1 / k)) + np.expm1(h2 * np.log1p(-1 / k)))
    acov = np.concatenate([[1.0, 2.0 ** (h2 - 1.0) - 1.0], far])
    eig = np.fft.rfft(np.concatenate([acov, acov[-2:0:-1]])).real
    if eig.min() < -1e-10 * eig.max():
        raise ValueError("fbm circulant embedding is not positive semi-definite on this grid")
    # the two real end modes carry twice the variance of each complex pair
    scale = np.sqrt(np.maximum(eig, 0.0) / (4 * n))
    scale[[0, n]] *= np.sqrt(2.0)
    half = scale * z[..., : n + 1].astype(complex)
    half[..., 1:n] += 1j * scale[1:n] * z[..., n + 1 :]
    return np.fft.irfft(half, 2 * n, axis=-1)[..., :n] * (2 * n * step**hurst)


def generate_path(
    kind: str,
    grid: TimeGrid,
    dim: int = 1,
    *,
    coeffs: np.ndarray | None = None,
    hurst: float = 0.5,
    seed: int | None = None,
    knots: list[tuple[float, np.ndarray]] | None = None,
) -> SampledPath:
    """Test-path generator.

    kind:
        ``sin_cos``          components alternate sin/cos of increasing frequency
        ``polynomial``       ``coeffs[i]`` = ascending coefficients of component i
        ``fbm``              exact-covariance Gaussian sample, W(0) = 0
        ``piecewise_linear`` linear interpolation through ``knots`` [(t, value), ...]

    fbm paths are reproducible from ``seed``, in O(N log N) time and O(N)
    memory (:func:`fgn_from_normals`); at ``hurst = 0.5`` the path is
    ``sqrt(h) * cumsum(z)``, the Cholesky factor of ``h * min(i, j)`` on ``z``.
    """
    t = grid.nodes
    if kind == "sin_cos":
        return SampledPath(grid, _sin_cos_values(t, dim))
    if kind == "polynomial":
        if coeffs is None:
            raise ValueError("polynomial kind needs coeffs")
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        vals = np.stack([np.polynomial.polynomial.polyval(t, c) for c in coeffs], axis=1)
        return SampledPath(grid, vals)
    if kind == "fbm":
        if not 0.0 < hurst < 1.0:
            raise ValueError(f"hurst must be in (0, 1), got {hurst}")
        rng = np.random.default_rng(seed)
        n = grid.num_intervals
        if hurst == 0.5:
            walk = np.sqrt(grid.step) * np.cumsum(rng.standard_normal((dim, n)), axis=1)
        else:
            noise = fgn_from_normals(rng.standard_normal((dim, 2 * n)), hurst, grid.step)
            walk = np.cumsum(noise, axis=1)
        vals = np.zeros((grid.num_nodes, dim))
        vals[1:] = walk.T
        return SampledPath(grid, vals)
    if kind == "piecewise_linear":
        if not knots:
            raise ValueError("piecewise_linear kind needs knots")
        kt = np.array([k[0] for k in knots], dtype=float)
        kv = np.atleast_2d(np.array([np.atleast_1d(k[1]) for k in knots], dtype=float))
        if kt[0] > 0 or kt[-1] < grid.horizon:
            raise ValueError("knots must cover [0, horizon]")
        vals = np.stack([np.interp(t, kt, kv[:, i]) for i in range(kv.shape[1])], axis=1)
        return SampledPath(grid, vals)
    raise ValueError(f"unknown path kind {kind!r}")


# ---------------------------------------------------------------------------
# localized test functions

def _bump(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    return out


def _odd_bump(u: np.ndarray) -> np.ndarray:
    return u * _bump(u)


def _poly_bump(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = (1.0 - u[inside] ** 2) ** 3
    return out


_NORMALIZATION_CACHE: dict[str, float] = {}


def profile_c1_norm(name: str) -> float:
    """Numerical ``sup|eta| + sup|eta'|`` of a raw profile (central differences on a fine grid)."""
    if name not in _NORMALIZATION_CACHE:
        fn = _RAW_PROFILES[name]
        u = np.linspace(-1.0, 1.0, 200001)
        v = fn(u)
        dv = np.gradient(v, u)
        _NORMALIZATION_CACHE[name] = float(np.max(np.abs(v)) + np.max(np.abs(dv)))
    return _NORMALIZATION_CACHE[name]


def profile_integral(name: str) -> float:
    if name + ":int" not in _NORMALIZATION_CACHE:
        fn = _RAW_PROFILES[name]
        u = np.linspace(-1.0, 1.0, 200001)
        _NORMALIZATION_CACHE[name + ":int"] = float(np.trapezoid(fn(u), u))
    return _NORMALIZATION_CACHE[name + ":int"]


_RAW_PROFILES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "bump": _bump,
    "odd_bump": _odd_bump,
    "poly_bump": _poly_bump,
}


def profile_function(name: str) -> Callable[[np.ndarray], np.ndarray]:
    """Resolve a profile name to its callable on [-1, 1].

    Raw profiles: ``bump`` (exp(-1/(1-u^2)), the canonical choice), ``odd_bump``,
    ``poly_bump``.  Suffix ``_b1`` rescales into the unit C^1 ball, suffix
    ``_unit`` rescales to unit integral.
    """
    if name in _RAW_PROFILES:
        return _RAW_PROFILES[name]
    for suffix in ("_b1", "_unit"):
        if name.endswith(suffix) and name[: -len(suffix)] in _RAW_PROFILES:
            base = name[: -len(suffix)]
            scale = profile_c1_norm(base) if suffix == "_b1" else profile_integral(base)
            fn = _RAW_PROFILES[base]
            return lambda u, fn=fn, scale=scale: fn(u) / scale
    raise ValueError(f"unknown test-function profile {name!r}")


@dataclass(frozen=True)
class TestFunction:
    """Localized test function ``t -> eta((t - center)/scale) / scale``.

    Support is ``[center - scale, center + scale]``; shrinking ``scale``
    localizes the probe while keeping its integral fixed.
    """

    __test__ = False  # not a pytest case despite the domain name

    profile: str = "bump"
    center: float = 0.0
    scale: float = 1.0
    _fn: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        object.__setattr__(self, "_fn", profile_function(self.profile))

    def __call__(self, t: np.ndarray | float) -> np.ndarray | float:
        t = np.asarray(t, dtype=float)
        out = self._fn((t - self.center) / self.scale) / self.scale
        return out if out.ndim else float(out)

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.scale, self.center + self.scale)


# ---------------------------------------------------------------------------
# CSV round trip (header ``t,x1,...,xn``, 17 significant digits)


def write_path_csv(path: SampledPath, filename: str) -> None:
    header = "t," + ",".join(f"x{i + 1}" for i in range(path.dim))
    data = np.column_stack([path.grid.nodes, path.values])
    with open(filename, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in data:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_path_csv(filename: str) -> SampledPath:
    data = np.genfromtxt(filename, delimiter=",", skip_header=1, dtype=float)
    data = np.atleast_2d(data)
    if not np.isfinite(data).all():
        raise ValueError(f"{filename}: non-finite or unparsable value")
    t = data[:, 0]
    n_int = len(t) - 1
    level = int(round(np.log2(n_int))) if n_int > 0 else 0
    if (1 << level) != n_int:
        raise ValueError(f"{filename}: {n_int} intervals is not a power of two")
    grid = TimeGrid(float(t[-1]), level)
    if not np.allclose(t, grid.nodes, rtol=0.0, atol=1e-12 * max(1.0, grid.horizon)):
        raise ValueError(f"{filename}: nodes are not a uniform dyadic grid")
    return SampledPath(grid, data[:, 1:])
