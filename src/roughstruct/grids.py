"""Dyadic time grids, sampled paths, the one pair scan and the localized bump.

Everything downstream (lifts, wavelet pairings, integrals, the RDE solver)
works on uniform dyadic grids: ``t_k = k * T * 2**-J``.  Dyadic grids keep
wavelet anchor points on grid nodes, which makes the reconstruction sums
exact at the nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._fmt17 import check_outputs, format_g17, write_output

MAX_GRID_LEVEL = 24

#: :func:`holder_seminorm` scans all node pairs up to this grid level,
#: exactly and pruned, and :func:`pair_scan`'s aligned dyadic pairs beyond.
PATH_PAIR_LEVEL = 12
#: :func:`pair_scan` visits all node pairs up to this grid level, aligned
#: dyadic pairs beyond: tensors and jets gather a matrix per pair, and all pairs
#: would take seconds at level 12 (a rough-path seminorm: 2-3 s, not 3 ms).
JET_PAIR_LEVEL = 8
#: Working memory in floats: one dense block of :func:`holder_seminorm`; the pair,
#: triple and germ scans give each temporary an eighth of it (:func:`scan_chunks`).
PAIR_CHUNK = 1 << 18


@dataclass(frozen=True)
class TimeGrid:
    """Uniform dyadic grid on ``[0, horizon]`` with ``2**level`` intervals."""

    horizon: float
    level: int

    def __post_init__(self) -> None:
        if not 0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
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
        # C-contiguous, so row gathers (np.take) never copy the whole table
        object.__setattr__(self, "values", np.ascontiguousarray(vals))

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
        if not 0 <= start <= self.grid.num_intervals - n:
            raise ValueError(f"window [{start}, {start + n}] exceeds grid [0, {self.grid.num_intervals}]")
        sub = TimeGrid(self.grid.step * n, level)
        return SampledPath(sub, self.values[start : start + n + 1])


def euclidean_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each ``a[k]`` over all its trailing axes."""
    flat = a.reshape(len(a), -1)
    return np.sqrt(np.einsum("ki,ki->k", flat, flat))


def scan_chunks(count: int, width: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` bounds covering ``range(count)`` in chunks of ``PAIR_CHUNK //
    8 // width`` rows (at least 2) of ``width`` floats.  A one-row tail joins the
    chunk before: einsum sums one row in another order, not bit-exactly."""
    rows = max(2, PAIR_CHUNK // 8 // width)
    bounds = [*range(0, count, rows), count]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds, bounds[1:]))


def pair_scan(grid: TimeGrid, norms: Callable, exponents, width: int = 1) -> np.ndarray:
    """Per exponent ``theta``, the max over node pairs ``s < t`` of
    ``norms(s, t) / ((t - s) * h)**theta``, with exact lags.

    Pairs: all of them up to grid level ``JET_PAIR_LEVEL``, else the
    aligned dyadic ``(k 2**m, (k+1) 2**m)`` of every scale m.  ``norms`` gets the
    :func:`scan_chunks` of its ``width`` floats a pair, returns ``(len(exponents), P)`` or ``(P,)``.
    """
    n_int = grid.num_intervals
    if grid.level <= JET_PAIR_LEVEL:
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
    for lo, hi in scan_chunks(int(first[-1]), width):
        k = np.arange(lo, hi)
        row = np.searchsorted(first, k, side="right") - 1
        s = (k - first[row]) * strides[row]
        q = norms(s, s + lags[row]) / den[:, row]
        best = np.maximum(best, q.max(axis=1))
    return best


def holder_seminorm(path: SampledPath, alpha: float) -> float:
    """Grid proxy for the alpha-Hölder seminorm: max over node pairs of
    ``|Z_{s,t}| / |t-s|**alpha``, with exact lags ``(t - s) * h``, of finite Z.

    Exact over all pairs up to ``PATH_PAIR_LEVEL``: in lag bands ``[a, b]``
    about ``a / 8`` wide, Z's extremes over ``[s + a, s + b]`` over
    ``(a h)**alpha`` bound the quotients of start ``s``, and only the starts
    that can beat the running max are evaluated, tied bands whole.  Beyond
    the level, :func:`pair_scan`'s aligned dyadic pairs.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if path.grid.num_nodes < 2:
        raise ValueError("path needs at least two nodes")
    if not np.isfinite(path.values).all():
        raise ValueError("path values must be finite")
    if path.grid.level > PATH_PAIR_LEVEL:
        z = path.values
        return float(pair_scan(path.grid, lambda s, t: euclidean_norms(z[t] - z[s]), alpha,
                               z.shape[1])[0])
    n_int = path.grid.num_intervals
    x = np.ascontiguousarray(path.values.T)
    den = (np.arange(1, n_int + 1) * path.grid.step) ** alpha
    block = min(n_int, max(1, PAIR_CHUNK // x.size))  # lags per dense block: ~2 MiB
    # the bands end where the last dense block, which holds lag N, starts
    tail = 1 + (n_int - 1) // block * block
    band = [1]
    while band[-1] < tail:
        band.append(min(tail, band[-1] + max(1, band[-1] // 8)))
    width = np.diff(band)
    # edge padding credits x_N with a longer lag than it has, so a padded
    # quotient never exceeds the true one of (s, N), scanned at its own lag
    xpad = np.concatenate([x, np.repeat(x[:, -1:], max([block, *width]) - 1, axis=1)], axis=1)
    # rows of x and -x; table[:, i] is their max over [i, i + 2**level)
    y = table = np.concatenate([xpad, -xpad])
    level, bound_sq = 0, []
    for lo, w in zip(band, width.tolist()):
        while 2 << level <= w:
            table = np.maximum(table[:, : -(1 << level)], table[:, 1 << level :])
            level += 1
        starts, last = n_int + 1 - lo, lo + w - (1 << level)
        # per component, |x_t - x_s| <= max(M - x_s, x_s - m) over t in [s + lo, s + lo + w)
        g = np.maximum(table[:, lo : lo + starts], table[:, last : last + starts]) - y[:, :starts]
        g = np.maximum(g[: len(x)], g[len(x) :])
        bound_sq.append(np.einsum("ds,ds->s", g, g))
    seed = np.array([b.argmax() for b in bound_sq], dtype=int)
    top = [np.sqrt(b[s]) / den[lo - 1] for b, s, lo in zip(bound_sq, seed, band)]

    def max_quotient(inc: np.ndarray, lag_den: np.ndarray) -> float:  # sums as np.einsum does
        return float(np.max(np.sqrt(sum(r * r for r in inc)) / lag_den, initial=0.0))

    s, lag = np.repeat(seed, width), np.arange(1, tail)  # each band's best-bound start
    best = max_quotient(xpad[:, s + lag] - x[:, s], den[lag - 1])
    dense = np.arange(n_int + 1) >= tail
    for bound, lo, hi, b_sq in sorted(zip(top, band, band[1:], bound_sq), reverse=True):
        if not bound * (1 + 1e-9) > best:
            break
        cand = np.flatnonzero(b_sq > (best / (1 + 1e-9) * den[lo - 1]) ** 2)
        if 2 * len(cand) > len(b_sq):  # ties: scan the band whole below
            dense[lo:hi] = True
            continue
        chunk = max(1, PAIR_CHUNK // ((hi - lo) * len(x)))
        for c in (cand[k : k + chunk] for k in range(0, len(cand), chunk)):
            rows = sliding_window_view(xpad, hi - lo, axis=1)[:, c + lo] - x[:, c, None]
            best = max(best, max_quotient(rows, den[lo - 1 : hi - 1]))
    # whole blocks of the dense scan, so every pair sums as it does there
    for lag in np.unique((np.flatnonzero(dense) - 1) // block * block + 1).tolist():
        starts = n_int + 1 - lag
        # rows[:, b, s] = x_{s+lag+b}
        rows = sliding_window_view(xpad[:, lag:], starts, axis=1)[:, : min(block, starts)]
        inc = rows - x[:, None, :starts]
        sq = np.einsum("ibs,ibs->bs", inc, inc).max(axis=1)
        best = max(best, float(np.max(np.sqrt(sq) / den[lag - 1 : lag - 1 + len(sq)])))
    return best


# ---------------------------------------------------------------------------
# path generators


def _sin_cos_values(t: np.ndarray, dim: int) -> np.ndarray:
    out = np.empty((t.size, dim))
    for i in range(dim):
        freq = i // 2 + 1
        out[:, i] = np.sin(freq * t) if i % 2 == 0 else np.cos(freq * t)
    return out


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
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
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
        if not (np.diff(kt) > 0).all():
            raise ValueError(f"knot times must strictly increase, got {kt.tolist()}")
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


@dataclass(frozen=True)
class TestFunction:
    """Localized bump ``t -> eta((t - center)/scale) / scale`` with
    ``eta(u) = exp(-1/(1 - u^2))`` on ``(-1, 1)``.

    Support is ``[center - scale, center + scale]``; shrinking ``scale``
    localizes the probe while keeping its integral fixed.
    """

    __test__ = False  # not a pytest case despite the domain name

    center: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")

    def __call__(self, t: np.ndarray | float) -> np.ndarray | float:
        t = np.asarray(t, dtype=float)
        out = _bump((t - self.center) / self.scale) / self.scale
        return out if out.ndim else float(out)

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.scale, self.center + self.scale)


# ---------------------------------------------------------------------------
# CSV tables: a header line, then rows of comma-separated ``%.17g`` values

#: Rows of :func:`write_table`'s stacked blocks: ``TABLE_BLOCK_ROWS // width``
TABLE_BLOCK_ROWS = 2**16


def write_table(filename: str, header: str, *columns) -> None:
    """The one CSV writer: ``header``, then one ``%.17g`` row per row of the
    ``(N,)`` or ``(N, k)`` array columns side by side, stacked in blocks of
    ``TABLE_BLOCK_ROWS // width`` rows, formatted by numpy in rows of about
    2**12 cells (:func:`format_g17`) and written one by one."""
    width = np.column_stack([c[:1] for c in columns]).shape[1]
    rows = max(1, TABLE_BLOCK_ROWS // width)
    cells = max(1, 2**12 // width) * width

    def chunks():
        yield header.encode() + b"\n"
        for start in range(0, len(columns[0]), rows):
            block = np.column_stack([c[start : start + rows] for c in columns])
            block = block.astype(float, copy=False).ravel()
            yield from (format_g17(block[lo : lo + cells], width) for lo in range(0, len(block), cells))
    write_output(filename, chunks())


def read_table(filename: str) -> np.ndarray:
    """The one CSV reader: the rows after the header as a 2-D float array.
    Raises ``ValueError`` naming the file unless every row has the same
    number (at least 2) of finite cells and there is at least one row."""
    with warnings.catch_warnings():  # an empty table is reported below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            data = np.loadtxt(filename, delimiter=",", skiprows=1, ndmin=2, dtype=float)
        except ValueError as exc:
            raise ValueError(f"{filename}: unparsable table ({exc})") from None
    if data.shape[0] == 0 or data.shape[1] < 2:
        raise ValueError(f"{filename}: needs data rows of at least 2 columns, has "
                         f"{data.shape[0]} rows of {data.shape[1]}")
    if not np.isfinite(data).all():
        raise ValueError(f"{filename}: non-finite or unparsable value")
    return data


def write_path_csv(path: SampledPath, filename: str) -> None:
    """Header ``t,x1,...,xn``, then one :func:`write_table` row per node."""
    header = "t," + ",".join(f"x{i + 1}" for i in range(path.dim))
    write_table(filename, header, path.grid.nodes, path.values)


def read_path_csv(filename: str) -> SampledPath:
    """Bit-exact inverse of :func:`write_path_csv`; ``ValueError`` naming the
    file unless :func:`read_table` accepts it and the nodes are dyadic."""
    data = read_table(filename)
    n_int = len(data) - 1
    if n_int < 1 or n_int & (n_int - 1):
        raise ValueError(f"{filename}: {n_int} intervals is not a power of two")
    try:  # a last t <= 0, or more than 2**MAX_GRID_LEVEL intervals
        grid = TimeGrid(float(data[-1, 0]), n_int.bit_length() - 1)
    except ValueError as exc:
        raise ValueError(f"{filename}: {exc}") from None
    if not np.allclose(data[:, 0], grid.nodes, rtol=0.0, atol=1e-12 * max(1.0, grid.horizon)):
        raise ValueError(f"{filename}: nodes are not a uniform dyadic grid")
    return SampledPath(grid, data[:, 1:])
