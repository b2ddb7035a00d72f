"""Compactly supported wavelet bases evaluated by the cascade algorithm.

The scaling function solves the two-scale relation
``phi(t) = sqrt(2) * sum_k h_k phi(2t - k)``; its exact values at the
integers come from the eigenvector of the downsampled filter matrix and
dyadic refinement fills in the rest.  Both functions are stored centered,
so supports are ``[-c, c]`` with ``c = (taps - 1) / 2``.

Pairings against ``dZ`` for a sampled path Z are midpoint
Riemann-Stieltjes sums on the integrator grid; wavelet coefficients of a
measure on ``[0, T]`` are taken in unit time ``u = t / T`` so the dyadic
index sets match the unit-interval convention exactly.

On a dyadic grid of level G, every level-j basis function is one fixed
stencil shifted by ``k * 2**(G - j)`` nodes, so all pairings of grid arrays
with a level's basis functions go through one engine: ``stencil`` tabulates
the level-j function, ``analyse`` correlates a grid array with it (one
coefficient per index of ``index_set(j)``) and ``synthesise`` is the
transpose.  Both cost ``O(c N)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grids import SampledPath

# Scaling (low-pass) filters, normalized to sum sqrt(2).  Keyed by the
# number of vanishing moments; tap count is twice the key.
DAUBECHIES_FILTERS: dict[int, list[float]] = {
    2: [
        0.48296291314469025, 0.836516303737469,
        0.22414386804185735, -0.12940952255092145,
    ],
    3: [
        0.3326705529509569, 0.8068915093133388, 0.4598775021193313,
        -0.13501102001039084, -0.08544127388224149, 0.035226291882100656,
    ],
    4: [
        0.23037781330885523, 0.7148465705525415, 0.6308807679295904,
        -0.02798376941698385, -0.18703481171888114, 0.030841381835986965,
        0.032883011666982945, -0.010597401784997278,
    ],
    5: [
        0.160102397974125, 0.6038292697974729, 0.7243085284385744,
        0.13842814590110342, -0.24229488706619015, -0.03224486958502952,
        0.07757149384006515, -0.006241490213011705, -0.012580751999015526,
        0.003335725285001549,
    ],
    6: [
        0.11154074335008017, 0.4946238903983854, 0.7511339080215775,
        0.3152503517092432, -0.22626469396516913, -0.12976686756709563,
        0.09750160558707936, 0.02752286553001629, -0.031582039318031156,
        0.0005538422009938016, 0.004777257511010651, -0.00107730108499558,
    ],
    7: [
        0.07785205408506236, 0.39653931948230575, 0.7291320908465551,
        0.4697822874053586, -0.14390600392910627, -0.22403618499416572,
        0.07130921926705004, 0.0806126091510659, -0.03802993693503463,
        -0.01657454163101562, 0.012550998556013784, 0.00042957797300470274,
        -0.0018016407039998328, 0.0003537138000010399,
    ],
    8: [
        0.05441584224308161, 0.3128715909144659, 0.6756307362980128,
        0.5853546836548691, -0.015829105256023893, -0.2840155429624281,
        0.00047248457399797254, 0.128747426620186, -0.01736930100202211,
        -0.04408825393106472, 0.013981027917015516, 0.008746094047015655,
        -0.00487035299301066, -0.0003917403729959771, 0.0006754494059985568,
        -0.00011747678400228192,
    ],
}

# Published Hölder smoothness estimates of the scaling functions.
DAUBECHIES_REGULARITY: dict[int, float] = {
    2: 0.5500, 3: 1.0878, 4: 1.6179, 5: 1.9690,
    6: 2.1891, 7: 2.4604, 8: 2.7608,
}


def _integer_values(h: np.ndarray) -> np.ndarray:
    """phi at the integers 0..taps-1 (eigenvector of the two-scale matrix)."""
    taps = len(h)
    n = taps - 2
    mat = np.zeros((n, n))
    for i in range(1, taps - 1):
        for j in range(1, taps - 1):
            k = 2 * i - j
            if 0 <= k < taps:
                mat[i - 1, j - 1] = math.sqrt(2.0) * h[k]
    eigvals, eigvecs = np.linalg.eig(mat)
    idx = int(np.argmin(np.abs(eigvals - 1.0)))
    v = np.real(eigvecs[:, idx])
    v = v / v.sum()
    out = np.zeros(taps)
    out[1 : taps - 1] = v
    return out


def _cascade(h: np.ndarray, levels: int) -> np.ndarray:
    """phi on the dyadic grid of [0, taps-1] at resolution 2**-levels."""
    taps = len(h)
    vals = _integer_values(h)
    root2 = math.sqrt(2.0)
    for p in range(1, levels + 1):
        size = (taps - 1) * (1 << p) + 1
        new = np.zeros(size)
        new[::2] = vals
        odd = np.arange(1, size, 2)
        acc = np.zeros(odd.size)
        for k in range(taps):
            src = odd - k * (1 << (p - 1))  # index of phi(2t - k) at level p-1
            ok = (src >= 0) & (src < vals.size)
            acc[ok] += h[k] * vals[src[ok]]
        new[odd] = root2 * acc
        vals = new
    return vals


def _mother_from_phi(h: np.ndarray, phi_vals: np.ndarray, levels: int) -> np.ndarray:
    """psi on the same dyadic grid, from psi(t) = sqrt2 sum_k g_k phi(2t - k)."""
    taps = len(h)
    g = np.array([(-1) ** k * h[taps - 1 - k] for k in range(taps)])
    size = (taps - 1) * (1 << levels) + 1
    out = np.zeros(size)
    idx = np.arange(size)
    for k in range(taps):
        src = 2 * idx - k * (1 << levels)  # phi(2t - k) on the same table
        ok = (src >= 0) & (src < size)
        out[ok] += g[k] * phi_vals[src[ok]]
    return math.sqrt(2.0) * out


@dataclass(frozen=True)
class WaveletBasis:
    """Daubechies pair (phi, psi) tabulated on a dyadic grid and centered.

    ``vanishing_moments`` >= 2 is required by every consumer here; the
    regularity attribute carries the standard smoothness estimate so
    callers can enforce ``r > |alpha_*|`` preconditions.
    """

    family: str
    scaling_filter: np.ndarray
    vanishing_moments: int
    regularity: float
    dyadic_table_level: int
    _phi: np.ndarray = field(repr=False, compare=False)
    _psi: np.ndarray = field(repr=False, compare=False)
    _phi_cum: np.ndarray = field(repr=False, compare=False)
    _psi_cum: np.ndarray = field(repr=False, compare=False)

    @property
    def taps(self) -> int:
        return len(self.scaling_filter)

    @property
    def center_shift(self) -> int:
        """Integer recentering offset: tables on [0, taps-1] are evaluated as
        functions of ``t + center_shift``.  The shift must stay integer to
        preserve the dyadic lattice alignment across levels."""
        return (self.taps - 1) // 2

    @property
    def support_radius(self) -> float:
        """Radius c with both centered supports inside ``[-c, c]``."""
        return float(max(self.center_shift, self.taps - 1 - self.center_shift))

    @property
    def table_step(self) -> float:
        return 2.0 ** -self.dyadic_table_level

    def min_base_level(self) -> int:
        """Smallest l with ``2**-l * c <= 1``."""
        return max(0, math.ceil(math.log2(self.support_radius)))

    def _table(self, which: str, cumulative: bool = False) -> np.ndarray:
        if which == "father":
            return self._phi_cum if cumulative else self._phi
        if which == "mother":
            return self._psi_cum if cumulative else self._psi
        raise ValueError(f"which must be 'father' or 'mother', got {which!r}")

    def evaluate(self, which: str, t: np.ndarray | float) -> np.ndarray | float:
        """Centered phi or psi at ``t`` by linear interpolation in the table."""
        table = self._table(which)
        x = (np.asarray(t, dtype=float) + self.center_shift) / self.table_step
        out = _interp_table(table, x)
        return out if out.ndim else float(out)

    def integral(self, which: str, t: np.ndarray | float) -> np.ndarray | float:
        """``int_{-inf}^{t}`` of the centered phi or psi (cumulative table)."""
        table = self._table(which, cumulative=True)
        x = (np.asarray(t, dtype=float) + self.center_shift) / self.table_step
        out = _interp_table(table, x, clamp=True)
        return out if out.ndim else float(out)

    def index_set(self, j: int, horizon: float = 1.0) -> np.ndarray:
        """Shift indices whose level-j function meets ``[0, horizon]``:
        ``[-floor(c), ceil(horizon * 2**j) + floor(c)]``."""
        c = int(math.floor(self.support_radius))
        hi = int(math.ceil(horizon * (1 << j)))
        return np.arange(-c, hi + c + 1)


def _interp_table(table: np.ndarray, x: np.ndarray, clamp: bool = False) -> np.ndarray:
    shape = np.shape(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xq = np.clip(x, 0.0, table.size - 1.0) if clamp else x
    lo = np.clip(np.floor(xq).astype(int), 0, table.size - 2)
    w = xq - lo
    out = table[lo] * (1.0 - w) + table[lo + 1] * w
    if not clamp:
        out[(x < 0.0) | (x > table.size - 1.0)] = 0.0
    return out.reshape(shape)


@lru_cache(maxsize=None)
def daubechies_basis(vanishing_moments: int = 4, table_level: int = 14) -> WaveletBasis:
    """Build a Daubechies basis with the given number of vanishing moments.

    Moments >= 2 give the two vanishing moments the coefficient-decay
    arguments need; >= 3 is C^1.  ``table_level`` controls the dyadic
    evaluation resolution (>= 6 required downstream).  Bases are memoised
    and shared, so their tables are read-only.
    """
    if vanishing_moments not in DAUBECHIES_FILTERS:
        raise ValueError(
            f"supported vanishing moments: {sorted(DAUBECHIES_FILTERS)}, "
            f"got {vanishing_moments}"
        )
    if table_level < 6:
        raise ValueError("table_level must be at least 6")
    h = np.array(DAUBECHIES_FILTERS[vanishing_moments])
    phi = _cascade(h, table_level)
    psi = _mother_from_phi(h, phi, table_level)
    step = 2.0 ** -table_level
    phi_cum = np.concatenate([[0.0], np.cumsum(0.5 * (phi[:-1] + phi[1:]) * step)])
    psi_cum = np.concatenate([[0.0], np.cumsum(0.5 * (psi[:-1] + psi[1:]) * step)])
    for table in (h, phi, psi, phi_cum, psi_cum):
        table.setflags(write=False)
    return WaveletBasis(
        family=f"db{vanishing_moments}",
        scaling_filter=h,
        vanishing_moments=vanishing_moments,
        regularity=DAUBECHIES_REGULARITY[vanishing_moments],
        dyadic_table_level=table_level,
        _phi=phi,
        _psi=psi,
        _phi_cum=phi_cum,
        _psi_cum=psi_cum,
    )


def cascade_evaluate(
    basis: WaveletBasis, which: str, level: int, shift: int, t: np.ndarray | float
) -> np.ndarray | float:
    """``2**(j/2) * phi(2**j t - k)`` (resp. psi) via table lookup."""
    scale = 2.0 ** (level / 2.0)
    t = np.asarray(t, dtype=float)
    return scale * basis.evaluate(which, (1 << level) * t - shift)


def stencil(
    basis: WaveletBasis, which: str, level: int, grid_level: int, cumulative: bool = False
) -> np.ndarray:
    """The level-``level`` shift-0 basis function on the unit grid of level
    ``grid_level``, as a ``(2c, s)`` table with ``s = 2**(grid_level - level)``.

    Entry ``[q, i]`` belongs to grid interval ``r = (q - c) s + i``: the
    midpoint sample ``cascade_evaluate(..., (r + 1/2) / 2**grid_level)``, or
    with ``cumulative`` the integral of the function over the interval (from
    the cumulative table, whose end is pinned to the exact total, 1 for phi
    and 0 for psi).  Shifting by k moves the table by ``k s`` intervals.
    """
    c = int(basis.support_radius)
    s = 1 << (grid_level - level)
    if cumulative:
        ends = basis.integral(which, np.arange(-c * s, c * s + 1) / s)
        ends[-1] = 1.0 if which == "father" else 0.0
        vals = 2.0 ** (-level / 2.0) * np.diff(ends)
    else:
        mids = (np.arange(-c * s, c * s) + 0.5) / (1 << grid_level)
        vals = cascade_evaluate(basis, which, level, 0, mids)
    return vals.reshape(2 * c, s)


def analyse(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Pair a per-interval grid array with every shift of a stencil.

    Returns ``sum_r table[r - k s] x[r]`` for ``k`` in ``index_set(level)``
    (``-c .. 2**level + c``), where ``x`` has ``2**grid_level`` entries.
    """
    two_c, s = table.shape
    blocks = x.reshape(-1, s) @ table.T  # blocks[b, q]: block b against stencil row q
    n = blocks.shape[0]
    out = np.zeros(n + two_c + 1)
    for q in range(two_c):
        out[two_c - q : two_c - q + n] += blocks[:, q]
    return out


def synthesise(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Transpose of ``analyse``: ``sum_k coeffs_k table[r - k s]`` per interval r.

    ``coeffs`` has shape ``(K, *value_shape)``, one row per index of
    ``index_set(level)``; the result has shape ``(2**grid_level, *value_shape)``.
    """
    two_c, s = table.shape
    n = coeffs.shape[0] - two_c - 1
    value_shape = coeffs.shape[1:]
    out = np.zeros((n, s) + value_shape)
    for q in range(two_c):
        row = table[q].reshape((s,) + (1,) * len(value_shape))
        out += coeffs[two_c - q : two_c - q + n, None] * row
    return out.reshape((n * s,) + value_shape)


# ---------------------------------------------------------------------------
# Stieltjes measures and wavelet coefficients


@dataclass(frozen=True)
class StieltjesMeasure:
    """The distribution ``xi = dZ`` of a scalar sampled path; it pairs with
    the basis through midpoint Riemann-Stieltjes sums on the integrator grid
    (:func:`wavelet_coefficients`)."""

    integrator: SampledPath

    def __post_init__(self) -> None:
        if self.integrator.dim != 1:
            raise ValueError("StieltjesMeasure integrates a scalar component")


@dataclass
class CoefficientTable:
    """Wavelet coefficients of a measure: base-level phi row plus psi levels."""

    base_level: int
    max_level: int
    horizon: float
    phi: dict[int, float]
    psi: dict[tuple[int, int], float]


def wavelet_coefficients(
    xi: StieltjesMeasure,
    basis: WaveletBasis,
    base_level: int | None = None,
    max_level: int | None = None,
) -> CoefficientTable:
    """Pair ``xi = dZ`` against the basis, levels ``l .. J``, paper index sets.

    Coefficients are taken in unit time ``u = t / T`` (Stieltjes sums are
    invariant under the reparametrization), so levels refer to dyadic scales
    of the unit interval.  ``J`` may not exceed the integrator grid level:
    coefficients below the grid scale are meaningless and are refused rather
    than silently zeroed.
    """
    grid = xi.integrator.grid
    if base_level is None:
        base_level = basis.min_base_level()
    if max_level is None:
        max_level = max(base_level, grid.level - 2)
    if 2.0 ** -base_level * basis.support_radius > 1.0 + 1e-12:
        raise ValueError(
            f"base level {base_level} too coarse: need 2^-l * c <= 1 "
            f"(c = {basis.support_radius})"
        )
    if max_level < base_level:
        raise ValueError("max_level must be >= base_level")
    if max_level > grid.level:
        raise ValueError(
            f"max_level {max_level} exceeds integrator grid resolution {grid.level}"
        )
    dz = xi.integrator.increments()[:, 0]

    def row(which: str, j: int) -> zip:
        coeffs = analyse(dz, stencil(basis, which, j, grid.level))
        return zip(basis.index_set(j).tolist(), coeffs.tolist())

    phi_row = dict(row("father", base_level))
    psi = {
        (j, k): v for j in range(base_level, max_level + 1) for k, v in row("mother", j)
    }
    return CoefficientTable(base_level, max_level, grid.horizon, phi_row, psi)
