"""Compactly supported wavelet bases evaluated by the cascade algorithm.

The scaling function solves the two-scale relation
``phi(t) = sqrt(2) * sum_k h_k phi(2t - k)``; its values at the integers,
the eigenvector of the downsampled filter matrix, are stored beside the
filters (``DAUBECHIES_INTEGER_VALUES``, so no basis build calls LAPACK), and
dyadic refinement, one strided slice per filter tap and level, fills in the
rest of its table of level ``TABLE_LEVEL``, from which the mother wavelet
``psi(t) = sqrt(2) * sum_k g_k phi(2t - k)`` is read at the point.  Both are
centered, so supports are ``[-c, c]`` with ``c = (taps - 1) / 2``.

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
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, ClassVar

import numpy as np

if TYPE_CHECKING:
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

# phi(1..taps-2) per filter (phi is 0 at 0 and taps - 1): np.linalg.eig's eigenvalue-1 eigenvector
# of the two-scale matrix sqrt2 h[2i - j], summed to 1 (Daubechies 1992, §6.5), by repr to the bit.
DAUBECHIES_INTEGER_VALUES: dict[int, list[float]] = {
    2: [1.3660254037829676, -0.36602540378296766],
    3: [1.2863350694541276, -0.3858369610722947, 0.09526754600225747, 0.0042343456159095435],
    4: [1.007169977723487, -0.03383695405113558, 0.03961046271612324, -0.011764358205538575,
        -0.001197957596169451, 1.8829413233300164e-05],
    5: [0.6961360550955357, 0.4490576048090956, -0.18225400531857297, 0.03723182290385146,
        0.0015175751493272395, -0.0017267962428659377, 3.756947051289311e-05,
        1.741331160472811e-07],
    6: [0.4369121729456266, 0.8323089728445628, -0.3847544237773998, 0.14279841211256664,
        -0.025507397341683287, -0.0035305203037275345, 0.0017597663395622642,
        1.5591150717823655e-05, -2.5779244958147965e-06, 3.9542704140413995e-09],
    7: [0.25312259274000193, 1.0097568015529064, -0.3922026570674655, 0.18459446002668428,
        -0.0667140607457076, 0.010280947321299723, 0.0017705593881222176,
        -0.0005441637518668896, -6.671314991004724e-05, 2.2728924642539266e-06,
        -3.9186976206896815e-08, -1.9552559733635048e-11],
    8: [0.13685998438601207, 0.9915315055514762, -0.16866942807027221, 0.07111402584062643,
        -0.048906998586968474, 0.02360252908220757, -0.0062059189802457625,
        0.0007404149961215983, -9.605196176518147e-05, 2.8278600835769893e-05,
        1.6175870390025128e-06, 4.178359726132751e-08, -2.28702106838227e-10,
        3.803227121617581e-14],
}

# Level of the dyadic grid on which phi and its primitive are tabulated.
TABLE_LEVEL = 14

# Published Hölder smoothness estimates of the scaling functions.
DAUBECHIES_REGULARITY: dict[int, float] = {
    2: 0.5500, 3: 1.0878, 4: 1.6179, 5: 1.9690,
    6: 2.1891, 7: 2.4604, 8: 2.7608,
}


def _cascade(h: np.ndarray, levels: int) -> np.ndarray:
    """phi on the dyadic grid of [0, taps-1] at resolution 2**-levels."""
    taps = len(h)
    vals = np.array([0.0, *DAUBECHIES_INTEGER_VALUES[taps // 2], 0.0])
    root2 = math.sqrt(2.0)
    for p in range(1, levels + 1):
        m = vals.size - 1  # odd nodes 2i + 1 of level p, i < m
        new = np.empty(2 * m + 1)
        new[::2] = vals
        acc = np.zeros(m)
        for k in range(taps):
            # phi(2t - k) at node 2i + 1 is vals[2i + 1 - ks], inside the table for lo <= i < hi
            ks = k << (p - 1)
            lo, hi = ks // 2, min(m, (m + ks + 1) // 2)
            acc[lo:hi] += h[k] * vals[2 * lo + 1 - ks : 2 * hi - ks : 2]
        new[1::2] = root2 * acc
        vals = new
    return vals


def _cumulative(f: np.ndarray, levels: int) -> np.ndarray:
    """Read-only trapezoid running integral of a table, summed in place."""
    cum = np.zeros(f.size)
    np.add(f[:-1], f[1:], out=cum[1:])
    cum[1:] *= 0.5 * 2.0 ** -levels  # a power-of-two scale, so exact
    np.cumsum(cum[1:], out=cum[1:])
    cum.setflags(write=False)
    return cum


@dataclass(frozen=True)
class WaveletBasis:
    """Daubechies pair (phi, psi) tabulated on a dyadic grid and centered.

    ``vanishing_moments`` >= 2 is required by every consumer here; the
    regularity attribute carries the standard smoothness estimate so
    callers can enforce ``r > |alpha_*|`` preconditions.  The basis keeps
    phi and its cumulative table on the dyadic grid of level ``TABLE_LEVEL``
    only: psi and its primitive are read from them at the point.
    """

    dyadic_table_level: ClassVar[int] = TABLE_LEVEL
    table_step: ClassVar[float] = 2.0 ** -TABLE_LEVEL
    family: str
    scaling_filter: np.ndarray
    vanishing_moments: int
    regularity: float
    _phi: np.ndarray = field(repr=False, compare=False)
    _phi_cum: np.ndarray = field(repr=False, compare=False)

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

    def min_base_level(self) -> int:
        """Smallest l with ``2**-l * c <= 1``."""
        return max(0, math.ceil(math.log2(self.support_radius)))

    @cached_property
    def father_center_of_mass(self) -> float:
        """``int t phi(t) dt`` of the centered scaling function, exactly: by the
        two-scale relation, ``sum_k k h_k / sqrt2`` on ``[0, taps - 1]``."""
        moment = float(np.arange(self.taps) @ self.scaling_filter) / math.sqrt(2.0)
        return moment - self.center_shift

    def _read(self, which: str, t: np.ndarray | float, cumulative: bool) -> np.ndarray | float:
        """phi or psi at ``t``, or with ``cumulative`` its primitive, from phi's tables alone.

        phi (Phi) is interpolated linearly at ``x = (t + center_shift) 2**TABLE_LEVEL``; psi is
        ``sqrt2 sum_k g_k phi(2t - k)`` (its primitive ``sum_k g_k Phi(2t - k) / sqrt2``) with
        ``g_k = (-1)**k h_{taps-1-k}``, read at ``2x - k 2**TABLE_LEVEL``: one floor and one
        weight serve every tap.  Reads clip to the table, where phi ends in 0 and Phi in its total.
        """
        table = self._phi_cum if cumulative else self._phi
        n = 1 << TABLE_LEVEL
        x = np.asarray(t, dtype=float) + self.center_shift
        if which == "father":
            filt, x = (1.0,), x * n
        elif which == "mother":
            filt = [-h if k % 2 else h for k, h in enumerate(self.scaling_filter[::-1])]
            x = x * (2 * n)
        else:
            raise ValueError(f"which must be 'father' or 'mother', got {which!r}")
        lo = np.floor(x)
        w = x - lo
        lo = lo.astype(np.intp)
        below = above = 0.0
        for k, gk in enumerate(filt):
            below = below + gk * table.take(lo - k * n, mode="clip")
        if w.any():  # at the nodes, as for every stencil of a grid up to level 13, w is 0
            for k, gk in enumerate(filt):
                above = above + gk * table.take(lo - (k * n - 1), mode="clip")
        out = below * (1.0 - w) + above * w
        if which == "mother":
            out = out * math.sqrt(0.5 if cumulative else 2.0)
        return float(out) if np.ndim(out) == 0 else out

    def evaluate(self, which: str, t: np.ndarray | float) -> np.ndarray | float:
        """Centered phi or psi at ``t``."""
        return self._read(which, t, False)

    def integral(self, which: str, t: np.ndarray | float) -> np.ndarray | float:
        """``int_{-inf}^{t}`` of the centered phi or psi."""
        return self._read(which, t, True)

    def index_set(self, j: int) -> np.ndarray:
        """Shift indices whose level-j function meets ``[0, 1]``:
        ``[-floor(c), 2**j + floor(c)]``."""
        c = int(math.floor(self.support_radius))
        return np.arange(-c, (1 << j) + c + 1)


def daubechies_basis(vanishing_moments: int = 4) -> WaveletBasis:
    """Build a Daubechies basis with the given number of vanishing moments.

    Moments >= 2 give the two vanishing moments the coefficient-decay
    arguments need; >= 3 is C^1.  Bases are memoised by value, however the
    argument is spelled, and shared, so their tables are read-only.
    """
    return _daubechies_basis(vanishing_moments)


@lru_cache(maxsize=None)
def _daubechies_basis(vanishing_moments: int) -> WaveletBasis:
    if vanishing_moments not in DAUBECHIES_FILTERS:
        raise ValueError(
            f"supported vanishing moments: {sorted(DAUBECHIES_FILTERS)}, "
            f"got {vanishing_moments}"
        )
    h = np.array(DAUBECHIES_FILTERS[vanishing_moments])
    phi = _cascade(h, TABLE_LEVEL)
    for table in (h, phi):
        table.setflags(write=False)
    return WaveletBasis(
        family=f"db{vanishing_moments}",
        scaling_filter=h,
        vanishing_moments=vanishing_moments,
        regularity=DAUBECHIES_REGULARITY[vanishing_moments],
        _phi=phi,
        _phi_cum=_cumulative(phi, TABLE_LEVEL),
    )


def cascade_evaluate(
    basis: WaveletBasis, which: str, level: int, shift: int, t: np.ndarray | float
) -> np.ndarray | float:
    """``2**(j/2) * phi(2**j t - k)`` (resp. psi) via lookup in phi's tables."""
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
    its primitive, whose end is pinned to the exact total, 1 for phi and 0
    for psi).  Shifting by k moves the table by ``k s`` intervals.
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
    One einsum over the view ``win[v, b, q] = coeffs[2c - q + b, v]`` of one contiguous row per
    value component (inner loop along b) sums each cell over q = 0 .. 2c - 1 from zero, as a loop
    over the stencil rows does, and with no BLAS, so at any thread count.
    """
    two_c, s = table.shape
    n = len(coeffs) - two_c - 1
    rows = np.ascontiguousarray(np.reshape(coeffs, (len(coeffs), -1)).T, dtype=float)
    win = np.ndarray((len(rows), n, two_c), float, rows, two_c * 8, (rows.shape[1] * 8, 8, -8))
    out = np.empty((n, s, len(rows)))
    np.einsum("vbq,qi->ivb", win, table, out=out.transpose(1, 2, 0))
    return out.reshape((n * s,) + coeffs.shape[1:])


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


@dataclass(eq=False)  # array fields: compared by identity
class CoefficientTable:
    """Wavelet coefficients of a measure: the phi row of ``index_set(base_level)``
    and the psi rows of ``index_set(j)``, ``j = base_level .. max_level``, end to end."""

    base_level: int
    max_level: int
    phi: np.ndarray
    psi: np.ndarray

    def psi_row(self, j: int) -> np.ndarray:
        """The level-j psi row (a view)."""
        if not self.base_level <= j <= self.max_level:
            raise ValueError(f"level {j} outside {self.base_level} .. {self.max_level}")
        pad = self.phi.size - (1 << self.base_level)  # 2 floor(c) + 1 indices past 2**j per row
        start = (1 << j) - (1 << self.base_level) + (j - self.base_level) * pad
        return self.psi[start : start + (1 << j) + pad]


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

    def row(which: str, j: int) -> np.ndarray:
        return analyse(dz, stencil(basis, which, j, grid.level))

    psi = np.concatenate([row("mother", j) for j in range(base_level, max_level + 1)])
    return CoefficientTable(base_level, max_level, row("father", base_level), psi)
