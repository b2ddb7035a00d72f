"""Rough paths: the pair (W, WW) with Chen's relation.

A :class:`RoughPath` is ``(path, second, alpha)``: the sampled path W, its
finest-interval tensors ``second[k] = WW_{t_k, t_{k+1}}`` as a float
(num_intervals, n, n) array, and the Hölder exponent.  Every coarser
``WW_{s,t}`` is assembled through Chen's relation

    ``WW_{s,t} = WW_{s,u} + WW_{u,t} + W_{s,u} (x) W_{u,t}``

so the relation holds by construction, and ``chen_defect`` only probes
round-off, in O(N).  Every reading of ``WW`` (pairs, seminorms, germs)
goes through the stored tensors.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import SampledPath, TimeGrid, euclidean_norms, generate_path, pair_scan, scan_chunks
from .grids import check_outputs, read_path_csv, write_output, write_path_csv


@dataclass(frozen=True)
class RoughPath:
    """An alpha-Hölder rough path: the path, its finest-interval tensors
    ``WW_{t_k, t_{k+1}}`` as a float (num_intervals, n, n) array, and alpha."""

    path: SampledPath
    second: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        second = np.asarray(self.second, dtype=float)
        want = (self.path.grid.num_intervals, self.path.dim, self.path.dim)
        if second.shape != want:
            raise ValueError(f"second must be (num_intervals, n, n) = {want}, got {second.shape}")
        object.__setattr__(self, "second", second)
        if not 1 / 3 < self.alpha <= 0.5:
            raise ValueError(f"alpha must be in (1/3, 1/2], got {self.alpha}")

    @property
    def dim(self) -> int:
        return self.path.dim

    @cached_property
    def _prefix(self) -> np.ndarray:
        """``WW_{t_0, t_k}`` for every node k (one left-to-right Chen fold,
        summed in place)."""
        w = self.path.values
        out = np.zeros((self.path.grid.num_nodes, self.dim, self.dim))
        np.einsum("ki,kj->kij", w[:-1] - w[0], np.diff(w, axis=0), out=out[1:])
        out[1:] += self.second
        np.cumsum(out[1:], axis=0, out=out[1:])
        return out

    def pair(self, i: int, j: int) -> np.ndarray:
        """``WW_{t_i, t_j}``: :meth:`pairs` at one pair (Chen-equivalent)."""
        if not 0 <= i <= j <= self.path.grid.num_intervals:
            raise ValueError(f"need 0 <= i <= j <= {self.path.grid.num_intervals}, got ({i}, {j})")
        return self.pairs(np.array([i]), np.array([j]))[0]

    def pairs(self, i_idx: np.ndarray, j_idx: np.ndarray) -> np.ndarray:
        """Vectorized ``pair`` over index arrays."""
        w = self.path.values
        wi = np.take(w, i_idx, axis=0)
        out = np.take(self._prefix, j_idx, axis=0)
        out -= np.take(self._prefix, i_idx, axis=0)
        out -= np.einsum("ki,kj->kij", wi - w[0], np.take(w, j_idx, axis=0) - wi)
        return out

    def restrict(self, start: int, level: int) -> "RoughPath":
        """Rough path on a dyadic window of ``2**level`` intervals from node
        ``start``: the path's and the stored tensors' slices, so every pair
        of the window is the parent's pair of the same nodes."""
        second = self.second[start : start + (1 << level)]
        return RoughPath(self.path.restrict(start, level), second, self.alpha)


def chen_defect(rp: RoughPath) -> float:
    """Max over probed triples ``s < u < t`` of the Chen-relation defect
    ``|WW_{s,t} - WW_{s,u} - WW_{u,t} - W_{s,u} (x) W_{u,t}|`` (Frobenius).

    Every pair is assembled from the stored tensors, so Chen holds by
    construction and the defect is round-off.  It is probed on the triples
    ``(s, s + h, s + 2h)``: adjacent (``h = 1``, every ``s``), then aligned at
    every dyadic scale ``h`` (``s`` a multiple of ``2h``): O(N) triples, chunked.
    """
    w, n_int = rp.path.values, rp.path.grid.num_intervals
    best = 0.0
    for h, stride in [(1, 1)] + [(1 << m, 2 << m) for m in range(rp.path.grid.level)]:
        starts = np.arange(0, n_int - 2 * h + 1, stride)
        for lo, hi in scan_chunks(len(starts), rp.dim**2):
            s = starts[lo:hi]
            u, t = s + h, s + 2 * h
            d = rp.pairs(s, t)
            d -= rp.pairs(s, u)
            d -= rp.pairs(u, t)
            d -= np.einsum("ki,kj->kij", w[u] - w[s], w[t] - w[u])
            best = np.maximum(best, np.einsum("kij,kij->k", d, d).max())
    return float(np.sqrt(best))


# ---------------------------------------------------------------------------
# lifts of piecewise-smooth paths


def _sin_cos_interval_tensors(t: np.ndarray, dim: int) -> np.ndarray:
    """Exact iterated integrals of (sin, cos) over consecutive intervals."""
    s, e = t[:-1], t[1:]
    n_int = len(s)
    out = np.empty((n_int, dim, dim))
    dsin = np.sin(e) - np.sin(s)
    out[:, 0, 0] = 0.5 * dsin**2
    if dim == 1:
        return out
    dcos = np.cos(e) - np.cos(s)
    dsin2 = np.sin(2 * e) - np.sin(2 * s)
    out[:, 0, 1] = -(e - s) / 2 + dsin2 / 4 - np.sin(s) * dcos
    out[:, 1, 0] = (e - s) / 2 + dsin2 / 4 - np.cos(s) * dsin
    out[:, 1, 1] = 0.5 * dcos**2
    return out


def _polynomial_interval_tensors(t: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Exact iterated integrals of a polynomial path over consecutive intervals."""
    from numpy.polynomial import Polynomial

    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    n = coeffs.shape[0]
    polys = [Polynomial(c) for c in coeffs]
    derivs = [p.deriv() for p in polys]
    s, e = t[:-1], t[1:]
    out = np.empty((len(s), n, n))
    for i in range(n):
        vi = polys[i](s)
        for j in range(n):
            anti = (polys[i] * derivs[j]).integ()  # polys[j] integrates derivs[j]
            out[:, i, j] = (anti(e) - anti(s)) - vi * (polys[j](e) - polys[j](s))
    return out


def lift_piecewise_smooth(w: SampledPath, mode: str = "linear", alpha: float = 0.5,
                          coeffs: np.ndarray | None = None) -> RoughPath:
    """Exact rough-path lift of a piecewise-linear or closed-form path.

    ``linear`` treats the samples as a piecewise-linear path, for which the
    interval tensors are ``dW (x) dW / 2``.  ``sin_cos`` and ``polynomial``
    use the closed-form iterated integrals of the generating formula, and
    refuse a path that is not that generator's on its grid.
    """
    if mode not in ("linear", "sin_cos", "polynomial"):
        raise ValueError(f"unknown lift mode {mode!r}")
    if mode == "sin_cos" and w.dim > 2:
        raise ValueError("sin_cos analytic lift supports dim 1 or 2")
    if mode != "linear":  # generate_path refuses a polynomial without coeffs
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite gap is refused below
            gap = generate_path(mode, w.grid, w.dim, coeffs=coeffs).values
        tol = 1e-12 * max(1.0, w.values.max(), -w.values.min())
        if gap.shape != w.values.shape or not np.abs(gap - w.values, out=gap).max() <= tol:
            raise ValueError(f"{mode} lift: the path is not the {mode} generator's on its grid")
    if mode == "linear":
        dw = w.increments()
        inc = 0.5 * np.einsum("ki,kj->kij", dw, dw)
    elif mode == "sin_cos":
        inc = _sin_cos_interval_tensors(w.grid.nodes, w.dim)
    else:
        inc = _polynomial_interval_tensors(w.grid.nodes, coeffs)
    return RoughPath(w, inc, alpha)


def _two_level_quotients(values, pairs, grid: TimeGrid, alpha: float) -> tuple[float, float, float]:
    """``(|W|_alpha, |WW|_2alpha, total)`` of path values and a pair map
    ``WW_{s,t}`` over one :func:`pair_scan`."""

    def norms(s, t):
        return np.stack([euclidean_norms(values[t] - values[s]), euclidean_norms(pairs(s, t))])

    first, second = map(float, pair_scan(grid, norms, (alpha, 2 * alpha), values.shape[1] ** 2))
    return first, second, first + second


def rough_path_seminorm(rp: RoughPath) -> tuple[float, float, float]:
    """Grid maxima of the two Hölder quotients and their sum:
    ``(|W|_alpha, |WW|_2alpha, total)``, both over the same node pairs."""
    return _two_level_quotients(rp.path.values, rp.pairs, rp.path.grid, rp.alpha)


def rough_path_distance(a: RoughPath, b: RoughPath) -> tuple[float, float, float]:
    """Rough-path seminorm of the difference (same grid, same alpha):
    ``(|W - W~|_alpha, |WW - WW~|_2alpha, total)``, both over the same node
    pairs."""
    if a.path.grid.num_nodes != b.path.grid.num_nodes or a.dim != b.dim:
        raise ValueError("rough paths must share grid and dimension")
    # the difference of two second-order processes is not itself one (the
    # cross terms differ), so assemble both sides and subtract per pair
    return _two_level_quotients(
        a.path.values - b.path.values, lambda s, t: a.pairs(s, t) - b.pairs(s, t),
        a.path.grid, a.alpha,
    )


# ---------------------------------------------------------------------------
# Files: a JSON {"alpha", "path_csv", "second_order_npy"} naming two tables
# relative to the JSON's own directory, the path CSV and the tensor table: the
# (N, n, n) "<f8" increments as .npy (the v1.0 header, then the array's own
# buffer, as np.save writes them)


def write_rough_path_json(rp: RoughPath, json_file: str, path_csv: str) -> str:
    """Write ``path_csv``, the tensor table ``<json stem>_second.npy`` and the
    JSON naming both relative to its own directory, all three names checked
    first; returns the table's name as a path like ``json_file``."""
    second_npy = os.path.splitext(json_file)[0] + "_second.npy"
    check_outputs(json_file, path_csv, second_npy)
    write_path_csv(rp.path, path_csv)
    inc, header = np.ascontiguousarray(rp.second, dtype="<f8"), io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(inc))
    write_output(second_npy, [header.getvalue(), inc.data])
    home = os.path.dirname(json_file) or os.curdir
    payload = {"alpha": rp.alpha, "path_csv": os.path.relpath(path_csv, home),
               "second_order_npy": os.path.relpath(second_npy, home)}
    write_output(json_file, [json.dumps(payload).encode()])
    return second_npy


def read_rough_path_json(json_file: str) -> RoughPath:
    """Bit-exact inverse of :func:`write_rough_path_json`, reading both tables
    from the JSON's directory only.  ``ValueError`` naming the file at fault
    unless the JSON has a numeric alpha in (1/3, 1/2] and both names as strings
    (older forms are refused), and the tensor table is (N, n, n) finite "<f8"."""
    with open(json_file) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or not {"alpha", "path_csv", "second_order_npy"} <= set(payload):
        raise ValueError(f"{json_file}: needs the keys alpha, path_csv and second_order_npy; re-run lift")
    alpha = payload["alpha"]
    if type(alpha) not in (int, float):  # a JSON number: not a string, a bool or null
        raise ValueError(f"{json_file}: alpha is not a number")
    if not 1 / 3 < alpha <= 0.5:
        raise ValueError(f"{json_file}: alpha must be in (1/3, 1/2], got {alpha}")
    names = payload["path_csv"], payload["second_order_npy"]
    if not all(isinstance(name, str) for name in names):
        raise ValueError(f"{json_file}: path_csv and second_order_npy must be file names")
    path_csv, second_npy = (os.path.join(os.path.dirname(json_file), name) for name in names)
    path = read_path_csv(path_csv)
    try:  # the shape is RoughPath's to check
        with open(second_npy, "rb") as fh:
            inc = np.lib.format.read_array(fh, allow_pickle=False)
        if inc.dtype != "<f8" or not np.isfinite(inc).all():
            raise ValueError(f"needs finite cells of type '<f8', has '{inc.dtype.str}'")
        return RoughPath(path, inc, alpha)
    except (ValueError, MemoryError) as exc:  # MemoryError: a header's shape too large to allocate
        raise ValueError(f"{second_npy}: {exc}") from None
