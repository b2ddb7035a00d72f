"""Rough paths: the pair (W, WW) with Chen's relation.

Only the finest-interval tensors of the second-order process are stored;
every coarser ``WW_{s,t}`` is assembled through Chen's relation

    ``WW_{s,t} = WW_{s,u} + WW_{u,t} + W_{s,u} (x) W_{u,t}``

so the relation holds by construction.  Query-level pair overrides exist to
represent (and detect) a second-order process that is *not* Chen-consistent:
``chen_defect`` scans every triple touching one, and probes the rest in O(N).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grids import JET_PAIR_LEVEL, SampledPath, TimeGrid, euclidean_norms, pair_scan
from .grids import TABLE_BLOCK_ROWS, read_path_csv, write_path_csv


@dataclass(frozen=True)
class SecondOrderProcess:
    """Per-interval tensors ``WW_{t_k, t_{k+1}}`` at the finest grid level."""

    grid: TimeGrid
    increments: np.ndarray  # (num_intervals, n, n)
    pair_overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 3 or inc.shape[0] != self.grid.num_intervals or inc.shape[1] != inc.shape[2]:
            raise ValueError(f"increments must be (num_intervals, n, n), got {inc.shape}")
        object.__setattr__(self, "increments", inc)

    @property
    def dim(self) -> int:
        return self.increments.shape[1]

    def with_pair_override(self, i: int, j: int, tensor: np.ndarray) -> "SecondOrderProcess":
        """Copy with ``WW_{t_i, t_j}`` replaced at query level (all other pairs
        keep their Chen-assembled values, so Chen's relation genuinely breaks)."""
        overrides = dict(self.pair_overrides)
        overrides[(int(i), int(j))] = np.asarray(tensor, dtype=float)
        return SecondOrderProcess(self.grid, self.increments, overrides)


@dataclass(frozen=True)
class RoughPath:
    """An alpha-Hölder rough path: path, second-order process, exponent."""

    path: SampledPath
    second: SecondOrderProcess
    alpha: float

    def __post_init__(self) -> None:
        if self.second.grid is not self.path.grid and (
            self.second.grid.level != self.path.grid.level
            or self.second.grid.horizon != self.path.grid.horizon
        ):
            raise ValueError("path and second-order process live on different grids")
        if self.second.dim != self.path.dim:
            raise ValueError("dimension mismatch between path and second-order process")
        if not 1 / 3 < self.alpha <= 0.5:
            raise ValueError(f"alpha must be in (1/3, 1/2], got {self.alpha}")

    @property
    def dim(self) -> int:
        return self.path.dim

    @cached_property
    def _prefix(self) -> np.ndarray:
        """``WW_{t_0, t_k}`` for every node k (one left-to-right Chen fold)."""
        n = self.dim
        out = np.zeros((self.path.grid.num_nodes, n, n))
        w0 = self.path.values[0]
        wrel = self.path.values - w0
        dw = self.path.increments()
        cross = np.einsum("ki,kj->kij", wrel[:-1], dw)
        out[1:] = np.cumsum(self.second.increments + cross, axis=0)
        return out

    def pair(self, i: int, j: int) -> np.ndarray:
        """``WW_{t_i, t_j}`` in O(1) via the prefix table (Chen-equivalent)."""
        if i > j:
            raise ValueError(f"need i <= j, got {i} > {j}")
        ov = self.second.pair_overrides.get((i, j))
        if ov is not None:
            return ov.copy()
        w = self.path.values
        return self._prefix[j] - self._prefix[i] - np.outer(w[i] - w[0], w[j] - w[i])

    def pairs(self, i_idx: np.ndarray, j_idx: np.ndarray) -> np.ndarray:
        """Vectorized ``pair`` over index arrays; overrides applied afterwards."""
        w = self.path.values
        out = (
            self._prefix[j_idx]
            - self._prefix[i_idx]
            - np.einsum("ki,kj->kij", w[i_idx] - w[0], w[j_idx] - w[i_idx])
        )
        for (i, j), ov in self.second.pair_overrides.items():
            out[(i_idx == i) & (j_idx == j)] = ov
        return out

    @cached_property
    def fine_pairs(self) -> np.ndarray:
        """``pairs(k, k + 1)`` for every interval k, assembled once per rough path."""
        k = np.arange(self.path.grid.num_intervals)
        return self.pairs(k, k + 1)

    def restrict(self, start: int, level: int) -> "RoughPath":
        """Rough path on a dyadic window of ``2**level`` intervals from node
        ``start``; pair overrides inside the window move with it, re-keyed
        to window nodes, and those straddling its ends are dropped."""
        sub_path = self.path.restrict(start, level)
        n = 1 << level
        inside = {(i - start, j - start): ov for (i, j), ov in self.second.pair_overrides.items()
                  if start <= i < j <= start + n}
        second = SecondOrderProcess(sub_path.grid, self.second.increments[start : start + n], inside)
        return RoughPath(sub_path, second, self.alpha)


def chen_defect(rp: RoughPath) -> float:
    """Max over scanned triples ``s < u < t`` of the Chen-relation defect
    ``|WW_{s,t} - WW_{s,u} - WW_{u,t} - W_{s,u} (x) W_{u,t}|`` (Frobenius).

    Stored tensors satisfy Chen by construction, so only pair overrides can
    break it: every triple touching an override ``(i, j)`` is scanned, in all
    three roles, outer ``(i, u, j)``, left inner ``(i, j, t)`` and right inner
    ``(s, i, j)``.  Round-off is probed on the aligned dyadic triples
    ``(k 2^(m+1), k 2^(m+1) + 2^m, (k+1) 2^(m+1))`` of every scale m and the
    adjacent ``(k, k+1, k+2)``: O((K + 1) N) triples for K overrides.
    """
    n_int = rp.path.grid.num_intervals
    triples = []
    for m in range(rp.path.grid.level):
        s = np.arange(0, n_int, 2 << m)
        triples.append((s, s + (1 << m), s + (2 << m)))
    k = np.arange(n_int - 1)
    triples.append((k, k + 1, k + 2))
    for i, j in rp.second.pair_overrides:
        if 0 <= i < j <= n_int:
            triples += [
                np.broadcast_arrays(i, np.arange(i + 1, j), j),
                np.broadcast_arrays(i, j, np.arange(j + 1, n_int + 1)),
                np.broadcast_arrays(np.arange(i), i, j),
            ]
    s, u, t = (np.concatenate(part) for part in zip(*triples))
    w = rp.path.values
    d = (
        rp.pairs(s, t)
        - rp.pairs(s, u)
        - rp.pairs(u, t)
        - np.einsum("ki,kj->kij", w[u] - w[s], w[t] - w[u])
    )
    return float(np.sqrt(np.einsum("kij,kij->k", d, d).max(initial=0.0)))


# ---------------------------------------------------------------------------
# lifts of piecewise-smooth paths


def _sin_cos_interval_tensors(t: np.ndarray, dim: int) -> np.ndarray:
    """Exact iterated integrals of (sin, cos) over consecutive intervals."""
    s, e = t[:-1], t[1:]
    n_int = len(s)
    out = np.empty((n_int, dim, dim))
    dsin = np.sin(e) - np.sin(s)
    if dim == 1:
        out[:, 0, 0] = 0.5 * dsin**2
        return out
    dcos = np.cos(e) - np.cos(s)
    dsin2 = np.sin(2 * e) - np.sin(2 * s)
    out[:, 0, 0] = 0.5 * dsin**2
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
            anti = (polys[i] * derivs[j]).integ()
            anti_d = polys[j]  # antiderivative of derivs[j]
            out[:, i, j] = (anti(e) - anti(s)) - vi * (anti_d(e) - anti_d(s))
    return out


def lift_piecewise_smooth(
    w: SampledPath,
    mode: str = "linear",
    alpha: float = 0.5,
    coeffs: np.ndarray | None = None,
) -> RoughPath:
    """Exact rough-path lift of a piecewise-linear or closed-form path.

    ``linear`` treats the samples as a piecewise-linear path, for which the
    interval tensors are ``dW (x) dW / 2``.  ``sin_cos`` and ``polynomial``
    use the closed-form iterated integrals of the generating formula (the
    path values must come from the matching generator).
    """
    t = w.grid.nodes
    if mode == "linear":
        dw = w.increments()
        inc = 0.5 * np.einsum("ki,kj->kij", dw, dw)
    elif mode == "sin_cos":
        if w.dim > 2:
            raise ValueError("sin_cos analytic lift supports dim 1 or 2")
        inc = _sin_cos_interval_tensors(t, w.dim)
    elif mode == "polynomial":
        if coeffs is None:
            raise ValueError("polynomial analytic lift needs coeffs")
        inc = _polynomial_interval_tensors(t, coeffs)
        if inc.shape[1] != w.dim:
            raise ValueError("coeffs dimension does not match the path")
    else:
        raise ValueError(f"unknown lift mode {mode!r}")
    return RoughPath(w, SecondOrderProcess(w.grid, inc), alpha)


def _two_level_quotients(values, pairs, grid: TimeGrid, alpha: float) -> tuple[float, float, float]:
    """``(|W|_alpha, |WW|_2alpha, total)`` of path values and a pair map
    ``WW_{s,t}`` over one :func:`pair_scan` at ``JET_PAIR_LEVEL``."""

    def norms(s, t):
        return np.stack([euclidean_norms(values[t] - values[s]), euclidean_norms(pairs(s, t))])

    first, second = map(float, pair_scan(grid, JET_PAIR_LEVEL, norms, (alpha, 2 * alpha)))
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
# JSON round trip: {"alpha": a, "path_csv": file, "second_order": [[k, row-major n*n], ...]}


def write_rough_path_json(rp: RoughPath, json_file: str, path_csv: str) -> None:
    """Write ``path_csv`` (:func:`write_path_csv`) and the JSON above, which
    names it, as ``json.dump`` would: one ``json.dumps`` (the C encoder) per
    block of about ``TABLE_BLOCK_ROWS`` floats (``TABLE_BLOCK_ROWS // n^2``
    intervals), so memory stays bounded at every driver dimension."""
    write_path_csv(rp.path, path_csv)
    second = rp.second.increments.reshape(rp.path.grid.num_intervals, -1)
    rows = max(1, TABLE_BLOCK_ROWS // second.shape[1])
    head = json.dumps({"alpha": rp.alpha, "path_csv": path_csv, "second_order": []})
    with open(json_file, "w") as fh:
        fh.write(head[:-2])  # up to the list's opening bracket
        for start in range(0, len(second), rows):
            block = enumerate(second[start : start + rows].tolist(), start)
            fh.write((", " if start else "") + json.dumps(list(block))[1:-1])
        fh.write("]}")


def read_rough_path_json(json_file: str) -> RoughPath:
    """Inverse of :func:`write_rough_path_json`; raises ``ValueError`` naming
    the file unless it holds alpha, path_csv and, for each grid interval
    0..N-1 exactly once, n*n finite floats."""
    with open(json_file) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or not {"alpha", "path_csv", "second_order"} <= set(payload):
        raise ValueError(f"{json_file}: needs the keys alpha, path_csv and second_order")
    csv_name = str(payload["path_csv"])
    if not os.path.exists(csv_name):
        candidate = os.path.join(os.path.dirname(os.path.abspath(json_file)), os.path.basename(csv_name))
        if os.path.exists(candidate):
            csv_name = candidate
    path = read_path_csv(csv_name)
    n, n_int = path.dim, path.grid.num_intervals
    try:
        alpha = float(payload["alpha"])
        keys = np.array([k for k, _ in payload["second_order"]])
        flat = np.array([v for _, v in payload["second_order"]], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{json_file}: malformed alpha or second_order ({exc})") from None
    if keys.dtype.kind not in "iu" or not np.array_equal(np.sort(keys), np.arange(n_int)):
        raise ValueError(f"{json_file}: second_order must list each interval 0..{n_int - 1} once")
    if flat.shape != (n_int, n * n) or not np.isfinite(flat).all():
        raise ValueError(f"{json_file}: each interval needs {n * n} finite floats")
    inc = np.empty((n_int, n, n))
    inc[keys] = flat.reshape(n_int, n, n)
    return RoughPath(path, SecondOrderProcess(path.grid, inc), alpha)
