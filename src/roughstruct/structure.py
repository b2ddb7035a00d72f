"""The abstract side: graded symbols, the structure group, and models.

Two concrete structures are built here.  The polynomial one is the
classical Taylor family ``X^k`` acted on by shifts.  The rough-path one
has the four-level grading

    ``Wdot^i``  alpha - 1      (the driving noise)
    ``WWdot^ij``  2 alpha - 1  (noise times path increment)
    ``One``     0
    ``W^i``     alpha          (path increments)

and the shift ``Gamma_h`` lowers ``W`` onto ``One`` and ``WWdot`` onto
``Wdot`` with weight ``h^i``.  A model realizes symbols either as grid
functions (nonnegative homogeneity) or as Stieltjes-type measures
(negative homogeneity).  Every pairing of ``Pi_s`` with probes is a
midpoint sum on the path grid taken as ``Pi_0 Gamma_{0,s}``
(:func:`pi_pairings`), so each symbol is realized once, at node 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .grids import SampledPath, TimeGrid
from .roughpath import RoughPath


@dataclass(frozen=True)
class Symbol:
    """A basis symbol: kind in {one, w, wdot, wwdot, x} plus integer indices."""

    kind: str
    index: tuple[int, ...] = ()

    def __repr__(self) -> str:  # compact: W(1), WWdot(0,1), X(2,)
        names = {"one": "One", "w": "W", "wdot": "Wdot", "wwdot": "WWdot", "x": "X"}
        if self.kind == "one":
            return "One"
        return f"{names[self.kind]}{self.index}"


ONE = Symbol("one")


def W(i: int) -> Symbol:
    return Symbol("w", (i,))


def Wdot(i: int) -> Symbol:
    return Symbol("wdot", (i,))


def WWdot(i: int, j: int) -> Symbol:
    return Symbol("wwdot", (i, j))


def X(k: int | tuple[int, ...]) -> Symbol:
    if isinstance(k, int):
        k = (k,)
    return Symbol("x", tuple(int(v) for v in k))


@dataclass
class ModelSpaceVector:
    """Sparse coefficient vector over symbols; coefficients are scalars or
    arrays (vector-valued jets share the same symbol support)."""

    coeffs: dict[Symbol, float | np.ndarray] = field(default_factory=dict)

    def __add__(self, other: "ModelSpaceVector") -> "ModelSpaceVector":
        out = dict(self.coeffs)
        for sym, c in other.coeffs.items():
            out[sym] = out[sym] + c if sym in out else c
        return ModelSpaceVector(out)

    def scale(self, a: float) -> "ModelSpaceVector":
        return ModelSpaceVector({s: a * c for s, c in self.coeffs.items()})

    def __sub__(self, other: "ModelSpaceVector") -> "ModelSpaceVector":
        return self + other.scale(-1.0)

    def support(self) -> set[Symbol]:
        return {s for s, c in self.coeffs.items() if _coeff_norm(c) > 0.0}

    def level_norm(self, structure, level: float) -> float:
        """Sum of coefficient norms at one homogeneity (the component norm)."""
        return sum(
            _coeff_norm(c)
            for s, c in self.coeffs.items()
            if abs(structure.homogeneity(s) - level) < 1e-12
        )

    def levels(self, structure) -> list[float]:
        return sorted({structure.homogeneity(s) for s in self.coeffs})


def _coeff_norm(c) -> float:
    arr = np.asarray(c, dtype=float)
    return float(np.sqrt(np.sum(arr * arr)))


class RoughStructure:
    """Index set {alpha-1, 2alpha-1, 0, alpha} over an n-dimensional driver.

    ``reduced=True`` keeps only {Wdot^i, One} with the trivial group action
    (the structure used to build lifts from the path alone).
    """

    def __init__(self, alpha: float, dim: int, reduced: bool = False):
        if not 1 / 3 < alpha <= 0.5:
            raise ValueError(f"alpha must be in (1/3, 1/2], got {alpha}")
        self.alpha = alpha
        self.dim = dim
        self.reduced = reduced

    @property
    def index_set(self) -> list[float]:
        a = self.alpha
        return [a - 1, 0.0] if self.reduced else [a - 1, 2 * a - 1, 0.0, a]

    def symbols(self) -> list[Symbol]:
        n = self.dim
        base = [Wdot(i) for i in range(n)]
        if self.reduced:
            return base + [ONE]
        base += [WWdot(i, j) for i in range(n) for j in range(n)]
        base += [ONE] + [W(i) for i in range(n)]
        return base

    def homogeneity(self, sym: Symbol) -> float:
        a = self.alpha
        table = {"one": 0.0, "w": a, "wdot": a - 1, "wwdot": 2 * a - 1}
        if sym.kind not in table or (self.reduced and sym.kind in ("w", "wwdot")):
            raise KeyError(f"{sym!r} not in this structure")
        return table[sym.kind]

    def gamma_symbol(self, sym: Symbol, h: np.ndarray) -> ModelSpaceVector:
        if sym.kind in ("one", "wdot") or self.reduced:
            self.homogeneity(sym)  # membership check
            return ModelSpaceVector({sym: 1.0})
        if sym.index and max(sym.index) >= len(h):
            raise ValueError(
                f"shift dimension {len(h)} does not cover the indices of {sym!r}"
            )
        if sym.kind == "w":
            (i,) = sym.index
            return ModelSpaceVector({sym: 1.0, ONE: h[i]})
        if sym.kind == "wwdot":
            i, j = sym.index
            return ModelSpaceVector({sym: 1.0, Wdot(j): h[i]})
        raise KeyError(f"{sym!r} not in this structure")

    def product(self, a: Symbol, b: Symbol) -> Symbol | None:
        """Symbol product; None encodes zero (sum of homogeneities not in the
        index set)."""
        if a.kind == "one":
            return b if not (self.reduced and b.kind in ("w", "wwdot")) else None
        if b.kind == "one":
            return self.product(b, a)
        if self.reduced:
            return None
        if a.kind == "w" and b.kind == "wdot":
            return WWdot(a.index[0], b.index[0])
        if a.kind == "wdot" and b.kind == "w":
            return WWdot(b.index[0], a.index[0])
        return None


class PolynomialStructure:
    """Monomials X^k graded by total degree, shifted by the binomial theorem."""

    def __init__(self, dim: int = 1, max_degree: int = 8):
        self.dim = dim
        self.max_degree = max_degree

    def symbols(self) -> list[Symbol]:
        out = []
        for deg in range(self.max_degree + 1):
            for k in itertools.product(range(deg + 1), repeat=self.dim):
                if sum(k) == deg:
                    out.append(X(k) if deg > 0 else ONE)
        return out

    def homogeneity(self, sym: Symbol) -> float:
        if sym.kind == "one":
            return 0.0
        if sym.kind != "x":
            raise KeyError(f"{sym!r} not in this structure")
        return float(sum(sym.index))

    def gamma_symbol(self, sym: Symbol, h: np.ndarray) -> ModelSpaceVector:
        if sym.kind == "one":
            return ModelSpaceVector({ONE: 1.0})
        k = sym.index
        if len(k) != len(h):
            raise ValueError(f"shift dimension {len(h)} does not match X{k}")
        out: dict[Symbol, float] = {}
        for m in itertools.product(*(range(ki + 1) for ki in k)):
            coeff = 1.0
            for ki, mi, hi in zip(k, m, h):
                coeff *= math.comb(ki, mi) * hi ** (ki - mi)
            target = ONE if sum(m) == 0 else X(m)
            out[target] = out.get(target, 0.0) + coeff
        return ModelSpaceVector(out)

    def product(self, a: Symbol, b: Symbol) -> Symbol | None:
        if a.kind == "one":
            return b
        if b.kind == "one":
            return a
        k = tuple(x + y for x, y in zip(a.index, b.index))
        return X(k)


def gamma_terms(structure, layout, h: np.ndarray) -> list[tuple]:
    """``Gamma_h``'s terms ``(target, source index, weight)`` on coefficients laid
    out as ``(symbol, ndim)`` pairs; K batched weights scale the leading axis."""
    terms = []
    for src, (sym, nd) in enumerate(layout):
        for tgt, w_ in structure.gamma_symbol(sym, h).coeffs.items():
            if np.ndim(w_) and nd > np.ndim(w_):
                w_ = np.reshape(w_, np.shape(w_) + (1,) * (nd - np.ndim(w_)))
            terms.append((tgt, src, w_))
    return terms


def gamma_accumulate(terms: list[tuple], coeffs) -> dict:
    """``{target: sum of coeffs[source] * weight}`` over the terms, in order."""
    out = {}
    for tgt, src, w_ in terms:
        out[tgt] = out[tgt] + coeffs[src] * w_ if tgt in out else coeffs[src] * w_
    return out


def gamma_apply(h, v: ModelSpaceVector, structure) -> ModelSpaceVector:
    """``Gamma_h v``: the linear extension of the symbol shift rules (:func:`gamma_terms`,
    summed).  ``h`` of shape ``(n, K)`` is a batch of K shifts; the coefficients come out
    with K leading rows, ``(K,)``, ``(K, d)`` or ``(K, d, n)``."""
    h = np.atleast_1d(np.asarray(h, dtype=float))
    terms = gamma_terms(structure, [(s, np.ndim(c)) for s, c in v.coeffs.items()], h)
    return ModelSpaceVector(gamma_accumulate(terms, list(v.coeffs.values())))


def multiply(v: ModelSpaceVector, w_vec: ModelSpaceVector, structure) -> ModelSpaceVector:
    """Bilinear product on the model space; unrepresented products vanish."""
    out = ModelSpaceVector()
    for (sa, ca), (sb, cb) in itertools.product(v.coeffs.items(), w_vec.coeffs.items()):
        target = structure.product(sa, sb)
        if target is None:
            continue
        cur = out.coeffs.get(target)
        add = ca * cb
        out.coeffs[target] = add if cur is None else cur + add
    return out


# ---------------------------------------------------------------------------
# models


class RoughModel:
    """The canonical model over a rough path: increments as functions, the
    noise and its second-order companion as measures anchored at s."""

    def __init__(self, rp: RoughPath):
        self.rough_path = rp
        self.structure = RoughStructure(rp.alpha, rp.dim)
        self.grid = rp.path.grid

    def pi_kind(self, sym: Symbol) -> str:
        return "measure" if sym.kind in ("wdot", "wwdot") else "function"

    def pi_function(self, s_idx: int, sym: Symbol) -> np.ndarray:
        w = self.rough_path.path.values
        if sym.kind == "one":
            return np.ones(self.grid.num_nodes)
        if sym.kind == "w":
            return w[:, sym.index[0]] - w[s_idx, sym.index[0]]
        raise KeyError(f"{sym!r} is not function-valued")

    def pi_measure(self, s_idx: int, sym: Symbol) -> np.ndarray:
        dw = self.rough_path.path.increments()
        if sym.kind == "wdot":
            return dw[:, sym.index[0]]
        if sym.kind == "wwdot":
            i, j = sym.index
            w = self.rough_path.path.values
            rel = w[:-1, i] - w[s_idx, i]
            return self.rough_path.second[:, i, j] + rel * dw[:, j]
        raise KeyError(f"{sym!r} is not measure-valued")

    def gamma_of(self, s_idx: int | np.ndarray, t_idx: int | np.ndarray) -> np.ndarray:
        """``Gamma_{s,t}`` as its shift ``h = W_s - W_t``, shape ``(n,)``; index arrays
        for s, t or both (of one shape) give ``h`` of shape ``(n, K)``, a batch of K
        shifts; the coefficients come out with K leading rows."""
        w = self.rough_path.path.values
        return (w[s_idx] - w[t_idx]).T


class ReducedModel:
    """Model for the lift construction: only {One, Wdot^i}, trivial group."""

    def __init__(self, path: SampledPath, alpha: float):
        self.path = path
        self.structure = RoughStructure(alpha, path.dim, reduced=True)
        self.grid = path.grid

    def pi_kind(self, sym: Symbol) -> str:
        return "measure" if sym.kind == "wdot" else "function"

    def pi_function(self, s_idx: int, sym: Symbol) -> np.ndarray:
        if sym.kind == "one":
            return np.ones(self.grid.num_nodes)
        raise KeyError(f"{sym!r} is not function-valued in the reduced model")

    def pi_measure(self, s_idx: int, sym: Symbol) -> np.ndarray:
        if sym.kind == "wdot":
            return self.path.increments()[:, sym.index[0]]
        raise KeyError(f"{sym!r} is not measure-valued in the reduced model")

    def gamma_of(self, s_idx: int | np.ndarray, t_idx: int | np.ndarray) -> np.ndarray:
        """Shift ``W_s - W_t``; index arrays batch it as in :meth:`RoughModel.gamma_of`."""
        return (self.path.values[s_idx] - self.path.values[t_idx]).T


class PolynomialModel:
    """Taylor monomials in one time variable: ``Pi_s(X^k)(t) = (t - s)^k``."""

    def __init__(self, grid: TimeGrid, max_degree: int = 8):
        self.grid = grid
        self.structure = PolynomialStructure(dim=1, max_degree=max_degree)

    def pi_kind(self, sym: Symbol) -> str:
        return "function"

    def pi_function(self, s_idx: int, sym: Symbol) -> np.ndarray:
        t = self.grid.nodes
        if sym.kind == "one":
            return np.ones_like(t)
        return (t - t[s_idx]) ** sum(sym.index)

    def pi_measure(self, s_idx: int, sym: Symbol) -> np.ndarray:
        raise KeyError("polynomial model has no measure-valued symbols")

    def gamma_of(self, s_idx: int | np.ndarray, t_idx: int | np.ndarray) -> np.ndarray:
        """Shift ``t_s - t_t``; index arrays batch it as in :meth:`RoughModel.gamma_of`."""
        t = self.grid.nodes
        return np.array([t[s_idx] - t[t_idx]])


def pi_pairings(model, s_idx, v: ModelSpaceVector, samples, cell: float) -> np.ndarray:
    """``Pi_s(v)`` paired with each probe, as ``Pi_0 Gamma_{0,s} v``: shape
    ``(probes, *value_shape)``.

    ``samples`` yields each probe's values at the grid's interval midpoints
    in the caller's time convention, ``cell`` the interval width in it
    (midpoint rule for function symbols; measures pair with increments).
    ``s_idx`` is one node, or one per probe with a leading probe axis on
    every coefficient.  One batched Gamma moves the jets to node 0, each
    image symbol is realized once, probes are paired one at a time by
    einsum, whose sums, unlike BLAS's, do not depend on the thread count."""
    moved = gamma_apply(model.gamma_of(0, s_idx), v, model.structure).coeffs
    realized = np.empty((len(moved), model.grid.num_intervals))
    for row, sym in zip(realized, moved):
        if model.pi_kind(sym) == "function":
            g = model.pi_function(0, sym)
            row[:] = 0.5 * (g[:-1] + g[1:]) * cell
        else:
            row[:] = model.pi_measure(0, sym)
    paired = np.array([np.einsum("sn,n", realized, np.asarray(fm, float)) for fm in samples])
    out = 0.0
    for col, c in zip(paired.T, moved.values()):
        out = out + col.reshape(col.shape + (1,) * (np.ndim(c) - np.ndim(s_idx))) * c
    return out


def pi_pair(model, s_idx: int, v: ModelSpaceVector, f) -> float | np.ndarray:
    """``Pi_s(v)`` paired with a test function in real time (:func:`pi_pairings`);
    vector-valued coefficients pass through linearly."""
    out = np.asarray(pi_pairings(model, s_idx, v, [f(model.grid.midpoints())], model.grid.step))
    out = out[0] if out.ndim else out
    return float(out) if out.ndim == 0 else out

