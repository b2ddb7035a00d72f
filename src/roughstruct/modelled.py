"""Modelled distributions over the rough-path structure.

A controlled path (y, y') becomes the abstract jet ``y_t One + y'_t W``;
that map is an isomorphism and the graded seminorm of the jet equals
``max(|y'|_alpha, |R^y|_2alpha)`` computed directly from the pair, with
the remainder ``R^y_{s,t} = y_{s,t} - y'_s W_{s,t}``.  On both sides a
graded component's norm is the sum over its symbols of the Euclidean norm
of each coefficient (for a y'-increment the column sum of column norms).

Smooth fields F have one layout, values (nodes, d, n) and Jacobians
(nodes, d, n, d), which :func:`compose_one_form` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import SampledPath, TimeGrid, euclidean_norms, pair_scan
from .structure import (
    ONE,
    ModelSpaceVector,
    PolynomialStructure,
    RoughStructure,
    Symbol,
    W,
    Wdot,
    gamma_apply,
    multiply,
)


def _canonical_y(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    return y[:, None] if y.ndim == 1 else y


@dataclass(frozen=True)
class ControlledPath:
    """A path y with Gubinelli derivative y' relative to a reference driver.

    Shapes are canonicalized to ``y: (nodes, d)`` and
    ``y_prime: (nodes, d, n)``: a 1-D y is ``(nodes, 1)``, and a 1-D y' (scalar
    y against a scalar driver) is ``(nodes, 1, 1)``; any other y' is taken as
    ``(nodes, d, n)`` and checked.
    """

    y: np.ndarray
    y_prime: np.ndarray
    reference: SampledPath

    def __post_init__(self) -> None:
        y = _canonical_y(self.y)
        yp = np.asarray(self.y_prime, dtype=float)
        yp = yp[:, None, None] if yp.ndim == 1 else yp
        n = self.reference.dim
        if y.shape[0] != self.reference.grid.num_nodes:
            raise ValueError("y must be sampled on the reference grid")
        if yp.shape != (y.shape[0], y.shape[1], n):
            raise ValueError(
                f"y_prime must have shape {(y.shape[0], y.shape[1], n)}, got {yp.shape}"
            )
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "y_prime", yp)

    @property
    def grid(self) -> TimeGrid:
        return self.reference.grid

    @property
    def dim(self) -> int:
        return self.y.shape[1]

    def remainder(self, s_idx: np.ndarray, t_idx: np.ndarray) -> np.ndarray:
        """``R^y_{s,t} = y_{s,t} - y'_s W_{s,t}`` over index arrays, shape (P, d)."""
        w = self.reference.values
        dw = w[t_idx] - w[s_idx]
        return self.y[t_idx] - self.y[s_idx] - np.einsum("pdn,pn->pd", self.y_prime[s_idx], dw)


def controlled_seminorm(cp: ControlledPath, alpha: float) -> tuple[float, float, float]:
    """``(|y'|_alpha, |R^y|_2alpha, their sum)`` over the pairs of
    :func:`pair_scan` (the scan the graded seminorm uses, so the two sides
    stay comparable)."""

    def norms(s, t):
        dyp = cp.y_prime[t] - cp.y_prime[s]
        # the graded norm of y': column sum of column Euclidean norms
        yp = np.sqrt(np.einsum("pdn,pdn->pn", dyp, dyp)).sum(axis=1)
        return np.stack([yp, euclidean_norms(cp.remainder(s, t))])

    yp_norm, rem_norm = map(float, pair_scan(cp.grid, norms, (alpha, 2 * alpha),
                                             cp.y_prime[0].size))
    return yp_norm, rem_norm, yp_norm + rem_norm


@dataclass
class ModelledDistribution:
    """Grid map into the model space: one coefficient array per symbol.

    ``coeffs[sym]`` has shape ``(num_nodes, *value_shape)``; scalar jets
    keep plain ``(num_nodes,)`` arrays.
    """

    gamma: float
    coeffs: dict[Symbol, np.ndarray]
    grid: TimeGrid
    structure: RoughStructure | PolynomialStructure
    reference: SampledPath | None = None

    def at(self, node: int | np.ndarray) -> ModelSpaceVector:
        """The jet at a node; an index array gives one leading row per node."""
        return ModelSpaceVector({s: c[node] for s, c in self.coeffs.items()})

    def levels(self) -> list[float]:
        return sorted({self.structure.homogeneity(s) for s in self.coeffs})

    def __sub__(self, other: "ModelledDistribution") -> "ModelledDistribution":
        syms = set(self.coeffs) | set(other.coeffs)
        out = {}
        for s in syms:
            a = self.coeffs.get(s)
            b = other.coeffs.get(s)
            out[s] = (0 if a is None else a) - (0 if b is None else b)
        return ModelledDistribution(self.gamma, out, self.grid, self.structure, self.reference)


def to_modelled(cp: ControlledPath, alpha: float) -> ModelledDistribution:
    """Jet of a controlled path: coefficient y on One and y' columns on W^i."""
    n = cp.reference.dim
    structure = RoughStructure(alpha, n)
    squeeze = cp.dim == 1
    coeffs: dict[Symbol, np.ndarray] = {
        ONE: cp.y[:, 0] if squeeze else cp.y.copy()
    }
    for i in range(n):
        col = cp.y_prime[:, :, i]
        coeffs[W(i)] = col[:, 0] if squeeze else col.copy()
    return ModelledDistribution(2 * alpha, coeffs, cp.grid, structure, cp.reference)


def _check_jet_support(f: ModelledDistribution,
                       message: str = "support outside {One, W}") -> None:
    extra = {s for s in f.coeffs if s.kind not in ("one", "w")}
    if extra:
        raise ValueError(f"{message}: {sorted(map(repr, extra))}")


def _jet_arrays(f: ModelledDistribution, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The One coefficient as (nodes, d) and the W^i columns as (nodes, d, n)."""
    y = _canonical_y(f.coeffs[ONE])
    yp = np.zeros((y.shape[0], y.shape[1], n))
    for i in range(n):
        c = f.coeffs.get(W(i))
        if c is not None:
            yp[:, :, i] = _canonical_y(c)
    return y, yp


def from_modelled(f: ModelledDistribution) -> ControlledPath:
    """Inverse of ``to_modelled``; refuses support outside {One, W^i}."""
    _check_jet_support(f, "unexpected symbols in support")
    if f.reference is None:
        raise ValueError("modelled distribution lacks a reference driver")
    return ControlledPath(*_jet_arrays(f, f.reference.dim), f.reference)


# ---------------------------------------------------------------------------
# graded seminorm


def md_seminorm(f: ModelledDistribution, model) -> float:
    """Grid max over pairs and grades of
    ``|f(t) - Gamma_{t,s} f(s)|_beta / |t-s|**(gamma-beta)``.

    ``Gamma_{t,s}`` is the model's own ``gamma_of(t, s)`` over index arrays, a
    batch of shifts applied by :func:`gamma_apply`; pairs from :func:`pair_scan`.
    """
    st = f.structure
    # Gamma's image has the same symbols at every shift
    levels = gamma_apply(model.gamma_of(0, 0), f.at(0), st).levels(st)
    levels = [lv for lv in levels if lv < f.gamma - 1e-12]
    if not levels:
        return 0.0

    def norms(s_idx, t_idx):
        diff = f.at(t_idx) - gamma_apply(model.gamma_of(t_idx, s_idx), f.at(s_idx), st)
        return np.array([sum(euclidean_norms(d) for sym, d in diff.coeffs.items()
                             if st.homogeneity(sym) == lv) for lv in levels])

    width = sum(np.size(c[0]) for c in f.coeffs.values())
    return float(pair_scan(f.grid, norms, [f.gamma - lv for lv in levels], width).max())


def md_norm_star(f: ModelledDistribution, model) -> float:
    """Seminorm plus the largest graded component norm at time zero."""
    at0 = f.at(0)
    comp = max((at0.level_norm(f.structure, lv) for lv in f.levels()), default=0.0)
    return comp + md_seminorm(f, model)


# ---------------------------------------------------------------------------
# product with the noise symbol


def multiply_by_Wdot(f: ModelledDistribution, driver_component: int | None = None) -> ModelledDistribution:
    """Pointwise product of a {One, W} jet with ``Wdot^j``.

    The structure's product table (:func:`structure.multiply`) sends the One
    coefficient to ``Wdot^j`` and each ``W^i`` coefficient to ``WWdot^{ij}``;
    every output homogeneity is the input one plus (alpha - 1) and the result
    lives in ``D^(gamma + alpha - 1)``.  With a multidimensional driver the
    component j must be named; the full vector integrand is the family over j.
    """
    structure = f.structure
    if not isinstance(structure, RoughStructure):
        raise ValueError("product with Wdot needs the rough-path structure")
    _check_jet_support(f)
    if driver_component is None:
        if structure.dim != 1:
            raise ValueError("driver_component required when the driver has dim > 1")
        driver_component = 0
    noise = ModelSpaceVector({Wdot(int(driver_component)): 1.0})
    coeffs = multiply(ModelSpaceVector(f.coeffs), noise, structure).coeffs
    return ModelledDistribution(
        f.gamma + structure.alpha - 1.0, coeffs, f.grid, structure, f.reference
    )


# ---------------------------------------------------------------------------
# composition with a smooth function


@dataclass(frozen=True)
class FunctionDescriptor:
    """A smooth field F: R^d -> L(R^n, R^d) with the derivative the
    composition theorem needs: ``value`` maps ``(..., d) -> (..., d, n)`` and
    ``jacobian`` maps ``(..., d) -> (..., d, n, d)``.  ``box`` declares where
    the values are valid (checked by :meth:`check_box`).
    """

    name: str
    value: Callable
    jacobian: Callable
    box: tuple[np.ndarray, np.ndarray] | None = None

    def check_box(self, y: np.ndarray) -> None:
        if self.box is None:
            return
        lo, hi = self.box
        if np.any(y < lo) or np.any(y > hi):
            raise ValueError(
                f"values leave the declared box of {self.name}: "
                f"[{np.min(y):.4g}, {np.max(y):.4g}] vs [{lo}, {hi}]"
            )


def scalar_descriptor(
    name: str,
    value: Callable,
    derivative: Callable,
    box: tuple[float, float] | None = None,
) -> FunctionDescriptor:
    """The 1x1 field of elementwise ``value`` and ``derivative``."""
    b = None if box is None else (np.asarray([box[0]]), np.asarray([box[1]]))
    return FunctionDescriptor(name, lambda y: value(y)[..., None],
                              lambda y: derivative(y)[..., None, None], b)


def linear_descriptor(matrix: np.ndarray) -> FunctionDescriptor:
    """F(y) = A y as a (d, n=columns-of-identity) map; here n = 1 per driver
    column, i.e. F: R^d -> L(R, R^d) for a scalar driver."""
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    d = a.shape[0]

    def value(y):
        return np.einsum("pq,...q->...p", a, y)[..., None]

    def jacobian(y):
        out = np.zeros(y.shape[:-1] + (d, 1, y.shape[-1]))
        out[...] = a[:, None, :]
        return out

    return FunctionDescriptor(f"linear({d}x{a.shape[1]})", value, jacobian)


def builtin_descriptor(name: str, dim: int = 1) -> FunctionDescriptor:
    """CLI-facing registry: linear, sin, tanh (scalar driver)."""
    if name == "linear":
        return linear_descriptor(np.eye(dim))
    if name == "sin":
        return scalar_descriptor("sin", np.sin, np.cos)
    if name == "tanh":
        return scalar_descriptor("tanh", np.tanh, lambda y: 1.0 / np.cosh(y) ** 2)
    if name == "rotation":
        j = np.array([[0.0, -1.0], [1.0, 0.0]])
        return linear_descriptor(j)
    raise ValueError(f"unknown builtin function {name!r}")


def compose_one_form(F: FunctionDescriptor, y: np.ndarray,
                     yp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The controlled one-form ``(F(y), F'(y) y')`` of a controlled path given
    as arrays ``y: (nodes, d)``, ``y': (nodes, d, n)``: shapes (nodes, d, n)
    and (nodes, d, n, n), the last axis of the second the direction of the
    derivative.  ``ValueError`` naming F on any other shape of its value or
    Jacobian."""
    F.check_box(y)
    g = np.asarray(F.value(y), dtype=float)
    jac = np.asarray(F.jacobian(y), dtype=float)
    if g.shape != yp.shape or jac.shape != yp.shape + y.shape[1:]:
        raise ValueError(f"{F.name} gives values {g.shape} and a Jacobian {jac.shape}, "
                         f"not {yp.shape} and {yp.shape + y.shape[1:]}")
    return g, np.einsum("tpnq,tqi->tpni", jac, yp)


def compose(F: FunctionDescriptor, f: ModelledDistribution) -> ModelledDistribution:
    """``F(y) One + F'(y) y' W`` for a jet from the controlled image, through
    :func:`compose_one_form`.

    The result stays in ``D^(2 alpha)``; the One coefficient is the integrand
    ``F(y_t)`` of shape (d, n) and each W^i coefficient its directional
    derivative along ``y'^(i)``.  A scalar jet against a scalar driver keeps
    plain (nodes,) coefficients.
    """
    if not isinstance(f.structure, RoughStructure):
        raise ValueError("composition is defined over the rough-path structure")
    _check_jet_support(f)
    n = f.structure.dim
    g, dg = compose_one_form(F, *_jet_arrays(f, n))
    if np.ndim(f.coeffs[ONE]) == 1 and n == 1:
        g, dg = g[:, 0, 0], dg[:, 0, 0]
    coeffs = {ONE: g, **{W(i): dg[..., i] for i in range(n)}}
    return ModelledDistribution(f.gamma, coeffs, f.grid, f.structure, f.reference)
