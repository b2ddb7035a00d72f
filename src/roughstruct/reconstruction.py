"""Wavelet-route reconstruction: partial sums, antiderivatives, the rough
integral of a controlled one-form and the rough-path lift.

The truncated reconstruction anchors the local model at the dyadic points
of one fine level J,

    ``R^J f = sum_k <Pi_{x_k} f(x_k), phi^J_k> phi^J_k``,

which is the convergent sequence behind the reconstruction theorem
(re-anchoring every mother-wavelet coefficient independently does not
converge to the right limit once the target regularity is negative).  The
anchor x_k is the grid node nearest the center of mass of phi^J_k.

The model axiom ``Pi_s Gamma_{s,t} = Pi_t`` re-expands every anchored jet
at one base point, ``Pi_{x_k} f(x_k) = Pi_0(Gamma_{0,x_k} f(x_k))``: the
jets at all anchors are transported once, batched over k, and each
transported symbol tau is realized once as ``Pi_0 tau``.  Only the jet
depends on f: a :class:`ReconstructionPlan` holds the anchors, the batched
Gamma, the stencils and each symbol's pairing, and
:meth:`~ReconstructionPlan.apply` does the rest per jet.  A coefficient
is then a sum over symbols of an anchor-dependent scalar times the pairing
of one grid array with phi^J_k, and all those pairings are one stencil
correlation (``wavelets.analyse``).  The antiderivative and the partial-sum
density are the transposed operation (``wavelets.synthesise``) with the
node-to-node integral and midpoint stencils.  The error certificate pairs
``Pi_s f(s)`` with its probes the same way (``structure.pi_pairings``).

All wavelet bookkeeping runs in unit time ``u = t/T`` (Stieltjes pairings
are invariant under the rescaling), so the dyadic index sets are exactly
the unit-interval ones and anchors land on grid nodes.

The rough integral of a controlled one-form ``(g, g')`` (the shapes of
``integration``) is :func:`wavelet_integrator`, the route's one kernel: one
plan per rough path, applied per one-form to the ``(d,)``-valued jet
``g^j Wdot^j + g'^{ji} WWdot^{ij}``; the solver builds one per window.
The lift takes the reduced structure {One, Wdot}, reconstructs the
``(n, n)``-valued distribution whose local model at s is ``W^i_s dW^j`` in
one call, integrates it to z and sets ``WW_{s,t} = z_{s,t} - W_s (x) W_{s,t}``;
Chen's relation then holds by construction and only the size bound is at stake.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import SampledPath, TestFunction
from .integration import scalar_one_form
from .modelled import ControlledPath, ModelledDistribution
from .roughpath import RoughPath, rough_path_distance
from .structure import ReducedModel, RoughModel, Wdot, WWdot
from .structure import gamma_accumulate, gamma_terms, pi_pairings
from .wavelets import (
    StieltjesMeasure,
    WaveletBasis,
    analyse,
    daubechies_basis,
    stencil,
    synthesise,
    wavelet_coefficients,
)


#: The unit-time probe battery of :meth:`ReconstructionResult.error_certificate`
CERTIFICATE_LAMBDAS = tuple(2.0**-m for m in range(1, 7))
CERTIFICATE_CENTERS = tuple(np.linspace(0.1, 0.9, 9).tolist())


@dataclass
class ReconstructionResult:
    """Truncated reconstruction: scaling coefficients, a pairing surface, and
    the antiderivative path.

    ``scaling_coeffs`` holds the anchored level-``max_level`` coefficients,
    shape ``(K, *value_shape)`` with one row per index of
    ``basis.index_set(max_level)`` (``(K,)`` for a scalar jet).  The
    antiderivative has one column per component, row-major over the value
    shape, and is reported in real time; for function-kind targets the
    unit-time series is rescaled by the horizon.  ``pair`` integrates the
    partial-sum density against a callable on the unit interval, and it and
    ``error_certificate`` take scalar jets only.
    """

    base_level: int
    max_level: int
    gamma: float
    basis: WaveletBasis
    scaling_coeffs: np.ndarray
    antiderivative: SampledPath
    kind: str  # "measure" or "function" support
    _model: object
    _source: ModelledDistribution

    @cached_property
    def _density(self) -> np.ndarray:
        """Partial-sum density at the midpoints of a fine uniform grid."""
        j = self.max_level
        # 2^15..2^17 midpoints, 16 per level-j cell where the cap allows;
        # never coarser than level j itself, which the stencil needs
        fine_level = max(j, min(max(j + 4, 15), 17))
        return synthesise(self.scaling_coeffs, stencil(self.basis, "father", j, fine_level))

    def pair(self, fn) -> float:
        """``<R^J f, fn>`` on the unit interval (midpoint rule on the fine grid),
        over the fine cells that cover ``fn.support`` if it has one."""
        n = self._density.size
        lo, hi = getattr(fn, "support", (0.0, 1.0))
        a, b = max(int(np.floor(lo * n)), 0), min(int(np.ceil(hi * n)), n)
        vals = np.asarray(fn((np.arange(a, b) + 0.5) / n), dtype=float)
        return float(np.einsum("i,i", vals, self._density[a:b]) / n)  # not BLAS: no threads

    def error_certificate(self) -> list[tuple[float, float, float]]:
        """Rows ``(lambda, s, |<R f - Pi_s f(s), eta_s^lam>| / lam^gamma)`` over
        the probes of the ``CERTIFICATE_*`` battery inside the unit interval,
        with s rounded to a node and ``Pi_s f(s)`` paired in unit time by
        :func:`pi_pairings` (one batched ``Gamma`` for all centers)."""
        num = self._source.grid.num_intervals
        battery = [(lam, s_u) for lam in CERTIFICATE_LAMBDAS for s_u in CERTIFICATE_CENTERS
                   if s_u - lam >= 0.0 and s_u + lam <= 1.0]
        probes = [TestFunction(s_u, lam) for lam, s_u in battery]
        nodes = np.rint(np.array([s_u for _, s_u in battery]) * num).astype(int)
        u_mid = (np.arange(num) + 0.5) / num
        local = pi_pairings(self._model, nodes, self._source.at(nodes),
                            (probe(u_mid) for probe in probes), 1.0 / num)
        return [(lam, s_u, abs(self.pair(probe) - float(loc)) / lam**self.gamma)
                for (lam, s_u), probe, loc in zip(battery, probes, local)]


class ReconstructionPlan:
    """What :func:`reconstruct` does before it sees a jet: anchors, the batched
    ``Gamma_{0,anchor}``, both stencils and, on first use, each symbol's pairing
    of ``Pi_0 tau`` with the stencil and each jet layout's Gamma terms.
    ``trunc_level`` defaults to grid level - 2 (every coefficient resolvable by
    the grid); needs ``r > |alpha_*|``."""

    def __init__(self, model, grid, basis: WaveletBasis | None = None,
                 trunc_level: int | None = None):
        basis = daubechies_basis(4) if basis is None else basis
        structure = model.structure
        self.alpha_star = min(structure.index_set) if hasattr(structure, "index_set") else 0.0
        if basis.regularity <= abs(self.alpha_star):
            raise ValueError(f"basis regularity {basis.regularity} insufficient: "
                             f"need r > {abs(self.alpha_star)}")
        self.base_level = base_level = basis.min_base_level()
        if trunc_level is None:
            trunc_level = max(base_level, grid.level - 2)
        if trunc_level > grid.level:
            raise ValueError(f"truncation level {trunc_level} exceeds grid resolution {grid.level}")
        if trunc_level < base_level:
            raise ValueError(f"truncation level below base level {base_level}")
        self.model, self.grid, self.basis, self.trunc_level = model, grid, basis, trunc_level
        num = grid.num_intervals
        self.ks = basis.index_set(trunc_level)
        # anchor at the basis function's center of mass (k/2^J is its lattice
        # point; the offset kills the first-moment error term)
        lattice = (self.ks + basis.father_center_of_mass) * num / (1 << trunc_level)
        self.anchors = np.clip(np.rint(lattice).astype(int), 0, num)
        self.gamma = model.gamma_of(0, self.anchors)
        self.father = stencil(basis, "father", trunc_level, grid.level)
        self.cumulative = stencil(basis, "father", trunc_level, grid.level, cumulative=True)
        self._pairings, self._layouts = {}, {}  # per symbol; per jet layout

    @cached_property
    def _function_weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact pairings of phi^J_k with 1(u < 0), 1(u > 1), 1 - midpoint rule."""
        ks, j, num = self.ks, self.trunc_level, self.grid.num_intervals
        scale = 2.0 ** (-j / 2.0)
        at0 = self.basis.integral("father", -ks.astype(float))
        at1 = self.basis.integral("father", float(1 << j) - ks)
        exact = scale * (at1 - at0) - analyse(np.ones(num), self.father) * (1.0 / num)
        return scale * at0, scale * (1.0 - at1), exact

    def _pairing(self, sym) -> np.ndarray:
        """``<Pi_0 sym, phi^J_k>`` for every k, (K,): realized once per symbol."""
        if sym not in self._pairings:
            model = self.model
            if model.pi_kind(sym) == "measure":
                self._pairings[sym] = analyse(model.pi_measure(0, sym), self.father)
            else:
                # the midpoint rule pairs only the deviation from the value at
                # the anchor, which is paired exactly through the cumulative
                # table (so constants are reproduced to table precision);
                # outside [0, 1] the jet is extended by its boundary values
                int_left, int_right, exact = self._function_weights
                g = model.pi_function(0, sym)
                mid = analyse(0.5 * (g[:-1] + g[1:]), self.father) * (1.0 / self.grid.num_intervals)
                self._pairings[sym] = (mid + g[0] * int_left + g[-1] * int_right
                                       + g[self.anchors] * exact)
        return self._pairings[sym]

    def apply(self, f: ModelledDistribution) -> ReconstructionResult:
        """Partial-sum reconstruction of ``f``, a jet ``(num_nodes, *value_shape)`` on the plan's
        grid and model; needs ``gamma > min(A)`` (for ``gamma <= 0`` the partial sum is returned
        without any uniqueness claim).  Per jet: the anchor gathers, the sum of the Gamma terms,
        the pairings' sum, one einsum synthesis and the cumulative sum, in place."""
        if f.gamma <= self.alpha_star:
            raise ValueError(f"gamma = {f.gamma} must exceed min homogeneity {self.alpha_star}")
        layout = tuple((s, np.ndim(c)) for s, c in f.coeffs.items())
        if layout not in self._layouts:
            kinds = {self.model.pi_kind(s) for s, _ in layout}
            if len(kinds) != 1:
                raise ValueError("mixed function/measure support is not reconstructible here")
            terms = gamma_terms(self.model.structure, layout, self.gamma)
            # (K,) pairings against (K, *value_shape) coefficients
            pairings = {t: self._pairing(t).reshape((-1,) + (1,) * (layout[0][1] - 1))
                        for t, _, _ in terms}
            self._layouts[layout] = terms, pairings, kinds.pop()
        terms, pairings, kind = self._layouts[layout]
        moved = gamma_accumulate(terms, [np.asarray(c)[self.anchors] for c in f.coeffs.values()])
        value_shape = np.shape(next(iter(moved.values())))[1:]
        coeffs = np.zeros((self.ks.size,) + value_shape)
        for sym, c in moved.items():
            coeffs += c * pairings[sym]
        z = np.zeros((self.grid.num_nodes,) + value_shape)
        np.add.accumulate(synthesise(coeffs, self.cumulative), axis=0, out=z[1:])  # cumsum, less its wrapper
        if kind == "function":
            z *= self.grid.horizon
        return ReconstructionResult(
            self.base_level, self.trunc_level, f.gamma, self.basis, coeffs,
            SampledPath(self.grid, z.reshape(len(z), -1)), kind, self.model, f)


def reconstruct(f: ModelledDistribution, model, basis: WaveletBasis | None = None,
                trunc_level: int | None = None) -> ReconstructionResult:
    """Partial-sum reconstruction of a modelled distribution: a
    :class:`ReconstructionPlan` on ``f``'s grid, applied to ``f`` once."""
    return ReconstructionPlan(model, f.grid, basis, trunc_level).apply(f)


def antiderivative_from_distribution(
    xi: StieltjesMeasure,
    basis: WaveletBasis | None = None,
    base_level: int | None = None,
    max_level: int | None = None,
) -> SampledPath:
    """Primitive z with z(0) = 0 of a Stieltjes measure: the truncated
    wavelet series of the paper's characterization summed on the grid nodes.
    """
    if basis is None:
        basis = daubechies_basis(4)
    table = wavelet_coefficients(xi, basis, base_level, max_level)
    grid = xi.integrator.grid
    base = table.base_level
    dz = synthesise(table.phi, stencil(basis, "father", base, grid.level, cumulative=True))
    for j in range(base, table.max_level + 1):
        dz += synthesise(table.psi_row(j), stencil(basis, "mother", j, grid.level, cumulative=True))
    return SampledPath(grid, np.concatenate([[0.0], np.cumsum(dz)]))


# ---------------------------------------------------------------------------
# the two headline constructions


def wavelet_integrator(rp: RoughPath, basis: WaveletBasis | None = None,
                       trunc_level: int | None = None):
    """``(g, g') -> int_0^t g dW`` on every node of ``rp``, (num_nodes, d), by
    one :class:`ReconstructionPlan` built here and applied per call to the
    ``(d,)``-valued jet ``g^j Wdot^j + g'^{ji} WWdot^{ij}`` (summed over
    directions) of the controlled one-form ``(g, g')``."""
    model = RoughModel(rp)
    plan = ReconstructionPlan(model, rp.path.grid, basis, trunc_level)

    def integral(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
        coeffs = {}
        for j in range(rp.dim):
            coeffs[Wdot(j)] = g[:, :, j]
            for i in range(rp.dim):
                coeffs[WWdot(i, j)] = dg[:, :, j, i]
        f = ModelledDistribution(3 * rp.alpha - 1.0, coeffs, rp.path.grid, model.structure,
                                 rp.path)
        return plan.apply(f).antiderivative.values

    return integral


def wavelet_rough_integral(
    cp: ControlledPath,
    rp: RoughPath,
    basis: WaveletBasis | None = None,
    trunc_level: int | None = None,
) -> SampledPath:
    """Rough integral of a scalar controlled path through reconstruction:
    :func:`wavelet_integrator` of its one-form ``y (x) I_n``, so the integral
    path (I(0) = 0) has one column ``int y dW^j`` per driver direction.  Its
    three-point certificate is :func:`integration.three_point_defect`."""
    return SampledPath(cp.grid, wavelet_integrator(rp, basis, trunc_level)(*scalar_one_form(cp)))


def wavelet_lift(
    w: SampledPath,
    alpha: float,
    basis: WaveletBasis | None = None,
    trunc_level: int | None = None,
) -> RoughPath:
    """Rough-path lift from the path alone, via reconstruction over the
    reduced structure (gamma = 2 alpha - 1 <= 0: the canonical partial-sum
    representative is taken; no uniqueness holds there).
    """
    model = ReducedModel(w, alpha)
    grid = w.grid
    n = w.dim
    # the local model W^i_s Wdot^j for all (i, j): coefficient W (x) e_j on Wdot^j
    coeffs = {}
    for j in range(n):
        coeffs[Wdot(j)] = np.zeros((grid.num_nodes, n, n))
        coeffs[Wdot(j)][:, :, j] = w.values
    f = ModelledDistribution(2 * alpha - 1.0, coeffs, grid, model.structure, w)
    z = reconstruct(f, model, basis, trunc_level).antiderivative.values.reshape(-1, n, n)
    increments = np.diff(z, axis=0) - np.einsum("ki,kj->kij", w.values[:-1], w.increments())
    return RoughPath(w, increments, alpha)


def lift_continuity_gap(
    w: SampledPath,
    w_tilde: SampledPath,
    alpha: float,
    basis: WaveletBasis | None = None,
    trunc_level: int | None = None,
) -> float:
    """``|lift(W) - lift(W~)|_alpha / |W - W~|_alpha`` on a shared grid; the
    denominator is the first level of :func:`rough_path_distance`'s scan."""
    if w.grid.num_nodes != w_tilde.grid.num_nodes or w.dim != w_tilde.dim:
        raise ValueError("paths must share grid and dimension")
    first, _, total = rough_path_distance(
        wavelet_lift(w, alpha, basis, trunc_level),
        wavelet_lift(w_tilde, alpha, basis, trunc_level),
    )
    if first == 0.0:
        raise ValueError("paths are identical: Hölder distance is zero")
    return total / first
