"""Picard fixed point for dy = F(y) dW over a rough path.

One Picard step maps the abstract jet Y to ``xi One + L(F(Y))``.  It
converts Y to arrays (:func:`modelled.from_modelled`), composes them into
the controlled one-form ``(F(y), F'(y) y')`` (:func:`modelled.compose_one_form`,
the kernel behind ``compose``), integrates that one-form by the route's
kernel (by default :func:`integration.rough_integral`, compensated Riemann
sums; for cross-validation :func:`reconstruction.wavelet_integrator`, whose
reconstruction plan is built once per window and applied per iterate) and
converts back (:func:`modelled.to_modelled`).  Contraction is only
guaranteed on short windows, so the solver marches dyadic windows left to
right, restarting from each window's endpoint and halving any window that
refuses to contract.  At convergence the Gubinelli derivative is F(y):
that fixed-point identity is part of the diagnostics.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .integration import rough_integral
from .modelled import ControlledPath, FunctionDescriptor, ModelledDistribution
from .modelled import compose_one_form, from_modelled, to_modelled
from .roughpath import RoughPath


class SolverError(RuntimeError):
    """Numeric failure: non-contraction or a window below grid resolution."""


@dataclass
class SolverConfig:
    alpha: float
    beta: float
    initial_window: float | None = None
    max_picard_iters: int = 50
    fixed_point_tol: float = 1e-9
    integral_route: str = "riemann"

    def __post_init__(self) -> None:
        if not 1 / 3 < self.alpha < self.beta <= 0.5:
            raise ValueError(
                f"need 1/3 < alpha < beta <= 1/2, got alpha={self.alpha}, beta={self.beta}"
            )
        if self.integral_route not in ("riemann", "wavelet"):
            raise ValueError(f"unknown integral route {self.integral_route!r}")


def _integrator(rp: RoughPath, cfg: SolverConfig) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``(g, g') -> I(t) = int_0^t g dW`` cumulatively on the nodes of ``rp``,
    (nodes, d), by the route's kernel (the wavelet route's plan built here)."""
    if cfg.integral_route == "riemann":
        return lambda g, dg: rough_integral(g, dg, rp)
    from .reconstruction import wavelet_integrator
    from .wavelets import daubechies_basis

    base_level = daubechies_basis().min_base_level()
    if rp.path.grid.level < base_level:
        raise SolverError(
            f"window of {rp.path.grid.num_intervals} intervals is below the wavelet "
            f"base level {base_level}; use the riemann route"
        )
    return wavelet_integrator(rp)


def _step_core(
    y: np.ndarray, yp: np.ndarray, xi: np.ndarray, F: FunctionDescriptor, integral: Callable,
) -> tuple[np.ndarray, np.ndarray]:
    g, dg = compose_one_form(F, y, yp)
    return xi[None, :] + integral(g, dg), g


def picard_step(
    Y: ModelledDistribution,
    F: FunctionDescriptor,
    rp: RoughPath,
    cfg: SolverConfig,
    xi: np.ndarray | None = None,
) -> ModelledDistribution:
    """One application of ``N(Y) = xi One + L(F(Y))``.

    ``xi`` defaults to the One coefficient of Y at time zero (which the
    fixed point preserves).
    """
    cp = from_modelled(Y)
    xi = cp.y[0].copy() if xi is None else np.atleast_1d(np.asarray(xi, dtype=float))
    y_next, yp_next = _step_core(cp.y, cp.y_prime, xi, F, _integrator(rp, cfg))
    return to_modelled(ControlledPath(y_next, yp_next, Y.reference), cfg.alpha)


def _solve_window(
    xi: np.ndarray, F: FunctionDescriptor, rp: RoughPath, integral: Callable, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Picard iteration on one window with the window's integrator;
    returns (y, yp, iters, worst ratio).

    Termination uses the plain sup metric on (y, y') differences.  The
    reported contraction ratio weights the y' part by the window's total
    second-order mass, which is the leverage y' actually has on the next
    iterate; in the unweighted metric the one-step lag of y' = F(y) would
    show a spurious unit ratio on startup.
    """
    nodes = rp.path.grid.num_nodes
    d = xi.size
    n = rp.dim
    y = np.tile(xi, (nodes, 1))
    g0, _ = compose_one_form(F, y[:1], np.zeros((1, d, n)))
    yp = np.tile(g0[0], (nodes, 1, 1))
    inc = rp.second.increments
    wmass = float(np.sqrt(np.einsum("kij,kij->k", inc, inc)).sum())
    prev_diff = None
    prev_wdiff = None
    worst_ratio = 0.0
    for it in range(1, cfg.max_picard_iters + 1):
        y_next, yp_next = _step_core(y, yp, xi, F, integral)
        dy = float(np.abs(y_next - y).max())
        dyp = float(np.abs(yp_next - yp).max())
        diff = max(dy, dyp)
        wdiff = max(dy, wmass * dyp)
        y, yp = y_next, yp_next
        if prev_wdiff is not None and prev_wdiff > 0.0:
            worst_ratio = max(worst_ratio, wdiff / prev_wdiff)
        if diff < cfg.fixed_point_tol:
            return y, yp, it, worst_ratio
        if prev_diff is not None and diff > max(4.0 * prev_diff, 1e6):
            break  # diverging, no point burning the full budget
        prev_diff = diff
        prev_wdiff = wdiff
    raise SolverError(
        f"no contraction within {cfg.max_picard_iters} iterations "
        f"(last ratio {worst_ratio:.3g})"
    )


def solve_rde(
    xi: np.ndarray | float,
    F: FunctionDescriptor,
    rp: RoughPath,
    cfg: SolverConfig,
) -> tuple[ControlledPath, dict]:
    """Windowed Picard solution of ``y = xi + int F(y) dW``.

    Windows are dyadic blocks; a window that fails to contract is halved,
    down to grid resolution (the wavelet route stops at its base level).
    (Left-point sums make one-interval windows converge within two
    iterations, so halving bottoms out successfully unless the iteration
    budget itself is exhausted.)  Diagnostics report per-window iteration
    counts and worst contraction ratios plus the a-posteriori residual.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    grid = rp.path.grid
    if cfg.initial_window is None:
        window_level = max(0, grid.level - 2)
    else:
        frac = max(min(cfg.initial_window / grid.horizon, 1.0), 1.0 / grid.num_intervals)
        window_level = min(grid.level, max(0, int(np.floor(np.log2(frac * grid.num_intervals)))))
    d = xi.size
    n = rp.dim
    y_full = np.zeros((grid.num_nodes, d))
    yp_full = np.zeros((grid.num_nodes, d, n))
    y_full[0] = xi
    windows = []
    start = 0
    current = xi.copy()
    while start < grid.num_intervals:
        window_level = min(window_level, _max_level(grid.num_intervals - start))
        span = 1 << window_level
        sub = rp.restrict(start, window_level)
        integral = _integrator(sub, cfg)  # raises below the wavelet base level
        try:
            y_w, yp_w, iters, ratio = _solve_window(current, F, sub, integral, cfg)
        except SolverError:
            if window_level == 0:
                raise SolverError(
                    f"window at node {start} failed to contract even at grid resolution"
                ) from None
            window_level -= 1
            continue
        y_full[start : start + span + 1] = y_w
        yp_full[start : start + span + 1] = yp_w
        span_y = float(y_w.max() - y_w.min())
        windows.append(
            {
                "t0": grid.nodes[start],
                "t1": grid.nodes[start + span],
                "iters": iters,
                "ratio": ratio,
                # the box on which F's bounds were exercised this window
                "box": [float(y_w.min() - 2 * span_y), float(y_w.max() + 2 * span_y)],
            }
        )
        current = y_w[-1].copy()
        start += span
    solution = ControlledPath(y_full, yp_full, rp.path)
    residual = solution_residual(solution, xi, F, rp)
    return solution, {"windows": windows, "residual": residual}


def _max_level(intervals: int) -> int:
    level = 0
    while (2 << level) <= intervals:
        level += 1
    return level


def solution_residual(
    sol: ControlledPath,
    xi: np.ndarray | float,
    F: FunctionDescriptor,
    rp: RoughPath,
) -> float:
    """Sup over nodes of ``|y_t - xi - int_0^t F(y) dW|``, with the integral
    taken by the Riemann kernel (:func:`integration.rough_integral`)
    regardless of how the solution was produced."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    integral = rough_integral(*compose_one_form(F, sol.y, sol.y_prime), rp)
    return float(np.abs(sol.y - xi[None, :] - integral).max())
