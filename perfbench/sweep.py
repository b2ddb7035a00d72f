"""Scaling sweep: each layer timed on its own at grid levels J = 8, 10, 12, 14.

    python3 perfbench/sweep.py [--seed N] [--out FILE]

For every layer the sweep reports the median time per call at each level
and the least-squares slope of log(time) against log(N), N = 2**J: the
cost exponent.  It is reported, not gated.  A cell that cannot run is kept
with its reason.  Inputs are the benchmark's: sin_cos drivers on [0, 1],
fBm drawn from ``--seed``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import time

import numpy as np

import run

LEVELS = (8, 10, 12, 14)
# fBm draws need an N x N covariance and its O(N^3) Cholesky factor.
FBM_MAX_LEVEL = 12


def _cases(seed: int) -> dict:
    import roughstruct as rs

    basis = rs.daubechies_basis(4)
    tanh = rs.builtin_descriptor("tanh")
    riemann = rs.SolverConfig(alpha=0.45, beta=0.5)

    def smooth(J: int, dim: int = 2):
        return rs.generate_path("sin_cos", rs.make_dyadic_grid(1.0, J), dim)

    def lifted(J: int, dim: int = 2):
        return rs.lift_piecewise_smooth(smooth(J, dim), "sin_cos", 0.45)

    def fresh(rp):
        # a new RoughPath, so its cached Chen prefix table is rebuilt as in one CLI call
        return rs.RoughPath(rp.path, rp.second, rp.alpha)

    def fbm(J: int):
        if J > FBM_MAX_LEVEL:
            n = 1 << J
            return (f"skipped: needs a dense {n}x{n} covariance "
                    f"({n * n * 8 / 2**30:.0f} GiB) and an O(N^3) Cholesky factor")
        grid = rs.make_dyadic_grid(1.0, J)
        return lambda: rs.generate_path("fbm", grid, 2, hurst=0.5, seed=seed)

    def csv_roundtrip(J: int):
        w = smooth(J)
        return lambda: (rs.write_path_csv(w, "sweep.csv"), rs.read_path_csv("sweep.csv"))

    def json_roundtrip(J: int):
        rp = lifted(J)
        return lambda: (rs.write_rough_path_json(rp, "sweep.json", "sweep_path.csv"),
                        rs.read_rough_path_json("sweep.json"))

    def controlled(rp):
        yp = np.zeros((rp.path.grid.num_nodes, 1, rp.dim))
        yp[:, 0, 0] = 1.0
        return rs.ControlledPath(rp.path.values[:, 0], yp, rp.path)

    def reconstruct(J: int):
        rp = lifted(J)
        f = rs.multiply_by_Wdot(rs.to_modelled(controlled(rp), 0.45), 0)
        return lambda: rs.reconstruct(f, rs.RoughModel(rp), basis)

    def young_cumulative(J: int):
        # the CLI's ``integrate --route young``: one young_integral(0, k) per node
        w = smooth(J)
        y = w.component(0)
        return lambda: [rs.young_integral(y, w, 0, k) for k in range(1, w.grid.num_nodes)]

    def picard_step(route: str):
        cfg = rs.SolverConfig(alpha=0.45, beta=0.5, integral_route=route)

        def make(J: int):
            rp = lifted(J, 1)
            sol, _ = rs.solve_rde(1.0, tanh, rp, riemann)
            Y = rs.to_modelled(sol, 0.45)
            return lambda: rs.picard_step(Y, tanh, fresh(rp), cfg)
        return make

    def on_smooth(fn, dim: int = 2):
        return lambda J: (lambda w: lambda: fn(w))(smooth(J, dim))

    def on_lifted(fn, dim: int = 2):
        return lambda J: (lambda rp: lambda: fn(fresh(rp)))(lifted(J, dim))

    return {
        "grids.generate_path.fbm": fbm,
        "grids.generate_path.sin_cos": lambda J: lambda: smooth(J),
        "grids.holder_seminorm": on_smooth(lambda w: rs.holder_seminorm(w, 0.45)),
        "grids.csv_roundtrip": csv_roundtrip,
        "wavelets.daubechies_basis": lambda J: lambda: rs.daubechies_basis(4),
        "wavelets.wavelet_coefficients": on_smooth(
            lambda w: rs.wavelet_coefficients(rs.StieltjesMeasure(w), basis), dim=1),
        "roughpath.lift_piecewise_smooth.linear": on_smooth(
            lambda w: rs.lift_piecewise_smooth(w, "linear", 0.45)),
        "roughpath.chen_defect": on_lifted(rs.chen_defect),
        "roughpath.rough_path_seminorm": on_lifted(rs.rough_path_seminorm),
        "roughpath.json_roundtrip": json_roundtrip,
        "reconstruction.wavelet_lift.dim1": on_smooth(
            lambda w: rs.wavelet_lift(w, 0.45, basis), dim=1),
        "reconstruction.reconstruct": reconstruct,
        "integration.rough_integral_path": on_lifted(
            lambda rp: rs.rough_integral_path(controlled(rp), rp)),
        "integration.young_integral.cumulative": young_cumulative,
        "solver.solve_rde.riemann": on_lifted(lambda rp: rs.solve_rde(1.0, tanh, rp, riemann), dim=1),
        "solver.picard_step.riemann": picard_step("riemann"),
        "solver.picard_step.wavelet": picard_step("wavelet"),
    }


def _time(call) -> float:
    """One call if it takes over half a second, else the median of five more calls."""
    start = time.perf_counter()
    call()
    first = time.perf_counter() - start
    if first > 0.5:
        return first
    times = []
    for _ in range(5):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _exponent(cells: dict) -> float | None:
    points = [(J, c["s"]) for J, c in cells.items() if "s" in c]
    if len(points) < 2:
        return None
    x = np.array([J * math.log(2.0) for J, _ in points])
    y = np.log([t for _, t in points])
    return float(np.polyfit(x, y, 1)[0])


def sweep(seed: int) -> dict:
    cases = _cases(seed)
    # a second of work first, so the first cell does not pay for an idle CPU
    deadline = time.perf_counter() + 1.0
    while time.perf_counter() < deadline:
        cases["wavelets.daubechies_basis"](0)()
    layers = {}
    for name, make in cases.items():
        cells = {}
        for J in LEVELS:
            call = make(J)
            cells[J] = {"skipped": call} if isinstance(call, str) else {"s": _time(call)}
        exponent = _exponent(cells)
        layers[name] = {"cells": {str(J): c for J, c in cells.items()},
                        "exponent": None if exponent is None else round(exponent, 3)}
        print(f"{name:42s} " + " ".join(
            f"{c['s']:9.4f}" if "s" in c else f"{'skipped':>9s}" for c in cells.values())
            + f"   exponent {layers[name]['exponent']}", flush=True)
    return {"levels": list(LEVELS), "seed": seed, "environment": run.environment(),
            "layers": layers}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None, help="also write the report as JSON here")
    args = p.parse_args()
    run.load_program()
    workdir = run.ROOT / ".bench_work" / f"sweep-{os.getpid()}"
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        report = sweep(args.seed)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a benchmark run
            workdir.parent.rmdir()
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
