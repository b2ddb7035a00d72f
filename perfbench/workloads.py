"""The benchmark workloads: CLI pipelines and library calls, each with its output check.

A workload is a list of operations run back to back in one process.  An
operation is one in-process ``roughstruct`` CLI command or one library
call; it fails when it exits non-zero, raises, or fails its check.  Inputs
come from the workload seed only: the fBm draw seed, the horizon of the
sin/cos drivers and the offset of the linear driver.  None of them changes
the amount of work beyond a few Picard iterations on the fBm driver.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from roughstruct import cli, grids, modelled, reconstruction, roughpath, solver, wavelets

# Tolerances of the output checks.  RIEMANN_RESIDUAL and ROUTE_GAP are the
# solver's fixed-point tolerance scale and the c5 acceptance bound.  The
# wavelet route's residual is first order in the mesh (4.9e-3 * 2**(10 - J)
# on the linear driver at grid level J), so its tolerance is twice that:
# a speed-up that costs accuracy fails a check.
RIEMANN_RESIDUAL = 1e-9
ROUTE_GAP = 1e-3
C7_ORACLE = 1e-3
ANTIDERIVATIVE_GAP = 1e-3


def wavelet_residual(level: int) -> float:
    return 1e-2 * 2.0 ** (10 - level)


@dataclass
class Op:
    """One timed operation.

    ``prep`` runs untimed before ``run`` and its result is ``run``'s
    argument; ``check`` gets ``run``'s result and returns an error message
    or None.  ``outs`` are the files the operation writes, which must be
    byte-identical across the iterations of one run.  ``span`` names the
    CLI span the traced run opens around ``run``.
    """

    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any], str | None] | None = None
    prep: Callable[[], Any] | None = None
    outs: tuple[str, ...] = ()
    span: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    accuracy: dict[str, float] = field(default_factory=dict)


COMMANDS = ("gen", "holder", "lift", "chen", "integrate", "reconstruct", "solve", "convergence")


def _cli(argv: list[str], outs: tuple[str, ...] = (), expect=None) -> Op:
    command = next(a for a in argv if a in COMMANDS)

    def run(_):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["--json", *argv])
        return rc, buf.getvalue()

    def check(result) -> str | None:
        rc, out = result
        lines = out.strip().splitlines()
        payload = json.loads(lines[-1]) if lines else {}
        if rc != 0:
            return f"exit code {rc}: {payload.get('error', out.strip())}"
        return expect(payload) if expect is not None else None

    return Op(f"cli {' '.join(argv)}", run, check, outs=outs, span=f"cli.{command}")


def _copy_first_component(src: str, dst: str) -> None:
    """Write columns t and x1 of a path CSV, digits untouched (benchmark-side, untimed)."""
    with open(src) as fh:
        rows = [line.rstrip("\n").split(",")[:2] for line in fh]
    rows[0] = ["t", "x1"]
    with open(dst, "w", newline="") as fh:
        fh.writelines(",".join(r) + "\n" for r in rows)


def _read_solution(path: grids.SampledPath, csv: str) -> modelled.ModelledDistribution:
    """The converged jet (y One + y' W) of a scalar solution CSV ``t,y1,yp11``."""
    data = np.genfromtxt(csv, delimiter=",", skip_header=1)
    cp = modelled.ControlledPath(data[:, 1], data[:, 2].reshape(-1, 1, 1), path)
    return modelled.to_modelled(cp, 0.45)


def _chen_ok(p: dict) -> str | None:
    if not p["defect"] <= p["tolerance"]:
        return f"Chen defect {p['defect']:.3e} above tolerance {p['tolerance']:.3e}"
    return None


def _residual_at_most(limit: float, record: dict | None = None):
    def check(p: dict) -> str | None:
        if record is not None:
            record["solve_residual"] = max(record.get("solve_residual", 0.0), p["residual"])
        if not p["residual"] <= limit:
            return f"solve residual {p['residual']:.3e} above {limit:.1e}"
        return None
    return check


def _horizon(rng: np.random.Generator) -> str:
    return repr(float(rng.uniform(0.8, 1.2)))


def fbm_riemann(seed: int, shift: int = 0) -> Workload:
    rng = np.random.default_rng(seed)
    level = str(12 + shift)
    gen_seed = str(int(rng.integers(2**31)))
    ops = [
        _cli(["--grid-level", level, "--seed", gen_seed, "--out", "w.csv",
              "gen", "--kind", "fbm", "--hurst", "0.5", "--dim", "2"], ("w.csv",)),
        _cli(["holder", "w.csv"]),
        _cli(["--out", "rp.json", "lift", "w.csv", "--mode", "linear"],
             ("rp.json", "rp_path.csv")),
        _cli(["chen", "rp.json"], expect=_chen_ok),
        _cli(["--out", "I.csv", "integrate", "w.csv", "--route", "rough-riemann",
              "--certificate", "cert.csv"], ("I.csv", "cert.csv")),
        _cli(["--out", "Iy.csv", "integrate", "w.csv", "--route", "young"], ("Iy.csv",)),
        _cli(["convergence", "cert.csv"]),
        _cli(["--alpha", "0.4", "--beta", "0.45", "--out", "sol.csv",
              "solve", "w1.csv", "--F", "sin"], ("sol.csv", "sol_diag.json"),
             _residual_at_most(RIEMANN_RESIDUAL)),
    ]
    ops[-1].prep = lambda: _copy_first_component("w.csv", "w1.csv")
    return Workload(ops)


def wavelet_recon(seed: int, shift: int = 0) -> Workload:
    rng = np.random.default_rng(seed)
    grid = ["--grid-level", str(13 + shift), "--horizon", _horizon(rng)]
    work = Workload([])

    def route_gap(_p: dict) -> str | None:
        wavelet = grids.read_path_csv("Iw.csv").values
        riemann = grids.read_path_csv("Ir.csv").values
        gap = float(np.abs(wavelet - riemann).max() / np.abs(riemann).max())
        work.accuracy["route_gap"] = gap
        return None if gap <= ROUTE_GAP else f"route gap {gap:.3e} above {ROUTE_GAP:.0e}"

    def certificate_ok(p: dict) -> str | None:
        if p["rows"] == 0 or not math.isfinite(p["max_ratio"]):
            return f"empty or non-finite certificate: {p}"
        return None

    def measure():
        return wavelets.StieltjesMeasure(grids.read_path_csv("w.csv").component(0))

    def antiderivative(xi):
        return xi, reconstruction.antiderivative_from_distribution(xi)

    def antiderivative_ok(result) -> str | None:
        xi, z = result
        ref = xi.integrator.values[:, 0] - xi.integrator.values[0, 0]
        gap = float(np.abs(z.values[:, 0] - ref).max() / np.abs(ref).max())
        if not gap <= ANTIDERIVATIVE_GAP:
            return f"antiderivative of dZ misses Z by {gap:.3e} (relative)"
        return None

    work.ops = [
        _cli([*grid, "--out", "w.csv", "gen", "--kind", "sin_cos", "--dim", "2"], ("w.csv",)),
        _cli(["--out", "rpw.json", "lift", "w.csv", "--mode", "wavelet"],
             ("rpw.json", "rpw_path.csv")),
        _cli(["chen", "rpw.json"], expect=_chen_ok),
        _cli(["--out", "Iw.csv", "integrate", "w.csv", "--route", "rough-wavelet",
              "--lift-mode", "sin_cos"], ("Iw.csv",)),
        _cli(["--out", "Ir.csv", "integrate", "w.csv", "--route", "rough-riemann",
              "--lift-mode", "sin_cos"], ("Ir.csv",), route_gap),
        _cli(["--out", "cert.csv", "reconstruct", "w.csv", "--lift-mode", "sin_cos"],
             ("cert.csv",), certificate_ok),
        Op("antiderivative_from_distribution", antiderivative, antiderivative_ok, measure),
    ]
    return work


def wavelet_picard(seed: int, shift: int = 0) -> Workload:
    rng = np.random.default_rng(seed)
    work = Workload([])
    # W = c0 + t: the offset moves the data but not the oracle y(1) = e
    offset = repr(float(rng.uniform(-1.0, 1.0)))

    def c7_oracle(p: dict) -> str | None:
        err = abs(p["final"][0] - math.e)
        if not err <= C7_ORACLE:
            return f"c7 oracle: |y(1) - e| = {err:.3e} above {C7_ORACLE:.0e}"
        return _residual_at_most(RIEMANN_RESIDUAL)(p)

    def jet(csv: str):
        def prep():
            w = grids.read_path_csv("w.csv")
            rp = roughpath.lift_piecewise_smooth(w, "sin_cos", 0.45)
            return _read_solution(w, csv), rp
        return prep

    def step(route: str):
        cfg = solver.SolverConfig(alpha=0.45, beta=0.5, integral_route=route)

        def run(arg):
            Y, rp = arg
            F = modelled.builtin_descriptor("tanh")
            return Y, solver.picard_step(Y, F, rp, cfg)
        return run

    def fixed_point(limit: float):
        def check(result) -> str | None:
            Y, N = result
            gap = max(float(np.abs(N.coeffs[s] - Y.coeffs[s]).max()) for s in Y.coeffs)
            return None if gap <= limit else f"Picard step moves the fixed point by {gap:.3e}"
        return check

    record = work.accuracy
    level, level_t = 12 + shift, 10 + shift
    work.ops = [
        _cli(["--grid-level", str(level), "--horizon", _horizon(rng), "--out", "w.csv",
              "gen", "--kind", "sin_cos", "--dim", "1"], ("w.csv",)),
        _cli(["--out", "solw.csv", "solve", "w.csv", "--route", "wavelet", "--F", "tanh",
              "--lift-mode", "sin_cos"], ("solw.csv", "solw_diag.json"),
             _residual_at_most(wavelet_residual(level), record)),
        _cli(["--out", "solr.csv", "solve", "w.csv", "--route", "riemann", "--F", "tanh",
              "--lift-mode", "sin_cos"], ("solr.csv", "solr_diag.json"),
             _residual_at_most(RIEMANN_RESIDUAL)),
        _cli(["--grid-level", str(level_t), "--out", "t.csv", "gen", "--kind", "polynomial",
              f"--coeffs={offset},1"], ("t.csv",)),
        _cli(["--out", "solw2.csv", "solve", "t.csv", "--route", "wavelet", "--F", "linear"],
             ("solw2.csv", "solw2_diag.json"),
             _residual_at_most(wavelet_residual(level_t), record)),
        _cli(["--out", "solr2.csv", "solve", "t.csv", "--route", "riemann", "--F", "linear"],
             ("solr2.csv", "solr2_diag.json"), c7_oracle),
        Op("picard_step riemann", step("riemann"), fixed_point(RIEMANN_RESIDUAL), jet("solr.csv")),
        Op("picard_step wavelet", step("wavelet"), fixed_point(wavelet_residual(level)),
           jet("solw.csv")),
    ]
    return work


WORKLOADS: dict[str, Callable[[int, int], Workload]] = {
    "fbm_riemann_j12": fbm_riemann,
    "wavelet_recon_j13": wavelet_recon,
    "wavelet_picard": wavelet_picard,
}
