"""Command-line front end: generate, lift, integrate, reconstruct, solve.

Exit codes: 0 success, 1 usage error, 2 numeric failure (non-contraction,
Chen defect above tolerance).  With ``--json`` every command prints one
JSON object to stdout; numeric failures then carry an ``"error"`` field.
Output files are deterministic given identical arguments and seed.

Each command runs in a fresh interpreter, so this module imports only
``grids`` and ``integration`` at its top and each command imports the rest
where it runs; the argument parser is built once per process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from .grids import (
    SampledPath,
    check_outputs,
    generate_path,
    holder_seminorm,
    make_dyadic_grid,
    read_path_csv,
    read_table,
    write_output,
    write_path_csv,
    write_table,
)
from .integration import (
    convergence_order_fit,
    rough_integral_path,
    three_point_defect,
    young_integral,
)

if TYPE_CHECKING:
    from .modelled import ControlledPath

#: ``lift`` also takes ``polynomial``: it alone has the ``--coeffs`` that needs
LIFT_MODES = ("linear", "sin_cos", "wavelet")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


class NumericFailure(RuntimeError):
    pass


@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="roughstruct", description=__doc__.splitlines()[0])
    p.add_argument("--grid-level", type=int, default=10, help="dyadic grid level J")
    p.add_argument("--horizon", type=float, default=1.0, help="time horizon T")
    p.add_argument("--alpha", type=float, default=0.45)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None, help="primary output file")
    p.add_argument("--json", action="store_true", help="machine-readable stdout")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a path and write it as CSV")
    g.add_argument("--kind", required=True,
                   choices=["sin_cos", "polynomial", "fbm", "piecewise_linear"])
    g.add_argument("--dim", type=int, default=None, help="default 1, or set by --coeffs/--knots")
    g.add_argument("--hurst", type=float, default=None, help="fbm only, default 0.5")
    g.add_argument("--coeffs", type=str, default=None,
                   help="per-component ascending coefficients, e.g. '0,1;1,0,2'")
    g.add_argument("--knots", type=str, default=None,
                   help="piecewise-linear knots 't:v1,v2;t:v1,v2;...'")

    h = sub.add_parser("holder", help="Hölder seminorm report for a path CSV")
    h.add_argument("path_csv")

    li = sub.add_parser("lift", help="lift a path CSV to a rough-path JSON")
    li.add_argument("path_csv")
    li.add_argument("--mode", default="linear", choices=LIFT_MODES + ("polynomial",))
    li.add_argument("--coeffs", type=str, default=None)

    ch = sub.add_parser("chen", help="Chen-defect report for a rough-path JSON")
    ch.add_argument("rough_json")
    ch.add_argument("--tol", type=float, default=None,
                    help="failure threshold (default 1e-8 * (1 + |W|_inf^2))")

    it = sub.add_parser("integrate", help="integrate a controlled path")
    it.add_argument("path_csv", help="driver path CSV")
    it.add_argument("--route", default="rough-riemann",
                    choices=["young", "rough-riemann", "rough-wavelet"])
    it.add_argument("--y-csv", type=str, default=None,
                    help="integrand CSV (default: first driver component)")
    it.add_argument("--y-prime-csv", type=str, default=None)
    it.add_argument("--lift-mode", default="linear", choices=LIFT_MODES)
    it.add_argument("--certificate", type=str, default=None,
                    help="also write the (scale, error) three-point defect table")

    rc = sub.add_parser("reconstruct", help="reconstruction error-certificate CSV")
    rc.add_argument("path_csv")
    rc.add_argument("--lift-mode", default="linear", choices=LIFT_MODES)

    so = sub.add_parser("solve", help="solve dy = F(y) dW by windowed Picard")
    so.add_argument("path_csv")
    so.add_argument("--F", dest="func", default="linear",
                    choices=["linear", "sin", "tanh"])
    so.add_argument("--xi", type=str, default="1")
    so.add_argument("--route", default="riemann", choices=["riemann", "wavelet"])
    so.add_argument("--lift-mode", default="linear", choices=LIFT_MODES)
    so.add_argument("--diagnostics", type=str, default=None,
                    help="diagnostics JSON file")

    cv = sub.add_parser("convergence", help="log-log order fit of a (scale, error) CSV")
    cv.add_argument("samples_csv")
    cv.add_argument("--drop-coarsest", type=int, default=2)
    return p


def _finite_numbers(text: str, option: str) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        vals = [np.nan]
    if not np.isfinite(vals).all():
        raise ValueError(f"{option} takes comma-separated finite numbers, got {text!r}")
    return vals


def _parse_coeffs(text: str) -> np.ndarray:
    rows = [_finite_numbers(part, "--coeffs") for part in text.split(";")]
    width = max(map(len, rows))
    return np.array([r + [0.0] * (width - len(r)) for r in rows])


def _parse_knots(text: str) -> list[tuple[float, np.ndarray]]:
    sides = [[_finite_numbers(s, "--knots") for s in part.split(":")] for part in text.split(";")]
    return [(t, np.array(v)) for (t,), v in sides]


def _emit(args, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for key, val in payload.items():
            print(f"{key}: {val}")


def _make_lift(args, path: SampledPath, mode: str, coeffs=None):
    if mode == "wavelet":
        from .reconstruction import wavelet_lift

        return wavelet_lift(path, args.alpha)
    from .roughpath import lift_piecewise_smooth

    return lift_piecewise_smooth(path, mode, args.alpha, coeffs=coeffs)


def _default_controlled(path: SampledPath) -> ControlledPath:
    from .modelled import ControlledPath

    yp = np.zeros((path.grid.num_nodes, 1, path.dim))
    yp[:, 0, 0] = 1.0
    return ControlledPath(path.values[:, 0], yp, path)


def _cmd_gen(args) -> dict:
    grid = make_dyadic_grid(args.horizon, args.grid_level)
    kwargs = {}
    for option, kind, parse in (("coeffs", "polynomial", _parse_coeffs),
                                ("knots", "piecewise_linear", _parse_knots), ("hurst", "fbm", float)):
        if getattr(args, option) is not None:
            if args.kind != kind:
                raise ValueError(f"--{option} is for --kind {kind}, not {args.kind}")
            kwargs[option] = parse(getattr(args, option))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without a warning
        path = generate_path(args.kind, grid, 1 if args.dim is None else args.dim,
                             seed=args.seed, **kwargs)
    if not np.isfinite(path.values).all():
        option = "--knots" if args.kind == "piecewise_linear" else "--coeffs"
        raise ValueError(f"{option} give non-finite path values on [0, {grid.horizon}]")
    if args.dim is not None and args.dim != path.dim:  # --coeffs and --knots set the dim
        raise ValueError(f"--dim {args.dim} does not match dim {path.dim} of --coeffs or --knots")
    out = args.out or "path.csv"
    write_path_csv(path, out)
    return {"out": out, "nodes": path.grid.num_nodes, "dim": path.dim}


def _cmd_holder(args) -> dict:
    path = read_path_csv(args.path_csv)
    return {
        "alpha": args.alpha,
        "seminorm": holder_seminorm(path, args.alpha),
        "nodes": path.grid.num_nodes,
    }


def _cmd_lift(args) -> dict:
    from .roughpath import rough_path_seminorm, write_rough_path_json

    out = args.out or "rough_path.json"
    csv_out = os.path.splitext(out)[0] + "_path.csv"
    if args.coeffs is not None and args.mode != "polynomial":
        raise ValueError(f"--coeffs is for --mode polynomial, not {args.mode}")
    coeffs = _parse_coeffs(args.coeffs) if args.coeffs else None
    rp = _make_lift(args, read_path_csv(args.path_csv), args.mode, coeffs)
    second_npy = write_rough_path_json(rp, out, csv_out)
    first, second, total = rough_path_seminorm(rp)
    return {"out": out, "path_csv": csv_out, "second_order_npy": second_npy, "alpha": rp.alpha,
            "seminorm_path": first, "seminorm_second": second, "seminorm": total}


def _cmd_chen(args) -> dict:
    from .roughpath import chen_defect, read_rough_path_json

    if args.tol is not None and not 0 <= args.tol < np.inf:
        raise ValueError(f"--tol must be finite and non-negative, got {args.tol}")
    rp = read_rough_path_json(args.rough_json)
    defect = chen_defect(rp)
    w_inf = float(np.abs(rp.path.values).max())
    tol = args.tol if args.tol is not None else 1e-8 * (1.0 + w_inf**2)
    if defect > tol:
        raise NumericFailure(f"Chen defect {defect:.3e} exceeds tolerance {tol:.3e}")
    return {"defect": defect, "tolerance": tol}


def _load_controlled(args, path: SampledPath) -> ControlledPath:
    if args.y_csv is None:
        if args.y_prime_csv is not None:
            raise ValueError("--y-prime-csv requires --y-csv")
        return _default_controlled(path)
    from .modelled import ControlledPath

    if args.y_prime_csv is None:
        raise ValueError("--y-csv requires --y-prime-csv")
    y = _read_integrand(args.y_csv, path, 1)
    yp = _read_integrand(args.y_prime_csv, path, path.dim)
    return ControlledPath(y.values[:, 0], yp.values[:, None, :], path)


def _read_integrand(filename: str, path: SampledPath, width: int) -> SampledPath:
    """A path CSV on the driver's grid with ``width`` value columns."""
    y = read_path_csv(filename)
    if y.grid != path.grid:
        raise ValueError(f"{filename} is sampled on {y.grid}, the driver on {path.grid}")
    if y.dim != width:
        raise ValueError(f"{filename} has {y.dim} value columns, need {width}")
    return y


def _cmd_integrate(args) -> dict:
    if args.certificate is not None and args.route == "young":
        raise ValueError("the Young route has no three-point certificate")
    out = args.out or "integral.csv"
    check_outputs(out, args.certificate)
    path = read_path_csv(args.path_csv)
    if args.certificate is not None and path.grid.level < 2:
        raise ValueError(f"--certificate: three-point defects need grid level >= 2, got {path.grid.level}")
    if args.route == "young":  # y' plays no part in a Young sum
        y = _read_integrand(args.y_csv, path, 1) if args.y_csv is not None else path
        integral = SampledPath(path.grid, young_integral(y.component(0), path))
    else:
        cp = _load_controlled(args, path)
        rp = _make_lift(args, path, args.lift_mode)
        if args.route == "rough-riemann":
            integral = SampledPath(path.grid, rough_integral_path(cp, rp))
        else:
            from .reconstruction import wavelet_rough_integral

            integral = wavelet_rough_integral(cp, rp)
    write_path_csv(integral, out)
    payload = {"out": out, "final": [float(v) for v in integral.values[-1]]}
    if args.certificate is not None:
        certificate = three_point_defect(integral.values, cp, rp)
        write_table(args.certificate, "scale,error", np.array(certificate).reshape(-1, 2))
        payload["certificate"] = args.certificate
    return payload


def _cmd_reconstruct(args) -> dict:
    from .modelled import multiply_by_Wdot, to_modelled
    from .reconstruction import reconstruct
    from .structure import RoughModel

    path = read_path_csv(args.path_csv)
    rp = _make_lift(args, path, args.lift_mode)
    cp = _default_controlled(path)
    model = RoughModel(rp)
    f = multiply_by_Wdot(to_modelled(cp, args.alpha), 0)
    rr = reconstruct(f, model)
    rows = rr.error_certificate()
    out = args.out or "certificate.csv"
    write_table(out, "lambda,s,ratio", np.array(rows).reshape(-1, 3))
    worst = max(r for _, _, r in rows) if rows else 0.0
    return {"out": out, "gamma": f.gamma, "rows": len(rows), "max_ratio": worst}


def _cmd_solve(args) -> dict:
    from .modelled import builtin_descriptor
    from .solver import SolverConfig, SolverError, solve_rde

    xi = np.array(_finite_numbers(args.xi, "--xi"))
    if xi.size > 1 and args.func != "linear":
        raise ValueError(f"builtin {args.func} is scalar; xi must be scalar")
    out = args.out or "solution.csv"
    diag_out = args.diagnostics or os.path.splitext(out)[0] + "_diag.json"
    check_outputs(out, diag_out)
    path = read_path_csv(args.path_csv)
    if path.dim != 1:
        raise ValueError("builtin CLI functions drive scalar-noise equations; "
                         "use the API for matrix-valued F")
    rp = _make_lift(args, path, args.lift_mode)
    F = builtin_descriptor(args.func, dim=xi.size)
    cfg = SolverConfig(alpha=args.alpha, beta=args.beta, integral_route=args.route)
    try:
        sol, diag = solve_rde(xi if xi.size > 1 else float(xi[0]), F, rp, cfg)
    except SolverError as exc:
        raise NumericFailure(str(exc)) from exc
    d, n = sol.y.shape[1], sol.y_prime.shape[2]
    header = ("t," + ",".join(f"y{i+1}" for i in range(d)) + ","
              + ",".join(f"yp{i+1}{j+1}" for i in range(d) for j in range(n)))
    write_table(out, header, path.grid.nodes, sol.y, sol.y_prime.reshape(len(sol.y), -1))
    write_output(diag_out, [json.dumps(diag, default=float).encode()])
    return {"out": out, "diagnostics": diag_out,
            "final": [float(v) for v in sol.y[-1]],
            "residual": diag["residual"],
            "max_ratio": max((w["ratio"] for w in diag["windows"]), default=0.0)}


def _cmd_convergence(args) -> dict:
    samples = read_table(args.samples_csv)[:, :2].tolist()
    slope, r2 = convergence_order_fit(samples, drop_coarsest=args.drop_coarsest)
    return {"slope": slope, "r_squared": r2, "samples": len(samples)}


_COMMANDS = {
    "gen": _cmd_gen,
    "holder": _cmd_holder,
    "lift": _cmd_lift,
    "chen": _cmd_chen,
    "integrate": _cmd_integrate,
    "reconstruct": _cmd_reconstruct,
    "solve": _cmd_solve,
    "convergence": _cmd_convergence,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = _COMMANDS[args.command](args)
    except NumericFailure as exc:
        if args.json:
            print(json.dumps({"error": str(exc)}))
        else:
            print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        if args.json:
            print(json.dumps({"error": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(args, payload)
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
