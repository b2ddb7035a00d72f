"""Command-line front end: generate, lift, integrate, reconstruct, solve.

Exit codes: 0 success, 1 usage error, 2 numeric failure (non-contraction,
Chen defect above tolerance).  With ``--json`` every command prints one
JSON object to stdout; numeric failures then carry an ``"error"`` field.
Output files are deterministic given identical arguments and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .grids import (
    SampledPath,
    generate_path,
    holder_seminorm,
    make_dyadic_grid,
    read_path_csv,
    write_path_csv,
)
from .integration import convergence_order_fit, rough_integral_path
from .modelled import ControlledPath, builtin_descriptor
from .reconstruction import (
    reconstruct,
    wavelet_lift,
    wavelet_rough_integral,
)
from .roughpath import (
    chen_defect,
    lift_piecewise_smooth,
    read_rough_path_json,
    rough_path_seminorm,
    write_rough_path_json,
)
from .solver import SolverConfig, SolverError, solve_rde
from .structure import RoughModel
from .wavelets import daubechies_basis
from .modelled import multiply_by_Wdot, to_modelled


LIFT_MODES = ("linear", "sin_cos", "polynomial", "wavelet")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


class NumericFailure(RuntimeError):
    pass


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
    g.add_argument("--dim", type=int, default=1)
    g.add_argument("--hurst", type=float, default=0.5)
    g.add_argument("--coeffs", type=str, default=None,
                   help="per-component ascending coefficients, e.g. '0,1;1,0,2'")
    g.add_argument("--knots", type=str, default=None,
                   help="piecewise-linear knots 't:v1,v2;t:v1,v2;...'")

    h = sub.add_parser("holder", help="Hölder seminorm report for a path CSV")
    h.add_argument("path_csv")

    li = sub.add_parser("lift", help="lift a path CSV to a rough-path JSON")
    li.add_argument("path_csv")
    li.add_argument("--mode", default="linear", choices=LIFT_MODES)
    li.add_argument("--coeffs", type=str, default=None)
    li.add_argument("--trunc-level", type=int, default=None)

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
    it.add_argument("--trunc-level", type=int, default=None)
    it.add_argument("--certificate", type=str, default=None,
                    help="also write the (scale, error) three-point defect table")

    rc = sub.add_parser("reconstruct", help="reconstruction error-certificate CSV")
    rc.add_argument("path_csv")
    rc.add_argument("--lift-mode", default="linear", choices=LIFT_MODES)
    rc.add_argument("--trunc-level", type=int, default=None)

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


def _parse_coeffs(text: str) -> np.ndarray:
    rows = [[float(v) for v in part.split(",")] for part in text.split(";")]
    width = max(len(r) for r in rows)
    out = np.zeros((len(rows), width))
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


def _parse_knots(text: str) -> list[tuple[float, np.ndarray]]:
    knots = []
    for part in text.split(";"):
        t_str, v_str = part.split(":")
        knots.append((float(t_str), np.array([float(v) for v in v_str.split(",")])))
    return knots


def _emit(args, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for key, val in payload.items():
            print(f"{key}: {val}")


def _make_lift(args, path: SampledPath, mode: str, coeffs=None, trunc_level=None):
    if mode == "wavelet":
        return wavelet_lift(path, args.alpha, daubechies_basis(4), trunc_level)
    return lift_piecewise_smooth(path, mode, args.alpha, coeffs=coeffs)


def _default_controlled(path: SampledPath) -> ControlledPath:
    yp = np.zeros((path.grid.num_nodes, 1, path.dim))
    yp[:, 0, 0] = 1.0
    return ControlledPath(path.values[:, 0], yp, path)


def _cmd_gen(args) -> dict:
    grid = make_dyadic_grid(args.horizon, args.grid_level)
    kwargs = {}
    if args.kind == "polynomial":
        if args.coeffs is None:
            raise NumericFailure("polynomial kind needs --coeffs")
        kwargs["coeffs"] = _parse_coeffs(args.coeffs)
    if args.kind == "piecewise_linear":
        if args.knots is None:
            raise NumericFailure("piecewise_linear kind needs --knots")
        kwargs["knots"] = _parse_knots(args.knots)
    path = generate_path(args.kind, grid, args.dim, hurst=args.hurst,
                         seed=args.seed, **kwargs)
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
    path = read_path_csv(args.path_csv)
    coeffs = _parse_coeffs(args.coeffs) if args.coeffs else None
    rp = _make_lift(args, path, args.mode, coeffs, args.trunc_level)
    out = args.out or "rough_path.json"
    csv_out = out.rsplit(".", 1)[0] + "_path.csv"
    write_rough_path_json(rp, out, csv_out)
    first, second, total = rough_path_seminorm(rp)
    return {"out": out, "path_csv": csv_out, "alpha": rp.alpha,
            "seminorm_path": first, "seminorm_second": second, "seminorm": total}


def _cmd_chen(args) -> dict:
    rp = read_rough_path_json(args.rough_json)
    defect = chen_defect(rp)
    w_inf = float(np.abs(rp.path.values).max())
    tol = args.tol if args.tol is not None else 1e-8 * (1.0 + w_inf**2)
    payload = {"defect": defect, "tolerance": tol}
    if defect > tol:
        raise NumericFailure(f"Chen defect {defect:.3e} exceeds tolerance {tol:.3e}")
    return payload


def _load_controlled(args, path: SampledPath) -> ControlledPath:
    if args.y_csv is None:
        return _default_controlled(path)
    y = read_path_csv(args.y_csv)
    if args.y_prime_csv is None:
        raise NumericFailure("--y-csv requires --y-prime-csv")
    yp = read_path_csv(args.y_prime_csv)
    return ControlledPath(y.values[:, 0], yp.values, path)


def _cmd_integrate(args) -> dict:
    from .integration import three_point_defect

    path = read_path_csv(args.path_csv)
    out = args.out or "integral.csv"
    certificate = None
    if args.route == "young":
        cp = _load_controlled(args, path)
        # left-point Riemann-Stieltjes sums, all windows [0, t_k] at once
        vals = np.zeros((path.grid.num_nodes, path.dim))
        vals[1:] = np.cumsum(cp.y[:-1, :1] * path.increments(), axis=0)
        integral = SampledPath(path.grid, vals)
    else:
        rp = _make_lift(args, path, args.lift_mode, trunc_level=args.trunc_level)
        cp = _load_controlled(args, path)
        if args.route == "rough-riemann":
            integral = SampledPath(path.grid, rough_integral_path(cp, rp))
        else:
            integral, _ = wavelet_rough_integral(cp, rp, daubechies_basis(4),
                                                 args.trunc_level)
        certificate = three_point_defect(integral.values, cp, rp)
    write_path_csv(integral, out)
    payload = {"out": out, "final": [float(v) for v in integral.values[-1]]}
    if args.certificate is not None:
        if certificate is None:
            raise NumericFailure("the Young route has no three-point certificate")
        with open(args.certificate, "w") as fh:
            fh.write("scale,error\n")
            for scale, err in certificate:
                fh.write(f"{scale:.17g},{err:.17g}\n")
        payload["certificate"] = args.certificate
    return payload


def _cmd_reconstruct(args) -> dict:
    path = read_path_csv(args.path_csv)
    rp = _make_lift(args, path, args.lift_mode, trunc_level=args.trunc_level)
    cp = _default_controlled(path)
    model = RoughModel(rp)
    f = multiply_by_Wdot(to_modelled(cp, args.alpha), 0)
    rr = reconstruct(f, model, daubechies_basis(4), args.trunc_level)
    rows = rr.error_certificate()
    out = args.out or "certificate.csv"
    with open(out, "w") as fh:
        fh.write("lambda,s,ratio\n")
        for lam, s, ratio in rows:
            fh.write(f"{lam:.17g},{s:.17g},{ratio:.17g}\n")
    worst = max(r for _, _, r in rows) if rows else 0.0
    return {"out": out, "gamma": f.gamma, "rows": len(rows), "max_ratio": worst}


def _cmd_solve(args) -> dict:
    path = read_path_csv(args.path_csv)
    rp = _make_lift(args, path, args.lift_mode)
    xi = np.array([float(v) for v in args.xi.split(",")])
    dim_driver = path.dim
    if dim_driver != 1:
        raise NumericFailure("builtin CLI functions drive scalar-noise equations; "
                             "use the API for matrix-valued F")
    F = builtin_descriptor(args.func, dim=xi.size)
    if xi.size > 1 and args.func != "linear":
        raise NumericFailure(f"builtin {args.func} is scalar; xi must be scalar")
    cfg = SolverConfig(alpha=args.alpha, beta=args.beta, integral_route=args.route)
    try:
        sol, diag = solve_rde(xi if xi.size > 1 else float(xi[0]), F, rp, cfg)
    except SolverError as exc:
        raise NumericFailure(str(exc)) from exc
    out = args.out or "solution.csv"
    d, n = sol.y.shape[1], sol.y_prime.shape[2]
    header = ("t," + ",".join(f"y{i+1}" for i in range(d)) + ","
              + ",".join(f"yp{i+1}{j+1}" for i in range(d) for j in range(n)))
    data = np.column_stack([path.grid.nodes, sol.y, sol.y_prime.reshape(len(sol.y), -1)])
    with open(out, "w") as fh:
        fh.write(header + "\n")
        for row in data:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    diag_out = args.diagnostics or (out.rsplit(".", 1)[0] + "_diag.json")
    with open(diag_out, "w") as fh:
        json.dump(diag, fh, default=float)
    return {"out": out, "diagnostics": diag_out,
            "final": [float(v) for v in sol.y[-1]],
            "residual": diag["residual"],
            "max_ratio": max((w["ratio"] for w in diag["windows"]), default=0.0)}


def _cmd_convergence(args) -> dict:
    data = np.genfromtxt(args.samples_csv, delimiter=",", skip_header=1, dtype=float)
    data = np.atleast_2d(data)
    if not np.isfinite(data).all():
        raise ValueError(f"{args.samples_csv}: non-finite or unparsable value")
    samples = [(float(r[0]), float(r[1])) for r in data]
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
