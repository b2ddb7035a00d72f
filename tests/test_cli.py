from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import roughstruct
import roughstruct.cli as cli
from roughstruct import grids, roughpath
from roughstruct.cli import main
from roughstruct.grids import read_path_csv
from roughstruct.roughpath import read_rough_path_json


def _run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _process(cwd, *argv, **env) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, with ``env`` added to its environment."""
    src = str(Path(roughstruct.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "roughstruct.cli", *argv], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path, **env}, capture_output=True)


def test_gen_writes_expected_rows(tmp_path, capsys):
    out = tmp_path / "w.csv"
    code, _ = _run(
        capsys, "--grid-level", "8", "--out", str(out),
        "gen", "--kind", "sin_cos", "--dim", "2",
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 258  # header + 2^8 + 1 nodes
    assert lines[0] == "t,x1,x2"


def test_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        code, _ = _run(
            capsys, "--grid-level", "7", "--seed", "5", "--out", str(out),
            "gen", "--kind", "fbm", "--hurst", "0.4",
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_error_exits_one(capsys):
    assert main(["gen", "--kind", "nonsense"]) == 1


@pytest.mark.parametrize("command, flag, mode", [
    pytest.param("lift", "--mode", "spline", id="lift---mode"),
    pytest.param("integrate", "--lift-mode", "spline", id="integrate---lift-mode"),
    pytest.param("reconstruct", "--lift-mode", "spline", id="reconstruct---lift-mode"),
    pytest.param("solve", "--lift-mode", "spline", id="solve---lift-mode"),
    # only lift has the --coeffs a polynomial lift needs
    ("integrate", "--lift-mode", "polynomial"),
    ("reconstruct", "--lift-mode", "polynomial"),
    ("solve", "--lift-mode", "polynomial"),
])
def test_unknown_lift_mode_exits_one(capsys, command, flag, mode):
    assert main([command, "w.csv", flag, mode]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_holder_report(tmp_path, capsys):
    w = tmp_path / "w.csv"
    _run(capsys, "--grid-level", "8", "--out", str(w),
         "gen", "--kind", "polynomial", "--coeffs", "0,1")
    code, out = _run(capsys, "--alpha", "1.0", "--json", "holder", str(w))
    assert code == 0
    payload = json.loads(out)
    assert payload["seminorm"] == pytest.approx(1.0)


def test_lift_then_chen_pipeline(tmp_path, capsys):
    w = tmp_path / "w.csv"
    rp = tmp_path / "rp.json"
    _run(capsys, "--grid-level", "8", "--out", str(w),
         "gen", "--kind", "sin_cos", "--dim", "2")
    code, _ = _run(capsys, "--alpha", "0.45", "--out", str(rp),
                   "lift", str(w), "--mode", "wavelet")
    assert code == 0
    code, out = _run(capsys, "--json", "chen", str(rp))
    assert code == 0
    payload = json.loads(out)
    assert payload["defect"] <= 1e-8


def test_chen_violation_exits_two(tmp_path, capsys):
    # interval-tensor storage is Chen-consistent by construction, so the
    # report can only fail against a tolerance; drive it below round-off
    w = tmp_path / "w.csv"
    rp = tmp_path / "rp.json"
    _run(capsys, "--grid-level", "6", "--out", str(w),
         "gen", "--kind", "sin_cos", "--dim", "2")
    _run(capsys, "--out", str(rp), "lift", str(w), "--mode", "linear")
    code, out = _run(capsys, "--json", "chen", str(rp), "--tol", "1e-30")
    assert code == 2
    assert "error" in json.loads(out)


def _exit_and_error(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["inf", "nan"])
def test_gen_rejects_non_finite_horizon(tmp_path, capsys, horizon):
    # an infinite horizon wrote nan node rows that every reader refuses
    code, err = _exit_and_error(capsys, "--horizon", horizon, "--out", str(tmp_path / "w.csv"),
                                "gen", "--kind", "sin_cos")
    assert code == 1 and "horizon must be finite and positive" in err
    assert not (tmp_path / "w.csv").exists()


@pytest.mark.parametrize("argv, option", [
    (["--kind", "polynomial", "--coeffs=nan,1"], "--coeffs"),
    (["--kind", "piecewise_linear", "--knots", "0:1;1:nan"], "--knots"),
    (["--kind", "piecewise_linear", "--knots", "0:1;inf:2"], "--knots"),
    (["--kind", "polynomial", "--coeffs=1e308,1e308"], "--coeffs"),
    (["--kind", "piecewise_linear", "--knots", "0:-1e308;1:1e308"], "--knots"),
], ids=["nan-coeff", "nan-knot-value", "inf-knot-time", "coeffs-overflow", "knots-overflow"])
def test_gen_refuses_non_finite_values(tmp_path, capsys, argv, option):
    # nan cells were written, and overflow wrote inf cells with a RuntimeWarning
    # (an error under this suite's warning filter): every reader refused them
    out = tmp_path / "w.csv"
    code, text = _run(capsys, "--json", "--grid-level", "4", "--out", str(out), "gen", *argv)
    assert code == 1 and option in json.loads(text)["error"]
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_chen_rejects_non_finite_or_negative_tolerance(tmp_path, capsys, tol):
    # nan passed every defect and printed "tolerance": NaN, which is not JSON
    w, rp = tmp_path / "w.csv", tmp_path / "rp.json"
    _run(capsys, "--grid-level", "6", "--out", str(w), "gen", "--kind", "sin_cos", "--dim", "2")
    _run(capsys, "--out", str(rp), "lift", str(w))
    code, err = _exit_and_error(capsys, "chen", str(rp), "--tol", tol)
    assert code == 1 and "--tol must be finite and non-negative" in err


@pytest.mark.parametrize("xi", ["nan", "inf", "abc", "1,,2", ""])
def test_solve_rejects_unparsable_or_non_finite_xi(tmp_path, capsys, xi):
    # nan and inf failed as "window at node 0 failed to contract" (exit 2)
    w = tmp_path / "w.csv"
    _run(capsys, "--grid-level", "6", "--out", str(w), "gen", "--kind", "sin_cos")
    code, err = _exit_and_error(capsys, "--out", str(tmp_path / "sol.csv"), "solve", str(w),
                                "--xi", xi)
    assert code == 1 and "--xi takes comma-separated finite numbers" in err
    assert not (tmp_path / "sol.csv").exists()


# argv after ``--out``; {w1} is a 1-D path, {w2} a 2-D one
_USAGE_ERRORS = {
    "zero-dim": (["gen", "--kind", "sin_cos", "--dim", "0"], "dim must be at least 1, got 0"),
    "polynomial-without-coeffs": (["gen", "--kind", "polynomial"], "polynomial kind needs coeffs"),
    "piecewise-linear-without-knots": (["gen", "--kind", "piecewise_linear"],
                                       "piecewise_linear kind needs knots"),
    "knots-out-of-order": (["gen", "--kind", "piecewise_linear", "--knots", "0:0;0.7:3;0.3:1;1:1"],
                           "knot times must strictly increase, got [0.0, 0.7, 0.3, 1.0]"),
    "knots-repeated": (["gen", "--kind", "piecewise_linear", "--knots", "0:0;0.5:3;0.5:1;1:1"],
                       "knot times must strictly increase, got [0.0, 0.5, 0.5, 1.0]"),
    "y-csv-without-y-prime": (["integrate", "{w1}", "--y-csv", "{w1}"],
                              "--y-csv requires --y-prime-csv"),
    "young-certificate": (["integrate", "{w1}", "--route", "young", "--certificate", "{cert}"],
                          "the Young route has no three-point certificate"),
    "multi-column-driver": (["solve", "{w2}"], "builtin CLI functions drive scalar-noise"),
    "scalar-F-vector-xi": (["solve", "{w1}", "--F", "tanh", "--xi", "1,2"],
                           "builtin tanh is scalar; xi must be scalar"),
}


@pytest.mark.parametrize("case", list(_USAGE_ERRORS))
def test_usage_errors_exit_one(tmp_path, capsys, monkeypatch, case):
    # gen --dim 0 exited 0, writing rows every reader refused; the others
    # exited 2 as numeric failures.  None builds a lift or writes a file.
    w1, w2, cert, out = (tmp_path / f for f in ("w1.csv", "w2.csv", "cert.csv", "out.csv"))
    _run(capsys, "--grid-level", "6", "--out", str(w1), "gen", "--kind", "sin_cos")
    _run(capsys, "--grid-level", "6", "--out", str(w2), "gen", "--kind", "sin_cos", "--dim", "2")
    lifts = []
    monkeypatch.setattr(cli, "_make_lift", lambda *args: lifts.append(args))
    argv, message = _USAGE_ERRORS[case]
    code, err = _exit_and_error(capsys, "--out", str(out),
                                *(a.format(w1=w1, w2=w2, cert=cert) for a in argv))
    assert code == 1 and f"error: {message}" in err
    assert lifts == [] and not out.exists() and not cert.exists()


@pytest.mark.parametrize("scale", ["0", "-0.25"])
def test_convergence_rejects_non_positive_scale(tmp_path, capsys, scale):
    # 0 failed inside LAPACK ("SVD did not converge"), -0.25 as too few octaves
    samples = tmp_path / "samples.csv"
    rows = [f"{2.0**-k},{2.0**(-2*k)}" for k in range(6)]
    rows[3] = f"{scale},0.01"
    samples.write_text("\n".join(["scale,error"] + rows) + "\n")
    code, err = _exit_and_error(capsys, "convergence", str(samples))
    assert code == 1 and f"scales must be positive, got [{float(scale)}]" in err


def _drop_key(key):
    def corrupt(rp_json, second_npy):
        payload = json.loads(rp_json.read_text())
        payload.pop(key)
        rp_json.write_text(json.dumps(payload))
        return rp_json
    return corrupt


def _write_bytes(make):
    """Corrupt the tensor table: ``make`` maps its bytes to the bytes put at its name."""
    def corrupt(rp_json, second_npy):
        second_npy.write_bytes(make(second_npy.read_bytes()))
        return second_npy
    return corrupt


def _save(edit, save=np.save, **kwargs):
    """The tensor table rewritten by ``save`` (``np.save``) of ``edit(tensors)``."""
    def make(raw):
        out = io.BytesIO()
        save(out, edit(np.load(io.BytesIO(raw))), **kwargs)
        return out.getvalue()
    return _write_bytes(make)


def _set_cell(value):
    return _save(lambda inc: np.where(np.arange(inc.size).reshape(inc.shape) == 5, value, inc))


# each corruption of a J = 4 rough-path file (16 intervals, dim 2): the JSON
# loses a key, or the tensor table ((16, 2, 2) "<f8" as .npy) is not one
_JSON_DEFECTS = {
    "missing-alpha": _drop_key("alpha"),
    "missing-path_csv": _drop_key("path_csv"),
    "missing-second_order": _drop_key("second_order_npy"),
    "npy-empty": _write_bytes(lambda raw: b""),
    "tensor-short": _write_bytes(lambda raw: raw[:-8]),
    "tensor-text": _write_bytes(lambda raw: b"k,ww11,ww12,ww21,ww22\n0,0,0,0,0\n"),
    "npy-pickled": _save(lambda inc: inc.astype(object), allow_pickle=True),
    "npz-archive": _save(lambda inc: inc, save=np.savez),
    "tensor-float32": _save(lambda inc: inc.astype(np.float32)),
    "tensor-big-endian": _save(lambda inc: inc.astype(">f8")),
    "intervals-missing": _save(lambda inc: inc[1:]),
    "tensor-flat": _save(lambda inc: inc.reshape(len(inc), -1)),
    "tensor-wide": _save(lambda inc: np.zeros((len(inc), 3, 3))),
    "tensor-nan": _set_cell(np.nan),
    "tensor-inf": _set_cell(-np.inf),
    "tensor-huge-header": _write_bytes(lambda raw: _npy_header((2**50,)) + raw[-64:]),
}


def _npy_header(shape) -> bytes:
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, {"shape": shape, "fortran_order": False, "descr": "<f8"})
    return out.getvalue()


@pytest.mark.parametrize("defect", list(_JSON_DEFECTS))
def test_malformed_rough_path_json_exits_one(tmp_path, capsys, defect):
    w = tmp_path / "w.csv"
    rp = tmp_path / "rp.json"
    _run(capsys, "--grid-level", "4", "--out", str(w), "gen", "--kind", "sin_cos", "--dim", "2")
    _, out = _run(capsys, "--json", "--out", str(rp), "lift", str(w), "--mode", "linear")
    second_npy = tmp_path / "rp_second.npy"
    assert json.loads(out)["second_order_npy"] == str(second_npy)
    code, _ = _run(capsys, "--json", "chen", str(rp))
    assert code == 0
    corrupted = _JSON_DEFECTS[defect](rp, second_npy)
    code, out = _run(capsys, "--json", "chen", str(rp))
    assert code == 1
    assert str(corrupted) in json.loads(out)["error"]


def test_tensor_csv_json_exits_one(tmp_path, capsys):
    # the form lift wrote before the tensor table was .npy: "second_order_csv"
    # names a CSV "k,ww11,...,wwnn" of one row per interval
    w, rp, second_csv = tmp_path / "w.csv", tmp_path / "rp.json", tmp_path / "rp_second.csv"
    _run(capsys, "--grid-level", "2", "--out", str(w), "gen", "--kind", "sin_cos", "--dim", "1")
    second_csv.write_text("k,ww11\n" + "".join(f"{k},0\n" for k in range(4)))
    rp.write_text(json.dumps({"alpha": 0.45, "path_csv": str(w), "second_order_csv": str(second_csv)}))
    code, out = _run(capsys, "--json", "chen", str(rp))
    assert code == 1
    error = json.loads(out)["error"]
    assert str(rp) in error and "re-run lift" in error


@pytest.mark.parametrize("names", [
    {"path_csv": 5, "second_order_npy": None}, {"second_order_npy": 5},
    {"path_csv": ["rp_path.csv"]},
], ids=["number-and-null", "number", "list"])
def test_non_string_table_names_exit_one(tmp_path, capsys, names):
    w, rp = tmp_path / "w.csv", tmp_path / "rp.json"
    _run(capsys, "--grid-level", "2", "--out", str(w), "gen", "--kind", "sin_cos", "--dim", "1")
    _run(capsys, "--out", str(rp), "lift", str(w))
    rp.write_text(json.dumps({**json.loads(rp.read_text()), **names}))
    code, out = _run(capsys, "--json", "chen", str(rp))
    assert code == 1
    assert str(rp) in json.loads(out)["error"]


def test_tables_named_from_another_directory_exit_one(tmp_path, capsys, monkeypatch):
    # the names an older lift wrote were the paths it was given, relative to
    # its cwd; read against the JSON's directory they name no file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    _run(capsys, "--grid-level", "2", "--out", "w.csv", "gen", "--kind", "sin_cos", "--dim", "1")
    _run(capsys, "--out", "out/rp.json", "lift", "w.csv")
    Path("out/rp.json").write_text(json.dumps(
        {"alpha": 0.45, "path_csv": "out/rp_path.csv", "second_order_npy": "out/rp_second.npy"}))
    code, out = _run(capsys, "--json", "chen", "out/rp.json")
    assert code == 1
    assert os.path.join("out", "out", "rp_path.csv") in json.loads(out)["error"]


def test_inline_second_order_json_exits_one(tmp_path, capsys):
    # the older one-file form: the tensors inline as [[k, row-major n*n], ...]
    w = tmp_path / "w.csv"
    rp = tmp_path / "rp.json"
    _run(capsys, "--grid-level", "2", "--out", str(w), "gen", "--kind", "sin_cos", "--dim", "1")
    rp.write_text(json.dumps({"alpha": 0.45, "path_csv": str(w),
                              "second_order": [[k, [0.0]] for k in range(4)]}))
    code, out = _run(capsys, "--json", "chen", str(rp))
    assert code == 1
    assert str(rp) in json.loads(out)["error"]
    with pytest.raises(ValueError, match=re.escape(str(rp))):
        read_rough_path_json(str(rp))


def _count_calls(monkeypatch, name: str) -> list:
    """Record the file name of every call of the ``grids`` function ``name``,
    under each binding of it in the package."""
    calls, original = [], getattr(grids, name)

    def counted(filename, *args):
        calls.append(os.path.basename(filename))
        return original(filename, *args)

    for module in (grids, roughpath, cli):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_only_the_path_is_a_csv_table_of_a_rough_path(tmp_path, capsys, monkeypatch):
    # the tensors are one .npy table: lift writes, and chen reads, the path
    # CSV alone through the CSV functions
    w, rp = tmp_path / "w.csv", tmp_path / "rp.json"
    _run(capsys, "--grid-level", "5", "--out", str(w), "gen", "--kind", "fbm", "--dim", "2")
    writes, reads = _count_calls(monkeypatch, "write_table"), _count_calls(monkeypatch, "read_table")
    assert _run(capsys, "--out", str(rp), "lift", str(w))[0] == 0
    assert writes == ["rp_path.csv"]
    reads.clear()
    assert _run(capsys, "chen", str(rp))[0] == 0
    assert reads == ["rp_path.csv"]


@pytest.mark.parametrize("cell", ["abc", "nan", "inf", ""])
def test_non_finite_csv_value_exits_one(tmp_path, capsys, cell):
    w = tmp_path / "w.csv"
    _run(capsys, "--grid-level", "4", "--out", str(w), "gen", "--kind", "sin_cos", "--dim", "2")
    lines = w.read_text().splitlines()
    lines[5] = ",".join(lines[5].split(",")[:2] + [cell])
    w.write_text("\n".join(lines) + "\n")
    code, out = _run(capsys, "--json", "--alpha", "0.5", "holder", str(w))
    assert code == 1
    assert str(w) in json.loads(out)["error"]


# whole-table defects: no data row, fewer than 2 columns, a ragged row
_TABLE_DEFECTS = {
    "empty": lambda lines: [],
    "header-only": lambda lines: lines[:1],
    "one-column": lambda lines: [line.split(",")[0] for line in lines],
    "ragged": lambda lines: lines[:5] + [",".join(lines[5].split(",")[:-1])] + lines[6:],
}


@pytest.mark.parametrize("defect", list(_TABLE_DEFECTS))
@pytest.mark.parametrize("command", ["holder", "convergence"])
def test_malformed_table_exits_one(tmp_path, capsys, command, defect):
    w = tmp_path / "w.csv"
    _run(capsys, "--grid-level", "4", "--out", str(w), "gen", "--kind", "sin_cos", "--dim", "2")
    lines = _TABLE_DEFECTS[defect](w.read_text().splitlines())
    w.write_text("".join(line + "\n" for line in lines))
    code, out = _run(capsys, "--json", "--alpha", "0.5", command, str(w))
    assert code == 1
    assert str(w) in json.loads(out)["error"]


# grid defects: TimeGrid's own refusal (a last t <= 0) came out without the file name
_GRID_DEFECTS = {
    "zero-horizon": lambda lines: lines[:-1] + [",".join(["0"] + lines[-1].split(",")[1:])],
    "negative-horizon": lambda lines: lines[:-1] + [",".join(["-1"] + lines[-1].split(",")[1:])],
    "15-intervals": lambda lines: lines[:-1],
    "moved-node": lambda lines: lines[:5] + [",".join(["0.3"] + lines[5].split(",")[1:])] + lines[6:],
}


@pytest.mark.parametrize("defect", list(_GRID_DEFECTS))
def test_path_table_off_a_dyadic_grid_exits_one(tmp_path, capsys, defect):
    w = tmp_path / "w.csv"
    _run(capsys, "--grid-level", "4", "--out", str(w), "gen", "--kind", "sin_cos", "--dim", "2")
    lines = _GRID_DEFECTS[defect](w.read_text().splitlines())
    w.write_text("".join(line + "\n" for line in lines))
    code, out = _run(capsys, "--json", "--alpha", "0.5", "holder", str(w))
    assert code == 1
    assert json.loads(out)["error"].startswith(f"{w}: ")


@pytest.mark.parametrize("cell", ["abc", ""])
def test_convergence_unparsable_sample_exits_one(tmp_path, capsys, cell):
    samples = tmp_path / "samples.csv"
    rows = [f"{2.0**-k},{2.0**(-2*k)}" for k in range(5)]
    rows[2] = f"{2.0**-2},{cell}"
    samples.write_text("\n".join(["scale,error"] + rows) + "\n")
    code, out = _run(capsys, "--json", "convergence", str(samples))
    assert code == 1
    assert str(samples) in json.loads(out)["error"]


def test_integrate_routes_agree(tmp_path, capsys):
    w = tmp_path / "w.csv"
    _run(capsys, "--grid-level", "10", "--out", str(w),
         "gen", "--kind", "sin_cos", "--dim", "2")
    finals = {}
    for route in ("rough-riemann", "rough-wavelet"):
        out = tmp_path / f"{route}.csv"
        code, text = _run(
            capsys, "--json", "--alpha", "0.45", "--out", str(out),
            "integrate", str(w), "--route", route, "--lift-mode", "sin_cos",
        )
        assert code == 0
        finals[route] = np.array(json.loads(text)["final"])
    assert np.allclose(finals["rough-riemann"], finals["rough-wavelet"], atol=2e-3)


def test_young_integrate(tmp_path, capsys):
    w = tmp_path / "w.csv"
    _run(capsys, "--grid-level", "10", "--out", str(w),
         "gen", "--kind", "polynomial", "--coeffs", "0,0,1")
    y = tmp_path / "y.csv"
    _run(capsys, "--grid-level", "10", "--out", str(y),
         "gen", "--kind", "polynomial", "--coeffs", "0,1")
    out = tmp_path / "I.csv"
    code, text = _run(
        capsys, "--json", "--out", str(out), "integrate", str(w),
        "--route", "young", "--y-csv", str(y),
    )
    assert code == 0
    assert json.loads(text)["final"][0] == pytest.approx(2.0 / 3.0, abs=1e-3)
    # every node is the left-point sum over its own window [0, t_k]
    dw = read_path_csv(str(w)).increments()[:, 0]
    y_vals = read_path_csv(str(y)).values[:, 0]
    got = read_path_csv(str(out)).values[:, 0]
    want = np.array([dw[:k] @ y_vals[:k] for k in range(len(got))])
    assert np.abs(got - want).max() <= 1e-12


def test_young_integrate_does_not_read_y_prime(tmp_path, capsys):
    # y' plays no part in a Young sum: a --y-prime-csv that does not exist is
    # not opened, and the integral is the one without it
    w, y = tmp_path / "w.csv", tmp_path / "y.csv"
    _run(capsys, "--grid-level", "6", "--out", str(w), "gen", "--kind", "fbm", "--dim", "2")
    _run(capsys, "--grid-level", "6", "--out", str(y), "gen", "--kind", "sin_cos")
    texts = []
    for extra in ([], ["--y-prime-csv", str(tmp_path / "missing.csv")]):
        out = tmp_path / f"I{len(texts)}.csv"
        code, _ = _run(capsys, "--out", str(out), "integrate", str(w), "--route", "young",
                       "--y-csv", str(y), *extra)
        assert code == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("route", ["rough-riemann", "rough-wavelet"])
def test_rough_routes_refuse_y_csv_alone(tmp_path, capsys, route):
    w = tmp_path / "w.csv"
    _run(capsys, "--grid-level", "6", "--out", str(w), "gen", "--kind", "sin_cos")
    code, err = _exit_and_error(capsys, "--out", str(tmp_path / "I.csv"), "integrate", str(w),
                                "--route", route, "--y-csv", str(w))
    assert code == 1 and "error: --y-csv requires --y-prime-csv" in err
    assert not (tmp_path / "I.csv").exists()


@pytest.mark.parametrize("route", ["rough-riemann", "rough-wavelet"])
def test_rough_routes_refuse_y_prime_csv_alone(tmp_path, capsys, route):
    # the default integrand was integrated and a --y-prime-csv that does not exist never opened
    w = tmp_path / "w.csv"
    _run(capsys, "--grid-level", "6", "--out", str(w), "gen", "--kind", "sin_cos")
    code, err = _exit_and_error(capsys, "--out", str(tmp_path / "I.csv"), "integrate", str(w),
                                "--route", route, "--y-prime-csv", str(tmp_path / "missing.csv"))
    assert code == 1 and "error: --y-prime-csv requires --y-csv" in err
    assert not (tmp_path / "I.csv").exists()


@pytest.mark.parametrize("route", ["rough-riemann", "rough-wavelet"])
def test_integrate_a_user_integrand_on_the_rough_routes(tmp_path, capsys, monkeypatch, route):
    # --y-csv with --y-prime-csv against a dim-2 driver: the CLI writes the
    # library's integral of the same controlled path on the linear lift
    from roughstruct import (ControlledPath, lift_piecewise_smooth, rough_integral_path,
                             wavelet_rough_integral)

    monkeypatch.chdir(tmp_path)
    _run(capsys, "--grid-level", "8", "--seed", "4", "--out", "w.csv",
         "gen", "--kind", "fbm", "--dim", "2", "--hurst", "0.45")
    w = read_path_csv("w.csv")
    w1 = w.values[:, 0]
    grids.write_path_csv(grids.SampledPath(w.grid, np.sin(w1)), "y.csv")
    grids.write_path_csv(grids.SampledPath(w.grid, np.column_stack([np.cos(w1), 0.5 * w1])), "yp.csv")
    code, _ = _run(capsys, "--out", "I.csv", "integrate", "w.csv", "--route", route,
                   "--y-csv", "y.csv", "--y-prime-csv", "yp.csv")
    assert code == 0
    yp = read_path_csv("yp.csv").values[:, None, :]
    cp = ControlledPath(read_path_csv("y.csv").values[:, 0], yp, w)
    rp = lift_piecewise_smooth(w, "linear", 0.45)
    expected = (rough_integral_path(cp, rp) if route == "rough-riemann"
                else wavelet_rough_integral(cp, rp).values)
    assert np.array_equal(read_path_csv("I.csv").values, expected)


_OFF_DRIVER = {  # --y-csv, --y-prime-csv, the file refused
    "y-on-0-2": ("long.csv", "w.csv", "long.csv"),
    "y-two-columns": ("y2.csv", "w.csv", "y2.csv"),
    "y-prime-on-0-2": ("y.csv", "long.csv", "long.csv"),
    "y-prime-two-columns": ("y.csv", "y2.csv", "y2.csv"),
}


@pytest.mark.parametrize("route, case", [
    *(("young", case) for case in ("y-on-0-2", "y-two-columns")),  # the Young route reads no y'
    *((route, case) for route in ("rough-riemann", "rough-wavelet") for case in _OFF_DRIVER),
])
def test_integrate_refuses_an_integrand_off_the_driver(tmp_path, capsys, monkeypatch, route, case):
    # a 65-node integrand on [0, 2] was integrated against a driver on [0, 1],
    # and a second value column of --y-csv was dropped
    monkeypatch.chdir(tmp_path)
    for name, pre, post in [("w", [], []), ("y", [], []), ("y2", [], ["--dim", "2"]),
                            ("long", ["--horizon", "2"], [])]:
        code, _ = _run(capsys, "--grid-level", "6", *pre, "--out", f"{name}.csv",
                       "gen", "--kind", "sin_cos", *post)
        assert code == 0
    y, y_prime, refused = _OFF_DRIVER[case]
    code, err = _exit_and_error(capsys, "--out", "I.csv", "integrate", "w.csv", "--route", route,
                                "--y-csv", y, "--y-prime-csv", y_prime)
    assert code == 1 and err.startswith(f"error: {refused}")
    assert not (tmp_path / "I.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["--kind", "polynomial", "--dim", "3", "--coeffs", "0,1"],
     "--dim 3 does not match dim 1 of --coeffs or --knots"),
    (["--kind", "polynomial", "--dim", "1", "--coeffs", "0,1;1,0,2"],
     "--dim 1 does not match dim 2 of --coeffs or --knots"),
    (["--kind", "piecewise_linear", "--dim", "1", "--knots", "0:0,1;1:1,2"],
     "--dim 1 does not match dim 2 of --coeffs or --knots"),
    (["--kind", "piecewise_linear", "--dim", "3", "--knots", "0:0,1;1:1,2"],
     "--dim 3 does not match dim 2 of --coeffs or --knots"),
])
def test_gen_refuses_a_dim_the_data_does_not_have(tmp_path, capsys, argv, message):
    # --dim 3 --coeffs 0,1 wrote one column and reported dim 1
    out = tmp_path / "w.csv"
    code, err = _exit_and_error(capsys, "--grid-level", "4", "--out", str(out), "gen", *argv)
    assert code == 1 and f"error: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--kind", "polynomial", "--coeffs", "0,1;1,0,2"],
    ["--kind", "polynomial", "--dim", "2", "--coeffs", "0,1;1,0,2"],
    ["--kind", "piecewise_linear", "--knots", "0:0,1;1:1,2"],
    ["--kind", "piecewise_linear", "--dim", "2", "--knots", "0:0,1;1:1,2"],
])
def test_gen_dim_follows_the_data(tmp_path, capsys, argv):
    out = tmp_path / "w.csv"
    code, text = _run(capsys, "--json", "--grid-level", "4", "--out", str(out), "gen", *argv)
    assert code == 0 and json.loads(text)["dim"] == 2
    assert read_path_csv(str(out)).dim == 2


def test_solve_exponential(tmp_path, capsys):
    w = tmp_path / "w.csv"
    _run(capsys, "--grid-level", "10", "--out", str(w),
         "gen", "--kind", "polynomial", "--coeffs", "0,1")
    sol = tmp_path / "sol.csv"
    diag = tmp_path / "diag.json"
    code, text = _run(
        capsys, "--json", "--out", str(sol), "solve", str(w),
        "--F", "linear", "--xi", "1", "--diagnostics", str(diag),
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["final"][0] == pytest.approx(np.e, abs=1e-3)
    assert payload["max_ratio"] < 1.0
    diag_payload = json.loads(diag.read_text())
    assert diag_payload["windows"]
    header = sol.read_text().splitlines()[0]
    assert header == "t,y1,yp11"


def test_wavelet_solve_below_base_level_exits_two(tmp_path, capsys):
    # at J = 3 the first window has 2 intervals, below db4's base level of 4
    w = tmp_path / "w.csv"
    _run(capsys, "--grid-level", "3", "--out", str(w), "gen", "--kind", "sin_cos")
    code, text = _run(capsys, "--json", "--out", str(tmp_path / "sol.csv"), "solve", str(w),
                      "--F", "tanh", "--route", "wavelet")
    assert code == 2
    message = json.loads(text)["error"]
    assert "base level 2" in message and "riemann route" in message


def test_reconstruct_certificate(tmp_path, capsys):
    w = tmp_path / "w.csv"
    _run(capsys, "--grid-level", "10", "--out", str(w),
         "gen", "--kind", "sin_cos", "--dim", "2")
    cert = tmp_path / "cert.csv"
    code, text = _run(
        capsys, "--json", "--alpha", "0.45", "--out", str(cert),
        "reconstruct", str(w), "--lift-mode", "sin_cos",
    )
    assert code == 0
    lines = cert.read_text().splitlines()
    assert lines[0] == "lambda,s,ratio"
    assert len(lines) > 10


def test_convergence_fit(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    rows = ["scale,error"] + [f"{2.0**-k},{2.0**(-2*k)}" for k in range(8)]
    samples.write_text("\n".join(rows) + "\n")
    code, text = _run(capsys, "--json", "convergence", str(samples))
    assert code == 0
    payload = json.loads(text)
    assert payload["slope"] == pytest.approx(2.0, abs=0.01)


@pytest.mark.parametrize("route", ["rough-riemann", "rough-wavelet"])
def test_three_point_defect_only_with_certificate(tmp_path, capsys, monkeypatch, route):
    calls = []
    original = cli.three_point_defect

    def counted(*args, **kwargs):
        calls.append(route)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "three_point_defect", counted)
    w = tmp_path / "w.csv"
    _run(capsys, "--grid-level", "8", "--out", str(w), "gen", "--kind", "sin_cos", "--dim", "2")
    argv = ["--out", str(tmp_path / "I.csv"), "integrate", str(w), "--route", route]
    assert _run(capsys, *argv)[0] == 0 and calls == []
    cert = tmp_path / "cert.csv"
    assert _run(capsys, *argv, "--certificate", str(cert))[0] == 0
    assert calls == [route] and cert.read_text().startswith("scale,error\n")


@pytest.mark.parametrize("route", ["rough-riemann", "rough-wavelet"])
@pytest.mark.parametrize("level", ["0", "1"])
def test_certificate_refused_below_grid_level_two(tmp_path, capsys, level, route):
    # such a grid has no aligned pair of length >= 2 intervals: the certificate
    # was a header-only table, which `convergence` refused ("needs data rows")
    w, out, cert = (tmp_path / f for f in ("w.csv", "I.csv", "cert.csv"))
    _run(capsys, "--grid-level", level, "--out", str(w), "gen", "--kind", "sin_cos")
    code, err = _exit_and_error(capsys, "--out", str(out), "integrate", str(w), "--route", route,
                                "--certificate", str(cert))
    assert code == 1 and f"--certificate: three-point defects need grid level >= 2, got {level}" in err
    assert not out.exists() and not cert.exists()


def test_cached_parser_matches_fresh_parsers(tmp_path, capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    w, samples = tmp_path / "w.csv", tmp_path / "s.csv"
    samples.write_text("scale,error\n" + "".join(f"{2.0**-k},{2.0**-k}\n" for k in range(6)))
    sequence = [
        ["--grid-level", "6", "--seed", "3", "--out", str(w), "gen", "--kind", "fbm"],
        ["--json", "--alpha", "0.4", "holder", str(w)],
        ["gen", "--kind", "nonsense"],
        ["--json", "convergence", str(samples), "--drop-coarsest", "1"],
        ["holder", str(tmp_path / "missing.csv")],
        ["--grid-level", "7", "--out", str(w), "gen", "--kind", "sin_cos", "--dim", "2"],
        [],
        ["holder", str(w)],
        ["--json", "convergence", str(samples)],
    ]

    def outcomes() -> list:
        results = []
        for argv in sequence:
            code = main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err, w.read_bytes()))
        return results

    cached = outcomes()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert outcomes() == cached
    assert [code for code, *_ in cached] == [0, 0, 1, 0, 1, 0, 1, 0, 0]


# sibling files: lift writes <stem>_path.csv and <stem>_second.npy beside its
# JSON, solve <stem>_diag.json beside its solution, <stem> from os.path.splitext;
# a stem cut at the last dot put them in the cwd for a dotted directory


def _assert_only_these_in_the_cwd(cwd, *files) -> None:
    assert all(os.path.isfile(cwd / name) for name in files)
    top = {os.path.normpath(name).split(os.sep)[0] for name in files}
    assert sorted(p.name for p in cwd.iterdir()) == sorted(top | {"res.v2"})


@pytest.mark.parametrize("out, stem", [
    ("res.v2/rp", "res.v2/rp"), ("./rp", "./rp"), ("res.v2/rp.json", "res.v2/rp"),
])
def test_lift_writes_its_tables_beside_the_json(tmp_path, capsys, monkeypatch, out, stem):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "res.v2").mkdir()
    _run(capsys, "--grid-level", "5", "--out", "w.csv", "gen", "--kind", "sin_cos", "--dim", "2")
    code, text = _run(capsys, "--json", "--out", out, "lift", "w.csv")
    assert code == 0
    payload = json.loads(text)
    assert (payload["path_csv"], payload["second_order_npy"]) == (stem + "_path.csv",
                                                                  stem + "_second.npy")
    _assert_only_these_in_the_cwd(tmp_path, "w.csv", out, stem + "_path.csv", stem + "_second.npy")
    back = read_rough_path_json(out)
    assert np.array_equal(back.path.values, read_path_csv("w.csv").values)


@pytest.mark.parametrize("out, diag", [
    ("res.v2/sol", "res.v2/sol_diag.json"), ("./sol", "./sol_diag.json"),
    ("res.v2/sol.csv", "res.v2/sol_diag.json"),
])
def test_solve_writes_its_diagnostics_beside_the_solution(tmp_path, capsys, monkeypatch, out, diag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "res.v2").mkdir()
    _run(capsys, "--grid-level", "5", "--out", "w.csv", "gen", "--kind", "polynomial", "--coeffs=0,1")
    code, text = _run(capsys, "--json", "--out", out, "solve", "w.csv")
    assert code == 0 and json.loads(text)["diagnostics"] == diag
    assert json.loads((tmp_path / diag).read_text())["windows"]
    _assert_only_these_in_the_cwd(tmp_path, "w.csv", out, diag)


def _files_under(root) -> set:
    return {os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs}


# all but gen wrote the outputs named before the bad one, then exited 1
@pytest.mark.parametrize("argv, bad", [
    (["--out", "d/", "gen", "--kind", "sin_cos"], "d/"),
    (["--out", "d/", "lift", "w.csv"], "d/"),
    (["--out", "sol.csv", "solve", "w.csv", "--diagnostics", "d/"], "d/"),
    (["--out", "d", "lift", "w.csv"], "d"),
    (["--out", "I.csv", "integrate", "w.csv", "--certificate", "d/"], "d/"),
    (["--out", "sol.csv", "solve", "w.csv", "--diagnostics", "no/dir/diag.json"],
     "no/dir/diag.json"),
], ids=["gen", "lift", "solve", "lift-stem", "integrate-certificate", "missing-directory"])
def test_output_naming_a_directory_exits_one(tmp_path, capsys, monkeypatch, argv, bad):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    _run(capsys, "--grid-level", "4", "--out", "w.csv", "gen", "--kind", "sin_cos")
    before = _files_under(tmp_path)
    code, err = _exit_and_error(capsys, "--grid-level", "4", *argv)
    assert code == 1 and err.startswith("error: ") and f"'{bad}'" in err
    assert _files_under(tmp_path) == before


@pytest.mark.parametrize("argv", [
    ["--out", "I.csv", "integrate", "w.csv", "--certificate", "I.csv"],
    ["--out", "I.csv", "integrate", "w.csv", "--certificate", "./I.csv"],
    ["--out", "s.csv", "solve", "w.csv", "--diagnostics", "s.csv"],
    ["--out", "s.csv", "solve", "w.csv", "--diagnostics", "./s.csv"],
], ids=["integrate", "integrate-dot-slash", "solve", "solve-dot-slash"])
def test_two_outputs_naming_one_file_exit_one(tmp_path, capsys, monkeypatch, argv):
    # the second write replaced the first: I.csv held the certificate table,
    # s.csv the diagnostics JSON, and the payload reported both
    monkeypatch.chdir(tmp_path)
    _run(capsys, "--grid-level", "4", "--out", "w.csv", "gen", "--kind", "polynomial", "--coeffs=0,1")
    before = _files_under(tmp_path)
    code, err = _exit_and_error(capsys, "--grid-level", "4", *argv)
    assert code == 1 and err.startswith("error: ") and "name one output file" in err
    assert _files_under(tmp_path) == before


@pytest.mark.parametrize("argv", [
    ["integrate", "w.csv", "--lift-mode", "sin_cos"],
    ["lift", "w.csv", "--mode", "sin_cos"],
    ["lift", "w.csv", "--mode", "polynomial", "--coeffs", "0,1"],
], ids=["integrate-sin_cos", "lift-sin_cos", "lift-polynomial"])
def test_closed_form_lift_of_another_path_exits_one(tmp_path, capsys, monkeypatch, argv):
    # the closed-form tensors never read the samples: an fBm path got the
    # sin/cos area and passed chen
    monkeypatch.chdir(tmp_path)
    _run(capsys, "--grid-level", "6", "--out", "w.csv", "gen", "--kind", "fbm")
    before = _files_under(tmp_path)
    code, err = _exit_and_error(capsys, "--out", "out.json", *argv)
    mode = argv[argv.index("--mode" if "--mode" in argv else "--lift-mode") + 1]
    assert code == 1 and f"{mode} lift" in err
    assert _files_under(tmp_path) == before


@pytest.mark.parametrize("kind, option, value", [
    *((kind, "--coeffs", "nan") for kind in ("sin_cos", "fbm", "piecewise_linear")),
    *((kind, "--knots", "0:1;1:2") for kind in ("sin_cos", "fbm", "polynomial")),
    *((kind, "--hurst", "7") for kind in ("sin_cos", "polynomial", "piecewise_linear")),
])
def test_gen_refuses_an_option_its_kind_does_not_use(tmp_path, capsys, kind, option, value):
    # gen --kind sin_cos --coeffs nan exited 0: --coeffs, --knots and --hurst
    # were ignored unparsed for the kinds that do not use them
    out = tmp_path / "w.csv"
    code, err = _exit_and_error(capsys, "--grid-level", "4", "--out", str(out),
                                "gen", "--kind", kind, f"{option}={value}")
    assert code == 1 and f"error: {option} is for --kind " in err and kind in err
    assert not out.exists()


def test_lift_refuses_an_overflowing_polynomial_without_a_warning(tmp_path, capsys):
    # numpy's "RuntimeWarning: overflow encountered in add" came before the refusal
    _run(capsys, "--grid-level", "4", "--out", str(tmp_path / "w.csv"),
         "gen", "--kind", "polynomial", "--coeffs", "0,1")
    proc = _process(tmp_path, "lift", "w.csv", "--mode", "polynomial", "--coeffs=1e308,1e308")
    assert proc.returncode == 1
    assert proc.stderr.decode() == ("error: polynomial lift: the path is not the polynomial "
                                    "generator's on its grid\n")


def test_reconstruct_certificate_is_independent_of_blas_threads(tmp_path, capsys):
    # BLAS's ddot and dgemv split their sums over threads, so the certificate
    # moved in the last digits between one and two OpenBLAS threads
    _run(capsys, "--grid-level", "8", "--seed", "3", "--out", str(tmp_path / "w.csv"),
         "gen", "--kind", "fbm", "--hurst", "0.4")
    certificates = []
    for threads in ("1", "2"):
        out = f"cert{threads}.csv"
        proc = _process(tmp_path, "--out", out, "reconstruct", "w.csv",
                        OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        certificates.append((tmp_path / out).read_bytes())
    assert certificates[0] == certificates[1]


@pytest.mark.parametrize("mode, coeffs", [("linear", "0,1"), ("sin_cos", "1"), ("wavelet", "0,1")])
def test_lift_refuses_coeffs_its_mode_does_not_use(tmp_path, capsys, mode, coeffs):
    # lift --mode linear --coeffs 0,1 exited 0 and ignored --coeffs
    _run(capsys, "--grid-level", "4", "--out", str(tmp_path / "w.csv"), "gen", "--kind", "sin_cos")
    rp = tmp_path / "rp.json"
    code, err = _exit_and_error(capsys, "--out", str(rp), "lift", str(tmp_path / "w.csv"),
                                "--mode", mode, f"--coeffs={coeffs}")
    assert code == 1 and f"error: --coeffs is for --mode polynomial, not {mode}" in err
    assert not rp.exists()


@pytest.mark.parametrize("drop", ["-1", "5", "-7"])
def test_convergence_refuses_a_drop_that_leaves_no_fit(tmp_path, capsys, drop):
    # -1 and 5 printed "slope": Infinity with exit 0, -7 dropped nothing
    samples = tmp_path / "s.csv"
    samples.write_text("scale,error\n" + "".join(f"{4.0**-k},{2.0**-k}\n" for k in range(6)))
    assert json.loads(_run(capsys, "--json", "convergence", str(samples),
                           "--drop-coarsest", "4")[1])["slope"] == pytest.approx(0.5)
    code, err = _exit_and_error(capsys, "convergence", str(samples), f"--drop-coarsest={drop}")
    assert code == 1 and f"error: drop_coarsest must be in [0, 4], got {drop}" in err


@pytest.mark.parametrize("alpha, message", [
    (0.9, "alpha must be in (1/3, 1/2], got 0.9"),
    ("0.4", "alpha is not a number"),
    (True, "alpha is not a number"),
])
def test_rough_path_json_alpha_is_a_number_in_range(tmp_path, capsys, alpha, message):
    # 0.9 was refused without naming the file, "0.4" and true were read as numbers
    w, rp = tmp_path / "w.csv", tmp_path / "rp.json"
    _run(capsys, "--grid-level", "4", "--out", str(w), "gen", "--kind", "sin_cos", "--dim", "2")
    _run(capsys, "--out", str(rp), "lift", str(w))
    rp.write_text(json.dumps({**json.loads(rp.read_text()), "alpha": alpha}))
    with pytest.raises(ValueError) as exc:
        read_rough_path_json(str(rp))
    assert str(exc.value) == f"{rp}: {message}"
    code, err = _exit_and_error(capsys, "chen", str(rp))
    assert code == 1 and f"error: {rp}: {message}" in err
