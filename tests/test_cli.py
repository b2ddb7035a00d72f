from __future__ import annotations

import json
import re

import numpy as np
import pytest

import roughstruct.cli as cli
from roughstruct.cli import main
from roughstruct.grids import read_path_csv
from roughstruct.integration import young_integral
from roughstruct.roughpath import read_rough_path_json


def _run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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


@pytest.mark.parametrize("command, flag", [
    ("lift", "--mode"),
    ("integrate", "--lift-mode"),
    ("reconstruct", "--lift-mode"),
    ("solve", "--lift-mode"),
])
def test_unknown_lift_mode_exits_one(capsys, command, flag):
    assert main([command, "w.csv", flag, "spline"]) == 1
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


def _drop_key(key):
    def corrupt(rp_json, second_csv):
        payload = json.loads(rp_json.read_text())
        payload.pop(key)
        rp_json.write_text(json.dumps(payload))
        return rp_json
    return corrupt


def _edit_rows(edit):
    """Corrupt the tensor CSV: ``edit`` changes its data rows (lists of cells) in place."""
    def corrupt(rp_json, second_csv):
        header, *rows = [line.split(",") for line in second_csv.read_text().splitlines()]
        edit(rows)
        second_csv.write_text("".join(",".join(cells) + "\n" for cells in [header, *rows]))
        return second_csv
    return corrupt


def _set_cell(k, column, cell):
    return _edit_rows(lambda rows: rows[k].__setitem__(column, cell))


# each corruption of a J = 4 rough-path file (16 intervals, dim 2): the JSON
# loses a key, or the tensor CSV ("k,ww11,ww12,ww21,ww22") a row or a cell
_JSON_DEFECTS = {
    "missing-alpha": _drop_key("alpha"),
    "missing-path_csv": _drop_key("path_csv"),
    "missing-second_order": _drop_key("second_order_csv"),
    "index-99": _set_cell(3, 0, "99"),
    "index-negative": _set_cell(3, 0, "-1"),
    "index-not-integer": _set_cell(3, 0, "2.5"),
    "interval-duplicated": _set_cell(3, 0, "2"),
    "intervals-missing": _edit_rows(lambda rows: rows.__delitem__(slice(3, None))),
    "tensor-short": _edit_rows(lambda rows: rows[5].pop()),
    "tensor-nan": _set_cell(5, 2, "nan"),
    "tensor-text": _set_cell(5, 1, "a"),
}


@pytest.mark.parametrize("defect", list(_JSON_DEFECTS))
def test_malformed_rough_path_json_exits_one(tmp_path, capsys, defect):
    w = tmp_path / "w.csv"
    rp = tmp_path / "rp.json"
    _run(capsys, "--grid-level", "4", "--out", str(w), "gen", "--kind", "sin_cos", "--dim", "2")
    _, out = _run(capsys, "--json", "--out", str(rp), "lift", str(w), "--mode", "linear")
    second_csv = tmp_path / "rp_second.csv"
    assert json.loads(out)["second_order_csv"] == str(second_csv)
    code, _ = _run(capsys, "--json", "chen", str(rp))
    assert code == 0
    corrupted = _JSON_DEFECTS[defect](rp, second_csv)
    code, out = _run(capsys, "--json", "chen", str(rp))
    assert code == 1
    assert str(corrupted) in json.loads(out)["error"]


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
        "--route", "young", "--y-csv", str(y), "--y-prime-csv", str(y),
    )
    assert code == 0
    assert json.loads(text)["final"][0] == pytest.approx(2.0 / 3.0, abs=1e-3)
    # every node is the left-point sum over its own window [0, t_k]
    w_path, y_path = read_path_csv(str(w)), read_path_csv(str(y))
    got = read_path_csv(str(out)).values[:, 0]
    want = [young_integral(y_path, w_path, 0, k)[0] for k in range(w_path.grid.num_nodes)]
    assert np.abs(got - want).max() <= 1e-12


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
