from __future__ import annotations

import json

import numpy as np
import pytest

from roughstruct.cli import main
from roughstruct.grids import read_path_csv
from roughstruct.integration import young_integral


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


def _set_index(k, value):
    return lambda payload: payload["second_order"][k].__setitem__(0, value)


def _set_tensor(k, value):
    return lambda payload: payload["second_order"][k].__setitem__(1, value)


# each corruption of a J = 4 rough-path file (16 intervals, dim 2)
_JSON_DEFECTS = {
    "missing-alpha": lambda payload: payload.pop("alpha"),
    "missing-path_csv": lambda payload: payload.pop("path_csv"),
    "missing-second_order": lambda payload: payload.pop("second_order"),
    "index-99": _set_index(3, 99),
    "index-negative": _set_index(3, -1),
    "index-not-integer": _set_index(3, 2.5),
    "interval-duplicated": _set_index(3, 2),
    "intervals-missing": lambda payload: payload.__setitem__(
        "second_order", payload["second_order"][:3]),
    "tensor-short": _set_tensor(5, [0.0, 0.0, 0.0]),
    "tensor-nan": _set_tensor(5, [0.0, float("nan"), 0.0, 0.0]),
    "tensor-text": _set_tensor(5, ["a", 0.0, 0.0, 0.0]),
}


@pytest.mark.parametrize("defect", list(_JSON_DEFECTS))
def test_malformed_rough_path_json_exits_one(tmp_path, capsys, defect):
    w = tmp_path / "w.csv"
    rp = tmp_path / "rp.json"
    _run(capsys, "--grid-level", "4", "--out", str(w), "gen", "--kind", "sin_cos", "--dim", "2")
    _run(capsys, "--out", str(rp), "lift", str(w), "--mode", "linear")
    code, _ = _run(capsys, "--json", "chen", str(rp))
    assert code == 0
    payload = json.loads(rp.read_text())
    _JSON_DEFECTS[defect](payload)
    rp.write_text(json.dumps(payload))
    code, out = _run(capsys, "--json", "chen", str(rp))
    assert code == 1
    assert str(rp) in json.loads(out)["error"]


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
