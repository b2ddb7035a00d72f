"""Byte-for-byte checks of every file the CLI writes.

The reference is the row-by-row ``f"{v:.17g}"`` formatter that the
vectorised table writer replaced; every CSV must match it byte for byte,
the rough-path JSON must match ``json.dump`` of its three keys, and its
tensor table ``np.save`` of the tensors.  Every file goes through
``write_output``, which rewrites a file in place and cuts it to length,
keeping what ``open(name, "wb")`` keeps.
"""

from __future__ import annotations

import io
import json
import os
import stat

import numpy as np
import pytest

import roughstruct.cli as cli
import roughstruct.roughpath
import roughstruct.solver
from roughstruct import grids
from roughstruct import (
    RoughPath,
    SampledPath,
    generate_path,
    lift_piecewise_smooth,
    make_dyadic_grid,
    read_rough_path_json,
    write_path_csv,
    write_rough_path_json,
)
from roughstruct.grids import TABLE_BLOCK_ROWS, write_output, write_table
from roughstruct.reconstruction import ReconstructionResult

HORIZON = 1.13
EXTREMES = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, -5e-324)


def _reference_table(header: str, data) -> bytes:
    out = io.StringIO()
    out.write(header + "\n")
    for row in data:
        out.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return out.getvalue().encode()


def _reference_path_csv(path: SampledPath) -> bytes:
    header = "t," + ",".join(f"x{i + 1}" for i in range(path.dim))
    return _reference_table(header, np.column_stack([path.grid.nodes, path.values]))


def _reference_npy(a: np.ndarray) -> bytes:
    out = io.BytesIO()
    np.save(out, a)
    return out.getvalue()


def _reference_json(rp: RoughPath, path_csv: str, second_npy: str) -> bytes:
    out = io.StringIO()
    json.dump({"alpha": rp.alpha, "path_csv": path_csv, "second_order_npy": second_npy}, out)
    return out.getvalue().encode()


def _with_extremes(a: np.ndarray) -> np.ndarray:
    flat = a.reshape(-1).copy()
    flat[1 : 1 + len(EXTREMES)] = EXTREMES
    return flat.reshape(a.shape)


def _run(*argv) -> None:
    assert cli.main(["--json", *map(str, argv)]) == 0


def _spy(monkeypatch, owner, name: str) -> list:
    """Record every result of ``owner.name`` while the test runs."""
    results = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(owner, name, recorded)
    return results


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_path_csv_matches_row_formatter(tmp_path, dim):
    grid = make_dyadic_grid(HORIZON, 6)
    values = np.random.default_rng(dim).standard_normal((grid.num_nodes, dim)) * 10.0 ** np.arange(dim)
    path = SampledPath(grid, _with_extremes(values))
    out = tmp_path / "w.csv"
    write_path_csv(path, str(out))
    assert out.read_bytes() == _reference_path_csv(path)


def test_path_csv_longer_than_one_block_matches_row_formatter(tmp_path):
    grid = make_dyadic_grid(HORIZON, 17)
    assert grid.num_nodes > 2 * TABLE_BLOCK_ROWS
    path = generate_path("fbm", grid, dim=1, hurst=0.5, seed=3)
    out = tmp_path / "w.csv"
    write_path_csv(path, str(out))
    assert out.read_bytes() == _reference_path_csv(path)


def _extreme_rough_path(dim: int) -> RoughPath:
    grid = make_dyadic_grid(HORIZON, 6)
    path = generate_path("fbm", grid, dim=dim, hurst=0.5, seed=dim)
    inc = _with_extremes(lift_piecewise_smooth(path, "linear", 0.45).second)
    return RoughPath(path, inc, 0.45)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_rough_path_json_matches_json_dump(tmp_path, dim):
    rp = _extreme_rough_path(dim)
    json_file, csv_file = tmp_path / "rp.json", tmp_path / "rp_path.csv"
    second_npy = write_rough_path_json(rp, str(json_file), str(csv_file))
    assert second_npy == str(tmp_path / "rp_second.npy")
    assert json_file.read_bytes() == _reference_json(rp, "rp_path.csv", "rp_second.npy")
    assert csv_file.read_bytes() == _reference_path_csv(rp.path)
    # the tensor table is np.save's file, and holds the extremes unchanged
    assert (tmp_path / "rp_second.npy").read_bytes() == _reference_npy(rp.second)
    back = read_rough_path_json(str(json_file)).second
    assert np.array_equal(back, rp.second)
    assert np.array_equal(np.signbit(back), np.signbit(rp.second))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_rough_path_round_trip_is_bit_exact(tmp_path, dim):
    rp = _extreme_rough_path(dim)
    write_rough_path_json(rp, str(tmp_path / "rp.json"), str(tmp_path / "rp_path.csv"))
    back = read_rough_path_json(str(tmp_path / "rp.json"))
    assert back.alpha == rp.alpha
    assert back.path.values.tobytes() == rp.path.values.tobytes()
    assert back.second.tobytes() == rp.second.tobytes()


@pytest.mark.parametrize("horizon", [1.0, HORIZON])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cli_lift_to_chen_round_trip_is_bit_exact(tmp_path, monkeypatch, dim, horizon):
    read = _spy(monkeypatch, roughstruct.roughpath, "read_rough_path_json")
    w, rp_json = tmp_path / "w.csv", tmp_path / "rp.json"
    _run("--grid-level", 7, "--horizon", horizon, "--seed", dim, "--out", w,
         "gen", "--kind", "fbm", "--dim", dim)
    _run("--out", rp_json, "lift", w)
    _run("chen", rp_json)
    (back,) = read
    lifted = lift_piecewise_smooth(grids.read_path_csv(str(w)), "linear", 0.45)
    assert back.second.tobytes() == lifted.second.tobytes()
    assert back.path.values.tobytes() == lifted.path.values.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cli_solution_csv_matches_row_formatter(tmp_path, monkeypatch, d):
    solves = _spy(monkeypatch, roughstruct.solver, "solve_rde")
    w, out = tmp_path / "t.csv", tmp_path / "sol.csv"
    _run("--grid-level", 7, "--horizon", HORIZON, "--out", w,
         "gen", "--kind", "polynomial", "--coeffs=0.3,1")
    _run("--horizon", HORIZON, "--out", out, "solve", w, "--F", "linear",
         "--xi", ",".join(str(i + 1) for i in range(d)))
    (sol, _), = solves
    nodes = make_dyadic_grid(HORIZON, 7).nodes
    n = sol.y_prime.shape[2]
    header = ("t," + ",".join(f"y{i+1}" for i in range(d)) + ","
              + ",".join(f"yp{i+1}{j+1}" for i in range(d) for j in range(n)))
    data = np.column_stack([nodes, sol.y, sol.y_prime.reshape(len(sol.y), -1)])
    assert out.read_bytes() == _reference_table(header, data)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cli_certificates_match_row_formatter(tmp_path, monkeypatch, dim):
    defects = _spy(monkeypatch, cli, "three_point_defect")
    rows = _spy(monkeypatch, ReconstructionResult, "error_certificate")
    w, cert, recon = tmp_path / "w.csv", tmp_path / "cert.csv", tmp_path / "recon.csv"
    _run("--grid-level", 9, "--horizon", HORIZON, "--seed", dim, "--out", w,
         "gen", "--kind", "fbm", "--dim", dim)
    _run("--out", tmp_path / "I.csv", "integrate", w, "--certificate", cert)
    _run("--out", recon, "reconstruct", w)
    (defect,), (certificate,) = defects, rows
    assert cert.read_bytes() == _reference_table("scale,error", defect)
    assert recon.read_bytes() == _reference_table("lambda,s,ratio", certificate)


@pytest.mark.parametrize("d", [1, 2])
def test_cli_diagnostics_json_matches_json_dump(tmp_path, monkeypatch, d):
    solves = _spy(monkeypatch, roughstruct.solver, "solve_rde")
    w, out = tmp_path / "t.csv", tmp_path / "sol.csv"
    _run("--grid-level", 7, "--out", w, "gen", "--kind", "polynomial", "--coeffs=0.3,1")
    _run("--out", out, "solve", w, "--F", "linear", "--xi", ",".join(["1.5"] * d))
    (_, diag), = solves
    reference = io.StringIO()
    json.dump(diag, reference, default=float)
    assert (tmp_path / "sol_diag.json").read_bytes() == reference.getvalue().encode()


# ---------------------------------------------------------------------------
# the one writer rewrites in place and cuts to length, as open(name, "wb") would


def _rows(n: int) -> np.ndarray:
    return np.random.default_rng(n).standard_normal((n, 2)) * 1e3


def test_shorter_rewrite_leaves_no_stale_tail(tmp_path):
    out = tmp_path / "t.csv"
    write_table(str(out), "a,b", _rows(3000))
    write_table(str(out), "a,b", _rows(5))
    assert out.read_bytes() == _reference_table("a,b", _rows(5))


def test_rewrite_keeps_inode_mode_and_hard_links(tmp_path):
    out, link = tmp_path / "t.csv", tmp_path / "link.csv"
    write_table(str(out), "a,b", _rows(300))
    os.chmod(out, 0o640)
    os.link(out, link)
    inode = out.stat().st_ino
    write_table(str(out), "a,b", _rows(40))
    assert out.stat().st_ino == inode and stat.S_IMODE(out.stat().st_mode) == 0o640
    assert link.read_bytes() == out.read_bytes() == _reference_table("a,b", _rows(40))


def test_first_write_mode_matches_open(tmp_path):
    old = os.umask(0o027)
    try:
        write_output(str(tmp_path / "new"), [b"x"])
        with open(tmp_path / "by_open", "wb"):
            pass
    finally:
        os.umask(old)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("new", "by_open")}
    assert modes == {0o666 & ~0o027}


def test_symlinked_output_updates_its_target(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"9" * 100_000)
    link.symlink_to(target)
    write_table(str(link), "a,b", _rows(7))
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == _reference_table("a,b", _rows(7))


def test_devnull_is_an_output():
    write_table(os.devnull, "a,b", _rows(3000))
    write_output(os.devnull, [b"{}"])


def test_error_mid_write_leaves_the_bytes_written(tmp_path, monkeypatch):
    out = tmp_path / "t.csv"
    out.write_bytes(b"9" * 2**20)  # an older, longer file
    original, cells = grids.format_g17, []

    def fail_second_call(v, width):
        cells.append(len(v))
        if len(cells) == 2:
            raise RuntimeError("formatter failed")
        return original(v, width)

    monkeypatch.setattr(grids, "format_g17", fail_second_call)
    with pytest.raises(RuntimeError, match="formatter failed"):
        write_table(str(out), "a,b", _rows(3000))
    assert out.read_bytes() == _reference_table("a,b", _rows(3000)[: cells[0] // 2])
