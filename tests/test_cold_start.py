"""Cold-start guards: each fresh interpreter loads only what it runs.

Every CLI command is a new process, so a module imported but unused is paid
on every invocation.  These tests run fresh interpreters and list the
``roughstruct`` modules (and numpy) that ended up loaded.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roughstruct

SRC = str(Path(roughstruct.__file__).resolve().parent.parent)
HEAVY = {f"roughstruct.{m}" for m in
         ("modelled", "structure", "roughpath", "reconstruction", "wavelets", "solver")}


def _last_line(code: str, cwd: Path) -> str:
    """The last line a fresh interpreter running ``code`` prints."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1]


def _loaded_after(code: str, cwd: Path) -> set[str]:
    """The ``roughstruct`` modules, and ``numpy``, loaded in a fresh interpreter after ``code``."""
    report = ("import sys; print(*(m for m in sys.modules "
              "if m == 'numpy' or m.split('.')[0] == 'roughstruct'))")
    return set(_last_line(f"{code}\n{report}", cwd).split())


def _tables_after(code: str, cwd: Path) -> list[str]:
    """The arrays besides the filter that the one basis ``code`` built holds after it."""
    report = ("from roughstruct import wavelets\n"
              "assert wavelets._daubechies_basis.cache_info().currsize == 1\n"
              "print(*sorted(k for k, v in wavelets.daubechies_basis(4).__dict__.items()\n"
              "              if hasattr(v, 'shape') and k != 'scaling_filter'))")
    return _last_line(f"{code}\n{report}", cwd).split()


def test_import_loads_no_submodule_and_no_numpy(tmp_path):
    assert _loaded_after("import roughstruct", tmp_path) == {"roughstruct"}


def test_every_public_name_resolves_to_its_submodule():
    for name in roughstruct.__all__:
        obj = getattr(roughstruct, name)
        home = importlib.import_module(f"roughstruct.{roughstruct._HOME[name]}")
        assert obj is getattr(home, name), name
    assert set(roughstruct.__all__) <= set(dir(roughstruct))
    assert {"grids", "wavelets", "__version__"} <= set(dir(roughstruct))
    with pytest.raises(AttributeError):
        getattr(roughstruct, "no_such_name")


def test_db4_basis_loads_only_wavelets(tmp_path):
    code = "import roughstruct; roughstruct.daubechies_basis(4)"
    assert _loaded_after(code, tmp_path) - {"numpy"} == {"roughstruct", "roughstruct.wavelets"}


def test_light_commands_skip_heavy_modules(tmp_path):
    (tmp_path / "s.csv").write_text("scale,error\n" + "".join(f"{2.0**-k},{4.0**-k}\n" for k in range(6)))
    commands = {
        "gen": ["--grid-level", "8", "--out", "w.csv", "gen", "--kind", "fbm", "--dim", "2"],
        "holder": ["holder", "w.csv"],
        "convergence": ["convergence", "s.csv"],
    }
    for name, argv in commands.items():
        loaded = _loaded_after(f"from roughstruct import cli\nassert cli.main({argv!r}) == 0", tmp_path)
        assert "roughstruct.cli" in loaded and not loaded & HEAVY, (name, sorted(loaded))


def test_wavelet_commands_leave_the_mother_tables_unbuilt(tmp_path):
    # the lift, the rough integral, the reconstruction and the RDE solve pair
    # jets with phi only, and psi and its primitive are made from phi's tables
    # at the level each caller reads, so no call leaves a table besides phi's two
    from roughstruct import cli

    assert cli.main(["--grid-level", "8", "--out", str(tmp_path / "w.csv"),
                     "gen", "--kind", "sin_cos"]) == 0
    commands = {
        "lift": ["--out", "rp.json", "lift", "w.csv", "--mode", "wavelet"],
        "integrate": ["--out", "I.csv", "integrate", "w.csv", "--route", "rough-wavelet"],
        "reconstruct": ["--out", "cert.csv", "reconstruct", "w.csv"],
        "solve": ["--out", "sol.csv", "solve", "w.csv", "--route", "wavelet"],
    }
    for name, argv in commands.items():
        code = f"from roughstruct import cli\nassert cli.main({argv!r}) == 0"
        assert _tables_after(code, tmp_path) == ["_phi", "_phi_cum"], name
    code = ("from roughstruct import grids, reconstruction, wavelets\n"
            "xi = wavelets.StieltjesMeasure(grids.read_path_csv('w.csv'))\n"
            "reconstruction.antiderivative_from_distribution(xi)\n"
            "basis = wavelets.daubechies_basis(4)\n"
            "basis.evaluate('mother', 0.3), basis.integral('mother', [0.1, 0.7])")
    assert _tables_after(code, tmp_path) == ["_phi", "_phi_cum"]
