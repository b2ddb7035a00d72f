"""The library names the benchmark instruments, patches or calls must still resolve.

``perfbench/spans.py`` wraps each ``TARGETS`` entry for the traced run,
``perfbench/test_perfbench.py`` patches two ``cli`` names, and the workloads
and the sweep call the library through its modules; a rename in the library
would otherwise surface only when the benchmark runs.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _targets() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_resolves():
    for module, attr, _, _ in _targets():
        owner = importlib.import_module(f"roughstruct.{module}")
        if "." in attr:
            cls_name, method = attr.split(".")
            assert callable(getattr(owner, cls_name).__dict__.get(method)), (module, attr)
        else:
            assert callable(getattr(owner, attr, None)), (module, attr)


def test_patched_cli_names_resolve():
    cli = importlib.import_module("roughstruct.cli")
    assert callable(cli.rough_integral_path) and callable(cli.write_path_csv)


def _library_attributes(source: Path) -> list[tuple[str, str, int]]:
    """``(module, attribute, line)`` for every ``alias.attribute`` in ``source``
    whose alias is bound by ``import roughstruct [as rs]`` or ``from
    roughstruct import module``."""
    tree = ast.parse(source.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update({a.asname or a.name: a.name for a in node.names
                            if a.name.split(".")[0] == "roughstruct"})
        elif isinstance(node, ast.ImportFrom) and node.module == "roughstruct":
            aliases.update({a.asname or a.name: f"roughstruct.{a.name}" for a in node.names})
    return [(aliases[node.value.id], node.attr, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases]


@pytest.mark.parametrize("script", ["workloads.py", "sweep.py"])
def test_every_library_attribute_the_benchmark_uses_resolves(script):
    used = _library_attributes(PERFBENCH / script)
    assert used, script
    missing = [(module, attr, line) for module, attr, line in used
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == [], script


def test_every_sweep_case_runs_once(tmp_path, monkeypatch):
    # resolving the names misses a changed field type or signature, such as
    # the positional RoughPath(path, second, alpha) the sweep builds
    monkeypatch.syspath_prepend(str(PERFBENCH))  # the sweep imports run
    monkeypatch.chdir(tmp_path)  # where its file round trips write
    spec = importlib.util.spec_from_file_location("perfbench_sweep", PERFBENCH / "sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    for name, make in sweep._cases(seed=1).items():
        call = make(8)
        assert callable(call), (name, call)
        call()


def test_every_counter_counts_what_it_names(tmp_path, monkeypatch):
    # a counter that counted another thing (a level count for the coefficient
    # count, another file's bytes) would still resolve; each is compared with a
    # count taken beside it: the files' sizes, the index sets, and the windows
    # and Picard steps the solver ran
    from roughstruct import grids, roughpath, solver, wavelets
    from roughstruct.modelled import ControlledPath, builtin_descriptor, multiply_by_Wdot, to_modelled
    from roughstruct.structure import RoughModel

    windows, steps = [], []
    solve_window, step_core = solver._solve_window, solver._step_core
    monkeypatch.setattr(solver, "_solve_window", lambda *a: windows.append(1) or solve_window(*a))
    monkeypatch.setattr(solver, "_step_core", lambda *a: steps.append(1) or step_core(*a))

    path = grids.generate_path("fbm", grids.make_dyadic_grid(1.0, 8), hurst=0.45, seed=7)
    rp = roughpath.lift_piecewise_smooth(path, "linear", 0.45)
    csv, json_file = (str(tmp_path / name) for name in ("w.csv", "rp.json"))
    grids.write_path_csv(path, csv)
    roughpath.write_rough_path_json(rp, json_file, str(tmp_path / "rp_path.csv"))
    out_csv, out_json = (str(tmp_path / name) for name in ("out.csv", "out.json"))
    basis = wavelets.daubechies_basis(4)
    base, top = basis.min_base_level(), 6
    f = multiply_by_Wdot(to_modelled(
        ControlledPath(path.values, np.ones((path.grid.num_nodes, 1, 1)), path), 0.45), 0)
    calls = {  # attribute: (arguments, the counts expected once the call returned)
        "write_path_csv": ((path, out_csv), lambda: {"grids.csv_bytes": os.path.getsize(out_csv)}),
        "read_path_csv": ((csv,), lambda: {"grids.csv_bytes": os.path.getsize(csv)}),
        "write_rough_path_json": ((rp, out_json, str(tmp_path / "out_path.csv")),
                                  lambda: {"roughpath.json_bytes": os.path.getsize(out_json)}),
        "read_rough_path_json": ((json_file,),
                                 lambda: {"roughpath.json_bytes": os.path.getsize(json_file)}),
        "wavelet_coefficients": (
            (wavelets.StieltjesMeasure(path), basis, base, top),
            lambda: {"wavelets.coefficients": basis.index_set(base).size
                     + sum(basis.index_set(j).size for j in range(base, top + 1))}),
        "reconstruct": ((f, RoughModel(rp), basis, top),
                        lambda: {"reconstruction.scaling_coeffs": basis.index_set(top).size}),
        "solve_rde": ((1.0, builtin_descriptor("tanh"), rp,
                       solver.SolverConfig(alpha=0.45, beta=0.5)),
                      lambda: {"solver.windows": len(windows), "solver.picard_iters": len(steps)}),
    }
    counted = [(module, attr, counter) for module, attr, _, counter in _targets() if counter]
    assert sorted(attr for _, attr, _ in counted) == sorted(calls)
    for module, attr, counter in counted:
        args, want = calls[attr]
        result = getattr(importlib.import_module(f"roughstruct.{module}"), attr)(*args)
        assert counter(args, {}, result) == want(), attr
