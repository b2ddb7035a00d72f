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
from pathlib import Path

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
