"""The library names the benchmark instruments or patches must still resolve.

``perfbench/spans.py`` wraps each ``TARGETS`` entry for the traced run and
``perfbench/test_perfbench.py`` patches two ``cli`` names; a rename in the
library would otherwise surface only when the benchmark runs.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
