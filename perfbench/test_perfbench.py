"""Tests of the benchmark itself, on every workload shrunk by three grid levels.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import time

import pytest

import run

run.load_program()

import roughstruct.cli  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SHIFT = -3
SEED = 5


def _bench(capsys, name: str, trace: int) -> dict:
    assert run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0.1",
                     "--trace", str(trace)], level_shift=SHIFT) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def traced():
    return {}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(capsys, traced, name, trace):
    result = _bench(capsys, name, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, m["name"]
    assert result["correct"] and result["failed"] == 0
    ops = len(workloads.WORKLOADS[name](SEED, SHIFT).ops)
    assert result["attempted"] % ops == 0 and result["attempted"] >= (3 if trace else 2) * ops
    if trace:
        traced[name] = result["metrics"]


def test_every_layer_metric_is_measured_somewhere(traced):
    if len(traced) != len(SPEC["workloads"]):
        pytest.skip("needs the traced run of every workload")
    for m in SPEC["per_layer"]:
        if m["name"] != "trace.overhead":
            assert any(metrics[m["name"]]["value"] > 0 for metrics in traced.values()), m["name"]


def test_corrupted_output_counts_as_failure(capsys, monkeypatch):
    original = roughstruct.cli.rough_integral_path

    def corrupted(cp, rp):
        time.sleep(0.05)
        return original(cp, rp) * 1.01

    monkeypatch.setattr(roughstruct.cli, "rough_integral_path", corrupted)
    result = _bench(capsys, "wavelet_recon_j13", 0)
    iterations = result["attempted"] // len(workloads.wavelet_recon(SEED, SHIFT).ops)
    # the rough-Riemann integral fails the route-gap check in every iteration,
    # and its time still counts
    assert not result["correct"] and result["failed"] == iterations
    assert result["metrics"]["pipeline_s"]["value"] >= 0.05


def test_output_that_changes_between_iterations_counts_as_failure(capsys, monkeypatch):
    original = roughstruct.cli.write_path_csv

    def stamped(path, filename):
        original(path, filename)
        with open(filename, "a") as fh:
            fh.write(f"# {time.perf_counter_ns()}\n")

    monkeypatch.setattr(roughstruct.cli, "write_path_csv", stamped)
    result = _bench(capsys, "fbm_riemann_j12", 0)
    assert not result["correct"] and result["failed"] > 0
