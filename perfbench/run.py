"""roughstruct benchmark: one workload, closed loop, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``roughstruct`` is imported from
its ``src/``.  One client runs the workload's pipeline iterations back to
back: one untimed warm-up iteration, then iterations until ``--seconds``
have passed.  Every operation's output is checked in every iteration.
Metric names and units come from ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics: the median pipeline time,
the median set-up time of a fresh interpreter (``import roughstruct`` plus
``daubechies_basis(4)``, which every CLI invocation pays) and the peak RSS
of this process.  ``--trace 1`` alternates untraced and traced iterations
and reports per-layer self times and counts per traced iteration, with the
tracing overhead and coverage.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 7
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import roughstruct; roughstruct.daubechies_basis(4)")


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path and import roughstruct from it."""
    if not (SRC / "roughstruct" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no roughstruct sources under {SRC}")
    # the worker-thread cap stays at its default of one
    os.environ.pop("ROUGHSTRUCT_THREADS", None)
    sys.path.insert(0, str(SRC))
    import roughstruct

    if Path(roughstruct.__file__).resolve().parent != (SRC / "roughstruct").resolve():
        raise SystemExit(f"perfbench: roughstruct imported from {roughstruct.__file__}, not {SRC}")


def _openblas_threads() -> int | None:
    import ctypes

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_threads": _openblas_threads(),
    }


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters that import roughstruct and build the db4 basis.

    The first spawn is untimed: it fills the bytecode cache, which an
    installed package already has.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    times = []
    for i in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        if i:
            times.append(time.perf_counter() - start)
    return times


class Runner:
    """Runs the operations of one workload and counts attempts and failures."""

    def __init__(self, work) -> None:
        self.work = work
        self.attempted = 0
        self.failed = 0
        self._digests: dict[str, str] = {}

    def _outputs_changed(self, op) -> str | None:
        for name in op.outs:
            digest = hashlib.sha256(Path(name).read_bytes()).hexdigest()
            if self._digests.setdefault(name, digest) != digest:
                return f"{name} is not byte-identical to the first iteration's"
        return None

    def iteration(self, recorder=None) -> float:
        """One pass over the operations; returns their summed wall time.

        A failed operation still counts in the time; preparation and checks
        are untimed.
        """
        elapsed = 0.0
        for op in self.work.ops:
            self.attempted += 1
            try:
                arg = op.prep() if op.prep is not None else None
                span = (recorder.span(op.span) if recorder is not None and op.span
                        else contextlib.nullcontext())
                if recorder is not None:
                    recorder.active = True
                start = time.perf_counter()
                try:
                    with span:
                        result = op.run(arg)
                finally:
                    elapsed += time.perf_counter() - start
                    if recorder is not None:
                        recorder.active = False
                error = op.check(result) if op.check is not None else None
                error = error or self._outputs_changed(op)
            except Exception:
                error = traceback.format_exc()
            if error:
                self.failed += 1
                print(f"perfbench: FAILED {op.name}: {error}", file=sys.stderr)
        return elapsed


def _until(seconds: float, step) -> None:
    """Repeat ``step`` for about ``seconds``: at least once, and no new step
    once less than half of the last one's duration is left."""
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        step()
        now = time.perf_counter()
        if now + (now - start) / 2 >= deadline:
            return


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[float]]:
    setup = measure_setup()
    runner.iteration()  # warm-up
    times: list[float] = []
    _until(seconds, lambda: times.append(runner.iteration()))
    values = {
        "pipeline_s": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, times


def per_layer(runner: Runner, seconds: float) -> tuple[dict, list[float]]:
    import spans

    recorder = spans.Recorder()
    runner.iteration()  # warm-up
    plain: list[float] = []
    traced: list[float] = []

    def pair() -> None:
        plain.append(runner.iteration())
        with spans.instrument(recorder):
            traced.append(runner.iteration(recorder))

    _until(seconds, pair)
    n = len(traced)
    self_s, calls = recorder.self_times()
    values = {f"{name}.s": t / n for name, t in self_s.items()}
    values.update({f"{name}.calls": c / n for name, c in calls.items()})
    values.update({name: c / n for name, c in recorder.counts.items()})
    values["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    values["trace.coverage"] = sum(self_s.values()) / sum(traced)
    values.update({f"accuracy.{k}": v for k, v in runner.work.accuracy.items()})
    return values, traced


def main(argv: list[str] | None = None, level_shift: int = 0) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    load_program()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    runner = Runner(workloads.WORKLOADS[args.workload](args.seed, level_shift))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        measure = per_layer if args.trace else end_to_end
        values, times = measure(runner, args.seconds)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    print(f"perfbench: {args.workload} seed {args.seed}: {len(times)} "
          f"{'traced ' if args.trace else ''}iterations after one warm-up, "
          f"pipeline times {[round(t, 4) for t in times]} s")
    print(f"perfbench: error_rate {runner.failed}/{runner.attempted} operations; "
          f"accuracy {runner.work.accuracy}; environment {environment()}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
