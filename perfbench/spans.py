"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files.  For the duration of a
traced iteration, each listed public function of ``roughstruct`` is
replaced, in every ``roughstruct`` module namespace that holds it, by a
wrapper that records a span around the call; listed methods are replaced
on their class.  A span stores its parent's id, and a layer's self time
is its spans' durations minus the durations of their direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _file_bytes(counter: str, path_arg: int):
    return lambda args, kwargs, result: {counter: os.path.getsize(args[path_arg])}


def _solver_windows(args, kwargs, result) -> dict[str, float]:
    windows = result[1]["windows"]
    return {"solver.windows": len(windows), "solver.picard_iters": sum(w["iters"] for w in windows)}


def _route_span(args, kwargs) -> str:
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[3]
    return f"solver.picard_step.{cfg.integral_route}"


# (module, attribute, span name or callable(args, kwargs) -> name,
#  None or callable(args, kwargs, result) -> {counter: increment}).
# Attributes with a dot are methods, replaced on their class.
TARGETS = [
    ("grids", "generate_path", "grids.generate_path", None),
    ("grids", "holder_seminorm", "grids.holder_seminorm", None),
    ("grids", "write_path_csv", "grids.write_path_csv", _file_bytes("grids.csv_bytes", 1)),
    ("grids", "read_path_csv", "grids.read_path_csv", _file_bytes("grids.csv_bytes", 0)),
    ("wavelets", "daubechies_basis", "wavelets.daubechies_basis", None),
    ("wavelets", "cascade_evaluate", "wavelets.cascade_evaluate", None),
    ("wavelets", "wavelet_coefficients", "wavelets.wavelet_coefficients",
     lambda a, k, table: {"wavelets.coefficients": len(table.phi) + len(table.psi)}),
    ("roughpath", "lift_piecewise_smooth", "roughpath.lift_piecewise_smooth", None),
    ("roughpath", "chen_defect", "roughpath.chen_defect", None),
    ("roughpath", "rough_path_seminorm", "roughpath.rough_path_seminorm", None),
    ("roughpath", "RoughPath.pairs", "roughpath.pairs", None),
    ("roughpath", "write_rough_path_json", "roughpath.write_rough_path_json",
     _file_bytes("roughpath.json_bytes", 1)),
    ("roughpath", "read_rough_path_json", "roughpath.read_rough_path_json",
     _file_bytes("roughpath.json_bytes", 0)),
    ("structure", "RoughModel.pi_measure", "structure.pi_measure", None),
    ("structure", "ReducedModel.pi_measure", "structure.pi_measure", None),
    ("modelled", "to_modelled", "modelled", None),
    ("modelled", "multiply_by_Wdot", "modelled", None),
    ("modelled", "builtin_descriptor", "modelled", None),
    ("modelled", "ControlledPath.__init__", "modelled", None),
    ("reconstruction", "reconstruct", "reconstruction.reconstruct",
     lambda a, k, rr: {"reconstruction.scaling_coeffs": len(rr.scaling_coeffs)}),
    ("reconstruction", "wavelet_lift", "reconstruction.wavelet_lift", None),
    ("reconstruction", "wavelet_rough_integral", "reconstruction.wavelet_rough_integral", None),
    ("reconstruction", "ReconstructionResult.error_certificate",
     "reconstruction.error_certificate", None),
    ("reconstruction", "antiderivative_from_distribution",
     "reconstruction.antiderivative_from_distribution", None),
    ("integration", "young_integral", "integration.young_integral", None),
    ("integration", "rough_integral_path", "integration.rough_integral_path", None),
    ("integration", "three_point_defect", "integration.three_point_defect", None),
    ("integration", "convergence_order_fit", "integration.convergence_order_fit", None),
    ("solver", "solve_rde", "solver.solve_rde", _solver_windows),
    ("solver", "solution_residual", "solver.solution_residual", None),
    ("solver", "picard_step", _route_span, None),
]


class Recorder:
    """Spans ``[id, parent id, name, start, end]`` and counters, kept in memory.

    Wrappers record only while ``active`` is set, so untimed preparation
    and output checks leave no spans.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([sid, self._stack[-1] if self._stack else -1, name,
                           time.perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, _, name, start, end in self.spans:
            self_s[name] += end - start - child[sid]
            calls[name] += 1
        return self_s, calls

    def wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if count is not None:
                for counter, increment in count(args, kwargs, result).items():
                    self.counts[counter] += increment
            return result
        return wrapper


@contextmanager
def instrument(recorder: Recorder):
    """Install the span wrappers of ``TARGETS``; restore the originals on exit."""
    namespaces = [m for key, m in list(sys.modules.items())
                  if key == "roughstruct" or key.startswith("roughstruct.")]
    restore: list[tuple[object, str, object]] = []
    try:
        for module, attr, name, count in TARGETS:
            owner = importlib.import_module(f"roughstruct.{module}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                restore.append((cls, method, original))
                setattr(cls, method, recorder.wrap(original, name, count))
                continue
            original = getattr(owner, attr)
            wrapper = recorder.wrap(original, name, count)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        restore.append((ns, key, original))
                        setattr(ns, key, wrapper)
        yield
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)
