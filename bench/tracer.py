"""Per-layer tracing from outside the package.

The modules bind each other's functions with ``from ... import``, so a
function is wrapped in every module that looks it up, not where it is
defined. Each wrapped call records one span (layer, parent span, start,
end) in flat arrays; nothing is written until the run ends. A layer's
self time is its spans' durations minus the durations of their direct
child spans. A name the package no longer has is skipped, and its layer
then reports zero calls.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

# (module that looks the name up, attribute, layer name)
WRAPPED = (
    ("torsionlab.cli", "main", "cli.main"),
    ("torsionlab.cli", "load_scenario", "scenario.load_scenario"),
    ("torsionlab.cli", "run_null_measurement", "control.run_null_measurement"),
    ("torsionlab.calibration", "run_null_measurement", "control.run_null_measurement"),
    ("torsionlab.control", "pid_step", "control.pid_step"),
    ("torsionlab.control", "feedback_torque", "control.feedback_torque"),
    ("torsionlab.control", "step", "dynamics.step"),
    ("torsionlab.control", "detector_read", "dynamics.detector_read"),
    ("torsionlab.control", "pzt_actual_position", "dynamics.pzt_actual_position"),
    ("torsionlab.control", "total_force", "forces.total_force"),
    ("torsionlab.calibration", "parabola_fit", "calibration.parabola_fit"),
    ("torsionlab.calibration", "contact_point_fit", "calibration.contact_point_fit"),
    ("torsionlab.calibration", "calibrate_sweeps", "calibration.calibrate_sweeps"),
    ("torsionlab.cli", "calibrate_sweeps", "calibration.calibrate_sweeps"),
    ("torsionlab.cli", "build_report", "sensitivity.build_report"),
    ("torsionlab.cli", "write_loop_csv", "cli.write_loop_csv"),
    ("torsionlab.cli", "build_manifest", "manifest.build_manifest"),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in WRAPPED))
FORCE_LAYER = "forces.total_force"


class Tracer:
    """Wraps the functions in WRAPPED while installed and keeps their spans."""

    def __init__(self) -> None:
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.layer = array("b")
        self.parent = array("q")
        self.start = array("d")
        self.end_index = array("q")
        self.end = array("d")
        self.stack = [-1]
        self.force_keys: set = set()
        self._saved: list = []

    def _wrap(self, fn, layer: str):
        layer_id = self.layer_ids[layer]
        spans, parents, starts = self.layer, self.parent, self.start
        end_index, ends, stack = self.end_index, self.end, self.stack
        force_keys = self.force_keys if layer == FORCE_LAYER else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(layer_id)
            parents.append(stack[-1])
            stack.append(index)
            if force_keys is not None:
                # distinct (params, gap) pairs per call
                try:
                    force_keys.add((args, tuple(sorted(kwargs.items()))))
                except TypeError:
                    force_keys.add(repr((args, kwargs)))
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends.append(perf_counter())
                end_index.append(index)
                stack.pop()

        return traced

    def install(self) -> None:
        for module_name, attr, layer in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def arrays(self) -> dict:
        """The spans as numpy arrays (views: record no more spans after this)."""
        end = np.empty(len(self.layer))
        end[np.frombuffer(self.end_index, dtype=np.int64)] = np.frombuffer(self.end)
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int8),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start),
            "end": end,
            "layers": np.array(LAYERS),
        }

    def summary(self, spans: dict) -> dict:
        """{layer: {"calls": n, "self_s": seconds}} plus the force-key count."""
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=len(duration))
        self_time = duration - child_time
        calls = np.bincount(spans["layer"], minlength=len(LAYERS))
        self_s = np.bincount(spans["layer"], weights=self_time, minlength=len(LAYERS))
        out = {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(LAYERS)
        }
        out["forces.distinct_calls"] = len(self.force_keys)
        return out


class PoolTimer:
    """Times each ProcessPoolExecutor block in the CLI, from entry to shutdown."""

    def __init__(self) -> None:
        self.seconds: list = []
        self._module = None
        self._saved = None

    def install(self) -> None:
        module = importlib.import_module("torsionlab.cli")
        pool_cls = getattr(module, "ProcessPoolExecutor", None)
        if pool_cls is None:
            return
        timer = self

        class TimedPool(pool_cls):
            def __enter__(self):
                self._bench_t0 = perf_counter()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    timer.seconds.append(perf_counter() - self._bench_t0)

        self._module, self._saved = module, pool_cls
        module.ProcessPoolExecutor = TimedPool

    def uninstall(self) -> None:
        if self._module is not None:
            self._module.ProcessPoolExecutor = self._saved
            self._module = None
