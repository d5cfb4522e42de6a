"""Warm in-process operations for the traced run.

    python bench/inproc.py SPEC.json

Imports torsionlab once (from PYTHONPATH) and calls
``torsionlab.cli.main(argv)`` phase by phase, as SPEC.json lists them.
Each phase has a label, the CLI argv without ``--out``, and how long to
repeat it (at least once). A "traced" phase runs once under the Tracer
and saves its spans; a "pool_timer" phase times the sweep's process
pool. The results go to the JSON file SPEC.json names; the harness gates
the output directories afterwards.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from tracer import PoolTimer, Tracer

# Caps the output directories left to gate when an operation takes milliseconds (budget).
MAX_OPS_PER_PHASE = 50


def run_phase(cli, phase: dict, work: Path, spans_path: Path) -> dict:
    tracer = Tracer() if phase.get("traced") else None
    pool = PoolTimer() if phase.get("pool_timer") else None
    deadline = time.monotonic() + phase.get("seconds", 0.0)
    ops = []
    while True:
        out = work / f"{phase['label']}-{len(ops)}"
        for hook in (pool, tracer):
            if hook is not None:
                hook.install()
        t0 = time.perf_counter()
        try:
            rc = cli.main(phase["argv"] + ["--out", str(out)])
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        finally:
            seconds = time.perf_counter() - t0
            for hook in (tracer, pool):
                if hook is not None:
                    hook.uninstall()
        ops.append({"label": phase["label"], "out": str(out), "rc": rc, "seconds": seconds})
        if tracer is not None or time.monotonic() >= deadline or len(ops) >= MAX_OPS_PER_PHASE:
            break
    result = {"ops": ops, "pool_s": pool.seconds if pool else []}
    if tracer is not None:
        spans = tracer.arrays()
        np.savez(spans_path, **spans)
        result["trace"] = tracer.summary(spans)
    return result


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import torsionlab.cli as cli

    work = Path(spec["work"])
    phases = [run_phase(cli, phase, work, Path(spec["spans"])) for phase in spec["phases"]]
    Path(spec["result"]).write_text(json.dumps({"phases": phases}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
