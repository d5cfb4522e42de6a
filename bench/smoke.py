#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Run it from the root of a checkout; it takes about two minutes. It runs
every workload once untraced and twice traced at the tiny size, and
checks that:

- each run exits 0 with a correct result whose metrics are exactly the
  ones BENCHMARK.json lists for that mode, with their units;
- every call count repeats exactly across the two traced runs;
- in a directory that holds only BENCHMARK.json and bench/, the harness
  exits non-zero without printing a result.

Exits 0 when all of these hold and 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import workloads

BENCH = Path(__file__).resolve().parent


def run(root: Path, workload: str, trace: int) -> tuple:
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc, result


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads()):
        problems.append(f"BENCHMARK.json workloads {names} != harness {sorted(workloads())}")

    for name in names:
        counts = []
        for trace in (0, 1, 1):
            proc, result = run(root, name, trace)
            where = f"{name} --trace {trace}"
            if proc.returncode != 0 or result is None:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
                continue
            declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared:
                problems.append(f"{where}: printed {sorted(printed)} != declared {sorted(declared)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            if trace:
                counts.append({k: v["value"] for k, v in result["metrics"].items()
                               if k.endswith(".calls")})
            print(f"ok {where}: {result['attempted']} operations", flush=True)
        if len(counts) == 2 and counts[0] != counts[1]:
            changed = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{name}: call counts differ between traced runs: {changed}")

    bare = root / "bench" / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    try:
        proc, result = run(bare, names[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result is not None:
        problems.append(f"bare directory: exit {proc.returncode}, result {result}")
    else:
        print(f"ok bare directory: exit {proc.returncode}, no result", flush=True)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
