#!/usr/bin/env python3
"""torsionlab benchmark: every workload and metric behind one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It drives that checkout's own
``src/`` with no install step (``PYTHONPATH=<checkout>/src``) and writes
only under ``bench/_work/``. Metric names and units come from
BENCHMARK.json; the reason for each workload is in workloads.py.

Load is a closed loop with one client: this process starts the next
operation only after the previous one has exited.

--trace 0 measures the end-to-end metrics with nothing wrapped:
  setup_s      median wall time of a fresh interpreter that runs
               ``import torsionlab`` and loads the workload's scenario
               (one untimed warm-up, then SETUP_REPS timed)
  wall_s       median wall time of one operation: the workload's CLI
               command in a fresh process, ``python -m torsionlab.cli``,
               repeated for --seconds
  wall_tail_s  the highest percentile of those times with at least 10
               samples beyond it, and the median when a run holds fewer
               than 20 operations (that percentile would lie below the
               median). The report line names the percentile and n.
  peak_rss_mb  median peak RSS of an operation's process, from os.wait4
               (for a sweep the largest of the CLI and its pool workers)
fail_ratio (failed / attempted operations) is the result's own
"failed" and "attempted" and is printed in the report lines.

--trace 1 measures the per-layer metrics in one warm interpreter
(inproc.py): ``python -X importtime`` for the import layers, then warm
untraced operations, then one traced operation whose spans give each
layer's calls and self time. steps_per_s is the workload's requested
closed-loop steps (sum of round(duration/dt) over its runs) per second
of warm untraced ``cli.main(argv)`` time; trace.overhead_s is traced
minus untraced time. jitter_sweep is traced with --workers 1,
because wrappers in this process cannot see inside pool workers; its
--workers 2 pass gives cli.sweep_pool_s, and its untraced --workers 1
pass is the plain single-threaded baseline, printed as such.

Every operation is gated. It must exit 0, its artifacts must match the
SHA-256 in its run_manifest.json and those of the run's first operation
(one seed, so one set of bytes), and they must pass the workload's
physics check. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from workloads import GateError, manifest_digests, workloads

SETUP_REPS = 5
IMPORTTIME_REPS = 3
RUN_LIMIT_S = 170.0       # a whole run, its children included, ends within 3 minutes
IMPORTED = {"import.numpy_s": "numpy", "import.scipy_optimize_s": "scipy.optimize",
            "import.torsionlab_s": "torsionlab"}


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def spawn(argv: list, env: dict, log: Path, timeout: float) -> tuple:
    """Run argv to completion in its own process group.

    Returns (exit code or None on timeout, wall seconds, peak RSS in kB).
    stdout goes to ``log``.out and stderr to ``log``.err. On a timeout or
    when this process is told to stop, the child's whole group is killed
    and reaped first.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, f"{log}.out", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, f"{log}.err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    previous = signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                         file_actions=actions, setpgroup=0)
    try:
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BaseException as exc:
        try:
            os.killpg(pid, signal.SIGKILL)
            os.wait4(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        if isinstance(exc, Timeout):
            return None, time.perf_counter() - t0, 0
        raise
    finally:
        signal.signal(signal.SIGALRM, previous)
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": pkg("numpy"),
        "scipy": pkg("scipy"),
        "platform": platform.platform(),
    }


def tail(samples: list) -> tuple:
    """(value, percentile): the highest sample with at least 10 beyond it.

    Below 20 samples that sample lies at or below the median (below 11 it
    does not exist), so the median is reported as the tail.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


class Run:
    """One benchmark run: its workload, work directory, clock and gates."""

    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.workload = workloads(args.size)[args.workload]
        self.work = root / "bench" / "_work" / f"{args.workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = None
        if self.workload.config:
            self.config = self.work / f"{args.workload}.cfg"
            self.config.write_text(self.workload.config, encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.reference = None          # artifact digests of the first operation
        self.attempted = 0
        self.failures: list = []
        self.artifact_bytes = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def argv(self, workers: int | None = None) -> list:
        return self.workload.command(self.config, self.args.seed, workers)

    def gate(self, out: Path, rc) -> bool:
        """Check one operation's output; record and report a failure."""
        self.attempted += 1
        try:
            if rc != 0:
                raise GateError("timed out" if rc is None else f"exit code {rc}")
            digests, self.artifact_bytes = manifest_digests(out)
            if self.reference is None:
                self.workload.check(out)
                self.reference = digests
            elif digests != self.reference:
                raise GateError("artifact SHA-256 differs from the first operation at this seed")
            return True
        except (GateError, KeyError, TypeError, ValueError) as exc:
            message = f"{out.name}: {type(exc).__name__}: {exc}"
            self.failures.append(message)
            print(f"# FAILED {message}", file=sys.stderr)
            return False
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def setup_s(self) -> list:
        """Fresh interpreters that import torsionlab and load the scenario."""
        load = (f"torsionlab.load_scenario({str(self.config)!r})" if self.config
                else "torsionlab.Scenario()")
        argv = ["-c", f"import torsionlab; {load}"]
        samples = []
        for i in range(SETUP_REPS + 1):
            rc, wall, _ = spawn(argv, self.env, self.work / "setup", min(60.0, self.remaining()))
            if rc != 0:
                err = (self.work / "setup.err").read_text(errors="replace")[-2000:]
                raise SystemExit(f"set-up failed (exit {rc}):\n{err}")
            if i:  # the first one compiles bytecode and fills the page cache
                samples.append(wall)
        return samples

    def fresh_operations(self) -> tuple:
        walls, rss = [], []
        stop = time.monotonic() + self.args.seconds
        while True:
            out = self.work / f"op-{self.attempted}"
            argv = ["-m", "torsionlab.cli", *self.argv(), "--out", str(out)]
            rc, wall, maxrss_kb = spawn(argv, self.env, self.work / "op", self.remaining())
            if self.gate(out, rc):
                walls.append(wall)
                rss.append(maxrss_kb / 1024.0)
            if rc is None or time.monotonic() >= stop:
                return walls, rss

    def importtime(self) -> dict:
        cumulative: dict = {name: [] for name in IMPORTED}
        for i in range(IMPORTTIME_REPS + 1):
            log = self.work / "importtime"
            rc, _, _ = spawn(["-X", "importtime", "-c", "import torsionlab"], self.env, log,
                             min(60.0, self.remaining()))
            if rc != 0:
                raise SystemExit(f"import torsionlab failed (exit {rc})")
            if not i:
                continue
            seen = {}
            for line in Path(f"{log}.err").read_text().splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[1].strip().isdigit():
                    seen.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
            for metric, module in IMPORTED.items():
                cumulative[metric].append(seen.get(module, 0.0))
        return {metric: statistics.median(v) for metric, v in cumulative.items()}

    def warm_operations(self) -> tuple:
        """Warm untraced and traced operations in one interpreter (inproc.py)."""
        seconds = self.args.seconds
        base = self.argv()
        phases = [{"label": "warmup", "argv": base}]
        if "--workers" in base:
            phases += [
                {"label": "pool", "argv": base, "seconds": seconds / 4, "pool_timer": True},
                {"label": "serial", "argv": self.argv(1), "seconds": seconds / 4},
                {"label": "traced", "argv": self.argv(1), "traced": True},
            ]
        else:
            phases += [
                {"label": "timed", "argv": base, "seconds": seconds / 2},
                {"label": "traced", "argv": base, "traced": True},
            ]
        spec = {
            "work": str(self.work),
            "phases": phases,
            "spans": str(self.root / "bench" / "_work" / f"spans-{self.args.workload}.npz"),
            "result": str(self.work / "inproc.json"),
        }
        spec_path = self.work / "inproc-spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        script = str(Path(__file__).with_name("inproc.py"))
        rc, _, _ = spawn([script, str(spec_path)], self.env, self.work / "inproc",
                         self.remaining())
        if rc != 0:
            err = (self.work / "inproc.err").read_text(errors="replace")[-2000:]
            raise SystemExit(f"in-process run failed (exit {rc}):\n{err}")
        result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        by_label = {}
        for phase_spec, phase in zip(phases, result["phases"]):
            times = []
            for op in phase["ops"]:
                if self.gate(Path(op["out"]), op["rc"]):
                    times.append(op["seconds"])
            by_label[phase_spec["label"]] = {"times": times, **phase}
        return by_label


def end_to_end(run: Run) -> tuple:
    setup = run.setup_s()
    walls, rss = run.fresh_operations()
    metrics, notes = {}, {}
    samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}
    if walls:
        value, pct = tail(walls)
        metrics = {
            "wall_s": statistics.median(walls),
            "wall_tail_s": value,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss),
        }
        notes["wall_s"] = f"median of {len(walls)} fresh-process operations"
        notes["wall_tail_s"] = (f"p{pct:.1f} of {len(walls)} operations" if pct > 50.0
                                else f"median of {len(walls)} operations: fewer than 20")
    notes["setup_s"] = f"median of {len(setup)} fresh interpreters"
    return metrics, notes, samples


def per_layer(run: Run) -> tuple:
    from tracer import LAYERS  # tracer imports numpy; only the traced run needs it

    metrics = run.importtime()
    phases = run.warm_operations()
    trace = phases["traced"]["trace"]
    notes = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = trace[layer]["calls"]
        metrics[f"{layer}.self_s"] = trace[layer]["self_s"]
    steps = run.workload.steps
    step_calls = trace["dynamics.step"]["calls"]
    force_calls = trace["forces.total_force"]["calls"]
    metrics["control.useful_step_ratio"] = steps / step_calls if step_calls else 0.0
    metrics["forces.distinct_gap_ratio"] = (trace["forces.distinct_calls"] / force_calls
                                            if force_calls else 0.0)
    metrics["cli.artifact_bytes"] = run.artifact_bytes
    primary = phases.get("pool") or phases["timed"]
    warm = statistics.median(primary["times"]) if primary["times"] else 0.0
    metrics["steps_per_s"] = steps / warm if warm else 0.0
    untraced = phases.get("serial") or phases["timed"]
    traced = phases["traced"]["times"][0] if phases["traced"]["times"] else 0.0
    baseline = statistics.median(untraced["times"]) if untraced["times"] else 0.0
    metrics["trace.overhead_s"] = traced - baseline
    pool = phases.get("pool", {}).get("pool_s", [])
    metrics["cli.sweep_pool_s"] = statistics.median(pool) if pool else 0.0
    notes["steps_per_s"] = (f"{steps} requested steps / median of "
                                    f"{len(primary['times'])} warm untraced operations")
    notes["trace.overhead_s"] = f"traced {traced:.4f} s - untraced {baseline:.4f} s"
    if "serial" in phases:
        notes["cli.sweep_pool_s"] = (
            f"median of {len(pool)} --workers 2 pool blocks; layer calls and self "
            f"times come from the --workers 1 pass, whose untraced median "
            f"{baseline:.4f} s is the plain single-threaded baseline")
    samples = {label: phase["times"] for label, phase in phases.items()}
    return metrics, notes, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shortens every run, for bench/smoke.py only")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "torsionlab" / "__init__.py").is_file():
        print(f"error: {root} holds no src/torsionlab; run from the root of a "
              "torsionlab checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads():
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads())}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    signal.signal(signal.SIGTERM, _terminate)
    run = Run(root, args)
    info = machine()
    info["loadavg_before"] = os.getloadavg()
    try:
        metrics, notes, samples = (per_layer if args.trace else end_to_end)(run)
    finally:
        info["loadavg_after"] = os.getloadavg()
        shutil.rmtree(run.work, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    failed = len(run.failures)
    print(f"# torsionlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}; closed loop, "
          f"1 client, {'one warm interpreter' if args.trace else 'fresh process per operation'}")
    print(f"# machine: {json.dumps(info)}")
    for m in declared:
        note = notes.get(m["name"], "")
        print(f"{m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']:<6} {note}")
    print(f"{'fail_ratio':<40} {failed / max(run.attempted, 1):>14.6g} {'ratio':<6} "
          f"{failed} failed of {run.attempted} operations")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, size=args.size, machine=info, notes=notes,
                  samples=samples, failures=run.failures)
    record_path = root / "bench" / "_work" / f"result-{args.workload}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
