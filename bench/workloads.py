"""The four workloads of the torsionlab benchmark and their correctness gates.

Each workload is one user-facing CLI command on a fixed scenario. The
workload seed reaches the program only through the command's ``--seed``.
A gate reads the artifacts the command wrote and checks them against
closed-form physics computed here, so the gates do not trust the package
under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# CODATA 2018 values. Duplicated on purpose: the gates must not read them
# from the package they check.
EPS0 = 8.8541878128e-12
HBAR = 1.054571817e-34
C_LIGHT = 299792458.0
K_B = 1.380649e-23
ZETA3 = 1.2020569031595943

# Linear feedback actuator of the default instrument, equal lever arms:
# eps0 * 1 cm^2 * 10 V / (1 mm)^2 = 8.854e-9 N per volt of readout.
BETA = EPS0 * 1e-4 * 10.0 / 1e-3**2
CONTACT_OFFSET = 10e-6  # m, the default run.contact_offset

# calib_grid: the README calibration scenario. 8 positions x 9 voltages.
CAL_POSITIONS_UM = (1, 1.8, 3.6, 5.2, 6.4, 7.3, 8, 8.5)
CAL_VOLTAGES_MV = (-80, -55, -30, -5, 20, 45, 70, 95, 120)
SWEEP_POSITIONS_UM = (2, 4, 6, 8)
NOISY_POSITION_UM = 8

# Steps per run for each size. "tiny" exists for the smoke test only.
SIZES = {
    "full": {"calib_s": 240, "noisy_s": 1500, "sweep_s": 300},
    "tiny": {"calib_s": 60, "noisy_s": 150, "sweep_s": 200},
}
DT = 0.05  # s, the default run.dt


class GateError(Exception):
    """An operation's output is wrong."""


@dataclass(frozen=True)
class Workload:
    argv: tuple               # CLI arguments before --config, --seed and --out
    config: str               # scenario file text; "" means the default instrument
    steps: int                # requested closed-loop steps per operation
    check: Callable[[Path], None]

    def command(self, config_path: Path | None, seed: int, workers: int | None = None) -> list:
        """The CLI argv without --out; ``workers`` overrides a sweep's --workers."""
        argv = list(self.argv)
        if workers is not None:
            argv[argv.index("--workers") + 1] = str(workers)
        if config_path is not None:
            argv += ["--config", str(config_path)]
        return argv + ["--seed", str(seed)]


def default_total_force(gap: float) -> float:
    """All four default force components at ``gap`` (m), in N.

    The electrostatic term is zero because the default applied and
    minimizing voltages are both 0 V.
    """
    R, T, v_patch = 0.155, 300.0, 5e-3
    casimir = math.pi**3 * HBAR * C_LIGHT * R / (360.0 * gap**3)
    thermal = ZETA3 * K_B * T * R / (8.0 * gap * gap)
    patch = math.pi * R * EPS0 * v_patch**2 / gap
    return casimir + thermal + patch


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def _json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise GateError(f"cannot read {path.name}: {exc}") from None


def _readout_matches_force(steady_delta_v: float, gap: float, where: str) -> None:
    measured = steady_delta_v * BETA
    expected = default_total_force(gap)
    _require(
        abs(measured / expected - 1.0) <= 0.02,
        f"{where}: readout {measured:.4e} N is not within 2% of "
        f"total_force {expected:.4e} N at d = {gap * 1e6:g} um",
    )


def _check_calibration(out: Path) -> None:
    # Acceptance criterion 8: d0 to 5 nm, beta to 0.5%, V0(d) to 1 mV.
    report = _json(out / "calibration_report.json")
    failed = [p["d_r_m"] for p in report["positions"] if p["failed"]]
    _require(not failed, f"failed calibration positions {failed}")
    _require(len(report["v0_profile"]) == len(CAL_POSITIONS_UM), "v0 profile length")
    d0 = report["d0_m"]
    _require(abs(d0 - CONTACT_OFFSET) < 5e-9, f"d0 = {d0!r} m is not within 5 nm of 10 um")
    beta = report["beta_N_per_V"]
    _require(abs(beta / BETA - 1.0) < 5e-3, f"beta = {beta!r} N/V is not within 0.5%")
    for row in report["v0_profile"]:
        injected = 0.02 + 5e-3 * math.log10(row["d_m"] / 1e-6)
        _require(
            abs(row["V0_V"] - injected) < 1e-3,
            f"V0 = {row['V0_V']!r} V at d = {row['d_m']!r} m is not within 1 mV",
        )


def _check_simulation(steps: int) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        summary = _json(out / "summary.json")
        _require(summary["samples"] == steps, f"{summary['samples']} samples, want {steps}")
        with open(out / "timeseries.csv", "rb") as fh:
            lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        _require(lines == steps + 1, f"timeseries.csv has {lines} lines, want {steps + 1}")
        gap = CONTACT_OFFSET - NOISY_POSITION_UM * 1e-6
        _readout_matches_force(summary["steady_deltaV_V"], gap, "simulate")

    return check


def _check_sweep(out: Path) -> None:
    with open(out / "sweep_summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == len(SWEEP_POSITIONS_UM), f"{len(rows)} sweep rows")
    for i, (row, pos_um) in enumerate(zip(rows, SWEEP_POSITIONS_UM)):
        d_r = float(row["d_r_m"])
        _require(int(row["index"]) == i and abs(d_r - pos_um * 1e-6) < 1e-15,
                 f"sweep row {i} is {row}")
        _readout_matches_force(float(row["steady_deltaV_V"]), CONTACT_OFFSET - d_r,
                               f"sweep point {i}")


def _check_budget(out: Path) -> None:
    # The headline numbers at the tolerances of tests/test_acceptance.py.
    # The thermal-Casimir reach is checked at the budget's own resolution
    # (2.948 pN gives 5.72 um); 5.67 um is the reach at exactly 3 pN.
    b = _json(out / "budget.json")
    resolution = b["force_resolution_N"]
    alpha = math.pi * 1.8e11 * 76e-6**4 / (32.0 * 0.20)  # default fiber, N m/rad
    want_resolution = alpha * 0.1e-6 / 0.10              # 0.1 urad on a 0.1 m arm
    _require(resolution <= 3e-12 and abs(resolution / want_resolution - 1.0) < 5e-3,
             f"force resolution {resolution!r} N, want {want_resolution:.4e}")
    reach = math.sqrt(ZETA3 * K_B * 300.0 * 0.155 / (8.0 * resolution))
    for key, want in (("delta_theta_thermal_rad", 3.74e-8),
                      ("delta_theta_swing_rad", 1.47e-10),
                      ("d_max_thermal_m", reach)):
        _require(abs(b[key] / want - 1.0) < 5e-3, f"{key} = {b[key]!r}, want {want:.4g}")


def _um_list(values) -> str:
    return ", ".join(f"{v:g} um" for v in values)


def workloads(size: str = "full") -> dict:
    s = SIZES[size]
    calib = "\n".join([
        "forces.components = electrostatic",
        "forces.v0 = 20 mV",
        "forces.v0_log_slope = 5 mV",
        "run.contact_offset = 10 um",
        f"run.positions = {_um_list(CAL_POSITIONS_UM)}",
        "run.voltages = " + ", ".join(f"{v} mV" for v in CAL_VOLTAGES_MV),
        f"run.duration = {s['calib_s']} s",
    ]) + "\n"
    noisy = "\n".join([
        f"run.position = {NOISY_POSITION_UM} um",
        f"run.duration = {s['noisy_s']} s",
        "run.thermal_noise = true",
        "run.pzt_jitter = true",
    ]) + "\n"
    sweep = "\n".join([
        f"run.positions = {_um_list(SWEEP_POSITIONS_UM)}",
        f"run.duration = {s['sweep_s']} s",
        "run.thermal_noise = true",
        "run.pzt_jitter = true",
    ]) + "\n"
    steps = {key: round(value / DT) for key, value in s.items()}
    noisy_steps = steps["noisy_s"]
    return {
        # The README calibrate scenario: 72 short noiseless runs at fixed
        # gaps. The loop layers do nearly all the work, total_force sees
        # 72 distinct gaps in 345,600 calls, and the stability pre-check is
        # 2% of steps. A batched kernel or a hoisted force evaluation shows here.
        "calib_grid": Workload(
            ("calibrate",), calib,
            steps["calib_s"] * len(CAL_POSITIONS_UM) * len(CAL_VOLTAGES_MV),
            _check_calibration,
        ),
        # One long run with all four force components at a 2 um gap, thermal
        # noise, PZT jitter and CSV output: a new gap and two RNG draws every
        # step and a large artifact. A force cache has nothing to reuse and a
        # B=1 batch nothing to batch, so a kernel tuned for calib_grid that
        # slows single runs shows here.
        "noisy_long_run": Workload(
            ("simulate", "--format", "csv"), noisy, noisy_steps,
            _check_simulation(noisy_steps),
        ),
        # Four sweep points with noise and jitter on two pool workers (the
        # core count): the per-point stability pre-check (57% of all steps),
        # the Scenario to_flat/from_flat round trip per point and the
        # ProcessPoolExecutor fan-out. A replacement must beat two-process
        # parallelism here.
        "jitter_sweep": Workload(
            ("sweep", "--axis", "position", "--workers", "2"), sweep,
            steps["sweep_s"] * len(SWEEP_POSITIONS_UM),
            _check_sweep,
        ),
        # No stepping: wall time is almost all `import torsionlab`. The
        # bypass workload for loop changes (prediction: no change) and the
        # mechanism workload for a lazy scipy.optimize import.
        "budget": Workload(("budget",), "", 0, _check_budget),
    }


def manifest_digests(out: Path) -> tuple[dict, int]:
    """Verify run_manifest.json against the files; return {path: sha256}, bytes."""
    manifest = _json(out / "run_manifest.json")
    digests, total = {}, 0
    for entry in manifest["artifacts"]:
        path = out / entry["path"]
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise GateError(f"artifact {entry['path']}: {exc}") from None
        _require(hashlib.sha256(data).hexdigest() == entry["sha256"],
                 f"artifact {entry['path']} does not match its manifest digest")
        digests[entry["path"]] = entry["sha256"]
        total += len(data)
    _require(bool(digests), "manifest lists no artifacts")
    return digests, total
