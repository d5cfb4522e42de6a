"""Command-line interface.

Subcommands: simulate | calibrate | budget | michelson | sweep.
Exit codes: 0 success, 2 configuration error, 3 numerical error,
4 feedback instability, 1 unexpected failure.

Only the commands that step or fit import numpy, ``control`` and
``calibration``, so ``budget`` starts without them.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, DomainError, InstabilityError, NumericalError, TorsionLabError
from .instrument import GapState
from .manifest import build_manifest, utc_now, write_manifest
from .scenario import Scenario, load_scenario, scenario_hash
from .sensitivity import build_report

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INSTABILITY = 4

# timeseries.csv / timeseries.json column -> NullMeasurementResult attribute
LOOP_COLUMNS = {
    "t_s": "t",
    "error_mV": "error_mv",
    "deltaV_V": "delta_v",
    "theta_rad": "theta",
    "F_ext_N": "applied_force",
}

# sweep_fits.csv column and calibration_report.json position key -> ParabolaFit
# attribute; the cells are empty (None) for a position whose fit failed
FIT_COLUMNS = {
    "curvature_per_V": "curvature",
    "V0_V": "v0",
    "offset_V": "offset",
    "rms_residual_V": "rms_residual",
}
POSITION_COLUMNS = ("d_r_m", *FIT_COLUMNS, "failed")

# Rows of the loop record formatted at a time, in CSV and JSON: whole columns
# of repr strings would add about 14 MB to a 30,000-step simulate's peak memory.
CSV_BLOCK_ROWS = 4096


def _load(args) -> Scenario:
    scenario = load_scenario(args.config) if args.config else Scenario()
    if args.seed is not None:
        try:
            scenario = replace(scenario, seed=args.seed)
        except DomainError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    return scenario


def _write_json(path: Path, payload) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_csv(path: Path, header, rows) -> Path:
    """Write rows of numbers as their repr, with None as an empty cell."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else repr(v) for v in row) + "\n")
    return path


def _command(name: str):
    """Give a command body the path every command shares.

    The body takes (args, scenario, out) and returns its artifact paths and
    the line to print. Around it the runner loads the scenario, creates the
    output directory, and writes the manifest under ``name`` formatted with
    the parsed arguments.
    """
    def decorate(body):
        def run(args) -> int:
            started = utc_now()
            scenario = _load(args)
            out = Path(args.out) if args.out is not None else Path(scenario.output_dir)
            out.mkdir(parents=True, exist_ok=True)
            artifacts, message = body(args, scenario, out)
            manifest = build_manifest(scenario_hash(scenario), name.format(**vars(args)),
                                      scenario.seed, started, artifacts, out)
            write_manifest(manifest, out)
            print(message)
            return EXIT_OK
        return run
    return decorate


def _run_simulation(scenario: Scenario, position: float | None = None,
                    applied_force: float | None = None, check_stability: bool = True):
    from .control import run_null_measurement
    run = scenario.run
    forces = scenario.forces if scenario.forces.components else None
    gap = None if forces is None else GapState(
        run.contact_offset, run.position if position is None else position
    )
    return run_null_measurement(
        scenario.instrument,
        scenario.pid,
        run.duration,
        run.dt,
        forces=forces,
        gap=gap,
        applied_force=run.applied_force if applied_force is None else applied_force,
        actuator_mode=scenario.actuator_mode,
        thermal_noise=run.thermal_noise,
        pzt_jitter=run.pzt_jitter,
        temperature=scenario.forces.temperature,
        seed=scenario.seed,
        check_stability=check_stability,
        delta_theta_min=run.delta_theta_min,
    )


def _loop_blocks(result):
    """The loop record, CSV_BLOCK_ROWS rows at a time: Python floats per LOOP_COLUMNS column."""
    for start in range(0, len(result.t), CSV_BLOCK_ROWS):
        stop = start + CSV_BLOCK_ROWS
        yield [getattr(result, attr)[start:stop].tolist() for attr in LOOP_COLUMNS.values()]


def write_loop_csv(result, path: Path) -> Path:
    """_write_csv's bytes, formatted a column at a time, a block of rows at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(LOOP_COLUMNS) + "\n")
        for columns in _loop_blocks(result):
            cells = [map(repr, column) for column in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))
    return path


def write_loop_json(result, path: Path) -> Path:
    """_write_json's bytes for the list of row dicts: each row's own dump, one level in."""
    encode = json.JSONEncoder(indent=2, sort_keys=True).encode
    rows = (encode(dict(zip(LOOP_COLUMNS, row))).replace("\n", "\n  ")
            for columns in _loop_blocks(result) for row in zip(*columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n  " + next(rows))  # a run records at least 10 rows
        fh.writelines(",\n  " + row for row in rows)
        fh.write("\n]\n")
    return path


@_command("simulate")
def cmd_simulate(args, scenario, out):
    result = _run_simulation(scenario)
    write = write_loop_json if args.format == "json" else write_loop_csv
    series = write(result, out / f"timeseries.{args.format}")
    summary = {
        "scenario_hash": scenario_hash(scenario),
        "seed": scenario.seed,
        "steady_deltaV_V": result.steady_delta_v,
        "settled_theta_mean_rad": result.settled_theta_mean,
        "settled_theta_rms_rad": result.settled_theta_rms,
        "samples": len(result.t),
    }
    return ([series, _write_json(out / "summary.json", summary)],
            f"steady deltaV = {result.steady_delta_v:.6g} V over {len(result.t)} samples")


def _position_record(p) -> dict:
    """One position's fit, keyed by POSITION_COLUMNS plus its error message."""
    fit = {col: None if p.failed else getattr(p.fit, attr) for col, attr in FIT_COLUMNS.items()}
    return {"d_r_m": p.d_r, **fit, "failed": p.failed, "error": p.error}


@_command("calibrate")
def cmd_calibrate(args, scenario, out):
    from .calibration import calibrate_sweeps, run_electrostatic_calibration, sweeps_from_csv
    if args.input:
        sweeps = sweeps_from_csv(args.input)
        result = calibrate_sweeps(sweeps, scenario.forces.sphere.radius)
    else:
        run = scenario.run
        if not run.positions or not run.voltages:
            raise ConfigError(
                "calibration needs run.positions and run.voltages in the scenario "
                "(or --input CSV)"
            )
        result = run_electrostatic_calibration(
            scenario.instrument,
            scenario.pid,
            scenario.forces,
            run.contact_offset,
            run.positions,
            run.voltages,
            duration=run.duration,
            dt=run.dt,
            actuator_mode=scenario.actuator_mode,
            thermal_noise=run.thermal_noise,
            pzt_jitter=run.pzt_jitter,
            seed=scenario.seed,
            delta_theta_min=run.delta_theta_min,
        )
    rows = [_position_record(p) for p in result.positions]
    report = {
        "d0_m": result.d0,
        "beta_N_per_V": result.beta,
        "prefactor_Vm_per_V2": result.prefactor,
        "sphere_radius_m": result.sphere_radius,
        "v0_profile": [{"d_m": d, "V0_V": v0} for d, v0 in result.v0_profile],
        "positions": rows,
    }
    artifacts = [
        _write_json(out / "calibration_report.json", report),
        _write_csv(out / "v0_profile.csv", ("d_m", "V0_V"), result.v0_profile),
        _write_csv(out / "sweep_fits.csv", POSITION_COLUMNS,
                   ([row[col] for col in POSITION_COLUMNS] for row in rows)),
    ]
    return artifacts, (
        f"d0 = {result.d0 * 1e6:.4f} um, beta = {result.beta:.6g} N/V, "
        f"{sum(p.failed for p in result.positions)} failed position(s)"
    )


def _budget_text(report) -> str:
    rows = [
        ("minimum detectable angle", f"{report.delta_theta_min:.3e} rad"),
        ("thermal angle noise", f"{report.delta_theta_thermal:.3e} rad"),
        ("swing angle noise", f"{report.delta_theta_swing:.3e} rad"),
        ("force resolution", f"{report.force_resolution * 1e12:.3f} pN"),
    ]
    for model, floor in report.jitter_force_floor.items():
        name = f"jitter floor [{model}] at {report.reference_distance * 1e6:g} um"
        rows.append((name, f"{floor * 1e12:.4f} pN"))
    if report.d_max_thermal is not None:
        rows.append(("thermal Casimir reach", f"{report.d_max_thermal * 1e6:.3f} um"))
    rows.append(
        ("thermal noise below detector floor", "yes" if report.thermal_below_detector else "no")
    )
    rows.append(("swing noise negligible", "yes" if report.swing_negligible else "no"))
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


@_command("budget")
def cmd_budget(args, scenario, out):
    report = build_report(
        scenario.instrument,
        scenario.forces,
        delta_theta_min=scenario.run.delta_theta_min,
        reference_distance=scenario.reference_distance,
    )
    payload = {
        "delta_theta_min_rad": report.delta_theta_min,
        "delta_theta_thermal_rad": report.delta_theta_thermal,
        "delta_theta_swing_rad": report.delta_theta_swing,
        "force_resolution_N": report.force_resolution,
        "jitter_force_floor_N": report.jitter_force_floor,
        "d_max_thermal_m": report.d_max_thermal,
        "reference_distance_m": report.reference_distance,
        "position_jitter_m": report.position_jitter,
        "thermal_below_detector": report.thermal_below_detector,
        "swing_negligible": report.swing_negligible,
        "inputs": report.inputs,
    }
    text = _budget_text(report)
    text_path = out / "budget.txt"
    text_path.write_text(text + "\n", encoding="utf-8")
    return [_write_json(out / "budget.json", payload), text_path], text


@_command("michelson")
def cmd_michelson(args, scenario, out):
    from .calibration import (michelson_calibrate, michelson_trace_from_csv,
                              synthetic_michelson_trace)
    if args.input:
        trace = michelson_trace_from_csv(args.input, wavelength=args.wavelength_nm * 1e-9)
    elif args.synthetic:
        trace = synthetic_michelson_trace(
            gain=args.gain_nm_per_v * 1e-9,
            visibility=args.visibility,
            n_fringes=args.fringes,
            n_points=args.points,
            wavelength=args.wavelength_nm * 1e-9,
            noise_rms=args.noise,
            seed=scenario.seed,
        )
    else:
        raise ConfigError("michelson needs --input CSV or --synthetic")
    fit = michelson_calibrate(trace)
    payload = {
        "gain_m_per_V": fit.gain,
        "gain_nm_per_V": fit.gain * 1e9,
        "visibility": fit.visibility,
        "phase_rad": fit.phase,
        "mean_intensity": fit.mean_intensity,
        "rms_residual": fit.rms_residual,
        "n_fringes": fit.n_fringes,
        "low_contrast": fit.low_contrast,
        "wavelength_m": trace.wavelength,
        "fringe_displacement_m": trace.wavelength / 2.0,
    }
    return [_write_json(out / "michelson_report.json", payload)], (
        f"gain = {fit.gain * 1e9:.4f} nm/V, visibility = {fit.visibility:.3f}, "
        f"{fit.n_fringes:.1f} fringes"
    )


def _sweep_point(payload) -> tuple:
    import numpy as np
    scenario, axis, index, value = payload
    child_seed = np.random.SeedSequence([scenario.seed, index]).generate_state(1)[0]
    scenario = replace(scenario, seed=int(child_seed))
    if axis == "position":
        result = _run_simulation(scenario, position=value, check_stability=False)
    else:
        result = _run_simulation(scenario, applied_force=value, check_stability=False)
    return index, value, result.steady_delta_v, result.settled_theta_rms


@_command("sweep --axis {axis}")
def cmd_sweep(args, scenario, out):
    run = scenario.run
    values = list(run.positions if args.axis == "position" else run.forces)
    if not values:
        key = "run.positions" if args.axis == "position" else "run.forces"
        raise ConfigError(f"sweep over {args.axis} needs {key} in the scenario")
    # The pre-check does not depend on the swept value: run it once here.
    from .control import stability_precheck
    stability_precheck(scenario.instrument, scenario.pid, run.dt, scenario.actuator_mode)
    payloads = [(scenario, args.axis, i, v) for i, v in enumerate(values)]
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(args.workers, len(payloads))) as pool:
            rows = list(pool.map(_sweep_point, payloads))  # map keeps payload order
    else:
        rows = [_sweep_point(p) for p in payloads]
    unit = "d_r_m" if args.axis == "position" else "F_ext_N"
    header = ("index", unit, "steady_deltaV_V", "settled_theta_rms_rad")
    path = _write_csv(out / "sweep_summary.csv", header, rows)
    return [path], f"swept {len(rows)} {args.axis} value(s) -> {path}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsionlab",
        description="Virtual torsion-balance laboratory for sphere-plane force "
        "measurements: simulation, calibration, and sensitivity budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, about):
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", type=Path, default=None, help="scenario file")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: scenario output.dir)")
        p.set_defaults(func=func)
        return p

    p_sim = command("simulate", cmd_simulate, "run one closed-loop null measurement")
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_cal = command("calibrate", cmd_calibrate, "electrostatic calibration pipeline")
    p_cal.add_argument("--input", type=Path, default=None,
                       help="sweep CSV (d_r_m,V_V,deltaV_V) instead of simulating")
    command("budget", cmd_budget, "noise and sensitivity budget")
    p_mic = command("michelson", cmd_michelson, "PZT gain from interferometer fringes")
    p_mic.add_argument("--input", type=Path, default=None,
                       help="trace CSV (pzt_V,intensity)")
    p_mic.add_argument("--synthetic", action="store_true", help="generate a trace")
    p_mic.add_argument("--gain-nm-per-v", type=float, default=100.0)
    p_mic.add_argument("--fringes", type=float, default=6.0)
    p_mic.add_argument("--visibility", type=float, default=0.95)
    p_mic.add_argument("--points", type=int, default=600)
    p_mic.add_argument("--noise", type=float, default=0.0, help="intensity noise rms")
    p_mic.add_argument("--wavelength-nm", type=float, default=632.8)
    p_sw = command("sweep", cmd_sweep, "fan a simulation over positions or forces")
    p_sw.add_argument("--axis", choices=("position", "force"), default="position")
    p_sw.add_argument("--workers", type=int, default=4)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except TorsionLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - last resort
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    raise SystemExit(main())
