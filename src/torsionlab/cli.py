"""Command-line interface.

Subcommands: simulate | calibrate | budget | michelson | sweep.
Exit codes: 0 success, 2 configuration error, 3 numerical error,
4 feedback instability, 1 unexpected failure.

Only the commands that step or fit import numpy, ``control`` and
``calibration``, so ``budget`` starts without them. The manifest digests
come from the interpreter's own SHA-256, with hashlib's values, and
``main()`` blocks ``_hashlib`` before ``numpy.random`` can load it, so no
command maps OpenSSL: a run that draws, or ``michelson``, gets
``hashlib`` and ``hmac`` with the builtin hashes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, DomainError, InstabilityError, NumericalError, TorsionLabError
from .manifest import utc_now, write_json, write_manifest
from .scenario import Scenario, load_scenario, scenario_hash
from .sensitivity import build_report

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INSTABILITY = 4

# timeseries.csv / timeseries.json columns, one per NullMeasurementResult column
LOOP_COLUMNS = ("t_s", "error_mV", "deltaV_V", "theta_rad", "F_ext_N")

# sweep_fits.csv column and calibration_report.json position key -> ParabolaFit
# attribute; the cells are empty (None) for a position whose fit failed
FIT_COLUMNS = {
    "curvature_per_V": "curvature",
    "V0_V": "v0",
    "offset_V": "offset",
    "rms_residual_V": "rms_residual",
}
POSITION_COLUMNS = ("d_r_m", *FIT_COLUMNS, "failed")

# sweep --axis -> (run list it sweeps, run field each point sets, symbol, unit)
SWEEP_AXES = {
    "position": ("positions", "position", "d_r", "m"),
    "force": ("forces", "applied_force", "F_ext", "N"),
}

# michelson options: what each sets, the values it allows, and their test
MICHELSON_OPTIONS = (
    ("--gain-nm-per-v", "PZT gain", "positive and finite", lambda x: 0.0 < x < math.inf),
    ("--fringes", "fringe count", "positive and finite", lambda x: 0.0 < x < math.inf),
    ("--visibility", "visibility", "in (0, 1]", lambda x: 0.0 < x <= 1.0),
    ("--points", "sample count", "at least 16", lambda x: x >= 16),
    ("--noise", "intensity noise rms", "finite and not negative", lambda x: 0.0 <= x < math.inf),
    ("--wavelength-nm", "wavelength", "positive and finite", lambda x: 0.0 < x < math.inf),
)


def _load(args) -> Scenario:
    scenario = load_scenario(args.config) if args.config else Scenario()
    if args.seed is not None:
        try:
            scenario = replace(scenario, seed=args.seed)
        except DomainError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    return scenario


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
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create output directory {out}: {exc}") from None
            artifacts, message = body(args, scenario, out)
            write_manifest(out, scenario_hash(scenario), name.format(**vars(args)),
                           scenario.seed, started, artifacts)
            print(message)
            return EXIT_OK
        return run
    return decorate


def write_loop_csv(fh, k0: int, columns) -> None:
    """_write_csv's rows for a block of LOOP_COLUMNS float columns; the header at step 0."""
    if k0 == 0:
        fh.write(",".join(LOOP_COLUMNS) + "\n")
    cells = [map(repr, column) for column in columns]
    fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def write_loop_json(fh, k0: int, columns) -> None:
    """write_json's list of row dicts, a block at a time; the caller closes the list."""
    encode = json.JSONEncoder(indent=2, sort_keys=True).encode
    rows = (encode(dict(zip(LOOP_COLUMNS, row))).replace("\n", "\n  ") for row in zip(*columns))
    fh.write(("[\n  " if k0 == 0 else ",\n  ") + ",\n  ".join(rows))


@_command("simulate")
def cmd_simulate(args, scenario, out):
    from .control import _closed_loop, _scenario_run
    write = write_loop_json if args.format == "json" else write_loop_csv
    path = out / f"timeseries.{args.format}"
    partial = path.with_name(path.name + ".part")  # a failed run leaves no time series

    def record(k0, t, reading, delta_v, theta, d_r, f_ext):
        write(fh, k0, (t, reading, delta_v, theta, f_ext))

    try:
        with open(partial, "w", encoding="utf-8") as fh:
            n, ((steady, theta_mean, theta_rms),) = _closed_loop(
                scenario, [_scenario_run(scenario)], record=record)
            if args.format == "json":
                fh.write("\n]\n")
        series = partial.replace(path)
    finally:
        partial.unlink(missing_ok=True)
    summary = {
        "scenario_hash": scenario_hash(scenario),
        "seed": scenario.seed,
        "steady_deltaV_V": steady,
        "settled_theta_mean_rad": theta_mean,
        "settled_theta_rms_rad": theta_rms,
        "samples": n,
    }
    return ([series, write_json(out / "summary.json", summary)],
            f"steady deltaV = {steady:.6g} V over {n} samples")


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
        result = run_electrostatic_calibration(scenario)
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
        write_json(out / "calibration_report.json", report),
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
    report = build_report(scenario)
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
    return [write_json(out / "budget.json", payload), text_path], text


@_command("michelson")
def cmd_michelson(args, scenario, out):
    from .calibration import (michelson_calibrate, michelson_trace_from_csv,
                              synthetic_michelson_trace)
    for option, what, allowed, ok in MICHELSON_OPTIONS:
        value = getattr(args, option[2:].replace("-", "_"))
        if not ok(value):
            raise ConfigError(f"{option}: the {what} must be {allowed}, got {value}")
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
    return [write_json(out / "michelson_report.json", payload)], (
        f"gain = {fit.gain * 1e9:.4f} nm/V, visibility = {fit.visibility:.3f}, "
        f"{fit.n_fringes:.1f} fringes"
    )


@_command("sweep --axis {axis}")
def cmd_sweep(args, scenario, out):
    from .control import _closed_loop, _scenario_run
    run = scenario.run
    swept, key, name, unit = SWEEP_AXES[args.axis]
    values = list(getattr(run, swept))
    if not values:
        raise ConfigError(f"sweep over {args.axis} needs run.{swept} in the scenario")
    # only a run that draws reads its seed, so a noiseless sweep needs no numpy.random
    draws = run.thermal_noise or run.pzt_jitter
    if draws:
        from numpy.random import SeedSequence
    rows = []
    for i, v in enumerate(values):
        seed = int(SeedSequence([scenario.seed, i]).generate_state(1)[0]) if draws else scenario.seed
        point = replace(scenario, seed=seed, run=replace(run, **{key: v}))
        # the pre-check reads neither the swept value nor the seed: the first point runs it
        _, ((steady, _, theta_rms),) = _closed_loop(
            point, [_scenario_run(point, f"{name} = {v:.4g} {unit}")], check_stability=i == 0)
        rows.append((i, v, steady, theta_rms))
    header = ("index", f"{name}_{unit}", "steady_deltaV_V", "settled_theta_rms_rad")
    path = _write_csv(out / "sweep_summary.csv", header, rows)
    return [path], f"swept {len(rows)} {args.axis} value(s) -> {path}"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


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
    p_cal = command("calibrate", cmd_calibrate, "electrostatic calibration")
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
    p_sw = command("sweep", cmd_sweep, "simulate at each of several positions or forces")
    p_sw.add_argument("--axis", choices=tuple(SWEEP_AXES), default="position")
    p_sw.add_argument("--workers", type=_positive_int, default=4,
                      help="accepted and ignored: the points run in order")
    return parser


def main(argv=None) -> int:
    # an idle OpenBLAS pool thread spins ~0.1 s after numpy loads; no BLAS call here needs one
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # numpy.random -> secrets -> hmac maps OpenSSL's libcrypto, which a seeded run never
    # uses and the digests do not need (they are the builtin SHA-256), so hashlib and hmac
    # fall back to the builtin hashes. setdefault leaves an _hashlib that is already loaded:
    # an embedding process's, or the one manifest imported on a build without builtin SHA-2.
    sys.modules.setdefault("_hashlib", None)
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
