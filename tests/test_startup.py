"""Cold-start guard: the CLI's common commands load neither scipy nor a
process pool, and the math-only paths load no numpy.

Every command is a fresh process, so an import on the CLI's path is paid
on every run. Only ``michelson`` (``curve_fit``) and
``decompose_residual(nonnegative=True)`` (``nnls``) need scipy.
``sweep --workers N>1`` forks its workers with ``os.fork``, so no command
loads ``multiprocessing`` or ``concurrent.futures``. ``import
torsionlab`` loads no submodule, and ``load_scenario`` and ``budget`` run
on ``math`` alone. Each check runs in a new interpreter, because this test
process may already hold those modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import torsionlab

SRC = Path(torsionlab.__file__).resolve().parents[1]

# Prints the heavy modules the snippet before it left in sys.modules.
REPORT = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in"
    " ('scipy', 'multiprocessing', 'concurrent'))))\n"
)


def _fresh(code, cwd):
    """Run ``code`` in a new interpreter with this checkout's package first."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _heavy_modules_after(code, cwd):
    return json.loads(_fresh(code + REPORT, cwd).splitlines()[-1])


def _numpy_and_submodules_after(code, cwd):
    """Whether numpy is loaded after ``code``, and the torsionlab submodules that are."""
    report = ("import json, sys\n"
              "print(json.dumps(['numpy' in sys.modules,"
              " sorted(m for m in sys.modules if m.startswith('torsionlab.'))]))\n")
    return json.loads(_fresh(code + report, cwd).splitlines()[-1])


def _cli_run(*argv):
    return (
        "from torsionlab.cli import main\n"
        f"code = main({list(argv)!r})\n"
        "assert code == 0, code\n"
    )


def test_import_loads_no_scipy_and_no_pool(tmp_path):
    assert _heavy_modules_after("import torsionlab\n", tmp_path) == []


def test_budget_loads_no_scipy_and_no_pool(tmp_path):
    assert _heavy_modules_after(_cli_run("budget", "--out", "out"), tmp_path) == []
    assert (tmp_path / "out" / "budget.json").exists()


def test_short_simulate_loads_no_scipy_and_no_pool(tmp_path):
    (tmp_path / "short.cfg").write_text("run.duration = 20 s\n")
    code = _cli_run("simulate", "--config", "short.cfg", "--out", "out")
    assert _heavy_modules_after(code, tmp_path) == []
    assert (tmp_path / "out" / "summary.json").exists()


def test_forked_sweep_loads_no_pool(tmp_path):
    (tmp_path / "scan.cfg").write_text("run.duration = 20 s\nforces.components = \n"
                                       "run.forces = 10 pN, 100 pN\n")
    code = _cli_run("sweep", "--axis", "force", "--config", "scan.cfg", "--workers", "2",
                    "--out", "out")
    assert _heavy_modules_after(code, tmp_path) == []
    assert len((tmp_path / "out" / "sweep_summary.csv").read_text().splitlines()) == 3


def test_michelson_synthetic_exits_0_in_a_fresh_interpreter(tmp_path):
    loaded = _heavy_modules_after(_cli_run("michelson", "--synthetic", "--out", "out"), tmp_path)
    assert "scipy.optimize" in loaded
    assert json.loads((tmp_path / "out" / "michelson_report.json").read_text())["n_fringes"] > 2


def test_nonnegative_decomposition_in_a_fresh_interpreter(tmp_path):
    out = _fresh(
        "import numpy as np\n"
        "from torsionlab import decompose_residual\n"
        "d = np.geomspace(1e-6, 10e-6, 12)\n"
        "fit = decompose_residual(list(zip(d, 1e-16 / d - 5e-23 / d**2)), nonnegative=True)\n"
        "print(fit.c1 >= 0, fit.c2 == 0.0, fit.c3 >= 0)\n",
        tmp_path,
    )
    assert out.split() == ["True", "True", "True"]


# The package's exports: the 68 names of the eager-import package, less the
# scalar per-step API that moved to tests/oracle.py (PidState, SimState,
# TraceRow, detector_read, feedback_torque, pid_step, pzt_actual_position, step,
# thermal_torque_sample) and run_langevin, whose open loop is a zero-gain
# run_null_measurement.
EXPORTS = {
    "ActuatorSpec", "BalanceSpec", "CONSTANTS", "CalibrationResult", "ConfigError",
    "DetectorSpec", "DomainError", "FiberSpec", "ForceBreakdown", "ForceModelParams", "GapState",
    "InstabilityError", "InstrumentSpec", "MichelsonCalibration", "MichelsonTrace",
    "NullMeasurementResult", "NumericalError", "ParabolaFit", "PhysicalConstants", "PidConfig",
    "PlantParams", "ResidualDecomposition", "RunSchedule", "SPHERE_PRESETS",
    "Scenario", "SchemaError", "SensitivityReport", "SphereSpec", "TorsionLabError",
    "VoltageState", "VoltageSweep", "build_report", "calibrate_sweeps",
    "casimir_force_ideal", "casimir_force_thermal", "constants_table", "contact_point_fit",
    "decompose_residual", "electrostatic_force_exact",
    "electrostatic_force_pfa", "force_law", "force_resolution_from_angle",
    "jitter_force_floor", "load_scenario", "max_thermal_casimir_distance",
    "michelson_calibrate", "natural_frequency", "parabola_fit", "parse_scenario_text",
    "patch_force", "run_electrostatic_calibration",
    "run_null_measurement", "scenario_hash", "swing_angle_noise",
    "synthetic_michelson_trace", "thermal_angle_noise",
    "torsion_constant", "total_force",
}


def test_import_loads_no_submodule_and_no_numpy(tmp_path):
    assert _numpy_and_submodules_after("import torsionlab\n", tmp_path) == [False, []]


def test_load_scenario_loads_no_numpy(tmp_path):
    (tmp_path / "s.cfg").write_text("run.duration = 20 s\ncontrol.kp = 0.4 V/mV\n")
    code = "import torsionlab\nassert torsionlab.load_scenario('s.cfg').pid.kp == 0.4\n"
    numpy, modules = _numpy_and_submodules_after(code, tmp_path)
    assert not numpy
    assert "torsionlab.control" not in modules  # PidConfig lives in instrument


def test_budget_loads_no_numpy(tmp_path):
    numpy, modules = _numpy_and_submodules_after(_cli_run("budget", "--out", "out"), tmp_path)
    assert not numpy
    assert not {"torsionlab.calibration", "torsionlab.control", "torsionlab.dynamics"} & {*modules}
    assert (tmp_path / "out" / "budget.json").exists()


def test_unknown_attribute_raises_without_loading_anything(tmp_path):
    code = (
        "import torsionlab\n"
        "try:\n"
        "    torsionlab.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
    )
    assert _numpy_and_submodules_after(code, tmp_path) == [False, []]


def test_exports_are_unchanged():
    assert set(torsionlab.__all__) == EXPORTS
    assert len(torsionlab.__all__) == len(EXPORTS)


def test_every_export_resolves_and_star_import_works():
    namespace = {}
    exec("from torsionlab import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTS
    assert all(getattr(torsionlab, name) is namespace[name] for name in EXPORTS)
    assert set(dir(torsionlab)) >= EXPORTS


def test_submodules_and_moved_names_resolve():
    from torsionlab import control, instrument, scenario

    assert torsionlab.control is control
    assert torsionlab.PidConfig is control.PidConfig is instrument.PidConfig
    assert scenario.ACTUATOR_MODES is control.ACTUATOR_MODES is instrument.ACTUATOR_MODES
