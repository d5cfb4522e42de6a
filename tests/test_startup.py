"""Cold-start guard: the CLI's commands load neither scipy nor a process
pool, and the math-only paths load no numpy.

Every command is a fresh process, so an import on the CLI's path is paid
on every run. The package needs numpy alone: ``michelson`` and
``decompose_residual(nonnegative=True)`` fit with it, and load no scipy.
``sweep`` runs its points in order in its own process, and no command
loads ``multiprocessing`` or ``concurrent.futures``. ``import
torsionlab`` loads no submodule, and ``load_scenario`` and ``budget`` run
on ``math`` alone. A loop that draws no normals (no thermal noise, no PZT
jitter) loads no ``numpy.random``, and a CLI run starts no OpenBLAS pool
thread. The digests come from the interpreter's own SHA-256 and equal
hashlib's, and the CLI blocks OpenSSL's ``_hashlib`` before a run that
draws imports ``numpy.random`` (``secrets`` -> ``hmac`` -> ``_hashlib``),
so no command maps libcrypto. Each check runs in a new interpreter,
because this test process may already hold those modules.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torsionlab
from torsionlab.cli import main
from torsionlab.scenario import Scenario, load_scenario, scenario_hash

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


def test_sweep_with_workers_loads_no_pool(tmp_path):
    (tmp_path / "scan.cfg").write_text("run.duration = 20 s\nforces.components = \n"
                                       "run.forces = 10 pN, 100 pN\n")
    code = _cli_run("sweep", "--axis", "force", "--config", "scan.cfg", "--workers", "2",
                    "--out", "out")
    assert _heavy_modules_after(code, tmp_path) == []
    assert len((tmp_path / "out" / "sweep_summary.csv").read_text().splitlines()) == 3


# The README's force.cfg, at 20 s.
FORCE_CFG = ("run.duration = 20 s\nrun.applied_force = 100 pN\nforces.components = \n"
             "detector.quantization = 0 V\n")


def _loads_numpy_random(code, cwd):
    return _fresh(code + "import sys\nprint('numpy.random' in sys.modules)\n",
                  cwd).splitlines()[-1] == "True"


def test_noiseless_simulate_loads_no_numpy_random(tmp_path):
    (tmp_path / "force.cfg").write_text(FORCE_CFG)
    code = _cli_run("simulate", "--config", "force.cfg", "--out", "out")
    assert not _loads_numpy_random(code, tmp_path)
    assert (tmp_path / "out" / "timeseries.csv").exists()


def test_noisy_simulate_loads_numpy_random(tmp_path):
    (tmp_path / "noisy.cfg").write_text(FORCE_CFG + "run.thermal_noise = true\n")
    code = _cli_run("simulate", "--config", "noisy.cfg", "--out", "out")
    assert _loads_numpy_random(code, tmp_path)


# The README calibrate grid, at 4 positions and 60 s.
CALIB_CFG = ("forces.components = electrostatic\nforces.v0 = 20 mV\nrun.contact_offset = 10 um\n"
             "run.positions = 1 um, 3.6 um, 6.4 um, 8.5 um\n"
             "run.voltages = -80 mV, -55 mV, -30 mV, -5 mV, 20 mV, 45 mV, 70 mV, 95 mV, 120 mV\n"
             "run.duration = 60 s\n")


def test_noiseless_calibrate_loads_no_numpy_random(tmp_path):
    (tmp_path / "calib.cfg").write_text(CALIB_CFG)
    code = _cli_run("calibrate", "--config", "calib.cfg", "--out", "out")
    assert not _loads_numpy_random(code, tmp_path)
    assert (tmp_path / "out" / "calibration_report.json").exists()


# The README force scan.
SCAN_CFG = "run.forces = 10 pN, 100 pN, 1 nN\nforces.components = \n"


def test_noiseless_sweep_loads_no_numpy_random(tmp_path):
    (tmp_path / "scan.cfg").write_text(SCAN_CFG)
    code = _cli_run("sweep", "--axis", "force", "--config", "scan.cfg", "--out", "out")
    assert not _loads_numpy_random(code, tmp_path)
    assert len((tmp_path / "out" / "sweep_summary.csv").read_text().splitlines()) == 4


def test_noisy_sweep_loads_numpy_random(tmp_path):
    (tmp_path / "noisy.cfg").write_text(SCAN_CFG + "run.thermal_noise = true\n")
    code = _cli_run("sweep", "--axis", "force", "--config", "noisy.cfg", "--out", "out")
    assert _loads_numpy_random(code, tmp_path)


def _openssl_after(code, cwd):
    """The hash modules ``code`` loaded, whether it loaded ``numpy.random``, and
    whether libcrypto is mapped (None off Linux).

    A module counts only when its ``sys.modules`` value is not None: a None
    entry is what blocks the import.
    """
    report = (
        "import json, sys\n"
        "try:\n"
        "    with open('/proc/self/maps') as fh:\n"
        "        mapped = 'libcrypto' in fh.read()\n"
        "except OSError:\n"
        "    mapped = None\n"
        "print(json.dumps([sorted(m for m in ('hashlib', '_hashlib')"
        " if sys.modules.get(m) is not None), 'numpy.random' in sys.modules, mapped]))\n"
    )
    return json.loads(_fresh(code + report, cwd).splitlines()[-1])


def _assert_digests(out, scenario):
    """The manifest's digests are hashlib's of the same bytes."""
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["scenario_hash"] == scenario_hash(scenario)
    assert manifest["artifacts"]
    for entry in manifest["artifacts"]:
        assert entry["sha256"] == hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()


# Each case: scenario text (None: no --config), the command and its options,
# and whether it draws normals (and so imports numpy.random).
COMMANDS = {
    "budget": (None, ["budget"], False),
    "calibrate": (CALIB_CFG, ["calibrate"], False),
    "simulate": (FORCE_CFG, ["simulate"], False),
    "sweep": (SCAN_CFG, ["sweep", "--axis", "force"], False),
    "noisy-simulate": (FORCE_CFG + "run.thermal_noise = true\nrun.pzt_jitter = true\n",
                       ["simulate"], True),
    "noisy-sweep": (SCAN_CFG + "run.thermal_noise = true\n", ["sweep", "--axis", "force"], True),
    "michelson": (None, ["michelson", "--synthetic", "--noise", "5"], True),
}


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_command_loads_no_openssl_and_writes_its_digests(tmp_path, case):
    text, argv, draws = COMMANDS[case]
    if text is not None:
        (tmp_path / "s.cfg").write_text(text)
        argv = [*argv, "--config", "s.cfg"]
    modules, drew, mapped = _openssl_after(_cli_run(*argv, "--out", "out"), tmp_path)
    assert drew == draws
    # a run that draws imports hashlib through numpy.random -> secrets -> hmac
    assert "_hashlib" not in modules if draws else modules == []
    assert not mapped
    scenario = Scenario() if text is None else load_scenario(tmp_path / "s.cfg")
    _assert_digests(tmp_path / "out", scenario)


def test_main_keeps_an_openssl_that_is_already_loaded(tmp_path):
    loaded = pytest.importorskip("_hashlib")
    assert main(["budget", "--out", str(tmp_path / "out")]) == 0
    assert sys.modules["_hashlib"] is loaded


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="lists threads from /proc")
def test_cli_starts_no_blas_pool_thread(tmp_path):
    (tmp_path / "noisy.cfg").write_text(SCAN_CFG + "run.thermal_noise = true\n")
    code = ("import os\nos.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
            + _cli_run("sweep", "--axis", "force", "--config", "noisy.cfg", "--out", "out")
            + "import sys\nassert 'numpy' in sys.modules\n"
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n")
    assert _fresh(code, tmp_path).splitlines()[-1] == "1 1"


def test_michelson_synthetic_exits_0_in_a_fresh_interpreter(tmp_path):
    loaded = _heavy_modules_after(_cli_run("michelson", "--synthetic", "--out", "out"), tmp_path)
    assert loaded == []
    assert json.loads((tmp_path / "out" / "michelson_report.json").read_text())["n_fringes"] > 2


def test_nonnegative_decomposition_in_a_fresh_interpreter(tmp_path):
    out = _fresh(
        "import numpy as np\n"
        "from torsionlab import decompose_residual\n"
        "d = np.geomspace(1e-6, 10e-6, 12)\n"
        "fit = decompose_residual(list(zip(d, 1e-16 / d - 5e-23 / d**2)), nonnegative=True)\n"
        "print(fit.c1 >= 0, fit.c2 == 0.0, fit.c3 >= 0)\n" + REPORT,
        tmp_path,
    ).splitlines()
    assert out[0].split() == ["True", "True", "True"]
    assert json.loads(out[1]) == []


# The package's exports: the 68 names of the eager-import package, less the
# scalar per-step API that moved to tests/oracle.py (PidState, SimState,
# TraceRow, detector_read, feedback_torque, pid_step, pzt_actual_position, step,
# thermal_torque_sample), run_langevin, whose open loop is a zero-gain
# run_null_measurement, and the plant's settings class: the kernel reads the
# plant from the Scenario.
EXPORTS = {
    "ActuatorSpec", "BalanceSpec", "CONSTANTS", "CalibrationResult", "ConfigError",
    "DetectorSpec", "DomainError", "FiberSpec", "ForceBreakdown", "ForceModelParams", "GapState",
    "InstabilityError", "InstrumentSpec", "MichelsonCalibration", "MichelsonTrace",
    "NullMeasurementResult", "NumericalError", "ParabolaFit", "PhysicalConstants", "PidConfig",
    "ResidualDecomposition", "RunSchedule", "SPHERE_PRESETS",
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
