"""Cold-start guard: the CLI's common commands load neither scipy nor the
process pool.

Every command is a fresh process, so an import on the CLI's path is paid
on every run. Only ``michelson`` (``curve_fit``) and
``decompose_residual(nonnegative=True)`` (``nnls``) need scipy, and only
``sweep --workers N>1`` needs ``concurrent.futures.process``. Each check
runs in a new interpreter, because this test process may already hold
those modules.
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
    "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')"
    " or m == 'concurrent.futures.process')))\n"
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
