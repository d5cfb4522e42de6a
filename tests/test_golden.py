"""Golden digests: fixed CLI scenarios must keep writing the same bytes.

Each case runs one command on a short scenario and compares the SHA-256
of every artifact except run_manifest.json (which carries timestamps)
with a digest captured before the closed loop was batched. A numeric
change that moves a digest must update it here on purpose. The bytes
depend on the numpy/scipy builds and the C math library; the digests
were captured with numpy 2.4.6 and scipy 1.17.1 on glibc 2.36, the
versions the CI workflow installs.
"""

import hashlib

import pytest

from torsionlab.cli import EXIT_OK, main

CALIB = (
    "forces.components = electrostatic\n"
    "forces.v0 = 20 mV\n"
    "forces.v0_log_slope = 5 mV\n"
    "run.contact_offset = 10 um\n"
    "run.positions = 1 um, 1.8 um, 3.6 um, 5.2 um, 6.4 um, 7.3 um, 8 um, 8.5 um\n"
    "run.voltages = -80 mV, -55 mV, -30 mV, -5 mV, 20 mV, 45 mV, 70 mV, 95 mV, 120 mV\n"
    "run.duration = 60 s\n"
)

CASES = {
    "simulate_noise_jitter": (
        ["simulate", "--seed", "7"],
        "run.position = 8 um\n"
        "run.duration = 60 s\n"
        "run.thermal_noise = true\n"
        "run.pzt_jitter = true\n",
    ),
    "simulate_quadratic_json": (
        ["simulate", "--format", "json"],
        "run.applied_force = 100 pN\n"
        "forces.components = \n"
        "control.actuator_mode = quadratic\n"
        "control.sample_interval = 0.2 s\n"
        "run.duration = 60 s\n",
    ),
    "calibrate_readme": (["calibrate"], CALIB),
    "calibrate_noise_jitter": (
        ["calibrate", "--seed", "3"],
        CALIB + "run.thermal_noise = true\nrun.pzt_jitter = true\n",
    ),
    "sweep_force": (
        ["sweep", "--axis", "force", "--workers", "1"],
        "run.forces = 10 pN, 100 pN, 1 nN\n"
        "forces.components = \n"
        "run.duration = 60 s\n",
    ),
    "sweep_position_jitter": (
        ["sweep", "--axis", "position", "--workers", "2"],
        "run.positions = 2 um, 4 um, 6 um, 8 um\n"
        "run.duration = 60 s\n"
        "run.thermal_noise = true\n"
        "run.pzt_jitter = true\n",
    ),
    "budget": (["budget"], ""),
}

GOLDEN = {
    "budget": {
        "budget.json":
            "401ecba52f39536ff058a337855a6f6eae5497d3b0946cad171b3a7d721187a0",
        "budget.txt":
            "12bbc81d613683bb280d28a5796830ad5a905ed463f19b1fb67289e9bbfe761c",
    },
    "calibrate_noise_jitter": {
        "calibration_report.json":
            "9aa27d1952a9de649a33d93a9514f2da12c675324801d72e8a1729de0237fa1e",
        "sweep_fits.csv":
            "a949799ecb3adce9b7892c14703120e177ebd77e10eba6192e62824bce942c90",
        "v0_profile.csv":
            "99acf4cae9a1b98a729673cc3e12a06b94ffcf6e874d2d2d8a2df94d75b43deb",
    },
    "calibrate_readme": {
        "calibration_report.json":
            "a1fb9fc7cb3a8d1a448d696cb780528f39fb6df7b6a4f9011832353384296284",
        "sweep_fits.csv":
            "443b806110734fbe19b22c98ea36479b40df849d3df44b0f1420de475b839bb9",
        "v0_profile.csv":
            "f5c80b61292ee71fb692b7478970e6816382ce0cee76e93605e46d12cfe8962f",
    },
    "simulate_noise_jitter": {
        "summary.json":
            "d08d269e077ecb603d7f62bcc80a7cba46b1a3bc94149fed162cd6a4cd35fcfe",
        "timeseries.csv":
            "41471061e4f120618c3fcd0f96cee0ad2e1a5a2758f151feca7635cd006ca211",
    },
    "simulate_quadratic_json": {
        "summary.json":
            "ddadd635485cb81a24ef24f356aec23156b82b33d54a83081e964a7561bfc035",
        "timeseries.json":
            "6086cbad60b22c8e5b39fd9d477bb78452ab1ed30fa12d3352fc3a883a9d2652",
    },
    "sweep_force": {
        "sweep_summary.csv":
            "71189b2a801ed3cc9c1ab34811e2ed58919561a200ef73edeab07cefa671a55a",
    },
    "sweep_position_jitter": {
        "sweep_summary.csv":
            "c76656274d1562d2e5f76945e60ebbfc3beaf651a67296c0478eaceff9835b69",
    },
}


def artifact_digests(argv, config_text, tmp_path) -> dict:
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == EXIT_OK
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.name != "run_manifest.json"
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden_digests(case, tmp_path):
    argv, config_text = CASES[case]
    assert artifact_digests(argv, config_text, tmp_path) == GOLDEN[case]
