"""Golden digests: fixed CLI scenarios must keep writing the same bytes.

Each case runs one command on a short scenario and compares the SHA-256
of every artifact with a digest captured before the refactor it guards.
run_manifest.json is hashed without its started_at/finished_at lines,
so its digest pins the command string, the artifact order and the
artifact sizes. A numeric change that moves a digest must update it
here on purpose. The bytes depend on the numpy/scipy builds and the C
math library; the digests were captured with numpy 2.4.6 and scipy
1.17.1 on glibc 2.36, the versions the CI workflow installs.
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


def _sweeps_csv() -> str:
    """Parabolic voltage sweeps (d_r_m,V_V,deltaV_V); the sweep at 2 um is flat."""
    lines = ["d_r_m,V_V,deltaV_V"]
    for d_r in (1e-6, 2e-6, 3e-6, 5e-6, 7e-6, 8.5e-6):
        for i in range(7):
            v = -0.1 + i * 0.2 / 6
            wobble = 1e-6 * ((7 * i) % 3 - 1)
            dv = 0.05 if d_r == 2e-6 else 1e-6 / (10e-6 - d_r) * (v - 0.02) ** 2 + wobble
            lines.append(f"{d_r!r},{v!r},{dv!r}")
    return "\n".join(lines) + "\n"


# --input files, by case
INPUTS = {"calibrate_input_flat_position": _sweeps_csv()}

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
    "michelson_synthetic_noise": (["michelson", "--synthetic", "--noise", "5"], ""),
    "calibrate_input_flat_position": (["calibrate"], ""),
}

GOLDEN = {
    "budget": {
        "budget.json":
            "401ecba52f39536ff058a337855a6f6eae5497d3b0946cad171b3a7d721187a0",
        "budget.txt":
            "12bbc81d613683bb280d28a5796830ad5a905ed463f19b1fb67289e9bbfe761c",
        "run_manifest.json":
            "9db87bfdc73a3ade77cbdd5e4cc1f9ab56f5a5e78640a968a099508d16ce383f",
    },
    "calibrate_input_flat_position": {
        "calibration_report.json":
            "1c98314d43f589fbfc5100ac6d8149730d9a1bf1877351d88d3d2700fdf0767f",
        "run_manifest.json":
            "089eaa12179d6b61b4bc96d352f4dc97552df80845e7ad9f09e2bc50965af76e",
        "sweep_fits.csv":
            "f3561088adec546f341f7ec64a9194db4ab0b4f79dc031a577b165e715f228a8",
        "v0_profile.csv":
            "5e1ba781377269bb85bcc4e7745400a9b3e951fc497dedc72d34af80d3cb8234",
    },
    "calibrate_noise_jitter": {
        "calibration_report.json":
            "9aa27d1952a9de649a33d93a9514f2da12c675324801d72e8a1729de0237fa1e",
        "run_manifest.json":
            "cd831f340fc226639dc3f9decabf1c9afc7a4f3cbdb42352201f6e7d1ff65de1",
        "sweep_fits.csv":
            "a949799ecb3adce9b7892c14703120e177ebd77e10eba6192e62824bce942c90",
        "v0_profile.csv":
            "99acf4cae9a1b98a729673cc3e12a06b94ffcf6e874d2d2d8a2df94d75b43deb",
    },
    "calibrate_readme": {
        "calibration_report.json":
            "a1fb9fc7cb3a8d1a448d696cb780528f39fb6df7b6a4f9011832353384296284",
        "run_manifest.json":
            "ff20643f7a491801c60c4760ab2dba3db0a2de548a1aa726f435fcb40d78c1eb",
        "sweep_fits.csv":
            "443b806110734fbe19b22c98ea36479b40df849d3df44b0f1420de475b839bb9",
        "v0_profile.csv":
            "f5c80b61292ee71fb692b7478970e6816382ce0cee76e93605e46d12cfe8962f",
    },
    "michelson_synthetic_noise": {
        "michelson_report.json":
            "44c4cd198644cb07ff855f5a5239223a40f2ba795657176963968e7904058ecb",
        "run_manifest.json":
            "5f845e3957a5b854db78b06bf06bb5e5987abcf6ca51b1a06ece290b1480d4eb",
    },
    "simulate_noise_jitter": {
        "run_manifest.json":
            "32e017ff4cf41cf8f40fd1a124db15db57cd63021b365e7eba578736829734a4",
        "summary.json":
            "7140fc4a81a7edf50012f3954f1b05ddaeab5155dab17ec91caafaa87109c1d2",
        "timeseries.csv":
            "41471061e4f120618c3fcd0f96cee0ad2e1a5a2758f151feca7635cd006ca211",
    },
    "simulate_quadratic_json": {
        "run_manifest.json":
            "8593d25fc309e441442be43b98c7333e7bdcaddcc571e9c2e39335591f1ede32",
        "summary.json":
            "88c625afde7f933d68742b9573ed1f7953db7672539da46363f1983feba4937a",
        "timeseries.json":
            "6086cbad60b22c8e5b39fd9d477bb78452ab1ed30fa12d3352fc3a883a9d2652",
    },
    "sweep_force": {
        "run_manifest.json":
            "56fdfbdeab10e3eaf614acd0009f9b8ddafbc4b6bc5e2a86c182dedbdd340613",
        "sweep_summary.csv":
            "71189b2a801ed3cc9c1ab34811e2ed58919561a200ef73edeab07cefa671a55a",
    },
    "sweep_position_jitter": {
        "run_manifest.json":
            "cc0c8217f67b6e619949c3a155521d8956abcfd6021f33cdc56a3a377dce097e",
        "sweep_summary.csv":
            "c76656274d1562d2e5f76945e60ebbfc3beaf651a67296c0478eaceff9835b69",
    },
}


def _digest(path) -> str:
    data = path.read_bytes()
    if path.name == "run_manifest.json":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.lstrip().startswith((b'"started_at"', b'"finished_at"')))
    return hashlib.sha256(data).hexdigest()


def artifact_digests(case, tmp_path) -> dict:
    argv, config_text = CASES[case]
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(config_text)
    if case in INPUTS:
        data = tmp_path / "input.csv"
        data.write_text(INPUTS[case])
        argv = argv + ["--input", str(data)]
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == EXIT_OK
    return {path.name: _digest(path) for path in sorted(out.iterdir())}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden_digests(case, tmp_path):
    assert artifact_digests(case, tmp_path) == GOLDEN[case]
