"""End-to-end CLI tests: artifacts, determinism, exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from torsionlab import (ConfigError, cli, control, run_electrostatic_calibration,
                        run_null_measurement)
from torsionlab.cli import EXIT_CONFIG, EXIT_INSTABILITY, EXIT_NUMERICAL, EXIT_OK, main
from torsionlab.manifest import verify_manifest
from torsionlab.scenario import load_scenario

FAST_SIM = (
    "run.duration = 60 s\n"
    "run.applied_force = 100 pN\n"
    "forces.components = \n"
    "detector.quantization = 0 V\n"
)


def _cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSimulate:
    def test_writes_timeseries_summary_manifest(self, tmp_path):
        cfg = _cfg(tmp_path, FAST_SIM)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        csv_text = (out / "timeseries.csv").read_text()
        lines = csv_text.splitlines()
        assert lines[0] == "t_s,error_mV,deltaV_V,theta_rad,F_ext_N"
        first = lines[1].split(",")
        assert len(first) == 5
        assert float(first[0]) == 0.05          # plain decimal cells
        assert "np." not in csv_text
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steady_deltaV_V"] == pytest.approx(0.0112941, rel=1e-3)
        assert verify_manifest(out / "run_manifest.json") == []

    def test_same_seed_is_byte_identical(self, tmp_path):
        cfg = _cfg(tmp_path, FAST_SIM + "run.thermal_noise = true\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "timeseries.csv").read_bytes() == (out2 / "timeseries.csv").read_bytes()

    def test_seed_override_changes_noise(self, tmp_path):
        cfg = _cfg(tmp_path, FAST_SIM + "run.thermal_noise = true\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1), "--seed", "1"])
        main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "2"])
        assert (out1 / "timeseries.csv").read_bytes() != (out2 / "timeseries.csv").read_bytes()

    def test_json_format(self, tmp_path):
        cfg = _cfg(tmp_path, FAST_SIM)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--format", "json"]) == EXIT_OK
        rows = json.loads((out / "timeseries.json").read_text())
        assert rows[0].keys() == {"t_s", "error_mV", "deltaV_V", "theta_rad", "F_ext_N"}

    @staticmethod
    def _write_blocks(write, path, n=30, block=7):
        # 30 rows in 7-row blocks: a short last block, block edges, signed
        # zeros and full-precision floats. Returns the rows.
        rng = np.random.default_rng(3)
        columns = (
            np.arange(1, n + 1) * 0.05,
            np.where(np.arange(n) % 3 == 0, -0.0, np.round(rng.normal(size=n), 1)),
            rng.normal(scale=1e-2, size=n),
            rng.normal(scale=1e-9, size=n),
            np.full(n, 1e-10) + rng.normal(scale=1e-13, size=n),
        )
        with open(path, "w", encoding="utf-8") as fh:
            for k0 in range(0, n, block):
                write(fh, k0, [c[k0:k0 + block].tolist() for c in columns])
        return [[float(v) for v in row] for row in zip(*columns)]

    def test_loop_csv_blocks_keep_the_cell_writer_bytes(self, tmp_path):
        # the blocks come out as _write_csv formats them one cell at a time
        rows = self._write_blocks(cli.write_loop_csv, tmp_path / "blocks.csv")
        cli._write_csv(tmp_path / "cells.csv", cli.LOOP_COLUMNS, rows)
        text = (tmp_path / "blocks.csv").read_text()
        assert text == (tmp_path / "cells.csv").read_text()
        assert len(text.splitlines()) == len(rows) + 1 and ",-0.0," in text

    def test_loop_json_blocks_keep_the_whole_array_bytes(self, tmp_path):
        # the blocks, closed by the caller, come out as write_json dumps the
        # whole list of row dicts
        rows = self._write_blocks(cli.write_loop_json, tmp_path / "blocks.json")
        with open(tmp_path / "blocks.json", "a", encoding="utf-8") as fh:
            fh.write("\n]\n")
        cli.write_json(tmp_path / "whole.json", [dict(zip(cli.LOOP_COLUMNS, r)) for r in rows])
        text = (tmp_path / "blocks.json").read_text()
        assert text == (tmp_path / "whole.json").read_text()
        assert len(json.loads(text)) == len(rows) and '"error_mV": -0.0,' in text

    # Runs that fail after writing at least one block of the time series: a
    # 0.7 nm gap that 0.2 nm rms PZT jitter closes in the second block (every
    # force is 0 N, so the loop stays quiet until then), and a divergence
    # limit that thermal noise crosses at step 2,000, when the first third ends.
    FAILING = {
        "closing_gap": (EXIT_CONFIG, "forces.components = electrostatic, patch\n"
                        "forces.applied_voltage = 20 mV\nforces.v0 = 20 mV\n"
                        "forces.patch_rms = 0 V\nrun.contact_offset = 5.0007 um\n"
                        "run.position = 5 um\nrun.pzt_jitter = true\nrun.duration = 300 s\n"),
        "diverging": (EXIT_INSTABILITY, "run.duration = 300 s\nrun.thermal_noise = true\n"
                      "run.delta_theta_min = 1e-15 rad\n"),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", sorted(FAILING))
    def test_failed_run_leaves_no_time_series(self, tmp_path, case, fmt):
        code, text = self.FAILING[case]
        cfg = _cfg(tmp_path, text)
        out = tmp_path / "out"
        writer = f"write_loop_{fmt}"
        with mock.patch.object(cli, writer, wraps=getattr(cli, writer)) as write:
            assert main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--format", fmt]) == code
        assert write.call_count >= 2  # a whole block, then the steps before the error
        assert list(out.iterdir()) == []

    def test_failed_run_keeps_an_earlier_time_series(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(_cfg(tmp_path, FAST_SIM)),
                     "--out", str(out)]) == EXIT_OK
        before = (out / "timeseries.csv").read_bytes()
        cfg = _cfg(tmp_path, self.FAILING["diverging"][1], "diverging.cfg")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_INSTABILITY
        assert (out / "timeseries.csv").read_bytes() == before
        assert verify_manifest(out / "run_manifest.json") == []

    def test_memory_does_not_grow_with_the_run(self, tmp_path):
        # The record streams to timeseries.csv a block at a time. Only the final
        # third's deltaV and theta stay, 16/3 bytes a step: 0.48 MB over 90,000 steps.
        peaks = []
        for steps in (10_000, 100_000):
            cfg = _cfg(tmp_path, f"run.duration = {steps * 0.05:g} s\nrun.position = 8 um\n"
                                 "run.thermal_noise = true\nrun.pzt_jitter = true\n")
            tracemalloc.start()
            try:
                code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK
        assert peaks[1] - peaks[0] < 2 * 2**20

    def test_matches_run_null_measurement(self, tmp_path):
        # simulate and run_null_measurement both step the scenario's own run:
        # the loaded scenario must give the same rows and readout.
        cfg = _cfg(tmp_path, "run.duration = 60 s\nrun.position = 8 um\n"
                             "run.thermal_noise = true\nrun.pzt_jitter = true\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        result = run_null_measurement(load_scenario(cfg))
        columns = (result.t, result.error_mv, result.delta_v, result.theta,
                   result.applied_force)
        rows = (out / "timeseries.csv").read_text().splitlines()[1:]
        assert len(rows) == 1200
        assert rows == [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["steady_deltaV_V"], summary["settled_theta_mean_rad"],
                summary["settled_theta_rms_rad"]) == (
            result.steady_delta_v, result.settled_theta_mean, result.settled_theta_rms)

    def test_unstable_gains_exit_code(self, tmp_path, capsys):
        # with a large bias the sign-flipped gain runs away inside the pre-check
        for text, message in [
            ("control.kp = -0.5 V/mV\n", "loop does not regulate the test step"),
            ("control.kp = -5 V/mV\nactuator.fb_bias = 1e4 V\n",
             "loop diverged during stability pre-check"),
        ]:
            cfg = _cfg(tmp_path, FAST_SIM + text)
            out = tmp_path / "out"
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_INSTABILITY
            assert message in capsys.readouterr().err

    def test_limit_cycle_counts_as_instability(self, tmp_path):
        # sign-flipped P gain with the default I/D terms and a quantized
        # detector parks the loop in a huge bounded limit cycle; the
        # pre-check must refuse it even though nothing diverges
        cfg = _cfg(tmp_path, "run.duration = 60 s\ncontrol.kp = -1 V/mV\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_INSTABILITY

    @pytest.mark.parametrize("argv", [["simulate"], ["sweep", "--axis", "force", "--workers", "1"]])
    def test_precheck_samples_at_the_controller_interval(self, tmp_path, capsys, argv):
        # The default gains hold a loop sampled every 0.05 s step but not one
        # sampled every 1 s: the pre-check must test the loop that will run.
        cfg = _cfg(tmp_path, "control.sample_interval = 1 s\nrun.forces = 100 pN\n"
                             "run.duration = 60 s\nrun.thermal_noise = true\n")
        # The pre-check draws nothing and the noisy run makes a generator once
        # it starts to step, so no call means no run stepped after the refusal.
        with mock.patch.object(control.np.random, "default_rng",
                               wraps=control.np.random.default_rng) as rng:
            code = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_INSTABILITY
        assert rng.call_count == 0
        assert "test step" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path):
        cfg = _cfg(tmp_path, "fiber.length = -1 m\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_manifest_detects_tampering(self, tmp_path):
        cfg = _cfg(tmp_path, FAST_SIM)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert verify_manifest(out / "run_manifest.json") == []
        with open(out / "timeseries.csv", "a") as fh:
            fh.write("tampered\n")
        problems = verify_manifest(out / "run_manifest.json")
        assert problems and "timeseries.csv" in problems[0]
        (out / "summary.json").unlink()
        assert verify_manifest(out / "run_manifest.json") == [
            "checksum mismatch for timeseries.csv", "missing artifact summary.json"]

    def test_manifest_that_is_not_utf8_is_a_config_error(self, tmp_path):
        path = tmp_path / "run_manifest.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError) as exc:
            verify_manifest(path)
        assert str(exc.value).startswith(f"cannot read manifest {path}: ")


class TestCalibrate:
    def test_from_external_csv(self, tmp_path):
        eps0 = 8.8541878128e-12
        beta = eps0 * 1e-4 * 10.0 / 1e-3**2
        c = np.pi * 0.155 * eps0 / beta
        d0 = 10e-6
        lines = ["d_r_m,V_V,deltaV_V"]
        for d_r in (1e-6, 3e-6, 5e-6, 7e-6, 8.5e-6):
            a = c / (d0 - d_r)
            for v in np.linspace(-0.1, 0.1, 7):
                lines.append(f"{d_r},{v},{a * (v - 0.02) ** 2}")
        data = tmp_path / "sweeps.csv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["calibrate", "--input", str(data), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "calibration_report.json").read_text())
        assert report["d0_m"] == pytest.approx(d0, rel=1e-6)
        assert report["beta_N_per_V"] == pytest.approx(beta, rel=1e-6)
        assert all(abs(row["V0_V"] - 0.02) < 1e-6 for row in report["v0_profile"])
        profile = (out / "v0_profile.csv").read_text().splitlines()
        assert profile[0] == "d_m,V0_V"
        assert len(profile) == 6

    def test_simulated_sweeps_from_scenario(self, tmp_path):
        cfg = _cfg(
            tmp_path,
            "forces.components = electrostatic\n"
            "forces.v0 = 20 mV\n"
            "forces.patch_rms = 0 V\n"
            "detector.quantization = 0 V\n"
            "run.contact_offset = 10 um\n"
            "run.positions = 1 um, 3.25 um, 5.5 um, 7 um, 8 um\n"
            "run.voltages = -80 mV, -47 mV, -13 mV, 20 mV, 53 mV, 87 mV, 120 mV\n"
            "run.duration = 180 s\n",
        )
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "calibration_report.json").read_text())
        assert report["d0_m"] == pytest.approx(10e-6, rel=1e-3)
        eps0 = 8.8541878128e-12
        assert report["beta_N_per_V"] == pytest.approx(eps0 * 1e-4 * 10.0 / 1e-3**2, rel=1e-3)
        assert all(abs(row["V0_V"] - 0.02) < 1e-4 for row in report["v0_profile"])

    def test_matches_run_electrostatic_calibration(self, tmp_path):
        # calibrate hands the loaded scenario to run_electrostatic_calibration:
        # the report holds that call's values
        cfg = _cfg(
            tmp_path,
            "forces.components = electrostatic\n"
            "forces.v0 = 20 mV\n"
            "forces.v0_log_slope = 5 mV\n"
            "detector.quantization = 0 V\n"
            "run.contact_offset = 10 um\n"
            "run.positions = 1 um, 3 um, 5.5 um, 8 um\n"
            "run.voltages = -80 mV, -30 mV, 20 mV, 70 mV, 120 mV\n"
            "run.duration = 60 s\n",
        )
        out = tmp_path / "out"
        assert main(["calibrate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "calibration_report.json").read_text())
        result = run_electrostatic_calibration(load_scenario(cfg))
        assert (report["d0_m"], report["beta_N_per_V"], report["prefactor_Vm_per_V2"],
                report["sphere_radius_m"]) == (
            result.d0, result.beta, result.prefactor, result.sphere_radius)
        assert report["v0_profile"] == [{"d_m": d, "V0_V": v0} for d, v0 in result.v0_profile]
        assert [(row["d_r_m"], row["V0_V"], row["curvature_per_V"], row["failed"])
                for row in report["positions"]] == [
            (p.d_r, p.fit.v0, p.fit.curvature, p.failed) for p in result.positions]
        assert len(result.positions) == 4 and not any(p.failed for p in result.positions)

    def test_wrong_header_schema_error(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("V_V,d_r_m,deltaV_V\n0,0,0\n")
        assert main(["calibrate", "--input", str(data),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_two_positions_numerical_error(self, tmp_path):
        eps0 = 8.8541878128e-12
        lines = ["d_r_m,V_V,deltaV_V"]
        for d_r in (1e-6, 3e-6):
            for v in np.linspace(-0.1, 0.1, 7):
                lines.append(f"{d_r},{v},{100.0 * (v - 0.02) ** 2}")
        data = tmp_path / "two.csv"
        data.write_text("\n".join(lines) + "\n")
        assert main(["calibrate", "--input", str(data),
                     "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL

    def test_scenario_without_schedule_is_config_error(self, tmp_path):
        assert main(["calibrate", "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_scenario_without_voltages_exits_2_and_names_the_key(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "run.positions = 1 um, 2 um, 3 um\n")
        code = main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "run.voltages" in capsys.readouterr().err

    @pytest.mark.parametrize("text,keys", [
        ("run.positions = 1 um\n", ["run.positions"]),
        ("run.positions = 2 um, 1 um\n", ["run.positions"]),
        ("run.positions = 1 um, 2 um\nforces.components = patch\n", ["forces.components"]),
        ("run.positions = 1 um, 3 um\nrun.contact_offset = 2 um\n",
         ["run.positions", "run.contact_offset"]),
    ], ids=["one_position", "decreasing", "no_electrostatic", "beyond_contact"])
    def test_refusal_exits_2_and_names_the_keys(self, tmp_path, capsys, text, keys):
        cfg = _cfg(tmp_path, text + "run.voltages = -0.1 V, 0 V, 0.1 V\n")
        code = main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(key in err for key in keys), err


class TestBudget:
    def test_default_budget_reproduces_reference_numbers(self, tmp_path):
        out = tmp_path / "out"
        assert main(["budget", "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "budget.json").read_text())
        assert report["delta_theta_thermal_rad"] == pytest.approx(3.8e-8, rel=0.03)
        assert report["delta_theta_swing_rad"] == pytest.approx(1.5e-10, rel=0.05)
        assert report["force_resolution_N"] <= 3e-12
        assert report["jitter_force_floor_N"]["casimir_thermal"] == pytest.approx(
            0.038e-12, rel=0.05
        )
        assert report["jitter_force_floor_N"]["electrostatic"] == pytest.approx(
            0.025e-12, rel=0.20
        )
        assert report["d_max_thermal_m"] >= 5e-6
        assert (out / "budget.txt").read_text().strip()

    def test_overdamped_balance_budget(self, tmp_path):
        # simulate refuses Q <= 0.5; the budget steps nothing and needs no propagator
        cfg = _cfg(tmp_path, "balance.quality_factor = 0.5\n")
        out, default = tmp_path / "out", tmp_path / "default"
        assert main(["budget", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert main(["budget", "--out", str(default)]) == EXIT_OK
        # Q enters no figure of the budget
        assert (out / "budget.json").read_bytes() == (default / "budget.json").read_bytes()

    def test_cooled_plate_budget(self, tmp_path):
        cfg = _cfg(tmp_path, "forces.temperature = 200 K\n")
        out = tmp_path / "out"
        assert main(["budget", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        r200 = json.loads((out / "budget.json").read_text())
        assert r200["delta_theta_thermal_rad"] == pytest.approx(
            3.7407304352477994e-08 * (200.0 / 300.0) ** 0.5, rel=0.02
        )


class TestMichelson:
    def test_synthetic_trace_report(self, tmp_path):
        out = tmp_path / "out"
        assert main(["michelson", "--synthetic", "--visibility", "0.92",
                     "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "michelson_report.json").read_text())
        assert report["gain_nm_per_V"] == pytest.approx(100.0, rel=1e-6)
        assert report["visibility"] == pytest.approx(0.92, abs=0.01)
        assert report["fringe_displacement_m"] == pytest.approx(316.4e-9, rel=1e-12)

    def test_constant_intensity_is_numerical_error(self, tmp_path):
        data = tmp_path / "flat.csv"
        lines = ["pzt_V,intensity"] + [f"{v},500.0" for v in np.linspace(0, 10, 100)]
        data.write_text("\n".join(lines) + "\n")
        assert main(["michelson", "--input", str(data),
                     "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL

    def test_needs_input_or_synthetic(self, tmp_path):
        assert main(["michelson", "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("flag,value,named", [("--noise", "-1", "noise rms"),
                                                  ("--wavelength-nm", "0", "wavelength")])
    def test_bad_synthetic_input_exits_2_without_warnings(self, tmp_path, capsys,
                                                           flag, value, named):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["michelson", "--synthetic", flag, value, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert caught == []

    # Without the option checks --noise nan gave a noiseless fit and exit 0, and
    # the others a fit error and exit 3, the infinite noise and fringe count
    # after a numpy RuntimeWarning.
    BAD_OPTIONS = [("--noise", "nan"), ("--noise", "inf"), ("--fringes", "inf"),
                   ("--fringes", "nan"), ("--gain-nm-per-v", "nan"), ("--gain-nm-per-v", "inf"),
                   ("--wavelength-nm", "nan"), ("--wavelength-nm", "inf"), ("--points", "15")]

    @pytest.mark.parametrize("option,value", BAD_OPTIONS)
    def test_bad_synthetic_option_exits_2_and_names_it(self, tmp_path, capsys, option, value):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["michelson", "--synthetic", option, value,
                         "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert f"{option}:" in capsys.readouterr().err
        assert caught == []

    @staticmethod
    def _trace_csv(tmp_path, samples):
        volts = np.linspace(0.0, 20.0, samples)
        intensity = 1000.0 * (1.0 + 0.9 * np.cos(4.0 * np.pi * 100e-9 * volts / 632.8e-9))
        data = tmp_path / "trace.csv"
        data.write_text("pzt_V,intensity\n" + "".join(
            f"{v!r},{i!r}\n" for v, i in zip(volts.tolist(), intensity.tolist())))
        return data

    def test_input_wavelength_nan_exits_2_and_names_it(self, tmp_path, capsys):
        # it gave "gain = nan nm/V" and exit 0
        data = self._trace_csv(tmp_path, 200)
        assert main(["michelson", "--input", str(data), "--wavelength-nm", "nan",
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "--wavelength-nm:" in capsys.readouterr().err

    def test_short_input_trace_is_numerical_error(self, tmp_path):
        # --points bounds the synthetic trace; a short measured trace is a fit error
        data = self._trace_csv(tmp_path, 15)
        assert main(["michelson", "--input", str(data),
                     "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL


class TestSweep:
    CFG = (
        "run.duration = 40 s\n"
        "forces.components = \n"
        "detector.quantization = 0 V\n"
        "run.forces = 10 pN, 20 pN, 40 pN\n"
    )

    def test_force_sweep_rows_ordered_and_linear(self, tmp_path):
        cfg = _cfg(tmp_path, self.CFG)
        out = tmp_path / "out"
        assert main(["sweep", "--axis", "force", "--config", str(cfg),
                     "--out", str(out), "--workers", "2"]) == EXIT_OK
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert lines[0] == "index,F_ext_N,steady_deltaV_V,settled_theta_rms_rad"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [0, 1, 2]
        steadys = [float(r[2]) for r in rows]
        assert steadys[1] == pytest.approx(2 * steadys[0], rel=0.01)
        assert steadys[2] == pytest.approx(4 * steadys[0], rel=0.01)

    def test_serial_matches_parallel(self, tmp_path):
        cfg = _cfg(tmp_path, self.CFG)
        out1, out2 = tmp_path / "p", tmp_path / "s"
        main(["sweep", "--axis", "force", "--config", str(cfg), "--out", str(out1),
              "--workers", "2"])
        main(["sweep", "--axis", "force", "--config", str(cfg), "--out", str(out2),
              "--workers", "1"])
        assert (out1 / "sweep_summary.csv").read_bytes() == (out2 / "sweep_summary.csv").read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2_and_names_the_option(self, tmp_path, capsys, workers):
        # both ran serially and exited 0
        cfg = _cfg(tmp_path, self.CFG)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "force", "--config", str(cfg), "--out", str(tmp_path / "o"),
                  "--workers", workers])
        assert exc.value.code == EXIT_CONFIG
        assert "--workers" in capsys.readouterr().err

    def test_missing_axis_values_is_config_error(self, tmp_path):
        cfg = _cfg(tmp_path, "run.duration = 40 s\n")
        assert main(["sweep", "--axis", "position", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_position_sweep_readout_grows_toward_contact(self, tmp_path):
        cfg = _cfg(
            tmp_path,
            "run.duration = 120 s\n"
            "forces.components = patch, casimir_ideal, casimir_thermal\n"
            "run.contact_offset = 10 um\n"
            "run.positions = 2 um, 5 um, 8 um\n"
            "detector.quantization = 0 V\n",
        )
        out = tmp_path / "out"
        assert main(["sweep", "--axis", "position", "--config", str(cfg),
                     "--out", str(out), "--workers", "1"]) == EXIT_OK
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert lines[0] == "index,d_r_m,steady_deltaV_V,settled_theta_rms_rad"
        steadys = [float(line.split(",")[2]) for line in lines[1:]]
        assert steadys[0] < steadys[1] < steadys[2]

    def test_closed_gap_at_a_point_exits_2_and_names_the_point(self, tmp_path, capsys):
        # the second point's gap d0 - d_r is -0.5 um
        cfg = _cfg(tmp_path, "run.contact_offset = 10 um\nrun.positions = 2 um, 10.5 um\n")
        assert main(["sweep", "--axis", "position", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "d = d0 - d_r = -5e-07 m must be positive in the run at d_r = 1.05e-05 m" in err


class TestSweepPointScenario:
    # 0.247 mV is one of the steps that a copy through SI volts (x 1e-3, then
    # / 1e-3) does not give back exactly: a point must get the loaded scenario.
    CFG = (
        "run.duration = 20 s\n"
        "detector.quantization = 0.247 mV\n"
        "run.contact_offset = 10 um\n"
        "run.positions = 2 um, 5 um\n"
        "run.forces = 10 pN, 20 pN\n"
    )
    # --axis -> (run list it sweeps, run field each point sets)
    AXES = {"position": ("positions", "position"), "force": ("forces", "applied_force")}

    def _check(self, cfg, axis, seen):
        loaded = load_scenario(cfg)
        swept, key = self.AXES[axis]
        values = getattr(loaded.run, swept)
        assert len(seen) == len(values)
        for index, (scenario, value) in enumerate(zip(seen, values)):
            # a run that draws nothing never reads its seed: it keeps the loaded one
            seed = loaded.seed
            if loaded.run.thermal_noise or loaded.run.pzt_jitter:
                seed = int(np.random.SeedSequence([loaded.seed, index]).generate_state(1)[0])
            assert scenario == replace(loaded, seed=seed, run=replace(loaded.run, **{key: value}))

    def _sweep_points(self, tmp_path, text):
        cfg = _cfg(tmp_path, text)
        for axis in self.AXES:
            # cli looks the kernel up at call time, and so does the pre-check
            with mock.patch.object(control, "_closed_loop", wraps=control._closed_loop) as loop:
                assert main(["sweep", "--axis", axis, "--config", str(cfg),
                             "--out", str(tmp_path / axis), "--workers", "2"]) == EXIT_OK
            # the first point runs the pre-check, which reads neither the value nor the seed
            first, step_test, *rest = loop.call_args_list
            assert step_test.args[1] == [control._Run(applied_force=100e-12)]
            assert step_test.kwargs["check_stability"] is False
            points = [first, *rest]
            assert [c.kwargs["check_stability"] for c in points] == [True] + [False] * len(rest)
            self._check(cfg, axis, [c.args[0] for c in points])

    def test_serial_point_runs_the_loaded_scenario(self, tmp_path):
        self._sweep_points(tmp_path, self.CFG)

    def test_noisy_point_runs_the_loaded_scenario_with_a_derived_seed(self, tmp_path):
        self._sweep_points(tmp_path, self.CFG + "run.thermal_noise = true\nrun.pzt_jitter = true\n")


class TestSweepRunsInOrder:
    FORCES = "run.duration = 40 s\nforces.components = \ndetector.quantization = 0 V\n"

    def _sweep(self, tmp_path, forces, workers, name):
        cfg = _cfg(tmp_path, self.FORCES + f"run.forces = {forces}\n")
        out = tmp_path / name
        code = main(["sweep", "--axis", "force", "--config", str(cfg), "--out", str(out),
                     "--workers", str(workers)])
        return code, out

    def test_every_worker_count_writes_the_serial_bytes(self, tmp_path, monkeypatch):
        fork = mock.Mock(side_effect=OSError("no fork here"))
        monkeypatch.setattr(os, "fork", fork)
        summaries = []
        for workers in (1, 2, 4, 9):
            code, out = self._sweep(tmp_path, "10 pN, 20 pN, 40 pN, 80 pN, 160 pN", workers,
                                    f"w{workers}")
            assert code == EXIT_OK
            summaries.append((out / "sweep_summary.csv").read_bytes())
        assert not fork.called
        assert summaries == [summaries[0]] * 4

    def test_stderr_does_not_depend_on_workers(self, tmp_path):
        # Each point warns at every step with the same text. Fresh processes,
        # because this one's warning registry may already hold the warning.
        cfg = _cfg(tmp_path, "forces.components = casimir_ideal\nsphere.radius = 20 um\n"
                             "run.contact_offset = 10 um\n"
                             "run.positions = 7.99 um, 7.995 um, 7.999 um, 7.9995 um\n")
        src = Path(cli.__file__).resolve().parents[1]
        outcomes = []
        for workers in (1, 2, 4):
            out = tmp_path / f"w{workers}"
            proc = subprocess.run(
                [sys.executable, "-m", "torsionlab.cli", "sweep", "--config", str(cfg),
                 "--out", str(out), "--workers", str(workers)],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": str(src)},
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            outcomes.append((proc.stderr, (out / "sweep_summary.csv").read_bytes()))
        assert outcomes[0][0].count("PfaValidityWarning") == 1
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]

    def test_first_point_that_diverges_fails_and_is_named(self, tmp_path, capsys):
        # Points 3 and 4 diverge, at different times: the error of point 3 wins.
        forces = "10 pN, 20 pN, 40 pN, 1000 uN, 2000 uN"
        outcomes = []
        for workers in (1, 2):
            code, _ = self._sweep(tmp_path, forces, workers, f"w{workers}")
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0][0] == EXIT_INSTABILITY
        assert " in the run at F_ext = 0.001 N with gains " in outcomes[0][1]
        assert outcomes[1] == outcomes[0]


class TestSweepChecksSettingsAsSimulate:
    # Each case: scenario text. The run's settings must be refused with the
    # same first error, and the same exit code, as simulate refuses them.
    CASES = {
        "too_few_steps": "run.dt = 5 s\nrun.duration = 1 s\n",
        "over_the_step_cap": "run.duration = 1e9 s\n",
        "coarse_dt": "run.dt = 5 s\n",
        "unstable_gains": "control.kp = -0.5 V/mV\n",
        "slow_controller": "control.sample_interval = 1 s\n",
        "precheck_over_the_cap": "fiber.diameter = 1e-30 m\n",
        "overdamped_balance": "balance.quality_factor = 0.5\n",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_error_and_exit_code(self, tmp_path, capsys, case):
        cfg = _cfg(tmp_path, self.CASES[case] + "run.forces = 100 pN\n")
        outcomes = []
        for argv in (["simulate"], ["sweep", "--axis", "force", "--workers", "2"]):
            with mock.patch.object(control, "_stability_precheck",
                                   wraps=control._stability_precheck) as precheck:
                code = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")])
            outcomes.append((code, capsys.readouterr().err.splitlines()[0]))
            if case == "over_the_step_cap":  # refused before the pre-check starts
                assert precheck.call_count == 0
        assert outcomes[0][0] != EXIT_OK
        assert outcomes[1] == outcomes[0]


class TestOutputDir:
    def test_scenario_output_dir_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = _cfg(tmp_path, "output.dir = budget_out\n")
        assert main(["budget", "--config", str(cfg)]) == EXIT_OK
        assert (tmp_path / "budget_out" / "budget.json").exists()


@pytest.mark.parametrize("command", ["calibrate", "budget", "michelson", "sweep"])
def test_format_is_a_simulate_option_only(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--format", "json", "--out", str(tmp_path / "o")])
    assert exc.value.code == EXIT_CONFIG


class TestBadInputExitCode:
    # Each case: extra arguments, scenario text, text the message must name.
    CASES = {
        "nan_duration": ([], "run.duration = nan s\n", "run.duration"),
        "inf_duration": ([], "run.duration = inf s\n", "run.duration"),
        "nan_fiber_length": ([], "fiber.length = nan m\n", "fiber.length"),
        "nan_temperature": ([], "forces.temperature = nan K\n", "forces.temperature"),
        "nan_kp": ([], "control.kp = nan V/mV\n", "control.kp"),
        "overflowing_quantity": ([], "fiber.torsion_modulus = 1e308 GPa\n",
                                 "fiber.torsion_modulus"),
        "negative_seed": ([], "seed = -3\n", "seed"),
        "negative_seed_flag": (["--seed", "-1"], "", "--seed"),
        "preset_with_radius": ([], "sphere.preset = bead-110um\nsphere.radius = 1 cm\n",
                               "sphere.preset"),
        "preset_with_material": ([], "sphere.preset = bead-110um\nsphere.material = glass\n",
                                 "sphere.preset"),
        "position_beyond_range": ([], "run.position = 20 um\n", "run.position"),
        "position_below_range": ([], "run.position = -1 um\n", "run.position"),
        "positions_beyond_range": ([], "run.positions = 1 um, 16 um\n", "run.positions"),
        "positions_beyond_custom_range": (
            [], "actuator.pzt_range = 5 um\nrun.positions = 1 um, 6 um\n", "run.positions"),
        "overflowing_fiber_diameter": ([], "fiber.diameter = 1e100 m\n", "fiber.diameter"),
        "vanishing_fiber_diameter": ([], "fiber.diameter = 1e-30 m\n", "fiber.diameter"),
        "underflowing_fiber_diameter": ([], "fiber.diameter = 1e-100 m\n", "fiber.diameter"),
        "huge_moment_of_inertia": ([], "balance.moment_of_inertia = 1e12 kg.m2\n",
                                   "balance.moment_of_inertia"),
        # fb_gap**2 underflows to 0 (ZeroDivisionError) or overflows
        "tiny_fb_gap": ([], "actuator.fb_gap = 1e-300 m\n", "actuator.fb_gap"),
        "huge_fb_gap": ([], "actuator.fb_gap = 1e300 m\n", "actuator.fb_gap"),
        "huge_patch_rms": ([], "forces.patch_rms = 1e300 V\n", "forces.patch_rms"),
        # step counts past the cap: an array too large to index, or 74.5 GiB
        "huge_duration": ([], "run.duration = 1e300 s\n", "run.duration"),
        "long_duration": ([], "run.duration = 1e8 s\n", "run.duration"),
        # a power of the gap d0 - d_r in the force law overflows, or underflows to 0
        "huge_contact_offset": ([], "run.duration = 20 s\nrun.contact_offset = 1e300 m\n",
                                "run.contact_offset"),
        "tiny_contact_offset": ([], "run.duration = 20 s\nrun.contact_offset = 1e-300 m\n",
                                "run.contact_offset"),
        # a reading of 1 rad, in quantization steps, is beyond the float range
        "quantization_too_fine_for_sensitivity": (
            [], "detector.sensitivity = 1e10 mV/urad\ndetector.quantization = 1e-300 mV\n",
            "detector.quantization"),
        # Q <= 0.5 has no underdamped propagator; a step over period/50 does not
        # resolve the pendulum, whose period the fiber and the inertia set
        "overdamped_balance": ([], "balance.quality_factor = 0.5\n", "balance.quality_factor"),
        "coarse_dt": ([], "run.dt = 5 s\n", "run.dt"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_and_names_the_key(self, tmp_path, capsys, case):
        extra, text, key = self.CASES[case]
        cfg = _cfg(tmp_path, text)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), *extra])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_calibrate_huge_contact_offset_exits_2_and_names_the_keys(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "run.duration = 20 s\nrun.contact_offset = 1e300 m\n"
                             "run.positions = 1 um, 2 um\nrun.voltages = -0.1 V, 0 V, 0.1 V\n")
        code = main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "run.contact_offset" in err and "run.positions" in err


    @pytest.mark.parametrize("argv,text", [
        (["calibrate"], "run.positions = 1 um, 2 um\nrun.voltages = -0.1 V, 0 V, 0.1 V\n"),
        (["sweep", "--axis", "force"], "run.forces = 10 pN, 20 pN\n"),
    ], ids=["calibrate", "sweep"])
    def test_quantization_too_fine_for_sensitivity_names_both_keys(self, tmp_path, capsys,
                                                                   argv, text):
        cfg = _cfg(tmp_path, self.CASES["quantization_too_fine_for_sensitivity"][1] + text)
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "detector.sensitivity" in err and "detector.quantization" in err


class TestBudgetBadInputExitCode:
    # Each case: scenario text, key the message must name. The first four
    # used to end in an OverflowError or ZeroDivisionError and exit 1.
    CASES = {
        "huge_reference_distance": ("budget.reference_distance = 1e300 m\n",
                                    "budget.reference_distance"),
        "tiny_reference_distance": ("budget.reference_distance = 1e-300 m\n",
                                    "budget.reference_distance"),
        "huge_casimir_arm": ("balance.casimir_arm = 1e300 m\n", "balance.casimir_arm"),
        "huge_patch_rms": ("forces.patch_rms = 1e300 V\n", "forces.patch_rms"),
        # no exception here: products overflow to inf, which budget.json
        # would hold as the non-standard JSON token Infinity
        "infinite_floors": ("forces.patch_rms = 1e150 V\nbudget.reference_distance = 1e-90 m\n",
                            "budget.reference_distance"),
    }

    @pytest.mark.filterwarnings("ignore::torsionlab.errors.PfaValidityWarning")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_and_names_the_key(self, tmp_path, capsys, case):
        text, key = self.CASES[case]
        cfg = _cfg(tmp_path, text)
        assert main(["budget", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert key in capsys.readouterr().err


# Sweeps and a fringe trace with one nan cell: they used to exit 3 with "sweep
# curvatures must share one sign" and "only 1 fringe(s) covered".
NAN_SWEEPS = "d_r_m,V_V,deltaV_V\n" + "".join(
    f"{d}e-06,{v},{'nan' if (d, v) == (1, 0.1) else (v - 0.02) ** 2 / (10 - d)}\n"
    for d in (1, 3, 5, 7) for v in (-0.1, -0.05, 0.0, 0.05, 0.1))
NAN_TRACE = "pzt_V,intensity\n" + "".join(
    f"{i / 4},{'nan' if i == 7 else 1000 + 900 * np.cos(i / 2)}\n" for i in range(64))
# command -> its file option, a readable file for it, and one with a nan
FILE_OPTIONS = {
    "calibrate": ("--input", "d_r_m,V_V,deltaV_V\n1e-06,0.1,0.002\n", NAN_SWEEPS),
    "michelson": ("--input", "pzt_V,intensity\n0.0,1000.0\n", NAN_TRACE),
    "simulate": ("--config", "run.duration = 20 s\n", "run.duration = nan s\n"),
}

@pytest.mark.parametrize("case", ["missing", "directory", "not_utf8", "nan_cell",
                                  "out_under_file"])
@pytest.mark.parametrize("command", sorted(FILE_OPTIONS))
def test_bad_file_exits_2_and_names_the_path(tmp_path, capsys, command, case):
    option, good, nan = FILE_OPTIONS[command]
    path, out = tmp_path / "input", tmp_path / "o"
    if case == "directory":
        path.mkdir()
    elif case == "not_utf8":
        path.write_bytes(good.encode() + b"\xff\n")
    elif case == "nan_cell":
        path.write_text(nan)
    elif case == "out_under_file":
        path.write_text(good)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "o"
    assert main([command, option, str(path), "--out", str(out)]) == EXIT_CONFIG
    assert str(out if case == "out_under_file" else path) in capsys.readouterr().err
