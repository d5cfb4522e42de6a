"""End-to-end CLI tests: artifacts, determinism, exit codes."""

import concurrent.futures
import json
import warnings
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from torsionlab import cli, control
from torsionlab.cli import EXIT_CONFIG, EXIT_INSTABILITY, EXIT_NUMERICAL, EXIT_OK, main
from torsionlab.manifest import verify_manifest
from torsionlab.scenario import Scenario, load_scenario

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
    def _blocked_record(monkeypatch, n=30):
        # 30 rows in 7-row blocks: a short last block, block edges, signed
        # zeros and full-precision floats. Returns the record and its rows.
        rng = np.random.default_rng(3)
        columns = {
            "t": np.arange(1, n + 1) * 0.05,
            "error_mv": np.where(np.arange(n) % 3 == 0, -0.0, np.round(rng.normal(size=n), 1)),
            "delta_v": rng.normal(scale=1e-2, size=n),
            "theta": rng.normal(scale=1e-9, size=n),
            "applied_force": np.full(n, 1e-10) + rng.normal(scale=1e-13, size=n),
        }
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 7)
        rows = [[float(v) for v in row]
                for row in zip(*(columns[a] for a in cli.LOOP_COLUMNS.values()))]
        return SimpleNamespace(**columns), rows

    def test_loop_csv_blocks_keep_the_cell_writer_bytes(self, tmp_path, monkeypatch):
        # the blocks come out as _write_csv formats them one cell at a time
        result, rows = self._blocked_record(monkeypatch)
        cli.write_loop_csv(result, tmp_path / "blocks.csv")
        cli._write_csv(tmp_path / "cells.csv", cli.LOOP_COLUMNS, rows)
        text = (tmp_path / "blocks.csv").read_text()
        assert text == (tmp_path / "cells.csv").read_text()
        assert len(text.splitlines()) == len(rows) + 1 and ",-0.0," in text

    def test_loop_json_blocks_keep_the_whole_array_bytes(self, tmp_path, monkeypatch):
        # the blocks come out as _write_json dumps the whole list of row dicts
        result, rows = self._blocked_record(monkeypatch)
        cli.write_loop_json(result, tmp_path / "blocks.json")
        cli._write_json(tmp_path / "whole.json", [dict(zip(cli.LOOP_COLUMNS, r)) for r in rows])
        text = (tmp_path / "blocks.json").read_text()
        assert text == (tmp_path / "whole.json").read_text()
        assert len(json.loads(text)) == len(rows) and '"error_mV": -0.0,' in text

    def test_unstable_gains_exit_code(self, tmp_path):
        cfg = _cfg(tmp_path, FAST_SIM + "control.kp = -0.5 V/mV\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_INSTABILITY

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
                             "run.duration = 60 s\n")
        with mock.patch.object(control, "_closed_loop", wraps=control._closed_loop) as loop:
            code = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_INSTABILITY
        assert loop.call_count == 1  # the pre-check's own run, no run step after it
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


def _sweep_point_and_its_scenario(payload):
    """Pool worker: one sweep point's row and the scenario it simulated."""
    with mock.patch.object(cli, "_run_simulation", wraps=cli._run_simulation) as run:
        row = cli._sweep_point(payload)
    return row, run.call_args.args[0]


class TestSweepPointScenario:
    # 0.247 mV is one of the steps the flat form does not give back exactly.
    CFG = (
        "run.duration = 20 s\n"
        "detector.quantization = 0.247 mV\n"
        "run.contact_offset = 10 um\n"
        "run.positions = 2 um, 5 um\n"
    )

    def _check(self, cfg, seen):
        loaded = load_scenario(cfg)
        assert Scenario.from_flat(loaded.to_flat()) != loaded  # the hazard is present
        assert len(seen) == len(loaded.run.positions)
        for index, scenario in enumerate(seen):
            child = np.random.SeedSequence([loaded.seed, index]).generate_state(1)[0]
            assert scenario == replace(loaded, seed=int(child))

    def test_serial_point_runs_the_loaded_scenario(self, tmp_path):
        cfg = _cfg(tmp_path, self.CFG)
        with mock.patch.object(cli, "_run_simulation", wraps=cli._run_simulation) as run:
            assert main(["sweep", "--axis", "position", "--config", str(cfg),
                         "--out", str(tmp_path / "o"), "--workers", "1"]) == EXIT_OK
        self._check(cfg, [c.args[0] for c in run.call_args_list])

    def test_pooled_point_runs_the_loaded_scenario(self, tmp_path, monkeypatch):
        seen = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                assert fn is cli._sweep_point
                results = super().map(_sweep_point_and_its_scenario, *iterables, **kwargs)
                for row, scenario in results:
                    seen.append(scenario)
                    yield row

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = _cfg(tmp_path, self.CFG)
        assert main(["sweep", "--axis", "position", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--workers", "2"]) == EXIT_OK
        self._check(cfg, seen)


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
