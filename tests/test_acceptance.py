"""Acceptance suite: one test per shipped criterion, with a printed
pass/fail line each. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from torsionlab import (
    BalanceSpec,
    DetectorSpec,
    FiberSpec,
    ForceModelParams,
    InstrumentSpec,
    PidConfig,
    PlantParams,
    SphereSpec,
    VoltageState,
    casimir_force_ideal,
    casimir_force_thermal,
    decompose_residual,
    electrostatic_force_pfa,
    force_resolution_from_angle,
    jitter_force_floor,
    max_thermal_casimir_distance,
    michelson_calibrate,
    patch_force,
    run_electrostatic_calibration,
    run_null_measurement,
    swing_angle_noise,
    synthetic_michelson_trace,
    thermal_angle_noise,
    torsion_constant,
)
from torsionlab.cli import EXIT_OK, main
from torsionlab.constants import CONSTANTS

EPS0 = 8.8541878128e-12
ALPHA_DEFAULT = torsion_constant(FiberSpec())          # 2.9478e-6 N m/rad
BETA_TRUE = EPS0 * 1e-4 * 10.0 / 1e-3**2               # linear actuator, equal arms
IDEAL_DETECTOR = DetectorSpec(sensitivity=0.5, quantization=0.0)


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"[criterion {num:02d}] FAIL  {description}")
        raise
    print(f"[criterion {num:02d}] PASS  {description}")


def test_criterion_01_torsion_constant():
    with criterion(1, "torsion constant 2.95e-6 N m/rad in [2.93e-6, 2.99e-6]"):
        alpha = torsion_constant(FiberSpec(1.8e11, 76e-6, 0.20))
        assert 2.93e-6 <= alpha <= 2.99e-6


def test_criterion_02_thermal_angle_noises():
    with criterion(2, "thermal angle 3.74e-8 rad (3% of 3.8e-8); swing 1.47e-10 (5% of 1.5e-10)"):
        torsion_mode = thermal_angle_noise(ALPHA_DEFAULT, 300.0)
        assert torsion_mode == pytest.approx(3.74e-8, rel=5e-3)
        assert torsion_mode == pytest.approx(3.8e-8, rel=0.03)
        swing_mode = swing_angle_noise(0.0973, 0.20, 300.0)
        assert swing_mode == pytest.approx(1.47e-10, rel=5e-3)
        assert swing_mode == pytest.approx(1.5e-10, rel=0.05)


def test_criterion_03_jitter_force_floors():
    with criterion(3, "jitter floors at 1 um, 0.2 nm: electrostatic ~0.025 pN, thermal ~0.038 pN"):
        params = ForceModelParams(
            sphere=SphereSpec(0.155),
            voltages=VoltageState(applied=5e-3, minimizing=0.0, patch_rms=5e-3),
            temperature=300.0,
        )
        electro = jitter_force_floor("electrostatic", 0.155, 1e-6, 0.2e-9, params)
        assert electro == pytest.approx(0.025e-12, rel=0.20)
        thermal = jitter_force_floor("casimir_thermal", 0.155, 1e-6, 0.2e-9, params)
        assert thermal == pytest.approx(0.038e-12, rel=0.05)


def test_criterion_04_force_resolution():
    with criterion(4, "force resolution alpha * 0.1 urad / 0.1 m <= 3 pN"):
        assert force_resolution_from_angle(ALPHA_DEFAULT, 0.1e-6, 0.1) <= 3e-12


def test_criterion_05_thermal_casimir_reach():
    with criterion(5, "thermal Casimir resolvable out to >= 5 um at 3 pN"):
        reach = max_thermal_casimir_distance(0.155, 300.0, 3e-12)
        assert reach == pytest.approx(5.67e-6, rel=5e-3)
        assert reach >= 5e-6


def test_criterion_06_closed_loop_null_and_linearity():
    with criterion(6, "null at 100 pN: settled |theta| < 0.02 urad; deltaV linear to 1% over [1 pN, 1 nN]"):
        instrument = InstrumentSpec(detector=IDEAL_DETECTOR)
        pid = PidConfig()

        def run(force):
            return run_null_measurement(
                instrument, pid, 300.0, 0.05, applied_force=force, seed=0,
                check_stability=(force == 100e-12),
            )

        base = run(100e-12)
        assert abs(base.settled_theta_mean) < 0.02e-6
        assert np.max(np.abs(base.theta[len(base.theta) // 2:])) < 0.02e-6
        ratios = [run(f).steady_delta_v / f for f in (1e-12, 1e-11, 1e-10, 1e-9)]
        assert max(ratios) / min(ratios) - 1.0 < 0.01


def test_criterion_07_equipartition():
    with criterion(7, "Langevin at T=300 K, Q=10, 1e6 steps: <theta^2> within 5% of k_b T / alpha"):
        plant = PlantParams(
            balance=BalanceSpec(quality_factor=10.0),
            stiffness=ALPHA_DEFAULT,
            temperature=300.0,
            thermal_noise=True,
        )
        dt = plant.period / 100.0
        # the open loop: zero gains, so the kernel steps the free pendulum
        theta = run_null_measurement(
            InstrumentSpec(balance=plant.balance), PidConfig(kp=0.0, ki=0.0, kd=0.0),
            1_000_000 * dt, dt, stiffness=plant.stiffness, thermal_noise=True,
            temperature=plant.temperature, seed=1, check_stability=False,
        ).theta
        assert len(theta) == 1_000_000
        measured = float(np.mean(theta[100_000:] ** 2))
        assert measured == pytest.approx(CONSTANTS.k_b * 300.0 / ALPHA_DEFAULT, rel=0.05)


D0_TRUE = 10e-6
CAL_POSITIONS = (1.0e-6, 1.8e-6, 3.6e-6, 5.2e-6, 6.4e-6, 7.3e-6, 8.0e-6, 8.5e-6)
CAL_VOLTAGES = tuple(np.linspace(0.02 - 0.1, 0.02 + 0.1, 9))


def _calibration_forces():
    # injected CPD: 20 mV + 5 mV per decade of gap
    return ForceModelParams(
        sphere=SphereSpec(0.155),
        voltages=VoltageState(minimizing=0.02, patch_rms=0.0),
        components=frozenset({"electrostatic"}),
        v0_log_slope=5e-3,
    )


def _run_calibration(quantization_mv):
    instrument = InstrumentSpec(
        detector=DetectorSpec(sensitivity=0.5, quantization=quantization_mv)
    )
    return run_electrostatic_calibration(
        instrument, PidConfig(), _calibration_forces(), D0_TRUE,
        CAL_POSITIONS, CAL_VOLTAGES, duration=240.0, dt=0.05, seed=7,
    )


def _injected_v0(d):
    return 0.02 + 5e-3 * math.log10(d / 1e-6)


def test_criterion_08_calibration_round_trip():
    with criterion(8, "calibration: d0 within 5 nm, V0 within 1 mV, beta within 0.5%; noiseless to 0.1%"):
        result = _run_calibration(0.1)
        assert abs(result.d0 - D0_TRUE) < 5e-9
        assert result.beta == pytest.approx(BETA_TRUE, rel=5e-3)
        assert len(result.v0_profile) == len(CAL_POSITIONS)
        for d_fit, v0_fit in result.v0_profile:
            assert abs(v0_fit - _injected_v0(d_fit)) < 1e-3

        exact = _run_calibration(0.0)
        assert abs(exact.d0 - D0_TRUE) / D0_TRUE < 1e-3
        assert exact.beta == pytest.approx(BETA_TRUE, rel=1e-3)
        for d_fit, v0_fit in exact.v0_profile:
            assert abs(v0_fit - _injected_v0(d_fit)) / abs(_injected_v0(d_fit)) < 1e-3


def test_criterion_09_residual_decomposition():
    with criterion(9, "decomposition over 100 seeds: median errors <= 5%, 1/d^2 consistent with zero"):
        c1_true = patch_force(0.155, 1e-6, 5e-3, 1.0) * 1e-6
        c3_true = casimir_force_ideal(0.155, 1e-6) * (1e-6) ** 3
        d = np.geomspace(1e-6, 10e-6, 25)
        clean = c1_true / d + c3_true / d**3
        err1, err3, c2_pull = [], [], []
        for seed in range(100):
            noise = np.random.default_rng(seed).normal(size=len(d))
            fit = decompose_residual(list(zip(d, clean * (1.0 + 0.01 * noise))))
            err1.append(abs(fit.c1 / c1_true - 1.0))
            err3.append(abs(fit.c3 / c3_true - 1.0))
            c2_pull.append(abs(fit.c2) / fit.uncertainties[1])
        assert float(np.median(err1)) <= 0.05
        assert float(np.median(err3)) <= 0.05
        assert float(np.median(c2_pull)) <= 2.0


def test_criterion_10_michelson():
    with criterion(10, "Michelson: 6-fringe gain within 0.1%; fringe displacement 316.4 nm"):
        trace = synthetic_michelson_trace(gain=100e-9, visibility=0.95, n_fringes=6.0)
        fit = michelson_calibrate(trace)
        assert fit.gain == pytest.approx(100e-9, rel=1e-3)
        assert trace.wavelength / 2.0 == pytest.approx(316.4e-9, rel=1e-12)
        # fringe period in volts maps through lambda/2 back to the gain
        period_volts = (trace.wavelength / 2.0) / fit.gain
        assert fit.gain == pytest.approx((632.8e-9 / 2.0) / period_volts, rel=1e-12)


def test_criterion_11_oracle_equivalence():
    with criterion(11, "jitter floor matches finite differences (1e-6); decomposition matches normal equations (1e-10)"):
        params = ForceModelParams(
            sphere=SphereSpec(0.155),
            voltages=VoltageState(applied=5e-3, minimizing=0.0, patch_rms=5e-3),
            temperature=300.0,
            patch_exponent=2.3,
        )
        models = {
            "electrostatic": lambda R, d: electrostatic_force_pfa(R, 5e-3, 0.0, d),
            "patch": lambda R, d: patch_force(R, d, 5e-3, 2.3),
            "casimir_thermal": lambda R, d: casimir_force_thermal(R, d, 300.0),
            "casimir_ideal": lambda R, d: casimir_force_ideal(R, d),
        }
        rng = np.random.default_rng(2024)
        for _ in range(20):
            R = float(rng.uniform(0.05, 0.5))
            d = float(rng.uniform(0.5e-6, 8e-6))
            h = 1e-6 * d
            for name, force in models.items():
                slope = (force(R, d - h) - force(R, d + h)) / (2.0 * h)
                assert jitter_force_floor(name, R, d, 0.2e-9, params) == pytest.approx(
                    abs(slope) * 0.2e-9, rel=1e-6
                )

        d10 = np.geomspace(1e-6, 9e-6, 10)
        f10 = 1.1e-16 / d10 + 2e-22 / d10**2 + 4.2e-28 / d10**3
        f10 = f10 * (1.0 + 0.01 * np.random.default_rng(5).normal(size=10))
        fit = decompose_residual(list(zip(d10, f10)))
        X = np.column_stack([1.0 / d10, 1.0 / d10**2, 1.0 / d10**3])
        oracle = np.linalg.solve(X.T @ X, X.T @ f10)
        for got, want in zip(fit.coefficients, oracle):
            assert got == pytest.approx(want, rel=1e-10)


def test_criterion_12_cli_determinism(tmp_path):
    with criterion(12, "two cmd_simulate runs with one scenario + seed are byte-identical"):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            "run.duration = 60 s\n"
            "run.applied_force = 100 pN\n"
            "run.thermal_noise = true\n"
            "forces.components = \n"
            "seed = 31415\n"
        )
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            outs.append((out / "timeseries.csv").read_bytes())
        assert outs[0] == outs[1]
        summary = json.loads((tmp_path / "first" / "summary.json").read_text())
        assert summary["seed"] == 31415
