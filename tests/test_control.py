"""Closed-loop null-measurement tests."""

from types import SimpleNamespace

import numpy as np
import pytest

from oracle import traced_run
from torsionlab import (
    ActuatorSpec,
    BalanceSpec,
    DetectorSpec,
    FiberSpec,
    ForceModelParams,
    GapState,
    InstrumentSpec,
    PidConfig,
    PlantParams,
    VoltageState,
    run_null_measurement,
    torsion_constant,
)
from torsionlab.control import MAX_STEPS, _feedback_law, _prepare
from torsionlab.errors import DomainError, InstabilityError
from test_loop_oracle import scalar_loop

EPS0 = 8.8541878128e-12

# Noise-free detector for exact-linearity runs.
IDEAL = InstrumentSpec(detector=DetectorSpec(sensitivity=0.5, quantization=0.0))
PID = PidConfig()

# linear-mode force conversion for the default actuator and arms
BETA_TRUE = EPS0 * 1e-4 * 10.0 / 1e-3**2  # N per volt at the Casimir arm


class TestPidStep:
    """The controller update, seen in the kernel's error_mv and delta_v columns."""

    def test_zero_error_leaves_state_unchanged(self):
        result = run_null_measurement(IDEAL, PID, 30.0, 0.05)
        assert np.all(result.error_mv == 0.0)
        assert np.all(result.delta_v == 0.0)

    def test_pure_proportional(self):
        cfg = PidConfig(kp=0.7, ki=0.0, kd=0.0)
        result = run_null_measurement(IDEAL, cfg, 30.0, 0.05, applied_force=100e-12,
                                      check_stability=False, delta_theta_min=1.0)
        assert np.any(result.error_mv != 0.0)
        assert result.delta_v == pytest.approx(0.7 * result.error_mv, rel=1e-15, abs=0.0)

    def test_replay_is_bit_identical(self):
        instrument = InstrumentSpec(detector=DetectorSpec(sensitivity=0.5, quantization=0.1))

        def run():
            result = run_null_measurement(instrument, PID, 30.0, 0.05, thermal_noise=True,
                                          seed=1)
            return result.error_mv.tobytes(), result.delta_v.tobytes()

        assert run() == run()

    def test_saturation_clamps_output_and_integral(self):
        # 100 nN needs about 11 V of feedback, beyond both limits below
        cfg = PidConfig(kp=1.0, ki=10.0, kd=0.0, output_limit=2.0, integral_limit=1.5)
        saturated = run_null_measurement(IDEAL, cfg, 30.0, 0.05, applied_force=100e-9,
                                         check_stability=False, delta_theta_min=1.0)
        assert np.max(np.abs(saturated.delta_v)) == cfg.output_limit
        # a tiny kp keeps the output below its limit, so delta_v - kp * error is the
        # integral term alone: clamped at its limit, not wound up
        cfg = PidConfig(kp=1e-4, ki=10.0, kd=0.0, output_limit=2.0, integral_limit=1.5)
        result = run_null_measurement(IDEAL, cfg, 30.0, 0.05, applied_force=100e-9,
                                      check_stability=False, delta_theta_min=1.0)
        assert np.max(np.abs(result.delta_v)) < cfg.output_limit
        integral = result.delta_v - cfg.kp * result.error_mv
        assert np.max(np.abs(integral)) == pytest.approx(cfg.integral_limit, rel=1e-12)
        assert integral[-1] == pytest.approx(cfg.integral_limit, rel=1e-12)

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            PidConfig(sample_interval=0.0)


class TestFeedbackTorque:
    ACT = ActuatorSpec(fb_plate_area=1e-4, fb_gap=1e-3, fb_bias=0.0)
    BAL = BalanceSpec()

    def test_zero_output_gives_zero_torque(self):
        act = ActuatorSpec(fb_bias=10.0)
        assert _feedback_law(act, self.BAL, "linear")(0.0) == 0.0
        assert _feedback_law(act, self.BAL, "quadratic")(0.0) == 0.0

    def test_parallel_plate_reference_value(self):
        # eps0 * A * dV^2 / (2 gap^2) * r_fb at A = 1 cm^2, gap = 1 mm
        tau = _feedback_law(self.ACT, self.BAL, "quadratic")(1.0)
        assert tau == pytest.approx(4.4270939064e-10 * 0.1, rel=1e-10)

    def test_linear_matches_quadratic_for_small_signals(self):
        act = ActuatorSpec(fb_bias=10.0)
        dv = 0.005 * act.fb_bias
        lin = _feedback_law(act, self.BAL, "linear")(dv)
        quad = _feedback_law(act, self.BAL, "quadratic")(dv)
        assert quad / lin == pytest.approx(1.0, abs=0.01)
        # Taylor remainder: the ratio is exactly 1 + dv / (2 bias)
        assert quad / lin == pytest.approx(1.0 + dv / (2 * act.fb_bias), rel=1e-12)

    def test_rejects_closed_gap(self):
        bad = SimpleNamespace(fb_plate_area=1e-4, fb_gap=0.0, fb_bias=10.0)
        with pytest.raises(DomainError):
            _feedback_law(bad, self.BAL, "linear")

    @pytest.mark.parametrize("gap", [1e-300, 1e300])
    def test_gap_squared_beyond_float_range_names_the_key(self, gap):
        bad = SimpleNamespace(fb_plate_area=1e-4, fb_gap=gap, fb_bias=10.0)
        with pytest.raises(DomainError, match="actuator.fb_gap"):
            _feedback_law(bad, self.BAL, "linear")

    def test_rejects_unknown_mode(self):
        with pytest.raises(DomainError):
            _feedback_law(self.ACT, self.BAL, "cubic")


def _run(force, duration=300.0, seed=0, **kwargs):
    return run_null_measurement(
        IDEAL, PID, duration, 0.05, applied_force=force, seed=seed, **kwargs
    )


class TestNullMeasurement:
    def test_quiet_loop_stays_at_zero(self):
        result = _run(0.0, duration=120.0)
        assert result.steady_delta_v == 0.0
        assert np.all(result.theta == 0.0)

    def test_readout_doubles_with_force(self):
        r100 = _run(100e-12)
        r200 = _run(200e-12)
        assert r200.steady_delta_v == pytest.approx(2.0 * r100.steady_delta_v, rel=0.01)

    def test_readout_linear_over_three_decades(self):
        ratios = [
            _run(f).steady_delta_v / f for f in (1e-12, 1e-11, 1e-10, 1e-9)
        ]
        assert max(ratios) / min(ratios) == pytest.approx(1.0, abs=0.01)
        # conversion equals the actuator's linear-mode constant
        assert 1.0 / ratios[0] == pytest.approx(BETA_TRUE, rel=1e-6)

    def test_null_holds_for_forces_up_to_ten_nano_newton(self):
        for force in (1e-12, 1e-10, 1e-9, 1e-8):
            result = _run(force)
            assert abs(result.settled_theta_mean) < 0.02e-6

    def test_step_disturbance_settles_within_ten_periods(self):
        # 10 natural periods ~ 660 s at the default plant
        result = _run(100e-12, duration=660.0)
        tail = result.theta[len(result.theta) // 2:]
        assert np.max(np.abs(tail)) < 0.1e-6
        assert abs(result.theta[-1]) < 1e-9

    def test_thermal_noise_residual_within_quantization_angle(self):
        instrument = InstrumentSpec(detector=DetectorSpec(sensitivity=0.5, quantization=0.1))
        result = run_null_measurement(
            instrument, PID, 400.0, 0.05,
            thermal_noise=True, temperature=300.0, seed=123,
        )
        # quantization-equivalent angle: 0.1 mV at 0.5 mV/urad = 0.2 urad
        assert result.settled_theta_rms <= 0.2e-6

    def test_noise_in_gives_proportional_readout_fluctuation_out(self):
        # scaling the thermal drive by 4x in temperature doubles the
        # readout fluctuation exactly for a shared noise stream
        def rms_fluct(T):
            result = run_null_measurement(
                IDEAL, PID, 300.0, 0.05,
                thermal_noise=True, temperature=T, seed=99,
            )
            tail = result.delta_v[len(result.delta_v) * 2 // 3:]
            return float(np.sqrt(np.mean((tail - tail.mean()) ** 2)))

        assert rms_fluct(1200.0) == pytest.approx(2.0 * rms_fluct(300.0), rel=1e-9)

    def test_unstable_gains_raise_and_name_gains(self):
        bad = PidConfig(kp=-0.5, ki=0.0, kd=0.0)
        with pytest.raises(InstabilityError, match="kp=-0.5"):
            run_null_measurement(IDEAL, bad, 60.0, 0.05, applied_force=1e-10)

    def test_emission_hook_reports_rows(self):
        rows = []
        from torsionlab import ForceModelParams, GapState, SphereSpec, VoltageState

        forces = ForceModelParams(
            sphere=SphereSpec(0.155),
            voltages=VoltageState(patch_rms=5e-3),
            components=frozenset({"patch", "casimir_ideal"}),
        )
        traced_run(
            IDEAL, PID, 30.0, 0.05, rows,
            forces=forces, gap=GapState(10e-6, 4e-6),
        )
        assert len(rows) == 600
        first = rows[0]
        assert set(first.forces) == {"patch", "casimir_ideal"}
        assert first.d_r == 4e-6
        assert rows[1].t > rows[0].t


class TestStepCap:
    """The cap applies to the steps a run takes: the rounded duration / dt."""

    # acceptance criterion 7's plant, at 100 steps per period
    BALANCE = BalanceSpec(quality_factor=10.0)
    DT = PlantParams(balance=BALANCE, stiffness=torsion_constant(FiberSpec())).period / 100

    def _steps(self, duration):
        _, n, _ = _prepare(InstrumentSpec(balance=self.BALANCE), PID, duration, self.DT,
                           temperature=300.0, thermal_noise=True, actuator_mode="linear",
                           check_stability=False)
        return n

    def test_accepts_exactly_the_cap(self):
        duration = 1_000_000 * self.DT
        assert duration / self.DT > MAX_STEPS == 1_000_000  # 1000000.0000000001
        assert self._steps(duration) == 1_000_000

    def test_rejects_one_step_over_the_cap(self):
        with pytest.raises(DomainError, match=r"needs 1000001 steps, over the cap of 1000000"):
            self._steps(1_000_001 * self.DT)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), 1e300])
    def test_rejects_unroundable_durations_before_rounding(self, duration):
        with pytest.raises(DomainError, match="run.duration"):
            self._steps(duration)


class TestPztRange:
    @pytest.mark.parametrize("jitter", [False, True])
    @pytest.mark.parametrize("d_r", [-1e-6, 20e-6])
    def test_command_outside_travel_raises_in_both_jitter_modes(self, jitter, d_r):
        from torsionlab import ForceModelParams, GapState

        forces = ForceModelParams(components=frozenset({"electrostatic"}))
        with pytest.raises(DomainError, match=r"outside \[0, 1\.5e-05\] m"):
            run_null_measurement(IDEAL, PID, 30.0, 0.05, forces=forces,
                                 gap=GapState(30e-6, d_r), pzt_jitter=jitter)


class TestForceLawInTheKernel:
    """The jittered kernel evaluates the hoisted force law, not total_force."""

    # Every component is 0 N (V = V0, no patches), so the loop stays quiet while
    # the 0.2 nm rms PZT jitter closes a 0.3 nm gap within a few dozen steps.
    CLOSING = dict(
        forces=ForceModelParams(
            voltages=VoltageState(applied=0.02, minimizing=0.02, patch_rms=0.0),
            components=frozenset({"electrostatic", "patch"})),
        gap=GapState(5e-6 + 0.3e-9, 5e-6), pzt_jitter=True, seed=11,
    )

    @pytest.fixture
    def no_total_force(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("total_force called in the loop")
        monkeypatch.setattr("torsionlab.forces.total_force", forbidden)

    def test_jittered_run_makes_no_total_force_calls(self, no_total_force):
        forces = ForceModelParams(voltages=VoltageState(applied=0.1, minimizing=0.02),
                                  v0_log_slope=5e-3, patch_exponent=2.7)
        result = run_null_measurement(IDEAL, PID, 30.0, 0.05, forces=forces,
                                      gap=GapState(10e-6, 5e-6), pzt_jitter=True, seed=3,
                                      check_stability=False)
        assert len(set(result.applied_force.tolist())) == len(result.applied_force)

    def test_closed_gap_raises_the_scalar_loop_error(self, no_total_force):
        steps = []
        with pytest.raises(DomainError) as oracle:
            scalar_loop(IDEAL, PID, 30.0, 0.05, steps=steps, **self.CLOSING)
        assert 0 < len(steps) < 600
        with pytest.raises(DomainError) as kernel:
            run_null_measurement(IDEAL, PID, 30.0, 0.05, check_stability=False, **self.CLOSING)
        assert str(kernel.value) == str(oracle.value)
        assert str(kernel.value).startswith("absolute gap d = d0 - d_r = -")

    def test_closed_gap_ends_the_run_at_the_scalar_loop_step(self):
        steps, rows = [], []
        with pytest.raises(DomainError):
            scalar_loop(IDEAL, PID, 30.0, 0.05, steps=steps, **self.CLOSING)
        with pytest.raises(DomainError):
            traced_run(IDEAL, PID, 30.0, 0.05, rows, check_stability=False, **self.CLOSING)
        assert len(rows) == len(steps)
        assert set(rows[0].forces) == {"electrostatic", "patch"}
