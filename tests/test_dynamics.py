"""Plant-model tests: integrator accuracy, noise statistics, detector."""

import math

import numpy as np
import pytest

from oracle import SimState, pzt_actual_position, step, traced_run
from torsionlab import (
    ActuatorSpec,
    BalanceSpec,
    DetectorSpec,
    GapState,
    InstrumentSpec,
    PidConfig,
    PlantParams,
    natural_frequency,
    run_null_measurement,
)
from torsionlab.constants import CONSTANTS
from torsionlab.control import _closed_loop, _Run
from torsionlab.dynamics import _propagator
from torsionlab.errors import DomainError

ALPHA_REF = 2.96e-6
INERTIA = 3.24e-4
OPEN_LOOP = PidConfig(kp=0.0, ki=0.0, kd=0.0)  # the loop reads but never acts


def _balance(Q=1000.0, inertia=INERTIA):
    return BalanceSpec(moment_of_inertia=inertia, quality_factor=Q)


def _open_loop(plant, dt, n, *, torque=0.0, seed=0):
    """Angle after each of n steps of the free pendulum, from rest, under a held torque.

    A zero-gain loop never acts, so the kernel steps the open-loop plant;
    the torque enters as the force torque / casimir_arm on the Casimir arm.
    """
    instrument = InstrumentSpec(balance=plant.balance)
    result = run_null_measurement(
        instrument, OPEN_LOOP, n * dt, dt, stiffness=plant.stiffness,
        applied_force=torque / instrument.balance.casimir_arm,
        thermal_noise=plant.thermal_noise, temperature=plant.temperature, seed=seed,
        check_stability=False, delta_theta_min=1.0)
    assert len(result.theta) == n
    return result.theta


class TestNaturalFrequency:
    def test_reference_value(self):
        w0 = natural_frequency(_balance(), ALPHA_REF)
        assert w0 == pytest.approx(0.09558139185602918, rel=1e-12)
        assert 2 * math.pi / w0 == pytest.approx(66.0, rel=0.01)

    def test_quadrupled_inertia_halves_frequency(self):
        w0 = natural_frequency(_balance(), ALPHA_REF)
        w4 = natural_frequency(_balance(inertia=4 * INERTIA), ALPHA_REF)
        assert w4 == pytest.approx(w0 / 2.0, rel=1e-12)

    def test_degenerate_spring_rejected(self):
        with pytest.raises(DomainError):
            natural_frequency(_balance(), 0.0)


class TestThermalTorque:
    """The plant's per-step thermal torque: sigma from thermal_sigma, draws from the kernel."""

    @staticmethod
    def _first_step_torques(plant, dt, seeds):
        # One step from rest under a held torque tau ends at tau / alpha * (1 - axx),
        # so each seed's first angle gives that run's first thermal torque sample.
        # One zero-gain batch steps every seed's run on its own stream, for 3
        # steps: the fewest whose final third holds a readout to average.
        axx = _propagator(plant.stiffness, plant.balance.moment_of_inertia, plant.gamma, dt)[0]
        theta = np.empty(len(seeds))

        def emit(k, t, reading, delta_v, th, *_):
            if k == 0:
                theta[:] = th

        _closed_loop(InstrumentSpec(balance=plant.balance), OPEN_LOOP, plant, dt, 3,
                     [_Run(seed=s) for s in seeds], actuator_mode="linear", emit=emit)
        return theta * plant.stiffness / (1.0 - axx)

    def test_zero_temperature_is_silent(self):
        plant = PlantParams(balance=_balance(), stiffness=ALPHA_REF, temperature=0.0,
                            thermal_noise=True)
        assert plant.thermal_sigma(0.1) == 0.0

    def test_sample_variance_matches_fdt(self):
        plant = PlantParams(balance=_balance(Q=10.0), stiffness=ALPHA_REF, temperature=300.0,
                            thermal_noise=True)
        dt = 0.5
        gamma = INERTIA * natural_frequency(plant.balance, ALPHA_REF) / 10.0
        expected = 2.0 * CONSTANTS.k_b * 300.0 * gamma / dt
        assert plant.thermal_sigma(dt) ** 2 == pytest.approx(expected, rel=1e-12)
        samples = self._first_step_torques(plant, dt, range(40000))
        assert samples.mean() == pytest.approx(0.0, abs=4 * math.sqrt(expected / len(samples)))
        assert samples.var() == pytest.approx(expected, rel=0.03)

    def test_doubling_temperature_doubles_variance(self):
        def plant(T):
            return PlantParams(balance=_balance(Q=10.0), stiffness=ALPHA_REF, temperature=T,
                               thermal_noise=True)

        assert plant(600.0).thermal_sigma(0.5) ** 2 == pytest.approx(
            2.0 * plant(300.0).thermal_sigma(0.5) ** 2, rel=1e-12)
        # identical generator stream: the linear response scales by sqrt(2) exactly
        a = _open_loop(plant(300.0), 0.5, 100, seed=7)
        b = _open_loop(plant(600.0), 0.5, 100, seed=7)
        assert np.var(b) == pytest.approx(2.0 * np.var(a), rel=1e-12)


class TestStep:
    """One-step propagation, through the open (zero-gain) loop."""

    def test_damped_oscillation_matches_analytic(self):
        # step response from rest under a held torque: the offset from the
        # new equilibrium theta_eq rings down on the damped envelope
        Q = 10.0
        plant = PlantParams(balance=_balance(Q=Q), stiffness=ALPHA_REF, thermal_noise=False)
        w0 = plant.omega0
        lam = w0 / (2 * Q)
        w_d = math.sqrt(w0**2 - lam**2)
        dt = plant.period / 200
        tau = 1e-5 * ALPHA_REF
        theta_eq = tau / ALPHA_REF
        n = int(round(10 * plant.period / dt))
        theta = _open_loop(plant, dt, n, torque=tau)
        t = dt * np.arange(1, n + 1)
        analytic = theta_eq * (
            1.0 - np.exp(-lam * t) * (np.cos(w_d * t) + lam / w_d * np.sin(w_d * t)))
        worst = float(np.max(np.abs(theta - analytic)))
        assert worst / theta_eq < 1e-3   # contract tolerance; the exact map does ~1e-13
        assert worst / theta_eq < 1e-9

    def test_constant_torque_settles_to_static_equilibrium(self):
        plant = PlantParams(balance=_balance(Q=1.0), stiffness=ALPHA_REF)
        dt = plant.period / 100
        tau = 1e-10
        theta = _open_loop(plant, dt, int(round(600.0 / dt)), torque=tau)[-1]
        assert theta == pytest.approx(tau / ALPHA_REF, rel=1e-4)
        assert theta == pytest.approx(tau / ALPHA_REF, rel=1e-10)

    def test_nano_newton_force_maps_to_reference_angle_and_reading(self):
        # 1 nN at a 0.1 m arm: 33.8 urad, read as 16.9 mV at 0.5 mV/urad
        balance = _balance(Q=1.0)
        plant = PlantParams(balance=balance, stiffness=ALPHA_REF)
        dt = plant.period / 100
        # the pendulum in the loop with zero gains: the detector column reads it
        instrument = InstrumentSpec(balance=balance,
                                    detector=DetectorSpec(sensitivity=0.5, quantization=0.0))
        result = run_null_measurement(instrument, OPEN_LOOP, 600.0, dt, stiffness=ALPHA_REF,
                                      applied_force=1e-9, check_stability=False,
                                      delta_theta_min=1.0)
        assert result.theta[-1] * 1e6 == pytest.approx(33.8, rel=2e-3)
        assert result.error_mv[-1] == pytest.approx(16.9, rel=2e-3)

    def test_rejects_oversized_step(self):
        # 10 steps, the fewest a run takes, so the step check is what fires
        plant = PlantParams(balance=_balance(), stiffness=ALPHA_REF)
        with pytest.raises(DomainError, match="reduce the step"):
            _open_loop(plant, plant.period / 10, 10)

    def test_energy_conservation_without_damping(self):
        # needs the angular rate, which only the scalar reference stepper exposes
        plant = PlantParams(
            balance=_balance(Q=math.inf), stiffness=ALPHA_REF, thermal_noise=False
        )
        dt = plant.period / 50
        inertia = plant.balance.moment_of_inertia
        state = SimState.seeded(0, theta=1e-5)
        e0 = 0.5 * ALPHA_REF * state.theta**2
        for _ in range(100_000):
            step(state, plant, 0.0, dt)
        e1 = 0.5 * ALPHA_REF * state.theta**2 + 0.5 * inertia * state.omega**2
        assert abs(e1 - e0) / e0 < 1e-6

    def test_static_response_linear_over_six_decades(self):
        plant = PlantParams(balance=_balance(Q=1.0), stiffness=ALPHA_REF)
        dt = plant.period / 100
        n = int(round(900.0 / dt))
        ratios = [_open_loop(plant, dt, n, torque=tau)[-1] / tau
                  for tau in (1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9)]
        ref = 1.0 / ALPHA_REF
        for r in ratios:
            assert abs(r - ref) / ref < 1e-10


class TestLangevin:
    """The Langevin pendulum, stepped by the kernel in an open (zero-gain) loop."""

    def test_equipartition_high_q(self):
        # Q = 1000: the mode correlation time is ~2Q/w0, so a 1e6-step
        # record holds only tens of independent samples; the seed is
        # fixed to make this statistically honest draw reproducible.
        plant = PlantParams(
            balance=_balance(Q=1000.0), stiffness=ALPHA_REF,
            temperature=300.0, thermal_noise=True,
        )
        dt = plant.period / 100
        theta = _open_loop(plant, dt, 1_000_000, seed=7)
        target = CONSTANTS.k_b * 300.0 / ALPHA_REF
        assert np.mean(theta[len(theta) // 10:] ** 2) == pytest.approx(target, rel=0.05)

    def test_trajectories_are_bit_identical_for_same_seed(self):
        plant = PlantParams(
            balance=_balance(Q=10.0), stiffness=ALPHA_REF,
            temperature=300.0, thermal_noise=True,
        )
        dt = plant.period / 60
        a = _open_loop(plant, dt, 20000, seed=42)
        b = _open_loop(plant, dt, 20000, seed=42)
        assert np.array_equal(a, b)

    def test_zero_noise_from_zero_temperature_rest(self):
        plant = PlantParams(
            balance=_balance(Q=10.0), stiffness=ALPHA_REF,
            temperature=0.0, thermal_noise=True,
        )
        theta = _open_loop(plant, plant.period / 60, 1000, seed=0)
        assert np.all(theta == 0.0)


class TestPzt:
    """Realized PZT positions, as the kernel reports them per step."""

    SPEC = ActuatorSpec(pzt_accuracy=0.2e-9, pzt_range=15e-6)

    @staticmethod
    def _positions(actuator, steps):
        rows = []
        traced_run(InstrumentSpec(actuator=actuator), OPEN_LOOP, steps * 0.05, 0.05, rows,
                   gap=GapState(10e-6, 5e-6), pzt_jitter=True, check_stability=False)
        return np.array([row.d_r for row in rows])

    def test_zero_jitter_is_identity(self):
        positions = self._positions(ActuatorSpec(pzt_accuracy=0.0), 100)
        assert np.all(positions == 5e-6)

    def test_jitter_rms(self):
        errs = self._positions(self.SPEC, 10000) - 5e-6
        assert np.sqrt(np.mean(errs**2)) == pytest.approx(0.2e-9, rel=0.03)

    def test_out_of_range_clamps_with_flag(self):
        # the kernel rejects such a command outright (tests/test_control.py
        # TestPztRange); the clamp and its flag live in the scalar reference only
        spec = ActuatorSpec(pzt_accuracy=0.0, pzt_range=15e-6)
        out = pzt_actual_position(20e-6, spec, np.random.default_rng(0))
        assert out.saturated
        assert out.position == 15e-6
        out = pzt_actual_position(-1e-6, spec, np.random.default_rng(0))
        assert out.saturated
        assert out.position == 0.0


class TestDetector:
    """Quantized readings, from the error_mv column of an open (zero-gain) loop."""

    THETA_0_1_URAD = 0.1e-6 * ALPHA_REF / 0.1  # N at the 0.1 m arm

    @staticmethod
    def _settled_reading(force, quantization):
        # With zero gains the loop never acts, so the angle is the same for
        # every quantization; at Q = 1 it settles on F r / alpha, and the last
        # reading is that of the settled angle.
        instrument = InstrumentSpec(
            balance=_balance(Q=1.0),
            detector=DetectorSpec(sensitivity=0.5, quantization=quantization))
        result = run_null_measurement(instrument, OPEN_LOOP, 1200.0, 0.5, stiffness=ALPHA_REF,
                                      applied_force=force, check_stability=False,
                                      delta_theta_min=1.0)
        return result.error_mv[-1]

    def test_threshold_behavior(self):
        # 0.1 urad reads 0.05 mV raw; at a 0.1 mV step half-away rounding
        # promotes it to a full step. The step is set to exactly twice the raw
        # settled reading, so the raw value sits exactly on the midpoint.
        raw = self._settled_reading(self.THETA_0_1_URAD, 0.0)
        assert raw == pytest.approx(0.05, rel=1e-9)
        step_mv = 2.0 * raw
        assert step_mv == pytest.approx(0.1, rel=1e-9)
        assert self._settled_reading(self.THETA_0_1_URAD, step_mv) == step_mv
        assert self._settled_reading(-self.THETA_0_1_URAD, step_mv) == -step_mv
        assert self._settled_reading(0.99 * self.THETA_0_1_URAD, step_mv) == 0.0

    def test_zero_angle(self):
        result = run_null_measurement(InstrumentSpec(), OPEN_LOOP, 1.0, 0.05,
                                      check_stability=False)
        assert result.error_mv[0] == 0.0

    def test_linear_reading(self):
        reading = self._settled_reading(338.0 * self.THETA_0_1_URAD, 0.0)  # 33.8 urad
        assert reading == pytest.approx(16.9, rel=1e-12)

    def test_resolution_is_reciprocal_sensitivity(self):
        spec = DetectorSpec(sensitivity=0.5)
        assert spec.angular_resolution == pytest.approx(2.0, abs=1e-9)
