"""Scalar reference loop: the per-step pieces the package stepped with before
the batched kernel.

``control._closed_loop`` is the package's one stepping path. The functions
here advance one pendulum, one PID and one PZT by a single step each, in
plain Python floats, as the package did before the kernel existed.
``tests/test_loop_oracle.py`` builds its scalar loop from them and checks
the kernel against it bit for bit. Tests that need what the kernel does
not expose (the angular rate, the PZT clamp flag, a per-step force
breakdown) use them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from torsionlab.constants import CONSTANTS
from torsionlab.control import _closed_loop, _feedback_law, _scenario_run
from torsionlab.dynamics import (_damping_coefficient, _propagator, _round_half_away,
                                 check_step, natural_frequency)
from torsionlab.errors import DomainError
from torsionlab.forces import ForceModelParams, total_force
from torsionlab.instrument import ActuatorSpec, BalanceSpec, DetectorSpec, GapState, PidConfig
from torsionlab.scenario import RunSchedule, Scenario


def thermal_torque_sample(
    balance: BalanceSpec, alpha: float, T: float, dt: float, rng: np.random.Generator
) -> float:
    """One fluctuation-dissipation torque sample for a step of length dt.

    Zero-mean Gaussian with variance 2 k_b T gamma / dt. T = 0 is allowed
    and returns exactly zero (the rng is not advanced in that case).
    """
    if T < 0:
        raise DomainError("temperature cannot be negative")
    if dt <= 0:
        raise DomainError("time step must be positive")
    gamma = _damping_coefficient(balance, alpha)
    if T == 0.0 or gamma == 0.0:
        return 0.0
    sigma = math.sqrt(2.0 * CONSTANTS.k_b * T * gamma / dt)
    return sigma * rng.standard_normal()


@dataclass
class SimState:
    """Mutable per-run state. A run owns its state exclusively."""

    theta: float = 0.0               # rad
    omega: float = 0.0               # rad/s
    t: float = 0.0                   # s
    pzt_command: float = 0.0         # m, commanded d_r
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )

    @classmethod
    def seeded(cls, seed: int, **kwargs) -> "SimState":
        return cls(rng=np.random.default_rng(seed), **kwargs)


class TraceRow(NamedTuple):
    """One emitted time-series sample."""

    t: float
    theta: float
    d_r: float
    reading_mv: float
    forces: dict


def step(state: SimState, balance: BalanceSpec, alpha: float, external_torque: float,
         dt: float, *, temperature: float = 300.0, thermal_noise: bool = False) -> SimState:
    """Advance the pendulum, ``balance`` on a fiber of stiffness ``alpha``, by
    one fixed step of length dt (in place).

    The torque (external plus, if ``thermal_noise``, a fresh thermal sample
    at ``temperature`` from the state rng) is held constant over the step
    and the linear system is propagated exactly.
    """
    check_step(2.0 * math.pi / natural_frequency(balance, alpha), dt)
    tau = external_torque
    if thermal_noise:
        tau += thermal_torque_sample(balance, alpha, temperature, dt, state.rng)
    axx, axv, avx, avv = _propagator(
        alpha, balance.moment_of_inertia, _damping_coefficient(balance, alpha), dt
    )
    x_eq = tau / alpha
    x = state.theta - x_eq
    state.theta = x_eq + axx * x + axv * state.omega
    state.omega = avx * x + avv * state.omega
    state.t += dt
    return state


class PztReading(NamedTuple):
    position: float                  # m
    saturated: bool


def pzt_actual_position(
    command: float, spec: ActuatorSpec, rng: np.random.Generator
) -> PztReading:
    """Realized PZT position: the command plus Gaussian closed-loop jitter.

    Commands beyond the travel range are clamped and flagged.
    """
    saturated = False
    if not 0.0 <= command <= spec.pzt_range:
        command = min(max(command, 0.0), spec.pzt_range)
        saturated = True
    position = command
    if spec.pzt_accuracy > 0.0:
        position += spec.pzt_accuracy * rng.standard_normal()
    return PztReading(position, saturated)


def detector_read(theta: float, spec: DetectorSpec) -> float:
    """Optical-lever reading in mV for a balance angle in rad.

    The raw reading sensitivity * theta is quantized to the detector step
    with round-half-away-from-zero, so e.g. a 0.05 mV raw signal at a
    0.1 mV step already registers as one full step.
    """
    reading = spec.sensitivity * theta * 1e6  # mV/urad * urad
    if spec.quantization > 0.0:
        reading = spec.quantization * _round_half_away(reading / spec.quantization)
    return reading


@dataclass(frozen=True)
class PidState:
    """Controller memory between samples."""

    integral: float = 0.0            # accumulated I term, V
    prev_error: float = 0.0          # mV
    saturated: bool = False


def pid_step(
    cfg: PidConfig, state: PidState, error: float, dt: float
) -> tuple[float, PidState]:
    """One controller update; returns (output volts, new state).

    Derivative acts on the measured signal (identical to derivative on
    error for the fixed zero setpoint of a null measurement), and the
    integral term is clamped so saturation cannot wind it up.
    """
    if dt <= 0:
        raise DomainError("controller step must be positive")
    integral = state.integral + cfg.ki * error * dt
    integral = min(max(integral, -cfg.integral_limit), cfg.integral_limit)
    derivative = (error - state.prev_error) / dt
    output = cfg.kp * error + integral + cfg.kd * derivative
    saturated = abs(output) > cfg.output_limit
    if saturated:
        output = math.copysign(cfg.output_limit, output)
    return output, PidState(integral=integral, prev_error=error, saturated=saturated)


def feedback_torque(
    delta_v: float,
    spec: ActuatorSpec,
    balance: BalanceSpec,
    mode: str = "linear",
) -> float:
    """Restoring torque produced by the feedback plates for an output δV.

    Quadratic mode is the physical parallel-plate force around the bias,
    referenced so δV = 0 gives zero torque:

        tau = eps0 A [(bias + δV)^2 - bias^2] / (2 gap^2) * r_fb

    Linear mode is its small-signal slope eps0 A bias δV / gap^2 * r_fb.
    """
    return _feedback_law(spec, balance, mode)(delta_v)


def loop_scenario(instrument, pid, duration, dt, *, forces=None, gap=None, applied_force=0.0,
                  actuator_mode="linear", thermal_noise=False, pzt_jitter=False,
                  temperature=300.0, seed=0, delta_theta_min=1e-7) -> Scenario:
    """The Scenario whose own run is the scalar loop's run with these settings.

    The keywords are those of ``scalar_loop`` in ``tests/test_loop_oracle.py``,
    so a test can step both loops on one set of settings. As in a scenario,
    a gap goes with a force model.
    """
    placed = {} if gap is None else dict(contact_offset=gap.contact_offset,
                                         position=gap.relative_position)
    return Scenario(
        instrument=instrument, pid=pid, actuator_mode=actuator_mode, seed=seed,
        forces=replace(forces or ForceModelParams(components=frozenset()),
                       temperature=temperature),
        run=RunSchedule(dt=dt, duration=duration, applied_force=applied_force,
                        thermal_noise=thermal_noise, pzt_jitter=pzt_jitter,
                        delta_theta_min=delta_theta_min, **placed),
    )


def traced_run(scenario, rows, *, check_stability=True):
    """The scenario's own run through the kernel, appending a TraceRow per finished step.

    Each row carries the per-component force breakdown at the realized gap,
    which the kernel does not compute. Returns the steady readout.
    """
    run = _scenario_run(scenario)

    def record(k0, t, reading, delta_v, theta, d_r, f_ext):
        for row in zip(t, theta, d_r, reading):
            rows.append(TraceRow(*row, forces={} if run.forces is None else total_force(
                run.forces, GapState(run.gap.contact_offset, row[2])).components))

    _, ((steady, _, _),) = _closed_loop(scenario, [run], check_stability=check_stability,
                                        record=record)
    return steady
