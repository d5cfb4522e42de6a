"""Time-domain plant model: torsion pendulum, thermal torque, PZT, detector.

The equation of motion is

    I theta'' + gamma theta' + alpha theta = tau_external + tau_thermal,

with gamma = I * omega0 / Q. One step advances the state with the exact
propagator of this linear system under a torque held constant over the
step, so the noiseless undamped oscillator conserves energy to rounding
and the damped solution matches the analytic envelope exactly. Thermal
torque follows the fluctuation-dissipation theorem: a zero-mean Gaussian
sample of variance 2 k_b T gamma / dt per step, which reproduces
equipartition <theta^2> = k_b T / alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .constants import CONSTANTS
from .errors import DomainError
from .instrument import ActuatorSpec, BalanceSpec, DetectorSpec

__all__ = [
    "PlantParams",
    "SimState",
    "TraceRow",
    "natural_frequency",
    "thermal_torque_sample",
    "step",
    "check_step",
    "pzt_actual_position",
    "PztReading",
    "detector_read",
    "run_langevin",
]

MIN_STEPS_PER_PERIOD = 50


def natural_frequency(balance: BalanceSpec, alpha: float) -> float:
    """Free angular frequency omega0 = sqrt(alpha / I), rad/s."""
    if alpha <= 0:
        raise DomainError("torsion stiffness must be positive")
    if balance.moment_of_inertia <= 0:
        raise DomainError("moment of inertia must be positive")
    return math.sqrt(alpha / balance.moment_of_inertia)


def _damping_coefficient(balance: BalanceSpec, alpha: float) -> float:
    """gamma = I * omega0 / Q, N m s/rad. Zero for infinite Q."""
    if math.isinf(balance.quality_factor):
        return 0.0
    return (
        balance.moment_of_inertia
        * natural_frequency(balance, alpha)
        / balance.quality_factor
    )


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


@dataclass(frozen=True)
class PlantParams:
    """Reduced mechanical plant used by the stepper.

    ``stiffness`` defaults to the fiber value via torsion_constant; tests
    may pin it directly. thermal_noise controls whether stepping draws
    fluctuation-dissipation torque samples from the state rng.
    """

    balance: BalanceSpec = field(default_factory=BalanceSpec)
    stiffness: float = 2.9477915727010234e-06  # N m/rad, default fiber
    temperature: float = 300.0
    thermal_noise: bool = False

    def __post_init__(self) -> None:
        if self.stiffness <= 0:
            raise DomainError("stiffness must be positive")
        if self.temperature < 0:
            raise DomainError("temperature cannot be negative")
        q = self.balance.quality_factor
        if not math.isinf(q) and q <= 0.5:
            raise DomainError(
                f"quality factor Q = {q} <= 0.5: overdamped fiber not supported"
            )

    @property
    def omega0(self) -> float:
        return natural_frequency(self.balance, self.stiffness)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega0

    @property
    def gamma(self) -> float:
        return _damping_coefficient(self.balance, self.stiffness)

    def thermal_sigma(self, dt: float) -> float:
        """Std. dev. of one step's thermal torque, N m; 0 when no noise is drawn."""
        gamma = self.gamma
        if not self.thermal_noise or self.temperature == 0.0 or gamma == 0.0:
            return 0.0
        return math.sqrt(2.0 * CONSTANTS.k_b * self.temperature * gamma / dt)


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
    omega: float
    d_r: float
    reading_mv: float
    forces: dict


@lru_cache(maxsize=64)
def _propagator(alpha: float, inertia: float, gamma: float, dt: float):
    """Exact one-step transition coefficients of the damped oscillator.

    Returns (axx, axv, avx, avv) such that, writing x = theta - tau/alpha,

        x'    = axx * x + axv * omega
        omega' = avx * x + avv * omega

    Only the underdamped branch (lambda < omega0) is needed; Q <= 0.5 is
    rejected at PlantParams construction.
    """
    omega0 = math.sqrt(alpha / inertia)
    lam = gamma / (2.0 * inertia)
    omega_d = math.sqrt(omega0 * omega0 - lam * lam)
    decay = math.exp(-lam * dt)
    c = math.cos(omega_d * dt)
    s = math.sin(omega_d * dt)
    axx = decay * (c + lam / omega_d * s)
    axv = decay * s / omega_d
    avx = -decay * (lam * lam / omega_d + omega_d) * s
    avv = decay * (c - lam / omega_d * s)
    return axx, axv, avx, avv


def check_step(plant: PlantParams, dt: float) -> None:
    """Raise unless 0 < dt <= period/50, so a step resolves the pendulum motion."""
    if dt <= 0:
        raise DomainError("time step must be positive")
    max_dt = plant.period / MIN_STEPS_PER_PERIOD
    if dt > max_dt:
        raise DomainError(
            f"dt = {dt:.4g} s exceeds period/{MIN_STEPS_PER_PERIOD} = {max_dt:.4g} s; "
            "reduce the step to resolve the pendulum motion"
        )


def step(state: SimState, plant: PlantParams, external_torque: float, dt: float) -> SimState:
    """Advance the pendulum by one fixed step of length dt (in place).

    The torque (external plus, if enabled, a fresh thermal sample from
    the state rng) is held constant over the step and the linear system
    is propagated exactly.
    """
    check_step(plant, dt)
    tau = external_torque
    if plant.thermal_noise:
        tau += thermal_torque_sample(
            plant.balance, plant.stiffness, plant.temperature, dt, state.rng
        )
    axx, axv, avx, avv = _propagator(
        plant.stiffness, plant.balance.moment_of_inertia, plant.gamma, dt
    )
    x_eq = tau / plant.stiffness
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


def _round_half_away(x: float) -> float:
    return math.copysign(math.floor(abs(x) + 0.5), x)


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


def run_langevin(
    plant: PlantParams,
    dt: float,
    n_steps: int,
    seed: int = 0,
    external_torque: float = 0.0,
    theta0: float = 0.0,
    omega0: float = 0.0,
) -> np.ndarray:
    """Free-running (open loop) simulation; returns the theta trajectory.

    Noise samples are pre-drawn in one vectorized call, which is
    equivalent to per-step sampling from the same generator stream.
    """
    check_step(plant, dt)
    axx, axv, avx, avv = _propagator(
        plant.stiffness, plant.balance.moment_of_inertia, plant.gamma, dt
    )
    sigma = plant.thermal_sigma(dt)
    if sigma > 0.0:
        noise = np.random.default_rng(seed).standard_normal(n_steps) * sigma
    else:
        noise = np.zeros(n_steps)
    alpha = plant.stiffness
    theta, omega = theta0, omega0
    out = np.empty(n_steps)
    for k in range(n_steps):
        x_eq = (external_torque + noise[k]) / alpha
        x = theta - x_eq
        theta = x_eq + axx * x + axv * omega
        omega = avx * x + avv * omega
        out[k] = theta
    return out
