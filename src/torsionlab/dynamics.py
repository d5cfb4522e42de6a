"""Time-domain plant model: the torsion pendulum and its thermal torque.

The equation of motion is

    I theta'' + gamma theta' + alpha theta = tau_external + tau_thermal,

with gamma = I * omega0 / Q. One step advances the state with the exact
propagator of this linear system under a torque held constant over the
step, so the noiseless undamped oscillator conserves energy to rounding
and the damped solution matches the analytic envelope exactly. Thermal
torque follows the fluctuation-dissipation theorem: a zero-mean Gaussian
sample of variance 2 k_b T gamma / dt per step, which reproduces
equipartition <theta^2> = k_b T / alpha. The loop in ``control`` steps
through ``_propagator``; with zero gains it is the open-loop pendulum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .constants import CONSTANTS
from .errors import DomainError
from .instrument import BalanceSpec

__all__ = [
    "PlantParams",
    "natural_frequency",
    "check_step",
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


@dataclass(frozen=True)
class PlantParams:
    """Reduced mechanical plant used by the stepper.

    ``stiffness`` defaults to the fiber value via torsion_constant; tests
    may pin it directly. thermal_noise controls whether stepping draws
    fluctuation-dissipation torque samples from the run's rng.
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


def _round_half_away(x: float) -> float:
    """Round to the nearest integer, ties away from zero (the detector's quantizer)."""
    return math.copysign(math.floor(abs(x) + 0.5), x)
