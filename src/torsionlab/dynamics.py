"""Time-domain plant model: the torsion pendulum and its thermal torque.

The equation of motion is

    I theta'' + gamma theta' + alpha theta = tau_external + tau_thermal,

with gamma = I * omega0 / Q. The plant is a few plain-``math`` functions
of a balance and its fiber's stiffness alpha: ``natural_frequency``,
``_damping_coefficient`` and ``_propagator``. One step advances the state
with the exact propagator of this linear system under a torque held
constant over the step, so the noiseless undamped oscillator conserves
energy to rounding and the damped solution matches the analytic envelope
exactly. Thermal torque follows the fluctuation-dissipation theorem: a
zero-mean Gaussian sample of variance 2 k_b T gamma / dt per step, which
reproduces equipartition <theta^2> = k_b T / alpha. The loop in
``control`` reads the plant from a Scenario, draws the thermal torque and
steps through ``_propagator``; with zero gains it is the open-loop pendulum.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError
from .instrument import BalanceSpec

__all__ = [
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
    """gamma = I * omega0 / Q, N m s/rad. Zero for infinite Q; Q <= 0.5 is refused."""
    q = balance.quality_factor
    if math.isinf(q):
        return 0.0
    if q <= 0.5:
        raise DomainError(f"balance.quality_factor = {q} <= 0.5: overdamped fiber not supported")
    return balance.moment_of_inertia * natural_frequency(balance, alpha) / q


@lru_cache(maxsize=64)
def _propagator(alpha: float, inertia: float, gamma: float, dt: float):
    """Exact one-step transition coefficients of the damped oscillator.

    Returns (axx, axv, avx, avv) such that, writing x = theta - tau/alpha,

        x'    = axx * x + axv * omega
        omega' = avx * x + avv * omega

    Only the underdamped branch (lambda < omega0) is needed; Q <= 0.5 is
    refused by ``_damping_coefficient``, which gives ``gamma``.
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


def check_step(period: float, dt: float) -> None:
    """Raise unless 0 < dt <= period/50, so a step resolves the pendulum motion."""
    if dt <= 0:
        raise DomainError("time step must be positive")
    max_dt = period / MIN_STEPS_PER_PERIOD
    if dt > max_dt:
        raise DomainError(
            f"run.dt = {dt:.4g} s exceeds period/{MIN_STEPS_PER_PERIOD} = {max_dt:.4g} s; "
            "reduce the step to resolve the pendulum motion, or change the period that "
            "fiber.* and balance.moment_of_inertia set"
        )


def _round_half_away(x: float) -> float:
    """Round to the nearest integer, ties away from zero (the detector's quantizer)."""
    return math.copysign(math.floor(abs(x) + 0.5), x)
