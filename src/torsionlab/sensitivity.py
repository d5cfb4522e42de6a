"""Analytic noise and sensitivity budget.

Answers, for a given Scenario: what angular noise floors apply, what
force they translate to at the Casimir arm, how positioning jitter limits
each force model, and out to what distance the thermal Casimir component
stays resolvable. The whole budget is plain ``math``: no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import CONSTANTS
from .errors import DomainError
from .forces import (
    ForceModelParams,
    casimir_force_ideal,
    casimir_force_thermal,
    electrostatic_force_pfa,
    patch_force,
    torsion_constant,
)

__all__ = [
    "SensitivityReport",
    "thermal_angle_noise",
    "swing_angle_noise",
    "force_resolution_from_angle",
    "jitter_force_floor",
    "max_thermal_casimir_distance",
    "build_report",
]


def _require_positive(**values) -> None:
    for name, value in values.items():
        if value is None or value <= 0:
            raise DomainError(f"{name} must be positive, got {value!r}")


def thermal_angle_noise(alpha: float, T: float) -> float:
    """Equilibrium rms angle of the torsion mode, sqrt(k_b T / alpha)."""
    _require_positive(alpha=alpha)
    if T < 0:
        raise DomainError("temperature cannot be negative")
    return math.sqrt(CONSTANTS.k_b * T / alpha)


def swing_angle_noise(m: float, length: float, T: float) -> float:
    """Equilibrium rms angle of the gravitational swing mode,
    sqrt(k_b T / (m g l))."""
    _require_positive(m=m, length=length)
    if T < 0:
        raise DomainError("temperature cannot be negative")
    return math.sqrt(CONSTANTS.k_b * T / (m * CONSTANTS.g * length))


def force_resolution_from_angle(alpha: float, delta_theta_min: float, r_arm: float) -> float:
    """Force at the Casimir arm equivalent to the minimum angle:
    alpha * delta_theta / r_arm."""
    _require_positive(alpha=alpha, r_arm=r_arm)
    if delta_theta_min < 0:
        raise DomainError("minimum angle cannot be negative")
    return alpha * delta_theta_min / r_arm


def jitter_force_floor(
    model: str,
    R: float,
    d: float,
    delta_d: float,
    params: ForceModelParams,
) -> float:
    """Force uncertainty |dF/dd| * delta_d from positioning jitter.

    The distance derivative is analytic per power law: F/d for the
    electrostatic form and patch n = 1 (n F/d in general), 2 F/d for
    the thermal Casimir form, 3 F/d for the ideal Casimir form. The
    electrostatic floor is evaluated at |V - V0| when the plates are
    biased and at the residual patch scale V_patch when operating at
    the minimized point (V = V0).
    """
    _require_positive(R=R, d=d)
    if delta_d < 0:
        raise DomainError("position jitter cannot be negative")
    if model == "electrostatic":
        dv = abs(params.voltages.applied - params.voltages.minimizing)
        if dv == 0.0:
            dv = params.voltages.patch_rms
        force = electrostatic_force_pfa(R, dv, 0.0, d)
        slope = force / d
    elif model == "patch":
        n = params.patch_exponent
        force = patch_force(R, d, params.voltages.patch_rms, n)
        slope = n * force / d
    elif model == "casimir_thermal":
        force = casimir_force_thermal(R, d, params.temperature)
        slope = 2.0 * force / d
    elif model == "casimir_ideal":
        force = casimir_force_ideal(R, d)
        slope = 3.0 * force / d
    else:
        raise DomainError(f"unknown force model {model!r}")
    return slope * delta_d


def max_thermal_casimir_distance(R: float, T: float, F_min: float) -> float:
    """Largest gap at which the thermal Casimir force still exceeds F_min:
    d_max = sqrt(zeta3 k_b T R / (8 F_min))."""
    _require_positive(R=R, T=T, F_min=F_min)
    return math.sqrt(CONSTANTS.zeta3 * CONSTANTS.k_b * T * R / (8.0 * F_min))


@dataclass(frozen=True)
class SensitivityReport:
    """Complete noise budget for one configuration."""

    delta_theta_min: float            # rad, detector-limited
    delta_theta_thermal: float        # rad, torsion-mode thermal noise
    delta_theta_swing: float          # rad, swing-mode thermal noise
    force_resolution: float           # N
    jitter_force_floor: dict          # model -> N, at reference distance
    d_max_thermal: float | None       # m; None when thermal model disabled
    reference_distance: float         # m, where floors are evaluated
    position_jitter: float            # m rms
    thermal_below_detector: bool      # thermal angle noise under the floor
    swing_negligible: bool            # swing noise well under thermal noise
    inputs: dict                      # echo of the driving parameters


def build_report(scenario) -> SensitivityReport:
    """Assemble the full budget of a scenario's instrument and force model.

    The detector-limited angle is ``run.delta_theta_min`` and the jitter
    floors are evaluated at ``budget.reference_distance``.
    """
    instrument, forces = scenario.instrument, scenario.forces
    delta_theta_min, reference_distance = scenario.run.delta_theta_min, scenario.reference_distance
    alpha = torsion_constant(instrument.fiber)
    T = forces.temperature
    balance = instrument.balance
    theta_thermal = thermal_angle_noise(alpha, T)
    theta_swing = swing_angle_noise(balance.mass, balance.pendulum_length, T)
    resolution = force_resolution_from_angle(alpha, delta_theta_min, balance.casimir_arm)
    jitter = instrument.actuator.pzt_accuracy
    R = forces.sphere.radius
    try:
        floors = {
            model: jitter_force_floor(model, R, reference_distance, jitter, forces)
            for model in sorted(forces.components)
        }
        finite = all(map(math.isfinite, floors.values()))
    except (OverflowError, ZeroDivisionError):  # a power of d or of V beyond float range
        finite = False
    if not finite:
        raise DomainError(
            f"jitter force floors leave the float range at budget.reference_distance = "
            f"{reference_distance:.6g} m (forces.patch_rms = {forces.voltages.patch_rms:.6g} V)"
        ) from None
    d_max = None
    if "casimir_thermal" in forces.components:
        d_max = max_thermal_casimir_distance(R, T, resolution)
    return SensitivityReport(
        delta_theta_min=delta_theta_min,
        delta_theta_thermal=theta_thermal,
        delta_theta_swing=theta_swing,
        force_resolution=resolution,
        jitter_force_floor=floors,
        d_max_thermal=d_max,
        reference_distance=reference_distance,
        position_jitter=jitter,
        thermal_below_detector=theta_thermal < delta_theta_min,
        swing_negligible=theta_swing < 0.1 * theta_thermal,
        inputs={
            "stiffness_nm_per_rad": alpha,
            "temperature_k": T,
            "sphere_radius_m": R,
            "mass_kg": balance.mass,
            "pendulum_length_m": balance.pendulum_length,
            "casimir_arm_m": balance.casimir_arm,
            "components": sorted(forces.components),
        },
    )
