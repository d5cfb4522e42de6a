"""Instrument configuration types.

All quantities are SI internally; constructors validate physical domain
and emit warnings for legal-but-suspicious combinations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .errors import DomainError, GeometryWarning

__all__ = [
    "FiberSpec",
    "BalanceSpec",
    "SphereSpec",
    "DetectorSpec",
    "ActuatorSpec",
    "InstrumentSpec",
    "GapState",
    "VoltageState",
    "SPHERE_PRESETS",
    "PidConfig",
    "ACTUATOR_MODES",
]


@dataclass(frozen=True)
class FiberSpec:
    """Torsion fiber: shear modulus, diameter, length."""

    torsion_modulus: float = 1.8e11  # Pa, tungsten
    diameter: float = 76e-6          # m
    length: float = 0.20             # m

    def __post_init__(self) -> None:
        if self.torsion_modulus <= 0 or self.diameter <= 0 or self.length <= 0:
            raise DomainError("fiber modulus, diameter and length must be positive")
        if self.diameter / self.length > 0.01:
            warnings.warn(
                f"fiber aspect ratio D/L = {self.diameter / self.length:.3g} > 0.01; "
                "thin-rod torsion formula is questionable",
                GeometryWarning,
                stacklevel=3,  # the caller of the dataclass __init__
            )


@dataclass(frozen=True)
class BalanceSpec:
    """Balance body: mass, lever arms, swing length, inertia, damping."""

    mass: float = 0.0973             # kg
    casimir_arm: float = 0.10        # m, pivot to Casimir plate
    feedback_arm: float = 0.10       # m, pivot to feedback plates
    pendulum_length: float = 0.20    # m, swing length under gravity
    moment_of_inertia: float | None = None  # kg m^2; rod model if None
    quality_factor: float = 1000.0   # mechanical Q

    def __post_init__(self) -> None:
        if min(self.mass, self.casimir_arm, self.feedback_arm, self.pendulum_length) <= 0:
            raise DomainError("balance mass, arms and pendulum length must be positive")
        if self.quality_factor <= 0:
            raise DomainError("quality factor must be positive")
        try:
            rod = self.mass * (2.0 * self.casimir_arm) ** 2 / 12.0  # uniform rod
        except OverflowError:  # (2 * casimir_arm)**2 beyond float range
            raise DomainError(f"rod moment of inertia overflows for balance.casimir_arm = "
                              f"{self.casimir_arm:.6g} m") from None
        if self.moment_of_inertia is None:
            object.__setattr__(self, "moment_of_inertia", rod)
        elif self.moment_of_inertia <= 0:
            raise DomainError("moment of inertia must be positive")
        elif not (0.1 * rod <= self.moment_of_inertia <= 10.0 * rod):
            warnings.warn(
                f"moment of inertia {self.moment_of_inertia:.3g} kg m^2 is more than "
                f"an order of magnitude away from the rod estimate {rod:.3g}",
                GeometryWarning,
                stacklevel=3,  # the caller of the dataclass __init__
            )


@dataclass(frozen=True)
class SphereSpec:
    """Spherical plate facing the flat Casimir plate."""

    radius: float = 0.155            # m
    material: str = "BK quartz, Au coated"

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise DomainError("sphere radius must be positive")


# Available spherical samples by radius of curvature.
SPHERE_PRESETS: dict[str, SphereSpec] = {
    "quartz-10.3cm": SphereSpec(0.103, "BK quartz, Au coated"),
    "quartz-15.5cm": SphereSpec(0.155, "BK quartz, Au coated"),
    "quartz-30.9cm": SphereSpec(0.309, "BK quartz, Au coated"),
    "quartz-154.5cm": SphereSpec(1.545, "BK quartz, Au coated"),
    "lens-0.55mm": SphereSpec(0.55e-3, "diode lens, Au coated"),
    "lens-1.10mm": SphereSpec(1.10e-3, "diode lens, Au coated"),
    "lens-1.65mm": SphereSpec(1.65e-3, "diode lens, Au coated"),
    "lens-2.75mm": SphereSpec(2.75e-3, "diode lens, Au coated"),
    "bead-45um": SphereSpec(45e-6, "polystyrene bead, Au coated"),
    "bead-110um": SphereSpec(110e-6, "polystyrene bead, Au coated"),
    "bead-380um": SphereSpec(380e-6, "polystyrene bead, Au coated"),
    "bead-600um": SphereSpec(600e-6, "polystyrene bead, Au coated"),
}


@dataclass(frozen=True)
class DetectorSpec:
    """Optical-lever angle readout.

    ``sensitivity`` (mV per microradian) is the primary quantity;
    ``angular_resolution`` is its reciprocal and is always derived, so
    the two can never drift apart.
    """

    sensitivity: float = 0.5         # mV / urad
    quantization: float = 0.1        # mV, 0 disables

    def __post_init__(self) -> None:
        if self.sensitivity <= 0:
            raise DomainError("detector sensitivity must be positive")
        if self.quantization < 0:
            raise DomainError("quantization step cannot be negative")

    @property
    def angular_resolution(self) -> float:
        """Microradians per millivolt."""
        return 1.0 / self.sensitivity


@dataclass(frozen=True)
class ActuatorSpec:
    """PZT gap actuator plus the electrostatic feedback plates."""

    pzt_accuracy: float = 0.2e-9     # m rms jitter
    pzt_range: float = 15e-6         # m
    fb_plate_area: float = 1e-4      # m^2
    fb_gap: float = 1e-3             # m
    fb_bias: float = 10.0            # V

    def __post_init__(self) -> None:
        if self.pzt_accuracy < 0:
            raise DomainError("pzt accuracy cannot be negative")
        if self.pzt_range <= 0:
            raise DomainError("pzt range must be positive")
        if self.fb_gap <= 0 or self.fb_plate_area <= 0:
            raise DomainError("feedback plate area and gap must be positive")


@dataclass(frozen=True)
class InstrumentSpec:
    """Physical configuration of the balance; the sphere belongs to the force model."""

    fiber: FiberSpec = field(default_factory=FiberSpec)
    balance: BalanceSpec = field(default_factory=BalanceSpec)
    detector: DetectorSpec = field(default_factory=DetectorSpec)
    actuator: ActuatorSpec = field(default_factory=ActuatorSpec)


@dataclass(frozen=True)
class GapState:
    """Absolute gap bookkeeping: d = contact_offset - relative_position."""

    contact_offset: float            # d0, m
    relative_position: float = 0.0   # d_r, m (actuator coordinate)

    @property
    def absolute_gap(self) -> float:
        return self.contact_offset - self.relative_position


@dataclass(frozen=True)
class VoltageState:
    """Electrical operating point of the Casimir plates."""

    applied: float = 0.0             # V
    minimizing: float = 0.0          # V0 at the reference distance
    patch_rms: float = 5e-3          # V, residual patch scale

    def __post_init__(self) -> None:
        if self.patch_rms < 0:
            raise DomainError("patch rms voltage cannot be negative")


ACTUATOR_MODES = ("linear", "quadratic")


@dataclass(frozen=True)
class PidConfig:
    """Discrete PID gains mapping detector millivolts to output volts."""

    kp: float = 0.5                  # V per mV
    ki: float = 0.08                 # V per (mV s)
    kd: float = 1.05                 # V s per mV
    output_limit: float = 10.0      # |output| <= limit, V
    integral_limit: float = 10.0    # anti-windup clamp on the I term, V
    sample_interval: float = 0.05   # s

    def __post_init__(self) -> None:
        if self.sample_interval <= 0:
            raise DomainError("controller sample interval must be positive")
        if not (math.isfinite(self.output_limit) and math.isfinite(self.integral_limit)):
            raise DomainError("controller limits must be finite")
        if self.output_limit <= 0 or self.integral_limit <= 0:
            raise DomainError("controller limits must be positive")
