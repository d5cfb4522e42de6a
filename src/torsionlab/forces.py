"""Sphere-plane force models.

Conventions: attractive forces are positive, the gap coordinate d
decreases as the plates approach, and everything is SI. All functions
are pure; identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .constants import CONSTANTS
from .errors import DomainError, NumericalError, PfaValidityWarning
from .instrument import GapState, SphereSpec, VoltageState

__all__ = [
    "COMPONENTS",
    "ForceModelParams",
    "ForceBreakdown",
    "torsion_constant",
    "electrostatic_force_pfa",
    "electrostatic_force_exact",
    "casimir_force_ideal",
    "casimir_force_thermal",
    "patch_force",
    "force_law",
    "total_force",
]

# Reference scale making patch-law coefficients comparable across exponents.
PATCH_REFERENCE_DISTANCE = 1e-6  # m

COMPONENTS = ("electrostatic", "casimir_ideal", "casimir_thermal", "patch")

_EXACT_SERIES_TOL = 1e-15
_EXACT_SERIES_MAX_TERMS = 10**6


def torsion_constant(fiber) -> float:
    """Angular spring constant of a cylindrical torsion fiber, N m/rad.

    alpha = pi * Z * D^4 / (32 * L) for shear modulus Z, diameter D,
    length L.
    """
    if fiber.torsion_modulus <= 0 or fiber.diameter <= 0 or fiber.length <= 0:
        raise DomainError("fiber parameters must be positive")
    try:
        alpha = math.pi * fiber.torsion_modulus * fiber.diameter**4 / (32.0 * fiber.length)
    except OverflowError:  # diameter**4 beyond float range
        alpha = math.inf
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(
            f"torsion constant pi * Z * D^4 / (32 * L) "
            f"{'underflows to 0' if alpha == 0.0 else 'overflows'} for fiber.diameter = "
            f"{fiber.diameter:.6g} m (fiber.torsion_modulus = {fiber.torsion_modulus:.6g} Pa, "
            f"fiber.length = {fiber.length:.6g} m)"
        )
    return alpha


def _require_open(d: float) -> float:
    if d <= 0 or not math.isfinite(d):
        raise DomainError(f"absolute gap d = d0 - d_r = {d:.3g} m must be positive")
    return d


def _check_radius(R: float) -> None:
    if R <= 0:
        raise DomainError("sphere radius must be positive")


def _electrostatic_pfa_law(R: float, V: float, V0):
    """electrostatic_force_pfa with V0 a function of d."""
    _check_radius(R)

    def law(d, k=math.pi * R * CONSTANTS.eps0, V=V, V0=V0):
        dv = V - V0(d)
        return k * dv * dv / d
    return law


def electrostatic_force_pfa(R: float, V: float, V0: float, d: float) -> float:
    """Sphere-plane electrostatic force in the close-approach limit.

    F = pi * R * eps0 * (V - V0)^2 / d, valid for d << R.
    """
    _require_open(d)
    return _electrostatic_pfa_law(R, V, lambda _: V0)(d)


def electrostatic_force_exact(R: float, V: float, V0: float, d: float) -> float:
    """Exact grounded sphere-plane electrostatic force via the bispherical
    capacitance series.

    C(d) = 4 pi eps0 R sinh(u) sum_n 1/sinh(n u) with cosh(u) = 1 + d/R;
    the force is the termwise derivative 0.5 (V-V0)^2 |dC/dd|:

        F = 2 pi eps0 (V-V0)^2 sum_n [n coth(n u) - coth(u)] / sinh(n u)

    The sum is truncated once a term contributes less than 1e-15 of the
    running total (the n = 1 term vanishes identically, hence the
    minimum term count before testing).
    """
    _require_open(d)
    _check_radius(R)
    dv = V - V0
    if dv == 0.0:
        return 0.0
    u = math.acosh(1.0 + d / R)
    coth_u = math.cosh(u) / math.sinh(u)
    total = 0.0
    n = 1
    while n <= _EXACT_SERIES_MAX_TERMS:
        snu = math.sinh(n * u)
        term = (n * math.cosh(n * u) / snu - coth_u) / snu
        total += term
        if n > 8 and term < _EXACT_SERIES_TOL * total:
            break
        n += 1
    else:
        raise NumericalError(
            f"bispherical series did not converge within {_EXACT_SERIES_MAX_TERMS} "
            f"terms at d/R = {d / R:.3g}"
        )
    return 2.0 * math.pi * CONSTANTS.eps0 * dv * dv * total


def _casimir_ideal_law(R: float):
    _check_radius(R)

    def law(d, R=R, k=math.pi**3 * CONSTANTS.hbar * CONSTANTS.c * R):
        if d / R > 0.1:
            warnings.warn(f"d/R = {d / R:.3g} > 0.1: proximity-force approximation unreliable",
                          PfaValidityWarning, stacklevel=3)
        return k / (360.0 * d**3)
    return law


def casimir_force_ideal(R: float, d: float) -> float:
    """Zero-temperature ideal-conductor sphere-plane Casimir force (PFA).

    F = pi^3 hbar c R / (360 d^3). A warning is emitted for d/R > 0.1
    where the proximity-force picture degrades.
    """
    _require_open(d)
    return _casimir_ideal_law(R)(d)


def _casimir_thermal_law(R: float, T: float):
    _check_radius(R)
    if T <= 0:
        raise DomainError("temperature must be positive")
    return lambda d, k=CONSTANTS.zeta3 * CONSTANTS.k_b * T * R: k / (8.0 * d * d)


def casimir_force_thermal(R: float, d: float, T: float) -> float:
    """High-temperature-limit thermal Casimir force, sphere-plane.

    F = zeta(3) k_b T R / (8 d^2).
    """
    _require_open(d)
    return _casimir_thermal_law(R, T)(d)


def _patch_law(R: float, V_patch: float, n: float):
    _check_radius(R)
    if not 1.0 <= n <= 4.0:
        raise DomainError(f"patch exponent n = {n!r} must lie in [1, 4]")
    if V_patch < 0:
        raise DomainError("patch rms voltage cannot be negative")
    try:
        k = math.pi * R * CONSTANTS.eps0 * V_patch**2 * PATCH_REFERENCE_DISTANCE ** (n - 1.0)
    except OverflowError:  # V_patch**2 beyond float range
        k = math.inf
    if not math.isfinite(k):
        raise DomainError(f"patch force constant pi * R * eps0 * V_patch^2 leaves the float "
                          f"range for forces.patch_rms = {V_patch:.6g} V")
    return lambda d, k=k, n=n: k / d**n


def patch_force(R: float, d: float, V_patch: float, n: float = 1.0) -> float:
    """Residual surface-patch force with a configurable power law.

    F = pi * R * eps0 * V_patch^2 * d_ref^(n-1) / d^n with d_ref = 1 um.
    n = 1 reproduces the electrostatic form with an rms residual voltage.
    """
    _require_open(d)
    return _patch_law(R, V_patch, n)(d)


@dataclass(frozen=True)
class ForceModelParams:
    """Which force components act between the plates, and with what."""

    sphere: SphereSpec = field(default_factory=SphereSpec)
    voltages: VoltageState = field(default_factory=VoltageState)
    temperature: float = 300.0       # K
    components: frozenset = frozenset(COMPONENTS)
    patch_exponent: float = 1.0
    v0_log_slope: float = 0.0        # V per decade of d / 1 um (CPD drift)

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise DomainError("temperature must be positive")
        if not 1.0 <= self.patch_exponent <= 4.0:
            raise DomainError("patch exponent must lie in [1, 4]")
        unknown = set(self.components) - set(COMPONENTS)
        if unknown:
            raise DomainError(f"unknown force components: {sorted(unknown)}")
        object.__setattr__(self, "components", frozenset(self.components))

    def minimizing_voltage_at(self, d: float) -> float:
        """Distance-dependent minimizing potential V0(d)."""
        v0 = self.voltages.minimizing
        if self.v0_log_slope != 0.0:
            v0 += self.v0_log_slope * math.log10(d / PATCH_REFERENCE_DISTANCE)
        return v0


@dataclass(frozen=True)
class ForceBreakdown:
    """Per-component forces (N) plus their sum."""

    components: dict
    total: float

    def __getitem__(self, name: str) -> float:
        return self.components[name]


def _component_laws(params: ForceModelParams) -> dict:
    """Each enabled component as a function of the gap d, in COMPONENTS order."""
    R, v = params.sphere.radius, params.voltages
    laws = {
        "electrostatic": _electrostatic_pfa_law(R, v.applied, params.minimizing_voltage_at),
        "casimir_ideal": _casimir_ideal_law(R),
        "casimir_thermal": _casimir_thermal_law(R, params.temperature),
        "patch": _patch_law(R, v.patch_rms, params.patch_exponent),
    }
    return {name: law for name, law in laws.items() if name in params.components}


def force_law(params: ForceModelParams):
    """``total_force(params, GapState(d, 0.0)).total`` as a function of d alone.

    Each ``_*_law`` hoists its expression's leading constant product, bound
    as a default argument, so the law gives total_force's bits and errors.
    """
    def law(d, laws=tuple(_component_laws(params).values()), fsum=math.fsum):
        d = _require_open(d)
        return fsum([f(d) for f in laws])
    return law


def total_force(params: ForceModelParams, gap: GapState) -> ForceBreakdown:
    """Evaluate every enabled component at the current gap and sum them."""
    d = _require_open(gap.absolute_gap)
    parts = {name: law(d) for name, law in _component_laws(params).items()}
    return ForceBreakdown(components=parts, total=math.fsum(parts.values()))
