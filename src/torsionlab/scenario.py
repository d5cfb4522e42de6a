"""Scenario configuration: unit-suffixed key/value files, defaults,
serialization, and stable hashing.

Configs are line-oriented ``dotted.key = value`` files. Dimensioned
values require a unit suffix ("76 um", "1.8e11 Pa"); bare numbers are
rejected for dimensioned keys so silent unit errors cannot slip in.
An empty file yields the default instrument.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import ConfigError, DomainError
from .forces import ForceModelParams, torsion_constant
from .instrument import (
    ACTUATOR_MODES,
    ActuatorSpec,
    BalanceSpec,
    DetectorSpec,
    FiberSpec,
    InstrumentSpec,
    PidConfig,
    SPHERE_PRESETS,
    SphereSpec,
    VoltageState,
)

__all__ = ["Scenario", "RunSchedule", "load_scenario", "parse_scenario_text", "scenario_hash"]


UNIT_TABLES: dict[str, dict[str, float]] = {
    "length": {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "nm": 1e-9},
    "area": {"m2": 1.0, "cm2": 1e-4, "mm2": 1e-6},
    "mass": {"kg": 1.0, "g": 1e-3},
    "pressure": {"Pa": 1.0, "MPa": 1e6, "GPa": 1e9},
    "temperature": {"K": 1.0},
    "voltage": {"V": 1.0, "mV": 1e-3, "uV": 1e-6},
    "time": {"s": 1.0, "ms": 1e-3},
    "force": {"N": 1.0, "uN": 1e-6, "nN": 1e-9, "pN": 1e-12},
    "angle": {"rad": 1.0, "mrad": 1e-3, "urad": 1e-6},
    "inertia": {"kg.m2": 1.0},
    "p-gain": {"V/mV": 1.0},
    "i-gain": {"V/(mV.s)": 1.0, "V/mV/s": 1.0},
    "d-gain": {"V.s/mV": 1.0},
    "detector-sensitivity": {"mV/urad": 1.0},
}

# key -> (kind, attribute path on Scenario[, scale in, scale out]). Quantity
# and list kinds name their dimension table. A file's SI value is stored times
# the scale in; the flat form is the stored value times the scale out: the
# detector keeps its quantization step in readout millivolts. Defaults live in
# the dataclasses. sphere.preset has no path: it stands for radius and material.
_Q = "quantity:"
KEYS: dict[str, tuple] = {
    "seed": ("int", "seed"),
    "fiber.torsion_modulus": (_Q + "pressure", "instrument.fiber.torsion_modulus"),
    "fiber.diameter": (_Q + "length", "instrument.fiber.diameter"),
    "fiber.length": (_Q + "length", "instrument.fiber.length"),
    "balance.mass": (_Q + "mass", "instrument.balance.mass"),
    "balance.casimir_arm": (_Q + "length", "instrument.balance.casimir_arm"),
    "balance.feedback_arm": (_Q + "length", "instrument.balance.feedback_arm"),
    "balance.pendulum_length": (_Q + "length", "instrument.balance.pendulum_length"),
    "balance.moment_of_inertia": (_Q + "inertia", "instrument.balance.moment_of_inertia"),
    "balance.quality_factor": ("number", "instrument.balance.quality_factor"),
    "sphere.preset": ("string", None),
    "sphere.radius": (_Q + "length", "forces.sphere.radius"),
    "sphere.material": ("string", "forces.sphere.material"),
    "detector.sensitivity": (_Q + "detector-sensitivity", "instrument.detector.sensitivity"),
    "detector.quantization": (_Q + "voltage", "instrument.detector.quantization", 1e3, 1e-3),
    "actuator.pzt_accuracy": (_Q + "length", "instrument.actuator.pzt_accuracy"),
    "actuator.pzt_range": (_Q + "length", "instrument.actuator.pzt_range"),
    "actuator.stage_resolution": (_Q + "length", "instrument.actuator.stage_resolution"),
    "actuator.fb_plate_area": (_Q + "area", "instrument.actuator.fb_plate_area"),
    "actuator.fb_gap": (_Q + "length", "instrument.actuator.fb_gap"),
    "actuator.fb_bias": (_Q + "voltage", "instrument.actuator.fb_bias"),
    "forces.components": ("list:string", "forces.components"),
    "forces.temperature": (_Q + "temperature", "forces.temperature"),
    "forces.applied_voltage": (_Q + "voltage", "forces.voltages.applied"),
    "forces.v0": (_Q + "voltage", "forces.voltages.minimizing"),
    "forces.v0_log_slope": (_Q + "voltage", "forces.v0_log_slope"),
    "forces.patch_rms": (_Q + "voltage", "forces.voltages.patch_rms"),
    "forces.patch_exponent": ("number", "forces.patch_exponent"),
    "control.kp": (_Q + "p-gain", "pid.kp"),
    "control.ki": (_Q + "i-gain", "pid.ki"),
    "control.kd": (_Q + "d-gain", "pid.kd"),
    "control.output_limit": (_Q + "voltage", "pid.output_limit"),
    "control.integral_limit": (_Q + "voltage", "pid.integral_limit"),
    "control.sample_interval": (_Q + "time", "pid.sample_interval"),
    "control.actuator_mode": ("string", "actuator_mode"),
    "run.dt": (_Q + "time", "run.dt"),
    "run.duration": (_Q + "time", "run.duration"),
    "run.applied_force": (_Q + "force", "run.applied_force"),
    "run.contact_offset": (_Q + "length", "run.contact_offset"),
    "run.position": (_Q + "length", "run.position"),
    "run.positions": ("list:length", "run.positions"),
    "run.voltages": ("list:voltage", "run.voltages"),
    "run.forces": ("list:force", "run.forces"),
    "run.thermal_noise": ("bool", "run.thermal_noise"),
    "run.pzt_jitter": ("bool", "run.pzt_jitter"),
    "run.delta_theta_min": (_Q + "angle", "run.delta_theta_min"),
    "budget.reference_distance": (_Q + "length", "reference_distance"),
    "output.dir": ("string", "output_dir"),
}


@dataclass(frozen=True)
class RunSchedule:
    """What a run executes: timing, gap placement, drive lists, noise."""

    dt: float = 0.05
    duration: float = 300.0
    applied_force: float = 0.0
    contact_offset: float = 10e-6
    position: float = 0.0
    positions: tuple = ()
    voltages: tuple = ()
    forces: tuple = ()
    thermal_noise: bool = False
    pzt_jitter: bool = False
    delta_theta_min: float = 0.1e-6

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.duration <= 0:
            raise DomainError("run.dt and run.duration must be positive")
        if self.delta_theta_min <= 0:
            raise DomainError("run.delta_theta_min must be positive")


@dataclass(frozen=True)
class Scenario:
    """Fully resolved configuration for one reproducible run."""

    instrument: InstrumentSpec = field(default_factory=InstrumentSpec)
    forces: ForceModelParams = field(default_factory=ForceModelParams)
    pid: PidConfig = field(default_factory=PidConfig)
    actuator_mode: str = "linear"
    run: RunSchedule = field(default_factory=RunSchedule)
    reference_distance: float = 1e-6
    seed: int = 12345
    output_dir: str = "out"

    def __post_init__(self) -> None:
        if self.actuator_mode not in ACTUATOR_MODES:
            raise DomainError(
                f"control.actuator_mode must be one of {ACTUATOR_MODES}, "
                f"got {self.actuator_mode!r}"
            )
        if self.reference_distance <= 0:
            raise DomainError("budget.reference_distance must be positive")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {self.seed!r}")
        torsion_constant(self.instrument.fiber)  # finite values can over- or underflow D^4
        travel = self.instrument.actuator.pzt_range
        for key, values in (("run.position", (self.run.position,)),
                            ("run.positions", self.run.positions)):
            outside = [d for d in values if not 0.0 <= d <= travel]
            if outside:
                raise DomainError(
                    f"{key} = {outside[0]:.6g} m lies outside the PZT range "
                    f"[0, {travel:.6g}] m (actuator.pzt_range)"
                )

    def to_flat(self) -> dict:
        """Flat dotted-key dict of resolved SI values; ``from_flat`` inverts it
        to a scenario with the same flat form and hash."""
        flat = {}
        for key, (kind, path, *scale) in KEYS.items():
            if path is None:
                continue
            value = attrgetter(path)(self)
            if kind.startswith("list:"):
                value = sorted(value) if isinstance(value, frozenset) else list(value)
            elif scale:
                value = value * scale[1]
            flat[key] = value
        return flat

    @staticmethod
    def from_flat(values: dict) -> "Scenario":
        return _build_scenario(values, flat=True)


# Attribute path -> (name in error messages, constructor), children first.
_SECTIONS = {
    "instrument.fiber": ("fiber", FiberSpec),
    "instrument.balance": ("balance", BalanceSpec),
    "instrument.detector": ("detector", DetectorSpec),
    "instrument.actuator": ("actuator", ActuatorSpec),
    "instrument": ("instrument", InstrumentSpec),
    "forces.sphere": ("sphere", SphereSpec),
    "forces.voltages": ("forces", VoltageState),
    "forces": ("forces", ForceModelParams),
    "pid": ("control", PidConfig),
    "run": ("run", RunSchedule),
    "": ("scenario", Scenario),
}


def scenario_hash(scenario: Scenario) -> str:
    """SHA-256 of the canonical JSON form; stable under key reordering."""
    payload = json.dumps(scenario.to_flat(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _finite(number: float, raw: str, where: str) -> float:
    if not math.isfinite(number):
        raise ConfigError(f"{where}: {raw!r} is not a finite number")
    return number


def _parse_quantity(raw: str, dimension: str, where: str) -> float:
    table = UNIT_TABLES[dimension]
    parts = raw.split(None, 1)
    try:
        number = float(parts[0])
    except (ValueError, IndexError):
        raise ConfigError(f"{where}: cannot parse number from {raw!r}") from None
    if len(parts) == 1:
        raise ConfigError(
            f"{where}: bare number {raw!r}; expected a {dimension} unit "
            f"({', '.join(table)})"
        )
    unit = parts[1].strip()
    if unit not in table:
        owner = next((dim for dim, t in UNIT_TABLES.items() if unit in t), None)
        if owner is not None:
            raise ConfigError(
                f"{where}: unit {unit!r} is a {owner} unit but this key expects "
                f"{dimension} ({', '.join(table)})"
            )
        raise ConfigError(
            f"{where}: unknown unit {unit!r}; expected {dimension} "
            f"({', '.join(table)})"
        )
    return _finite(number * table[unit], raw, where)


def _parse_value(kind: str, raw: str, where: str):
    if kind.startswith("quantity:"):
        return _parse_quantity(raw, kind.split(":", 1)[1], where)
    if kind.startswith("list:"):
        dimension = kind.split(":", 1)[1]
        items = [s.strip() for s in raw.split(",") if s.strip()]
        if dimension == "string":
            return items
        return [_parse_quantity(item, dimension, where) for item in items]
    if kind == "number":
        try:
            number = float(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected a plain number, got {raw!r}") from None
        return _finite(number, raw, where)
    if kind == "int":
        try:
            return int(raw, 0)
        except ValueError:
            raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None
    if kind == "bool":
        low = raw.strip().lower()
        if low in ("true", "yes", "on"):
            return True
        if low in ("false", "no", "off"):
            return False
        raise ConfigError(f"{where}: expected true/false, got {raw!r}")
    if kind == "string":
        return raw.strip()
    raise AssertionError(f"unhandled kind {kind}")


def parse_scenario_text(text: str, source: str = "<config>") -> Scenario:
    """Parse config text into a validated Scenario with defaults filled."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        if "=" not in stripped:
            col = len(line) - len(line.lstrip()) + 1
            raise ConfigError(
                f"{source}:{lineno}:{col}: expected 'key = value', got {stripped.strip()!r}"
            )
        key_part, _, value_part = stripped.partition("=")
        key = key_part.strip()
        raw = value_part.strip()
        key_col = line.find(key) + 1
        where = f"{source}:{lineno}:{key_col}"
        if key not in KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        value_col = stripped.find(value_part.strip()) + 1 if raw else key_col
        values[key] = _parse_value(KEYS[key][0], raw, f"{source}:{lineno}:{value_col}: {key}")
    return _build_scenario(values, source=source)


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from None
    return parse_scenario_text(text, source=str(path))


def _build_scenario(values: dict, source: str = "<config>", flat: bool = False) -> Scenario:
    """Scenario from parsed or flat values; keys left out keep their defaults."""
    preset = values.get("sphere.preset")
    if preset is not None:
        if preset not in SPHERE_PRESETS:
            raise ConfigError(
                f"{source}: unknown sphere preset {preset!r}; "
                f"available: {', '.join(sorted(SPHERE_PRESETS))}"
            )
        if "sphere.radius" in values or "sphere.material" in values:
            raise ConfigError(
                f"{source}: sphere.preset cannot be combined with sphere.radius "
                f"or sphere.material"
            )
        sphere = SPHERE_PRESETS[preset]
        values = {**values, "sphere.radius": sphere.radius, "sphere.material": sphere.material}
    arguments = {path: {} for path in _SECTIONS}
    for key, value in values.items():
        kind, path, *scale = KEYS[key]
        if path is None:
            continue
        if kind.startswith("list:"):
            value = tuple(value)
        elif scale:  # (v / out) * out == v keeps the hash; (v * in) * out may not
            value = value / scale[1] if flat else value * scale[0]
        parent, _, name = path.rpartition(".")
        arguments[parent][name] = value
    for path, (name, constructor) in _SECTIONS.items():
        try:
            built = constructor(**arguments[path])
        except DomainError as exc:
            raise ConfigError(f"{source}: invalid {name}: {exc}") from None
        if path:
            parent, _, attr = path.rpartition(".")
            arguments[parent][attr] = built
    return built
