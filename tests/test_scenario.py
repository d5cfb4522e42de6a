"""Scenario parsing: units, defaults, rejection, hashing."""

import re
import tempfile
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from torsionlab import (
    DetectorSpec,
    RunSchedule,
    Scenario,
    build_report,
    parse_scenario_text,
    run_null_measurement,
    scenario_hash,
    torsion_constant,
)
from torsionlab.cli import EXIT_CONFIG, EXIT_OK, main
from torsionlab.errors import ConfigError, DomainError
from torsionlab.forces import COMPONENTS
from torsionlab.instrument import ACTUATOR_MODES
from torsionlab.scenario import KEYS, UNIT_TABLES

# Every stored key at a non-default value. Scaling any subset of the
# numbers by 1 to 1.3 keeps the scenario valid.
ALL_KEYS = {
    "seed": "4242",
    "fiber.torsion_modulus": "150 GPa",
    "fiber.diameter": "80 um",
    "fiber.length": "25 cm",
    "balance.mass": "120 g",
    "balance.casimir_arm": "12 cm",
    "balance.feedback_arm": "9 cm",
    "balance.pendulum_length": "30 cm",
    "balance.moment_of_inertia": "6e-4 kg.m2",
    "balance.quality_factor": "500",
    "sphere.radius": "10.3 cm",
    "sphere.material": "fused silica, Au coated",
    "detector.sensitivity": "0.8 mV/urad",
    "detector.quantization": "0.25 mV",
    "actuator.pzt_accuracy": "0.5 nm",
    "actuator.pzt_range": "20 um",
    "actuator.fb_plate_area": "2 cm2",
    "actuator.fb_gap": "2 mm",
    "actuator.fb_bias": "15 V",
    "forces.components": "patch, electrostatic, casimir_thermal",
    "forces.temperature": "77 K",
    "forces.applied_voltage": "50 mV",
    "forces.v0": "20 mV",
    "forces.v0_log_slope": "3 mV",
    "forces.patch_rms": "7 mV",
    "forces.patch_exponent": "1.5",
    "control.kp": "0.6 V/mV",
    "control.ki": "0.05 V/mV/s",
    "control.kd": "1.2 V.s/mV",
    "control.output_limit": "8 V",
    "control.integral_limit": "6 V",
    "control.sample_interval": "0.1 s",
    "control.actuator_mode": "quadratic",
    "run.dt": "0.02 s",
    "run.duration": "120 s",
    "run.applied_force": "50 pN",
    "run.contact_offset": "12 um",
    "run.position": "3 um",
    "run.positions": "1 um, 4 um, 6.5 um",
    "run.voltages": "-0.2 V, 0 V, 250 mV",
    "run.forces": "10 pN, 20 pN",
    "run.thermal_noise": "true",
    "run.pzt_jitter": "yes",
    "run.delta_theta_min": "0.2 urad",
    "budget.reference_distance": "2 um",
    "output.dir": "results/all",
}
NUMERIC = sorted(
    key for key, (kind, _) in KEYS.items()
    if kind == "number" or kind.startswith("quantity:")
    or (kind.startswith("list:") and kind != "list:string")
)


def _text(values: dict) -> str:
    return "".join(f"{key} = {raw}\n" for key, raw in values.items())


class TestDefaults:
    def test_empty_file_gives_reference_instrument(self):
        s = parse_scenario_text("")
        assert s.instrument.fiber.diameter == 76e-6
        assert s.instrument.fiber.length == 0.20
        assert s.instrument.fiber.torsion_modulus == 1.8e11
        assert s.instrument.balance.mass == 0.0973
        assert s.forces.sphere.radius == 0.155
        assert s.instrument.detector.sensitivity == 0.5
        assert s.instrument.actuator.pzt_accuracy == 0.2e-9
        assert s.forces.temperature == 300.0
        assert s.forces.voltages.patch_rms == 5e-3
        assert s.run.delta_theta_min == 0.1e-6
        assert s == Scenario()

    def test_comments_and_blanks_ignored(self):
        s = parse_scenario_text("# a comment\n\nfiber.length = 0.4 m  # trailing\n")
        assert s.instrument.fiber.length == 0.4


class TestUnits:
    def test_unit_conversion(self):
        s = parse_scenario_text("fiber.diameter = 152 um\n")
        assert s.instrument.fiber.diameter == pytest.approx(152e-6)

    def test_doubled_diameter_scales_stiffness_sixteenfold(self):
        base = parse_scenario_text("")
        thick = parse_scenario_text("fiber.diameter = 152 um\n")
        a0 = torsion_constant(base.instrument.fiber)
        a1 = torsion_constant(thick.instrument.fiber)
        assert a1 == pytest.approx(16.0 * a0, rel=1e-12)
        r0 = build_report(base)
        r1 = build_report(thick)
        assert r1.force_resolution == pytest.approx(16.0 * r0.force_resolution, rel=1e-12)

    def test_bare_number_rejected_for_dimensioned_key(self):
        with pytest.raises(ConfigError, match="bare number"):
            parse_scenario_text("fiber.diameter = 76\n")

    def test_wrong_dimension_names_expected(self):
        with pytest.raises(ConfigError, match="expects length"):
            parse_scenario_text("fiber.diameter = 76 Pa\n")

    def test_unknown_unit_rejected(self):
        with pytest.raises(ConfigError, match="unknown unit"):
            parse_scenario_text("fiber.diameter = 76 furlong\n")

    def test_quantity_lists(self):
        s = parse_scenario_text("run.positions = 1 um, 2 um, 3.5 um\n")
        assert s.run.positions == (1e-6, 2e-6, 3.5e-6)


class TestRejection:
    def test_negative_length_is_validation_error(self):
        with pytest.raises(ConfigError, match="fiber"):
            parse_scenario_text("fiber.length = -1 m\n")

    def test_unknown_key_with_location(self):
        with pytest.raises(ConfigError, match=r"<config>:3:.*unknown key"):
            parse_scenario_text("# one\nfiber.length = 0.2 m\nfiber.bogus = 1 m\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_scenario_text("seed = 1\nseed = 2\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="<config>:2"):
            parse_scenario_text("seed = 1\nnot a key value pair\n")

    def test_bad_component_name(self):
        with pytest.raises(ConfigError, match="components"):
            parse_scenario_text("forces.components = electrostatic, lifshitz\n")

    def test_bad_actuator_mode(self):
        with pytest.raises(ConfigError, match="actuator_mode"):
            parse_scenario_text("control.actuator_mode = cubic\n")

    def test_unknown_sphere_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_scenario_text("sphere.preset = basketball\n")

    @pytest.mark.parametrize("other", ["sphere.radius = 1 cm", "sphere.material = glass"])
    def test_preset_is_exclusive(self, other):
        with pytest.raises(ConfigError, match="sphere.preset cannot be combined"):
            parse_scenario_text(f"sphere.preset = bead-110um\n{other}\n")

    @pytest.mark.parametrize("raw", ["nan", "-inf", "1e999"])
    @pytest.mark.parametrize("key", NUMERIC)
    def test_non_finite_value_names_the_key(self, key, raw):
        kind = KEYS[key][0]
        unit = "" if kind == "number" else " " + next(iter(UNIT_TABLES[kind.split(":", 1)[1]]))
        with pytest.raises(ConfigError, match=re.escape(f"{key}: '{raw}{unit}' is not a finite number")):
            parse_scenario_text(f"{key} = {raw}{unit}\n")

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            parse_scenario_text("seed = -3\n")

    # The file parser refuses nan, but a library caller builds these directly.
    @pytest.mark.parametrize("key", ["run.dt", "run.duration", "run.delta_theta_min",
                                     "budget.reference_distance"])
    def test_nan_setting_is_refused_by_name(self, key):
        section, name = key.split(".")
        cls = Scenario if section == "budget" else RunSchedule
        with pytest.raises(DomainError, match=re.escape(key)):
            cls(**{name: float("nan")})

    def test_positions_must_lie_within_pzt_range(self):
        # refused as given in both jitter modes: no run clamps its command
        for mode in ("run.pzt_jitter = false\n", "run.pzt_jitter = true\n"):
            parse_scenario_text(mode + "run.position = 15 um\nrun.positions = 0 um, 15 um\n")
            with pytest.raises(ConfigError, match=r"run.positions = 1.6e-05 m lies outside"):
                parse_scenario_text(mode + "run.positions = 1 um, 16 um\n")
            with pytest.raises(ConfigError, match=r"run.position = 6e-06 m .*pzt_range"):
                parse_scenario_text(mode + "actuator.pzt_range = 5 um\nrun.position = 6 um\n")
            with pytest.raises(ConfigError, match=r"run.position = -1e-06 m lies outside"):
                parse_scenario_text(mode + "run.position = -1 um\n")


class TestPresetsAndRoundTrip:
    def test_sphere_preset_sets_radius(self):
        s = parse_scenario_text("sphere.preset = bead-110um\n")
        assert s.forces.sphere.radius == 110e-6

    def test_hash_stable_under_key_reordering(self):
        a = parse_scenario_text("seed = 5\nfiber.length = 0.3 m\nrun.dt = 0.02 s\n")
        b = parse_scenario_text("run.dt = 0.02 s\nfiber.length = 0.3 m\nseed = 5\n")
        assert scenario_hash(a) == scenario_hash(b)

    def test_hash_changes_with_content(self):
        a = parse_scenario_text("seed = 5\n")
        b = parse_scenario_text("seed = 6\n")
        assert scenario_hash(a) != scenario_hash(b)

    def test_file_and_library_quantization_run_alike(self):
        run = "run.duration = 60 s\nrun.applied_force = 100 pN\n"
        from_file = parse_scenario_text(run + "detector.quantization = 0.009 mV\n")
        default = parse_scenario_text(run)
        from_library = replace(default, instrument=replace(
            default.instrument, detector=DetectorSpec(quantization=0.009)))
        assert from_file == from_library
        assert (run_null_measurement(from_file).error_mv.tolist()
                == run_null_measurement(from_library).error_mv.tolist())


class TestHashPins:
    """scenario_hash of fixed scenarios: an edit that moves one breaks the hash
    of every saved run, so it must be made on purpose."""

    def test_default(self):
        assert scenario_hash(Scenario()) == (
            "4c4f97adfd74b6c92b5090d24f0c33487512606441c60a9aabd7986cb5669487"
        )

    def test_every_key_at_a_non_default_value(self):
        s = parse_scenario_text(_text(ALL_KEYS))
        flat, default = s.to_flat(), Scenario().to_flat()
        assert flat.keys() == set(KEYS) - {"sphere.preset"}
        assert [key for key in flat if flat[key] == default[key]] == []
        assert scenario_hash(s) == (
            "2e75165b9f3ee13f067bdab9122721cee9d6b0b3e8c94dde6ec19e9919b9d228"
        )

    def test_sphere_preset(self):
        s = parse_scenario_text("sphere.preset = lens-1.10mm\nseed = 7\n")
        assert scenario_hash(s) == (
            "fb054ce88d9ad794bdce8c04e7a00fd3d44975147862b6da23be3f9d8ecfe919"
        )


# Mostly broken values: non-finite or unparsable numbers, foreign units,
# negative amounts, words; plus arbitrary text.
_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "1e999", "-3", "0", "1.5", "x", ""])
_UNITS = st.sampled_from(["", *sorted({u for table in UNIT_TABLES.values() for u in table}),
                          "furlong"])
_VALUES = st.one_of(
    st.builds(lambda n, u: f"{n} {u}".strip(), _NUMBERS, _UNITS),
    st.lists(st.builds(lambda n, u: f"{n} {u}".strip(), _NUMBERS, _UNITS), min_size=1)
    .map(", ".join),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=20),
)


# A valid file value for each key: quantities are their ALL_KEYS value times
# a factor in [0.5, 2], each list item on its own; the rest, and the patch
# exponent, which must lie in [1, 4], come from valid sets.
def _scaled(raw: str):
    number, _, unit = raw.partition(" ")
    return st.floats(0.5, 2.0).map(lambda f: f"{float(number) * f!r} {unit}".strip())


_VALID = {
    "forces.patch_exponent": st.floats(1.0, 4.0).map(repr),
    "sphere.material": st.sampled_from(["gold", "fused silica, Au coated", "Ge"]),
    "forces.components": st.sets(st.sampled_from(COMPONENTS)).map(", ".join),
    "control.actuator_mode": st.sampled_from(ACTUATOR_MODES),
    "output.dir": st.sampled_from(["out", "results/all"]),
}


def _file_value(key: str):
    if key in _VALID:
        return _VALID[key]
    kind = KEYS[key][0]
    if kind == "int":
        return st.integers(0, 2**63).map(str)
    if kind == "bool":
        return st.sampled_from(["true", "false", "yes", "off"])
    if kind.startswith("list:"):
        return st.tuples(*map(_scaled, ALL_KEYS[key].split(", "))).map(", ".join)
    return _scaled(ALL_KEYS[key])


def _unit_of_factor_one(kind: str) -> str:
    table = UNIT_TABLES.get(kind.partition(":")[2], {})
    return next((unit for unit, factor in table.items() if factor == 1.0), "")


class TestProperties:
    # Writing a key's flat value back in its table's unit of factor 1 must
    # store the same field: the flat form is what the file says.
    @pytest.mark.parametrize("key", sorted(key for key, (_, path) in KEYS.items() if path))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_flat_value_round_trips_through_the_file(self, key, data):
        kind, path = KEYS[key]
        before = parse_scenario_text(f"{key} = {data.draw(_file_value(key))}\n")
        flat = before.to_flat()[key]
        unit = _unit_of_factor_one(kind)
        written = ", ".join(item if isinstance(item, str) else f"{item!r} {unit}".strip()
                            for item in (flat if kind.startswith("list:") else [flat]))
        after = parse_scenario_text(f"{key} = {written}\n")
        assert after.to_flat()[key] == flat
        assert attrgetter(path)(after) == attrgetter(path)(before)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(sorted(KEYS) + ["fiber.bogus"]), raw=_VALUES)
    def test_bad_input_exits_2_never_1(self, key, raw):
        text = f"{key} = {raw}\n"
        try:
            parse_scenario_text(text)
            rejected = False
        except ConfigError:
            rejected = True
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "bad.cfg"
            cfg.write_text(text, encoding="utf-8")
            code = main(["budget", "--config", str(cfg), "--out", tmp])
        assert code == EXIT_CONFIG if rejected else code in (EXIT_OK, EXIT_CONFIG)
