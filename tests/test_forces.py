"""Force-model tests against independently computed reference values."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torsionlab import (
    SPHERE_PRESETS,
    FiberSpec,
    ForceModelParams,
    GapState,
    SphereSpec,
    VoltageState,
    casimir_force_ideal,
    casimir_force_thermal,
    electrostatic_force_exact,
    electrostatic_force_pfa,
    force_law,
    patch_force,
    torsion_constant,
    total_force,
)
from torsionlab.errors import DomainError, PfaValidityWarning
from torsionlab.forces import COMPONENTS

EPS0 = 8.8541878128e-12


class TestTorsionConstant:
    def test_reference_fiber(self):
        alpha = torsion_constant(FiberSpec(1.8e11, 76e-6, 0.20))
        assert alpha == pytest.approx(2.9477915727010234e-06, rel=1e-12)
        # nominal spring constant of this fiber is 2.96e-6 N m/rad
        assert alpha == pytest.approx(2.96e-6, rel=0.01)

    def test_quartic_in_diameter(self):
        base = torsion_constant(FiberSpec(1.8e11, 76e-6, 0.20))
        doubled = torsion_constant(FiberSpec(1.8e11, 152e-6, 0.20))
        assert doubled == pytest.approx(16.0 * base, rel=1e-12)

    def test_inverse_in_length(self):
        base = torsion_constant(FiberSpec(1.8e11, 76e-6, 0.20))
        longer = torsion_constant(FiberSpec(1.8e11, 76e-6, 0.40))
        assert longer == pytest.approx(base / 2.0, rel=1e-12)

    def test_homogeneous_in_modulus(self):
        base = torsion_constant(FiberSpec(1.8e11, 76e-6, 0.20))
        assert torsion_constant(FiberSpec(2.0 * 1.8e11, 76e-6, 0.20)) == 2.0 * base
        for k in (3.7, 0.1, 11.0):
            scaled = torsion_constant(FiberSpec(k * 1.8e11, 76e-6, 0.20))
            assert scaled == pytest.approx(k * base, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            FiberSpec(-1.8e11, 76e-6, 0.20)
        with pytest.raises(DomainError):
            FiberSpec(1.8e11, 0.0, 0.20)

    def test_overflow_is_a_domain_error(self):
        from torsionlab.errors import GeometryWarning

        with pytest.warns(GeometryWarning):  # D/L = 5e100
            huge_diameter = FiberSpec(1.8e11, 1e100, 0.20)  # D**4 raises OverflowError
        huge_modulus = FiberSpec(1e308, 76e-6, 0.20)        # pi * Z is inf, no exception
        for fiber in (huge_diameter, huge_modulus):
            with pytest.raises(DomainError, match="fiber.diameter"):
                torsion_constant(fiber)

    def test_fat_fiber_warns(self):
        from torsionlab.errors import GeometryWarning

        with pytest.warns(GeometryWarning):
            FiberSpec(1.8e11, 3e-3, 0.20)

    def test_odd_inertia_warns(self):
        from torsionlab import BalanceSpec
        from torsionlab.errors import GeometryWarning

        with pytest.warns(GeometryWarning):
            BalanceSpec(moment_of_inertia=1.0)

    def test_underflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="underflows to 0 for fiber.diameter"):
            torsion_constant(FiberSpec(1.8e11, 1e-100, 0.20))  # D**4 is 0.0

    def test_geometry_warnings_point_at_the_caller(self):
        # not at the generated dataclass __init__, which reports "<string>"
        from torsionlab import BalanceSpec
        from torsionlab.errors import GeometryWarning

        with pytest.warns(GeometryWarning) as fat:
            FiberSpec(1.8e11, 3e-3, 0.20)
        with pytest.warns(GeometryWarning) as odd:
            BalanceSpec(moment_of_inertia=1.0)
        assert [fat[0].filename, odd[0].filename] == [__file__, __file__]


def test_constants_reference_table():
    from torsionlab import constants_table

    table = constants_table()
    by_symbol = {row["symbol"]: row for row in table}
    assert set(by_symbol) == {"k_b", "eps0", "hbar", "c", "g", "zeta3"}
    assert by_symbol["k_b"]["unit"] == "J/K"
    assert float(by_symbol["c"]["value"]) == 299792458.0


class TestElectrostaticPfa:
    def test_reference_values(self):
        # pi * R * eps0 * dV^2 / d evaluated directly
        assert electrostatic_force_pfa(0.155, 5e-3, 0.0, 1e-6) == pytest.approx(
            1.0778797412151246e-10, rel=1e-12
        )
        assert electrostatic_force_pfa(0.103, 1.0, 0.0, 10e-6) == pytest.approx(
            2.865073892778266e-07, rel=1e-12
        )

    def test_zero_at_minimizing_voltage(self):
        assert electrostatic_force_pfa(0.155, 0.02, 0.02, 1e-6) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            electrostatic_force_pfa(0.155, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            electrostatic_force_pfa(0.155, 1.0, 0.0, -1e-6)
        with pytest.raises(DomainError):
            electrostatic_force_pfa(-0.155, 1.0, 0.0, 1e-6)


def _capacitance_series(R, d, tol=1e-16):
    """Independent oracle: bispherical sphere-plane capacitance."""
    u = math.acosh(1.0 + d / R)
    total = 0.0
    n = 1
    while True:
        term = 1.0 / math.sinh(n * u)
        total += term
        if n > 8 and term < tol * total:
            break
        n += 1
    return 4.0 * math.pi * EPS0 * R * math.sinh(u) * total


class TestElectrostaticExact:
    def test_matches_capacitance_gradient_oracle(self):
        # Compare against -0.5 V^2 dC/dd by central differences of the
        # capacitance series, an independent route to the same force.
        for R, d in ((0.155, 1e-6), (110e-6, 11e-6), (0.01, 50e-6)):
            h = 1e-6 * d
            fd = -0.5 * (_capacitance_series(R, d + h) - _capacitance_series(R, d - h)) / (2 * h)
            assert electrostatic_force_exact(R, 1.0, 0.0, d) == pytest.approx(fd, rel=5e-6)

    def test_converges_to_pfa_from_below(self):
        R = 0.155
        ratios = []
        for d_over_r, tol in ((1e-3, 0.01), (1e-4, 1e-3), (1e-5, 1e-4)):
            d = d_over_r * R
            ratio = electrostatic_force_exact(R, 1.0, 0.0, d) / electrostatic_force_pfa(
                R, 1.0, 0.0, d
            )
            assert abs(ratio - 1.0) < tol
            ratios.append(ratio)
        # the exact force sits slightly below the close-approach form and
        # approaches it monotonically as the gap closes
        assert all(r < 1.0 for r in ratios)
        assert ratios[0] < ratios[1] < ratios[2]

    def test_large_gap_deviates_from_pfa(self):
        exact = electrostatic_force_exact(110e-6, 0.1, 0.0, 11e-6)
        pfa = electrostatic_force_pfa(110e-6, 0.1, 0.0, 11e-6)
        assert abs(exact / pfa - 1.0) > 0.05
        assert exact / pfa == pytest.approx(0.8736460979, rel=1e-6)

    def test_zero_at_minimizing_voltage(self):
        assert electrostatic_force_exact(0.155, 0.5, 0.5, 1e-6) == 0.0

    def test_non_convergence_is_reported(self):
        # d/R = 1e-13 needs ~4e7 terms, beyond the 1e6 cap
        from torsionlab.errors import NumericalError

        with pytest.raises(NumericalError, match="did not converge"):
            electrostatic_force_exact(0.155, 1.0, 0.0, 0.155e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            electrostatic_force_exact(0.155, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            electrostatic_force_exact(0.0, 1.0, 0.0, 1e-6)


class TestCasimirIdeal:
    def test_reference_value(self):
        assert casimir_force_ideal(0.155, 1e-6) == pytest.approx(
            4.2206144279801043e-10, rel=1e-12
        )

    def test_cubic_scaling(self):
        f1 = casimir_force_ideal(0.155, 1e-6)
        f2 = casimir_force_ideal(0.155, 2e-6)
        assert f1 / f2 == pytest.approx(8.0, rel=1e-12)

    def test_linear_in_radius(self):
        f_big = casimir_force_ideal(0.155, 1e-6)
        f_small = casimir_force_ideal(45e-6, 1e-6)
        assert f_small == pytest.approx(f_big * 45e-6 / 0.155, rel=1e-12)

    def test_warns_outside_pfa_regime(self):
        with pytest.warns(PfaValidityWarning):
            casimir_force_ideal(45e-6, 10e-6)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            casimir_force_ideal(0.155, -1e-6)


class TestCasimirThermal:
    def test_reference_values(self):
        assert casimir_force_thermal(0.155, 1e-6, 300.0) == pytest.approx(
            9.646533468750395e-11, rel=1e-12
        )
        # ~3.9 pN at 5 um: above a 3 pN resolution floor
        f5 = casimir_force_thermal(0.155, 5e-6, 300.0)
        assert f5 == pytest.approx(3.858613387500157e-12, rel=1e-12)
        assert f5 > 3e-12

    def test_linear_in_temperature(self):
        assert casimir_force_thermal(0.155, 1e-6, 600.0) == pytest.approx(
            2.0 * casimir_force_thermal(0.155, 1e-6, 300.0), rel=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            casimir_force_thermal(0.155, 0.0, 300.0)
        with pytest.raises(DomainError):
            casimir_force_thermal(0.155, 1e-6, 0.0)


class TestPatchForce:
    def test_matches_electrostatic_at_unit_exponent(self):
        # patch rms of 5 mV at n = 1 reproduces the electrostatic form
        assert patch_force(0.155, 1e-6, 5e-3, 1.0) == pytest.approx(
            electrostatic_force_pfa(0.155, 5e-3, 0.0, 1e-6), rel=1e-12
        )
        assert patch_force(0.155, 1e-6, 5e-3, 1.0) == pytest.approx(
            1.0778797412151246e-10, rel=1e-12
        )

    def test_zero_for_no_patches(self):
        assert patch_force(0.155, 1e-6, 0.0, 1.0) == 0.0

    def test_power_law_scaling(self):
        f1 = patch_force(0.155, 1e-6, 5e-3, 2.0)
        f2 = patch_force(0.155, 2e-6, 5e-3, 2.0)
        assert f1 / f2 == pytest.approx(4.0, rel=1e-12)

    def test_exponent_domain(self):
        with pytest.raises(DomainError):
            patch_force(0.155, 1e-6, 5e-3, 0.5)
        with pytest.raises(DomainError):
            patch_force(0.155, 1e-6, 5e-3, 4.5)


def _params(components, applied=0.0, v0=0.0):
    return ForceModelParams(
        sphere=SphereSpec(0.155),
        voltages=VoltageState(applied=applied, minimizing=v0, patch_rms=5e-3),
        temperature=300.0,
        components=frozenset(components),
    )


class TestTotalForce:
    GAP = GapState(contact_offset=1e-6, relative_position=0.0)

    def test_minimized_electrostatic_only_is_zero(self):
        out = total_force(_params({"electrostatic"}, applied=0.3, v0=0.3), self.GAP)
        assert out.total == 0.0

    def test_all_components_sum(self):
        out = total_force(_params(set(("electrostatic", "casimir_ideal", "casimir_thermal", "patch"))), self.GAP)
        expected = 0.0 + 4.2206144279801043e-10 + 9.646533468750395e-11 + 1.0778797412151246e-10
        assert out.total == pytest.approx(expected, rel=1e-12)
        assert out["casimir_ideal"] == pytest.approx(4.2206144279801043e-10, rel=1e-12)

    def test_disabling_removes_exactly_that_component(self):
        full = total_force(_params({"casimir_ideal", "casimir_thermal", "patch"}), self.GAP)
        without = total_force(_params({"casimir_ideal", "patch"}), self.GAP)
        assert full.total - without.total == pytest.approx(
            full["casimir_thermal"], rel=1e-12
        )

    def test_breakdown_sums_to_total(self):
        out = total_force(_params({"casimir_ideal", "casimir_thermal", "patch"}), self.GAP)
        assert sum(out.components.values()) == pytest.approx(out.total, rel=1e-12)

    def test_monotonically_decreasing_in_gap(self):
        params = _params(
            {"electrostatic", "casimir_ideal", "casimir_thermal", "patch"}, applied=0.1
        )
        R = params.sphere.radius
        gaps = np.geomspace(1e-8, R / 10.0, 40)
        for name in params.components:
            single = _params({name}, applied=0.1)
            forces = [
                total_force(single, GapState(d, 0.0)).total for d in gaps
            ]
            assert all(a > b for a, b in zip(forces, forces[1:])), name

    def test_closed_gap_rejected(self):
        with pytest.raises(DomainError):
            total_force(_params({"patch"}), GapState(1e-6, 2e-6))

    def test_evaluations_are_pure(self):
        params = _params({"electrostatic", "casimir_ideal", "casimir_thermal", "patch"}, applied=0.17)
        a = total_force(params, self.GAP)
        b = total_force(params, self.GAP)
        assert a.total == b.total
        assert a.components == b.components


def _evaluate(evaluate):
    """evaluate()'s value and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = evaluate()
    return value, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=300, deadline=None)
@given(
    components=st.sets(st.sampled_from(COMPONENTS)),
    sphere=st.sampled_from(sorted(SPHERE_PRESETS)),
    applied=st.floats(-1.0, 1.0),
    minimizing=st.floats(-1.0, 1.0),
    patch_rms=st.floats(0.0, 0.05),
    v0_log_slope=st.one_of(st.just(0.0), st.floats(-0.05, 0.05)),
    patch_exponent=st.floats(1.0, 4.0),
    log10_gap=st.floats(-9.0, -3.0),
)
def test_force_law_is_total_force_bit_for_bit(components, sphere, applied, minimizing,
                                              patch_rms, v0_log_slope, patch_exponent,
                                              log10_gap):
    # gaps log-spaced from 1 nm to 1 mm; the small presets take d/R past 0.1,
    # where both must raise the same PfaValidityWarning
    params = ForceModelParams(
        sphere=SPHERE_PRESETS[sphere],
        voltages=VoltageState(applied=applied, minimizing=minimizing, patch_rms=patch_rms),
        components=frozenset(components),
        patch_exponent=patch_exponent,
        v0_log_slope=v0_log_slope,
    )
    d = 10.0 ** log10_gap
    law, law_warnings = _evaluate(lambda: force_law(params)(d))
    total, total_warnings = _evaluate(lambda: total_force(params, GapState(d, 0.0)).total)
    assert law == total  # floats compared exactly
    assert law_warnings == total_warnings


@pytest.mark.parametrize("d", [0.0, -1e-9, math.inf, math.nan])
def test_force_law_rejects_a_closed_gap_as_total_force_does(d):
    params = _params(COMPONENTS)
    with pytest.raises(DomainError) as law:
        force_law(params)(d)
    with pytest.raises(DomainError) as total:
        total_force(params, GapState(d, 0.0))
    assert str(law.value) == str(total.value)
