"""Noise-budget tests, anchored to the reference instrument's figures."""

import math

import numpy as np
import pytest

from torsionlab import (
    ForceModelParams,
    RunSchedule,
    Scenario,
    SphereSpec,
    VoltageState,
    build_report,
    casimir_force_ideal,
    casimir_force_thermal,
    electrostatic_force_pfa,
    force_resolution_from_angle,
    jitter_force_floor,
    max_thermal_casimir_distance,
    patch_force,
    swing_angle_noise,
    thermal_angle_noise,
)
from torsionlab.errors import DomainError

ALPHA = 2.96e-6


def _params(applied=0.0, v0=0.0, patch_rms=5e-3, n=1.0, T=300.0):
    return ForceModelParams(
        sphere=SphereSpec(0.155),
        voltages=VoltageState(applied=applied, minimizing=v0, patch_rms=patch_rms),
        temperature=T,
        patch_exponent=n,
    )


class TestAngleNoises:
    def test_torsion_mode_reference(self):
        value = thermal_angle_noise(ALPHA, 300.0)
        assert value == pytest.approx(3.7407304352477994e-08, rel=1e-12)
        assert value == pytest.approx(3.8e-8, rel=0.03)

    def test_swing_mode_reference(self):
        value = swing_angle_noise(0.0973, 0.20, 300.0)
        assert value == pytest.approx(1.473229860750882e-10, rel=1e-12)
        assert value == pytest.approx(1.5e-10, rel=0.05)

    def test_zero_temperature(self):
        assert thermal_angle_noise(ALPHA, 0.0) == 0.0
        assert swing_angle_noise(0.0973, 0.20, 0.0) == 0.0

    def test_stiffness_scaling(self):
        assert thermal_angle_noise(4 * ALPHA, 300.0) == pytest.approx(
            thermal_angle_noise(ALPHA, 300.0) / 2.0, rel=1e-12
        )

    def test_mass_scaling(self):
        assert swing_angle_noise(4 * 0.0973, 0.20, 300.0) == pytest.approx(
            swing_angle_noise(0.0973, 0.20, 300.0) / 2.0, rel=1e-12
        )

    def test_doubling_temperature_doubles_squared_noise(self):
        a = thermal_angle_noise(ALPHA, 300.0)
        b = thermal_angle_noise(ALPHA, 600.0)
        assert b * b == pytest.approx(2.0 * a * a, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            thermal_angle_noise(0.0, 300.0)
        with pytest.raises(DomainError):
            swing_angle_noise(0.0973, -0.2, 300.0)


class TestForceResolution:
    def test_reference_floor(self):
        value = force_resolution_from_angle(ALPHA, 0.1e-6, 0.1)
        assert value == pytest.approx(2.96e-12, rel=1e-12)
        assert value <= 3e-12

    def test_zero_angle(self):
        assert force_resolution_from_angle(ALPHA, 0.0, 0.1) == 0.0

    def test_longer_arm_improves_resolution(self):
        assert force_resolution_from_angle(ALPHA, 0.1e-6, 0.2) == pytest.approx(
            force_resolution_from_angle(ALPHA, 0.1e-6, 0.1) / 2.0, rel=1e-12
        )


class TestJitterFloors:
    def test_electrostatic_reference(self):
        value = jitter_force_floor("electrostatic", 0.155, 1e-6, 0.2e-9, _params(applied=5e-3))
        assert value == pytest.approx(2.1557594824302494e-14, rel=1e-12)
        assert value == pytest.approx(0.025e-12, rel=0.20)

    def test_electrostatic_at_minimized_point_uses_patch_scale(self):
        # V = V0: the remaining electric scale is the patch rms
        biased = jitter_force_floor("electrostatic", 0.155, 1e-6, 0.2e-9, _params(applied=5e-3))
        minimized = jitter_force_floor("electrostatic", 0.155, 1e-6, 0.2e-9, _params())
        assert minimized == biased

    def test_thermal_casimir_reference(self):
        value = jitter_force_floor("casimir_thermal", 0.155, 1e-6, 0.2e-9, _params())
        assert value == pytest.approx(3.858613387500158e-14, rel=1e-12)
        assert value == pytest.approx(0.038e-12, rel=0.05)

    def test_zero_jitter(self):
        assert jitter_force_floor("casimir_ideal", 0.155, 1e-6, 0.0, _params()) == 0.0

    def test_matches_central_difference_derivative(self):
        rng = np.random.default_rng(17)
        params = _params(applied=5e-3, n=1.7)
        models = {
            "electrostatic": lambda R, d: electrostatic_force_pfa(R, 5e-3, 0.0, d),
            "patch": lambda R, d: patch_force(R, d, 5e-3, 1.7),
            "casimir_thermal": lambda R, d: casimir_force_thermal(R, d, 300.0),
            "casimir_ideal": lambda R, d: casimir_force_ideal(R, d),
        }
        delta_d = 0.2e-9
        for _ in range(20):
            R = float(rng.uniform(0.05, 0.5))
            d = float(rng.uniform(0.5e-6, 8e-6))
            for name, func in models.items():
                h = 1e-6 * d
                slope = (func(R, d - h) - func(R, d + h)) / (2.0 * h)
                expected = abs(slope) * delta_d
                got = jitter_force_floor(name, R, d, delta_d, params)
                assert got == pytest.approx(expected, rel=1e-6), name

    def test_unknown_model(self):
        with pytest.raises(DomainError):
            jitter_force_floor("lifshitz", 0.155, 1e-6, 0.2e-9, _params())


class TestThermalReach:
    def test_reference_value(self):
        value = max_thermal_casimir_distance(0.155, 300.0, 3e-12)
        assert value == pytest.approx(5.6705477303785495e-06, rel=1e-12)
        assert value >= 5e-6

    def test_floor_scaling(self):
        assert max_thermal_casimir_distance(0.155, 300.0, 12e-12) == pytest.approx(
            max_thermal_casimir_distance(0.155, 300.0, 3e-12) / 2.0, rel=1e-12
        )

    def test_radius_scaling(self):
        assert max_thermal_casimir_distance(4 * 0.155, 300.0, 3e-12) == pytest.approx(
            2.0 * max_thermal_casimir_distance(0.155, 300.0, 3e-12), rel=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            max_thermal_casimir_distance(0.155, 300.0, 0.0)


class TestBuildReport:
    def test_default_report_orders_noise_floors(self):
        report = build_report(Scenario())
        assert report.delta_theta_swing < report.delta_theta_thermal < report.delta_theta_min
        assert report.thermal_below_detector
        assert report.swing_negligible

    def test_report_is_pure(self):
        a = build_report(Scenario())
        b = build_report(Scenario())
        assert a == b

    def test_thermal_reach_omitted_without_thermal_model(self):
        params = ForceModelParams(components=frozenset({"electrostatic", "patch"}))
        report = build_report(Scenario(forces=params))
        assert report.d_max_thermal is None
        assert set(report.jitter_force_floor) == {"electrostatic", "patch"}

    def test_reads_the_detector_floor_and_reference_distance(self):
        # run.delta_theta_min sets the force resolution; budget.reference_distance
        # sets where the jitter floors are evaluated, and nothing else
        base = build_report(Scenario())
        finer = build_report(Scenario(run=RunSchedule(delta_theta_min=0.2e-6)))
        assert finer.delta_theta_min == 0.2e-6
        assert finer.force_resolution == 2.0 * base.force_resolution
        assert finer.jitter_force_floor == base.jitter_force_floor
        far = build_report(Scenario(reference_distance=2e-6))
        assert far.reference_distance == 2e-6
        assert far.force_resolution == base.force_resolution
        # the thermal Casimir force goes as 1/d, so its floor 2 F/d * jitter as 1/d^2
        assert far.jitter_force_floor["casimir_thermal"] == pytest.approx(
            base.jitter_force_floor["casimir_thermal"] / 4.0, rel=1e-12)

    def test_temperature_rescaling(self):
        # sqrt for angle noises, linear for the thermal force floor
        r300 = build_report(Scenario(forces=ForceModelParams(temperature=300.0)))
        r200 = build_report(Scenario(forces=ForceModelParams(temperature=200.0)))
        scale = math.sqrt(200.0 / 300.0)
        assert r200.delta_theta_thermal == pytest.approx(
            r300.delta_theta_thermal * scale, rel=1e-12
        )
        assert r200.delta_theta_swing == pytest.approx(
            r300.delta_theta_swing * scale, rel=1e-12
        )
        assert r200.jitter_force_floor["casimir_thermal"] == pytest.approx(
            r300.jitter_force_floor["casimir_thermal"] * 200.0 / 300.0, rel=1e-12
        )
        assert r200.d_max_thermal == pytest.approx(
            r300.d_max_thermal * scale, rel=1e-12
        )

    def test_monotone_reach_in_radius(self):
        radii = [45e-6, 110e-6, 380e-6, 600e-6, 0.103, 0.155, 0.309, 1.545]
        reaches = []
        for r in radii:
            params = ForceModelParams(sphere=SphereSpec(r))
            reaches.append(build_report(Scenario(forces=params)).d_max_thermal)
        assert all(a < b for a, b in zip(reaches, reaches[1:]))
