"""Calibration pipeline tests: parabola/contact fits, decomposition,
fringe calibration, and simulator round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torsionlab import (
    DetectorSpec,
    ForceModelParams,
    InstrumentSpec,
    PidConfig,
    RunSchedule,
    Scenario,
    SphereSpec,
    VoltageState,
    calibrate_sweeps,
    casimir_force_ideal,
    contact_point_fit,
    decompose_residual,
    michelson_calibrate,
    parabola_fit,
    patch_force,
    run_electrostatic_calibration,
    synthetic_michelson_trace,
)
from torsionlab.calibration import (
    MichelsonTrace,
    VoltageSweep,
    michelson_trace_from_csv,
    sweeps_from_csv,
)
from torsionlab.errors import (
    DegenerateSweepError,
    DomainError,
    InfeasibleFitError,
    InsufficientDataError,
    InstabilityError,
    LowContrastWarning,
    NumericalError,
    SchemaError,
)

EPS0 = 8.8541878128e-12
BETA_TRUE = EPS0 * 1e-4 * 10.0 / 1e-3**2   # default actuator, equal arms
PREFACTOR_TRUE = math.pi * 0.155 * EPS0 / BETA_TRUE


def _sweep(d_r, func, volts):
    return VoltageSweep(d_r=d_r, samples=tuple((v, func(v)) for v in volts))


class TestParabolaFit:
    def test_exact_quadratic_recovery(self):
        volts = np.linspace(-1.0, 1.0, 7)
        fit = parabola_fit(_sweep(1e-6, lambda v: 2.0 * (v - 0.3) ** 2 + 5.0, volts))
        assert fit.v0 == pytest.approx(0.300, rel=1e-12)
        assert fit.curvature == pytest.approx(2.0, rel=1e-12)
        assert fit.offset == pytest.approx(5.0, rel=1e-12)
        assert fit.rms_residual < 1e-12

    def test_symmetric_data_gives_zero_vertex(self):
        volts = np.linspace(-0.5, 0.5, 9)
        fit = parabola_fit(_sweep(1e-6, lambda v: 3.0 * v * v + 1.0, volts))
        assert abs(fit.v0) < 1e-12

    def test_affine_equivariance_in_voltage(self):
        volts = np.linspace(-0.4, 0.6, 8)
        shift = 0.137
        base = parabola_fit(_sweep(1e-6, lambda v: 1.7 * (v - 0.1) ** 2 + 0.2, volts))
        moved = parabola_fit(
            _sweep(1e-6, lambda v: 1.7 * (v - shift - 0.1) ** 2 + 0.2, volts + shift)
        )
        assert moved.v0 == pytest.approx(base.v0 + shift, abs=1e-12)
        assert moved.curvature == pytest.approx(base.curvature, rel=1e-9)

    def test_degenerate_sweep_rejected(self):
        volts = np.linspace(-1.0, 1.0, 7)
        with pytest.raises(DegenerateSweepError):
            parabola_fit(_sweep(1e-6, lambda v: 0.5 * v + 2.0, volts))

    def test_covariance_is_symmetric_psd(self):
        rng = np.random.default_rng(0)
        volts = np.linspace(-1.0, 1.0, 15)
        fit = parabola_fit(
            _sweep(1e-6, lambda v: 2.0 * (v - 0.3) ** 2 + 5.0 + rng.normal(0, 1e-3), volts)
        )
        cov = fit.covariance
        assert np.allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) > -1e-18)

    def test_too_few_voltages_rejected(self):
        with pytest.raises(DomainError):
            VoltageSweep(d_r=1e-6, samples=((0.0, 1.0), (0.1, 2.0), (0.2, 3.0)))


class TestContactPointFit:
    D0 = 10e-6
    D_R = np.array([1.0, 2.3, 4.0, 5.5, 7.0, 8.5]) * 1e-6

    def _curvatures(self, c=PREFACTOR_TRUE):
        return c / (self.D0 - self.D_R)

    def test_noiseless_recovery_within_nanometer(self):
        d0, c = contact_point_fit(list(zip(self.D_R, self._curvatures())))
        assert abs(d0 - self.D0) < 1e-9
        assert c == pytest.approx(PREFACTOR_TRUE, rel=1e-9)

    def test_scale_equivariance(self):
        pts = list(zip(self.D_R, self._curvatures()))
        d0a, ca = contact_point_fit(pts)
        d0b, cb = contact_point_fit([(dr, 2.0 * k) for dr, k in pts])
        assert d0b == pytest.approx(d0a, abs=1e-15)
        assert cb == pytest.approx(2.0 * ca, rel=1e-12)

    def test_translation_equivariance(self):
        shift = 3.7e-6
        pts = list(zip(self.D_R, self._curvatures()))
        d0a, _ = contact_point_fit(pts)
        d0b, _ = contact_point_fit([(dr + shift, k) for dr, k in pts])
        assert d0b - d0a == pytest.approx(shift, rel=1e-9)

    def test_too_few_points(self):
        pts = list(zip(self.D_R, self._curvatures()))[:3]
        with pytest.raises(InsufficientDataError):
            contact_point_fit(pts)

    def test_narrow_span_rejected(self):
        d_r = np.array([1.0, 1.2, 1.4, 1.6]) * 1e-6
        k = PREFACTOR_TRUE / (self.D0 - d_r)
        with pytest.raises(InsufficientDataError, match="span"):
            contact_point_fit(list(zip(d_r, k)))

    def test_mixed_sign_curvatures_rejected(self):
        pts = list(zip(self.D_R, self._curvatures()))
        pts[2] = (pts[2][0], -pts[2][1])
        with pytest.raises(InfeasibleFitError):
            contact_point_fit(pts)

    def test_with_noise_stays_within_nanometers(self):
        rng = np.random.default_rng(8)
        k = self._curvatures() * (1.0 + 1e-4 * rng.normal(size=len(self.D_R)))
        d0, c = contact_point_fit(list(zip(self.D_R, k)))
        assert abs(d0 - self.D0) < 5e-9
        assert c == pytest.approx(PREFACTOR_TRUE, rel=1e-3)


class TestCalibrateSweeps:
    def test_failed_position_is_flagged_and_rest_proceed(self):
        volts = np.linspace(-0.1, 0.1, 7)
        d0 = 10e-6
        sweeps = []
        for d_r in (1e-6, 2.5e-6, 4e-6, 6e-6, 8e-6):
            a = PREFACTOR_TRUE / (d0 - d_r)
            sweeps.append(_sweep(d_r, lambda v, a=a: a * v * v, volts))
        sweeps.append(_sweep(9e-6, lambda v: 0.5, volts))  # flat: no curvature
        result = calibrate_sweeps(sweeps, 0.155)
        assert sum(p.failed for p in result.positions) == 1
        failed = [p for p in result.positions if p.failed][0]
        assert failed.d_r == 9e-6
        assert "curvature" in failed.error
        assert result.d0 == pytest.approx(d0, abs=1e-9)
        assert result.beta == pytest.approx(BETA_TRUE, rel=1e-9)


IDEAL_INSTRUMENT = InstrumentSpec(detector=DetectorSpec(sensitivity=0.5, quantization=0.0))
QUANTIZED_INSTRUMENT = InstrumentSpec(detector=DetectorSpec(sensitivity=0.5, quantization=0.1))
PID = PidConfig()


def _calibration(forces, positions, voltages, **run):
    """run_electrostatic_calibration on the ideal instrument, contact at 10 um."""
    return run_electrostatic_calibration(Scenario(
        instrument=IDEAL_INSTRUMENT, pid=PID, forces=forces, seed=0,
        run=RunSchedule(contact_offset=10e-6, positions=tuple(positions),
                        voltages=tuple(voltages), **run)))


def _forces(v0=0.02, slope=0.0):
    return ForceModelParams(
        sphere=SphereSpec(0.155),
        voltages=VoltageState(minimizing=v0, patch_rms=0.0),
        components=frozenset({"electrostatic"}),
        v0_log_slope=slope,
    )


class TestSimulatedCalibration:
    def test_single_position_sweep_recovers_v0_through_quantization(self):
        # end-to-end parabola at d = 5 um with a 0.1 mV detector step
        from torsionlab import run_null_measurement

        v0_true = 0.02
        volts = np.linspace(v0_true - 0.2, v0_true + 0.2, 7)
        samples = []
        for j, v in enumerate(volts):
            forces = _forces(v0=v0_true)
            forces = ForceModelParams(
                sphere=forces.sphere,
                voltages=VoltageState(applied=float(v), minimizing=v0_true, patch_rms=0.0),
                components=forces.components,
            )
            result = run_null_measurement(
                Scenario(instrument=QUANTIZED_INSTRUMENT, pid=PID, forces=forces, seed=j,
                         run=RunSchedule(dt=0.05, duration=240.0, contact_offset=10e-6,
                                         position=5e-6)),
                check_stability=(j == 0),
            )
            samples.append((float(v), result.steady_delta_v))
        fit = parabola_fit(VoltageSweep(d_r=5e-6, samples=tuple(samples)))
        assert abs(fit.v0 - v0_true) < 0.5e-3

    def test_noiseless_pipeline_round_trip(self):
        positions = [1e-6, 3.25e-6, 5.5e-6, 7e-6, 8e-6]
        volts = np.linspace(-0.08, 0.12, 7)
        result = _calibration(_forces(v0=0.02), positions, volts, duration=200.0, dt=0.05)
        assert result.d0 == pytest.approx(10e-6, rel=1e-3)
        assert result.beta == pytest.approx(BETA_TRUE, rel=1e-3)
        for d, v0 in result.v0_profile:
            assert abs(v0 - 0.02) < 0.1e-3

    def test_distance_dependent_cpd_recovered(self):
        positions = [2e-6, 4e-6, 6e-6, 7.5e-6, 8.5e-6]
        volts = np.linspace(-0.08, 0.12, 7)
        slope = 5e-3
        result = _calibration(_forces(v0=0.02, slope=slope), positions, volts,
                              duration=200.0, dt=0.05)
        for d_r in positions:
            d_true = 10e-6 - d_r
            injected = 0.02 + slope * math.log10(d_true / 1e-6)
            d_fit = min(result.v0_profile, key=lambda row: abs(row[0] - d_true))
            assert abs(d_fit[1] - injected) < 1e-3

    def test_diverging_run_is_named_by_position_and_voltage(self):
        # 10 V pulls ~1e-4 N, far beyond the ~88 nN the feedback plates can
        # null; the run at the closest gap crosses 1 rad first.
        with pytest.raises(
            InstabilityError,
            match=r"in the run at d_r = 7e-06 m, V = 10 V with gains kp=0\.5, ki=0\.08",
        ):
            _calibration(_forces(), [1e-6, 3e-6, 5e-6, 7e-6], [-0.1, 0.0, 0.1, 0.2, 10.0],
                         duration=60.0, dt=0.05)

    def test_two_positions_insufficient(self):
        with pytest.raises(InsufficientDataError):
            _calibration(_forces(), [2e-6, 4e-6], np.linspace(-0.1, 0.1, 7),
                         duration=120.0, dt=0.05)

    def test_positions_must_increase_toward_contact(self):
        with pytest.raises(DomainError):
            _calibration(_forces(), [4e-6, 2e-6, 6e-6, 8e-6], np.linspace(-0.1, 0.1, 7))

    def test_no_voltages_is_refused_by_name(self, monkeypatch):
        # refused before the stability pre-check or any step
        def forbidden(*args, **kwargs):
            raise AssertionError("the loop ran")
        monkeypatch.setattr("torsionlab.calibration._closed_loop", forbidden)
        with pytest.raises(DomainError, match="run.voltages"):
            _calibration(_forces(), [2e-6, 4e-6, 6e-6], [])


class TestDecomposeResidual:
    D = np.geomspace(1e-6, 10e-6, 12)

    def test_single_power_law_recovered_exactly(self):
        c2 = 3.3e-22
        fit = decompose_residual([(d, c2 / d**2) for d in self.D])
        assert fit.c2 == pytest.approx(c2, rel=1e-12)
        # off components vanish relative to the active one at 1 um scale
        assert abs(fit.c1) / (c2 / 1e-6) < 1e-10
        assert abs(fit.c3) * (1.0 / 1e-6) / c2 < 1e-10

    def test_linearity_in_amplitude(self):
        pts = [(d, 1e-16 / d + 4e-28 / d**3) for d in self.D]
        a = decompose_residual(pts)
        b = decompose_residual([(d, 10.0 * f) for d, f in pts])
        assert b.c1 == pytest.approx(10.0 * a.c1, rel=1e-10)
        assert b.c3 == pytest.approx(10.0 * a.c3, rel=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(4)
        d = np.geomspace(1e-6, 9e-6, 10)
        f = 1.1e-16 / d + 2e-22 / d**2 + 4.2e-28 / d**3
        f = f * (1.0 + 0.01 * rng.normal(size=len(d)))
        fit = decompose_residual(list(zip(d, f)))
        X = np.column_stack([1.0 / d, 1.0 / d**2, 1.0 / d**3])
        oracle = np.linalg.solve(X.T @ X, X.T @ f)
        assert fit.c1 == pytest.approx(oracle[0], rel=1e-10)
        assert fit.c2 == pytest.approx(oracle[1], rel=1e-10)
        assert fit.c3 == pytest.approx(oracle[2], rel=1e-10)

    def test_monte_carlo_casimir_plus_patch(self):
        c1_true = patch_force(0.155, 1e-6, 5e-3, 1.0) * 1e-6
        c3_true = casimir_force_ideal(0.155, 1e-6) * (1e-6) ** 3
        d = np.geomspace(1e-6, 10e-6, 25)
        clean = c1_true / d + c3_true / d**3
        err1, err3, c2_pull = [], [], []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            f = clean * (1.0 + 0.01 * rng.normal(size=len(d)))
            fit = decompose_residual(list(zip(d, f)))
            err1.append(abs(fit.c1 / c1_true - 1.0))
            err3.append(abs(fit.c3 / c3_true - 1.0))
            c2_pull.append(abs(fit.c2) / fit.uncertainties[1])
        assert np.median(err1) <= 0.05
        assert np.median(err3) <= 0.05
        assert np.median(c2_pull) <= 2.0   # 1/d^2 term consistent with zero

    def test_nonnegative_option(self):
        d = np.geomspace(1e-6, 10e-6, 12)
        f = 1e-16 / d - 5e-23 / d**2
        fit = decompose_residual(list(zip(d, f)), nonnegative=True)
        assert fit.c1 >= 0 and fit.c2 >= 0 and fit.c3 >= 0
        assert fit.c2 == 0.0

    @settings(max_examples=200, deadline=None)
    @given(span=st.floats(5.0, 20.0), amplitudes=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
           noise=st.lists(st.floats(-0.2, 0.2), min_size=12, max_size=12))
    def test_nonnegative_fit_meets_the_optimality_conditions(self, span, amplitudes, noise):
        # Karush-Kuhn-Tucker conditions in the column-scaled basis: c >= 0, and the
        # gradient X^T (y - X c) is <= 0 where c = 0 and 0 where c > 0
        d = np.geomspace(1e-6, span * 1e-6, 12)
        X = np.column_stack([1.0 / d, 1.0 / d**2, 1.0 / d**3])
        y = X @ (np.array(amplitudes) * [1e-16, 1e-22, 1e-28]) + np.array(noise) * 1e-10
        fit = decompose_residual(list(zip(d, y)), nonnegative=True)
        scale = np.linalg.norm(X, axis=0)
        c = np.array(fit.coefficients) * scale
        gradient = (X / scale).T @ (y - X @ np.array(fit.coefficients))
        tol = 1e-9 * np.linalg.norm(y)
        assert np.all(c >= 0)
        assert np.all(gradient[c == 0] <= tol)
        assert np.all(np.abs(gradient[c > 0]) <= tol)

    def test_narrow_span_rejected(self):
        d = np.linspace(1e-6, 2e-6, 8)
        with pytest.raises(InsufficientDataError):
            decompose_residual([(x, 1e-16 / x) for x in d])

    def test_rank_deficient_basis_rejected(self):
        d = np.array([1e-6, 1e-6, 1e-6, 6e-6, 6e-6, 6e-6])
        with pytest.raises(NumericalError, match="condition"):
            decompose_residual([(x, 1e-16 / x) for x in d])

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            decompose_residual([(1e-6, 1.0), (2e-6, 0.5), (6e-6, 0.1)])


class TestMichelson:
    def test_six_fringe_recovery(self):
        trace = synthetic_michelson_trace(gain=100e-9, visibility=0.95, n_fringes=6.0)
        fit = michelson_calibrate(trace)
        assert fit.gain == pytest.approx(100e-9, rel=1e-3)
        assert fit.gain == pytest.approx(100e-9, rel=1e-9)
        assert fit.visibility == pytest.approx(0.95, abs=1e-6)
        assert fit.n_fringes == pytest.approx(6.0, rel=1e-6)
        assert not fit.low_contrast

    @pytest.mark.parametrize("n_fringes", [2.5, 4.5, 6.5, 9.5])
    def test_half_integer_fringe_counts(self, n_fringes):
        # a fit started from guessed visibility and phase read 157.96, 132.04,
        # 122.12 and 115.10 nm/V here
        trace = synthetic_michelson_trace(gain=100e-9, visibility=0.95, n_fringes=n_fringes)
        fit = michelson_calibrate(trace)
        assert fit.gain == pytest.approx(100e-9, rel=1e-6)
        assert fit.visibility == pytest.approx(0.95, abs=1e-6)

    def test_outputs_are_plain_python_values(self):
        # json cannot write a numpy bool
        trace = synthetic_michelson_trace(gain=100e-9, visibility=0.05, noise_rms=5.0)
        with pytest.warns(LowContrastWarning):
            fit = michelson_calibrate(trace)
        assert type(fit.low_contrast) is bool
        assert all(type(getattr(fit, name)) is float for name in (
            "gain", "visibility", "phase", "mean_intensity", "rms_residual", "n_fringes"))

    def test_gain_sign_convention_positive(self):
        trace = synthetic_michelson_trace(gain=100e-9, phase=2.5, n_fringes=4.0)
        fit = michelson_calibrate(trace)
        assert fit.gain > 0

    def test_fringe_period_maps_to_half_wavelength(self):
        # one fringe per 3.164 V with lambda = 632.8 nm: exactly 100 nm/V
        period = 3.164
        gain_true = (632.8e-9 / 2.0) / period
        trace = synthetic_michelson_trace(gain=gain_true, n_fringes=5.0)
        fit = michelson_calibrate(trace)
        assert fit.gain == pytest.approx(gain_true, rel=1e-9)
        assert fit.gain == pytest.approx(100e-9, rel=1e-9)

    def test_visibility_recovery_with_noise(self):
        trace = synthetic_michelson_trace(
            gain=100e-9, visibility=0.92, n_fringes=6.0, noise_rms=5.0, seed=2
        )
        fit = michelson_calibrate(trace)
        assert abs(fit.visibility - 0.92) < 0.01
        assert fit.gain == pytest.approx(100e-9, rel=1e-3)

    def test_constant_intensity_rejected(self):
        trace = MichelsonTrace(np.linspace(0, 10, 200), np.full(200, 500.0))
        with pytest.raises(InsufficientDataError):
            michelson_calibrate(trace)

    def test_single_fringe_rejected(self):
        trace = synthetic_michelson_trace(gain=100e-9, n_fringes=1.0)
        with pytest.raises(InsufficientDataError, match="fringe"):
            michelson_calibrate(trace)

    def test_low_contrast_warns(self):
        trace = synthetic_michelson_trace(gain=100e-9, visibility=0.05, n_fringes=6.0)
        with pytest.warns(LowContrastWarning):
            fit = michelson_calibrate(trace)
        assert fit.low_contrast


class TestCsvIngestion:
    def test_sweep_round_trip(self, tmp_path):
        path = tmp_path / "sweeps.csv"
        lines = ["d_r_m,V_V,deltaV_V"]
        for d_r in (1e-6, 2e-6):
            for v in np.linspace(-0.1, 0.1, 6):
                lines.append(f"{d_r},{v},{3.0 * v * v}")
        path.write_text("\n".join(lines) + "\n")
        sweeps = sweeps_from_csv(path)
        assert [s.d_r for s in sweeps] == [1e-6, 2e-6]
        assert len(sweeps[0].samples) == 6

    def test_wrong_header_names_expected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("V_V,d_r_m,deltaV_V\n0,0,0\n")
        with pytest.raises(SchemaError, match="d_r_m,V_V,deltaV_V"):
            sweeps_from_csv(path)

    def test_michelson_csv(self, tmp_path):
        trace = synthetic_michelson_trace(gain=100e-9, n_fringes=4.0, n_points=80)
        path = tmp_path / "trace.csv"
        lines = ["pzt_V,intensity"] + [
            f"{v},{i}" for v, i in zip(trace.pzt_volts, trace.intensity)
        ]
        path.write_text("\n".join(lines) + "\n")
        loaded = michelson_trace_from_csv(path)
        fit = michelson_calibrate(loaded)
        assert fit.gain == pytest.approx(100e-9, rel=1e-6)
