"""Electrostatic calibration, residual-force decomposition, and PZT
fringe calibration.

The electrostatic calibration mirrors the measurement procedure: sweep the
applied voltage at each actuator position, fit the settled readout as a
parabola in voltage, then fit the parabola curvatures against position
as c / (d0 - d_r) to locate the contact point d0 and the volts-to-force
conversion beta = pi * eps0 * R / c.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .constants import CONSTANTS
from .control import _closed_loop, _Run
from .errors import (
    ConvergenceError,
    DegenerateSweepError,
    DomainError,
    InfeasibleFitError,
    InsufficientDataError,
    LowContrastWarning,
    NumericalError,
    SchemaError,
)
from .instrument import GapState

__all__ = [
    "VoltageSweep",
    "ParabolaFit",
    "PositionCalibration",
    "CalibrationResult",
    "ResidualDecomposition",
    "MichelsonTrace",
    "MichelsonCalibration",
    "parabola_fit",
    "contact_point_fit",
    "calibrate_sweeps",
    "run_electrostatic_calibration",
    "decompose_residual",
    "michelson_calibrate",
    "synthetic_michelson_trace",
    "sweeps_from_csv",
    "michelson_trace_from_csv",
    "SWEEP_CSV_HEADER",
    "MICHELSON_CSV_HEADER",
]

SWEEP_CSV_HEADER = ("d_r_m", "V_V", "deltaV_V")
MICHELSON_CSV_HEADER = ("pzt_V", "intensity")


@dataclass(frozen=True)
class VoltageSweep:
    """Readout vs applied voltage at one actuator position."""

    d_r: float                               # m
    samples: tuple                           # of (V, steady delta_v)

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple((float(v), float(y)) for v, y in self.samples))
        volts = {v for v, _ in self.samples}
        if len(volts) < 5:
            raise DomainError(
                f"sweep at d_r = {self.d_r:.3g} m needs >= 5 distinct voltages, "
                f"got {len(volts)}"
            )
        if max(volts) - min(volts) <= 0:
            raise DomainError("voltage sweep has zero spread")


@dataclass(frozen=True)
class ParabolaFit:
    """Least-squares parabola delta_v = k (V - V0)^2 + offset."""

    v0: float                                # V
    curvature: float                         # output volts per V^2
    offset: float                            # V
    covariance: np.ndarray                   # 3x3, in (a, b, c) basis
    rms_residual: float                      # V


def parabola_fit(sweep: VoltageSweep) -> ParabolaFit:
    """Fit delta_v = a V^2 + b V + c and convert to vertex form.

    Exact on noiseless quadratic data. Raises DegenerateSweepError when
    the quadratic contribution over the sweep is negligible relative to
    the data spread (no usable curvature signal).
    """
    v = np.array([s[0] for s in sweep.samples])
    y = np.array([s[1] for s in sweep.samples])
    X = np.column_stack([v**2, v, np.ones_like(v)])
    coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    a, b, c = (float(x) for x in coef)
    resid = y - X @ coef
    quad_span = abs(a) * (v.max() - v.min()) ** 2 / 4.0
    data_span = float(y.max() - y.min())
    if quad_span <= 0.0 or data_span <= 0.0 or quad_span < 1e-9 * data_span:
        raise DegenerateSweepError(
            f"sweep at d_r = {sweep.d_r:.3g} m has no significant curvature "
            f"(|a| = {abs(a):.3g} V^-1)"
        )
    dof = len(y) - 3
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    cov = sigma2 * np.linalg.inv(X.T @ X)
    return ParabolaFit(
        v0=-b / (2.0 * a),
        curvature=a,
        offset=c - b * b / (4.0 * a),
        covariance=cov,
        rms_residual=float(np.sqrt(np.mean(resid**2))),
    )


def contact_point_fit(points) -> tuple[float, float]:
    """Fit curvature k = c / (d0 - d_r) and return (d0, c).

    Gauss-Newton with backtracking line search, started from the exact
    linearization of 1/k vs d_r; converged when the relative step drops
    below 1e-12, with a hard cap of 100 iterations.
    """
    pts = [(float(dr), float(k)) for dr, k in points]
    if len(pts) < 4:
        raise InsufficientDataError(
            f"contact-point fit needs >= 4 positions, got {len(pts)}"
        )
    d_r = np.array([p[0] for p in pts])
    k_obs = np.array([p[1] for p in pts])
    if np.any(k_obs == 0) or len(set(np.sign(k_obs))) != 1:
        raise InfeasibleFitError("sweep curvatures must share one sign and be nonzero")
    sign = math.copysign(1.0, k_obs[0])
    k_use = sign * k_obs

    # Linearized start: 1/k = d0/c - d_r/c.
    A = np.column_stack([np.ones_like(d_r), -d_r])
    sol, _, _, _ = np.linalg.lstsq(A, 1.0 / k_use, rcond=None)
    if sol[1] == 0.0:
        raise InfeasibleFitError("curvatures do not vary with position")
    c0 = 1.0 / float(sol[1])
    x = np.array([float(sol[0]) * c0, c0])

    def residuals(p):
        return p[1] / (p[0] - d_r) - k_use

    trace = []
    converged = False
    for it in range(100):
        gaps = x[0] - d_r
        if np.any(gaps <= 0):
            raise InfeasibleFitError(
                f"iterate places contact point d0 = {x[0]:.4g} m inside the data"
            )
        r = residuals(x)
        rss = float(r @ r)
        trace.append((it, float(x[0]), float(x[1]), rss))
        J = np.column_stack([-x[1] / gaps**2, 1.0 / gaps])
        gn_step, _, _, _ = np.linalg.lstsq(J, -r, rcond=None)
        t = 1.0
        while t > 1e-14:
            cand = x + t * gn_step
            if np.all(cand[0] - d_r > 0) and float(residuals(cand) @ residuals(cand)) <= rss:
                break
            t *= 0.5
        else:
            converged = True  # no descent direction left: at a minimum
            break
        rel_step = float(np.max(np.abs(t * gn_step) / np.maximum(np.abs(x), 1e-300)))
        x = x + t * gn_step
        if rel_step < 1e-12:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            "contact-point fit did not converge in 100 iterations", trace=trace
        )

    d0, c = float(x[0]), sign * float(x[1])
    if d0 <= float(d_r.max()):
        raise InfeasibleFitError(
            f"fitted contact point d0 = {d0:.4g} m does not exceed the closest "
            f"position {d_r.max():.4g} m"
        )
    gaps = d0 - d_r
    if float(gaps.max() / gaps.min()) < 3.0:
        raise InsufficientDataError(
            f"positions span only a factor {gaps.max() / gaps.min():.2f} in "
            "(d0 - d_r); need >= 3 for a reliable contact-point fit"
        )
    return d0, c


@dataclass(frozen=True)
class PositionCalibration:
    """Outcome of one position's voltage sweep."""

    d_r: float
    fit: ParabolaFit | None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.fit is None


@dataclass
class CalibrationResult:
    """Recovered contact point, force conversion, and CPD profile."""

    d0: float                                 # m
    beta: float                               # N/V
    prefactor: float                          # curvature * gap, V m / V^2
    v0_profile: list                          # of (d, V0), sorted by d
    positions: list                           # of PositionCalibration
    sphere_radius: float


def calibrate_sweeps(sweeps, sphere_radius: float) -> CalibrationResult:
    """Full analysis of a set of voltage sweeps.

    Per-position parabola fits that fail are retained with their error
    message; the contact-point fit runs on the surviving positions.
    """
    if sphere_radius <= 0:
        raise DomainError("sphere radius must be positive")
    positions: list[PositionCalibration] = []
    for sweep in sweeps:
        try:
            positions.append(PositionCalibration(sweep.d_r, parabola_fit(sweep)))
        except (NumericalError, DomainError) as exc:
            positions.append(PositionCalibration(sweep.d_r, None, error=str(exc)))
    good = [p for p in positions if not p.failed]
    if len(good) < 4:
        raise InsufficientDataError(
            f"only {len(good)} of {len(positions)} sweeps usable; "
            "need >= 4 for the contact-point fit"
        )
    d0, c = contact_point_fit([(p.d_r, p.fit.curvature) for p in good])
    beta = math.pi * CONSTANTS.eps0 * sphere_radius / c
    if beta <= 0:
        raise InfeasibleFitError(f"calibration factor beta = {beta:.3g} N/V not positive")
    profile = sorted((d0 - p.d_r, p.fit.v0) for p in good)
    return CalibrationResult(
        d0=d0,
        beta=beta,
        prefactor=c,
        v0_profile=profile,
        positions=positions,
        sphere_radius=sphere_radius,
    )


def run_electrostatic_calibration(scenario) -> CalibrationResult:
    """Simulate the scenario's voltage sweeps at each position and analyze them.

    ``run.positions`` are actuator coordinates d_r, strictly increasing
    toward contact, and ``run.voltages`` is the shared list of values of
    ``forces.applied_voltage``; the contact point is ``run.contact_offset``.
    The loop's stability is verified once up front, then the whole position
    x voltage grid runs as one batch of closed loops. With thermal noise or
    PZT jitter each run draws from its own random stream, seeded from
    (seed, position index, voltage index), so its readout equals that of
    the same run alone; a noiseless grid builds no stream.
    """
    run, forces, contact_offset = scenario.run, scenario.forces, scenario.run.contact_offset
    positions = [float(p) for p in run.positions]
    voltages = [float(v) for v in run.voltages]
    if len(positions) < 2:
        raise DomainError(f"run.positions needs at least two positions, got {len(positions)}")
    if not voltages:
        raise DomainError("run.voltages needs at least one voltage, got none")
    if any(b <= a for a, b in zip(positions, positions[1:])):
        raise DomainError("run.positions must be strictly increasing toward contact")
    if "electrostatic" not in forces.components:
        raise DomainError("forces.components must enable electrostatic for calibration")
    for d_r in positions:
        if contact_offset - d_r <= 0:
            raise DomainError(
                f"run.positions: position d_r = {d_r:.3g} m is at or beyond contact "
                f"(run.contact_offset = {contact_offset:.3g} m)"
            )

    runs = [
        _Run(
            forces=replace(forces, voltages=replace(forces.voltages, applied=v)),
            gap=GapState(contact_offset, d_r),
            seed=[scenario.seed, i, j],
            label=f"d_r = {d_r:.4g} m, V = {v:.4g} V",
        )
        for i, d_r in enumerate(positions)
        for j, v in enumerate(voltages)
    ]
    _, settled = _closed_loop(scenario, runs)
    steady = [readout for readout, _, _ in settled]
    n_v = len(voltages)
    sweeps = [
        VoltageSweep(d_r=d_r, samples=tuple(zip(voltages, steady[i * n_v:(i + 1) * n_v])))
        for i, d_r in enumerate(positions)
    ]
    return calibrate_sweeps(sweeps, forces.sphere.radius)


@dataclass(frozen=True)
class ResidualDecomposition:
    """Power-law split F(d) = C1/d + C2/d^2 + C3/d^3."""

    c1: float                                 # N m
    c2: float                                 # N m^2
    c3: float                                 # N m^3
    uncertainties: tuple                      # 1-sigma per coefficient
    covariance: np.ndarray                    # 3x3
    condition_number: float
    rss: float
    single_term_rss: dict                     # residual sum per 1-term model

    @property
    def coefficients(self) -> tuple:
        return (self.c1, self.c2, self.c3)


def decompose_residual(points, *, nonnegative: bool = False, weights=None) -> ResidualDecomposition:
    """Linear least squares of residual force onto {1/d, 1/d^2, 1/d^3}.

    ``weights`` (optional, per point) multiply the rows; pass 1/F for
    relative weighting of multiplicative noise. With ``nonnegative`` the
    coefficients are constrained to >= 0.
    """
    pts = [(float(d), float(f)) for d, f in points]
    if len(pts) < 6:
        raise InsufficientDataError(f"need >= 6 points, got {len(pts)}")
    d = np.array([p[0] for p in pts])
    f_obs = np.array([p[1] for p in pts])
    if np.any(d <= 0):
        raise DomainError("distances must be positive")
    if d.max() / d.min() < 5.0:
        raise InsufficientDataError(
            f"distances span only a factor {d.max() / d.min():.2f}; need >= 5"
        )
    X = np.column_stack([1.0 / d, 1.0 / d**2, 1.0 / d**3])
    w = np.ones_like(f_obs) if weights is None else np.asarray(weights, dtype=float)
    Xw = X * w[:, None]
    yw = f_obs * w
    scale = np.linalg.norm(Xw, axis=0)
    Xs = Xw / scale
    cond = float(np.linalg.cond(Xs))
    if cond > 1e12:
        raise NumericalError(
            f"basis condition number {cond:.3g} > 1e12 after column scaling; "
            "widen the distance span"
        )
    if nonnegative:
        from scipy.optimize import nnls
        coef_s, _ = nnls(Xs, yw)
    else:
        coef_s, _, _, _ = np.linalg.lstsq(Xs, yw, rcond=None)
    coef = coef_s / scale
    resid = yw - Xs @ coef_s
    dof = len(d) - 3
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    cov_s = sigma2 * np.linalg.inv(Xs.T @ Xs)
    cov = cov_s / np.outer(scale, scale)
    single = {}
    for name, col in zip(("1/d", "1/d^2", "1/d^3"), Xs.T):
        amp = float(col @ yw) / float(col @ col)
        single[name] = float(np.sum((yw - amp * col) ** 2))
    return ResidualDecomposition(
        c1=float(coef[0]),
        c2=float(coef[1]),
        c3=float(coef[2]),
        uncertainties=tuple(float(x) for x in np.sqrt(np.diag(cov))),
        covariance=cov,
        condition_number=cond,
        rss=float(resid @ resid),
        single_term_rss=single,
    )


@dataclass(frozen=True)
class MichelsonTrace:
    """Interferometer intensity vs PZT drive voltage."""

    pzt_volts: np.ndarray
    intensity: np.ndarray
    wavelength: float = 632.8e-9              # He-Ne
    visibility: float | None = None           # nominal, when known

    def __post_init__(self) -> None:
        object.__setattr__(self, "pzt_volts", np.asarray(self.pzt_volts, dtype=float))
        object.__setattr__(self, "intensity", np.asarray(self.intensity, dtype=float))
        if self.pzt_volts.shape != self.intensity.shape or self.pzt_volts.ndim != 1:
            raise DomainError("trace voltage and intensity arrays must be 1-D and equal length")
        if len(self.pzt_volts) < 16:
            raise InsufficientDataError("trace needs at least 16 samples")
        if not 0 < self.wavelength < math.inf:
            raise DomainError("wavelength must be positive and finite")
        if self.visibility is not None and not 0.0 < self.visibility <= 1.0:
            raise DomainError("nominal visibility must lie in (0, 1]")


@dataclass(frozen=True)
class MichelsonCalibration:
    """Fitted PZT gain and fringe quality."""

    gain: float                               # m per volt, positive by convention
    visibility: float
    phase: float                              # rad
    mean_intensity: float
    rms_residual: float
    n_fringes: float
    low_contrast: bool


def synthetic_michelson_trace(
    gain: float = 100e-9,
    visibility: float = 0.95,
    n_fringes: float = 6.0,
    n_points: int = 600,
    wavelength: float = 632.8e-9,
    mean_intensity: float = 1000.0,
    phase: float = 0.0,
    noise_rms: float = 0.0,
    seed: int = 0,
) -> MichelsonTrace:
    """Generate an ideal-interferometer trace covering ``n_fringes``."""
    if not all(0 < x < math.inf for x in (gain, n_fringes, wavelength)):
        raise DomainError("gain, fringe count and wavelength must be positive and finite")
    if not 0 <= noise_rms < math.inf:
        raise DomainError(f"intensity noise rms must be finite and not negative, "
                          f"got {noise_rms:g}")
    span = n_fringes * (wavelength / 2.0) / gain
    v = np.linspace(0.0, span, n_points)
    intensity = mean_intensity * (
        1.0 + visibility * np.cos(4.0 * math.pi * gain * v / wavelength + phase)
    )
    if noise_rms > 0:
        intensity = intensity + np.random.default_rng(seed).normal(
            0.0, noise_rms, size=n_points
        )
    return MichelsonTrace(v, intensity, wavelength=wavelength, visibility=visibility)


def michelson_calibrate(trace: MichelsonTrace) -> MichelsonCalibration:
    """Recover the PZT volts-to-meters gain from fringe periodicity.

    One fringe corresponds to a displacement of lambda/2. The fringe
    frequency is seeded from the discrete spectrum's dominant peak and
    refined with a full nonlinear fit of

        I(V) = I0 * (1 + visibility * cos(4 pi gain V / lambda + phase)).
    """
    v = trace.pzt_volts
    y = trace.intensity
    order = np.argsort(v)
    v, y = v[order], y[order]
    span = float(v[-1] - v[0])
    if span <= 0:
        raise InsufficientDataError("trace does not span a voltage range")
    y_ac = y - np.mean(y)
    if float(np.max(y) - np.min(y)) <= 1e-12 * max(abs(float(np.mean(y))), 1.0):
        raise InsufficientDataError("intensity is constant; no fringes to fit")
    spectrum = np.abs(np.fft.rfft(y_ac))
    k_peak = int(np.argmax(spectrum[1:])) + 1  # cycles across the record
    if k_peak < 2:
        raise InsufficientDataError(
            f"only {k_peak} fringe(s) covered; need at least 2 for a period fit"
        )
    gain0 = k_peak * (trace.wavelength / 2.0) / span

    def model(volts, i0, vis, gain, phase):
        return i0 * (1.0 + vis * np.cos(4.0 * math.pi * gain * volts / trace.wavelength + phase))

    p0 = [float(np.mean(y)), 0.5, gain0, 0.0]
    from scipy.optimize import OptimizeWarning, curve_fit
    with warnings.catch_warnings():
        # noiseless traces fit exactly; the singular covariance is irrelevant
        warnings.simplefilter("ignore", OptimizeWarning)
        popt, _ = curve_fit(model, v, y, p0=p0, maxfev=20000)
    i0, vis, gain, phase = (float(x) for x in popt)
    if gain < 0:  # cos is even: fold the sign into the phase convention
        gain, phase = -gain, -phase
    if vis < 0:
        vis, phase = -vis, phase + math.pi
    phase = math.remainder(phase, 2.0 * math.pi)
    resid = y - model(v, i0, vis, gain, phase)
    n_fringes = span * gain / (trace.wavelength / 2.0)
    low = vis < 0.1
    if low:
        warnings.warn(
            f"fringe visibility {vis:.3f} < 0.1; gain estimate unreliable",
            LowContrastWarning,
            stacklevel=2,
        )
    return MichelsonCalibration(
        gain=gain,
        visibility=vis,
        phase=phase,
        mean_intensity=i0,
        rms_residual=float(np.sqrt(np.mean(resid**2))),
        n_fringes=float(n_fringes),
        low_contrast=low,
    )


def _read_csv_rows(path, expected_header) -> list:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh.readlines())
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file; expected header "
                          f"{','.join(expected_header)}") from None
    if tuple(h.strip() for h in header) != expected_header:
        raise SchemaError(
            f"{path}: header {','.join(header)!r} does not match expected "
            f"{','.join(expected_header)!r}"
        )
    rows = []
    for ln, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(expected_header):
            raise SchemaError(f"{path}:{ln}: expected {len(expected_header)} columns")
        try:
            values = tuple(float(cell) for cell in row)
        except ValueError as exc:
            raise SchemaError(f"{path}:{ln}: {exc}") from None
        if not all(map(math.isfinite, values)):
            raise SchemaError(f"{path}:{ln}: {','.join(row)!r} holds a non-finite number")
        rows.append(values)
    return rows


def sweeps_from_csv(path) -> list:
    """Load voltage sweeps from a (d_r_m, V_V, deltaV_V) CSV file."""
    rows = _read_csv_rows(path, SWEEP_CSV_HEADER)
    grouped: dict[float, list] = {}
    for d_r, volt, dv in rows:
        grouped.setdefault(d_r, []).append((volt, dv))
    return [
        VoltageSweep(d_r=d_r, samples=tuple(samples))
        for d_r, samples in sorted(grouped.items())
    ]


def michelson_trace_from_csv(path, wavelength: float = 632.8e-9) -> MichelsonTrace:
    """Load an interferometer trace from a (pzt_V, intensity) CSV file."""
    rows = _read_csv_rows(path, MICHELSON_CSV_HEADER)
    v = np.array([r[0] for r in rows])
    intensity = np.array([r[1] for r in rows])
    return MichelsonTrace(v, intensity, wavelength=wavelength)
