"""Null-measurement feedback loop.

The detector reading is regulated to zero by a discrete PID controller
whose output voltage drives the feedback plates on the far side of the
balance; the settled correction voltage is the force readout. In linear
actuator mode the feedback force is exactly proportional to the output
voltage, so the steady readout is exactly proportional to the applied
force; quadratic mode models the physical parallel-plate actuator around
a bias voltage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import CONSTANTS
from .dynamics import PlantParams, TraceRow, _propagator, _round_half_away, check_step
from .errors import DomainError, InstabilityError
from .forces import ForceModelParams, force_law, torsion_constant, total_force
from .instrument import ActuatorSpec, BalanceSpec, GapState, InstrumentSpec

__all__ = [
    "PidConfig",
    "PidState",
    "NullMeasurementResult",
    "pid_step",
    "feedback_torque",
    "stability_precheck",
    "run_null_measurement",
]

ACTUATOR_MODES = ("linear", "quadratic")

# Angle ceiling used by the divergence check, in units of delta_theta_min.
DIVERGENCE_FACTOR = 100.0

# Longest stability pre-check, in steps; the reference instrument needs 7,900.
PRECHECK_MAX_STEPS = 1_000_000


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


@dataclass(frozen=True)
class PidState:
    """Controller memory between samples."""

    integral: float = 0.0            # accumulated I term, V
    prev_error: float = 0.0          # mV
    saturated: bool = False


def pid_step(
    cfg: PidConfig, state: PidState, error: float, dt: float
) -> tuple[float, PidState]:
    """One controller update; returns (output volts, new state).

    Derivative acts on the measured signal (identical to derivative on
    error for the fixed zero setpoint of a null measurement), and the
    integral term is clamped so saturation cannot wind it up.
    """
    if dt <= 0:
        raise DomainError("controller step must be positive")
    integral = state.integral + cfg.ki * error * dt
    integral = min(max(integral, -cfg.integral_limit), cfg.integral_limit)
    derivative = (error - state.prev_error) / dt
    output = cfg.kp * error + integral + cfg.kd * derivative
    saturated = abs(output) > cfg.output_limit
    if saturated:
        output = math.copysign(cfg.output_limit, output)
    return output, PidState(integral=integral, prev_error=error, saturated=saturated)


def feedback_torque(
    delta_v: float,
    spec: ActuatorSpec,
    balance: BalanceSpec,
    mode: str = "linear",
) -> float:
    """Restoring torque produced by the feedback plates for an output δV.

    Quadratic mode is the physical parallel-plate force around the bias,
    referenced so δV = 0 gives zero torque:

        tau = eps0 A [(bias + δV)^2 - bias^2] / (2 gap^2) * r_fb

    Linear mode is its small-signal slope eps0 A bias δV / gap^2 * r_fb.
    """
    return _feedback_law(spec, balance, mode)(delta_v)


def _feedback_law(spec: ActuatorSpec, balance: BalanceSpec, mode: str,
                  square=lambda x: x ** 2):
    """feedback_torque as a function of δV alone, with the plate constants hoisted."""
    if spec.fb_gap <= 0:
        raise DomainError("feedback-plate gap must be positive")
    if mode not in ACTUATOR_MODES:
        raise DomainError(f"actuator mode must be one of {ACTUATOR_MODES}")
    scale = CONSTANTS.eps0 * spec.fb_plate_area / spec.fb_gap**2
    arm = balance.feedback_arm
    if mode == "linear":
        gain = scale * spec.fb_bias
        return lambda delta_v: gain * delta_v * arm
    half, bias, bias2 = 0.5 * scale, spec.fb_bias, spec.fb_bias**2
    return lambda delta_v: half * (square(bias + delta_v) - bias2) * arm


# Per-step helpers of the closed-loop kernel, picked once per call by batch
# size: Python floats for one run (5x faster than numpy on 1-element arrays),
# numpy arrays for a batch. Both give the same bits. Squares go through
# libm's pow, as feedback_torque always has; numpy's x ** 2 is x * x, which
# differs from pow in the last bit for some x.
_FLOAT_OPS = (
    _round_half_away,
    lambda x, limit: min(max(x, -limit), limit),
    lambda x, limit: math.copysign(limit, x) if abs(x) > limit else x,
    abs,
    lambda x: x ** 2,
)
_ARRAY_OPS = (
    lambda x: np.copysign(np.floor(np.abs(x) + 0.5), x),
    lambda x, limit: np.minimum(np.maximum(x, -limit), limit),
    lambda x, limit: np.where(np.abs(x) > limit, np.copysign(limit, x), x),
    lambda x: np.abs(x).max(),
    lambda x: np.array([v ** 2 for v in x.tolist()]),
)


class _Run(NamedTuple):
    """One run of a closed-loop batch: its load, its random stream, its name."""

    forces: ForceModelParams | None = None
    gap: GapState | None = None
    applied_force: float = 0.0
    seed: object = 0
    label: str = ""


def _load(run: _Run):
    """External force on the Casimir arm as a function of the realized position d_r."""
    if run.forces is None:
        return lambda d_r, f=run.applied_force: f
    return (lambda d_r, f=run.applied_force, d0=run.gap.contact_offset,
            law=force_law(run.forces): f + law(d0 - d_r))


def _closed_loop(instrument: InstrumentSpec, pid: PidConfig, plant: PlantParams, dt: float,
                 n: int, runs, *, actuator_mode: str, k_ctrl: int = 1,
                 pzt_jitter: bool = False, delta_theta_min: float = math.inf,
                 emit=None) -> list:
    """Advance ``len(runs)`` independent closed loops by ``n`` steps at once.

    Per step: PZT jitter and the force at the realized gap, quantized
    detector read, PID update every ``k_ctrl`` steps, feedback torque, and
    the exact propagator with a thermal kick. Each run draws its normals
    from its own seed in the per-step order of the scalar stepper (PZT,
    then thermal), so a run gives the same bits alone or in a batch. Runs
    differ only in load, seed and label, and either all have a gap or none
    has; a gap outside the PZT travel [0, pzt_range] raises DomainError with
    or without jitter. ``emit(k, t, reading, delta_v, theta, omega, d_r, f_ext, None)``
    sees every step: floats for one run, arrays for a batch. The loop
    evaluates each run's ``forces.force_law`` for the total only; a caller
    that needs the breakdown evaluates total_force at d_r. |theta| over
    1 rad, or over 100x ``delta_theta_min`` after the first third, raises
    InstabilityError naming the run.
    Returns each run's steady readout, the mean δV over the final third.
    """
    check_step(plant, dt)
    batch = len(runs)
    rnd, clamp, saturate, peak, square = _FLOAT_OPS if batch == 1 else _ARRAY_OPS
    vector = (lambda values: values[0]) if batch == 1 else np.array

    jitter = pzt_jitter and runs[0].gap is not None
    pzt_sigma = instrument.actuator.pzt_accuracy if jitter else 0.0
    kick_sigma = plant.thermal_sigma(dt)
    sigmas = [s for s in (pzt_sigma, kick_sigma) if s > 0.0]
    z = np.stack([np.random.default_rng(r.seed).standard_normal((n, len(sigmas)))
                  for r in runs], axis=-1)
    noise = [s * z[:, i] for i, s in enumerate(sigmas)]
    if batch == 1:
        noise = [a[:, 0].tolist() for a in noise]
    pzt = noise.pop(0) if pzt_sigma > 0.0 else None
    kick = noise.pop(0) if kick_sigma > 0.0 else None

    command = [r.gap.relative_position if r.gap is not None else 0.0 for r in runs]
    travel = instrument.actuator.pzt_range
    outside = [c for c in command if not 0.0 <= c <= travel]
    if outside:
        raise DomainError(f"PZT command d_r = {outside[0]:.6g} m lies outside [0, {travel:.6g}] m")
    d_r = command = vector(command)

    loads = [_load(r) for r in runs]
    load = loads[0] if batch == 1 else (
        lambda d_r: np.array([f(x) for f, x in zip(loads, d_r.tolist())]))

    f_ext = load(d_r)
    sens, quant = instrument.detector.sensitivity, instrument.detector.quantization
    kp, ki, kd, dt_ctrl = pid.kp, pid.ki, pid.kd, k_ctrl * dt
    feedback = _feedback_law(instrument.actuator, instrument.balance, actuator_mode, square)
    r_arm, alpha = instrument.balance.casimir_arm, plant.stiffness
    axx, axv, avx, avv = _propagator(alpha, plant.balance.moment_of_inertia, plant.gamma, dt)
    settle_end, late = n // 3, min(1.0, DIVERGENCE_FACTOR * delta_theta_min)
    start = n - n // 3
    steady = np.empty((batch, n // 3))
    theta = omega = integral = prev = vector([0.0] * batch)
    t = 0.0
    for k in range(n):
        if pzt is not None:
            d_r = command + pzt[k]
            f_ext = load(d_r)
        reading = sens * theta * 1e6
        if quant > 0.0:
            reading = quant * rnd(reading / quant)
        if k % k_ctrl == 0:
            integral = clamp(integral + ki * reading * dt_ctrl, pid.integral_limit)
            delta_v = saturate(
                kp * reading + integral + kd * ((reading - prev) / dt_ctrl), pid.output_limit
            )
            prev = reading
            fb = feedback(delta_v)
        tau = f_ext * r_arm - fb
        if kick is not None:
            tau = tau + kick[k]
        x_eq = tau / alpha
        x = theta - x_eq
        theta = x_eq + axx * x + axv * omega
        omega = avx * x + avv * omega
        t += dt
        if k >= start:
            steady[:, k - start] = delta_v
        if emit is not None:
            emit(k, t, reading, delta_v, theta, omega, d_r, f_ext, None)
        limit = 1.0 if k <= settle_end else late
        if not peak(theta) <= limit:
            thetas = np.abs(np.atleast_1d(theta))
            i = int(np.argmax(~(thetas <= limit)))
            where = f" in the run at {runs[i].label}" if runs[i].label else ""
            raise InstabilityError(
                f"loop diverged at t = {t:.3g} s (|theta| = {thetas[i]:.3g} rad){where} "
                f"with gains kp={pid.kp}, ki={pid.ki}, kd={pid.kd}"
            )
    return [float(np.mean(row)) for row in steady]


def _sample_steps(pid: PidConfig, dt: float) -> int:
    """Plant steps per controller sample."""
    return max(1, int(round(pid.sample_interval / dt)))


def stability_precheck(instrument: InstrumentSpec, pid: PidConfig, dt: float,
                       actuator_mode: str = "linear", stiffness: float | None = None) -> None:
    """Short noiseless step-response run; raises if the loop diverges.

    A 100 pN step is applied for six natural periods, with the controller
    sampling at ``pid.sample_interval`` as in the run. The angle envelope
    over the last two periods must fall below the envelope over the first
    two, and must end up below the open-loop static deflection tau/alpha:
    a bounded limit cycle (e.g. sign-flipped gains pinned by detector
    quantization and output saturation) is just as unusable as outright
    divergence.
    """
    alpha = stiffness if stiffness is not None else torsion_constant(instrument.fiber)
    plant = PlantParams(balance=instrument.balance, stiffness=alpha)
    check_step(plant, dt)
    n = int(round(6.0 * plant.period / dt))
    if n > PRECHECK_MAX_STEPS:
        raise DomainError(
            f"stability pre-check of six natural periods ({plant.period:.3g} s each) at "
            f"run.dt = {dt:.3g} s needs {n:.3g} steps, over the cap of {PRECHECK_MAX_STEPS}; "
            f"check fiber.diameter and balance.moment_of_inertia, which set the period, "
            f"or raise run.dt"
        )
    per = max(1, int(round(2.0 * plant.period / dt)))
    theta = np.empty(n)

    def emit(k, t, reading, delta_v, th, *_):
        theta[k] = th

    open_loop = 100e-12 * instrument.balance.casimir_arm / plant.stiffness
    try:
        _closed_loop(instrument, pid, plant, dt, n, [_Run(applied_force=100e-12)],
                     actuator_mode=actuator_mode, k_ctrl=_sample_steps(pid, dt), emit=emit)
    except InstabilityError:
        raise InstabilityError(
            f"loop diverged during stability pre-check with gains "
            f"kp={pid.kp}, ki={pid.ki}, kd={pid.kd}"
        ) from None
    peak_early = float(np.max(np.abs(theta[:per])))
    peak_late = float(np.max(np.abs(theta[n - per:])))
    if (peak_late >= peak_early or peak_late > open_loop) and peak_late > 0.0:
        raise InstabilityError(
            f"loop does not regulate the test step (|theta| envelope "
            f"{peak_early:.3g} -> {peak_late:.3g} rad vs open-loop {open_loop:.3g}) "
            f"with gains kp={pid.kp}, ki={pid.ki}, kd={pid.kd}"
        )


@dataclass
class NullMeasurementResult:
    """Column-oriented loop record plus the settled readout."""

    t: np.ndarray
    error_mv: np.ndarray
    delta_v: np.ndarray
    theta: np.ndarray
    applied_force: np.ndarray
    steady_delta_v: float
    settled_theta_mean: float
    settled_theta_rms: float


def _prepare(instrument, pid, duration, dt, *, stiffness=None, temperature, thermal_noise,
             actuator_mode, check_stability=True):
    """Validate a run's settings; return (plant, steps, steps per controller sample)."""
    if duration <= 0 or dt <= 0:
        raise DomainError("duration and dt must be positive")
    if actuator_mode not in ACTUATOR_MODES:
        raise DomainError(f"actuator mode must be one of {ACTUATOR_MODES}")
    alpha = stiffness if stiffness is not None else torsion_constant(instrument.fiber)
    plant = PlantParams(balance=instrument.balance, stiffness=alpha,
                        temperature=temperature, thermal_noise=thermal_noise)
    if check_stability:
        stability_precheck(instrument, pid, dt, actuator_mode, alpha)
    n = int(round(duration / dt))
    if n < 10:
        raise DomainError("duration must cover at least 10 steps")
    return plant, n, _sample_steps(pid, dt)


def run_null_measurement(
    instrument: InstrumentSpec,
    pid: PidConfig,
    duration: float,
    dt: float,
    *,
    stiffness: float | None = None,
    forces: ForceModelParams | None = None,
    gap: GapState | None = None,
    applied_force: float = 0.0,
    actuator_mode: str = "linear",
    thermal_noise: bool = False,
    pzt_jitter: bool = False,
    temperature: float = 300.0,
    seed: int = 0,
    check_stability: bool = True,
    delta_theta_min: float = 1e-7,
    on_row=None,
) -> NullMeasurementResult:
    """Run the closed loop for ``duration`` seconds and return the record.

    The external force on the Casimir arm is ``applied_force`` plus, when
    a force model and gap are given, the model total at the realized gap.
    The steady readout is the mean output voltage over the final third of
    the run. Divergence beyond 100x ``delta_theta_min`` after the first
    third of the run raises InstabilityError.
    """
    if forces is not None and gap is None:
        raise DomainError("a gap state is required when a force model is enabled")
    plant, n, k_ctrl = _prepare(
        instrument, pid, duration, dt, stiffness=stiffness, temperature=temperature,
        thermal_noise=thermal_noise, actuator_mode=actuator_mode,
        check_stability=check_stability,
    )
    t_col, err_col, dv_col, th_col, f_col = np.empty((5, n))

    def emit(k, t, reading, delta_v, theta, omega, d_r, f_ext, _):
        t_col[k], err_col[k], dv_col[k], th_col[k], f_col[k] = t, reading, delta_v, theta, f_ext
        if on_row is not None:
            on_row(TraceRow(t=t, theta=theta, omega=omega, d_r=d_r, reading_mv=reading,
                            forces={} if forces is None else total_force(
                                forces, GapState(gap.contact_offset, d_r)).components))

    (steady,) = _closed_loop(
        instrument, pid, plant, dt, n, [_Run(forces, gap, applied_force, seed)],
        actuator_mode=actuator_mode, k_ctrl=k_ctrl, pzt_jitter=pzt_jitter,
        delta_theta_min=delta_theta_min, emit=emit,
    )
    tail = slice(n - n // 3, n)
    return NullMeasurementResult(
        t=t_col,
        error_mv=err_col,
        delta_v=dv_col,
        theta=th_col,
        applied_force=f_col,
        steady_delta_v=steady,
        settled_theta_mean=float(np.mean(th_col[tail])),
        settled_theta_rms=float(np.sqrt(np.mean(th_col[tail] ** 2))),
    )
