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
from array import array
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import NamedTuple

import numpy as np

from .constants import CONSTANTS
from .dynamics import PlantParams, _propagator, _round_half_away, check_step
from .errors import DomainError, InstabilityError
from .forces import ForceModelParams, force_law, torsion_constant
from .instrument import (ACTUATOR_MODES, ActuatorSpec, BalanceSpec, GapState, InstrumentSpec,
                         PidConfig)

__all__ = [
    "PidConfig",
    "NullMeasurementResult",
    "stability_precheck",
    "run_null_measurement",
]

# Angle ceiling used by the divergence check, in units of delta_theta_min.
DIVERGENCE_FACTOR = 100.0

# Longest run and longest stability pre-check, in steps; the reference
# instrument's pre-check needs 7,900.
MAX_STEPS = 1_000_000

# Steps the closed loop advances per draw of its normals and per call of its
# record: what a run holds does not grow with its length.
BLOCK_STEPS = 1024


def _feedback_law(spec: ActuatorSpec, balance: BalanceSpec, mode: str,
                  square=lambda x: x ** 2):
    """Restoring torque of the feedback plates as a function of the output δV alone.

    Quadratic mode is the physical parallel-plate force around the bias,
    referenced so δV = 0 gives zero torque:

        tau = eps0 A [(bias + δV)^2 - bias^2] / (2 gap^2) * r_fb

    Linear mode is its small-signal slope eps0 A bias δV / gap^2 * r_fb.
    The plate constants are hoisted out of the returned function.
    """
    if spec.fb_gap <= 0:
        raise DomainError("feedback-plate gap must be positive")
    if mode not in ACTUATOR_MODES:
        raise DomainError(f"actuator mode must be one of {ACTUATOR_MODES}")
    try:
        scale = CONSTANTS.eps0 * spec.fb_plate_area / spec.fb_gap**2
    except (OverflowError, ZeroDivisionError):  # fb_gap**2 beyond float range
        raise DomainError(f"feedback-plate constant eps0 * A / gap^2 leaves the float range "
                          f"for actuator.fb_gap = {spec.fb_gap:.6g} m") from None
    arm = balance.feedback_arm
    if mode == "linear":
        gain = scale * spec.fb_bias
        return lambda delta_v: gain * delta_v * arm
    half, bias, bias2 = 0.5 * scale, spec.fb_bias, spec.fb_bias**2
    return lambda delta_v: half * (square(bias + delta_v) - bias2) * arm


# Per-step helpers of the closed-loop kernel, picked once per call by batch
# size: Python floats for one run (5x faster than numpy on 1-element arrays),
# numpy arrays for a batch. Both give the same bits. Squares go through
# libm's pow, as the scalar feedback torque always has; numpy's x ** 2 is x * x, which
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

    def load(d_r, f=run.applied_force, d0=run.gap.contact_offset, law=force_law(run.forces)):
        try:
            return f + law(d0 - d_r)
        except (OverflowError, ZeroDivisionError):  # a power of the gap beyond float range
            raise DomainError(f"force law leaves the float range at d0 - d_r = {d0 - d_r:.6g} m "
                              f"(run.contact_offset = {d0:.6g} m, d_r = {d_r:.6g} m from "
                              f"run.position or run.positions)") from None
    return load


def _step_count(duration: float, dt: float) -> int:
    """Steps of a run: ``duration / dt`` rounded, at least 10 and at most MAX_STEPS."""
    steps = duration / dt  # NaN, inf and 1e300 are rejected before any rounding
    n = int(round(steps)) if steps <= MAX_STEPS + 1 else MAX_STEPS + 1
    if n > MAX_STEPS:  # checked before anything is allocated
        raise DomainError(
            f"run.duration = {duration:.6g} s at run.dt = {dt:.6g} s needs {steps:.7g} "
            f"steps, over the cap of {MAX_STEPS}; shorten run.duration or raise run.dt"
        )
    if n < 10:
        raise DomainError("duration must cover at least 10 steps")
    return n


def _closed_loop(instrument: InstrumentSpec, pid: PidConfig, duration: float, dt: float,
                 runs, *, stiffness: float | None = None, temperature: float = 300.0,
                 thermal_noise: bool = False, actuator_mode: str, pzt_jitter: bool = False,
                 delta_theta_min: float = math.inf, check_stability: bool = True,
                 record=None) -> tuple:
    """Check a run's settings, then advance ``len(runs)`` closed loops at once.

    The one entry to the loop. The plant is the instrument's balance on
    ``stiffness`` (default: the fiber's) at ``temperature``, kicked each step
    if ``thermal_noise``. The run takes ``_step_count(duration, dt)`` steps of
    ``dt`` <= period/50, the PID samples every ``pid.sample_interval`` in whole
    steps, and ``check_stability`` runs the pre-check before the first step.

    Per step: PZT jitter (if ``pzt_jitter``) and the force at the realized
    gap, quantized detector read, PID update, feedback torque in
    ``actuator_mode``, and the exact propagator with the kick. Each run draws
    its normals from its own seed in the per-step order of the scalar stepper
    (PZT, then thermal), so a run gives the same bits alone or in a batch. Runs
    differ only in load, seed and label, and either all have a gap or none
    has; a gap outside the PZT travel [0, pzt_range] raises DomainError with
    or without jitter. The loop evaluates each run's ``forces.force_law``,
    which gives the total force only. |theta| over 1 rad, or over 100x
    ``delta_theta_min`` after the first third, raises InstabilityError
    naming the run.

    The loop steps in blocks of BLOCK_STEPS. Each block draws its normals and
    computes its loads first, up to the first gap that raises; that error is
    raised at its step. ``record(k0, t, reading, delta_v, theta, omega, d_r,
    f_ext)`` gets each block from step ``k0`` on, up to any error: lists of
    floats for one run, (steps, runs) arrays for a batch, ``t`` a list in
    both. Returns ``(n, settled)``: the step count and, per run, the steady
    readout (mean δV) and θ mean and rms over the final third. With no runs
    it returns ``(n, [])`` after the checks and the pre-check, without stepping.
    """
    if duration <= 0 or dt <= 0:
        raise DomainError("duration and dt must be positive")
    if actuator_mode not in ACTUATOR_MODES:
        raise DomainError(f"actuator mode must be one of {ACTUATOR_MODES}")
    alpha = stiffness if stiffness is not None else torsion_constant(instrument.fiber)
    plant = PlantParams(balance=instrument.balance, stiffness=alpha,
                        temperature=temperature, thermal_noise=thermal_noise)
    n = _step_count(duration, dt)
    check_step(plant, dt)
    if check_stability:
        stability_precheck(instrument, pid, dt, actuator_mode, alpha)
    if not runs:
        return n, []
    k_ctrl = max(1, int(round(pid.sample_interval / dt)))  # plant steps per controller sample
    batch = len(runs)
    rnd, clamp, saturate, peak, square = _FLOAT_OPS if batch == 1 else _ARRAY_OPS
    vector = (lambda values: values[0]) if batch == 1 else np.array
    column = (lambda a: a[:, 0].tolist()) if batch == 1 else (lambda a: a)
    table = (lambda values: values) if batch == 1 else np.array

    jitter = pzt_jitter and runs[0].gap is not None
    pzt_sigma = instrument.actuator.pzt_accuracy if jitter else 0.0
    kick_sigma = plant.thermal_sigma(dt)
    draws = (pzt_sigma > 0.0) + (kick_sigma > 0.0)
    rngs = [np.random.default_rng(r.seed) for r in runs]

    command = [r.gap.relative_position if r.gap is not None else 0.0 for r in runs]
    travel = instrument.actuator.pzt_range
    outside = [c for c in command if not 0.0 <= c <= travel]
    if outside:
        raise DomainError(f"PZT command d_r = {outside[0]:.6g} m lies outside [0, {travel:.6g}] m")
    command = vector(command)

    loads = [_load(r) for r in runs]
    load = loads[0] if batch == 1 else (
        lambda d_r: np.array([f(x) for f, x in zip(loads, d_r.tolist())]))

    held = load(command)
    sens, quant = instrument.detector.sensitivity, instrument.detector.quantization
    kp, ki, kd, dt_ctrl = pid.kp, pid.ki, pid.kd, k_ctrl * dt
    feedback = _feedback_law(instrument.actuator, instrument.balance, actuator_mode, square)
    r_arm = instrument.balance.casimir_arm
    axx, axv, avx, avv = _propagator(alpha, plant.balance.moment_of_inertia, plant.gamma, dt)
    settle_end, late = n // 3, min(1.0, DIVERGENCE_FACTOR * delta_theta_min)
    start = n - n // 3
    settled = np.empty((2, batch, n // 3))  # δV and θ over the final third
    settled_dv, settled_theta = settled
    theta = omega = integral = prev = vector([0.0] * batch)
    t = 0.0
    for k0 in range(0, n, BLOCK_STEPS):
        m = min(BLOCK_STEPS, n - k0)
        z = np.stack([g.standard_normal((m, draws)) for g in rngs], axis=-1)
        kicks = column(kick_sigma * z[:, -1]) if kick_sigma > 0.0 else repeat(None)
        d_rs, f_exts, error = [command] * m, [held] * m, None
        if pzt_sigma > 0.0:
            d_rs, f_exts = column(command + pzt_sigma * z[:, 0]), []
            try:
                for d_r in d_rs:
                    f_exts.append(load(d_r))
            except Exception as exc:  # raised below, when the loop reaches its step
                error = exc
        ts = list(accumulate(repeat(dt, len(f_exts)), initial=t))[1:]
        readings, dvs, thetas, omegas = [], [], [], []
        for k, f_ext, kick in zip(range(k0, n), f_exts, kicks):
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
                tau = tau + kick
            x_eq = tau / alpha
            x = theta - x_eq
            theta = x_eq + axx * x + axv * omega
            omega = avx * x + avv * omega
            if k >= start:
                settled_dv[:, k - start] = delta_v
                settled_theta[:, k - start] = theta
            if record is not None:
                readings.append(reading)
                dvs.append(delta_v)
                thetas.append(theta)
                omegas.append(omega)
            limit = 1.0 if k <= settle_end else late
            if not peak(theta) <= limit:
                abs_theta = np.abs(np.atleast_1d(theta))
                i = int(np.argmax(~(abs_theta <= limit)))
                where = f" in the run at {runs[i].label}" if runs[i].label else ""
                error = InstabilityError(
                    f"loop diverged at t = {ts[k - k0]:.3g} s (|theta| = {abs_theta[i]:.3g} rad)"
                    f"{where} with gains kp={pid.kp}, ki={pid.ki}, kd={pid.kd}"
                )
                break
        if record is not None:
            stop = len(thetas)
            record(k0, ts[:stop], table(readings), table(dvs), table(thetas), table(omegas),
                   table(d_rs[:stop]), table(f_exts[:stop]))
        if error is not None:
            raise error
        t = ts[-1]
    # left to right: θ is squared in place after its mean is taken
    return n, [(float(np.mean(dv)), float(np.mean(th)),
                float(np.sqrt(np.mean(np.square(th, out=th))))) for dv, th in zip(*settled)]


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
    if n > MAX_STEPS:
        raise DomainError(
            f"stability pre-check of six natural periods ({plant.period:.3g} s each) at "
            f"run.dt = {dt:.3g} s needs {n:.3g} steps, over the cap of {MAX_STEPS}; "
            f"check fiber.diameter and balance.moment_of_inertia, which set the period, "
            f"or raise run.dt"
        )
    per = max(1, int(round(2.0 * plant.period / dt)))
    peaks = [0.0, 0.0]  # max |theta| over the first and over the last `per` steps

    def record(k0, t, reading, delta_v, theta, *_):
        peaks[0] = np.max(np.abs(theta[:max(per - k0, 0)]), initial=peaks[0])
        peaks[1] = np.max(np.abs(theta[max(n - per - k0, 0):]), initial=peaks[1])

    open_loop = 100e-12 * instrument.balance.casimir_arm / plant.stiffness
    try:
        _closed_loop(instrument, pid, n * dt, dt, [_Run(applied_force=100e-12)],
                     stiffness=alpha, actuator_mode=actuator_mode, check_stability=False,
                     record=record)
    except InstabilityError:
        raise InstabilityError(
            f"loop diverged during stability pre-check with gains "
            f"kp={pid.kp}, ki={pid.ki}, kd={pid.kd}"
        ) from None
    peak_early, peak_late = map(float, peaks)
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
    columns = [array("d") for _ in range(5)]

    def record(k0, t, reading, delta_v, theta, omega, d_r, f_ext):
        for column, block in zip(columns, (t, reading, delta_v, theta, f_ext)):
            column.extend(block)

    _, ((steady, theta_mean, theta_rms),) = _closed_loop(
        instrument, pid, duration, dt, [_Run(forces, gap, applied_force, seed)],
        stiffness=stiffness, temperature=temperature, thermal_noise=thermal_noise,
        actuator_mode=actuator_mode, pzt_jitter=pzt_jitter, delta_theta_min=delta_theta_min,
        check_stability=check_stability, record=record,
    )
    return NullMeasurementResult(*(np.frombuffer(c) for c in columns),
                                 steady, theta_mean, theta_rms)
