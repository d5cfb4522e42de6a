"""Differential oracle: the batched closed-loop kernel against the scalar loop.

``scalar_loop`` is the per-step loop body the package ran before the
kernel existed, built from the single-step functions kept in
``tests/oracle.py`` (step, pid_step, feedback_torque, detector_read,
pzt_actual_position) and the package's total_force. The kernel must reproduce it bit for bit, alone (B = 1,
through run_null_measurement) and in a batch (B = 9), and must diverge
at the same step.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from oracle import (PidState, SimState, detector_read, feedback_torque, loop_scenario, pid_step,
                    pzt_actual_position, step, traced_run)
from torsionlab import (
    DetectorSpec,
    ForceModelParams,
    GapState,
    InstrumentSpec,
    PidConfig,
    SphereSpec,
    VoltageState,
    run_null_measurement,
    torsion_constant,
    total_force,
)
from torsionlab.control import BLOCK_STEPS, DIVERGENCE_FACTOR, _closed_loop, _Run
from torsionlab.errors import InstabilityError

DT = 0.05
DURATION = 30.0
N = int(round(DURATION / DT))
CONTACT = 10e-6
POSITIONS = (1e-6, 2e-6, 3e-6, 4e-6, 5e-6, 6e-6, 7e-6, 8e-6, 8.5e-6)
VOLTAGES = (-0.08, -0.04, 0.0, 0.02, 0.05, 0.08, 0.1, 0.12, 0.15)
FORCES = ForceModelParams(
    sphere=SphereSpec(0.155),
    voltages=VoltageState(minimizing=0.02, patch_rms=5e-3),
    v0_log_slope=5e-3,
)


def scalar_loop(instrument, pid, duration, dt, *, forces=None, gap=None, applied_force=0.0,
                actuator_mode="linear", thermal_noise=False, pzt_jitter=False,
                temperature=300.0, seed=0, delta_theta_min=1e-7, steps=None):
    """The scalar closed loop; returns (t, error_mV, delta_v, theta, F_ext) columns.

    ``steps`` collects each finished step index, so a caller can see
    where an InstabilityError was raised.
    """
    balance, alpha = instrument.balance, torsion_constant(instrument.fiber)
    n = int(round(duration / dt))
    k_ctrl = max(1, int(round(pid.sample_interval / dt)))
    dt_ctrl = k_ctrl * dt
    state = SimState.seeded(seed, pzt_command=gap.relative_position if gap else 0.0)
    pid_state = PidState()
    delta_v = 0.0
    r_arm = instrument.balance.casimir_arm
    settle_end = n // 3
    diverge_limit = DIVERGENCE_FACTOR * delta_theta_min
    cols = np.empty((5, n))
    for k in range(n):
        if gap is not None and pzt_jitter:
            d_r = pzt_actual_position(state.pzt_command, instrument.actuator, state.rng).position
        elif gap is not None:
            d_r = state.pzt_command
        else:
            d_r = 0.0
        f_ext = applied_force
        if forces is not None:
            f_ext += total_force(forces, GapState(gap.contact_offset, d_r)).total
        reading = detector_read(state.theta, instrument.detector)
        if k % k_ctrl == 0:
            delta_v, pid_state = pid_step(pid, pid_state, reading, dt_ctrl)
        tau = f_ext * r_arm - feedback_torque(
            delta_v, instrument.actuator, instrument.balance, actuator_mode
        )
        step(state, balance, alpha, tau, dt, temperature=temperature, thermal_noise=thermal_noise)
        cols[:, k] = (state.t, reading, delta_v, state.theta, f_ext)
        if steps is not None:
            steps.append(k)
        a = abs(state.theta)
        if not math.isfinite(a) or a > 1.0 or (k > settle_end and a > diverge_limit):
            raise InstabilityError(
                f"loop diverged at t = {state.t:.3g} s (|theta| = {a:.3g} rad) with "
                f"gains kp={pid.kp}, ki={pid.ki}, kd={pid.kd}"
            )
    return cols


def kernel_batch(scenario, runs, *, steps=None):
    """The kernel's steady readouts and all five columns, shape (5, steps, B), of a batch
    run on the scenario's loop settings."""
    blocks = []

    def record(k0, t, reading, delta_v, theta, d_r, f_ext):
        t = np.repeat(np.array(t)[:, None], len(runs), axis=1)
        blocks.append(np.stack([t, reading, delta_v, theta, f_ext]))
        if steps is not None:
            steps.extend(range(k0, k0 + len(t)))

    _, settled = _closed_loop(scenario, runs, check_stability=False, record=record)
    return [steady for steady, _, _ in settled], np.concatenate(blocks, axis=1)


def grid_runs(seed=5):
    return [
        _Run(forces=replace(FORCES, voltages=replace(FORCES.voltages, applied=v)),
             gap=GapState(CONTACT, d_r), seed=np.random.SeedSequence([seed, i]),
             label=f"d_r = {d_r:.4g} m, V = {v:.4g} V")
        for i, (d_r, v) in enumerate(zip(POSITIONS, VOLTAGES))
    ]


def bits(a):
    return np.ascontiguousarray(a).tobytes()


GRID = [pytest.param(*case, N, id="-".join(map(str, case))) for case in itertools.product(
    ("linear", "quadratic"),       # actuator mode
    (0.0, 0.1),                    # detector quantization, mV
    (False, True),                 # thermal noise
    (False, True),                 # PZT jitter
    (0.05, 0.15),                  # controller interval: k_ctrl = 1 and 3
)]
# One noisy, jittered case at step counts around the kernel's block size. With
# k_ctrl = 3 the controller's phase differs from one block to the next.
GRID += [pytest.param("quadratic", 0.1, True, True, 0.15, steps,
                      id=f"quadratic-0.1-True-True-0.15-{steps}steps")
         for steps in (BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, 2 * BLOCK_STEPS + 1)]


@pytest.mark.parametrize("mode,quant,thermal,jitter,interval,steps", GRID)
def test_kernel_matches_scalar_loop_bit_for_bit(mode, quant, thermal, jitter, interval, steps):
    instrument = InstrumentSpec(detector=DetectorSpec(sensitivity=0.5, quantization=quant))
    pid = PidConfig(sample_interval=interval)
    settings = dict(actuator_mode=mode, thermal_noise=thermal, pzt_jitter=jitter,
                    delta_theta_min=1e-4)
    duration = steps * DT
    runs = grid_runs()
    oracle = [scalar_loop(instrument, pid, duration, DT, forces=r.forces, gap=r.gap,
                          seed=r.seed, **settings) for r in runs]

    # B = 1 through the public single-run API: run 4 as a scenario's own run,
    # which takes an integer seed
    run_4 = dict(forces=runs[4].forces, gap=runs[4].gap, seed=4, **settings)
    want_4 = scalar_loop(instrument, pid, duration, DT, **run_4)
    single = run_null_measurement(loop_scenario(instrument, pid, duration, DT, **run_4),
                                  check_stability=False)
    got = (single.t, single.error_mv, single.delta_v, single.theta, single.applied_force)
    for column, want in zip(got, want_4):
        assert bits(column) == bits(want)
    tail = want_4[3][steps - steps // 3:]
    assert (single.settled_theta_mean, single.settled_theta_rms) == (
        float(np.mean(tail)), float(np.sqrt(np.mean(tail ** 2))))

    # B = 9 batch: every column of every run, and the steady readouts
    steady, batch = kernel_batch(loop_scenario(instrument, pid, duration, DT, **settings), runs)
    for b, want in enumerate(oracle):
        assert bits(batch[:, :, b]) == bits(want)
    assert steady == [float(np.mean(c[2][steps - steps // 3:])) for c in oracle]


UNSTABLE = PidConfig(kp=-0.5, ki=0.0, kd=0.0)
IDEAL = InstrumentSpec(detector=DetectorSpec(sensitivity=0.5, quantization=0.0))


def test_unstable_single_run_diverges_at_the_same_step():
    want_steps, got_rows = [], []
    with pytest.raises(InstabilityError) as oracle_exc:
        scalar_loop(IDEAL, UNSTABLE, DURATION * 2, DT, applied_force=1e-10, steps=want_steps)
    with pytest.raises(InstabilityError) as kernel_exc:
        traced_run(loop_scenario(IDEAL, UNSTABLE, DURATION * 2, DT, applied_force=1e-10),
                   got_rows, check_stability=False)
    assert len(got_rows) == len(want_steps) < int(round(DURATION * 2 / DT))
    assert str(kernel_exc.value) == str(oracle_exc.value)


def test_unstable_batch_diverges_at_the_first_failing_step_and_names_the_run():
    forces = (1e-10, 3e-10, 2e-9, 5e-10, 2e-9, 1e-11, 7e-10, 4e-10, 9e-10)
    runs = [_Run(applied_force=f, label=f"F = {f:g} N") for f in forces]
    failures = []
    for run in runs:
        steps = []
        with pytest.raises(InstabilityError) as exc:
            scalar_loop(IDEAL, UNSTABLE, DURATION, DT, applied_force=run.applied_force,
                        steps=steps)
        failures.append((steps[-1], str(exc.value)))
    first_step = min(s for s, _ in failures)
    first = next(i for i, (s, _) in enumerate(failures) if s == first_step)

    steps = []
    with pytest.raises(InstabilityError) as exc:
        kernel_batch(loop_scenario(IDEAL, UNSTABLE, DURATION, DT), runs, steps=steps)
    assert steps[-1] == first_step
    assert str(exc.value) == failures[first][1].replace(
        " with gains", f" in the run at {runs[first].label} with gains"
    )
