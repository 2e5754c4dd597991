"""Vectorized arithmetic of the batched closed-loop kernel.

batch_sdfs steps blocks of closed-loop episodes, one row per (controller,
seed) pair, together through the memoized raw traces with elementwise
float64 numpy operations, and reduces each row's variance as metrics.sdf
does. A controller is a PID point (controllers.tune_pid, in the order of
spillsim.closed_loop, controllers.ErrorTracker and controllers.pid_update)
or the coefficients of a linear policy head over the P, I, D features
(ppo.build_report, for report.json's sdf_pid and sdf_rl, in the order of
controllers.StateTracker and policy.policy_mean; the PID row has zero w_Act
and bias). Every row it marks exact equals the scalar path bit for bit, and
its scalar episode runs without error; the callers recompute the other rows
with the scalar path. A call splits its rows into as few near-equal blocks
as the byte budget PID_KERNEL_BYTES allows (at most 38 rows at the default
430 steps and 9 seeds), one kernel pass each. A row's result does not depend
on its block.

A pass is mostly numpy call overhead, not arithmetic: 430 steps of about 14
ufunc calls over arrays of 9 to 342 elements. On a 2-core x86-64 host
(Python 3.11, numpy 2.4), with seeds 0-8 at the default config, a pass of
1, 26 and 38 rows took 4.7, 5.7 and 6.2 ms (medians of 41 interleaved runs).

This code is a module of its own because every process that runs without
cached bytecode compiles the package from source, and the compile memory of
the largest module sets its peak RSS (tracemalloc peaks of compile() on
Python 3.11: cli 1.37 MiB, ppo 1.27, gradnet 1.26, controllers 1.20). With
the kernel inside controllers, a tune-pid process peaked 0.2 MB higher.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ShapeError
from .spillsim import EnvConfig, run_raw_episode

# Bytes of trace one pass keeps live, which bounds the kernel's memory for
# any grid: a call runs its rows in the fewest blocks of at most as many
# (row, seed) episodes as fit (38 rows at the default 430 steps and 9 seeds),
# split near-equally, so 75 rows run as 38 + 37. A 1-row pass costs about
# 70% of a 38-row one (timings in the module docstring), so fewer passes are
# faster; 38 rows let tune_pid's 35-point second round on the default grid
# run in one.
PID_KERNEL_BYTES = (1 << 20) + (1 << 17)

# Rows whose traces one np.var call reduces (see _block_sdfs).
VAR_ROWS = 4


def batch_sdfs(config: EnvConfig, seeds, rows) -> tuple[np.ndarray, np.ndarray]:
    """SDFs of every (row, seed) closed-loop episode; returns (sdfs, exact).

    rows is a (n, k) array-like. A row of k = 3 is a PID point (kp, ki, kd),
    whose decision is kp*P + ki*I + kd*D. A row of k = 4 or 5 holds a linear
    policy head's coefficients as LinearActor.coefs() gives them, over the
    pid3 features (w_P, w_I, w_D, bias) or the pid_act features (w_P, w_I,
    w_D, w_Act, bias); its decision is policy_mean's left-to-right sum, Act
    being the action applied to the current sample. rows of another shape
    raise ShapeError (an empty list is no rows), non-finite rows
    ConfigError.

    sdfs and exact have shape (n, len(seeds)). exact[i, j] is False where
    the vectorized pass cannot vouch for sdfs[i, j]: the row's trace or
    error sum went non-finite, or, for every row, the derivative term could
    overflow ((clamp_hi - clamp_lo) / dt near the float range).
    """
    rows = np.array(rows, dtype=np.float64)
    if rows.shape == (0,):  # no rows: a tune_pid round may have nothing left to score
        rows = rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] not in (3, 4, 5):
        raise ShapeError(f"rows must have shape (n, 3), (n, 4) or (n, 5), got {rows.shape}")
    if not np.isfinite(rows).all():
        raise ConfigError("gain points and policy coefficients must be finite")
    steps = config.steps_per_episode
    sdfs = np.empty((len(rows), len(seeds)))
    exact = np.zeros(sdfs.shape, dtype=bool)
    # with finite samples, |D| stays below 2 * (clamp_hi - clamp_lo) / dt plus rounding
    d_bound = 4.0 * (config.clamp_hi - config.clamp_lo) / config.dt
    if len(seeds) == 0 or len(rows) == 0 or not math.isfinite(d_bound):
        return sdfs, exact
    raw = np.empty((steps, len(seeds)))
    for j, seed in enumerate(seeds):
        raw[:, j] = run_raw_episode(config, seed)
    block = max(1, PID_KERNEL_BYTES // (8 * steps * len(seeds)))
    start = 0
    for part in np.array_split(rows, -(-len(rows) // block)):  # ceil(n / block) blocks
        stop = start + len(part)
        sdfs[start:stop], exact[start:stop] = _block_sdfs(config, raw, part)
        start = stop
    return sdfs, exact


def _block_sdfs(config: EnvConfig, raw: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SDFs of the episodes of every (row, seed) pair; returns (sdfs, exact).

    raw and rows are as in _block_traces; this is one kernel pass.
    exact[i, j] is False where the trace or the error sum went non-finite;
    sdfs[i, j] means nothing there.
    """
    trace, err_sum = _block_traces(config, raw, rows)
    n_seeds = raw.shape[1]
    # metrics.sdf's reduction: np.var over each episode's trace, laid out
    # contiguously so that each row of the copy reduces with the pairwise sum
    # of one 1-D trace; VAR_ROWS rows' seeds per call, so the copies stay
    # small (124 KB at the default 430 steps and 9 seeds). A non-finite
    # sample makes the episode's variance NaN.
    chunk = VAR_ROWS * n_seeds
    with np.errstate(over="ignore", invalid="ignore"):
        var = np.concatenate([np.var(np.ascontiguousarray(trace[:, i:i + chunk].T), axis=1)
                              for i in range(0, trace.shape[1], chunk)])
    exact = np.isfinite(var) & np.isfinite(err_sum)
    shape = (len(rows), n_seeds)
    return (1.0 / (1.0 + var)).reshape(shape), exact.reshape(shape)


def _block_traces(config: EnvConfig, raw: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corrected traces and final error sums of every (row, seed) episode.

    raw is the (steps, n_seeds) array of raw traces and rows the batch_sdfs
    rows. Returns (trace, err_sum): column b * n_seeds + j of the (steps,
    len(rows) * n_seeds) trace, and entry b * n_seeds + j of err_sum, belong
    to row b on seed j. Every operand is a full-length array, because at
    these sizes a ufunc call with a broadcast or Python float operand costs
    about twice one over equal-shape arrays. Only linear-head rows pay for
    the w_Act*Act and bias terms. The loop calls the ufuncs through local
    names, and the arithmetic ones take out positionally, which skips the
    keyword parsing; both save a fraction of a microsecond on every one of
    the pass's ~6000 calls. np.maximum and np.minimum take out by keyword,
    because numpy 2.4 deprecates their positional out.
    """
    n_seeds = raw.shape[1]
    n = len(rows) * n_seeds
    coefs = [np.repeat(rows[:, k], n_seeds) for k in range(rows.shape[1])]
    kp, ki, kd = coefs[:3]
    act_w = coefs[3] if len(coefs) == 5 else None
    bias = coefs[-1] if len(coefs) > 3 else None
    lo, hi, ref, dt, bound, neg_bound = (
        np.full(n, v)
        for v in (config.clamp_lo, config.clamp_hi, config.reference, config.dt,
                  config.action_bound, -config.action_bound)
    )
    trace = np.tile(raw, (1, len(rows)))  # raw samples, corrected in place
    action = np.zeros(n)
    err, prev_err, err_sum = np.empty(n), np.empty(n), np.zeros(n)
    diff_rate = np.zeros(n)  # 0 at t = 0
    term, act_term = np.empty(n), np.empty(n)
    subtract, add, multiply, divide, maximum, minimum = (
        np.subtract, np.add, np.multiply, np.divide, np.maximum, np.minimum)
    # overflow and NaN stay silent, as in Python floats; such rows go to the scalar path
    with np.errstate(over="ignore", invalid="ignore"):
        for t, x in enumerate(trace):
            subtract(x, action, x)
            maximum(x, lo, out=x)
            minimum(x, hi, out=x)
            subtract(x, ref, err)
            add(err_sum, err, err_sum)
            if t:
                subtract(err, prev_err, diff_rate)
                divide(diff_rate, dt, diff_rate)
            if act_w is not None:  # Act is the action applied to x, before it is replaced
                multiply(act_w, action, act_term)
            # kp*P + ki*I + kd*D (+ w_Act*Act) (+ bias), summed left to right
            # as pid_update and policy_mean do
            multiply(kp, err, action)
            multiply(ki, err_sum, term)
            add(action, term, action)
            multiply(kd, diff_rate, term)
            add(action, term, action)
            if act_w is not None:
                add(action, act_term, action)
            if bias is not None:
                add(action, bias, action)
            maximum(action, neg_bound, out=action)
            minimum(action, bound, out=action)
            err, prev_err = prev_err, err
    return trace, err_sum
