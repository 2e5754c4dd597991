"""Vectorized arithmetic of the batched PID kernel (controllers.pid_sdfs).

batch_sdfs steps blocks of closed-loop PID episodes, one row per (gain point,
seed) pair, together through the memoized raw traces with elementwise
float64 numpy operations, in the order of spillsim.closed_loop,
controllers.ErrorTracker and controllers.pid_update, and reduces each row's
variance as metrics.sdf does, so every row it marks exact equals the scalar
path bit for bit. controllers.pid_sdfs recomputes the other rows with the
scalar path.

This code is a module of its own because every process that runs without
cached bytecode compiles the package from source, and CPython 3.11's
compile memory steps up at token-count thresholds; controllers sits just
below one (about 4096 tokens). With this code inside controllers a tune-pid
process peaked about 0.2 MB higher.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .spillsim import EnvConfig, run_raw_episode

# Bytes of trace one pass keeps live: the points of a call run in blocks of
# as many (point, seed) rows as fit (72 rows at the default 430 steps and 9
# seeds), which bounds the kernel's memory for any grid.
PID_KERNEL_BYTES = 1 << 18


def batch_sdfs(config: EnvConfig, seeds, points) -> tuple[np.ndarray, np.ndarray]:
    """SDFs of every (point, seed) PID episode; returns (sdfs, exact).

    sdfs and exact have shape (len(points), len(seeds)). exact[i, j] is False
    where the vectorized pass cannot vouch for sdfs[i, j]: the row's trace or
    error sum went non-finite, or, for every row, the derivative term could
    overflow ((clamp_hi - clamp_lo) / dt near the float range) or an episode
    is shorter than two steps.
    """
    gain_rows = np.array(points, dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(gain_rows).all():
        raise ConfigError("gain points must be finite")
    steps = config.steps_per_episode
    sdfs = np.empty((len(gain_rows), len(seeds)))
    exact = np.zeros(sdfs.shape, dtype=bool)
    # with finite samples, |D| stays below 2 * (clamp_hi - clamp_lo) / dt plus rounding
    d_bound = 4.0 * (config.clamp_hi - config.clamp_lo) / config.dt
    if len(seeds) == 0 or steps < 2 or not math.isfinite(d_bound):
        return sdfs, exact
    raw = np.empty((steps, len(seeds)))
    for j, seed in enumerate(seeds):
        raw[:, j] = run_raw_episode(config, seed)
    block = max(1, PID_KERNEL_BYTES // (8 * steps * len(seeds)))
    for start in range(0, len(gain_rows), block):
        stop = start + block
        sdfs[start:stop], exact[start:stop] = _block_sdfs(config, raw, gain_rows[start:stop])
    return sdfs, exact


def _block_sdfs(config: EnvConfig, raw: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SDFs of the PID episodes of every (row, seed) pair; returns (sdfs, exact).

    raw is the (steps, n_seeds) array of raw traces and rows the (kp, ki, kd)
    points. exact[i, j] is False where the trace or the error sum went
    non-finite; sdfs[i, j] means nothing there. Inside, row b * n_seeds + j
    is point b on seed j, and every operand is a full-length array, because
    at these sizes a ufunc call with a broadcast or Python float operand
    costs about twice one over equal-shape arrays.
    """
    steps, n_seeds = raw.shape
    n = len(rows) * n_seeds
    kp, ki, kd = (np.repeat(rows[:, k], n_seeds) for k in range(3))
    lo, hi, ref, dt, bound, neg_bound = (
        np.full(n, v)
        for v in (config.clamp_lo, config.clamp_hi, config.reference, config.dt,
                  config.action_bound, -config.action_bound)
    )
    trace = np.tile(raw, (1, len(rows)))  # raw samples, corrected in place
    action = np.zeros(n)
    err, prev_err, err_sum = np.empty(n), np.empty(n), np.zeros(n)
    diff_rate = np.zeros(n)  # 0 at t = 0
    term = np.empty(n)
    # overflow and NaN stay silent, as in Python floats; such rows go to the scalar path
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            x = trace[t]
            np.subtract(x, action, out=x)
            np.maximum(x, lo, out=x)
            np.minimum(x, hi, out=x)
            np.subtract(x, ref, out=err)
            np.add(err_sum, err, out=err_sum)
            if t:
                np.subtract(err, prev_err, out=diff_rate)
                np.divide(diff_rate, dt, out=diff_rate)
            # kp*P + ki*I + kd*D, summed left to right as pid_update does
            np.multiply(kp, err, out=action)
            np.multiply(ki, err_sum, out=term)
            np.add(action, term, out=action)
            np.multiply(kd, diff_rate, out=term)
            np.add(action, term, out=action)
            np.maximum(action, neg_bound, out=action)
            np.minimum(action, bound, out=action)
            err, prev_err = prev_err, err
        # metrics.sdf's reduction: np.var of one contiguous 1-D trace per row;
        # a non-finite sample makes the row's variance NaN
        var = np.array([np.var(trace[:, i].copy()) for i in range(n)])
    exact = np.isfinite(var) & np.isfinite(err_sum)
    shape = (len(rows), n_seeds)
    return (1.0 / (1.0 + var)).reshape(shape), exact.reshape(shape)
