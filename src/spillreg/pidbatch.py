"""Vectorized arithmetic of the batched closed-loop kernel.

batch_sdfs steps blocks of closed-loop episodes, one row per (controller,
seed) pair, together through the memoized raw traces with elementwise
float64 numpy operations, and reduces each row's variance as metrics.sdf
does. A controller is a PID point (controllers.pid_sdfs, in the order of
spillsim.closed_loop, controllers.ErrorTracker and controllers.pid_update)
or the coefficients of a linear policy head over the P, I, D features
(ppo.build_report, for report.json's sdf_pid and sdf_rl, in the order of
controllers.StateTracker and gradnet.policy_mean; the PID row has zero w_Act
and bias). Every row it marks exact equals the scalar path bit for bit;
the callers recompute the other rows with the scalar path. A call splits
its rows into as few near-equal blocks as the byte budget PID_KERNEL_BYTES
allows (at most 38 rows at the default 430 steps and 9 seeds), one kernel
pass each. A row's result does not depend on its block.

score_round scores a whole tune_pid refinement round in one batch_sdfs call.

This code is a module of its own because every process that runs without
cached bytecode compiles the package from source, and the compile memory of
the largest modules (controllers and cli, about 1.43 MB each) sets its peak
RSS: with the kernel inside controllers, a tune-pid process peaked 0.2 MB higher.
"""

from __future__ import annotations

import math

import numpy as np

from . import metrics
from .errors import ConfigError
from .spillsim import EnvConfig, run_raw_episode

# Bytes of trace one pass keeps live, which bounds the kernel's memory for
# any grid: a call runs its rows in the fewest blocks of at most as many
# (row, seed) episodes as fit (38 rows at the default 430 steps and 9 seeds),
# split near-equally, so 75 rows run as 38 + 37. A pass costs about the same
# for 9 episodes as for 300 (430 steps of a dozen ufunc calls), so fewer
# passes are faster; 38 rows let tune_pid's 35-point second round on the
# default grid run in one.
PID_KERNEL_BYTES = (1 << 20) + (1 << 17)


def batch_sdfs(config: EnvConfig, seeds, rows) -> tuple[np.ndarray, np.ndarray]:
    """SDFs of every (row, seed) closed-loop episode; returns (sdfs, exact).

    rows is a (n, k) array-like. A row of k = 3 is a PID point (kp, ki, kd),
    whose decision is kp*P + ki*I + kd*D. A row of k = 4 or 5 holds a linear
    policy head's coefficients as LinearActor.coefs() gives them, over the
    pid3 features (w_P, w_I, w_D, bias) or the pid_act features (w_P, w_I,
    w_D, w_Act, bias); its decision is policy_mean's left-to-right sum, Act
    being the action applied to the current sample. Non-finite rows raise
    ConfigError.

    sdfs and exact have shape (n, len(seeds)). exact[i, j] is False where
    the vectorized pass cannot vouch for sdfs[i, j]: the row's trace or
    error sum went non-finite, or, for every row, the derivative term could
    overflow ((clamp_hi - clamp_lo) / dt near the float range) or an episode
    is shorter than two steps.
    """
    rows = np.array(rows, dtype=np.float64)
    if rows.ndim == 1:  # no rows, or one flat PID point
        rows = rows.reshape(-1, 3)
    if not np.isfinite(rows).all():
        raise ConfigError("gain points and policy coefficients must be finite")
    steps = config.steps_per_episode
    sdfs = np.empty((len(rows), len(seeds)))
    exact = np.zeros(sdfs.shape, dtype=bool)
    # with finite samples, |D| stays below 2 * (clamp_hi - clamp_lo) / dt plus rounding
    d_bound = 4.0 * (config.clamp_hi - config.clamp_lo) / config.dt
    if len(seeds) == 0 or len(rows) == 0 or steps < 2 or not math.isfinite(d_bound):
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

    raw is the (steps, n_seeds) array of raw traces and rows the batch_sdfs
    rows. exact[i, j] is False where the trace or the error sum went
    non-finite; sdfs[i, j] means nothing there. Inside, row b * n_seeds + j
    is row b on seed j, and every operand is a full-length array, because
    at these sizes a ufunc call with a broadcast or Python float operand
    costs about twice one over equal-shape arrays. Only linear-head rows pay
    for the w_Act*Act and bias terms.
    """
    steps, n_seeds = raw.shape
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
            if act_w is not None:  # Act is the action applied to x, before it is replaced
                np.multiply(act_w, action, out=act_term)
            # kp*P + ki*I + kd*D (+ w_Act*Act) (+ bias), summed left to right
            # as pid_update and policy_mean do
            np.multiply(kp, err, out=action)
            np.multiply(ki, err_sum, out=term)
            np.add(action, term, out=action)
            np.multiply(kd, diff_rate, out=term)
            np.add(action, term, out=action)
            if act_w is not None:
                np.add(action, act_term, out=action)
            if bias is not None:
                np.add(action, bias, out=action)
            np.maximum(action, neg_bound, out=action)
            np.minimum(action, bound, out=action)
            err, prev_err = prev_err, err
        # metrics.sdf's reduction: np.var over each episode's trace, laid out
        # contiguously so that it reduces with the pairwise sum of one 1-D
        # trace; one row's seeds at a time, so the copies stay small. A
        # non-finite sample makes the episode's variance NaN.
        var = np.concatenate([
            np.var(np.ascontiguousarray(trace[:, i:i + n_seeds].T), axis=1) for i in range(0, n, n_seeds)
        ])
    exact = np.isfinite(var) & np.isfinite(err_sum)
    shape = (len(rows), n_seeds)
    return (1.0 / (1.0 + var)).reshape(shape), exact.reshape(shape)


def score_round(config: EnvConfig, seeds, best, hs, cache: dict) -> None:
    """Cache the mean SDF of every point a tune_pid refinement round could probe.

    The round probes, axis by axis with h = hs[axis] (skipping h == 0),
    best[axis] - h and then best[axis] + h, and either probe may become the
    new best. The points are listed for every such outcome with the round's
    own float ops, so (b - h) + h is a point of its own where it differs
    from b. Those finite and not yet cached are scored in one batch_sdfs
    call, and the ones exact on every seed are cached (ordered_mean over
    the seeds). A visited point left uncached takes tune_pid's scalar
    fallback; an unvisited one is never looked at, so it cannot raise.
    """
    bests = {best: None}  # every point the round's best could be, in first-seen order
    for axis, h in enumerate(hs):
        if h == 0.0:
            continue
        for delta in (-h, h):
            for point in list(bests):
                cand = list(point)
                cand[axis] += delta
                bests.setdefault(tuple(cand))
    todo = [p for p in bests if p not in cache and all(map(math.isfinite, p))]
    sdfs, exact = batch_sdfs(config, seeds, todo)
    for point, row, ok in zip(todo, sdfs.tolist(), exact.all(axis=1)):
        if ok:
            cache[point] = metrics.ordered_mean(row)
