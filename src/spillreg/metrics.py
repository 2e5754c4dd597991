"""Spill quality metrics and reward shaping.

The central figure of merit is the spill duty factor (SDF) of one episode,
the float sdf() returns:

    sdf = 1 / (1 + var(x))

where var(x) is the population variance of the corrected spill trace. A
perfectly flat spill at the reference intensity scores 1; the operational
goal used throughout the package is 0.6 or better.

Rewards seen by the learner are negative moving aggregates of the absolute
tracking error e_t = |x_t - reference|:

    neg_ema   r_t = -EMA_t,  EMA_t = alpha * e_t + (1 - alpha) * EMA_{t-1},
              seeded with EMA_{-1} = 0
    neg_sum   r_t = -(1 / steps_per_episode) * sum_{tau <= t} e_tau

The recursive EMA has the closed form sum_{tau<=t} alpha*(1-alpha)^(t-tau)*e_tau.
RewardAccumulator computes the rewards step by step while an episode runs;
the tests check it against offline series, among them that closed form
evaluated by direct summation.

report_dict turns the per-seed SDFs of ppo.build_report into report.json's
data: the learned controller's improvement over noise and PID, per seed and mean.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InputError

REWARD_KINDS = ("neg_ema", "neg_sum")


def sdf(trace: Sequence[float]) -> float:
    """Spill duty factor of a corrected spill trace.

    Uses the population variance (ddof=0). Requires at least two
    samples; a shorter trace has no meaningful spread. Finite samples can
    still overflow the variance (near 1e308 their sum does); a non-finite
    variance raises InputError, as a non-finite sample does.
    """
    n = len(trace)
    if n < 2:
        raise InputError(f"sdf needs a trace of length >= 2, got {n}")
    arr = np.asarray(trace, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InputError("sdf trace contains non-finite samples")
    with np.errstate(over="ignore", invalid="ignore"):
        var = float(np.var(arr))
    if not math.isfinite(var):
        raise InputError(f"sdf trace variance is non-finite ({var}): the samples overflow float64")
    return 1.0 / (1.0 + var)


def _check_alpha(alpha: float) -> None:
    if isinstance(alpha, bool) or not (isinstance(alpha, (int, float)) and math.isfinite(alpha)):
        raise InputError("alpha must be a finite number")
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"alpha must lie in [0, 1], got {alpha}")


class RewardAccumulator:
    """Incremental per-step reward tracker used while an episode unfolds.

    push() consumes one absolute error and returns the reward for that step.
    The offline series of the tests (the recursive ema_reward and the direct
    sums in tests/oracles.py) must reproduce the pushed sequence exactly.
    """

    def __init__(self, kind: str, alpha: float, steps_per_episode: int):
        if kind not in REWARD_KINDS:
            raise InputError(f"unknown reward kind {kind!r}, expected one of {REWARD_KINDS}")
        _check_alpha(alpha)
        if steps_per_episode < 1:
            raise InputError("steps_per_episode must be >= 1")
        self.kind = kind
        self.alpha = alpha
        self.scale = 1.0 / steps_per_episode
        self._ema = 0.0
        self._running_sum = 0.0

    def push(self, error: float) -> float:
        if not math.isfinite(error) or error < 0.0:
            raise InputError(f"absolute error must be finite and >= 0, got {error}")
        if self.kind == "neg_ema":
            self._ema = self.alpha * error + (1.0 - self.alpha) * self._ema
            return -self._ema
        self._running_sum += error
        return -self.scale * self._running_sum


def ordered_mean(values: Sequence[float]) -> float:
    """Mean of floats added one by one in the given order.

    Used for the means of Python lists that reach an output: tune-pid's
    mean_sdf, the scores in tune_pid's one cache, which its search compares,
    and the ablation table's MEAN row. builtin sum() compensates rounding from
    Python 3.12, so a sum()-based mean would change those bytes with the
    Python version. The numpy means elsewhere (report.json's aggregates via
    np.mean, curve.csv's mean_reward via ndarray.mean) need no such care:
    numpy sums float64 with its own pairwise add.reduce, written in C, so
    their bytes follow numpy and the array's layout, not the interpreter.
    """
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def improvement(sdf_new: float, sdf_ref: float) -> float:
    """Relative improvement of sdf_new over sdf_ref, in percent."""
    if sdf_ref <= 0.0:
        raise InputError("reference SDF must be positive")
    return 100.0 * (sdf_new - sdf_ref) / sdf_ref


def report_dict(seeds: Sequence[int], noise: Sequence[float], pid: Sequence[float],
                rl: Sequence[float]) -> dict:
    """report.json's data: per-seed noise/PID/RL SDFs and improvements, plus aggregates.

    Two aggregate styles are reported side by side: the mean of the per-seed
    improvement ratios (primary) and the improvement of the mean SDFs. They
    answer slightly different questions, so both are kept.
    """
    if not seeds:
        raise InputError("report has no per-seed results")
    per_seed = [
        {"seed": seed, "sdf_noise": n, "sdf_pid": p, "sdf_rl": r,
         "vs_pid_pct": improvement(r, p), "vs_noise_pct": improvement(r, n)}
        for seed, n, p, r in zip(seeds, noise, pid, rl)
    ]
    mean_noise, mean_pid, mean_rl = (float(np.mean(column)) for column in (noise, pid, rl))
    # primary aggregates: the mean of the per-seed ratios
    vs_pid = float(np.mean([row["vs_pid_pct"] for row in per_seed]))
    vs_noise = float(np.mean([row["vs_noise_pct"] for row in per_seed]))
    return {
        "per_seed": per_seed,
        "aggregate": {
            "mean_sdf_noise": mean_noise,
            "mean_sdf_pid": mean_pid,
            "mean_sdf_rl": mean_rl,
            "vs_pid_pct": vs_pid,
            "vs_noise_pct": vs_noise,
            "vs_pid_pct_mean_of_ratios": vs_pid,
            "vs_noise_pct_mean_of_ratios": vs_noise,
            "vs_pid_pct_of_means": improvement(mean_rl, mean_pid),
            "vs_noise_pct_of_means": improvement(mean_rl, mean_noise),
        },
    }
