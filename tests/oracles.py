"""Reference implementations that the tests compare the package against.

None of these is used by the package itself:

- ema_reward is the offline EMA reward series by its recursion;
- ema_direct_oracle / ema_direct_series evaluate the EMA reward by direct
  geometric summation, independent of the recursion in ema_reward and
  metrics.RewardAccumulator;
- neg_sum_series is the offline neg_sum reward series;
- surrogate_losses returns the PPO loss components through the code path
  ppo_update optimizes;
- sequential_tune_pid is controllers.tune_pid as it was before its
  refinement rounds were scored in batches: every probe is scored on its
  own, when the search reaches it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from spillreg import metrics
from spillreg.controllers import (
    DEFAULT_GAIN_GRID,
    GainGrid,
    PidGains,
    _axis_step,
    pid_sdfs,
    pid_seed_sdfs,
)
from spillreg.errors import ConfigError, InputError
from spillreg.metrics import _check_alpha
from spillreg.ppo import LossReport, _minibatch_step
from spillreg.spillsim import EnvConfig


def ema_reward(errors: Sequence[float], alpha: float) -> list[float]:
    """Reward series r_t = -EMA_t over an absolute-error series.

    The recursion starts from EMA_{-1} = 0, so r_0 = -alpha * e_0.
    """
    _check_alpha(alpha)
    rewards = []
    ema = 0.0
    for e in errors:
        ema = alpha * e + (1.0 - alpha) * ema
        rewards.append(-ema)
    return rewards


def ema_direct_oracle(errors: Sequence[float], alpha: float, t: int) -> float:
    """EMA_t evaluated by direct summation: sum_{tau<=t} alpha*(1-alpha)^(t-tau)*e_tau.

    Independent of the recursion in ema_reward(); intended as a test oracle.
    Returns the positive EMA value (the reward at t is its negation).
    """
    _check_alpha(alpha)
    if not 0 <= t < len(errors):
        raise InputError(f"t={t} outside the error series of length {len(errors)}")
    e = np.asarray(errors[: t + 1], dtype=np.float64)
    # powers (1-alpha)^(t-tau) for tau = 0..t, with 0^0 = 1 so alpha=1 works
    decay = np.power(1.0 - alpha, np.arange(t, -1, -1, dtype=np.float64))
    return float(alpha * np.dot(decay, e))


def ema_direct_series(errors: Sequence[float], alpha: float) -> np.ndarray:
    """All EMA_t values by direct summation, vectorized over t.

    Equivalent to [ema_direct_oracle(errors, alpha, t) for t in range(T)]
    but built from one lower-triangular weight matrix so long batches stay
    inside the acceptance-suite time budget.
    """
    _check_alpha(alpha)
    e = np.asarray(errors, dtype=np.float64)
    t_len = e.shape[0]
    if t_len == 0:
        return np.zeros(0)
    lag = np.arange(t_len)[:, None] - np.arange(t_len)[None, :]
    weights = np.where(lag >= 0, np.power(1.0 - alpha, np.maximum(lag, 0)), 0.0)
    return alpha * (weights @ e)


def neg_sum_series(errors: Sequence[float], steps_per_episode: int) -> list[float]:
    """Offline neg_sum reward series matching RewardAccumulator('neg_sum', ...)."""
    if steps_per_episode < 1:
        raise InputError("steps_per_episode must be >= 1")
    scale = 1.0 / steps_per_episode
    out = []
    total = 0.0
    for e in errors:
        total += e
        out.append(-scale * total)
    return out


def surrogate_losses(
    actor, critic, states, actions, logp_old, advantages, returns, cfg,
    steps=None, horizon=None,
) -> LossReport:
    """Loss components only, via the same code path ppo_update optimizes."""
    states = np.asarray(states, dtype=np.float64)
    n = states.shape[0]
    arrays = [np.asarray(a, dtype=np.float64) for a in (actions, logp_old, advantages, returns)]
    components, _, _ = _minibatch_step(
        actor, critic, states, *arrays, cfg,
        steps=np.arange(n) if steps is None else np.asarray(steps),
        horizon=n if horizon is None else horizon,
    )
    return components


def sequential_tune_pid(config: EnvConfig, seeds: list[int], grid: GainGrid = DEFAULT_GAIN_GRID) -> PidGains:
    """Grid search maximizing mean SDF over seeds, plus coordinate refinement.

    After the exhaustive grid pass the best point is polished by one
    coordinate-descent pass: 3 rounds over the axes, probing +-step with the
    step halved each round (initial step = half the axis spacing). Ties are
    broken toward the smallest (|kp|, |ki|, |kd|) lexicographically. The grid
    pass is one pid_sdfs call; each probe is one call over the seeds.
    """
    if not seeds:
        raise ConfigError("tune_pid needs a non-empty seed list")
    cache: dict[tuple[float, float, float], float] = {}

    def mean_sdf(point: tuple[float, float, float]) -> float:
        if point not in cache:
            gains = PidGains(point[0], point[1], point[2], dt=config.dt)
            cache[point] = metrics.ordered_mean(pid_seed_sdfs(config, seeds, gains))
        return cache[point]

    def magnitude(point: tuple[float, float, float]) -> tuple[float, float, float]:
        return (abs(point[0]), abs(point[1]), abs(point[2]))

    grid_points = [(kp, ki, kd) for kp in grid.kp for ki in grid.ki for kd in grid.kd]
    for point, sdfs in zip(grid_points, pid_sdfs(config, seeds, grid_points).tolist()):
        cache.setdefault(point, metrics.ordered_mean(sdfs))

    best: tuple[float, float, float] | None = None
    best_score = -math.inf
    for point in grid_points:
        score = cache[point]
        if best is None or score > best_score or (
            score == best_score and magnitude(point) < magnitude(best)
        ):
            best, best_score = point, score

    steps = [_axis_step(grid.kp), _axis_step(grid.ki), _axis_step(grid.kd)]
    for rnd in range(1, 4):
        for axis in range(3):
            h = steps[axis] / (2.0 ** rnd)
            if h == 0.0:
                continue
            for delta in (-h, h):
                cand = list(best)
                cand[axis] += delta
                point = (cand[0], cand[1], cand[2])
                score = mean_sdf(point)
                if score > best_score or (score == best_score and magnitude(point) < magnitude(best)):
                    best, best_score = point, score
    return PidGains(best[0], best[1], best[2], dt=config.dt)
