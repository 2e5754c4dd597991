"""Reference implementations that the tests compare the package against.

None of these is used by the package itself:

- ema_reward is the offline EMA reward series by its recursion; it and
  the direct sums refuse an alpha outside [0, 1] themselves (check_alpha),
  as metrics.RewardConfig does for the package;
- ema_direct_oracle / ema_direct_series evaluate the EMA reward by direct
  geometric summation, independent of the recursion in ema_reward and
  metrics.RewardAccumulator;
- neg_sum_series is the offline neg_sum reward series;
- surrogate_losses returns the PPO loss components through the code path
  ppo_update optimizes;
- nested_round_points is controllers.round_points as it was, one axis and
  one probe at a time over every point listed so far;
- sequential_tune_pid is controllers.tune_pid without the batched kernel:
  every point, the grid's included, is scored on the scalar path when the
  search reaches it;
- sample is the per-state Gaussian draw the actors' sample() methods made
  before the once-per-episode sampler was their only one: log_std read,
  clamped and exponentiated on every call;
- dense_forward / dense_backward, minibatch_step and ppo_update are
  gradnet.forward / backward, the PPO minibatch gradient (now
  policy.ppo_step) and ppo.ppo_update as they were before the lean
  inner loop: a tape of pre-activations, a multiply by
  the activation derivative on every layer (ones for identity), the critic
  inputs, shuffle keys and gradients rebuilt per minibatch, and an
  optimizer state per learner where ppo.ppo_update now steps one state over
  both learners' joined parameters. The package's versions must match them
  bit for bit;
- _mean_batch / _mean_grads are the policy head's minibatch mean and its
  gradient as the heads computed them apart: the linear head as the matvec
  scaled @ w + bias and its transpose (tape.T @ dmu, dmu.sum()), which
  the package now runs through a one-layer identity DenseNet, and the NN
  head through dense_forward / dense_backward;
- compute_gae is ppo.compute_gae as it was, on numpy scalars, with its
  per-step dones column.
- init_dense_weights draws gradnet.init_dense's weights as it did before
  its bulk draw: one rng.uniform call per weight, row by row.
- two_call_build_report is ppo.build_report as it was before the PID
  baseline and a linear policy shared one kernel pass: the baseline on its
  own, here on the scalar path, then the policy's pass (kernel_actor_sdfs).

first_difference is not a reference but the comparison the bit-for-bit
tests assert through: it names the first differing entry, so that a
failure reports an index instead of pytest's diff of two large lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from spillreg import gradnet, metrics, pidbatch
from spillreg.controllers import (
    DEFAULT_GAIN_GRID,
    VARIANT_CD_OVER,
    GainGrid,
    PidGains,
    _axis_step,
    run_pid_episode,
)
from spillreg.errors import ConfigError, DivergenceError, InputError
from spillreg.metrics import report_dict
from spillreg.controllers import LinearActor
from spillreg.policy import LossReport, clamp_log_std, gaussian_log_prob, ppo_step
from spillreg.ppo import critic_inputs, evaluate_actor_sdf
from spillreg.spillsim import EnvConfig, run_raw_episode


def first_difference(ours: Sequence, reference: Sequence):
    """Where two lists of records first differ, or None where ours == reference.

    A record is a tuple, a list or a single value; records and their fields
    compare with ==, as list equality compares them. Returns (i, j) for
    field j of record i, (i, None) where record i differs as a whole (its
    length or its type), and (n, None) where one list ends at n.
    """
    if ours == reference:
        return None
    for i, (a, b) in enumerate(zip(ours, reference)):
        if [a] == [b]:
            continue
        if isinstance(a, (tuple, list)) and type(a) is type(b) and len(a) == len(b):
            return i, next(j for j, (x, y) in enumerate(zip(a, b)) if [x] != [y])
        return i, None
    return min(len(ours), len(reference)), None


def check_alpha(alpha: float) -> None:
    if isinstance(alpha, bool) or not (isinstance(alpha, (int, float)) and math.isfinite(alpha)):
        raise InputError("alpha must be a finite number")
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"alpha must lie in [0, 1], got {alpha}")


def ema_reward(errors: Sequence[float], alpha: float) -> list[float]:
    """Reward series r_t = -EMA_t over an absolute-error series.

    The recursion starts from EMA_{-1} = 0, so r_0 = -alpha * e_0.
    """
    check_alpha(alpha)
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
    check_alpha(alpha)
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
    check_alpha(alpha)
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
    critic_x = critic_inputs(
        states, np.arange(n) if steps is None else np.asarray(steps), n if horizon is None else horizon,
        actor.variant,
    )
    step = ppo_step(actor, critic, cfg, np.empty(actor.flat.size + critic.flat.size))
    return LossReport(*step(actor.scale(states), critic_x, *arrays))


def nested_round_points(best, hs) -> list[tuple[float, float, float]]:
    """Every point a tune_pid refinement round could probe, best first, in first-seen order.

    Axis by axis (skipping h == 0), each probe best[axis] - h and then
    best[axis] + h is applied to every point listed so far, with the
    round's own float ops.
    """
    bests = {best: None}
    for axis, h in enumerate(hs):
        if h == 0.0:
            continue
        for delta in (-h, h):
            for point in list(bests):
                cand = list(point)
                cand[axis] += delta
                bests.setdefault(tuple(cand))
    return list(bests)


def sequential_tune_pid(
    config: EnvConfig, seeds: list[int], grid: GainGrid = DEFAULT_GAIN_GRID
) -> tuple[PidGains, float]:
    """Grid search maximizing mean SDF over seeds, plus coordinate refinement.

    Returns the best gains and the mean SDF the search scored them by.

    After the exhaustive grid pass the best point is polished by one
    coordinate-descent pass: 3 rounds over the axes, probing +-step with the
    step halved each round (initial step = half the axis spacing). Ties are
    broken toward the smallest (|kp|, |ki|, |kd|) lexicographically. Each
    point runs its seeds on the scalar path (run_pid_episode) once.
    """
    if not seeds:
        raise ConfigError("tune_pid needs a non-empty seed list")
    cache: dict[tuple[float, float, float], float] = {}

    def mean_sdf(point: tuple[float, float, float]) -> float:
        if point not in cache:
            gains = PidGains(point[0], point[1], point[2], dt=config.dt)
            cache[point] = metrics.ordered_mean(scalar_pid_sdfs(config, gains, seeds))
        return cache[point]

    def magnitude(point: tuple[float, float, float]) -> tuple[float, float, float]:
        return (abs(point[0]), abs(point[1]), abs(point[2]))

    grid_points = [(kp, ki, kd) for kp in grid.kp for ki in grid.ki for kd in grid.kd]
    best: tuple[float, float, float] | None = None
    best_score = -math.inf
    for point in grid_points:
        score = mean_sdf(point)
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
    return PidGains(best[0], best[1], best[2], dt=config.dt), best_score


def scalar_pid_sdfs(config: EnvConfig, gains: PidGains, seeds) -> list[float]:
    """SDF of the PID episode on each seed, in seed order, on the scalar path."""
    return [metrics.sdf(run_pid_episode(config, seed, gains)) for seed in seeds]


def sample(actor, state, rng) -> tuple[float, float]:
    """(action, log_prob) of one draw around actor.mean(state), std exp(log_std)."""
    log_std = clamp_log_std(float(actor.log_std_arr[0]))
    mean = actor.mean(state)
    action = mean + math.exp(log_std) * rng.normal()
    return action, gaussian_log_prob(action, mean, log_std)


# --- the PPO inner loop before its lean rewrite -------------------------------

@dataclass
class DenseTape:
    inputs: list[np.ndarray]  # input to each layer, shape (n, in)
    pre_acts: list[np.ndarray]  # affine outputs before activation
    outputs: list[np.ndarray]  # post-activation outputs


def _activation_grad(name: str, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return 1.0 - out * out
    return np.ones_like(z)


def dense_forward(net: gradnet.DenseNet, x: np.ndarray) -> tuple[np.ndarray, DenseTape]:
    """(output, tape) of an (n, in) batch."""
    inputs, pre_acts, outputs = [], [], []
    h = np.asarray(x, dtype=np.float64)
    for weight, bias, activation in zip(net.weights, net.biases, net.activations):
        inputs.append(h)
        z = h @ weight.T + bias
        out = np.tanh(z) if activation == "tanh" else z
        pre_acts.append(z)
        outputs.append(out)
        h = out
    return h, DenseTape(inputs, pre_acts, outputs)


def dense_backward(net: gradnet.DenseNet, tape: DenseTape, grad_output: np.ndarray) -> np.ndarray:
    """The flat parameter gradient."""
    g = np.asarray(grad_output, dtype=np.float64)
    flat = np.empty_like(net.flat)
    param_grads = net.unflatten(flat)
    for idx in range(len(net.weights) - 1, -1, -1):
        ga = g * _activation_grad(net.activations[idx], tape.pre_acts[idx], tape.outputs[idx])
        param_grads[2 * idx][...] = ga.T @ tape.inputs[idx]
        param_grads[2 * idx + 1][...] = ga.sum(axis=0)
        g = ga @ net.weights[idx]
    return flat


def _mean_batch(actor, states):
    if isinstance(actor, LinearActor):
        scaled = states / actor._scales
        return scaled @ actor.net.weights[0][0] + actor.net.biases[0][0], scaled
    out, tape = dense_forward(actor.net, states / actor._scales)
    return out[:, 0], tape


def _mean_grads(actor, tape, dmu):
    if isinstance(actor, LinearActor):
        return np.append(tape.T @ dmu, dmu.sum())
    return dense_backward(actor.net, tape, dmu[:, None])


def minibatch_step(actor, critic, states, actions, logp_old, advantages, returns, cfg, steps, horizon):
    """(components, actor_grads, critic_grads) for one minibatch."""
    n = states.shape[0]
    log_std = float(actor.log_std_arr[0])
    std = math.exp(log_std)

    mu, tape = _mean_batch(actor, states)
    z = (actions - mu) / std
    logp_new = -0.5 * z * z - log_std - 0.5 * math.log(2.0 * math.pi)
    ratio = np.exp(logp_new - logp_old)
    surr1 = ratio * advantages
    clipped_ratio = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps)
    surr2 = clipped_ratio * advantages
    per_sample = np.minimum(surr1, surr2)
    actor_loss = -float(per_sample.mean())
    clip_fraction = float(np.mean(np.abs(ratio - 1.0) > cfg.clip_eps))
    entropy = log_std + 0.5 * math.log(2.0 * math.pi * math.e)

    v_out, v_tape = dense_forward(critic, critic_inputs(states, steps, horizon, actor.variant))
    v = v_out[:, 0]
    v_err = v - returns
    value_loss = float(np.mean(v_err * v_err))

    if not (math.isfinite(actor_loss) and math.isfinite(value_loss)):
        raise DivergenceError(
            "non-finite loss in ppo update",
            diagnostics={"actor_loss": actor_loss, "value_loss": value_loss},
        )

    active = surr1 <= surr2
    dratio = np.where(active, advantages, 0.0) * (-1.0 / n)
    dlogp = dratio * ratio
    dmu = dlogp * z / std
    dlogstd_actor = float(np.dot(dlogp, z * z - 1.0))
    dlogstd = dlogstd_actor - cfg.entropy_coef * 1.0

    actor_grads = np.append(_mean_grads(actor, tape, dmu), dlogstd)

    dv = cfg.value_coef * (2.0 / n) * v_err
    critic_grads = dense_backward(critic, v_tape, dv[:, None])

    return LossReport(actor_loss, value_loss, entropy, clip_fraction), actor_grads, critic_grads


def scratch(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two scratch vectors that gradnet's optimizer steps take."""
    return np.empty_like(params), np.empty_like(params)


def ppo_update(actor, critic, rollout, advantages, returns, cfg, rng, actor_opt, critic_opt) -> LossReport:
    n = len(rollout.actions)
    sums = np.zeros(4)
    batches = 0
    for _ in range(cfg.epochs_per_iter):
        keys = np.asarray([rng.random() for _ in range(n)])
        perm = np.argsort(keys, kind="stable")
        for start in range(0, n, cfg.minibatch):
            mb = perm[start : start + cfg.minibatch]
            components, actor_grads, critic_grads = minibatch_step(
                actor, critic, rollout.states[mb], rollout.actions[mb], rollout.log_probs[mb],
                advantages[mb], returns[mb], cfg, steps=mb, horizon=n,
            )
            gradnet.optimizer_step(actor_opt, actor.flat, actor_grads, scratch(actor.flat))
            actor.finalize_update()
            gradnet.optimizer_step(critic_opt, critic.flat, critic_grads, scratch(critic.flat))
            critic.bump_version()
            sums += components
            batches += 1
    return LossReport(*(float(m) for m in sums / batches))


def compute_gae(rewards, values, dones, gamma: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    n = len(rewards)
    advantages = np.zeros(n, dtype=np.float64)
    gae = 0.0
    for t in range(n - 1, -1, -1):
        nonterminal = 0.0 if dones[t] else 1.0
        v_next = values[t + 1] if t + 1 < n else 0.0
        delta = rewards[t] + gamma * v_next * nonterminal - values[t]
        gae = delta + gamma * lam * nonterminal * gae
        advantages[t] = gae
    return advantages, advantages + values


def init_dense_weights(layer_dims, activations, rng, hidden_gain=math.sqrt(2.0), out_gain=0.01):
    weights = []
    for i in range(len(activations)):
        fan_in, fan_out = layer_dims[i], layer_dims[i + 1]
        gain = out_gain if i == len(activations) - 1 else hidden_gain
        limit = gain * math.sqrt(3.0 / fan_in)
        w = np.empty((fan_out, fan_in), dtype=np.float64)
        for r in range(fan_out):
            for c in range(fan_in):
                w[r, c] = rng.uniform(-limit, limit)
        weights.append(w)
    return weights


# --- the report before its PID and policy rows shared a kernel pass -----------

def kernel_actor_sdfs(env_cfg: EnvConfig, actor, seeds: tuple[int, ...]) -> list[float]:
    """Mean-action SDF of actor on each seed, in seed order.

    A finite LinearActor over P, I, D (pid_act, pid3) runs every seed in one
    pass of the batched kernel (pidbatch.batch_sdfs). Seeds that pass cannot
    vouch for, and any other actor, run evaluate_actor_sdf, which raises the
    scalar path's errors.
    """
    sdfs, exact = [0.0] * len(seeds), [False] * len(seeds)
    linear = isinstance(actor, LinearActor) and actor.variant != VARIANT_CD_OVER
    if linear and np.isfinite(actor.flat[:-1]).all():
        rows, ok = pidbatch.batch_sdfs(env_cfg, seeds, [actor.coefs()])
        sdfs, exact = rows[0].tolist(), ok[0]
    return [s if e else evaluate_actor_sdf(env_cfg, actor, seed) for seed, s, e in zip(seeds, sdfs, exact)]


def two_call_build_report(
    env_cfg: EnvConfig,
    gains: PidGains,
    actor,
    seeds: tuple[int, ...],
) -> dict:
    """Per-seed noise/PID/RL SDF comparison, in seed order."""
    pid, rl = scalar_pid_sdfs(env_cfg, gains, seeds), kernel_actor_sdfs(env_cfg, actor, seeds)
    noise = [metrics.sdf(run_raw_episode(env_cfg, seed)) for seed in seeds]
    return report_dict(seeds, noise, pid, rl)
