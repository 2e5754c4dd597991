"""The policy heads' Gaussian base and PPO's minibatch objective.

GaussianPolicy is what controllers' LinearActor and NnActor share: a
gradnet.DenseNet mean over scaled features, log_std and Gaussian
exploration, in one float64 vector; policy_mean is the linear head's
plain-float mean of one state. ppo_step is PPO's clipped objective on
one minibatch with its exact gradients, written out here and run through
gradnet.forward and gradnet.backward on one buffer tape per learner;
ppo.ppo_update runs every minibatch through one and steps the optimizer.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import gradnet
from .errors import DivergenceError

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_ENTROPY_OFFSET = 0.5 * math.log(2.0 * math.pi * math.e)  # Gaussian entropy minus log_std


def clamp_log_std(log_std: float) -> float:
    return min(max(log_std, LOG_STD_MIN), LOG_STD_MAX)


def gaussian_log_prob(x: float, mean: float, log_std: float) -> float:
    std = math.exp(log_std)
    z = (x - mean) / std
    return -0.5 * z * z - log_std - _HALF_LOG_TWO_PI


def policy_mean(weights, bias: float, state: tuple[float, ...]) -> float:
    """Deterministic mean action of the linear policy for a feature tuple.

    Four features (PIDAct, CDOver) use weights[0..3], three (PID3) use
    weights[0..2]. The sum runs left to right in the order of
    controllers.pid_update, so the PID embedding (action weight = bias = 0)
    is exact, not just close.
    """
    w, v = weights, state
    if len(v) == 4:
        return w[0] * v[0] + w[1] * v[1] + w[2] * v[2] + w[3] * v[3] + bias
    return w[0] * v[0] + w[1] * v[1] + w[2] * v[2] + bias


class GaussianPolicy:
    """What the policy heads share: flat = [net.flat | log_std], a one-output
    DenseNet mean over scaled states (states / scales) and Gaussian
    exploration around it, std exp(log_std_arr[0]). The net's parameters
    and log_std_arr are views into flat. A subclass defines mean (of one
    state tuple) and label (its name in a divergence error), and may read
    its parameters once per episode in episode_mean."""

    label: str

    def __init__(self, net: gradnet.DenseNet, scales: np.ndarray, log_std: float):
        self.net, self._scales = net, scales
        self.use(np.append(net.flat, clamp_log_std(log_std)))

    def use(self, flat: np.ndarray) -> None:
        """View flat, laid out [net.flat | log_std], as the parameters from now on (no copy)."""
        self.net.use(flat[:-1])
        self.flat, self.log_std_arr = flat, flat[-1:]

    def parameters(self) -> list[np.ndarray]:
        """Views of flat in order: [W0, b0, ..., log_std]."""
        return [*self.net.parameters(), self.log_std_arr]

    def scale(self, states: np.ndarray) -> np.ndarray:
        """States in the units the mean is defined over: the input of mean_scaled."""
        return states / self._scales

    def episode_mean(self):
        """The mean as one function of a state tuple, for an episode in which the policy does not change."""
        return self.mean

    def sampler(self, rng):
        """The episode's draw, state -> (action, log_prob), action ~ Normal(mean, exp(log_std)^2), the mean
        function and the clamped log_std read once. The action is the raw sample the log probability
        refers to; callers clamp it to the actuation bound. rng has a normal() -> N(0, 1)."""
        mean = self.episode_mean()
        log_std = clamp_log_std(float(self.log_std_arr[0]))
        std = math.exp(log_std)

        def draw(state):
            m = mean(state)
            action = m + std * rng.normal()
            return action, gaussian_log_prob(action, m, log_std)

        return draw

    def mean_scaled(self, scaled: np.ndarray, tape: gradnet.Tape | None = None) -> tuple[np.ndarray, gradnet.Tape]:
        """(mean actions, tape for mean_grads) of scaled states, through tape if given (forward)."""
        out, tape = gradnet.forward(self.net, scaled, tape)
        return out[:, 0], tape

    def mean_grads(self, tape: gradnet.Tape, dmu: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Gradient of sum(mean * dmu) w.r.t. flat[:-1] (the net's parameters), written into out."""
        return gradnet.backward(self.net, tape, dmu.reshape(-1, 1), out)

    def finalize_update(self) -> None:
        """After an optimizer step: clamp log_std, invalidate tapes, refuse non-finite parameters."""
        self.log_std_arr[0] = clamp_log_std(float(self.log_std_arr[0]))
        self.net.bump_version()
        if not np.isfinite(self.flat).all():
            raise DivergenceError(f"{self.label} parameters became non-finite")


class LossReport(NamedTuple):
    actor_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float


def ppo_step(actor, critic: gradnet.DenseNet, cfg, grads: np.ndarray):
    """PPO's objective and its exact gradients, as one function of a minibatch's rows.

    step(actor_x, critic_x, actions, logp_old, advantages, returns), on rows
    of actor.scale(states) and ppo.critic_inputs, returns the LossReport
    components of actor + value_coef * value - entropy_coef * entropy (cfg:
    a ppo.TrainConfig): the clipped surrogate of a Gaussian policy and a
    squared-error value loss. It writes their gradients into grads, laid out
    [actor.flat | critic.flat], and raises DivergenceError on a non-finite
    loss. A minibatch has at most cfg.minibatch rows: the step keeps one
    buffer_tape of that many per learner, and row views of it for fewer.
    """
    split = actor.flat.size
    actor_grads, mean_grads, critic_grads = grads[:split], grads[:split - 1], grads[split:]
    full = (gradnet.buffer_tape(actor.net, cfg.minibatch), gradnet.buffer_tape(critic, cfg.minibatch))
    tapes = {}
    low, high = 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps

    def step(actor_x, critic_x, actions, logp_old, advantages, returns):
        n = actions.shape[0]
        if n not in tapes:
            tapes[n] = tuple(tape.head(n) for tape in full)
        actor_tape, critic_tape = tapes[n]
        log_std = float(actor.log_std_arr[0])
        std = math.exp(log_std)

        mu, _ = actor.mean_scaled(actor_x, actor_tape)
        z = (actions - mu) / std
        logp_new = -0.5 * z * z - log_std - _HALF_LOG_TWO_PI
        ratio = np.exp(logp_new - logp_old)
        surr1 = ratio * advantages
        surr2 = np.minimum(np.maximum(ratio, low), high) * advantages
        # float(a.mean()) is float(np.add.reduce(a)) / n, bit for bit
        actor_loss = -(float(np.add.reduce(np.minimum(surr1, surr2))) / n)
        clip_fraction = np.count_nonzero(np.abs(ratio - 1.0) > cfg.clip_eps) / n
        entropy = log_std + _ENTROPY_OFFSET

        v_out, _ = gradnet.forward(critic, critic_x, critic_tape)
        v_err = v_out[:, 0] - returns
        value_loss = float(np.add.reduce(v_err * v_err)) / n

        if not (math.isfinite(actor_loss) and math.isfinite(value_loss)):
            raise DivergenceError(
                "non-finite loss in ppo update",
                diagnostics={"actor_loss": actor_loss, "value_loss": value_loss},
            )

        # d(actor_loss)/d(ratio): only the unclipped branch carries gradient
        # (inside the clip band both branches coincide, so ties route cleanly)
        dratio = np.where(surr1 <= surr2, advantages, 0.0) * (-1.0 / n)
        dlogp = dratio * ratio
        dmu = dlogp * z / std  # d logp / d mu = z / std
        actor.mean_grads(actor_tape, dmu, mean_grads)
        actor_grads[-1] = float(np.dot(dlogp, z * z - 1.0)) - cfg.entropy_coef * 1.0
        dv = cfg.value_coef * (2.0 / n) * v_err
        gradnet.backward(critic, critic_tape, dv.reshape(n, 1), critic_grads)
        return actor_loss, value_loss, entropy, clip_fraction

    return step
