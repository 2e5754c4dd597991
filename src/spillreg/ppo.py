"""PPO training loop for the spill-regulation policies.

One training iteration is one full episode (430 steps by default): collect a
rollout with the stochastic policy, compute GAE advantages against the critic,
then run several epochs of clipped-surrogate minibatch updates. Nets and
gradients come from gradnet; no autograd framework is involved, so the
gradient of the Gaussian log-probability and of the clipped ratio objective
are written out explicitly in policy.ppo_step.

A Run's reward is a metrics.RewardConfig, the record metrics owns and
checks; the rollout turns it into rewards through metrics.RewardAccumulator.
A run keeps the parameters of both learners in one float64 vector,
params = [actor.flat | critic.flat] (join_parameters), and one Adam state
(gradnet.AdamState) steps all of it in place, once per minibatch. Adam,
the one optimizer, is elementwise and both learners share lr, betas, eps
and the step count, so this steps each learner exactly as a state of its
own would.
Checkpoints still record one optimizer state per learner, cut from the one.
The rollout reads the policy once per episode (actor.sampler) and returns
its transitions as one immutable Rollout, with the critic's inputs and
values of its states. ppo_update runs every minibatch through one
policy.ppo_step, whose buffers last the update. Each epoch argsorts one
bulk draw of integer shuffle keys (Xoshiro256StarStar.randbits53), gathers
the rows once in that order, and takes each minibatch as a slice of
contiguous rows, so its products see the layouts a per-minibatch gather
gave them.

Determinism: every random draw flows from the master seed through named
streams (init / sampling / shuffling), and each training episode runs on
the env seed of its rotation slot. Evaluation-grade episodes (baselines,
reports) use the raw seeds directly so they are comparable across runs and
tools. Fixed master seed means bit-identical parameters, curves, and
checkpoints.

A Run (configs, gains, variants, master seed) is what train takes. Checkpoints
and reports are data that cli writes: checkpoint_dict records a Run and its
learners' state, restore_from_checkpoint rebuilds both from it (cli reads
the file), and build_report returns metrics.report_dict's data. A checkpoint
holds its parameter and Adam blocks as 1-D float64 array copies
(gradnet.net_to_dict, gradnet.adam_to_dict), everything else as plain
Python values; cli.write_output writes the arrays as JSON lists. train takes
one checkpoint per iteration as its last good state, and the copies keep it
as it was while params and the optimizer state are stepped in place.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import gradnet, metrics, pidbatch, policy
from .controllers import (
    STATE_DIMS,
    VARIANT_CD_OVER,
    LinearActor,
    NnActor,
    PidGains,
    StateTracker,
    _check_dt,
    actor_from_dict,
    feature_scales,
    make_actor,
    run_pid_episode,
)
from .errors import CheckpointError, ConfigError, DivergenceError, SpillRegError
from .metrics import RewardConfig
from .policy import LossReport
from .rng import Xoshiro256StarStar, check_seed, derive_seed
from .spillsim import ConfigRecord, EnvConfig, closed_loop, run_raw_episode

# named sub-streams of the master seed
STREAM_INIT = 1
STREAM_SAMPLE = 2
STREAM_SHUFFLE = 3

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig(ConfigRecord):
    section = "train"

    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_eps: float = 0.2
    epochs_per_iter: int = 10
    minibatch: int = 64
    value_coef: float = 0.5
    entropy_coef: float = 0.0
    lr: float = 1e-4
    iterations: int = 600
    alpha: float = 0.5  # EMA alpha used when no explicit RewardConfig is given
    seed_rotation_period: int = 1000
    seeds: tuple[int, ...] = tuple(range(9))
    optimizer: str = "adam"

    def __post_init__(self):
        self.check_numbers()
        try:  # operator.index takes any integer type, bool too, so bool is refused first
            if any(isinstance(s, bool) for s in self.seeds):
                raise TypeError
            object.__setattr__(self, "seeds", tuple(map(operator.index, self.seeds)))
        except TypeError:
            raise ConfigError(f"seeds must be a list of integers, got {self.seeds!r}") from None
        self.validate()

    def validate(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ConfigError(f"gae_lambda must lie in [0, 1], got {self.gae_lambda}")
        if not (self.clip_eps > 0 and math.isfinite(self.clip_eps)):
            raise ConfigError(f"clip_eps must be finite and > 0, got {self.clip_eps}")
        for name, low in (("epochs_per_iter", 1), ("minibatch", 1), ("iterations", 0), ("seed_rotation_period", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < low:  # bool is not a count
                raise ConfigError(f"{name} must be an integer >= {low}, got {value}")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        for seed in self.seeds:
            check_seed(seed, "seeds entry")
        if self.optimizer != "adam":  # recorded in every checkpoint and manifest; Adam is the one optimizer
            raise ConfigError(f"optimizer must be 'adam', got {self.optimizer!r}")
        if not (0.0 <= self.value_coef and math.isfinite(self.value_coef)):
            raise ConfigError(f"value_coef must be finite and >= 0, got {self.value_coef}")
        if not math.isfinite(self.entropy_coef):
            raise ConfigError(f"entropy_coef must be finite, got {self.entropy_coef}")


@dataclass(frozen=True)
class Run:
    """What train needs and a checkpoint records; train refuses gains of None.

    A reward of None becomes the neg_ema reward at train.alpha.
    """

    env: EnvConfig
    train: TrainConfig
    gains: PidGains | None
    reward: RewardConfig | None = None
    policy_variant: str = "pid"
    state_variant: str = "pid_act"
    master_seed: int = 0

    def __post_init__(self):
        if self.reward is None:
            object.__setattr__(self, "reward", RewardConfig("neg_ema", self.train.alpha))


@dataclass(frozen=True)
class Rollout:
    """One episode of checked transitions, in step order; its last step is terminal.

    critic_x is critic_inputs of states and values the critic's output on
    it, both from the critic as it was when the episode was collected.
    """

    states: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray
    critic_x: np.ndarray
    values: np.ndarray
    corrected_trace: list[float]


def _check_transition(step: int, action: float, log_prob: float, reward: float) -> None:
    if not (math.isfinite(action) and math.isfinite(log_prob) and math.isfinite(reward)):
        raise DivergenceError(
            f"non-finite transition at step {step}",
            diagnostics={"action": action, "log_prob": log_prob, "reward": reward},
        )


def collect_rollout(
    env_cfg: EnvConfig,
    seed: int,
    actor,
    critic: gradnet.DenseNet,
    reward_cfg: RewardConfig,
    rng: Xoshiro256StarStar,
) -> Rollout:
    """Run one full stochastic episode on env seed `seed`; return its Rollout.

    The decision after observing x_t is applied to x_{t+1} (the one-step
    delay of spillsim.closed_loop); the stored action is the pre-clamp
    Gaussian sample and Act features see the clamped, actually-applied value.
    A package error inside step t is re-raised as its own type, prefixed
    "rollout step t: "; a non-finite action, log probability or reward
    raises DivergenceError.
    """
    tracker = StateTracker(env_cfg, actor.variant)
    racc = metrics.RewardAccumulator(reward_cfg, env_cfg.steps_per_episode)
    n = env_cfg.steps_per_episode
    sample = actor.sampler(rng)
    reference = env_cfg.reference
    states: list[tuple[float, ...]] = []
    actions: list[float] = []
    log_probs: list[float] = []
    rewards: list[float] = []

    def control(t: int, raw: float, x: float, applied: float) -> float:
        try:
            sv = tracker.push(raw, x, applied)
            reward = racc.push(abs(x - reference))
            action, log_prob = sample(sv)
        except SpillRegError as exc:
            raise type(exc)(f"rollout step {t}: {exc}") from exc
        _check_transition(t, action, log_prob, reward)
        states.append(sv)
        actions.append(action)
        log_probs.append(log_prob)
        rewards.append(reward)
        return action

    _, corrected_trace, _ = closed_loop(env_cfg, seed, control)
    state_rows = np.array(states, dtype=np.float64)
    critic_x = critic_inputs(state_rows, np.arange(n), n, actor.variant)
    values = gradnet.forward(critic, critic_x)
    return Rollout(
        states=state_rows,
        actions=np.array(actions, dtype=np.float64),
        log_probs=np.array(log_probs, dtype=np.float64),
        rewards=np.array(rewards, dtype=np.float64),
        critic_x=critic_x,
        values=values[:, 0],
        corrected_trace=corrected_trace,
    )


def critic_inputs(states: np.ndarray, steps: np.ndarray, horizon: int, variant: str) -> np.ndarray:
    """Scaled state features plus normalized episode time.

    Episodes have a fixed horizon, so the value of a state depends strongly
    on how much episode is left; the critic sees t/T as an extra input. The
    policy never does (its feature set is part of the controller contract).
    """
    scaled = states / feature_scales(variant)
    t_frac = (np.asarray(steps, dtype=np.float64) / horizon)[:, None]
    return np.concatenate([scaled, t_frac], axis=1)


def compute_gae(rewards: np.ndarray, values: np.ndarray, gamma: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """GAE advantages and returns (unnormalized) of one episode whose last step is terminal.

    delta_t = r_t + gamma * V_{t+1} - V_t,  with V_n = 0
    A_t     = delta_t + gamma * lam * A_{t+1},  with A_n = 0
    returns = advantages + values
    """
    # plain floats: the same IEEE operations as on numpy scalars, faster
    r, v = rewards.tolist(), values.tolist()
    advantages = [0.0] * len(r)
    gae = v_next = 0.0
    for t in range(len(r) - 1, -1, -1):
        gae = r[t] + gamma * v_next - v[t] + gamma * lam * gae
        advantages[t] = gae
        v_next = v[t]
    adv = np.array(advantages, dtype=np.float64)
    return adv, adv + values


def normalize_advantages(advantages: np.ndarray) -> np.ndarray:
    """Per-buffer normalization to mean 0, std 1 (identity for length <= 1)."""
    adv = np.asarray(advantages, dtype=np.float64)
    if adv.size <= 1:
        return adv.copy()
    return (adv - adv.mean()) / (adv.std() + 1e-8)


def join_parameters(actor, critic: gradnet.DenseNet) -> np.ndarray:
    """Copy both learners into one new vector, [actor.flat | critic.flat], view them there and return it."""
    split = actor.flat.size
    params = np.concatenate([actor.flat, critic.flat])
    actor.use(params[:split])
    critic.use(params[split:])
    return params


def ppo_update(
    actor,
    critic: gradnet.DenseNet,
    rollout: Rollout,
    advantages: np.ndarray,
    returns: np.ndarray,
    cfg: TrainConfig,
    rng: Xoshiro256StarStar,
    params: np.ndarray,
    opt: gradnet.AdamState,
) -> LossReport:
    """Clipped-surrogate update: epochs_per_iter passes of shuffled minibatches.

    params is join_parameters(actor, critic) and opt its Adam state. The
    actor's inputs are built once per update and the critic's are
    rollout.critic_x; each epoch gathers the rows once in its shuffled
    order, so a minibatch is a slice of contiguous rows.
    One policy.ppo_step writes every minibatch's gradient into one buffer
    laid out like params, and one Adam step updates both learners. The
    update runs with numpy's overflow and invalid warnings off: a diverging
    run raises DivergenceError instead.

    Errors are those of one Adam state per learner, actor first: a
    non-finite gradient names its coordinate within its own learner. One
    case differs. If the actor's parameters overflow in a minibatch whose
    critic gradient is non-finite, the error names the critic gradient,
    because the one check precedes the one step; a step per learner
    stepped the actor first and named its parameters. After a
    DivergenceError the learners and opt are partly updated, in another way
    than with a state per learner; train reports its last good checkpoint.
    """
    n = rollout.actions.size
    if cfg.minibatch > n:
        raise ConfigError(f"minibatch {cfg.minibatch} exceeds rollout length {n}")
    columns = (
        actor.scale(rollout.states), rollout.critic_x, rollout.actions, rollout.log_probs, advantages, returns,
    )
    split = actor.flat.size
    grads, scratch = np.empty_like(params), (np.empty_like(params), np.empty_like(params))
    step = policy.ppo_step(actor, critic, cfg, grads)
    sums = (0.0, 0.0, 0.0, 0.0)
    batches = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs_per_iter):
            # argsort of iid uniform integers is a uniform random permutation
            perm = np.argsort(rng.randbits53(n), kind="stable")
            rows = [column[perm] for column in columns]
            for start in range(0, n, cfg.minibatch):
                stop = start + cfg.minibatch
                components = step(*[r[start:stop] for r in rows])
                try:
                    gradnet.adam_step(opt, params, grads, scratch)
                except DivergenceError as exc:
                    coord = exc.diagnostics.get("coordinate", -1)
                    if coord < split:
                        raise
                    raise gradnet.nonfinite_gradient(coord - split, exc.step) from None
                actor.finalize_update()
                critic.bump_version()
                sums = tuple(map(operator.add, sums, components))
                batches += 1
    return LossReport(*(s / batches for s in sums))


def make_critic(state_dim: int, rng: Xoshiro256StarStar) -> gradnet.DenseNet:
    """Two-hidden-layer (64x64) tanh value network over state + episode time."""
    return gradnet.init_dense([state_dim + 1, 64, 64, 1], ["tanh", "tanh", "identity"], rng)


def evaluate_actor_sdf(env_cfg: EnvConfig, actor, seed: int) -> float:
    """SDF of one deterministic (mean-action) closed-loop episode."""
    tracker = StateTracker(env_cfg, actor.variant)
    mean = actor.episode_mean()
    _, corrected, _ = closed_loop(env_cfg, seed, lambda t, raw, x, applied: mean(tracker.push(raw, x, applied)))
    return metrics.sdf(corrected)


def build_report(
    env_cfg: EnvConfig,
    gains: PidGains,
    actor,
    seeds: tuple[int, ...],
) -> dict:
    """Per-seed noise/PID/RL SDF comparison, in seed order (metrics.report_dict).

    The PID baseline and the mean action of a finite LinearActor over P, I,
    D (pid_act, pid3) run every seed in one pass of the batched kernel
    (pidbatch.batch_sdfs). There the PID point is a policy row whose w_Act
    and bias are zero: adding 0 * Act and 0 leaves every nonzero value of
    the loop as it is and can only flip the sign of a zero, which no SDF
    sees. Seeds that pass cannot vouch for, and every seed of any other
    actor, run the scalar path, the PID ones first, so the report raises
    the scalar episodes' errors in the order their separate passes did.
    """
    _check_dt(env_cfg, gains)
    rows = [[gains.kp, gains.ki, gains.kd]]
    linear = isinstance(actor, LinearActor) and actor.variant != VARIANT_CD_OVER
    if linear and np.isfinite(actor.flat[:-1]).all():
        coefs = actor.coefs()
        rows = [rows[0] + [0.0] * (len(coefs) - 3), coefs]
    sdfs, exact = pidbatch.batch_sdfs(env_cfg, seeds, rows)
    # a policy the kernel did not run is inexact on every seed
    sdfs, exact = sdfs.tolist(), exact.tolist() + [[False] * len(seeds)]
    pid = [s if ok else metrics.sdf(run_pid_episode(env_cfg, seed, gains))
           for seed, s, ok in zip(seeds, sdfs[0], exact[0])]
    rl = [s if ok else evaluate_actor_sdf(env_cfg, actor, seed)
          for seed, s, ok in zip(seeds, sdfs[-1], exact[1])]
    noise = [metrics.sdf(run_raw_episode(env_cfg, seed)) for seed in seeds]
    return metrics.report_dict(seeds, noise, pid, rl)


@dataclass
class TrainResult:
    actor: LinearActor | NnActor
    report: dict  # metrics.report_dict
    curve_rows: list[dict] = field(default_factory=list)
    checkpoint: dict | None = None


def train(run: Run, on_iteration: Callable[[int, dict], None] | None = None) -> TrainResult:
    """Full training run: iterate collect/GAE/update from the Run's master seed, then evaluate.

    The env seed rotates through run.train.seeds every seed_rotation_period
    episodes, so within one rotation slot every episode replays the same
    noise realization; the stochastic policy still sees different corrected
    traces through its own exploration. on_iteration(it, row) sees each
    curve row. On divergence the exception carries the last good checkpoint
    in its .diagnostics["last_good"] entry. A Run without gains raises
    ConfigError.
    """
    if run.gains is None:
        raise ConfigError("train needs PID gains; tune them first (controllers.tune_pid)")
    env_cfg, train_cfg, gains = run.env, run.train, run.gains

    init_rng = Xoshiro256StarStar(derive_seed(run.master_seed, STREAM_INIT))
    actor = make_actor(run.policy_variant, run.state_variant, gains, init_rng)
    critic = make_critic(STATE_DIMS[run.state_variant], init_rng)
    sample_rng = Xoshiro256StarStar(derive_seed(run.master_seed, STREAM_SAMPLE))
    shuffle_rng = Xoshiro256StarStar(derive_seed(run.master_seed, STREAM_SHUFFLE))

    params = join_parameters(actor, critic)
    opt = gradnet.AdamState(m=np.zeros_like(params), v=np.zeros_like(params), lr=train_cfg.lr)

    curve_rows: list[dict] = []
    last_good = checkpoint_dict(run, actor, critic, opt, 0)
    for it in range(train_cfg.iterations):
        slot = (it // train_cfg.seed_rotation_period) % len(train_cfg.seeds)
        ep_seed = train_cfg.seeds[slot]
        try:
            rollout = collect_rollout(env_cfg, ep_seed, actor, critic, run.reward, sample_rng)
            advantages, returns = compute_gae(rollout.rewards, rollout.values, train_cfg.gamma, train_cfg.gae_lambda)
            ppo_update(actor, critic, rollout, normalize_advantages(advantages), returns, train_cfg,
                       shuffle_rng, params, opt)
        except DivergenceError as exc:
            exc.diagnostics["iteration"] = it
            exc.diagnostics["last_good"] = last_good
            raise
        row = {
            "iter": it,
            "seed": ep_seed,
            "mean_reward": float(rollout.rewards.mean()),
            "sdf_rl": metrics.sdf(rollout.corrected_trace),
            "sdf_pid": metrics.sdf(run_pid_episode(env_cfg, ep_seed, gains)),
            "sdf_noise": metrics.sdf(run_raw_episode(env_cfg, ep_seed)),
        }
        curve_rows.append(row)
        if on_iteration is not None:
            on_iteration(it, row)
        last_good = None  # so that only one snapshot is alive at a time
        last_good = checkpoint_dict(run, actor, critic, opt, it + 1)

    report = build_report(env_cfg, gains, actor, train_cfg.seeds)
    return TrainResult(actor=actor, report=report, curve_rows=curve_rows, checkpoint=last_good)


def format_curve_csv(rows: list[dict]) -> str:
    lines = ["iter,seed,mean_reward,sdf_rl,sdf_pid,sdf_noise"]
    for r in rows:
        lines.append(
            f"{r['iter']},{r['seed']},{r['mean_reward']!r},{r['sdf_rl']!r},{r['sdf_pid']!r},{r['sdf_noise']!r}"
        )
    return "\n".join(lines) + "\n"


# --- checkpoints ------------------------------------------------------------

def _optimizer_records(opt, actor, critic) -> tuple[dict, dict]:
    """The one Adam state over [actor.flat | critic.flat] as one record per learner."""
    actor_params = actor.parameters()
    record = gradnet.adam_to_dict(opt, [*actor_params, *critic.parameters()])
    k = len(actor_params)
    return (dict(record, m=record["m"][:k], v=record["v"][:k]),
            dict(record, m=record["m"][k:], v=record["v"][k:]))


def checkpoint_dict(run: Run, actor, critic, opt, iterations_done: int) -> dict:
    actor_opt, critic_opt = _optimizer_records(opt, actor, critic)
    return {
        "format_version": CHECKPOINT_VERSION,
        "policy_variant": run.policy_variant,
        "state_variant": run.state_variant,
        "master_seed": run.master_seed,
        "iterations_done": iterations_done,
        "actor": actor.to_dict(),
        "critic": gradnet.net_to_dict(critic),
        "critic_feature_scales": [float(s) for s in feature_scales(run.state_variant)],
        "actor_opt": actor_opt,
        "critic_opt": critic_opt,
        "gains": run.gains.to_dict(),
        "env": run.env.to_dict(),
        "train": run.train.to_dict(),
        "reward": run.reward.to_dict(),
    }


def restore_from_checkpoint(data: dict) -> tuple[Run, LinearActor | NnActor, gradnet.DenseNet]:
    """Rebuild (run, actor, critic) from a checkpoint dict; master_seed defaults to 0.

    Raises CheckpointError on another format_version, on a master_seed that
    is not an integer in [0, 2**64), or when its parts disagree: the actor's
    kind or state variant is not the checkpoint's, or the critic does not
    map the state variant's features plus episode time to one value.
    """
    version = data.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint format_version {version!r} unsupported (expected {CHECKPOINT_VERSION})"
        )
    actor = actor_from_dict(data["actor"])
    critic = gradnet.net_from_dict(data["critic"])
    policy_variant, state_variant = data.get("policy_variant"), data.get("state_variant")
    if actor.kind != policy_variant:
        raise CheckpointError(f"actor kind {actor.kind!r} does not match policy_variant {policy_variant!r}")
    if actor.variant != state_variant:
        raise CheckpointError(f"actor variant {actor.variant!r} does not match state_variant {state_variant!r}")
    if critic.in_dim != actor.state_dim + 1 or critic.out_dim != 1:
        raise CheckpointError(
            f"critic maps {critic.in_dim} -> {critic.out_dim} values; state variant {state_variant!r} "
            f"needs {actor.state_dim + 1} -> 1"
        )
    master_seed = data.get("master_seed", 0)
    check_seed(master_seed, "checkpoint master_seed", CheckpointError)
    run = Run(  # keywords keep the sections' check order: env, gains, train, reward
        env=EnvConfig.from_dict(data["env"]), gains=PidGains.from_dict(data["gains"]),
        train=TrainConfig.from_dict(data["train"]), reward=RewardConfig.from_dict(data["reward"]),
        policy_variant=policy_variant, state_variant=state_variant, master_seed=master_seed,
    )
    return run, actor, critic
