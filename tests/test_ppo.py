"""PPO machinery: configs, rollouts, GAE, updates, training loop, checkpoints."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

import oracles
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ema_reward, neg_sum_series, surrogate_losses
from test_fingerprints import record_text
from spillreg import gradnet, metrics, policy, ppo
from spillreg.controllers import (
    STATE_DIMS,
    LinearActor,
    PidGains,
    StateTracker,
    make_actor,
    pid_episode_records,
)
from spillreg.errors import (
    CheckpointError,
    ConfigError,
    DivergenceError,
    InputError,
    UsageError,
)
from spillreg.ppo import (
    RewardConfig,
    Rollout,
    Run,
    TrainConfig,
    collect_rollout,
    compute_gae,
    critic_inputs,
    evaluate_actor_sdf,
    format_curve_csv,
    make_critic,
    normalize_advantages,
    ppo_update,
    restore_from_checkpoint,
    train,
)
from spillreg.cli import json_default, load_json, write_output
from spillreg.rng import Xoshiro256StarStar
from spillreg import spillsim
from spillreg.spillsim import clamp_action, closed_loop

GAINS = PidGains(kp=0.4, ki=0.3, kd=1e-5, dt=1e-4)


def fresh_actor(seed=0, kind="pid", variant="pid_act"):
    return make_actor(kind, variant, GAINS, Xoshiro256StarStar(seed))


def fresh_critic(seed=1, state_dim=4):
    return make_critic(state_dim, Xoshiro256StarStar(seed))


# --- configs ----------------------------------------------------------------

def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.gamma == 0.99
    assert cfg.gae_lambda == 0.95
    assert cfg.clip_eps == 0.2
    assert cfg.epochs_per_iter == 10
    assert cfg.minibatch == 64
    assert cfg.value_coef == 0.5
    assert cfg.entropy_coef == 0.0
    assert cfg.lr == 1e-4
    assert cfg.iterations == 600
    assert cfg.seed_rotation_period == 1000
    assert cfg.seeds == tuple(range(9))
    assert cfg.optimizer == "adam"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gamma": 1.5},
        {"gamma": -0.1},
        {"gae_lambda": 2.0},
        {"clip_eps": 0.0},
        {"epochs_per_iter": 0},
        {"minibatch": 0},
        {"value_coef": -1.0},
        {"lr": 0.0},
        {"iterations": -1},
        {"alpha": 2.0},
        {"seed_rotation_period": 0},
        {"seeds": ()},
        {"optimizer": "rmsprop"},
        {"iterations": 1.5},
        {"minibatch": 64.0},
        {"epochs_per_iter": 2.5},
        {"seed_rotation_period": 1.5},
        # JSON's 1e400 reads as inf
        {"lr": math.inf},
        {"lr": math.nan},
        {"value_coef": math.inf},
        {"clip_eps": math.inf},
    ],
)
def test_train_config_validation(kwargs):
    (name,) = kwargs
    with pytest.raises(ConfigError, match=name):
        TrainConfig(**kwargs)


def test_train_config_round_trip():
    cfg = TrainConfig(iterations=12, seeds=(3, 4), lr=3e-4)
    again = TrainConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"iterations": 5, "bogus": 1})


def test_reward_config_validation_and_round_trip():
    assert ppo.RewardConfig is metrics.RewardConfig
    cfg = RewardConfig(kind="neg_sum", alpha=0.3)
    assert RewardConfig.from_dict(cfg.to_dict()) == cfg
    for kind in ("huber", "bogus"):
        with pytest.raises(ConfigError, match=r"^reward kind must be one of \('neg_ema', 'neg_sum'\), got "):
            RewardConfig(kind=kind, alpha=0.5)
    # the record is the reward's one check: metrics.RewardAccumulator takes it as it is
    for alpha in (-0.5, -0.1, 1.5, math.nan):
        with pytest.raises(ConfigError, match=r"^reward alpha must lie in \[0, 1\], got "):
            RewardConfig(kind="neg_ema", alpha=alpha)
    for alpha in (True, False):
        with pytest.raises(ConfigError, match=r"^alpha must be a number, got "):
            RewardConfig(kind="neg_ema", alpha=alpha)


@pytest.mark.parametrize("section, record", [
    ("env", spillsim.EnvConfig(ripple_amps=(0.2,), ripple_freqs=(50.0,), ou_sigma=0.3)),
    ("train", TrainConfig(iterations=12, seeds=(3, 4), lr=3e-4)),
    ("reward", RewardConfig(kind="neg_sum", alpha=0.3)),
])
def test_config_records_share_one_json_codec(section, record):
    cls, data = type(record), record.to_dict()
    assert set(data) == {f.name for f in dataclasses.fields(record)}
    for name, value in data.items():
        field = getattr(record, name)
        assert value == (list(field) if isinstance(field, tuple) else field)
        assert type(value) is (list if isinstance(field, tuple) else type(field))
    assert cls.from_dict(data) == record
    with pytest.raises(ConfigError, match=rf"^unknown {section} config field\(s\): \['bogus'\]$"):
        cls.from_dict(dict(data, bogus=1))


# --- rollout collection ---------------------------------------------------------

def make_rollout(env_cfg, seed=0, kind="pid", reward=None):
    actor = fresh_actor(kind=kind)
    critic = fresh_critic()
    reward = reward or RewardConfig(kind="neg_ema", alpha=0.5)
    return collect_rollout(env_cfg, seed, actor, critic, reward, Xoshiro256StarStar(99))


def replay_corrected(env_cfg, seed, rollout):
    """Corrected trace of reset/step driven by the rollout's clamped actions, one step late."""
    state = spillsim.reset(env_cfg, seed)
    pending = 0.0
    for action in rollout.actions:
        spillsim.step(state, env_cfg, pending)
        pending = clamp_action(float(action), env_cfg.action_bound)
    return state.corrected_trace


def test_rollout_has_episode_length(env_cfg):
    rollout = make_rollout(env_cfg)
    n = env_cfg.steps_per_episode
    assert rollout.states.shape == (n, 4)
    assert rollout.critic_x.shape == (n, 5)
    for column in (rollout.actions, rollout.log_probs, rollout.rewards, rollout.values):
        assert column.shape == (n,)
    assert len(rollout.corrected_trace) == n


def test_rollout_keeps_the_critic_columns_of_its_states(env_cfg):
    """critic_x and values are the critic's inputs and outputs on the stored states."""
    actor, critic = fresh_actor(), fresh_critic()
    rollout = collect_rollout(env_cfg, 0, actor, critic, RewardConfig(), Xoshiro256StarStar(99))
    n = env_cfg.steps_per_episode
    critic_x = critic_inputs(rollout.states, np.arange(n), n, actor.variant)
    assert rollout.critic_x.tobytes() == critic_x.tobytes()
    assert rollout.values.tobytes() == gradnet.forward(critic, critic_x)[0][:, 0].tobytes()


def test_rollout_rewards_match_reward_recomputation(env_cfg):
    """Stored rewards must be recomputable from the stored corrected trace."""
    for kind, alpha in (("neg_ema", 0.5), ("neg_sum", 0.5)):
        rollout = make_rollout(env_cfg, reward=RewardConfig(kind=kind, alpha=alpha))
        errors = [abs(x - env_cfg.reference) for x in rollout.corrected_trace]
        if kind == "neg_ema":
            expected = ema_reward(errors, alpha)
        else:
            expected = neg_sum_series(errors, env_cfg.steps_per_episode)
        assert np.max(np.abs(rollout.rewards - np.asarray(expected))) < 1e-12
        assert rollout.corrected_trace == replay_corrected(env_cfg, 0, rollout)


def test_rollout_step_error_names_its_step():
    """A package error inside a step is re-raised as its own type, prefixed with the step."""
    # dt near the smallest double turns the D feature's 1/dt into inf at step 1
    cfg = spillsim.EnvConfig(steps_per_episode=5, dt=1e-310)
    with pytest.raises(InputError, match=r"^rollout step 1: state features are not finite: ") as info:
        make_rollout(cfg)
    assert type(info.value) is InputError
    assert isinstance(info.value.__cause__, InputError)


@pytest.mark.parametrize("variant", ["pid_act", "pid3", "cd_over"])
def test_an_overflowing_error_stops_the_rollout_before_its_reward(variant):
    """The reward takes |x - reference| unchecked: the state features, P among them, refuse it first.

    Here x - reference overflows at step 0, and every state variant carries P.
    """
    cfg = spillsim.EnvConfig(steps_per_episode=20, reference=-1.7e308, clamp_lo=-1.75e308, clamp_hi=2e307,
                             ripple_amps=(1.7e308, 1.7e308), ripple_freqs=(0.0, 0.0))
    actor, critic = fresh_actor(variant=variant), fresh_critic(state_dim=STATE_DIMS[variant])
    with pytest.raises(InputError, match=r"^rollout step 0: state features are not finite: "):
        collect_rollout(cfg, 11, actor, critic, RewardConfig(), Xoshiro256StarStar(99))


def test_nonfinite_transition_raises_divergence(env_cfg):
    """An overflowing action stops the rollout at its step, with the transition in diagnostics."""
    # seed 0 starts with P = -0.885, so the mean 0.885e308 + 1e308 overflows to inf
    actor = LinearActor("pid_act", [-1e308, 0.0, 0.0, 0.0], bias=1e308)
    with pytest.raises(DivergenceError, match=r"^non-finite transition at step 0$") as info:
        collect_rollout(env_cfg, 0, actor, fresh_critic(), RewardConfig(), Xoshiro256StarStar(99))
    diagnostics = info.value.diagnostics
    assert set(diagnostics) == {"action", "log_prob", "reward"}
    assert not math.isfinite(diagnostics["action"])
    assert math.isfinite(diagnostics["reward"])


def test_deterministic_rollout_of_initial_actor_reproduces_pid(env_cfg, tuned_gains):
    """At init the policy embeds the gains, so greedy rollouts equal PID runs."""
    actor = make_actor("pid", "pid_act", tuned_gains, Xoshiro256StarStar(0))
    tracker = StateTracker(env_cfg, actor.variant)
    _, corrected, applied = closed_loop(
        env_cfg, 3, lambda t, raw, x, a: actor.mean(tracker.push(raw, x, a))
    )
    _, pid_corrected, pid_applied = pid_episode_records(env_cfg, 3, tuned_gains)
    assert applied == pid_applied
    assert corrected == pid_corrected
    assert evaluate_actor_sdf(env_cfg, actor, 3) == metrics.sdf(pid_corrected)


# --- GAE -------------------------------------------------------------------------

def gae(rewards, values, gamma, lam):
    return compute_gae(np.asarray(rewards, dtype=np.float64), np.asarray(values, dtype=np.float64), gamma, lam)


def test_gae_hand_case():
    adv, ret = gae([-0.2, -0.1], [0.3, -0.2], 0.5, 0.5)
    # d0 = -0.2 + 0.5*(-0.2) - 0.3 = -0.6, d1 = -0.1 - (-0.2) = 0.1
    # A1 = 0.1, A0 = d0 + (0.5*0.5)*A1 = -0.575
    assert adv == pytest.approx([-0.575, 0.1], abs=1e-15)
    assert ret == pytest.approx([-0.275, -0.1], abs=1e-15)


def test_gae_lambda_zero_is_td_error():
    rng = np.random.default_rng(4)
    rewards = rng.normal(size=6).tolist()
    values = rng.normal(size=6).tolist()
    adv, _ = gae(rewards, values, 0.9, 0.0)
    boot = values[1:] + [0.0]
    dones = [0.0] * 5 + [1.0]
    expected = [
        r + 0.9 * b * (1 - d) - v for r, b, d, v in zip(rewards, boot, dones, values)
    ]
    assert adv == pytest.approx(expected, abs=1e-15)


def test_gae_gamma_zero_ignores_future():
    rng = np.random.default_rng(5)
    rewards = rng.normal(size=5).tolist()
    values = rng.normal(size=5).tolist()
    adv, ret = gae(rewards, values, 0.0, 0.95)
    assert adv == pytest.approx([r - v for r, v in zip(rewards, values)], abs=1e-15)
    assert ret == pytest.approx(rewards, abs=1e-15)


def test_normalize_advantages():
    adv = np.array([1.0, 2.0, 3.0, 10.0])
    normed = normalize_advantages(adv)
    assert normed.mean() == pytest.approx(0.0, abs=1e-12)
    assert normed.std() == pytest.approx(1.0, rel=1e-6)
    # degenerate sizes pass through rather than dividing by zero
    assert normalize_advantages(np.array([5.0])).tolist() == [5.0]
    assert normalize_advantages(np.array([2.0, 2.0])).tolist() == [0.0, 0.0]


# --- loss surface ------------------------------------------------------------------

def random_batch(n=32, seed=7, variant="pid_act"):
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(n, 4)) * np.array([0.5, 5.0, 3000.0, 0.5])
    actions = rng.normal(size=n) * 0.4
    advantages = rng.normal(size=n)
    returns = rng.normal(size=n) * 0.1
    return states, actions, advantages, returns


def test_identical_policy_gives_unit_ratio():
    actor = fresh_actor()
    critic = fresh_critic()
    states, actions, advantages, returns = random_batch()
    log_std = float(actor.log_std_arr[0])
    mu, _ = actor.mean_scaled(actor.scale(states))
    z = (actions - mu) / math.exp(log_std)
    logp = -0.5 * z * z - log_std - 0.5 * math.log(2.0 * math.pi)
    report = surrogate_losses(
        actor, critic, states, actions, logp, advantages, returns, TrainConfig()
    )
    assert report.clip_fraction == 0.0
    assert report.actor_loss == pytest.approx(-advantages.mean(), abs=1e-12)
    assert report.entropy == pytest.approx(log_std + 0.5 * math.log(2 * math.pi * math.e))


def test_two_transition_spreadsheet():
    """Every loss component recomputed with scalar math on a tiny batch."""
    actor = fresh_actor()
    critic = fresh_critic()
    cfg = TrainConfig()
    states = np.array([[0.5, 0.0, 0.0, 0.0], [-0.2, 1.0, 100.0, 0.3]])
    actions = np.array([0.7, -0.5])
    logp_old = np.array([-1.0, -2.0])
    advantages = np.array([1.5, -0.5])
    returns = np.array([0.2, -0.3])

    p = actor.params
    log_std = p["log_std"]
    std = math.exp(log_std)
    per_sample = []
    clip_hits = 0
    for s, a, lo, adv in zip(states, actions, logp_old, advantages):
        mean = (
            p["pid_weights"][0] * s[0] + p["pid_weights"][1] * s[1]
            + p["pid_weights"][2] * s[2] + p["action_weight"] * s[3] + p["bias"]
        )
        z = (a - mean) / std
        logp = -0.5 * z * z - log_std - 0.5 * math.log(2 * math.pi)
        ratio = math.exp(logp - lo)
        clip_hits += abs(ratio - 1.0) > cfg.clip_eps
        clipped = min(max(ratio, 1 - cfg.clip_eps), 1 + cfg.clip_eps)
        per_sample.append(min(ratio * adv, clipped * adv))
    expected_actor = -sum(per_sample) / 2

    from spillreg.gradnet import forward

    v_out, _ = forward(critic, critic_inputs(states, np.arange(2), 2, "pid_act"))
    expected_value = float(np.mean((v_out[:, 0] - returns) ** 2))

    report = surrogate_losses(
        actor, critic, states, actions, logp_old, advantages, returns, cfg,
        steps=np.arange(2), horizon=2,
    )
    assert report.actor_loss == pytest.approx(expected_actor, abs=1e-12)
    assert report.value_loss == pytest.approx(expected_value, abs=1e-12)
    assert report.clip_fraction == clip_hits / 2


def test_minibatch_gradients_match_finite_differences():
    """FD check of the full PPO loss away from the clip kinks."""
    actor = fresh_actor()
    critic = fresh_critic()
    cfg = TrainConfig(entropy_coef=0.01)
    n = 16
    rng = np.random.default_rng(11)
    states = rng.normal(size=(n, 4)) * np.array([0.5, 5.0, 3000.0, 0.5])
    actions, _ = actor.mean_scaled(actor.scale(states))
    actions = actions + rng.normal(size=n) * 0.05
    log_std = float(actor.log_std_arr[0])
    mu, _ = actor.mean_scaled(actor.scale(states))
    z = (actions - mu) / math.exp(log_std)
    logp_exact = -0.5 * z * z - log_std - 0.5 * math.log(2 * math.pi)
    # small offset keeps every ratio strictly inside the clip band
    logp_old = logp_exact - rng.uniform(-0.05, 0.05, size=n)
    advantages = rng.normal(size=n)
    returns = rng.normal(size=n) * 0.1
    steps = np.arange(n)

    def total_loss():
        rep = surrogate_losses(
            actor, critic, states, actions, logp_old, advantages, returns, cfg,
            steps=steps, horizon=n,
        )
        return rep.actor_loss + cfg.value_coef * rep.value_loss - cfg.entropy_coef * rep.entropy

    grads = np.empty(actor.flat.size + critic.flat.size)
    step = policy.ppo_step(actor, critic, cfg, grads)
    step(actor.scale(states), critic_inputs(states, steps, n, actor.variant), actions, logp_old, advantages, returns)
    actor_grads, critic_grads = grads[:actor.flat.size], grads[actor.flat.size:]
    h = 1e-6
    assert actor_grads.shape == actor.flat.shape and critic_grads.shape == critic.flat.shape
    pairs = [(actor.flat, actor_grads), *zip(critic.parameters(), critic.unflatten(critic_grads))]
    for p, g in pairs:
        fp, fg = p.reshape(-1), np.asarray(g).reshape(-1)
        # subsample large critic matrices, check every actor coordinate
        idxs = range(fp.size) if fp.size <= 8 else rng.choice(fp.size, 8, replace=False)
        for idx in idxs:
            orig = fp[idx]
            fp[idx] = orig + h
            critic.bump_version()
            up = total_loss()
            fp[idx] = orig - h
            critic.bump_version()
            down = total_loss()
            fp[idx] = orig
            critic.bump_version()
            fd = (up - down) / (2 * h)
            assert fg[idx] == pytest.approx(fd, rel=2e-4, abs=1e-8)


def test_overflowing_ratio_raises_divergence():
    actor = fresh_actor()
    critic = fresh_critic()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DivergenceError):
            surrogate_losses(
                actor, critic, np.zeros((4, 4)), np.zeros(4), np.full(4, -1e4),
                -np.ones(4), np.zeros(4), TrainConfig(),
            )


# --- update loop --------------------------------------------------------------------

def collected_update_inputs(env_cfg, actor, critic, seed=0):
    """(rollout, normalized advantages, returns), as train passes them to ppo_update."""
    rollout = collect_rollout(
        env_cfg, seed, actor, critic, RewardConfig(kind="neg_ema", alpha=0.5),
        Xoshiro256StarStar(42),
    )
    adv, ret = compute_gae(rollout.rewards, rollout.values, 0.99, 0.95)
    return rollout, normalize_advantages(adv), ret


def joint_opt(actor, critic, cfg):
    """(params, opt): both learners in one vector, as train holds them, and its optimizer state."""
    params = ppo.join_parameters(actor, critic)
    return params, gradnet.optimizer_for(cfg.optimizer, params, cfg.lr)


def forward_bytes(net, x):
    return gradnet.forward(net, x)[0].tobytes()


def test_join_parameters_keeps_both_learners_as_views():
    for kind in ("pid", "nn"):
        actor, critic = fresh_actor(kind=kind), fresh_critic()
        x = np.random.default_rng(0).normal(size=(3, 5))
        before = [actor.flat.copy(), critic.flat.copy(), forward_bytes(critic, x), record_text(actor.to_dict())]
        net = actor.net
        params = ppo.join_parameters(actor, critic)
        assert actor.net is net  # the head re-views the net it was given
        assert params.tobytes() == before[0].tobytes() + before[1].tobytes()
        assert [forward_bytes(critic, x), record_text(actor.to_dict())] == before[2:]
        params[:] = 0.5  # every parameter array of both learners now reads the vector
        views = [*actor.parameters(), *critic.parameters(), actor.log_std_arr, *net.weights, *net.biases]
        assert all((view == 0.5).all() for view in views)


def test_ppo_update_rejects_oversized_minibatch(env_cfg):
    actor, critic = fresh_actor(), fresh_critic()
    inputs = collected_update_inputs(env_cfg, actor, critic)
    cfg = TrainConfig(minibatch=env_cfg.steps_per_episode + 1)
    with pytest.raises(ConfigError):
        ppo_update(actor, critic, *inputs, cfg, Xoshiro256StarStar(0), *joint_opt(actor, critic, cfg))


def test_zero_advantages_leave_actor_untouched(env_cfg):
    actor, critic = fresh_actor(), fresh_critic()
    rollout, adv, ret = collected_update_inputs(env_cfg, actor, critic)
    cfg = TrainConfig(epochs_per_iter=2)
    params, opt = joint_opt(actor, critic, cfg)
    before = [p.copy() for p in actor.parameters()]
    critic_before = critic.flat.copy()
    ppo_update(actor, critic, rollout, np.zeros_like(adv), ret, cfg, Xoshiro256StarStar(0), params, opt)
    after = actor.parameters()
    for b, a in zip(before, after):
        assert np.array_equal(b, a)
    assert not np.array_equal(critic.flat, critic_before)  # the one step still moved the critic


def test_ppo_update_is_deterministic(env_cfg):
    reports = []
    finals = []
    for _ in range(2):
        actor, critic = fresh_actor(), fresh_critic()
        inputs = collected_update_inputs(env_cfg, actor, critic)
        cfg = TrainConfig(epochs_per_iter=2)
        reports.append(
            ppo_update(actor, critic, *inputs, cfg, Xoshiro256StarStar(7), *joint_opt(actor, critic, cfg))
        )
        finals.append([p.copy() for p in actor.parameters()[:-1]])
    assert reports[0] == reports[1]
    for a, b in zip(*finals):
        assert np.array_equal(a, b)


def test_repeated_updates_reduce_value_loss(env_cfg):
    actor, critic = fresh_actor(), fresh_critic()
    inputs = collected_update_inputs(env_cfg, actor, critic)
    cfg = TrainConfig(epochs_per_iter=10)
    params, opt = joint_opt(actor, critic, cfg)
    rng = Xoshiro256StarStar(3)
    first = ppo_update(actor, critic, *inputs, cfg, rng, params, opt)
    last = None
    for _ in range(4):
        last = ppo_update(actor, critic, *inputs, cfg, rng, params, opt)
    assert last.value_loss < first.value_loss


@pytest.mark.parametrize("kind", ["pid", "nn"])
def test_tapes_taken_before_an_update_step_are_stale(kind):
    """Each optimizer step of ppo_update bumps both nets' versions: no tape recorded before it replays."""
    actor, critic = fresh_actor(3, kind), fresh_critic(4)
    rollout, advantages, returns = random_update_inputs(3, actor)
    cfg = TrainConfig(epochs_per_iter=1, minibatch=rollout.actions.size)  # one step
    params, opt = joint_opt(actor, critic, cfg)
    mu, actor_tape = actor.mean_scaled(actor.scale(rollout.states))
    v_out, critic_tape = gradnet.forward(critic, rollout.critic_x)
    buffered = gradnet.forward(critic, rollout.critic_x, gradnet.buffer_tape(critic, rollout.actions.size))[1]
    ppo_update(actor, critic, rollout, advantages, returns, cfg, Xoshiro256StarStar(3), params, opt)
    assert opt.step == 1
    for net, tape, out in (actor.net, actor_tape, mu[:, None]), (critic, critic_tape, v_out), (critic, buffered, v_out):
        with pytest.raises(UsageError, match="stale tape"):
            gradnet.backward(net, tape, np.ones_like(out))


# --- bit identity with the per-minibatch loop it replaced -----------------------------

def random_update_inputs(seed, actor, n=430):
    """(rollout, advantages, returns) of random transitions near the actor's own policy."""
    rng = np.random.default_rng(seed)
    magnitudes = np.array([0.5, 5.0, 3000.0, 0.5])[: actor.state_dim]
    states = rng.normal(size=(n, actor.state_dim)) * magnitudes
    mu, _ = actor.mean_scaled(actor.scale(states))
    log_std = float(actor.log_std_arr[0])
    actions = mu + rng.normal(size=n) * math.exp(log_std)
    z = (actions - mu) / math.exp(log_std)
    # offsets of +-0.3 put some ratios outside the clip band of 0.2
    log_probs = -0.5 * z * z - log_std - 0.5 * math.log(2 * math.pi) + rng.uniform(-0.3, 0.3, n)
    rollout = Rollout(
        states=states, actions=actions, log_probs=log_probs, rewards=-rng.uniform(0.0, 0.1, n),
        critic_x=critic_inputs(states, np.arange(n), n, actor.variant), values=rng.normal(size=n) * 0.1,
        corrected_trace=[],
    )
    return rollout, normalize_advantages(rng.normal(size=n)), rng.normal(size=n) * 0.2


def opt_bytes(opt, part=slice(None)):
    if isinstance(opt, gradnet.AdamState):
        return opt.m[part].tobytes(), opt.v[part].tobytes(), opt.step
    return (opt.step,)


def update_runs(reference, kind, variant, cfg, seed, updates=2, edit=None):
    """Per update: the report or error, both learners' bytes, each learner's optimizer bytes, the rng state.

    The package steps one state over join_parameters(actor, critic), cut
    here at the actor's end; the reference (oracles.ppo_update) steps a
    state per learner. edit(rollout, advantages, returns) may change the inputs.
    """
    actor = fresh_actor(seed, kind, variant)
    critic = fresh_critic(seed + 1, STATE_DIMS[variant])
    inputs = random_update_inputs(seed, actor)
    if edit is not None:
        inputs = edit(*inputs)
    rng = Xoshiro256StarStar(seed)
    if reference:
        opts = [gradnet.optimizer_for(cfg.optimizer, p, cfg.lr) for p in (actor.flat, critic.flat)]

        def update():
            return oracles.ppo_update(actor, critic, *inputs, cfg, rng, *opts)

        def opt_states():
            return [opt_bytes(opt) for opt in opts]
    else:
        params, opt = joint_opt(actor, critic, cfg)
        split = actor.flat.size

        def update():
            return ppo_update(actor, critic, *inputs, cfg, rng, params, opt)

        def opt_states():
            return [opt_bytes(opt, slice(None, split)), opt_bytes(opt, slice(split, None))]
    states = []
    for _ in range(updates):
        try:
            report = np.array(update()).tobytes()
        except DivergenceError as exc:
            report = (type(exc), str(exc), exc.step, repr(exc.diagnostics))
        states.append((report, actor.flat.tobytes(), critic.flat.tobytes(), *opt_states(), rng.state))
    return states


@pytest.mark.scalar_loops
@settings(max_examples=32, deadline=None)
@given(
    kind=st.sampled_from(["pid", "nn"]),
    variant=st.sampled_from(sorted(STATE_DIMS)),
    optimizer=st.sampled_from(["adam", "sgd"]),
    minibatch=st.sampled_from([64, 43]),
    seed=st.integers(0, 2**16),
)
def test_ppo_update_matches_the_reference_bit_for_bit(kind, variant, optimizer, minibatch, seed):
    # 430 rows in minibatches of 64 (six full ones and a 46-row tail per epoch) or of 43 (ten)
    cfg = TrainConfig(epochs_per_iter=2, minibatch=minibatch, optimizer=optimizer, lr=1e-3, entropy_coef=0.01)
    ours = update_runs(False, kind, variant, cfg, seed)  # warns of nothing: the update runs under errstate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reference = update_runs(True, kind, variant, cfg, seed)
    # (update, field) of the first difference, so that a failure does not render both runs
    assert oracles.first_difference(ours, reference) is None


def learner_record(opt, learner):
    """The checkpoint record of a learner's own optimizer state, as checkpoints wrote it before the one state."""
    if isinstance(opt, gradnet.AdamState):
        return gradnet.adam_to_dict(opt, learner.parameters())
    return {"kind": "sgd", "lr": opt.lr, "step": opt.step}


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("kind", ["pid", "nn"])
def test_checkpoint_cuts_the_one_state_into_the_per_learner_records(kind, optimizer):
    """checkpoint_dict's actor_opt and critic_opt equal the records of the reference's two states."""
    cfg = TrainConfig(epochs_per_iter=1, optimizer=optimizer, lr=1e-3)
    records = []
    for reference in (False, True):
        actor, critic = fresh_actor(3, kind), fresh_critic(4)
        inputs = random_update_inputs(3, actor)
        if reference:
            opts = [gradnet.optimizer_for(optimizer, p, cfg.lr) for p in (actor.flat, critic.flat)]
            oracles.ppo_update(actor, critic, *inputs, cfg, Xoshiro256StarStar(3), *opts)
            records.append([learner_record(opts[0], actor), learner_record(opts[1], critic)])
        else:
            params, opt = joint_opt(actor, critic, cfg)
            ppo_update(actor, critic, *inputs, cfg, Xoshiro256StarStar(3), params, opt)
            data = ppo.checkpoint_dict(Run(spillsim.EnvConfig(), cfg, GAINS, policy_variant=kind), actor, critic, opt, 1)
            records.append([data["actor_opt"], data["critic_opt"]])
    # float reprs, so that -0.0 and 0.0 differ; a bool, so that a failure renders no diff of the lists
    same = json.dumps(records[0], default=json_default) == json.dumps(records[1], default=json_default)
    assert same
    assert records[0][0]["step"] == records[0][1]["step"] == 7


@pytest.mark.other_pythons
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("kind", ["pid", "nn"])
def test_checkpoint_snapshot_is_not_changed_by_later_updates(tmp_path, kind, optimizer):
    """checkpoint_dict copies the arrays it records: the run steps params, opt.m and opt.v in place."""
    cfg = TrainConfig(epochs_per_iter=1, optimizer=optimizer, lr=1e-3)
    run = Run(spillsim.EnvConfig(), cfg, GAINS, policy_variant=kind)
    actor, critic = fresh_actor(3, kind), fresh_critic(4)
    params, opt = joint_opt(actor, critic, cfg)
    inputs = random_update_inputs(3, actor)
    ppo_update(actor, critic, *inputs, cfg, Xoshiro256StarStar(3), params, opt)  # nonzero m and v
    snapshot = ppo.checkpoint_dict(run, actor, critic, opt, 1)
    with open(write_output(tmp_path, "before.json", snapshot, indent=None), "rb") as fh:
        before = fh.read()
    stepped = params.copy()
    ppo_update(actor, critic, *inputs, cfg, Xoshiro256StarStar(4), params, opt)
    assert not np.array_equal(params, stepped)
    assert record_text(ppo.checkpoint_dict(run, actor, critic, opt, 1)) != record_text(snapshot)
    with open(write_output(tmp_path, "after.json", snapshot, indent=None), "rb") as fh:
        assert fh.read() == before


@pytest.mark.parametrize("seed", [0, 1])
def test_compute_gae_matches_the_reference_bit_for_bit(seed):
    """One terminal-last episode per case, against the dones-based recurrence it replaced."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 64, 429, 430):
        for gamma, lam in ((0.99, 0.95), (1.0, 1.0), (1e-9, 0.0), (0.5, 1.0), (1.0, 0.0)):
            rewards, values = -rng.uniform(0.0, 0.1, n), rng.normal(size=n) * 0.1
            if n == 3:
                rewards[-1], values[-1] = -0.0, 0.0  # a signed-zero last step
            dones = np.zeros(n, dtype=bool)
            dones[-1] = True
            ours = compute_gae(rewards, values, gamma, lam)
            reference = oracles.compute_gae(rewards, values, dones, gamma, lam)
            assert [a.tobytes() for a in ours] == [a.tobytes() for a in reference]


@pytest.mark.scalar_loops
@pytest.mark.parametrize("kind", ["pid", "nn"])
def test_ppo_update_diverges_where_the_reference_does(kind):
    cfg = TrainConfig(epochs_per_iter=2, lr=1e300)
    ours = update_runs(False, kind, "pid_act", cfg, 5, updates=1)  # the loss overflows, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reference = update_runs(True, kind, "pid_act", cfg, 5, updates=1)
    assert oracles.first_difference(ours, reference) is None
    assert "non-finite" in ours[0][0][1]


def far_action(rollout, advantages, returns):
    """Row 0's action so far from its mean that z * z overflows: a NaN log_std gradient, a finite loss."""
    actions = rollout.actions.copy()
    actions[0] = 1e200
    return dataclasses.replace(rollout, actions=actions), advantages, returns


def far_returns(rollout, advantages, returns):
    return rollout, advantages, returns * 30.0


def large_advantages(rollout, advantages, returns):
    return rollout, advantages * 1e2, returns


def both(rollout, advantages, returns):
    return far_returns(*large_advantages(rollout, advantages, returns))


# gradient-side divergences: (config, input edit, the error's message)
GRADIENT_DIVERGENCES = {
    # value_coef * (2 / n) * v_err overflows a sum of the critic's output layer (W2 starts at 4544)
    "critic gradient": (TrainConfig(value_coef=1e308), far_returns, r"non-finite gradient at coordinate 4578"),
    "actor gradient": (TrainConfig(), far_action, None),
    # lr * gradient overflows the actor's weights in the first SGD step
    "actor parameters": (TrainConfig(optimizer="sgd", lr=1e308), large_advantages,
                         r"(linear|NN) actor parameters became non-finite"),
}


@pytest.mark.scalar_loops
@pytest.mark.parametrize("kind", ["pid", "nn"])
@pytest.mark.parametrize("case", sorted(GRADIENT_DIVERGENCES))
def test_gradient_divergence_raises_the_reference_error(kind, case):
    """Type, message, step and diagnostics as the reference's per-learner steps raise them, with no numpy warning."""
    cfg, edit, message = GRADIENT_DIVERGENCES[case]
    ours = update_runs(False, kind, "pid_act", cfg, 5, updates=1, edit=edit)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reference = update_runs(True, kind, "pid_act", cfg, 5, updates=1, edit=edit)
    error_type, text, _, _ = ours[0][0]
    assert error_type is DivergenceError
    assert ours[0][0] == reference[0][0]
    if message is None:  # the log_std coordinate, the actor's last
        message = f"non-finite gradient at coordinate {fresh_actor(5, kind).flat.size - 1}"
    assert re.fullmatch(message, text)
    if case == "actor gradient":  # raised before either learner stepped, so the states agree too
        assert oracles.first_difference(ours, reference) is None


@pytest.mark.parametrize("kind", ["pid", "nn"])
def test_actor_overflow_beside_a_critic_gradient_reports_the_gradient(kind):
    """The one case where the one step raises another error than the per-learner steps did."""
    cfg = TrainConfig(optimizer="sgd", lr=1e308, value_coef=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ours = update_runs(False, kind, "pid_act", cfg, 5, updates=1, edit=both)
        reference = update_runs(True, kind, "pid_act", cfg, 5, updates=1, edit=both)
    assert ours[0][0][1] == "non-finite gradient at coordinate 4578"
    assert re.fullmatch(r"(linear|NN) actor parameters became non-finite", reference[0][0][1])


def test_train_counts_a_critic_gradient_coordinate_within_the_critic(env_cfg, tuned_gains):
    cfg = TrainConfig(iterations=1, seeds=(0,), value_coef=1e308)
    with pytest.raises(DivergenceError, match=r"^non-finite gradient at coordinate 4544$") as info:
        train(Run(env_cfg, cfg, tuned_gains))
    assert info.value.step == 0
    assert info.value.diagnostics["coordinate"] == 4544


# --- critic features -------------------------------------------------------------

def test_critic_inputs_append_time_column():
    states = np.array([[1.0, 8.0, 4096.0, 1.0], [2.0, 16.0, 8192.0, -1.0]])
    out = critic_inputs(states, np.array([0, 5]), 10, "pid_act")
    assert out.shape == (2, 5)
    # features are divided by the per-variant scales, time by the horizon
    assert out[0].tolist() == [1.0, 1.0, 1.0, 1.0, 0.0]
    assert out[1].tolist() == [2.0, 2.0, 2.0, -1.0, 0.5]


def test_make_critic_widths():
    critic = make_critic(4, Xoshiro256StarStar(0))
    assert critic.in_dim == 5
    assert critic.out_dim == 1


# --- training loop ------------------------------------------------------------------

def test_train_zero_iterations_is_pid_parity(env_cfg, tuned_gains):
    cfg = TrainConfig(iterations=0, seeds=(0, 1))
    result = train(Run(env_cfg, cfg, tuned_gains))
    for row in result.report["per_seed"]:
        assert row["sdf_rl"] == row["sdf_pid"]
    assert result.curve_rows == []


def test_train_smoke_and_checkpoint_round_trip(tmp_path, env_cfg, tuned_gains):
    cfg = TrainConfig(iterations=3, seeds=(0, 1), seed_rotation_period=2)
    seen = []
    result = train(
        Run(env_cfg, cfg, tuned_gains, master_seed=5),
        on_iteration=lambda it, row: seen.append((it, row["seed"])),
    )
    assert [it for it, _ in seen] == [0, 1, 2]
    # literal rotation: period 2 over seeds (0, 1) gives 0, 0, 1
    assert [s for _, s in seen] == [0, 0, 1]
    assert [row["iter"] for row in result.curve_rows] == [0, 1, 2]
    for row in result.curve_rows:
        assert set(row) == {"iter", "seed", "mean_reward", "sdf_rl", "sdf_pid", "sdf_noise"}

    path = write_output(tmp_path, "ck.json", result.checkpoint, indent=None)
    data = load_json(path)
    run, actor, critic = restore_from_checkpoint(data)
    assert run.env == env_cfg
    assert run.gains == tuned_gains
    assert run.train == cfg
    for seed in (0, 1):
        assert evaluate_actor_sdf(run.env, actor, seed) == evaluate_actor_sdf(
            env_cfg, result.actor, seed
        )


def test_checkpoint_version_guard(tmp_path, env_cfg, tuned_gains):
    cfg = TrainConfig(iterations=0, seeds=(0,))
    result = train(Run(env_cfg, cfg, tuned_gains))
    bad = dict(result.checkpoint, format_version=99)
    path = write_output(tmp_path, "bad.json", bad, indent=None)
    with pytest.raises(CheckpointError, match="format_version 99 unsupported"):
        restore_from_checkpoint(load_json(path))


def test_train_reward_defaults_to_config_alpha(env_cfg, tuned_gains):
    cfg = TrainConfig(iterations=1, seeds=(0,), alpha=0.9)
    result = train(Run(env_cfg, cfg, tuned_gains))
    assert result.checkpoint["reward"] == {"kind": "neg_ema", "alpha": 0.9}


@pytest.mark.other_pythons
@pytest.mark.parametrize("policy, state", [("pid", "pid3"), ("nn", "cd_over")])
def test_checkpoint_round_trips_every_field_of_the_run(tmp_path, policy, state):
    # no field at its default, so a field the checkpoint drops cannot come back by accident
    run = Run(
        spillsim.EnvConfig(steps_per_episode=120, ou_rho=0.8), TrainConfig(iterations=1, seeds=(3,), alpha=0.25),
        GAINS, RewardConfig("neg_sum", 0.75), policy_variant=policy, state_variant=state, master_seed=2**64 - 1,
    )
    result = train(run)
    data = load_json(write_output(tmp_path, "ck.json", result.checkpoint, indent=None))
    restored, actor, critic = restore_from_checkpoint(data)
    assert dataclasses.asdict(restored) == dataclasses.asdict(run)
    assert restored == run
    assert record_text(actor.to_dict()) == record_text(result.actor.to_dict())
    assert (actor.kind, actor.variant, critic.in_dim) == (policy, state, STATE_DIMS[state] + 1)
    del data["master_seed"]  # a checkpoint without one was trained from master seed 0
    assert restore_from_checkpoint(data)[0] == dataclasses.replace(run, master_seed=0)


def test_train_refuses_a_run_without_gains(env_cfg):
    run = Run(env_cfg, TrainConfig(iterations=1, seeds=(0,)), None)
    with pytest.raises(ConfigError, match="train needs PID gains"):
        train(run)


def test_curve_csv_round_trips_exactly():
    rows = [
        {"iter": 0, "seed": 3, "mean_reward": -0.125, "sdf_rl": 0.7512345678901234,
         "sdf_pid": 0.75, "sdf_noise": 0.5},
    ]
    text = format_curve_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "iter,seed,mean_reward,sdf_rl,sdf_pid,sdf_noise"
    fields = lines[1].split(",")
    assert int(fields[0]) == 0 and int(fields[1]) == 3
    assert float(fields[3]) == rows[0]["sdf_rl"]  # repr round-trip
