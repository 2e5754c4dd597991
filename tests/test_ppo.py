"""PPO machinery: configs, rollouts, GAE, updates, training loop, checkpoints."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

import oracles
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ema_reward, neg_sum_series, surrogate_losses
from spillreg import gradnet, metrics, ppo
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
)
from spillreg.ppo import (
    RewardConfig,
    Rollout,
    TrainConfig,
    collect_rollout,
    compute_gae,
    critic_inputs,
    evaluate_actor_sdf,
    format_curve_csv,
    load_checkpoint,
    make_critic,
    normalize_advantages,
    ppo_update,
    restore_from_checkpoint,
    save_checkpoint,
    train,
)
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
    cfg = RewardConfig(kind="neg_sum", alpha=0.3)
    assert RewardConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError):
        RewardConfig(kind="huber", alpha=0.5)
    with pytest.raises(ConfigError):
        RewardConfig(kind="neg_ema", alpha=-0.5)


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

    actor_grads, critic_grads = np.empty_like(actor.flat), np.empty_like(critic.flat)
    gradnet.surrogate_grads(
        actor, critic, actor.scale(states), critic_inputs(states, steps, n, actor.variant),
        actions, logp_old, advantages, returns, cfg, (actor_grads, actor_grads[:-1], critic_grads),
    )
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


def opt_pair(actor, critic, cfg):
    actor_opt = gradnet.optimizer_for(cfg.optimizer, actor.flat, cfg.lr)
    critic_opt = gradnet.optimizer_for(cfg.optimizer, critic.flat, cfg.lr)
    return actor_opt, critic_opt


def test_ppo_update_rejects_oversized_minibatch(env_cfg):
    actor, critic = fresh_actor(), fresh_critic()
    inputs = collected_update_inputs(env_cfg, actor, critic)
    cfg = TrainConfig(minibatch=env_cfg.steps_per_episode + 1)
    a_opt, c_opt = opt_pair(actor, critic, cfg)
    with pytest.raises(ConfigError):
        ppo_update(actor, critic, *inputs, cfg, Xoshiro256StarStar(0), a_opt, c_opt)


def test_zero_advantages_leave_actor_untouched(env_cfg):
    actor, critic = fresh_actor(), fresh_critic()
    rollout, adv, ret = collected_update_inputs(env_cfg, actor, critic)
    cfg = TrainConfig(epochs_per_iter=2)
    a_opt, c_opt = opt_pair(actor, critic, cfg)
    before = [p.copy() for p in actor.parameters()]
    ppo_update(actor, critic, rollout, np.zeros_like(adv), ret, cfg, Xoshiro256StarStar(0), a_opt, c_opt)
    after = actor.parameters()
    for b, a in zip(before, after):
        assert np.array_equal(b, a)


def test_ppo_update_is_deterministic(env_cfg):
    reports = []
    finals = []
    for _ in range(2):
        actor, critic = fresh_actor(), fresh_critic()
        inputs = collected_update_inputs(env_cfg, actor, critic)
        cfg = TrainConfig(epochs_per_iter=2)
        a_opt, c_opt = opt_pair(actor, critic, cfg)
        reports.append(
            ppo_update(actor, critic, *inputs, cfg, Xoshiro256StarStar(7), a_opt, c_opt)
        )
        finals.append([p.copy() for p in actor.parameters()[:-1]])
    assert reports[0] == reports[1]
    for a, b in zip(*finals):
        assert np.array_equal(a, b)


def test_repeated_updates_reduce_value_loss(env_cfg):
    actor, critic = fresh_actor(), fresh_critic()
    inputs = collected_update_inputs(env_cfg, actor, critic)
    cfg = TrainConfig(epochs_per_iter=10)
    a_opt, c_opt = opt_pair(actor, critic, cfg)
    rng = Xoshiro256StarStar(3)
    first = ppo_update(actor, critic, *inputs, cfg, rng, a_opt, c_opt)
    last = None
    for _ in range(4):
        last = ppo_update(actor, critic, *inputs, cfg, rng, a_opt, c_opt)
    assert last.value_loss < first.value_loss


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


def opt_bytes(opt):
    if isinstance(opt, gradnet.AdamState):
        return opt.m.tobytes(), opt.v.tobytes(), opt.step
    return (opt.step,)


def update_runs(update, kind, variant, cfg, seed, updates=2):
    actor = fresh_actor(seed, kind, variant)
    critic = fresh_critic(seed + 1, STATE_DIMS[variant])
    inputs = random_update_inputs(seed, actor)
    a_opt, c_opt = opt_pair(actor, critic, cfg)
    rng = Xoshiro256StarStar(seed)
    states = []
    for _ in range(updates):
        try:
            report = np.array(update(actor, critic, *inputs, cfg, rng, a_opt, c_opt)).tobytes()
        except DivergenceError as exc:
            report = (str(exc), repr(exc.diagnostics))
        states.append((report, actor.flat.tobytes(), critic.flat.tobytes(), opt_bytes(a_opt), opt_bytes(c_opt),
                       rng.state))
    return states


@settings(max_examples=16, deadline=None)
@given(
    kind=st.sampled_from(["pid", "nn"]),
    variant=st.sampled_from(sorted(STATE_DIMS)),
    optimizer=st.sampled_from(["adam", "sgd"]),
    seed=st.integers(0, 2**16),
)
def test_ppo_update_matches_the_reference_bit_for_bit(kind, variant, optimizer, seed):
    # 430 rows in minibatches of 64: six full ones and a 46-row tail per epoch
    cfg = TrainConfig(epochs_per_iter=2, optimizer=optimizer, lr=1e-3, entropy_coef=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert update_runs(ppo_update, kind, variant, cfg, seed) == update_runs(
            oracles.ppo_update, kind, variant, cfg, seed)


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


@pytest.mark.parametrize("kind", ["pid", "nn"])
def test_ppo_update_diverges_where_the_reference_does(kind):
    cfg = TrainConfig(epochs_per_iter=2, lr=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ours = update_runs(ppo_update, kind, "pid_act", cfg, 5, updates=1)
        reference = update_runs(oracles.ppo_update, kind, "pid_act", cfg, 5, updates=1)
    assert ours == reference
    assert "non-finite" in ours[0][0][0]


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
    result = train(cfg, env_cfg, master_seed=0, gains=tuned_gains)
    for row in result.report.to_dict()["per_seed"]:
        assert row["sdf_rl"] == row["sdf_pid"]
    assert result.curve_rows == []


def test_train_smoke_and_checkpoint_round_trip(tmp_path, env_cfg, tuned_gains):
    cfg = TrainConfig(iterations=3, seeds=(0, 1), seed_rotation_period=2)
    seen = []
    result = train(
        cfg, env_cfg, master_seed=5, gains=tuned_gains,
        on_iteration=lambda it, row: seen.append((it, row["seed"])),
    )
    assert [it for it, _ in seen] == [0, 1, 2]
    # literal rotation: period 2 over seeds (0, 1) gives 0, 0, 1
    assert [s for _, s in seen] == [0, 0, 1]
    assert [row["iter"] for row in result.curve_rows] == [0, 1, 2]
    for row in result.curve_rows:
        assert set(row) == {"iter", "seed", "mean_reward", "sdf_rl", "sdf_pid", "sdf_noise"}

    path = tmp_path / "ck.json"
    save_checkpoint(path, result.checkpoint)
    data = load_checkpoint(path)
    actor, critic, env2, gains2, cfg2, reward2 = restore_from_checkpoint(data)
    assert env2 == env_cfg
    assert gains2 == tuned_gains
    assert cfg2 == cfg
    for seed in (0, 1):
        assert evaluate_actor_sdf(env2, actor, seed) == evaluate_actor_sdf(
            env_cfg, result.actor, seed
        )


def test_checkpoint_version_guard(tmp_path, env_cfg, tuned_gains):
    cfg = TrainConfig(iterations=0, seeds=(0,))
    result = train(cfg, env_cfg, master_seed=0, gains=tuned_gains)
    bad = dict(result.checkpoint, format_version=99)
    path = tmp_path / "bad.json"
    save_checkpoint(path, bad)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_train_reward_defaults_to_config_alpha(env_cfg, tuned_gains):
    cfg = TrainConfig(iterations=1, seeds=(0,), alpha=0.9)
    result = train(cfg, env_cfg, master_seed=0, gains=tuned_gains)
    assert result.checkpoint["reward"] == {"kind": "neg_ema", "alpha": 0.9}


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
