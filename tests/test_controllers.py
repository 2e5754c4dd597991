"""Controller and policy behavior.

The discrete PID pieces are checked against hand-computed values, the policy
actors against their closed-form Gaussian math, and the gain tuner against an
exhaustive sweep of its own grid.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spillreg.controllers import (
    FEATURE_SCALES,
    LOG_STD_MAX,
    LOG_STD_MIN,
    ErrorState,
    ErrorTracker,
    GainGrid,
    LinearActor,
    NnActor,
    PidGains,
    PolicyParams,
    STATE_DIMS,
    STATE_LABELS,
    StateTracker,
    actor_from_dict,
    clamp_log_std,
    feature_scales,
    gaussian_log_prob,
    initial_policy_params,
    make_actor,
    pid_episode_records,
    pid_sdfs,
    pid_update,
    policy_mean,
    run_pid_episode,
    tune_pid,
)
from spillreg.errors import ConfigError, InputError, InvalidActionError, ShapeError
from spillreg.metrics import sdf
from spillreg.pidbatch import PID_KERNEL_BYTES
from spillreg.rng import Xoshiro256StarStar
from spillreg.spillsim import EnvConfig, clamp_action, run_raw_episode

HAND_GAINS = PidGains(kp=0.5, ki=0.1, kd=0.01, dt=1e-4)

error_states = st.builds(
    ErrorState,
    current_error=st.floats(min_value=-3, max_value=3),
    error_sum=st.floats(min_value=-50, max_value=50),
    error_diff_rate=st.floats(min_value=-1e4, max_value=1e4),
    prev_error=st.floats(min_value=-3, max_value=3),
)


def test_pid_update_hand_example():
    """Trace [1.2, 0.9] around reference 1 with gains (0.5, 0.1, 0.01)."""
    tracker = ErrorTracker(1.0, HAND_GAINS.dt)
    first = tracker.push(1.2)
    second = tracker.push(0.9)
    # step 0: P = 0.2, I = 0.2, D = 0 (no previous error yet)
    assert pid_update(HAND_GAINS, first) == pytest.approx(0.12)
    # step 1: P = -0.1, I = 0.1, D = (-0.1 - 0.2)/1e-4 = -3000
    assert second.error_diff_rate == pytest.approx(-3000.0)
    assert pid_update(HAND_GAINS, second) == pytest.approx(-30.04)


def test_error_tracker_accumulates_signed_sum():
    tracker = ErrorTracker(1.0, 1e-4)
    tracker.push(1.2)
    state = tracker.push(0.9)
    assert state.current_error == pytest.approx(-0.1)
    assert state.error_sum == pytest.approx(0.1)
    assert state.prev_error == pytest.approx(0.2)


@settings(max_examples=60, deadline=None)
@given(err=error_states, scale=st.floats(min_value=-2, max_value=2))
def test_pid_update_linear_in_gains(err, scale):
    base = PidGains(kp=0.3, ki=0.2, kd=1e-5, dt=1e-4)
    scaled = PidGains(kp=0.3 * scale, ki=0.2 * scale, kd=1e-5 * scale, dt=1e-4)
    assert pid_update(scaled, err) == pytest.approx(scale * pid_update(base, err), abs=1e-9)


def test_pid_gains_round_trip():
    again = PidGains.from_dict(HAND_GAINS.to_dict())
    assert again == HAND_GAINS


def test_pid_gains_validation():
    with pytest.raises(ConfigError):
        PidGains(kp=float("nan"), ki=0.0, kd=0.0, dt=1e-4)
    with pytest.raises(ConfigError):
        PidGains(kp=0.5, ki=0.0, kd=0.0, dt=0.0)
    with pytest.raises(ConfigError):
        PidGains.from_dict(dict(HAND_GAINS.to_dict(), format_version=99))


def test_pid_beats_unregulated_on_default_config(env_cfg, tuned_gains):
    raw = sdf(run_raw_episode(env_cfg, 0)).sdf
    closed = sdf(run_pid_episode(env_cfg, 0, tuned_gains)).sdf
    assert closed > raw


def test_pid_episode_records_are_consistent(env_cfg, tuned_gains):
    raws, corrected, actions = pid_episode_records(env_cfg, 2, tuned_gains)
    assert corrected == run_pid_episode(env_cfg, 2, tuned_gains)
    assert len(raws) == len(corrected) == len(actions) == env_cfg.steps_per_episode
    # first step runs before any decision exists
    assert actions[0] == 0.0
    # each later action is the PID response to the trace seen so far
    tracker = ErrorTracker(env_cfg.reference, tuned_gains.dt)
    for t, x in enumerate(corrected[:-1]):
        state = tracker.push(x)
        expected = clamp_action(pid_update(tuned_gains, state), env_cfg.action_bound)
        assert actions[t + 1] == expected


def test_tune_pid_is_exhaustive_on_its_grid():
    cfg = EnvConfig(steps_per_episode=60)
    grid = GainGrid(kp=(0.0, 0.5, 1.0), ki=(0.0, 0.3), kd=(0.0, 1e-5))
    best = tune_pid(cfg, [0, 1], grid=grid)
    best_score = np.mean(
        [sdf(run_pid_episode(cfg, s, best)).sdf for s in (0, 1)]
    )
    for kp in grid.kp:
        for ki in grid.ki:
            for kd in grid.kd:
                cand = PidGains(kp=kp, ki=ki, kd=kd, dt=cfg.dt)
                score = np.mean(
                    [sdf(run_pid_episode(cfg, s, cand)).sdf for s in (0, 1)]
                )
                assert best_score >= score - 1e-12


def test_tune_pid_carries_config_dt():
    cfg = EnvConfig(steps_per_episode=40, dt=2e-4)
    gains = tune_pid(cfg, [0], grid=GainGrid(kp=(0.5,), ki=(0.0,), kd=(0.0,)))
    assert gains.dt == cfg.dt


def test_gain_grid_rejects_empty_axis():
    with pytest.raises(ConfigError):
        GainGrid(kp=(), ki=(0.0,), kd=(0.0,))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_gain_grid_rejects_nonfinite_values(bad):
    with pytest.raises(ConfigError):
        GainGrid(kp=(0.0, bad), ki=(0.0,), kd=(0.0,))
    with pytest.raises(ConfigError):
        GainGrid(kp=(0.0,), ki=(0.0,), kd=(bad,))


# --- batched PID kernel against the scalar path -----------------------------

def scalar_sdfs(cfg, seeds, points):
    return [
        [sdf(run_pid_episode(cfg, s, PidGains(*p, dt=cfg.dt))).sdf for s in seeds]
        for p in points
    ]


@st.composite
def small_configs(draw):
    ripples = draw(st.lists(st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 2000.0)), max_size=2))
    clamp_lo, clamp_hi = draw(st.sampled_from([(0.0, 2.0), (0.8, 1.2), (0.97, 1.03)]))
    return EnvConfig(
        steps_per_episode=draw(st.integers(2, 40)),
        ripple_amps=tuple(a for a, _ in ripples),
        ripple_freqs=tuple(f for _, f in ripples),
        ou_sigma=draw(st.sampled_from([0.0, 0.05, 0.42])),
        clamp_lo=clamp_lo,
        clamp_hi=clamp_hi,
        action_bound=draw(st.sampled_from([0.02, 1.0, 3.0])),
    )


# plain gains plus ones large enough to pin the action at +-action_bound and
# the corrected sample at clamp_lo/clamp_hi
GAIN_VALUES = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 40.0, -40.0, 1e4, -1e4]))
KD_VALUES = st.one_of(st.floats(-1e-4, 1e-4), st.sampled_from([0.0, 0.5, -0.5]))


@settings(max_examples=150, deadline=None)
@given(
    cfg=small_configs(),
    seeds=st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=3),
    points=st.lists(st.tuples(GAIN_VALUES, GAIN_VALUES, KD_VALUES), min_size=1, max_size=6),
)
# full-length episodes at the tuned gains: short ones hide last-bit slips
@example(cfg=EnvConfig(), seeds=list(range(9)), points=[(0.34375, 0.6, -8.75e-06), (1.0, 0.9, 2e-05)])
def test_pid_sdfs_match_scalar_episodes_bit_for_bit(cfg, seeds, points):
    got = pid_sdfs(cfg, seeds, points)
    assert got.shape == (len(points), len(seeds))
    assert got.tolist() == scalar_sdfs(cfg, seeds, points)


def test_pid_sdfs_match_scalar_episodes_when_both_clamps_saturate():
    cfg = EnvConfig(steps_per_episode=60, clamp_lo=0.9, clamp_hi=1.1, action_bound=0.5)
    points = [(40.0, 1e4, 0.5), (-40.0, 0.0, -0.5), (0.34375, 0.6, -8.75e-06)]
    for point in points[:2]:
        _, corrected, applied = pid_episode_records(cfg, 1, PidGains(*point, dt=cfg.dt))
        assert {cfg.clamp_lo, cfg.clamp_hi} <= set(corrected)
        assert {cfg.action_bound, -cfg.action_bound} <= set(applied)
    assert pid_sdfs(cfg, [1, 2], points).tolist() == scalar_sdfs(cfg, [1, 2], points)


def test_pid_sdfs_row_does_not_depend_on_its_block(env_cfg):
    seeds = list(range(9))
    block = PID_KERNEL_BYTES // (8 * env_cfg.steps_per_episode * len(seeds))
    target = (0.34375, 0.6, -8.75e-06)
    others = [(0.1 * k, 0.05 * k, 1e-6 * k) for k in range(2 * block + 3)]
    points = others[: block + 2] + [target] + others[block + 2 :]
    assert len(points) > 2 * block
    alone = pid_sdfs(env_cfg, seeds, [target])
    batched = pid_sdfs(env_cfg, seeds, points)
    assert batched[block + 2].tolist() == alone[0].tolist() == scalar_sdfs(env_cfg, seeds, [target])[0]
    assert batched[3].tolist() == scalar_sdfs(env_cfg, seeds, [points[3]])[0]


def test_pid_sdfs_nan_action_raises_like_the_scalar_loop(env_cfg):
    overflowing = (0.0, 1e308, -1e308)  # ki*I and kd*D overflow to opposite infinities
    with pytest.raises(InvalidActionError):
        pid_episode_records(env_cfg, 0, PidGains(*overflowing, dt=env_cfg.dt))
    with pytest.raises(InvalidActionError):
        pid_sdfs(env_cfg, [0], [overflowing])
    with pytest.raises(InvalidActionError):
        pid_sdfs(env_cfg, [1, 0], [(0.5, 0.1, 0.0), overflowing, (0.0, 0.0, 0.0)])


def test_pid_sdfs_rejects_nonfinite_points(env_cfg):
    with pytest.raises(ConfigError):
        pid_sdfs(env_cfg, [0], [(0.5, math.inf, 0.0)])


def test_pid_sdfs_short_episode_raises_like_sdf():
    cfg = EnvConfig(steps_per_episode=1)
    with pytest.raises(InputError):
        sdf(run_pid_episode(cfg, 0, PidGains(0.5, 0.1, 0.0, dt=cfg.dt)))
    with pytest.raises(InputError):
        pid_sdfs(cfg, [0], [(0.5, 0.1, 0.0)])


# --- policy state construction -------------------------------------------

def test_state_tracker_pid_act_features():
    cfg = EnvConfig(steps_per_episode=10)
    tracker = StateTracker(cfg, "pid_act")
    sv = tracker.push(raw=1.3, corrected=1.2, applied_action=0.1)
    assert type(sv) is tuple
    p, i, d, act = sv
    assert p == pytest.approx(0.2)
    assert i == pytest.approx(0.2)
    assert d == 0.0
    assert act == 0.1
    sv2 = tracker.push(raw=1.0, corrected=0.9, applied_action=-0.2)
    assert sv2[2] == pytest.approx((-0.1 - 0.2) / cfg.dt)


def test_state_tracker_pid3_drops_action():
    cfg = EnvConfig(steps_per_episode=10)
    tracker = StateTracker(cfg, "pid3")
    sv = tracker.push(1.3, 1.2, 0.7)
    assert len(sv) == 3


def test_state_tracker_cd_over_features():
    cfg = EnvConfig(steps_per_episode=10)
    tracker = StateTracker(cfg, "cd_over")
    first = tracker.push(raw=1.3, corrected=1.2, applied_action=0.0)
    cd, over, p, act = first
    assert cd == 0.0  # no previous corrected sample yet
    assert over == pytest.approx(1.0 / cfg.steps_per_episode)
    assert p == pytest.approx(0.2)
    second = tracker.push(raw=0.8, corrected=0.9, applied_action=0.3)
    cd2, over2, p2, act2 = second
    assert cd2 == pytest.approx(0.9 - 1.2)
    assert over2 == pytest.approx(1.0 / cfg.steps_per_episode)  # raw below reference
    assert act2 == 0.3


def test_state_tracker_rejects_unknown_variant(env_cfg):
    with pytest.raises(ShapeError):
        StateTracker(env_cfg, "lstm")


def test_state_dims_and_labels_agree():
    assert set(STATE_DIMS) == set(STATE_LABELS) == set(FEATURE_SCALES)
    for variant, dim in STATE_DIMS.items():
        assert len(STATE_LABELS[variant].split(",")) == dim
        assert len(FEATURE_SCALES[variant]) == dim


def test_feature_scales_are_powers_of_two():
    # exactness of the reparameterization depends on this
    for scales in FEATURE_SCALES.values():
        for s in scales:
            frac, _ = math.frexp(s)
            assert frac == 0.5
    with pytest.raises(ShapeError):
        feature_scales("lstm")


# --- initialization --------------------------------------------------------

def test_initial_params_embed_tuned_gains():
    params = initial_policy_params(HAND_GAINS, "pid_act")
    assert params.pid_weights == (0.5, 0.1, 0.01)
    assert params.action_weight == 0.0
    assert params.bias == 0.0
    assert params.log_std == -1.0


def test_initial_params_cd_over_carries_kp_only():
    params = initial_policy_params(HAND_GAINS, "cd_over")
    assert params.pid_weights == (0.0, 0.0, 0.5)


def test_initial_params_rejects_unknown_variant():
    with pytest.raises(ShapeError):
        initial_policy_params(HAND_GAINS, "lstm")


# --- Gaussian policy math ---------------------------------------------------

def test_gaussian_log_prob_at_mean():
    assert gaussian_log_prob(0.3, 0.3, -1.0) == pytest.approx(
        1.0 - 0.5 * math.log(2.0 * math.pi)
    )


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=-5, max_value=5),
    mean=st.floats(min_value=-5, max_value=5),
    log_std=st.floats(min_value=-4, max_value=1.5),
)
def test_gaussian_log_prob_closed_form(x, mean, log_std):
    std = math.exp(log_std)
    z = (x - mean) / std
    expected = -0.5 * z * z - log_std - 0.5 * math.log(2.0 * math.pi)
    assert gaussian_log_prob(x, mean, log_std) == pytest.approx(expected, abs=1e-12)


def test_policy_mean_matches_dot_product():
    weights = (0.4, -0.2, 1e-5, 0.3)
    sv = (0.5, -2.0, 800.0, 0.7)
    expected = 0.4 * 0.5 - 0.2 * -2.0 + 1e-5 * 800.0 + 0.3 * 0.7 + 0.05
    assert policy_mean(weights, 0.05, sv) == pytest.approx(expected, abs=1e-12)
    # three features (PID3) use the first three weights only
    assert policy_mean(weights[:3], 0.05, sv[:3]) == pytest.approx(expected - 0.3 * 0.7, abs=1e-12)


def test_policy_sample_log_prob_consistency():
    params = PolicyParams(
        pid_weights=(0.4, -0.2, 1e-5), action_weight=0.3, bias=0.05, log_std=-0.5
    )
    actor = LinearActor(params, "pid_act")
    sv = (0.5, -2.0, 800.0, 0.7)
    rng = Xoshiro256StarStar(3)
    action, logp = actor.sample(sv, rng)
    mean = actor.mean(sv)
    assert logp == pytest.approx(gaussian_log_prob(action, mean, -0.5), abs=1e-12)
    # exploration actually perturbs the mean
    assert action != mean


def test_clamp_action_bound():
    assert clamp_action(3.0, 1.0) == 1.0
    assert clamp_action(-3.0, 1.0) == -1.0
    assert clamp_action(0.25, 1.0) == 0.25


def test_clamp_log_std_range():
    assert clamp_log_std(-100.0) == LOG_STD_MIN
    assert clamp_log_std(100.0) == LOG_STD_MAX
    assert clamp_log_std(-1.0) == -1.0


# --- actors ------------------------------------------------------------------

def test_make_actor_kinds():
    rng = Xoshiro256StarStar(0)
    assert isinstance(make_actor("pid", "pid_act", HAND_GAINS, rng), LinearActor)
    assert isinstance(make_actor("nn", "pid_act", HAND_GAINS, rng), NnActor)
    with pytest.raises(ConfigError):
        make_actor("sac", "pid_act", HAND_GAINS, rng)


def test_linear_actor_mean_is_exact_dot_product():
    """Internal feature scaling must cancel exactly (power-of-two scales)."""
    actor = make_actor("pid", "pid_act", HAND_GAINS, Xoshiro256StarStar(0))
    rng = Xoshiro256StarStar(17)
    for _ in range(200):
        features = (
            rng.uniform(-2, 2),
            rng.uniform(-20, 20),
            rng.uniform(-9000, 9000),
            rng.uniform(-1, 1),
        )
        sv = features
        p = actor.params
        expected = (
            p.pid_weights[0] * features[0]
            + p.pid_weights[1] * features[1]
            + p.pid_weights[2] * features[2]
            + p.action_weight * features[3]
            + p.bias
        )
        assert actor.mean(sv) == expected


def test_linear_actor_batch_matches_scalar(tuned_gains):
    actor = make_actor("pid", "pid_act", tuned_gains, Xoshiro256StarStar(0))
    states = np.array([[0.3, -1.0, 500.0, 0.2], [0.0, 2.0, -100.0, -0.5]])
    mus, _ = actor.mean_batch(states)
    singles = [actor.mean(tuple(row)) for row in states]
    assert mus == pytest.approx(singles, abs=1e-15)


def test_linear_actor_round_trip_preserves_function():
    actor = make_actor("pid", "pid_act", HAND_GAINS, Xoshiro256StarStar(0))
    again = actor_from_dict(actor.to_dict())
    assert isinstance(again, LinearActor)
    assert again.params == actor.params
    sv = (0.4, -3.0, 1200.0, 0.9)
    assert again.mean(sv) == actor.mean(sv)


def test_linear_actor_sample_stream_is_deterministic():
    actor = make_actor("pid", "pid_act", HAND_GAINS, Xoshiro256StarStar(0))
    sv = (0.4, -3.0, 1200.0, 0.9)
    a1, l1 = actor.sample(sv, Xoshiro256StarStar(5))
    a2, l2 = actor.sample(sv, Xoshiro256StarStar(5))
    assert (a1, l1) == (a2, l2)


def test_nn_actor_round_trip_preserves_function():
    actor = NnActor.fresh("pid_act", Xoshiro256StarStar(4))
    again = actor_from_dict(actor.to_dict())
    assert isinstance(again, NnActor)
    sv = (0.4, -3.0, 1200.0, 0.9)
    assert again.mean(sv) == actor.mean(sv)
    assert again.to_dict()["feature_scales"] == actor.to_dict()["feature_scales"]


def test_nn_actor_batch_matches_scalar():
    actor = NnActor.fresh("pid_act", Xoshiro256StarStar(4))
    states = np.array([[0.3, -1.0, 500.0, 0.2], [0.0, 2.0, -100.0, -0.5]])
    mus, _ = actor.mean_batch(states)
    singles = [actor.mean(tuple(row)) for row in states]
    assert mus == pytest.approx(singles, abs=1e-12)


def test_nn_actor_initial_output_is_small():
    # tiny output gain keeps the untrained net close to the zero action
    actor = NnActor.fresh("pid_act", Xoshiro256StarStar(4))
    sv = (0.5, 5.0, 4000.0, 0.8)
    assert abs(actor.mean(sv)) < 0.5


def test_actor_log_std_starts_at_minus_one():
    for kind in ("pid", "nn"):
        actor = make_actor(kind, "pid_act", HAND_GAINS, Xoshiro256StarStar(0))
        assert float(actor.log_std_arr[0]) == -1.0


def test_state_tracker_rejects_nonfinite_features(env_cfg):
    tracker = StateTracker(env_cfg, "pid_act")
    with pytest.raises(InputError):
        tracker.push(1.0, 1.0, math.nan)


@pytest.mark.parametrize("kind,variant", [("pid", "pid_act"), ("pid", "pid3"), ("nn", "cd_over")])
def test_actor_parameters_are_views_of_one_vector(kind, variant):
    actor = make_actor(kind, variant, HAND_GAINS, Xoshiro256StarStar(0))
    params = actor.parameters()
    assert params[-1] is actor.log_std_arr
    assert np.array_equal(np.concatenate([p.ravel() for p in params]), actor.flat)
    for p in [*params, *actor.mean_params()]:
        assert np.shares_memory(p, actor.flat)


@pytest.mark.parametrize("kind", ["pid", "nn"])
def test_writes_through_views_change_the_next_action(kind):
    """mean/sample read the live vector: no cached copy goes stale."""
    actor = make_actor(kind, "pid_act", HAND_GAINS, Xoshiro256StarStar(0))
    sv = (0.4, -3.0, 1200.0, 0.9)
    before = actor.mean(sv)
    actor.mean_params()[-1][0] += 0.25  # the bias of the (last) output layer
    if kind == "nn":
        actor.net.bump_version()
    assert actor.mean(sv) == pytest.approx(before + 0.25, abs=1e-12)
    actor.parameters()[0][...] *= 2.0
    assert actor.mean(sv) != pytest.approx(before + 0.25, abs=1e-9)
    mean = actor.mean(sv)
    actor.parameters()[-1][0] = -2.0  # log_std, written through parameters()
    action, logp = actor.sample(sv, Xoshiro256StarStar(5))
    assert logp == pytest.approx(gaussian_log_prob(action, mean, -2.0), abs=1e-12)
    if kind == "pid":
        assert actor.params.bias == 0.25
        assert actor.params.log_std == -2.0
