"""Controller and policy behavior.

The discrete PID pieces are checked against hand-computed values, the policy
actors against their closed-form Gaussian math, and the gain tuner against an
exhaustive sweep of its own grid.
"""

from __future__ import annotations

import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import first_difference, sequential_tune_pid
from spillreg import controllers, pidbatch, ppo
from spillreg.controllers import (
    DEFAULT_GAIN_GRID,
    FEATURE_SCALES,
    ErrorState,
    ErrorTracker,
    GainGrid,
    LinearActor,
    NnActor,
    PidGains,
    STATE_DIMS,
    STATE_LABELS,
    StateTracker,
    actor_from_dict,
    feature_scales,
    make_actor,
    pid_episode_records,
    pid_update,
    run_pid_episode,
    tune_pid,
)
from spillreg.errors import ConfigError, InputError, InvalidActionError, ShapeError, SpillRegError
from spillreg.policy import LOG_STD_MAX, LOG_STD_MIN, clamp_log_std, gaussian_log_prob, policy_mean
from spillreg.metrics import ordered_mean, sdf
from spillreg.pidbatch import PID_KERNEL_BYTES
from spillreg.rng import Xoshiro256StarStar
from spillreg.ppo import evaluate_actor_sdf
from spillreg.spillsim import EnvConfig, clamp_action, closed_loop, run_raw_episode

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
    raw = sdf(run_raw_episode(env_cfg, 0))
    closed = sdf(run_pid_episode(env_cfg, 0, tuned_gains))
    assert closed > raw


def test_pid_episode_records_are_consistent(env_cfg, tuned_gains):
    raws, corrected, actions = pid_episode_records(env_cfg, 2, tuned_gains)
    assert tuple(corrected) == run_pid_episode(env_cfg, 2, tuned_gains)
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
    best, _ = tune_pid(cfg, [0, 1], grid=grid)
    best_score = np.mean(
        [sdf(run_pid_episode(cfg, s, best)) for s in (0, 1)]
    )
    for kp in grid.kp:
        for ki in grid.ki:
            for kd in grid.kd:
                cand = PidGains(kp=kp, ki=ki, kd=kd, dt=cfg.dt)
                score = np.mean(
                    [sdf(run_pid_episode(cfg, s, cand)) for s in (0, 1)]
                )
                assert best_score >= score - 1e-12


def test_tune_pid_carries_config_dt():
    cfg = EnvConfig(steps_per_episode=40, dt=2e-4)
    gains, _ = tune_pid(cfg, [0], grid=GainGrid(kp=(0.5,), ki=(0.0,), kd=(0.0,)))
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
        [sdf(run_pid_episode(cfg, s, PidGains(*p, dt=cfg.dt))) for s in seeds]
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
    got, exact = pidbatch.batch_sdfs(cfg, seeds, points)
    assert got.shape == (len(points), len(seeds)) and exact.all()
    assert first_difference(got.tolist(), scalar_sdfs(cfg, seeds, points)) is None


def test_pid_sdfs_match_scalar_episodes_when_both_clamps_saturate():
    cfg = EnvConfig(steps_per_episode=60, clamp_lo=0.9, clamp_hi=1.1, action_bound=0.5)
    points = [(40.0, 1e4, 0.5), (-40.0, 0.0, -0.5), (0.34375, 0.6, -8.75e-06)]
    for point in points[:2]:
        _, corrected, applied = pid_episode_records(cfg, 1, PidGains(*point, dt=cfg.dt))
        assert {cfg.clamp_lo, cfg.clamp_hi} <= set(corrected)
        assert {cfg.action_bound, -cfg.action_bound} <= set(applied)
    got, exact = pidbatch.batch_sdfs(cfg, [1, 2], points)
    assert exact.all() and first_difference(got.tolist(), scalar_sdfs(cfg, [1, 2], points)) is None


@pytest.mark.scalar_loops
def test_pid_sdfs_row_does_not_depend_on_its_block(env_cfg, kernel_passes):
    seeds = list(range(9))
    block = PID_KERNEL_BYTES // (8 * env_cfg.steps_per_episode * len(seeds))
    target = (0.34375, 0.6, -8.75e-06)
    others = [(0.1 * k, 0.05 * k, 1e-6 * k) for k in range(2 * block + 3)]
    points = others[: block + 2] + [target] + others[block + 2 :]
    alone, alone_exact = pidbatch.batch_sdfs(env_cfg, seeds, [target])
    batched, exact = pidbatch.batch_sdfs(env_cfg, seeds, points)
    assert alone_exact.all() and exact.all()
    # three near-equal blocks; the target sits inside the middle one
    sizes = kernel_passes[1:]
    assert len(sizes) == 3 and max(sizes) - min(sizes) <= 1 and sizes[0] < block + 2 < sizes[0] + sizes[1]
    assert batched[block + 2].tolist() == alone[0].tolist() == scalar_sdfs(env_cfg, seeds, [target])[0]
    assert batched[3].tolist() == scalar_sdfs(env_cfg, seeds, [points[3]])[0]
    assert batched[-1].tolist() == scalar_sdfs(env_cfg, seeds, [points[-1]])[0]


def one_point_callers(cfg, seeds, point):
    """tune_pid on a one-point grid and the report's PID column, each left to raise."""
    yield lambda: tune_pid(cfg, seeds, GainGrid(*([v] for v in point)))
    yield lambda: ppo.build_report(cfg, PidGains(*point, dt=cfg.dt), LinearActor("pid3", [0.5, 0.1, 0.0]), seeds)


def test_pid_sdfs_nan_action_raises_like_the_scalar_loop(env_cfg):
    overflowing = (0.0, 1e308, -1e308)  # ki*I and kd*D overflow to opposite infinities
    with pytest.raises(InvalidActionError):
        pid_episode_records(env_cfg, 0, PidGains(*overflowing, dt=env_cfg.dt))
    _, exact = pidbatch.batch_sdfs(env_cfg, [1, 0], [(0.5, 0.1, 0.0), overflowing, (0.0, 0.0, 0.0)])
    assert exact.tolist() == [[True, True], [False, False], [True, True]]
    for seeds in ([0], [1, 0]):
        for call in one_point_callers(env_cfg, seeds, overflowing):
            with pytest.raises(InvalidActionError):
                call()


def test_pid_sdfs_rejects_nonfinite_points(env_cfg):
    with pytest.raises(ConfigError):
        pidbatch.batch_sdfs(env_cfg, [0], [(0.5, math.inf, 0.0)])


def test_pid_sdfs_short_episode_raises_like_sdf():
    cfg = EnvConfig(steps_per_episode=1)
    with pytest.raises(InputError):
        sdf(run_pid_episode(cfg, 0, PidGains(0.5, 0.1, 0.0, dt=cfg.dt)))
    for call in one_point_callers(cfg, [0], (0.5, 0.1, 0.0)):
        with pytest.raises(InputError):
            call()


# --- batched refinement rounds against the sequential search ----------------

# moderate gains: every kernel row is exact, so no probe needs the scalar path
MODERATE_GAINS = st.one_of(st.floats(-1.5, 1.5), st.sampled_from([0.0, 0.25, 0.3, 0.6, 0.9, 1.0]))
MODERATE_KD = st.one_of(st.floats(-3e-5, 3e-5), st.sampled_from([0.0, 1e-5, 2e-5]))


@st.composite
def gain_grids(draw):
    def axis(values, default):
        # the default axes have steps such as 0.9 / 4 = 0.225, where (b - h) + h != b;
        # single-value axes have h = 0
        return draw(st.one_of(st.just(default), st.lists(values, min_size=1, max_size=4, unique=True)))

    return GainGrid(
        kp=axis(MODERATE_GAINS, DEFAULT_GAIN_GRID.kp),
        ki=axis(MODERATE_GAINS, DEFAULT_GAIN_GRID.ki),
        kd=axis(MODERATE_KD, DEFAULT_GAIN_GRID.kd),
    )


# a raw trace flat at the reference scores every gain point 1.0: all ties
FLAT_CONFIGS = st.builds(
    EnvConfig, steps_per_episode=st.integers(2, 30), ripple_amps=st.just(()),
    ripple_freqs=st.just(()), ou_sigma=st.just(0.0),
)


@settings(max_examples=80, deadline=None)
@given(
    cfg=st.one_of(small_configs(), FLAT_CONFIGS),
    seeds=st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=3, unique=True),
    grid=gain_grids(),
)
def test_tune_pid_matches_the_sequential_search(cfg, seeds, grid):
    expected = sequential_tune_pid(cfg, seeds, grid)
    # every point the search visits was scored by the grid's or its round's batch
    with mock.patch.object(controllers, "run_pid_episode", side_effect=AssertionError("probe outside its round")):
        assert tune_pid(cfg, seeds, grid) == expected
    # the mean returned is the one scoring the tuned gains again gives
    gains, mean = expected
    assert mean == ordered_mean(scalar_sdfs(cfg, seeds, [(gains.kp, gains.ki, gains.kd)])[0])


def outcome_points(best, hs):
    """Every point the round can probe, found by running it under each outcome sequence."""
    axes = [a for a in range(3) if hs[a] != 0.0]
    points = set()
    for improves in itertools.product((False, True), repeat=2 * len(axes)):
        point, decisions = best, iter(improves)
        for axis in axes:
            for delta in (-hs[axis], hs[axis]):
                cand = list(point)
                cand[axis] += delta
                points.add(tuple(cand))
                if next(decisions):
                    point = tuple(cand)
    return points


@pytest.mark.parametrize("best, hs", [
    ((0.6, 0.6, 0.0), (0.125, 0.1125, 2.5e-06)),
    ((0.1, 0.3, 1e-05), (0.0, 0.05625, 0.0)),
    ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
])
def test_round_points_lists_every_point_the_round_can_probe(best, hs):
    points = controllers.round_points(best, hs)
    assert points[0] == best and len(set(points)) == len(points)
    assert set(points) == outcome_points(best, hs) | {best}


# coordinates and steps with signed zeros, values whose sums overflow, and
# steps below a coordinate's ulp, so that (b - h) + h can differ from b
round_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.3, -0.6, 1e-300, 1e308, -1e308, 1.7e308, 0.85e308, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=400, deadline=None)
@given(best=st.tuples(round_values, round_values, round_values),
       hs=st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0]), round_values)] * 3))
@example(best=(0.0, -0.0, 1e308), hs=(0.0, 1e-17, 1e308))
@example(best=(1.7e308, 0.6, 0.0), hs=(0.85e308, 0.1, -0.0))
def test_round_points_is_the_nested_enumeration(best, hs):
    points, reference = controllers.round_points(best, hs), oracles.nested_round_points(best, hs)
    assert points[0] == best and len(points) == len(reference)
    assert set(points) == set(reference)


def test_tune_pid_skips_an_unvisited_overflowing_point(monkeypatch):
    # every large kp drives the action to +-action_bound: a tie, so round 1's
    # first probe 0.85e308 takes over on its smaller |kp|, and the round never
    # visits 1.7e308 + 0.85e308, which overflows
    cfg = EnvConfig(steps_per_episode=20, action_bound=0.02)
    grid = GainGrid(kp=(0.0, 1.7e308), ki=(0.0,), kd=(0.0,))
    assert (math.inf, 0.0, 0.0) in controllers.round_points((1.7e308, 0.0, 0.0), (0.85e308, 0.0, 0.0))
    scored = []
    real_batch = pidbatch.batch_sdfs

    def recording_batch(config, seeds, rows):
        scored.extend(rows)
        return real_batch(config, seeds, rows)

    monkeypatch.setattr(pidbatch, "batch_sdfs", recording_batch)
    assert tune_pid(cfg, [0], grid) == sequential_tune_pid(cfg, [0], grid)  # no ConfigError
    assert (0.85e308, 0.0, 0.0) in scored and all(math.isfinite(v) for point in scored for v in point)


def test_tune_pid_reruns_a_visited_inexact_point_and_ignores_an_unvisited_one(monkeypatch):
    cfg, seeds = EnvConfig(steps_per_episode=60), [0, 1]
    grid_points = {(kp, ki, kd) for kp in DEFAULT_GAIN_GRID.kp for ki in DEFAULT_GAIN_GRID.ki
                   for kd in DEFAULT_GAIN_GRID.kd}
    visited = set()
    reference_episode = oracles.run_pid_episode

    def recording_episode(config, seed, gains):
        visited.add((gains.kp, gains.ki, gains.kd))
        return reference_episode(config, seed, gains)

    monkeypatch.setattr(oracles, "run_pid_episode", recording_episode)
    expected = sequential_tune_pid(cfg, seeds)

    scored = []
    real_batch = pidbatch.batch_sdfs

    def recording_batch(config, seeds_, rows):
        scored.extend(tuple(r) for r in rows)
        return real_batch(config, seeds_, rows)

    monkeypatch.setattr(pidbatch, "batch_sdfs", recording_batch)
    assert tune_pid(cfg, seeds) == expected
    unvisited = sorted(set(scored) - grid_points - visited)
    assert unvisited and visited - grid_points <= set(scored)

    # mark one unvisited and one visited probe inexact; the scalar fallback
    # refuses the unvisited one, so it must never be looked at
    never, probe = unvisited[0], sorted(visited - grid_points)[0]

    def inexact_batch(config, seeds_, rows):
        sdfs, exact = real_batch(config, seeds_, rows)
        for i, row in enumerate(rows):
            if tuple(row) in (never, probe):
                exact[i] = False
        return sdfs, exact

    reruns = []
    real_episode = controllers.run_pid_episode

    def guarded_episode(config, seed, gains):
        point = (gains.kp, gains.ki, gains.kd)
        assert point != never, "scored an unvisited inexact point on the scalar path"
        reruns.append(point)
        return real_episode(config, seed, gains)

    monkeypatch.setattr(pidbatch, "batch_sdfs", inexact_batch)
    monkeypatch.setattr(controllers, "run_pid_episode", guarded_episode)
    assert tune_pid(cfg, seeds) == expected
    assert reruns == [probe] * len(seeds)


def test_tune_pid_raises_like_the_sequential_search():
    cfg = EnvConfig(steps_per_episode=40)
    # ki*I and kd*D overflow to opposite infinities: a NaN action on the grid
    nan_grid = GainGrid(kp=(0.5,), ki=(0.0, 1e308), kd=(0.0, -1e308))
    # an infinite step: the first probe is not a finite gain
    wide_grid = GainGrid(kp=(-1e308, 1e308), ki=(0.1,), kd=(0.0,))
    for grid, error in ((nan_grid, InvalidActionError), (wide_grid, ConfigError)):
        with pytest.raises(error):
            sequential_tune_pid(cfg, [0], grid)
        with pytest.raises(error):
            tune_pid(cfg, [0], grid)


def test_tune_pid_default_grid_takes_five_kernel_passes(monkeypatch, kernel_passes):
    calls = []
    real_batch = pidbatch.batch_sdfs

    def counting_batch(config, seeds, rows):
        calls.append(len(rows))
        return real_batch(config, seeds, rows)

    monkeypatch.setattr(pidbatch, "batch_sdfs", counting_batch)
    monkeypatch.setattr(controllers, "run_pid_episode", mock.Mock(side_effect=AssertionError("probe outside its round")))
    gains, _ = tune_pid(EnvConfig(), list(range(9)))
    assert (gains.kp, gains.ki, gains.kd) == (0.34375, 0.6, -8.750000000000001e-06)
    # the grid, then one call per round; 75 grid points split evenly, 35 in one block
    assert calls == [75, 26, 35, 26]
    assert kernel_passes == [38, 37, 26, 35, 26]


# --- linear policy head in the kernel against the scalar path ---------------

ACT_WEIGHTS = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 0.9, -40.0]))
BIASES = st.one_of(st.floats(-0.5, 0.5), st.sampled_from([0.0, 5.0, -5.0]))


def linear_actor(variant, kp, ki, kd, act_w, bias):
    return LinearActor(variant, [kp, ki, kd, act_w][:STATE_DIMS[variant]], bias)


def scalar_actor_sdfs(cfg, actor, seeds):
    """evaluate_actor_sdf per seed, or the type of the error it raises."""
    out = []
    for seed in seeds:
        try:
            out.append(evaluate_actor_sdf(cfg, actor, seed))
        except SpillRegError as exc:
            out.append(type(exc))
    return out


def report_rl(cfg, actor, seeds):
    """build_report's sdf_rl per seed, beside a PID baseline of zero gains."""
    report = ppo.build_report(cfg, PidGains(0.0, 0.0, 0.0, dt=cfg.dt), actor, tuple(seeds))
    return [row["sdf_rl"] for row in report["per_seed"]]


@settings(max_examples=150, deadline=None)
@given(
    cfg=small_configs(),
    seeds=st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=3),
    variant=st.sampled_from(["pid_act", "pid3"]),
    coefs=st.tuples(GAIN_VALUES, GAIN_VALUES, KD_VALUES, ACT_WEIGHTS, BIASES),
)
# full-length episodes of a pid_act head near the tuned gains: short ones hide last-bit slips
@example(cfg=EnvConfig(), seeds=list(range(9)), variant="pid_act",
         coefs=(0.5, 0.45, -6e-06, 0.25, 0.015))
@example(cfg=EnvConfig(), seeds=list(range(9)), variant="pid3",
         coefs=(0.85, 0.6, -8.75e-06, 0.0, -0.02))
def test_linear_head_kernel_matches_evaluate_actor_sdf(cfg, seeds, variant, coefs):
    actor = linear_actor(variant, *coefs)
    expected = scalar_actor_sdfs(cfg, actor, seeds)
    sdfs, exact = pidbatch.batch_sdfs(cfg, seeds, [actor.coefs()])
    # a row the kernel vouches for equals the scalar SDF (and so never one that raises)
    for got, ok, want in zip(sdfs[0].tolist(), exact[0], expected):
        if ok:
            assert got == want
    if all(isinstance(v, float) for v in expected):
        assert report_rl(cfg, actor, seeds) == expected
    else:
        with pytest.raises(next(v for v in expected if isinstance(v, type))):
            report_rl(cfg, actor, seeds)


def test_linear_head_kernel_matches_when_both_clamps_saturate():
    cfg = EnvConfig(steps_per_episode=60, clamp_lo=0.9, clamp_hi=1.1, action_bound=0.5)
    for variant, coefs in (("pid_act", (40.0, 1e4, 0.5, -40.0, 5.0)), ("pid3", (-40.0, 0.0, -0.5, 0.0, -5.0)),
                           ("pid_act", (0.5, 0.45, -6e-06, 0.9, 0.3))):
        actor = linear_actor(variant, *coefs)
        if coefs[0] != 0.5:
            tracker = StateTracker(cfg, variant)
            _, corrected, applied = closed_loop(
                cfg, 1, lambda t, raw, x, a: actor.mean(tracker.push(raw, x, a)))
            assert {cfg.clamp_lo, cfg.clamp_hi} <= set(corrected)
            assert {cfg.action_bound, -cfg.action_bound} <= set(applied)
        sdfs, exact = pidbatch.batch_sdfs(cfg, [1, 2], [actor.coefs()])
        assert exact.all()
        assert sdfs[0].tolist() == scalar_actor_sdfs(cfg, actor, [1, 2])


@pytest.mark.parametrize("variant", ["pid_act", "pid3"])
def test_linear_head_nan_weights_raise_like_the_scalar_path(variant):
    cfg = EnvConfig(steps_per_episode=40)
    actor = linear_actor(variant, 0.5, 0.1, 0.0, 0.25, 0.0)
    actor.parameters()[0][0, 1] = math.nan
    with pytest.raises(InvalidActionError):
        evaluate_actor_sdf(cfg, actor, 0)
    with pytest.raises(InvalidActionError):
        ppo.build_report(cfg, PidGains(0.5, 0.1, 0.0, dt=cfg.dt), actor, (0, 1))


def test_linear_head_nonfinite_features_raise_like_the_scalar_path():
    # D = (e - e_prev) / dt overflows: the kernel vouches for no row
    cfg = EnvConfig(steps_per_episode=40, dt=1e-310)
    actor = linear_actor("pid_act", 0.5, 0.1, 0.0, 0.25, 0.01)
    with pytest.raises(InputError):
        evaluate_actor_sdf(cfg, actor, 0)
    with pytest.raises(InputError):
        report_rl(cfg, actor, (0,))


@pytest.mark.parametrize("kind, variant", [("pid", "cd_over"), ("nn", "pid_act")])
def test_other_actors_keep_the_scalar_path(monkeypatch, kind, variant):
    cfg = EnvConfig(steps_per_episode=40)
    actor = make_actor(kind, variant, HAND_GAINS, Xoshiro256StarStar(0))
    expected = [evaluate_actor_sdf(cfg, actor, s) for s in (0, 1)]
    real_batch = pidbatch.batch_sdfs

    def pid_only_batch(config, seeds, rows):
        assert len(rows) == 1 and len(rows[0]) == 3, "kernel ran the policy"
        return real_batch(config, seeds, rows)

    monkeypatch.setattr(pidbatch, "batch_sdfs", pid_only_batch)
    assert report_rl(cfg, actor, (0, 1)) == expected


# --- one kernel pass for the report's PID and policy rows --------------------

# signed zeros, gains that saturate the clamps, and ones that overflow: to an
# infinite or NaN term, or (beyond 4e304 for w_D) a policy weight whose
# scaled form is infinite, which no LinearActor accepts
EDGE_VALUES = st.sampled_from([0.0, -0.0, 4e304, -4e304, 1e308, -1e308])
MERGE_GAINS = st.one_of(GAIN_VALUES, EDGE_VALUES)
MERGE_KD = st.one_of(KD_VALUES, EDGE_VALUES)


def report_outcome(build, cfg, gains, actor, seeds):
    """Every per-seed SDF's bits, or the type and message of the error raised."""
    try:
        report = build(cfg, gains, actor, seeds)
    except SpillRegError as exc:
        return type(exc), str(exc)
    return [(r["seed"], r["sdf_noise"].hex(), r["sdf_pid"].hex(), r["sdf_rl"].hex()) for r in report["per_seed"]]


@pytest.mark.scalar_loops
@settings(max_examples=200, deadline=None)
@given(
    cfg=small_configs(),
    seeds=st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=3),
    variant=st.sampled_from(["pid_act", "pid3"]),
    pid=st.tuples(MERGE_GAINS, MERGE_GAINS, MERGE_KD),
    coefs=st.tuples(MERGE_GAINS, MERGE_GAINS, MERGE_KD, st.one_of(ACT_WEIGHTS, EDGE_VALUES),
                    st.one_of(BIASES, EDGE_VALUES)),
)
@example(cfg=EnvConfig(), seeds=list(range(9)), variant="pid_act",
         pid=(0.34375, 0.6, -8.750000000000001e-06), coefs=(0.5, 0.45, -6e-06, 0.25, 0.015))
@example(cfg=EnvConfig(), seeds=list(range(9)), variant="pid3",
         pid=(0.34375, 0.6, -8.750000000000001e-06), coefs=(0.85, 0.6, -8.75e-06, 0.0, -0.02))
# a NaN PID action and a NaN policy action on seed 1: the PID error comes first
@example(cfg=EnvConfig(steps_per_episode=40), seeds=[0, 1], variant="pid_act",
         pid=(0.0, 1e308, -1e308), coefs=(1e308, 2e307, -4e304, 0.0, 0.0))
# a policy the kernel runs but cannot vouch for on seed 0 (w_D*D + w_Act*Act is NaN)
@example(cfg=EnvConfig(steps_per_episode=40, action_bound=3.0), seeds=[1, 0], variant="pid_act",
         pid=(0.5, 0.1, 0.0), coefs=(0.0, 0.0, 4e304, 1e308, 0.0))
# D overflows: both rows leave the kernel, and the PID row raises first
@example(cfg=EnvConfig(steps_per_episode=40, dt=1e-310), seeds=[0], variant="pid_act",
         pid=(0.5, 0.1, 0.0), coefs=(0.5, 0.1, 0.0, 0.25, 0.01))
def test_merged_report_equals_the_two_call_report(cfg, seeds, variant, pid, coefs):
    gains = PidGains(*pid, dt=cfg.dt)
    if not all(math.isfinite(c * s) for c, s in zip(coefs, FEATURE_SCALES[variant])):
        with pytest.raises(InputError, match="^policy parameters must be finite$"):
            linear_actor(variant, *coefs)
        return
    actor = linear_actor(variant, *coefs)
    expected = report_outcome(oracles.two_call_build_report, cfg, gains, actor, seeds)
    assert report_outcome(ppo.build_report, cfg, gains, actor, seeds) == expected


def test_report_refuses_gains_of_another_dt():
    cfg = EnvConfig(steps_per_episode=40)
    for actor in (linear_actor("pid_act", 0.5, 0.1, 0.0, 0.25, 0.0),
                  make_actor("nn", "pid_act", HAND_GAINS, Xoshiro256StarStar(0))):
        with pytest.raises(ConfigError, match="does not match config.dt"):
            ppo.build_report(cfg, PidGains(0.5, 0.1, 0.0, dt=2 * cfg.dt), actor, (0,))


@pytest.mark.scalar_loops
def test_batch_sdfs_does_not_depend_on_the_block_size(monkeypatch, kernel_passes):
    cfg, seeds = EnvConfig(), list(range(9))
    pid_rows = [(kp, ki, kd) for kp in DEFAULT_GAIN_GRID.kp for ki in DEFAULT_GAIN_GRID.ki
                for kd in DEFAULT_GAIN_GRID.kd]
    head_rows = [(0.5, 0.45, -6e-06, 0.25, 0.015), (40.0, 1e4, 0.5, -40.0, 5.0),
                 (0.34375, 0.6, -8.75e-06, 0.0, 0.0), (0.0, 1e308, -1e308, 0.0, 0.0)]
    default = [pidbatch.batch_sdfs(cfg, seeds, rows) for rows in (pid_rows, head_rows)]
    assert kernel_passes == [38, 37, 4]
    kernel_passes.clear()
    monkeypatch.setattr(pidbatch, "PID_KERNEL_BYTES", 1)
    for rows, (sdfs, exact) in zip((pid_rows, head_rows), default):
        one_by_one = pidbatch.batch_sdfs(cfg, seeds, rows)
        assert one_by_one[0].tobytes() == sdfs.tobytes()
        assert one_by_one[1].tobytes() == exact.tobytes()
    assert kernel_passes == [1] * (len(pid_rows) + len(head_rows))


@pytest.mark.parametrize("rows, shape", [
    ([[0.5, 0.1, 0.0, 0.25, 0.0, 0.01]], (1, 6)),  # one coefficient too many
    ([0.5, 0.1, 0.0, 0.3, 0.2, 0.0], (6,)),  # flat: not two PID points
    ([[0.5, 0.1]], (1, 2)),
    ([0.5, 0.1, 0.0, 0.25, 0.0], (5,)),  # flat: not one policy head
])
def test_batch_sdfs_refuses_rows_of_another_shape(rows, shape):
    with pytest.raises(ShapeError, match=re.escape(f"got {shape}")):
        pidbatch.batch_sdfs(EnvConfig(steps_per_episode=40), [0], rows)


def test_batch_sdfs_of_no_rows_is_empty():
    sdfs, exact = pidbatch.batch_sdfs(EnvConfig(steps_per_episode=40), [0, 1], [])
    assert sdfs.shape == exact.shape == (0, 2)


# --- the kernel's traces against the scalar path -----------------------------
# A one-ulp change of a gain moves corrected samples long before it moves an
# SDF, so these pins compare every sample and the final error sum.

TUNED_POINT = (0.34375, 0.6, -8.75e-06)  # the tuned gains, kd rounded as the tests write it
DEFAULT_GRID_POINTS = [(kp, ki, kd) for kp in DEFAULT_GAIN_GRID.kp for ki in DEFAULT_GAIN_GRID.ki
                       for kd in DEFAULT_GAIN_GRID.kd]
# pid_act and pid3 heads near the tuned gains, and one near the pattern-search ceiling
DEFAULT_HEADS = [("pid_act", (0.5, 0.45, -6e-06, 0.25, 0.015)), ("pid3", (0.85, 0.6, -8.75e-06, 0.0, -0.02)),
                 ("pid_act", (0.85, -0.007, 2.4e-06, 0.9, 0.003))]


def kernel_traces(cfg, seeds, rows):
    """One kernel pass's corrected traces and final error sums, one entry per (row, seed) in row order."""
    raw = np.column_stack([run_raw_episode(cfg, s) for s in seeds])
    trace, err_sum = pidbatch._block_traces(cfg, raw, np.array(rows, dtype=np.float64))
    return trace.T.tolist(), err_sum.tolist()


def scalar_traces(cfg, seeds, episodes):
    """The scalar path's corrected trace and final error sum per (episode, seed), in the kernel's order.

    Both are None where the episode raises.
    """
    traces, sums = [], []
    for episode in episodes:
        for seed in seeds:
            try:
                corrected = episode(seed)
            except SpillRegError:
                traces.append(None)
                sums.append(None)
                continue
            tracker = ErrorTracker(cfg.reference, cfg.dt)
            traces.append(corrected)
            sums.append([tracker.push(x) for x in corrected][-1].error_sum)
    return traces, sums


def pid_episodes(cfg, points):
    return [lambda seed, p=p: pid_episode_records(cfg, seed, PidGains(*p, dt=cfg.dt))[1] for p in points]


def head_episode(cfg, actor):
    """A closed_loop episode driven by actor.mean, as evaluate_actor_sdf runs it."""
    def episode(seed):
        tracker = StateTracker(cfg, actor.variant)
        return closed_loop(cfg, seed, lambda t, raw, x, a: actor.mean(tracker.push(raw, x, a)))[1]
    return episode


def assert_traces_match(cfg, seeds, rows, episodes):
    """The kernel's records equal the scalar path's wherever the scalar path runs."""
    want_traces, want_sums = scalar_traces(cfg, seeds, episodes)
    got_traces, got_sums = kernel_traces(cfg, seeds, rows)
    ran = [i for i, trace in enumerate(want_traces) if trace is not None]
    assert first_difference([got_traces[i] for i in ran], [want_traces[i] for i in ran]) is None
    assert first_difference([got_sums[i] for i in ran], [want_sums[i] for i in ran]) is None
    return len(ran)


@pytest.mark.scalar_loops
def test_kernel_traces_match_the_scalar_path_on_the_default_grid(env_cfg):
    seeds = list(range(9))
    ran = assert_traces_match(env_cfg, seeds, DEFAULT_GRID_POINTS, pid_episodes(env_cfg, DEFAULT_GRID_POINTS))
    assert ran == len(DEFAULT_GRID_POINTS) * len(seeds)
    for variant, coefs in DEFAULT_HEADS:
        actor = linear_actor(variant, *coefs)
        assert assert_traces_match(env_cfg, seeds, [actor.coefs()], [head_episode(env_cfg, actor)]) == len(seeds)


@pytest.mark.scalar_loops
@settings(max_examples=100, deadline=None)
@given(
    cfg=small_configs(),
    seeds=st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=3),
    points=st.lists(st.tuples(GAIN_VALUES, GAIN_VALUES, KD_VALUES), min_size=1, max_size=4),
    variant=st.sampled_from(["pid_act", "pid3"]),
    coefs=st.tuples(GAIN_VALUES, GAIN_VALUES, KD_VALUES, ACT_WEIGHTS, BIASES),
)
def test_kernel_traces_match_the_scalar_path(cfg, seeds, points, variant, coefs):
    assert_traces_match(cfg, seeds, points, pid_episodes(cfg, points))
    actor = linear_actor(variant, *coefs)
    assert_traces_match(cfg, seeds, [actor.coefs()], [head_episode(cfg, actor)])


@pytest.mark.scalar_loops
def test_trace_pin_rejects_a_one_ulp_kp_nudge(env_cfg):
    """The negative control: a slip that no SDF over seeds 0-8 shows, but the traces do."""
    seeds = list(range(9))
    nudged = (math.nextafter(TUNED_POINT[0], math.inf), *TUNED_POINT[1:])
    want_traces, _ = scalar_traces(env_cfg, seeds, pid_episodes(env_cfg, [TUNED_POINT]))
    got_traces, _ = kernel_traces(env_cfg, seeds, [nudged])
    assert first_difference(got_traces, want_traces) is not None
    assert first_difference(kernel_traces(env_cfg, seeds, [TUNED_POINT])[0], want_traces) is None
    assert pidbatch.batch_sdfs(env_cfg, seeds, [nudged])[0].tolist() == scalar_sdfs(env_cfg, seeds, [TUNED_POINT])


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
    actor = LinearActor.from_gains(HAND_GAINS, "pid_act")
    assert actor.coefs() == [0.5, 0.1, 0.01, 0.0, 0.0]
    assert float(actor.log_std_arr[0]) == -1.0


def test_initial_params_cd_over_carries_kp_only():
    assert LinearActor.from_gains(HAND_GAINS, "cd_over").coefs() == [0.0, 0.0, 0.5, 0.0, 0.0]


def test_initial_params_rejects_unknown_variant():
    with pytest.raises(ShapeError):
        LinearActor.from_gains(HAND_GAINS, "lstm")


@pytest.mark.parametrize("variant,weights,bias,log_std,error", [
    ("lstm", (0.5, 0.1, 0.01, 0.0), 0.0, -1.0, ShapeError),
    ("pid_act", (0.5, 0.1, 0.01), 0.0, -1.0, ShapeError),
    ("pid3", (0.5, 0.1, 0.01, 0.0), 0.0, -1.0, ShapeError),
    ("pid3", (0.5, math.nan, 0.01), 0.0, -1.0, InputError),
    ("pid_act", (0.5, 0.1, 0.01, 0.0), math.inf, -1.0, InputError),
    ("cd_over", (0.0, 0.0, 0.5, 0.0), 0.0, math.nan, InputError),
    # finite weights whose trainable form (times the scales 4096 and 8) overflows
    ("pid_act", (0.0, 0.0, 1e308, 0.0), 0.0, -1.0, InputError),
    ("pid_act", (0.0, 3e307, 0.0, 0.0), 0.0, -1.0, InputError),
])
def test_linear_actor_constructor_checks(variant, weights, bias, log_std, error):
    with pytest.raises(error):
        LinearActor(variant, weights, bias, log_std)


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
    actor = LinearActor("pid_act", (0.4, -0.2, 1e-5, 0.3), bias=0.05, log_std=-0.5)
    sv = (0.5, -2.0, 800.0, 0.7)
    rng = Xoshiro256StarStar(3)
    action, logp = actor.sampler(rng)(sv)
    mean = actor.mean(sv)
    assert logp == pytest.approx(gaussian_log_prob(action, mean, -0.5), abs=1e-12)
    # exploration actually perturbs the mean
    assert action != mean


@pytest.mark.parametrize("kind", ["pid", "nn"])
def test_episode_sampler_draws_what_sample_draws(kind):
    actor = make_actor(kind, "pid_act", HAND_GAINS, Xoshiro256StarStar(2))
    actor.log_std_arr[0] = -0.7
    states = [(0.5, -2.0, 800.0, 0.7), (-0.1, 3.0, -50.0, 0.2), (0.0, 0.0, 0.0, 0.0)]
    rng_a, rng_b = Xoshiro256StarStar(4), Xoshiro256StarStar(4)
    sample = actor.sampler(rng_a)
    assert [sample(s) for s in states] == [oracles.sample(actor, s, rng_b) for s in states]


def test_pid_episode_memo_returns_the_same_immutable_tuple(env_cfg, tuned_gains):
    first = run_pid_episode(env_cfg, 4, tuned_gains)
    assert run_pid_episode(env_cfg, 4, tuned_gains) is first
    with pytest.raises(TypeError):
        first[0] = math.nan  # a caller cannot edit the memo
    run_pid_episode.cache_clear()
    again = run_pid_episode(env_cfg, 4, tuned_gains)
    assert again is not first and again == first == tuple(pid_episode_records(env_cfg, 4, tuned_gains)[1])


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
            p["pid_weights"][0] * features[0]
            + p["pid_weights"][1] * features[1]
            + p["pid_weights"][2] * features[2]
            + p["action_weight"] * features[3]
            + p["bias"]
        )
        assert actor.mean(sv) == expected


def test_linear_actor_batch_matches_scalar(tuned_gains):
    actor = make_actor("pid", "pid_act", tuned_gains, Xoshiro256StarStar(0))
    states = np.array([[0.3, -1.0, 500.0, 0.2], [0.0, 2.0, -100.0, -0.5]])
    mus, _ = actor.mean_scaled(actor.scale(states))
    singles = [actor.mean(tuple(row)) for row in states]
    assert mus == pytest.approx(singles, abs=1e-15)


def linear_head_difference(actor, reference, states, dmu):
    """first_difference of actor's mean_scaled and mean_grads, run through its
    one-layer net, against the matvec oracles on reference's parameters, as
    float.hex strings, so that a zero of the other sign differs too."""
    mu, tape = actor.mean_scaled(actor.scale(states))
    want_mu, want_tape = oracles._mean_batch(reference, states)
    got = [mu, actor.mean_grads(tape, dmu)]
    want = [want_mu, oracles._mean_grads(reference, want_tape, dmu)]
    return first_difference([[x.hex() for x in a.tolist()] for a in got],
                            [[x.hex() for x in a.tolist()] for a in want])


def linear_head_cases(variant, count=50):
    """(weights, bias, states, dmu) draws: a 64-row minibatch and the 46-row tail of a 430-step rollout."""
    rng = np.random.default_rng(23)
    scales = feature_scales(variant)
    for _ in range(count):
        # every term of the mean about as large as the others, in scaled units
        weights, bias = (rng.normal(size=scales.size) / scales).tolist(), float(rng.normal())
        for n in (64, 46):
            yield weights, bias, rng.normal(size=(n, scales.size)) * scales, rng.normal(size=n)


@pytest.mark.scalar_loops
@pytest.mark.parametrize("variant", ["pid_act", "pid3", "cd_over"])
def test_linear_head_through_the_net_matches_the_matvec_bit_for_bit(variant):
    for weights, bias, states, dmu in linear_head_cases(variant):
        actor = LinearActor(variant, weights, bias)
        assert linear_head_difference(actor, actor, states, dmu) is None


@pytest.mark.scalar_loops
@pytest.mark.parametrize("variant", ["pid_act", "pid3", "cd_over"])
def test_linear_head_pin_rejects_a_one_ulp_weight_nudge(variant):
    for weights, bias, states, dmu in linear_head_cases(variant, count=1):
        reference, nudged = LinearActor(variant, weights, bias), LinearActor(variant, weights, bias)
        w = nudged.net.weights[0]
        w[0, 0] = np.nextafter(w[0, 0], math.inf)
        assert linear_head_difference(nudged, reference, states, dmu) is not None
        assert linear_head_difference(reference, reference, states, dmu) is None


def test_linear_actor_round_trip_preserves_function():
    actor = make_actor("pid", "pid_act", HAND_GAINS, Xoshiro256StarStar(0))
    again = actor_from_dict(actor.to_dict())
    assert isinstance(again, LinearActor)
    assert again.params == actor.params
    sv = (0.4, -3.0, 1200.0, 0.9)
    assert again.mean(sv) == actor.mean(sv)


@pytest.mark.parametrize("variant,weights", [
    ("pid_act", [0.5, 0.1, 0.01]),
    ("pid3", [0.5, 0.1, 0.01]),
    ("cd_over", [0.0, 0.0, 0.5]),
])
def test_linear_actor_checkpoint_layout(variant, weights):
    actor = make_actor("pid", variant, HAND_GAINS, Xoshiro256StarStar(0))
    assert actor.to_dict() == {
        "format_version": 1, "kind": "linear", "variant": variant,
        "pid_weights": weights, "action_weight": 0.0, "bias": 0.0, "log_std": -1.0,
    }


LINEAR_DICT = {
    "format_version": 1, "kind": "linear", "variant": "pid_act",
    "pid_weights": [0.5, 0.1, 0.01], "action_weight": 0.25, "bias": 0.015, "log_std": -1.0,
}


def test_linear_actor_rejects_bad_header():
    with pytest.raises(ConfigError, match=r"unsupported policy params header: 2/'linear'"):
        actor_from_dict(dict(LINEAR_DICT, format_version=2))


@pytest.mark.parametrize("weights", [[0.5, 0.1], [0.5, 0.1, 0.01, 0.2]])
def test_linear_actor_rejects_pid_weights_length(weights):
    with pytest.raises(ShapeError):
        actor_from_dict(dict(LINEAR_DICT, pid_weights=weights))


def test_linear_actor_rejects_unknown_variant():
    with pytest.raises(ShapeError):
        actor_from_dict(dict(LINEAR_DICT, variant="lstm"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["kp", "ki", "kd", "action_weight", "bias", "log_std"])
@pytest.mark.parametrize("variant", ["pid_act", "pid3"])
def test_linear_actor_rejects_nonfinite_values(variant, field, bad):
    data = dict(LINEAR_DICT, variant=variant)
    if field in ("kp", "ki", "kd"):
        data["pid_weights"] = list(data["pid_weights"])
        data["pid_weights"][("kp", "ki", "kd").index(field)] = bad
    else:
        data[field] = bad
    with pytest.raises(InputError):
        actor_from_dict(data)


def test_linear_actor_pid3_ignores_action_weight():
    actor = actor_from_dict(dict(LINEAR_DICT, variant="pid3"))
    assert actor.to_dict()["action_weight"] == 0.0
    assert actor.mean((0.4, -3.0, 1200.0)) == 0.5 * 0.4 + 0.1 * -3.0 + 0.01 * 1200.0 + 0.015


def test_linear_actor_sample_stream_is_deterministic():
    actor = make_actor("pid", "pid_act", HAND_GAINS, Xoshiro256StarStar(0))
    sv = (0.4, -3.0, 1200.0, 0.9)
    a1, l1 = actor.sampler(Xoshiro256StarStar(5))(sv)
    a2, l2 = actor.sampler(Xoshiro256StarStar(5))(sv)
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
    mus, _ = actor.mean_scaled(actor.scale(states))
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
    for p in params:
        assert np.shares_memory(p, actor.flat)


@pytest.mark.parametrize("kind", ["pid", "nn"])
def test_writes_through_views_change_the_next_action(kind):
    """mean and a new sampler read the live vector: no cached copy goes stale."""
    actor = make_actor(kind, "pid_act", HAND_GAINS, Xoshiro256StarStar(0))
    sv = (0.4, -3.0, 1200.0, 0.9)
    before = actor.mean(sv)
    actor.parameters()[-2][0] += 0.25  # the bias of the (last) output layer
    if kind == "nn":
        actor.net.bump_version()
    assert actor.mean(sv) == pytest.approx(before + 0.25, abs=1e-12)
    actor.parameters()[0][...] *= 2.0
    assert actor.mean(sv) != pytest.approx(before + 0.25, abs=1e-9)
    mean = actor.mean(sv)
    actor.parameters()[-1][0] = -2.0  # log_std, written through parameters()
    action, logp = actor.sampler(Xoshiro256StarStar(5))(sv)
    assert logp == pytest.approx(gaussian_log_prob(action, mean, -2.0), abs=1e-12)
    if kind == "pid":
        assert actor.params["bias"] == 0.25
        assert actor.params["log_std"] == -2.0
