"""Environment behavior: determinism, noise structure, clamping, CSV output."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spillreg import spillsim
from spillreg.controllers import ErrorTracker, PidGains, StateTracker, make_actor, pid_update
from spillreg.errors import ConfigError, EpisodeExhausted, InvalidActionError
from spillreg.rng import Xoshiro256StarStar
from spillreg.spillsim import EnvConfig, clamp_action, closed_loop, format_trace_csv, run_raw_episode


def test_same_seed_reproduces_raw_trace(env_cfg):
    assert run_raw_episode(env_cfg, 3) == run_raw_episode(env_cfg, 3)


def test_different_seeds_differ(env_cfg):
    assert run_raw_episode(env_cfg, 0) != run_raw_episode(env_cfg, 1)


def test_episode_length(env_cfg):
    assert len(run_raw_episode(env_cfg, 0)) == env_cfg.steps_per_episode


def test_raw_trace_independent_of_actions(env_cfg):
    """Actions shift the corrected sample only; the noise draw is untouched."""
    idle = spillsim.reset(env_cfg, 5)
    driven = spillsim.reset(env_cfg, 5)
    for k in range(env_cfg.steps_per_episode):
        spillsim.step(idle, env_cfg, 0.0)
        spillsim.step(driven, env_cfg, 0.3 * math.sin(k))
    assert idle.raw_trace == driven.raw_trace
    assert idle.corrected_trace != driven.corrected_trace


def test_corrected_equals_raw_minus_action_within_clamp():
    cfg = EnvConfig(steps_per_episode=50)
    state = spillsim.reset(cfg, 2)
    actions = [0.1] * cfg.steps_per_episode
    for action in actions:
        spillsim.step(state, cfg, action)
    for raw, corr, act in zip(state.raw_trace, state.corrected_trace, actions):
        expected = min(max(raw - act, cfg.clamp_lo), cfg.clamp_hi)
        assert corr == expected


def test_clamp_bounds_hold_under_big_actions():
    cfg = EnvConfig(steps_per_episode=60, clamp_lo=0.0, clamp_hi=2.0, action_bound=10.0)
    state = spillsim.reset(cfg, 4)
    for k in range(cfg.steps_per_episode):
        obs, _ = spillsim.step(state, cfg, 5.0 if k % 2 else -5.0)
        assert cfg.clamp_lo <= obs <= cfg.clamp_hi


def test_ripple_matches_analytic_form_when_noise_off():
    cfg = EnvConfig(steps_per_episode=100, ou_sigma=0.0)
    state = spillsim.reset(cfg, 9)
    for _ in range(cfg.steps_per_episode):
        spillsim.step(state, cfg, 0.0)
    phases = state.phases
    for t, raw in enumerate(state.raw_trace):
        expected = cfg.reference
        for amp, freq, phase in zip(cfg.ripple_amps, cfg.ripple_freqs, phases):
            expected += amp * math.sin(2.0 * math.pi * freq * t * cfg.dt + phase)
        assert raw == pytest.approx(expected, abs=1e-12)


def test_ou_stationary_std():
    # var of x_t = rho^2 var + sigma^2 converges to sigma^2/(1-rho^2)
    cfg = EnvConfig(steps_per_episode=100_000, ripple_amps=(), ripple_freqs=(),
                    ou_sigma=0.02, clamp_lo=-10.0, clamp_hi=10.0)
    trace = run_raw_episode(cfg, 0)
    dev = [x - cfg.reference for x in trace]
    mean = sum(dev) / len(dev)
    std = math.sqrt(sum((d - mean) ** 2 for d in dev) / len(dev))
    expected = cfg.ou_sigma / math.sqrt(1.0 - cfg.ou_rho**2)
    assert std == pytest.approx(expected, rel=0.10)


def test_noise_amplitude_change_shares_phase_draws():
    """One normal per step regardless of sigma, so phases line up across configs."""
    quiet = EnvConfig(steps_per_episode=10, ou_sigma=0.0)
    loud = EnvConfig(steps_per_episode=10, ou_sigma=0.4)
    a = spillsim.reset(quiet, 7)
    b = spillsim.reset(loud, 7)
    assert a.phases == b.phases


def test_step_past_end_raises():
    cfg = EnvConfig(steps_per_episode=3)
    state = spillsim.reset(cfg, 0)
    for _ in range(3):
        spillsim.step(state, cfg, 0.0)
    with pytest.raises(EpisodeExhausted):
        spillsim.step(state, cfg, 0.0)


def test_nonfinite_action_rejected(env_cfg):
    state = spillsim.reset(env_cfg, 0)
    with pytest.raises(InvalidActionError):
        spillsim.step(state, env_cfg, float("nan"))
    with pytest.raises(InvalidActionError):
        spillsim.step(state, env_cfg, float("inf"))


def test_done_flag_only_on_last_step():
    cfg = EnvConfig(steps_per_episode=5)
    state = spillsim.reset(cfg, 1)
    flags = [spillsim.step(state, cfg, 0.0)[1] for _ in range(5)]
    assert flags == [False, False, False, False, True]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"steps_per_episode": 0},
        {"dt": 0.0},
        {"ripple_amps": (0.1,), "ripple_freqs": (60.0, 180.0)},
        {"ou_rho": 1.0},
        {"ou_rho": -0.1},
        {"ou_sigma": -1.0},
        {"clamp_lo": 1.5},
        {"action_bound": 0.0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        EnvConfig(**kwargs)


@pytest.mark.parametrize(
    "field,value",
    [
        ("dt", math.inf),
        ("ou_sigma", math.inf),
        ("clamp_lo", -math.inf),
        ("clamp_hi", math.inf),
        ("action_bound", math.inf),
    ],
)
def test_config_rejects_nonfinite_values(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        EnvConfig(**{field: value})


# math.sin raises on an infinite argument: raw_next's 2*pi*f*t*dt must stay finite
@pytest.mark.parametrize("kwargs", [{"dt": 1e306}, {"ripple_freqs": (1e308, 180.0)}])
def test_config_refuses_a_ripple_phase_that_overflows(kwargs):
    with pytest.raises(ConfigError, match=r"^ripple_freqs \[.*\] with dt .* overflow the ripple phase$"):
        EnvConfig(**kwargs)


def test_config_keeps_a_huge_ripple_phase_that_stays_finite():
    # 2*pi*1e306 times the last step's 0.0429 s is about 2.7e305
    cfg = EnvConfig(ripple_freqs=(1e306, 180.0))
    assert all(map(math.isfinite, run_raw_episode(cfg, 0)))


def test_config_round_trip(env_cfg):
    again = EnvConfig.from_dict(env_cfg.to_dict())
    assert again == env_cfg


def test_config_rejects_unknown_field():
    with pytest.raises(ConfigError):
        EnvConfig.from_dict({"stepss": 10})


def test_trace_csv_format():
    text = format_trace_csv([1.5, 1.25], [1.5, 1.0], [0.0, 0.25])
    assert text == "t,raw,corrected,action\n0,1.5,1.5,0\n1,1.25,1,0.25\n"


def test_trace_csv_rejects_misaligned_columns():
    with pytest.raises(ConfigError):
        format_trace_csv([1.0], [1.0, 2.0], [0.0])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_reset_is_pure(seed):
    cfg = EnvConfig(steps_per_episode=8)
    a = spillsim.reset(cfg, seed)
    b = spillsim.reset(cfg, seed)
    assert a.phases == b.phases
    assert a.rng.state == b.rng.state


# --- closed-loop driver against the scalar reference ---------------------------

PINNED_GAINS = PidGains(kp=0.34375, ki=0.6, kd=-8.750000000000001e-06, dt=1e-4)
DRIVER_CONFIGS = (EnvConfig(), EnvConfig(action_bound=0.05, clamp_lo=0.8, clamp_hi=1.2))


def pid_controller(cfg):
    tracker = ErrorTracker(cfg.reference, cfg.dt)
    return lambda t, raw, x, applied: pid_update(PINNED_GAINS, tracker.push(x))


def overdriven_controller(cfg):
    return lambda t, raw, x, applied: 5.0 * cfg.action_bound * (1.0 if t % 3 else -1.0)


def initial_actor_controller(cfg):
    actor = make_actor("pid", "pid_act", PINNED_GAINS, Xoshiro256StarStar(0))
    tracker = StateTracker(cfg, actor.variant)
    return lambda t, raw, x, applied: actor.mean(tracker.push(raw, x, applied))


CONTROLLERS = {
    "pid": pid_controller,
    "overdriven": overdriven_controller,
    "initial_actor": initial_actor_controller,
}


def reference_episode(cfg, seed, controller):
    """The closed loop written out with reset/step and clamp_action."""
    state = spillsim.reset(cfg, seed)
    applied = []
    pending = 0.0
    for t in range(cfg.steps_per_episode):
        x, _ = spillsim.step(state, cfg, pending)
        applied.append(pending)
        pending = clamp_action(controller(t, state.raw_trace[-1], x, pending), cfg.action_bound)
    return state.raw_trace, state.corrected_trace, applied


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    cfg=st.sampled_from(DRIVER_CONFIGS),
    name=st.sampled_from(sorted(CONTROLLERS)),
)
def test_closed_loop_matches_scalar_reference(seed, cfg, name):
    raw, corrected, applied = closed_loop(cfg, seed, CONTROLLERS[name](cfg))
    ref_raw, ref_corrected, ref_applied = reference_episode(cfg, seed, CONTROLLERS[name](cfg))
    assert list(raw) == ref_raw
    assert corrected == ref_corrected
    assert applied == ref_applied


def test_closed_loop_rejects_nan_and_clamps_infinities(env_cfg):
    with pytest.raises(InvalidActionError):
        closed_loop(env_cfg, 0, lambda t, raw, x, applied: float("nan"))
    for inf in (float("inf"), float("-inf")):
        def controller(t, raw, x, applied):
            return inf

        _, corrected, applied = closed_loop(env_cfg, 0, controller)
        bound = math.copysign(env_cfg.action_bound, inf)
        assert applied == [0.0] + [bound] * (env_cfg.steps_per_episode - 1)
        assert corrected == reference_episode(env_cfg, 0, controller)[1]


def test_raw_trace_memo_is_immutable_and_recomputable(env_cfg):
    memo = run_raw_episode(env_cfg, 6)
    assert run_raw_episode(env_cfg, 6) is memo
    assert closed_loop(env_cfg, 6, lambda t, raw, x, applied: 0.0)[0] is memo
    with pytest.raises(TypeError):
        memo[0] = 0.0  # type: ignore[index]
    run_raw_episode.cache_clear()
    fresh = run_raw_episode(env_cfg, 6)
    assert fresh is not memo
    assert fresh == memo
