"""Metric correctness: SDF anchors, reward recursions vs direct sums, reports."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ema_direct_oracle, ema_direct_series, ema_reward, neg_sum_series
from spillreg import metrics
from spillreg.errors import InputError
from spillreg.metrics import (
    RewardAccumulator,
    improvement,
    ordered_mean,
    report_dict,
    sdf,
)

finite_traces = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    min_size=2,
    max_size=200,
)


def test_sdf_constant_trace_is_one():
    assert sdf([1.0] * 10) == 1.0
    assert sdf([0.3, 0.3, 0.3]) == 1.0


def test_sdf_known_variances():
    # population variance 2/3 gives 1/(1 + 2/3) = 0.6
    a = math.sqrt(2.0 / 3.0)
    assert sdf([1.0 + a, 1.0 - a]) == pytest.approx(0.6, abs=1e-12)
    # [1,1,1,3] has variance 0.75
    assert sdf([1.0, 1.0, 1.0, 3.0]) == pytest.approx(1.0 / 1.75, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(trace=finite_traces)
def test_sdf_in_unit_interval(trace):
    value = sdf(trace)
    assert 0.0 < value <= 1.0


@settings(max_examples=60, deadline=None)
@given(trace=finite_traces, shift=st.floats(min_value=-10, max_value=10))
def test_sdf_shift_invariant(trace, shift):
    # depends on the spread only, not on the operating point
    base = sdf(trace)
    moved = sdf([x + shift for x in trace])
    assert moved == pytest.approx(base, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("bad", [[], [1.0], [1.0, float("nan")], [1.0, float("inf")]])
def test_sdf_rejects_bad_traces(bad):
    with pytest.raises(InputError):
        sdf(bad)


# finite samples whose squared deviations overflow (inf), or whose partial sums
# overflow to both infinities, so that their mean is NaN (nan)
@pytest.mark.parametrize("trace, var", [([1e308, -1e308], "inf"), (([1e308] * 4 + [-1e308] * 4) * 2, "nan")])
def test_sdf_refuses_a_variance_that_overflows(trace, var):
    # pytest turns a RuntimeWarning into an error, so this also checks that numpy warns of nothing
    with pytest.raises(InputError, match=rf"sdf trace variance is non-finite \({var}\)"):
        sdf(trace)


def test_ema_reward_hand_values():
    # alpha 0.5, errors [0.2, 0.1]:
    #   EMA_0 = 0.5*0.2 = 0.1, EMA_1 = 0.5*0.1 + 0.5*0.1 = 0.1
    assert ema_reward([0.2, 0.1], 0.5) == pytest.approx([-0.1, -0.1], abs=1e-15)


def test_ema_reward_alpha_edges():
    errors = [0.4, 0.3, 0.2]
    assert ema_reward(errors, 1.0) == pytest.approx([-e for e in errors])
    assert ema_reward(errors, 0.0) == pytest.approx([0.0, 0.0, 0.0], abs=0.0)


@pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan"), True, False])
def test_ema_reward_rejects_bad_alpha(alpha):
    with pytest.raises(InputError):
        ema_reward([0.1], alpha)
    with pytest.raises(InputError):
        RewardAccumulator("neg_ema", alpha, 10)


@settings(max_examples=80, deadline=None)
@given(
    errors=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=60),
    alpha=st.floats(min_value=0.0, max_value=1.0),
)
def test_ema_recursion_matches_direct_sum(errors, alpha):
    # the direct helpers return the positive EMA; rewards are its negation
    recursive = ema_reward(errors, alpha)
    direct = ema_direct_series(errors, alpha)
    assert np.max(np.abs(np.asarray(recursive) + direct)) < 1e-12


def test_ema_direct_oracle_single_index():
    errors = [0.5, 0.25, 1.0]
    alpha = 0.3
    for t in range(len(errors)):
        expected = sum(
            alpha * (1 - alpha) ** (t - tau) * errors[tau] for tau in range(t + 1)
        )
        assert ema_direct_oracle(errors, alpha, t) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(InputError):
        ema_direct_oracle(errors, alpha, len(errors))


def test_neg_sum_hand_values():
    # running sum of |e| scaled by 1/steps_per_episode
    assert neg_sum_series([0.2, 0.1], 2) == pytest.approx([-0.1, -0.15])
    with pytest.raises(InputError):
        neg_sum_series([0.1], 0)


def test_reward_accumulator_streams_match_batch():
    errors = [0.3, 0.05, 0.7, 0.0, 0.2]
    ema_acc = RewardAccumulator("neg_ema", 0.4, len(errors))
    sum_acc = RewardAccumulator("neg_sum", 0.4, len(errors))
    streamed_ema = [ema_acc.push(e) for e in errors]
    streamed_sum = [sum_acc.push(e) for e in errors]
    assert streamed_ema == pytest.approx(ema_reward(errors, 0.4), abs=1e-15)
    assert streamed_sum == pytest.approx(neg_sum_series(errors, len(errors)), abs=1e-15)


def test_reward_accumulator_rejects_unknown_kind():
    with pytest.raises(InputError):
        RewardAccumulator("bogus", 0.5, 10)


def test_improvement_percent():
    assert improvement(0.66, 0.6) == pytest.approx(10.0)
    assert improvement(0.54, 0.6) == pytest.approx(-10.0)
    with pytest.raises(InputError):
        improvement(0.5, 0.0)


def test_improvement_report_dict_shape():
    rows = [(0.5, 0.75, 0.8), (0.4, 0.8, 0.7)]  # (noise, pid, rl) per seed
    data = report_dict([0, 1], *(list(column) for column in zip(*rows)))
    assert [row["seed"] for row in data["per_seed"]] == [0, 1]
    for out, (noise, pid, rl) in zip(data["per_seed"], rows):
        assert out["vs_pid_pct"] == improvement(rl, pid)
        assert out["vs_noise_pct"] == improvement(rl, noise)
    noise, pid, rl = (float(np.mean(column)) for column in zip(*rows))
    # the primary aggregates are the means of the per-seed ratios
    vs_pid = float(np.mean([improvement(r, p) for _, p, r in rows]))
    vs_noise = float(np.mean([improvement(r, n) for n, _, r in rows]))
    assert data["aggregate"] == {
        "mean_sdf_noise": noise,
        "mean_sdf_pid": pid,
        "mean_sdf_rl": rl,
        "vs_pid_pct": vs_pid,
        "vs_noise_pct": vs_noise,
        "vs_pid_pct_mean_of_ratios": vs_pid,
        "vs_noise_pct_mean_of_ratios": vs_noise,
        "vs_pid_pct_of_means": improvement(rl, pid),
        "vs_noise_pct_of_means": improvement(rl, noise),
    }
    # ratio of means differs from mean of ratios on heterogeneous seeds
    assert improvement(rl, pid) != pytest.approx(vs_pid)


def test_reward_kinds_registry():
    assert set(metrics.REWARD_KINDS) == {"neg_ema", "neg_sum"}


def test_ordered_mean_adds_left_to_right():
    # a compensated sum (math.fsum, builtin sum from Python 3.12) gives 0.5 here
    assert ordered_mean([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert ordered_mean([0.1] * 10) == (((0.1 + 0.1) + 0.1) + 0.1 + 0.1 + 0.1 + 0.1 + 0.1 + 0.1 + 0.1) / 10
    assert ordered_mean([2.5]) == 2.5
