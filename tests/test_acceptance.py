"""Release gate: one test per shipping criterion, one printed line per pass.

Each criterion is encoded at its stated tolerance. Slow end-to-end pieces
(the 600-iteration training runs) are shared between criteria through
module-scoped fixtures so the suite stays within its runtime budgets.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time

import numpy as np
import pytest

from oracles import ema_reward
from spillreg import cli
from spillreg.controllers import (
    ErrorState,
    NnActor,
    PidGains,
    make_actor,
    pid_update,
    run_pid_episode,
    tune_pid,
)
from spillreg.gradnet import backward, forward
from spillreg.metrics import sdf
from spillreg.ppo import compute_gae, make_critic
from spillreg.rng import Xoshiro256StarStar
from spillreg.spillsim import run_raw_episode

SEEDS = tuple(range(9))


@pytest.fixture
def passline(capsys):
    """Print the per-criterion pass line past pytest's capture."""

    def _line(number: int, message: str) -> None:
        with capsys.disabled():
            print(f"\n[PASS] criterion {number}: {message}", flush=True)

    return _line


# --- shared end-to-end runs ---------------------------------------------------

@pytest.fixture(scope="module")
def default_train_pair(tmp_path_factory):
    """Two full default train runs, the second replayed from the first manifest."""
    base = tmp_path_factory.mktemp("train600")
    first, second = base / "a", base / "b"
    t0 = time.perf_counter()
    assert cli.main(["train", "--out", str(first)]) == 0
    first_seconds = time.perf_counter() - t0
    assert cli.main(
        ["train", "--out", str(second), "--config", str(first / cli.MANIFEST_NAME)]
    ) == 0
    return first, second, first_seconds


@pytest.fixture(scope="module")
def ablation_csv(tmp_path_factory):
    """Main and degraded-reward rows trained on a shared seed schedule."""
    out = tmp_path_factory.mktemp("ablate600")
    assert cli.main(["ablate", "--out", str(out), "--rows", "main,sum"]) == 0
    text = (out / "ablation.csv").read_text()
    body = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    rows = list(csv.DictReader(io.StringIO(body)))
    return {row["reward"]: row for row in rows[:-1]}


# --- criterion 1 ----------------------------------------------------------------

def test_criterion_1_ema_oracle_equivalence(passline):
    """Recursive EMA rewards equal the direct geometric sum, 1e-12, < 5 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    series = rng.uniform(0.0, 2.0, size=(1000, 430))
    k = np.arange(430)
    lag = k[:, None] - k[None, :]
    worst = 0.0
    for alpha in (0.0, 0.1, 0.5, 0.9, 1.0):
        weights = np.where(
            lag >= 0, alpha * np.power(1.0 - alpha, np.maximum(lag, 0)), 0.0
        )
        direct = -(series @ weights.T)
        for row, expected in zip(series, direct):
            recursive = np.asarray(ema_reward(row.tolist(), alpha))
            worst = max(worst, float(np.max(np.abs(recursive - expected))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 5.0
    passline(1, f"max |recursive - direct| = {worst:.2e} over 5000 series in {elapsed:.2f} s")


# --- criterion 2 ----------------------------------------------------------------

def relative_gradient_error(analytic, numeric):
    analytic = float(analytic)
    numeric = float(numeric)
    scale = max(abs(analytic), abs(numeric))
    if scale < 1e-7:
        # both effectively zero; compare absolutely
        return 0.0 if abs(analytic - numeric) < 1e-9 else 1.0
    return abs(analytic - numeric) / scale


def fd_check_net(net, in_dim, rng, coords=12, h=1e-5):
    x = rng.normal(size=(6, in_dim))
    probe = rng.normal(size=(6, net.out_dim))
    _, tape = forward(net, x)
    grads = net.unflatten(backward(net, tape, probe))

    def loss():
        out, _ = forward(net, x)
        return float(np.sum(out * probe))

    worst = 0.0
    for p, g in zip(net.parameters(), grads):
        fp, fg = p.reshape(-1), g.reshape(-1)
        n_take = min(coords, fp.size)
        idxs = rng.choice(fp.size, n_take, replace=False)
        for idx in idxs:
            orig = fp[idx]
            fp[idx] = orig + h
            net.bump_version()
            up = loss()
            fp[idx] = orig - h
            net.bump_version()
            down = loss()
            fp[idx] = orig
            net.bump_version()
            worst = max(worst, relative_gradient_error(fg[idx], (up - down) / (2 * h)))
    return worst


def fd_check_linear_actor(actor, rng, h=1e-5):
    states = rng.normal(size=(6, 4)) * np.array([0.5, 5.0, 3000.0, 0.5])
    probe = rng.normal(size=6)
    _, tape = actor.mean_scaled(actor.scale(states))
    grads = actor.mean_grads(tape, probe)

    def loss():
        mu, _ = actor.mean_scaled(actor.scale(states))
        return float(np.dot(mu, probe))

    worst = 0.0
    fp = actor.flat[:-1]  # every coordinate of the mean: weights and bias
    for idx in range(fp.size):
        orig = fp[idx]
        fp[idx] = orig + h
        up = loss()
        fp[idx] = orig - h
        down = loss()
        fp[idx] = orig
        worst = max(worst, relative_gradient_error(grads[idx], (up - down) / (2 * h)))
    return worst


def fd_check_nn_actor(actor, rng, coords=12, h=1e-5):
    states = rng.normal(size=(6, 4)) * np.array([0.5, 5.0, 3000.0, 0.5])
    probe = rng.normal(size=6)
    _, tape = actor.mean_scaled(actor.scale(states))
    grads = actor.mean_grads(tape, probe)

    def loss():
        mu, _ = actor.mean_scaled(actor.scale(states))
        return float(np.dot(mu, probe))

    worst = 0.0
    for p, g in zip(actor.mean_params(), actor.net.unflatten(grads)):
        fp, fg = p.reshape(-1), g.reshape(-1)
        n_take = min(coords, fp.size)
        idxs = rng.choice(fp.size, n_take, replace=False)
        for idx in idxs:
            orig = fp[idx]
            fp[idx] = orig + h
            actor.net.bump_version()
            up = loss()
            fp[idx] = orig - h
            actor.net.bump_version()
            down = loss()
            fp[idx] = orig
            actor.net.bump_version()
            worst = max(worst, relative_gradient_error(fg[idx], (up - down) / (2 * h)))
    return worst


def test_criterion_2_gradient_checks(passline):
    """Analytic gradients match central differences, rel err < 1e-4, < 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = {"linear": 0.0, "critic": 0.0, "nn": 0.0}
    for draw in range(100):
        gains = PidGains(
            kp=float(rng.uniform(-1, 1)),
            ki=float(rng.uniform(-1, 1)),
            kd=float(rng.uniform(-1e-4, 1e-4)),
            dt=1e-4,
        )
        actor = make_actor("pid", "pid_act", gains, Xoshiro256StarStar(draw))
        actor.mean_params()[0][:] += rng.normal(size=4) * 0.1
        actor.mean_params()[1][:] += rng.normal(size=1) * 0.1
        worst["linear"] = max(worst["linear"], fd_check_linear_actor(actor, rng))

        critic = make_critic(4, Xoshiro256StarStar(1000 + draw))
        worst["critic"] = max(worst["critic"], fd_check_net(critic, 5, rng))

        nn = NnActor.fresh("pid_act", Xoshiro256StarStar(2000 + draw))
        worst["nn"] = max(worst["nn"], fd_check_nn_actor(nn, rng))
    elapsed = time.perf_counter() - t0
    assert max(worst.values()) < 1e-4
    assert elapsed < 30.0
    passline(
        2,
        "max rel err linear {linear:.2e}, critic {critic:.2e}, nn {nn:.2e} "
        "in {t:.1f} s".format(t=elapsed, **worst),
    )


# --- criterion 3 ----------------------------------------------------------------

def gae_oracle(rewards, values, dones, gamma, lam):
    n = len(rewards)
    deltas = []
    for t in range(n):
        boot = values[t + 1] if t + 1 < n else 0.0
        deltas.append(rewards[t] + gamma * boot * (1.0 - dones[t]) - values[t])
    adv = []
    for t in range(n):
        total = 0.0
        factor = 1.0
        for k in range(n - t):
            total += factor * deltas[t + k]
            if t + k < n and dones[t + k]:
                break
            factor *= gamma * lam
        adv.append(total)
    return adv


def test_criterion_3_gae_brute_force_equivalence(passline):
    """Recursive GAE equals the exhaustive discounted-delta sum within 1e-12."""
    rng = np.random.default_rng(2)
    worst = 0.0
    checked = 0
    for length in range(1, 9):
        for _ in range(40):
            rewards = rng.normal(size=length).tolist()
            values = rng.normal(size=length).tolist()
            # compute_gae takes one episode, terminal at its last step; the
            # oracle's two layouts (explicit terminal, or the bootstrap of 0
            # past the end) give that episode's exhaustive sums alike
            for dones in ([0.0] * (length - 1) + [1.0], [0.0] * length):
                for gamma in (0.0, 0.5, 0.99):
                    for lam in (0.0, 0.5, 0.95, 1.0):
                        adv, ret = compute_gae(np.asarray(rewards), np.asarray(values), gamma, lam)
                        expected = gae_oracle(rewards, values, dones, gamma, lam)
                        worst = max(worst, float(np.max(np.abs(adv - np.asarray(expected)))))
                        worst = max(worst, float(np.max(np.abs(ret - (adv + np.asarray(values))))))
                        checked += 1
    assert worst < 1e-12
    passline(3, f"max |recursive - exhaustive| = {worst:.2e} over {checked} buffers")


# --- criterion 4 ----------------------------------------------------------------

def test_criterion_4_embedding_equivalence(passline, tmp_path, env_cfg, tuned_gains):
    """Initialized policy reproduces the PID law exactly, through the CLI too."""
    rng = np.random.default_rng(3)
    actor = make_actor("pid", "pid_act", tuned_gains, Xoshiro256StarStar(0))
    worst = 0.0
    for _ in range(1000):
        err = ErrorState(
            current_error=float(rng.uniform(-2, 2)),
            error_sum=float(rng.uniform(-40, 40)),
            error_diff_rate=float(rng.uniform(-1e4, 1e4)),
            prev_error=float(rng.uniform(-2, 2)),
        )
        sv = (err.current_error, err.error_sum, err.error_diff_rate, float(rng.uniform(-1, 1)))
        worst = max(worst, abs(actor.mean(sv) - pid_update(tuned_gains, err)))
    assert worst < 1e-12

    train_dir = tmp_path / "init"
    eval_dir = tmp_path / "eval"
    assert cli.main(["train", "--out", str(train_dir), "--iterations", "0"]) == 0
    assert cli.main(
        ["evaluate", "--checkpoint", str(train_dir / "checkpoint.json"), "--out", str(eval_dir)]
    ) == 0
    report = json.loads((eval_dir / "report.json").read_text())
    gap = max(abs(row["sdf_rl"] - row["sdf_pid"]) for row in report["per_seed"])
    assert gap <= 1e-9
    passline(
        4,
        f"policy vs pid_update max gap {worst:.2e} on 1000 states; "
        f"evaluate-vs-baseline max SDF gap {gap:.2e} across {len(report['per_seed'])} seeds",
    )


# --- criterion 5 ----------------------------------------------------------------

def test_criterion_5_sdf_unit_anchors(passline):
    flat = sdf([1.0] * 430)
    assert flat == 1.0
    a = math.sqrt(2.0 / 3.0)
    anchored = sdf([1.0 + a, 1.0 - a])
    assert abs(anchored - 0.6) < 1e-12
    passline(5, f"constant trace SDF = {flat}, variance-2/3 trace SDF = {anchored!r}")


# --- criterion 6 ----------------------------------------------------------------

def test_criterion_6_baseline_ordering(passline, env_cfg):
    """Tuned PID beats the unregulated signal everywhere and clears SDF 0.6."""
    t0 = time.perf_counter()
    gains = tune_pid(env_cfg, list(SEEDS))
    raw_sdf = [sdf(run_raw_episode(env_cfg, s)) for s in SEEDS]
    pid_sdf = [sdf(run_pid_episode(env_cfg, s, gains)) for s in SEEDS]
    elapsed = time.perf_counter() - t0
    for s, (r, p) in enumerate(zip(raw_sdf, pid_sdf)):
        assert p > r, f"seed {s}: pid {p} <= raw {r}"
    mean_pid = sum(pid_sdf) / len(pid_sdf)
    assert mean_pid >= 0.6
    assert elapsed < 120.0
    passline(
        6,
        f"PID > unregulated on all {len(SEEDS)} seeds; mean PID SDF "
        f"{mean_pid:.4f} >= 0.6 (unregulated {sum(raw_sdf)/len(raw_sdf):.4f}) in {elapsed:.1f} s",
    )


# --- criterion 7 ----------------------------------------------------------------

def test_criterion_7_training_efficacy(passline, default_train_pair):
    """600-iteration default run: beats noise by >= 5% and holds the PID floor."""
    first, _, seconds = default_train_pair
    report = json.loads((first / "report.json").read_text())
    agg = report["aggregate"]
    assert agg["vs_noise_pct"] >= 5.0
    assert agg["vs_pid_pct"] >= -0.5
    assert seconds < 900.0
    passline(
        7,
        f"vs_noise {agg['vs_noise_pct']:+.2f}% (>= 5), vs_pid {agg['vs_pid_pct']:+.2f}% "
        f"(>= -0.5) in {seconds:.0f} s; full-scale reference +13.67/+1.65 reported, not asserted",
    )


# --- criterion 8 ----------------------------------------------------------------

def test_criterion_8_manifest_rerun_determinism(passline, default_train_pair):
    first, second, _ = default_train_pair
    curve_a = (first / "curve.csv").read_bytes()
    curve_b = (second / "curve.csv").read_bytes()
    ck_a = (first / "checkpoint.json").read_bytes()
    ck_b = (second / "checkpoint.json").read_bytes()
    assert curve_a == curve_b
    assert ck_a == ck_b
    passline(
        8,
        f"manifest rerun byte-identical: curve.csv ({len(curve_a)} bytes), "
        f"checkpoint.json ({len(ck_a)} bytes)",
    )


# --- criterion 9 ----------------------------------------------------------------

def test_criterion_9_ablation_ordering(passline, ablation_csv, tmp_path):
    main_row = ablation_csv["EMA a=0.5"]
    sum_row = ablation_csv["-SUM"]
    main_vs_noise = float(main_row["vs_noise"])
    sum_vs_noise = float(sum_row["vs_noise"])
    assert main_vs_noise > sum_vs_noise

    # the reduced CI mode must run end to end
    reduced = tmp_path / "reduced"
    assert cli.main(
        ["ablate", "--out", str(reduced), "--rows", "main", "--iterations", "150"]
    ) == 0
    assert (reduced / "ablation.csv").exists()
    passline(
        9,
        f"main vs_noise {main_vs_noise:+.3f}% > -SUM {sum_vs_noise:+.3f}% "
        f"on the shared schedule; 150-iteration reduced mode runs",
    )
