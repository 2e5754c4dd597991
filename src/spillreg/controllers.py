"""Discrete PID control, gain tuning, and the trainable policy heads.

The classical controller follows the discrete-time PID law

    u_t = kp * P_t + ki * I_t + kd * D_t

with P_t = x_t - reference, I_t the literal running sum of errors including
the current one, and D_t the first difference of the error divided by dt
(zero at t = 0, where no previous error exists).

The trainable "neuralized PID" policy is a linear map over a state vector
whose default features are exactly (P, I, D, Act), Act being the previously
applied action. With pid_weights set to tuned PID gains and the action head
and bias at zero, policy_mean reproduces pid_update to machine precision:
the policy strictly generalizes the controller it is initialized from. Two
ablation state variants exist (PID3 drops Act; CDOver swaps in corrected
difference and an over-reference counter), plus an NN policy variant that
replaces the linear map with a small tanh network over the same features.

During an episode StateTracker.push returns each step's features as a plain
tuple of floats; the actors act on those tuples. Both heads keep a
gradnet.DenseNet mean over the scaled features (the linear one a single
identity layer) and log_std in one float64 vector, `flat`
(policy.GaussianPolicy). mean() reads it live; an episode, in which the
policy does not change, reads it once through episode_mean(), which both
the rollout's sampler() and ppo.evaluate_actor_sdf use.

Exploration is a Gaussian over the mean action with a learnable log_std,
clamped to [-5, 2]. The sampler returns the pre-clamp action and its log
probability; actuation clamps to the environment's action bound. That math,
policy_mean and the actors' shared methods (policy.GaussianPolicy) live in
policy, next to the PPO step that differentiates them.

run_pid_episode memoizes the corrected PID trace per (config, seed, gains),
so the per-iteration training curve recomputes no PID episode.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import gradnet, metrics, pidbatch, policy
from .errors import ConfigError, InputError, ShapeError
from .policy import policy_mean
from .rng import Xoshiro256StarStar
from .spillsim import RAW_MEMO_SIZE, EnvConfig, check_number, closed_loop

VARIANT_PID_ACT = "pid_act"  # [P, I, D, Act]
VARIANT_PID3 = "pid3"  # [P, I, D]
VARIANT_CD_OVER = "cd_over"  # [CD, Over1, P, Act]

STATE_DIMS = {VARIANT_PID_ACT: 4, VARIANT_PID3: 3, VARIANT_CD_OVER: 4}
STATE_LABELS = {
    VARIANT_PID_ACT: "P,I,D,Act",
    VARIANT_PID3: "P,I,D",
    VARIANT_CD_OVER: "CD,Over-1,P,Act",
}

# Per-feature scales used only inside trainable representations: learners see
# features/scale and weights*scale, which balances Adam's uniform step size
# across features whose natural magnitudes span four orders (D is an error
# rate over dt = 1e-4, so its std sits near 4e3 while P stays below 1).
# Powers of two make w*scale/scale bit-exact, so the semantic parameters and
# the exact PID embedding are untouched by the reparameterization.
FEATURE_SCALES = {
    VARIANT_PID_ACT: (1.0, 8.0, 4096.0, 1.0),
    VARIANT_PID3: (1.0, 8.0, 4096.0),
    VARIANT_CD_OVER: (1.0, 1.0, 1.0, 1.0),
}


def feature_scales(variant: str) -> np.ndarray:
    if variant not in FEATURE_SCALES:
        raise ShapeError(f"unknown state variant {variant!r}")
    return np.asarray(FEATURE_SCALES[variant], dtype=np.float64)


# --- classical PID ----------------------------------------------------------

@dataclass(frozen=True)
class PidGains:
    kp: float
    ki: float
    kd: float
    dt: float

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        for name in ("kp", "ki", "kd"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")

    def to_dict(self) -> dict:
        return {"format_version": 1, "kp": self.kp, "ki": self.ki, "kd": self.kd, "dt": self.dt}

    @classmethod
    def from_dict(cls, data: dict) -> "PidGains":
        if data.get("format_version") != 1:
            raise ConfigError(f"unsupported gains format_version {data.get('format_version')!r}")
        return cls(**{k: float(check_number(k, data[k])) for k in ("kp", "ki", "kd", "dt")})


@dataclass(frozen=True)
class ErrorState:
    """PID features at one step. error_diff_rate is 0 at t=0 by convention."""

    current_error: float
    error_sum: float
    error_diff_rate: float
    prev_error: float


class ErrorTracker:
    """Accumulates ErrorState over a trace, one push per sample."""

    def __init__(self, reference: float, dt: float):
        self.reference = reference
        self.dt = dt
        self._n = 0
        self._prev_error = 0.0
        self._error_sum = 0.0

    def advance(self, sample: float) -> tuple[float, float, float]:
        """Consume one sample; returns (P, I, D) as plain floats."""
        e = sample - self.reference
        diff_rate = 0.0 if self._n == 0 else (e - self._prev_error) / self.dt
        self._error_sum += e
        self._prev_error = e
        self._n += 1
        return e, self._error_sum, diff_rate

    def push(self, sample: float) -> ErrorState:
        prev_error = self._prev_error
        return ErrorState(*self.advance(sample), prev_error=prev_error)


def pid_update(gains: PidGains, err: ErrorState) -> float:
    """The PID control value kp*P + ki*I + kd*D."""
    for name, v in (
        ("current_error", err.current_error),
        ("error_sum", err.error_sum),
        ("error_diff_rate", err.error_diff_rate),
    ):
        if not math.isfinite(v):
            raise InputError(f"ErrorState.{name} is not finite: {v}")
    return gains.kp * err.current_error + gains.ki * err.error_sum + gains.kd * err.error_diff_rate


def _check_dt(config: EnvConfig, gains: PidGains) -> None:
    if gains.dt != config.dt:
        raise ConfigError(f"gains.dt={gains.dt} does not match config.dt={config.dt}")


def pid_episode_records(
    config: EnvConfig, seed: int, gains: PidGains
) -> tuple[tuple[float, ...], list[float], list[float]]:
    """Closed-loop PID episode; returns (raw, corrected, applied_actions).

    The control computed after observing x_t is applied to x_{t+1}; the
    first step runs with action 0. This is the scalar path: single episodes
    (simulate, the per-iteration training curve, a point the batched kernel
    cannot vouch for) and the reference that tests check it against.
    """
    _check_dt(config, gains)
    tracker = ErrorTracker(config.reference, config.dt)
    return closed_loop(config, seed, lambda t, raw, x, applied: pid_update(gains, tracker.push(x)))


@functools.lru_cache(maxsize=RAW_MEMO_SIZE)
def run_pid_episode(config: EnvConfig, seed: int, gains: PidGains) -> tuple[float, ...]:
    """Corrected trace of one closed-loop PID episode, memoized per (config, seed, gains).

    Like spillsim.run_raw_episode, the first request runs the scalar path and
    later ones return the same immutable tuple; an episode that raises is not kept.
    """
    return tuple(pid_episode_records(config, seed, gains)[1])


# --- gain tuning ------------------------------------------------------------

@dataclass(frozen=True)
class GainGrid:
    kp: tuple[float, ...]
    ki: tuple[float, ...]
    kd: tuple[float, ...]

    def __post_init__(self):
        for name in ("kp", "ki", "kd"):
            axis = tuple(float(v) for v in getattr(self, name))
            if not axis:
                raise ConfigError(f"gain grid axis {name} is empty")
            if not all(math.isfinite(v) for v in axis):
                raise ConfigError(f"gain grid axis {name} must be finite, got {axis}")
            object.__setattr__(self, name, axis)


DEFAULT_GAIN_GRID = GainGrid(
    kp=(0.0, 0.25, 0.5, 0.75, 1.0),
    ki=(0.0, 0.1, 0.3, 0.6, 0.9),
    kd=(0.0, 1e-5, 2e-5),
)


def _axis_step(axis: tuple[float, ...]) -> float:
    if len(axis) < 2:
        return 0.0
    return (max(axis) - min(axis)) / (len(axis) - 1)


def round_points(best, hs) -> list[tuple[float, float, float]]:
    """Every point a tune_pid refinement round could probe, best first.

    The round probes, axis by axis with h = hs[axis] (skipping h == 0),
    best[axis] - h and then best[axis] + h, and either probe may become the
    new best. The coordinates move independently, so an axis can end at b,
    b - h, b + h or (b - h) + h, computed with the round's own float ops
    ((b - h) + h is a value of its own where it differs from b), and the
    points are every combination of those. Most are never probed, and a
    coordinate may overflow to infinity.
    """
    axes = [dict.fromkeys((b, b - h, b + h, (b - h) + h) if h else (b,)) for b, h in zip(best, hs)]
    return list(itertools.product(*axes))


def tune_pid(config: EnvConfig, seeds: list[int], grid: GainGrid = DEFAULT_GAIN_GRID) -> tuple[PidGains, float]:
    """Grid search maximizing mean SDF over seeds, plus coordinate refinement.

    Returns the best gains and their mean SDF over seeds, the ordered_mean
    of the point's per-seed SDFs that the search compared.

    After the exhaustive grid pass the best point is polished by one
    coordinate-descent pass: 3 rounds over the axes, probing +-step with the
    step halved each round (initial step = half the axis spacing). Ties are
    broken toward the smallest (|kp|, |ki|, |kd|) lexicographically.

    Every score comes from one cache. The grid, and before each round every
    point round_points says the round could probe, are scored in
    one pidbatch.batch_sdfs call each, which caches the points exact on
    every seed. The search then visits the grid points and the probes in
    order; a visited point left uncached runs all its seeds on the scalar
    path, which raises its errors (a cell the kernel marks exact runs on it
    without error). The default grid on nine seeds takes 5 kernel passes:
    38 + 37 grid points, then rounds of 26, 35 and 26, and no scalar episode.
    """
    if not seeds:
        raise ConfigError("tune_pid needs a non-empty seed list")
    cache: dict[tuple[float, float, float], float] = {}
    best: tuple[float, float, float] | None = None
    best_score = -math.inf

    def score_points(points) -> None:
        todo = [p for p in points if p not in cache and all(map(math.isfinite, p))]
        sdfs, exact = pidbatch.batch_sdfs(config, seeds, todo)
        for point, row, ok in zip(todo, sdfs.tolist(), exact.all(axis=1)):
            if ok:
                cache[point] = metrics.ordered_mean(row)

    def visit(point: tuple[float, float, float]) -> None:
        nonlocal best, best_score
        if point not in cache:
            gains = PidGains(*point, dt=config.dt)
            cache[point] = metrics.ordered_mean([metrics.sdf(run_pid_episode(config, s, gains)) for s in seeds])
        score = cache[point]
        if best is None or score > best_score or (
                score == best_score and [abs(v) for v in point] < [abs(v) for v in best]):
            best, best_score = point, score

    grid_points = [(kp, ki, kd) for kp in grid.kp for ki in grid.ki for kd in grid.kd]
    score_points(grid_points)
    for point in grid_points:
        visit(point)
    steps = [_axis_step(grid.kp), _axis_step(grid.ki), _axis_step(grid.kd)]
    for rnd in range(1, 4):
        hs = [s / (2.0 ** rnd) for s in steps]
        score_points(round_points(best, hs))
        for axis, h in enumerate(hs):
            if h == 0.0:
                continue
            for delta in (-h, h):
                cand = list(best)
                cand[axis] += delta
                visit(tuple(cand))
    return PidGains(*best, dt=config.dt), best_score


# --- state features ---------------------------------------------------------

class StateTracker:
    """Builds the per-step feature tuple of the active variant during an episode.

    push() is called once per environment step with the new raw sample, the
    corrected sample, and the action that was applied to produce it (that
    action is the Act feature, i.e. a_{t-1} relative to the new decision).
    It returns the features as a plain tuple of STATE_DIMS[variant] floats.
    """

    def __init__(self, config: EnvConfig, variant: str):
        if variant not in STATE_DIMS:
            raise ShapeError(f"unknown state variant {variant!r}")
        self.variant = variant
        self.errors = ErrorTracker(config.reference, config.dt)
        self._reference = config.reference
        self._over_scale = 1.0 / config.steps_per_episode
        self._over_count = 0
        self._prev_corrected: float | None = None

    def push(self, raw: float, corrected: float, applied_action: float) -> tuple[float, ...]:
        p, i, d = self.errors.advance(corrected)
        if self.variant == VARIANT_PID_ACT:
            values = (p, i, d, applied_action)
        elif self.variant == VARIANT_PID3:
            values = (p, i, d)
        else:  # CDOver
            cd = 0.0 if self._prev_corrected is None else corrected - self._prev_corrected
            if raw >= self._reference:
                self._over_count += 1
            values = (cd, self._over_count * self._over_scale, p, applied_action)
        self._prev_corrected = corrected
        if not all(map(math.isfinite, values)):
            raise InputError(f"state features are not finite: {values}")
        return values


# --- trainable policies -----------------------------------------------------


class LinearActor(policy.GaussianPolicy):
    """The neuralized-PID policy head: a linear map over the state features.

    weights holds one coefficient per feature of variant, in feature units.
    For training the map is a one-layer identity DenseNet over the scaled
    features: its (1, n) weight holds those weights times FEATURE_SCALES (the
    trainable coordinates) and its (1,) bias the bias, so flat = [w_0 ..
    w_{n-1}, bias, log_std]. mean() reads the live vector on every call,
    unscales it exactly (power-of-two scales) and evaluates policy_mean on
    plain floats, where exactness matters; episode_mean() reads it once, for
    an episode in which the policy does not change. params is the checkpoint
    record of the live coefficients.
    """

    kind = "pid"
    label = "linear actor"

    def __init__(self, variant: str, weights, bias: float = 0.0, log_std: float = -1.0):
        scales = feature_scales(variant)  # ShapeError for an unknown variant
        self.variant = variant
        self.state_dim = dim = len(scales)
        values = [*map(float, weights), float(bias), float(log_std)]
        if len(values) != dim + 2:
            raise ShapeError(f"variant {variant!r} takes {dim} weights, got {len(values) - 2}")
        # flat[:-1] / _unscale is (weights, bias) exactly
        self._unscale = np.append(scales, 1.0)
        coefs = np.asarray(values, dtype=np.float64)
        with np.errstate(over="ignore"):  # a scaled weight may overflow: the base refuses it
            coefs[:dim] *= scales
        super().__init__(gradnet.DenseNet([(1, dim)], ["identity"], coefs[:-1]), scales, values[-1])

    @classmethod
    def from_gains(cls, gains: PidGains, variant: str) -> "LinearActor":
        """Start the policy at the tuned baseline it must beat.

        PIDAct/PID3 embed the tuned gains directly. CDOver's features are not
        (P, I, D), so only the proportional gain carries over (onto its P
        feature); the remaining weights start at zero.
        """
        weights = {
            VARIANT_PID_ACT: (gains.kp, gains.ki, gains.kd, 0.0),
            VARIANT_PID3: (gains.kp, gains.ki, gains.kd),
            VARIANT_CD_OVER: (0.0, 0.0, gains.kp, 0.0),
        }.get(variant, ())
        return cls(variant, weights)

    def coefs(self) -> list[float]:
        """The live (weights..., bias) as plain floats, unscaled exactly."""
        return (self.flat[:-1] / self._unscale).tolist()

    @property
    def params(self) -> dict:
        *w, bias = self.coefs()
        return {
            "format_version": 1,
            "kind": "linear",
            "pid_weights": w[:3],
            "action_weight": w[3] if self.state_dim == 4 else 0.0,
            "bias": bias,
            "log_std": float(self.log_std_arr[0]),
        }

    def mean(self, state: tuple[float, ...]) -> float:
        return self.episode_mean()(state)

    def episode_mean(self):
        """policy_mean on the coefficients as they are now, read once."""
        *w, bias = self.coefs()
        return functools.partial(policy_mean, w, bias)

    def to_dict(self) -> dict:
        return dict(self.params, variant=self.variant)

    @classmethod
    def from_dict(cls, data: dict) -> "LinearActor":
        if data.get("format_version") != 1 or data.get("kind") != "linear":
            raise ConfigError(f"unsupported policy params header: {data.get('format_version')!r}/{data.get('kind')!r}")
        weights = [*map(float, data["pid_weights"]), float(data["action_weight"])]
        if len(weights) != 4:
            raise ShapeError(f"pid_weights must have 3 entries, got {len(weights) - 1}")
        # pid3 has no Act feature: its action_weight is checked, then dropped
        if data["variant"] == VARIANT_PID3:
            if not math.isfinite(weights.pop()):
                raise InputError("policy parameters must be finite")
        return cls(data["variant"], weights, float(data["bias"]), float(data["log_std"]))


class NnActor(policy.GaussianPolicy):
    """NN-policy ablation: a 64x64 tanh network emits the mean action."""

    kind = "nn"
    label = "NN actor"
    HIDDEN = (64, 64)

    def __init__(self, net: gradnet.DenseNet, variant: str, log_std: float = -1.0):
        if variant not in STATE_DIMS:
            raise ShapeError(f"unknown state variant {variant!r}")
        if net.in_dim != STATE_DIMS[variant] or net.out_dim != 1:
            raise ShapeError(
                f"actor net dims {net.in_dim}->{net.out_dim} do not fit variant {variant}"
            )
        self.variant = variant
        self.state_dim = STATE_DIMS[variant]
        # the net is defined over features/scale; the checkpoint records the scales
        super().__init__(net, feature_scales(variant), log_std)

    @classmethod
    def fresh(cls, variant: str, rng: Xoshiro256StarStar, log_std: float = -1.0) -> "NnActor":
        dims = [STATE_DIMS[variant], *cls.HIDDEN, 1]
        net = gradnet.init_dense(dims, ["tanh", "tanh", "identity"], rng)
        return cls(net, variant, log_std)

    def mean(self, state: tuple[float, ...]) -> float:
        scaled = np.asarray(state, dtype=np.float64) / self._scales
        return float(gradnet.forward(self.net, scaled[None, :])[0, 0])

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "kind": "nn",
            "variant": self.variant,
            "log_std": float(self.log_std_arr[0]),
            "feature_scales": [float(s) for s in self._scales],
            "net": gradnet.net_to_dict(self.net),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NnActor":
        if data.get("format_version") != 1 or data.get("kind") != "nn":
            raise ConfigError(f"unsupported policy params header: {data.get('format_version')!r}/{data.get('kind')!r}")
        actor = cls(gradnet.net_from_dict(data["net"]), data["variant"], float(data["log_std"]))
        # the package writes only the variant's scales; an absent key means those
        want = actor._scales.tolist()
        scales = data.get("feature_scales", want)
        if scales != want or any(isinstance(v, bool) for v in scales):  # True == 1.0
            raise ConfigError(f"feature_scales must be the {actor.variant} variant's {want}, got {scales!r}")
        return actor


def actor_from_dict(data: dict):
    """Dispatch on the serialized kind tag."""
    kind = data.get("kind")
    if kind == "linear":
        return LinearActor.from_dict(data)
    if kind == "nn":
        return NnActor.from_dict(data)
    raise ConfigError(f"unknown actor kind {kind!r}")


def make_actor(
    policy_variant: str,
    state_variant: str,
    gains: PidGains,
    rng: Xoshiro256StarStar,
):
    """Build the actor for a (policy, state) variant pair at its documented init."""
    if policy_variant == "pid":
        return LinearActor.from_gains(gains, state_variant)
    if policy_variant == "nn":
        return NnActor.fresh(state_variant, rng)
    raise ConfigError(f"unknown policy variant {policy_variant!r}, expected 'pid' or 'nn'")
