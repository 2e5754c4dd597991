"""Surrogate spill environment.

Generates a noisy spill-rate signal around the reference value 1 and applies
the controller's scalar correction each step. The raw signal is a sum of
harmonic ripple components (power-supply ripple analogue) and an
Ornstein-Uhlenbeck drift:

    raw_t = reference + sum_k amps[k] * sin(2*pi*freqs[k]*t*dt + phase_k) + ou_t
    ou_t  = ou_rho * ou_{t-1} + ou_sigma * xi_t,   xi_t ~ N(0, 1)

Correction is subtracted and the result clamped to [clamp_lo, clamp_hi]:

    x_t = clamp(raw_t - action)

step() applies its action argument to the sample it produces; closed-loop
drivers pass the decision made after the previous observation, which is how
the one-step actuator delay is realized (the first step of an episode runs
with action 0, since no decision exists yet).

Determinism: each episode owns one xoshiro256** generator seeded from the
episode seed. The ripple phases are drawn first (one uniform per component),
then exactly one normal is consumed per step, regardless of ou_sigma, so
configs that differ only in noise amplitude share their phase draws. The raw
trace depends only on (config, seed), never on the actions applied.

Memo and driver: because of that, run_raw_episode() computes the raw trace
once per (config, seed) with the scalar reference reset()/step() and keeps it
as an immutable tuple in a bounded LRU memo (RAW_MEMO_SIZE entries).
closed_loop() is the scalar closed-loop episode loop: it replays the
memoized raw trace, applies each decision one step late, clamps the
corrected sample to [clamp_lo, clamp_hi] and the decision to +-action_bound,
and hands every sample to a controller callback. Its arithmetic is step()'s,
so its traces equal a reset()/step() loop bit for bit. Single episodes
(simulate, the per-iteration training curve, PPO rollouts, and the
mean-action evaluation the kernel below cannot take) run through it.
pidbatch.batch_sdfs replays the same memo for many PID or linear-policy
episodes at once with elementwise numpy float64 operations in
closed_loop's order. tune_pid fills its one cache of scores (tune-pid's
mean_sdf is one) from it, and the report runs its PID baseline and a
linear policy over P, I, D in one pass of it; both run an episode the
kernel cannot vouch for on the scalar path.

Note on defaults: ou_sigma was calibrated upward (see its field comment) so
that the unregulated signal starts below the operational SDF target of 0.6,
leaving the controllers meaningful headroom.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar

from .errors import ConfigError, EpisodeExhausted, InvalidActionError, NumberError
from .rng import Xoshiro256StarStar

_TWO_PI = 2.0 * math.pi

# Raw traces kept by run_raw_episode(); the default config touches 9 seeds.
RAW_MEMO_SIZE = 64


def check_number(name: str, value):
    """Return value, refusing what a JSON file can hold where a float belongs: a bool, string, null, list or object."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise NumberError(f"{name} must be a number, got {value!r}")
    return value


class ConfigRecord:
    """JSON form of a frozen config dataclass; section names it in errors.

    to_dict holds every field, tuples as lists. from_dict refuses a key
    that names no field and leaves the rest to the constructor's checks.
    """

    section: ClassVar[str]  # "env", "train" or "reward"

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in data.items()}

    @classmethod
    def from_dict(cls, data: dict):
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown {cls.section} config field(s): {sorted(unknown)}")
        return cls(**data)

    def check_numbers(self) -> None:
        """Refuse a bool or a string in a float field; an integer is kept as it is."""
        for f in fields(self):
            if f.type in ("float", float):
                check_number(f.name, getattr(self, f.name))


@dataclass(frozen=True)
class EnvConfig(ConfigRecord):
    """Parameters of the surrogate spill process."""

    section = "env"

    steps_per_episode: int = 430  # 10 samples per ms over a 43 ms spill
    dt: float = 1e-4
    reference: float = 1.0
    ripple_amps: tuple[float, ...] = (0.10, 0.05)
    ripple_freqs: tuple[float, ...] = (60.0, 180.0)
    ou_rho: float = 0.9
    # Calibrated so the unregulated trace sits below SDF 0.6 on the default
    # seeds; the uncalibrated surrogate (0.02) was far too easy to regulate.
    ou_sigma: float = 0.42
    clamp_lo: float = 0.0
    clamp_hi: float = 2.0
    action_bound: float = 1.0

    def __post_init__(self):
        self.check_numbers()
        for name in ("ripple_amps", "ripple_freqs"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise NumberError(f"{name} must be a list; each entry must be a number, got {values!r}")
            object.__setattr__(self, name, tuple(float(check_number(f"{name} entry", v)) for v in values))
        self.validate()

    def validate(self) -> None:
        if type(self.steps_per_episode) is not int or self.steps_per_episode <= 0:
            raise ConfigError(f"steps_per_episode must be a positive integer, got {self.steps_per_episode}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ConfigError(f"dt must be finite and > 0, got {self.dt}")
        if not math.isfinite(self.reference):
            raise ConfigError(f"reference must be finite, got {self.reference}")
        if len(self.ripple_amps) != len(self.ripple_freqs):
            raise ConfigError(
                f"ripple_amps and ripple_freqs lengths differ: {len(self.ripple_amps)} vs {len(self.ripple_freqs)}"
            )
        if any(not math.isfinite(a) for a in self.ripple_amps):
            raise ConfigError("ripple_amps must be finite")
        if any(not math.isfinite(f) or f < 0 for f in self.ripple_freqs):
            raise ConfigError("ripple_freqs must be finite and >= 0")
        # raw_next's sine argument at the last step, in its order (rounding is monotone)
        t_last = (self.steps_per_episode - 1) * self.dt
        if any(not math.isfinite(_TWO_PI * f * t_last) for f in self.ripple_freqs):
            raise ConfigError(f"ripple_freqs {list(self.ripple_freqs)} with dt {self.dt} overflow the ripple phase")
        if not 0.0 <= self.ou_rho < 1.0:
            raise ConfigError(f"ou_rho must lie in [0, 1), got {self.ou_rho}")
        if not (self.ou_sigma >= 0.0 and math.isfinite(self.ou_sigma)):
            raise ConfigError(f"ou_sigma must be finite and >= 0, got {self.ou_sigma}")
        for name in ("clamp_lo", "clamp_hi"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.clamp_lo < self.reference < self.clamp_hi:
            raise ConfigError(
                f"clamp_lo < reference < clamp_hi required, got {self.clamp_lo}, {self.reference}, {self.clamp_hi}"
            )
        if not (self.action_bound > 0 and math.isfinite(self.action_bound)):
            raise ConfigError(f"action_bound must be finite and > 0, got {self.action_bound}")


@dataclass
class EnvState:
    """Mutable per-episode state; single-owner, mutated sequentially."""

    t: int
    ou_value: float
    phases: tuple[float, ...]
    raw_trace: list[float] = field(default_factory=list)
    corrected_trace: list[float] = field(default_factory=list)
    rng: Xoshiro256StarStar = None  # type: ignore[assignment]


def reset(config: EnvConfig, seed: int) -> EnvState:
    """Start a fresh episode. Identical (config, seed) gives a bit-identical state."""
    rng = Xoshiro256StarStar(seed)
    phases = tuple(rng.uniform(0.0, _TWO_PI) for _ in config.ripple_amps)
    return EnvState(t=0, ou_value=0.0, phases=phases, rng=rng)


def raw_next(state: EnvState, config: EnvConfig) -> float:
    """Advance the noise processes and return the next raw spill rate.

    Consumes exactly one normal variate per call. Intended to be called once
    per step (step() does this); calling it directly advances the noise.
    """
    if state.t >= config.steps_per_episode:
        raise EpisodeExhausted(
            f"episode already ran its {config.steps_per_episode} steps"
        )
    xi = state.rng.normal()
    state.ou_value = config.ou_rho * state.ou_value + config.ou_sigma * xi
    t_sec = state.t * config.dt
    rate = config.reference
    for amp, freq, phase in zip(config.ripple_amps, config.ripple_freqs, state.phases):
        rate += amp * math.sin(_TWO_PI * freq * t_sec + phase)
    return rate + state.ou_value


def step(state: EnvState, config: EnvConfig, action: float) -> tuple[float, bool]:
    """Produce the next corrected sample x_t = clamp(raw_t - action).

    In a closed loop the action passed here is the decision made after the
    previous observation (a_{t-1}); pass 0 on the first step.
    """
    if not isinstance(action, (int, float)) or not math.isfinite(action):
        raise InvalidActionError(f"action must be a finite number, got {action!r}")
    raw = raw_next(state, config)
    corrected = raw - action
    if corrected < config.clamp_lo:
        corrected = config.clamp_lo
    elif corrected > config.clamp_hi:
        corrected = config.clamp_hi
    state.raw_trace.append(raw)
    state.corrected_trace.append(corrected)
    state.t += 1
    return corrected, state.t == config.steps_per_episode


def clamp_action(action: float, bound: float) -> float:
    if action > bound:
        return bound
    if action < -bound:
        return -bound
    return action


@functools.lru_cache(maxsize=RAW_MEMO_SIZE)
def run_raw_episode(config: EnvConfig, seed: int) -> tuple[float, ...]:
    """The unregulated episode's raw trace, memoized per (config, seed).

    Computed by the scalar reference (reset, then step with action 0) on the
    first request; later requests return the same immutable tuple.
    """
    state = reset(config, seed)
    for _ in range(config.steps_per_episode):
        step(state, config, 0.0)
    return tuple(state.raw_trace)


def closed_loop(
    config: EnvConfig,
    seed: int,
    controller: Callable[[int, float, float, float], float],
) -> tuple[tuple[float, ...], list[float], list[float]]:
    """Run one closed-loop episode; returns (raw, corrected, applied_actions).

    After each corrected sample x_t, controller(t, raw_t, x_t, a_t) returns
    the next decision, where a_t is the action applied to produce x_t. The
    decision is clamped to +-action_bound and applied to x_{t+1}; the first
    step runs with action 0. A non-finite action raises InvalidActionError
    when it is applied (a clamped +-inf is finite; NaN is not).
    """
    raw = run_raw_episode(config, seed)
    lo, hi, bound = config.clamp_lo, config.clamp_hi, config.action_bound
    corrected: list[float] = []
    applied: list[float] = []
    action = 0.0
    for t, r in enumerate(raw):
        if not math.isfinite(action):
            raise InvalidActionError(f"action must be a finite number, got {action!r}")
        x = r - action
        if x < lo:
            x = lo
        elif x > hi:
            x = hi
        corrected.append(x)
        applied.append(action)
        action = clamp_action(controller(t, r, x, action), bound)
    return raw, corrected, applied


def format_trace_csv(
    raw: list[float], corrected: list[float], actions: list[float]
) -> str:
    """Trace CSV text: header t,raw,corrected,action; 9 significant digits."""
    if not (len(raw) == len(corrected) == len(actions)):
        raise ConfigError(
            f"trace columns must align: raw={len(raw)} corrected={len(corrected)} actions={len(actions)}"
        )
    lines = ["t,raw,corrected,action"]
    for t, (r, c, a) in enumerate(zip(raw, corrected, actions)):
        lines.append(f"{t},{r:.9g},{c:.9g},{a:.9g}")
    return "\n".join(lines) + "\n"
