"""Portable deterministic random number generation.

All stochastic pieces of the package (noise draws, weight init, exploration,
minibatch shuffling) run on xoshiro256** seeded through splitmix64, with
normal variates produced by the Box-Muller transform. The generator is pure
64-bit integer arithmetic, so a given seed yields a bit-identical integer
stream, and uniform floats made from it, on any platform and any Python
build; nothing here depends on numpy's RNG (randbits53() only borrows
numpy's wrapping uint64 arithmetic). normal() is not portable in that way:
its math.log, math.sin and math.cos come from the platform's libm, which
IEEE 754 does not pin, so its draws hold for one libm.

Seeding: the four 64-bit state words are the first four outputs of the
splitmix64 sequence started at the seed. Derived streams come from
derive_seed(), which chains the splitmix64 finalizer over integer tags.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi


def _finalize(x: int) -> int:
    # splitmix64 output function (Steele/Lea/Flood mixing constants)
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def check_seed(seed: int, name: str, error: type[Exception] = ConfigError) -> None:
    """Raise error, naming seed, unless it is an int (not a bool) in [0, 2**64).

    The generators reduce a seed mod 2**64, so a seed outside that range
    would silently run as another one (-1 as 2**64 - 1, 2**64 as 0).
    """
    if type(seed) is not int:  # neither a float, a string nor a bool
        raise error(f"{name} must be an integer, got {seed!r}")
    if not 0 <= seed <= _MASK64:
        raise error(f"{name} must lie in [0, 2**64), got {seed}")


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (output, next_state)."""
    state = (state + _GOLDEN) & _MASK64
    return _finalize(state), state


def derive_seed(seed: int, *tags: int) -> int:
    """Derive an independent stream seed from a base seed and integer tags.

    The same (seed, tags) always maps to the same 64-bit value; distinct
    tag sequences give statistically unrelated seeds.
    """
    out, _ = splitmix64(seed & _MASK64)
    for tag in tags:
        mixed, _ = splitmix64(tag & _MASK64)
        out, _ = splitmix64(out ^ mixed)
    return out


class Xoshiro256StarStar:
    """xoshiro256** 1.0 (Blackman and Vigna) with splitmix64 seeding."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3", "_spare")

    def __init__(self, seed: int):
        state = seed & _MASK64
        words = []
        for _ in range(4):
            word, state = splitmix64(state)
            words.append(word)
        if not any(words):  # all-zero state is the one forbidden fixed point
            words[0] = _GOLDEN
        self._s0, self._s1, self._s2, self._s3 = words
        self._spare: float | None = None

    @property
    def state(self) -> tuple[int, int, int, int]:
        return (self._s0, self._s1, self._s2, self._s3)

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s1 * 5) & _MASK64
        result = (((x << 7) | (x >> 57)) & _MASK64) * 9 & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def random(self) -> float:
        """Uniform double in [0, 1): top 53 bits of the next word."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randbits53(self, n: int) -> np.ndarray:
        """The top 53 bits of the next n words, as a uint64 array: the integers
        that n calls of random() scale by 2**-53, with the same end state.

        One loop over local variables runs the state recurrence and keeps
        each step's s1; the output scrambler then runs on all of them at once
        in numpy uint64 arithmetic, which wraps modulo 2**64 as next_u64's
        masks do. The Box-Muller spare is untouched, as it is by random().
        """
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        mask = _MASK64
        words = []
        append = words.append
        for _ in range(n):
            append(s1)
            t = (s1 << 17) & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & mask
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        x = np.array(words, dtype=np.uint64) * np.uint64(5)
        x = (x << np.uint64(7)) | (x >> np.uint64(57))
        x *= np.uint64(9)
        x >>= np.uint64(11)
        return x

    def randoms(self, n: int) -> list[float]:
        """The n floats that n calls of random() return: randbits53's integers times 2**-53, exactly."""
        return (self.randbits53(n).astype(np.float64) * 2.0**-53).tolist()

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def normal(self) -> float:
        """Standard normal via Box-Muller; the second variate is cached."""
        if self._spare is not None:
            z = self._spare
            self._spare = None
            return z
        # u1 in (0, 1] so log() is always defined
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = (self.next_u64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        theta = _TWO_PI * u2
        self._spare = r * math.sin(theta)
        return r * math.cos(theta)
