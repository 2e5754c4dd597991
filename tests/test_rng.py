"""Generator correctness: published vectors, determinism, distribution sanity."""

from __future__ import annotations

import math

import numpy as np
import pytest

from spillreg.rng import Xoshiro256StarStar, derive_seed, splitmix64

# Reference outputs of splitmix64 started at state 0 (Steele/Lea/Flood
# constants; same vector as the java.util.SplittableRandom stream).
SPLITMIX_REFERENCE = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
)


def test_splitmix64_matches_published_sequence():
    state = 0
    outs = []
    for _ in range(len(SPLITMIX_REFERENCE)):
        out, state = splitmix64(state)
        outs.append(out)
    assert tuple(outs) == SPLITMIX_REFERENCE


def test_splitmix64_stays_in_64_bits():
    state = (1 << 64) - 1
    for _ in range(100):
        out, state = splitmix64(state)
        assert 0 <= out < (1 << 64)
        assert 0 <= state < (1 << 64)


# Pinned first words of the seeded generator. Not an external vector, but a
# portability regression: any platform or refactor must reproduce these.
XOSHIRO_SEED0_FIRST = (
    11091344671253066420,
    13793997310169335082,
    1900383378846508768,
)


def test_xoshiro_seed0_pinned_outputs():
    g = Xoshiro256StarStar(0)
    assert tuple(g.next_u64() for _ in range(3)) == XOSHIRO_SEED0_FIRST


def test_same_seed_same_stream():
    a = Xoshiro256StarStar(1234)
    b = Xoshiro256StarStar(1234)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_diverge():
    a = Xoshiro256StarStar(1)
    b = Xoshiro256StarStar(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_random_in_unit_interval():
    g = Xoshiro256StarStar(7)
    for _ in range(2000):
        u = g.random()
        assert 0.0 <= u < 1.0


def test_uniform_respects_bounds():
    g = Xoshiro256StarStar(8)
    for _ in range(500):
        u = g.uniform(-3.0, 5.0)
        assert -3.0 <= u < 5.0


def test_random_mean_near_half():
    g = Xoshiro256StarStar(9)
    n = 20000
    mean = sum(g.random() for _ in range(n)) / n
    # std of the mean is 1/sqrt(12 n) ~ 0.002; allow 5 sigma
    assert abs(mean - 0.5) < 0.011


def test_normal_moments():
    g = Xoshiro256StarStar(10)
    n = 20000
    draws = [g.normal() for _ in range(n)]
    mean = sum(draws) / n
    var = sum((d - mean) ** 2 for d in draws) / n
    assert abs(mean) < 0.05
    assert abs(math.sqrt(var) - 1.0) < 0.05


def test_normal_pair_caching_consumes_two_words():
    # Box-Muller produces two variates per two uniforms; the second draw
    # must come from the cache without advancing the integer stream.
    a = Xoshiro256StarStar(11)
    b = Xoshiro256StarStar(11)
    a.normal()
    a.normal()
    b.next_u64()
    b.next_u64()
    assert a.next_u64() == b.next_u64()


@pytest.mark.parametrize("seed,n", [(0, 1), (3, 430), (2**64 - 1, 4300)])
def test_randoms_equals_repeated_random(seed, n):
    bulk, single = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    assert bulk.randoms(n) == [single.random() for _ in range(n)]
    assert bulk.state == single.state
    assert bulk.next_u64() == single.next_u64()


def test_randoms_of_zero_draws_nothing():
    rng = Xoshiro256StarStar(5)
    state = rng.state
    assert rng.randoms(0) == []
    assert rng.state == state


def test_randoms_keeps_a_pending_normal_spare():
    bulk, single = Xoshiro256StarStar(9), Xoshiro256StarStar(9)
    bulk.normal()
    single.normal()  # both now hold the second Box-Muller variate
    assert bulk.randoms(7) == [single.random() for _ in range(7)]
    spare = single.normal()
    assert bulk.normal() == spare
    assert bulk.state == single.state


@pytest.mark.other_pythons
@pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
def test_shuffle_keys_order_rows_as_the_floats_did(seed):
    """randbits53 draws the integers randoms scales: the same floats, the same end
    state and, draw after draw, the same stable argsort, the one ppo_update takes."""
    keys, floats = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    for n in (1, 2, 46, 64, 430, 431):
        for _ in range(25):
            ints = keys.randbits53(n)
            values = floats.randoms(n)
            assert ints.dtype == np.uint64 and int(ints.max()) < 2**53
            assert (ints.astype(np.float64) * 2.0**-53).tolist() == values
            assert np.array_equal(np.argsort(ints, kind="stable"), np.argsort(np.asarray(values), kind="stable"))
            assert keys.state == floats.state
    assert keys.next_u64() == floats.next_u64()


def test_derive_seed_deterministic_and_tag_sensitive():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
    assert derive_seed(42, 1) != derive_seed(43, 1)
    assert derive_seed(42, 1) != derive_seed(42)


def test_derived_streams_are_unrelated():
    a = Xoshiro256StarStar(derive_seed(0, 1))
    b = Xoshiro256StarStar(derive_seed(0, 2))
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]
