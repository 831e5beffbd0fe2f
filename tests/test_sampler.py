"""The suites' draws: ``koszul.below`` and ``koszul._sample`` against the
stdlib's ``random.Random``, draw for draw and state for state.

Every randomized instance, and so every pinned digest, is defined on the
stream these helpers take from ``getrandbits``; each test runs a helper and
the stdlib call it replaces on two generators with one seed and compares
the values and ``getstate()`` after each draw.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit import cli
from koszulkit.koszul import _sample, below

SEEDS = st.integers(0, 2**64)

# 1, powers of two and their neighbours, where bit_length steps, and values
# far past one 32-bit word of the generator
SIZES = st.one_of(
    st.integers(1, 40),
    st.integers(1, 80).flatmap(lambda j: st.sampled_from((2**j - 1, 2**j, 2**j + 1))),
    st.integers(1, 2**200),
)


def _pair(seed):
    return random.Random(seed), random.Random(seed)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(SEEDS, st.lists(SIZES, min_size=1, max_size=8))
def test_below_is_randrange_randint_and_choice(seed, sizes):
    mine, std = _pair(seed)
    for n in sizes:
        assert below(mine, n) == std.randrange(n)
        assert mine.getstate() == std.getstate()
        assert below(mine, n) - 5 == std.randint(-5, n - 6)
        assert mine.getstate() == std.getstate()
        if n <= 64:
            items = [object() for _ in range(n)]
            assert items[below(mine, n)] is std.choice(items)
            assert mine.getstate() == std.getstate()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(SEEDS, st.integers(0, 30).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, min(n, 7)))))
def test_sample_is_stdlib_sample(seed, size):
    """Populations on both sides of the stdlib's pool limit of 21, and
    sample sizes past the 5 where its limit starts to grow."""
    n, k = size
    mine, std = _pair(seed)
    population = [f"r{i}" for i in range(n)]
    for _ in range(3):
        assert _sample(mine, population, k) == std.sample(population, k)
        assert mine.getstate() == std.getstate()
    assert population == [f"r{i}" for i in range(n)]


@pytest.mark.parametrize("n", [0, -1, -(2**70)])
def test_below_refuses_an_empty_range(n):
    """A bare rejection loop would spin forever at n = 0 (0 bits, never
    below 0), where ``choice([])`` raises; no bits are drawn."""
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError):
        below(rng, n)
    assert rng.getstate() == state


@pytest.mark.parametrize("k", [-1, 3])
def test_sample_outside_the_population_raises(k):
    """As the stdlib does, before any bits are drawn."""
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError):
        _sample(rng, [1, 2], k)
    assert rng.getstate() == state


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(SEEDS)
def test_rand_fraction_is_fraction_of_two_randints(seed):
    mine, std = _pair(seed)
    for _ in range(40):
        got = cli._rand_fraction(mine)
        want = Fraction(std.randint(-9, 9), std.randint(1, 4))
        assert got == want and type(got) is type(want) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert mine.getstate() == std.getstate()

