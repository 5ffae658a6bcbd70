from fractions import Fraction

import pytest

from amschan.errors import PreconditionError
from amschan.rng import SplitMix64, derive_seed

MASK = (1 << 64) - 1


def _reference_stream(seed, count):
    """Literal transcription of the reference state-update rule, kept
    independent of the class under test."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_seed_zero_reference_vectors():
    # first outputs of the standard 64-bit SplitMix sequence from seed 0
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_matches_reference_transcription():
    for seed in (0, 1, 42, 1234567, (1 << 64) - 5):
        g = SplitMix64(seed)
        assert [g.next_u64() for _ in range(20)] == _reference_stream(seed, 20)


def test_uniform_range_and_determinism():
    g1, g2 = SplitMix64(99), SplitMix64(99)
    xs = [g1.uniform() for _ in range(100)]
    assert xs == [g2.uniform() for _ in range(100)]
    assert all(0.0 <= x < 1.0 for x in xs)


def test_derive_seed_distinct_streams():
    seeds = {derive_seed(7, i) for i in range(100)}
    assert len(seeds) == 100


def test_rational_row_exact():
    g = SplitMix64(5)
    row = g.rational_row(4, denom=12, zero_prob=0.5)
    assert sum(row) == 1
    assert all(isinstance(x, Fraction) and x >= 0 for x in row)
    # never all-zero even under an extreme zero probability
    row = g.rational_row(3, denom=6, zero_prob=1.0)
    assert sum(row) == 1


def test_draws_over_no_values_name_n():
    """randint(n) and rational_row(n) have no value to draw when n < 1: they
    raise an amschan error that names n, and take no draw from the stream."""
    g = SplitMix64(3)
    for draw, n in ((g.randint, 0), (g.randint, -2), (g.rational_row, 0), (g.rational_row, -1)):
        with pytest.raises(PreconditionError, match=f"n >= 1, got {n}$"):
            draw(n)
    assert g.next_u64() == SplitMix64(3).next_u64()
