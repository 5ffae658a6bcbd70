"""Deterministic pseudo-random streams (SplitMix64).

Every randomized feature of the package draws from this generator so that
reports and empirical tables are reproducible bit-for-bit across platforms
and across implementations of the same state-update rule.  The update is the
standard 64-bit SplitMix sequence:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

Reference outputs for seed 0 are frozen in the test suite.  Independent
sub-streams (one per trajectory or per trial) are derived with
``derive_seed`` so that parallel blocks can be merged order-independently.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, TypeVar

from .errors import PreconditionError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

T = TypeVar("T")


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Seed for the index-th sub-stream of a master seed."""
    return _mix((seed + (index + 1) * _GOLDEN) & _MASK)


class SplitMix64:
    """64-bit SplitMix stream with convenience draws."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randint(self, n: int) -> int:
        """Uniform-ish integer in [0, n); modulo bias is irrelevant at desk scale."""
        if n < 1:
            raise PreconditionError(f"randint needs n >= 1, got {n}")
        return self.next_u64() % n

    def choice(self, seq: Sequence[T]) -> T:
        return seq[self.randint(len(seq))]

    def rational_row(
        self, n: int, denom: int = 24, zero_prob: float = 0.0
    ) -> tuple[Fraction, ...]:
        """Random exact probability row of length n.

        Each entry is zeroed with probability ``zero_prob``; at least one
        entry is kept positive, and the row is normalized exactly.  A row
        needs n >= 1; nothing is drawn otherwise.
        """
        if n < 1:
            raise PreconditionError(f"rational_row needs n >= 1, got {n}")
        weights = [0] * n
        for i in range(n):
            if self.uniform() >= zero_prob:
                weights[i] = 1 + self.randint(denom)
        if not any(weights):
            weights[self.randint(n)] = 1 + self.randint(denom)
        total = sum(weights)
        return tuple(Fraction(w, total) for w in weights)
