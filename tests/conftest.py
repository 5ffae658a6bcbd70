from fractions import Fraction

import pytest
from hypothesis import settings

from amschan.gallery import (
    absorbing_source,
    bsc,
    copy_channel,
    cycle_source,
    iid_uniform,
    transient_copy_channel,
)
from amschan.seqcore import Alphabet
from amschan.sources import FsmSource

# the one policy of every property test, so that each `settings(...)` names
# only its `max_examples`: derandomized, each test seeded from its body (its
# source without decorators and comments), with no deadline and no database
settings.register_profile("amschan", deadline=None, derandomize=True, database=None)
settings.load_profile("amschan")


@pytest.fixture
def s1():
    """Deterministic alternating source: a b a b ..."""
    return cycle_source()


@pytest.fixture
def s2():
    """Transient-then-absorbing source: a b b b ..."""
    return absorbing_source()


@pytest.fixture
def s3():
    """Fair iid source over {a, b}."""
    return iid_uniform()


@pytest.fixture
def bsc25():
    return bsc(Fraction(1, 4))


@pytest.fixture
def copy():
    return copy_channel()


@pytest.fixture
def ct():
    """Transient channel: emits 'a' once, then copies its input."""
    return transient_copy_channel()


@pytest.fixture
def tiny_mass_chain():
    """(eps, one) -> the chain t -> u -> B with mass `eps` per step, the
    rest to A; A and B absorb.  Started in t, labels a a a b."""

    def make(eps, one):
        zero = one - one
        trans = (
            (zero, eps, one - eps, zero),
            (zero, zero, one - eps, eps),
            (zero, zero, one, zero),
            (zero, zero, zero, one),
        )
        init = (one, zero, zero, zero)
        states, labels = ("t", "u", "A", "B"), ("a", "a", "a", "b")
        return FsmSource(Alphabet(("a", "b")), states, init, trans, labels)

    return make
