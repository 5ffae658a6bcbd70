"""The integer recurrence defect against the full product oracle, by `repr`.

On an exact chain with exact forward vectors `recurrence_defect` sums each
escape term as integers over one common denominator and builds one scalar
at the end, an int exactly when every term is one.
`oracle.product_recurrence_defect` adds Fraction (or int) terms one by one
on the full chain x automaton product, so comparing the `repr`s checks both
the value and the type.  Models: 8-14-state reducible chains with 2-3
closed classes, one of them spelling a single label, so that some words
can be escaped and others cannot; deterministic chains with int rows,
started from an int or a Fraction init; and the float parses of the
reducible chains, whose escape products are added left to right on both
sides.
"""

from fractions import Fraction

import pytest

from amschan.battery import AB, ABC
from amschan.models import parse_model, source_to_json
from amschan.oracle import product_recurrence_defect
from amschan.rng import SplitMix64
from amschan.seqcore import event
from amschan.sources import FsmSource, positive_words, recurrence_defect


def reducible(seed: int) -> FsmSource:
    """n = 8-14 states: 2-3 closed classes of 1-3 states, the first labelled
    "a" throughout, and transient states whose rows reach some class; the
    init is spread over the transient states and one class state."""
    rng = SplitMix64(seed)
    alphabet = ABC if seed % 3 == 0 else AB
    n, k = 8 + rng.randint(7), 2 + rng.randint(2)
    sizes = [1 + rng.randint(3) for _ in range(k)]
    t = n - sum(sizes)
    zero = Fraction(0)
    rows, labels = [], []
    for _ in range(t):
        row = list(rng.rational_row(n, 12, 0.6))
        if not any(row[t:]):  # the state can leave the transient block
            row[t + rng.randint(n - t)] = Fraction(1, 12)
        total = sum(row)
        rows.append(tuple(x / total for x in row))
        labels.append(rng.choice(tuple(alphabet)))
    start = t
    for c, size in enumerate(sizes):
        for i in range(size):
            inner = list(rng.rational_row(size, 12, 0.5))
            inner[(i + 1) % size] += Fraction(1, 12)  # a cycle keeps the class irreducible
            total = sum(inner)
            inner = tuple(x / total for x in inner)
            rows.append((zero,) * start + inner + (zero,) * (n - start - size))
            labels.append("a" if c == 0 else rng.choice(tuple(alphabet)))
        start += size
    init = list(rng.rational_row(t, 12, 0.3)) + [zero] * (n - t)
    init[t + rng.randint(n - t)] += Fraction(1, 6)
    total = sum(init)
    init = tuple(x / total for x in init)
    return FsmSource(alphabet, tuple(f"s{i}" for i in range(n)), init, tuple(rows), tuple(labels))


def int_rows(seed: int) -> FsmSource:
    """n = 8-14 states, each row a single int 1; the init is int 1 on one
    state or a Fraction law over three."""
    rng = SplitMix64(seed)
    n = 8 + rng.randint(7)
    succ = [rng.randint(n) for _ in range(n)]
    trans = tuple(tuple(int(j == succ[i]) for j in range(n)) for i in range(n))
    if seed % 2:
        init = tuple(int(i == 0) for i in range(n))
    else:
        init = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)) + (0,) * (n - 3)
    labels = tuple(rng.choice(("a", "b")) for _ in range(n))
    return FsmSource(AB, tuple(f"s{i}" for i in range(n)), init, trans, labels)


def events(src: FsmSource, seed: int):
    """Events of 1-3 positive words of length 1-3, and one holding a null
    word beside a positive one where there is a null word."""
    rng = SplitMix64(seed)
    positive = positive_words(src, 3)
    for length in (1, 2, 3):
        words = [w for w in positive if len(w) == length]
        yield event(src.alphabet, {rng.choice(words) for _ in range(1 + rng.randint(3))})
        null = [w for w in src.alphabet.words(length) if w not in set(words)]
        if null:
            yield event(src.alphabet, {rng.choice(null), rng.choice(words)})


@pytest.mark.parametrize("seed", range(24))
def test_reducible_defects_match_the_full_product(seed):
    src = reducible(seed)
    for e in events(src, seed):
        assert repr(recurrence_defect(src, e)) == repr(product_recurrence_defect(src, e))


@pytest.mark.parametrize("seed", range(12))
def test_float_defects_match_the_full_product(seed):
    src = parse_model(source_to_json(reducible(seed)), float_mode=True)
    for e in events(src, seed):
        assert repr(recurrence_defect(src, e)) == repr(product_recurrence_defect(src, e))


@pytest.mark.parametrize("seed", range(16))
def test_int_row_defects_match_the_full_product(seed):
    src = int_rows(seed)
    for e in events(src, seed):
        got = recurrence_defect(src, e)
        assert repr(got) == repr(product_recurrence_defect(src, e))
        # an int init on int rows gives int terms only
        assert type(got) is (int if seed % 2 else Fraction)


def test_some_defects_vanish_and_some_do_not():
    """The models reach both outcomes: words that the single-label class
    spells forever, and words that it lets the chain escape."""
    zero = nonzero = 0
    for seed in range(24):
        src = reducible(seed)
        for e in events(src, seed):
            if recurrence_defect(src, e):
                nonzero += 1
            else:
                zero += 1
    assert zero > 10 and nonzero > 10
