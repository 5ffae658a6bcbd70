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

An exact chain first tries the closed-class rule of `is_recurrent` and
returns a zero with no forward walk or product when it settles the event,
so the zero's type is checked against the oracle as well: on
`families.reducible_chain` chains, periodic or not, on the int-row
chains, and on chains built like the `means` benchmark's, whose digests
print an int 0 and a Fraction 0 alike.
"""

from fractions import Fraction

import pytest

from amschan import sources
from amschan.battery import AB, ABC
from amschan.models import parse_model, source_to_json
from amschan.oracle import product_recurrence_defect
from amschan.rng import SplitMix64
from amschan.seqcore import event
from amschan.sources import (
    FsmSource, cyl_prob, is_recurrent, positive_words, recurrence_defect, stationary_mean,
)
from families import counted, int_rows, reducible_chain


def escapable_chain(seed: int) -> FsmSource:
    """n = 8-14 states: 2-3 closed classes of 1-3 states, the first labelled
    "a" throughout, and at least one transient state, each with a row that
    reaches some class; the init is spread over the transient states and
    one class state.  When the classes would fill the drawn n, n grows to
    leave one transient state."""
    rng = SplitMix64(seed)
    alphabet = ABC if seed % 3 == 0 else AB
    n, k = 8 + rng.randint(7), 2 + rng.randint(2)
    sizes = [1 + rng.randint(3) for _ in range(k)]
    t = max(n - sum(sizes), 1)
    n = t + sum(sizes)
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


def int_row_chain(seed: int) -> FsmSource:
    """`int_rows` of 8-14 states, started from int 1 on state 0 or from a
    Fraction law over three states."""
    rng = SplitMix64(seed)
    n = 8 + rng.randint(7)
    thirds = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)) + (0,) * (n - 3)
    return int_rows(rng, n, None if seed % 2 else thirds)


def split_rows(seed: int) -> FsmSource:
    """`int_row_chain(seed)` started from int 1 on state 0, whose row splits in
    halves between two states: an int vector steps into Fractions on their
    two columns only, and only state 0's row is not int."""
    src = int_row_chain(seed)
    n = len(src.states)
    rng = SplitMix64(seed)
    a = rng.randint(n)
    b = (a + 1 + rng.randint(n - 1)) % n
    row = tuple(Fraction(1, 2) if j in (a, b) else 0 for j in range(n))
    init = (1,) + (0,) * (n - 1)
    return FsmSource(AB, src.states, init, (row,) + src.trans[1:], src.labels)


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
    src = escapable_chain(seed)
    for e in events(src, seed):
        assert repr(recurrence_defect(src, e)) == repr(product_recurrence_defect(src, e))


def test_escapable_chains_keep_a_transient_state():
    """Seed 172 draws closed classes that fill its drawn 9 states; the chain
    grows to 10, the one transient state carrying init mass, where
    `rational_row(0)` used to divide by zero."""
    for seed in range(200):
        src = escapable_chain(seed)
        transient = [s for s, k in enumerate(sources.chain_graph(src).class_of) if k < 0]
        assert transient and any(src.init[s] for s in transient)
    src = escapable_chain(172)
    assert len(src.states) == 10
    for e in events(src, 172):
        assert repr(recurrence_defect(src, e)) == repr(product_recurrence_defect(src, e))


@pytest.mark.parametrize("seed", range(12))
def test_float_defects_match_the_full_product(seed):
    src = parse_model(source_to_json(escapable_chain(seed)), float_mode=True)
    for e in events(src, seed):
        assert repr(recurrence_defect(src, e)) == repr(product_recurrence_defect(src, e))


@pytest.mark.parametrize("seed", range(16))
def test_int_row_defects_match_the_full_product(seed):
    src = int_row_chain(seed)
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
        src = escapable_chain(seed)
        for e in events(src, seed):
            if recurrence_defect(src, e):
                nonzero += 1
            else:
                zero += 1
    assert zero > 10 and nonzero > 10


def closed_class_chain(seed: int, periodic: bool) -> FsmSource:
    """A `families.reducible_chain` of 4-11 states and 1-3 closed
    classes, with random labels and a Fraction init on a random support."""
    rng = SplitMix64(seed)
    n = 4 + rng.randint(8)
    trans, _ = reducible_chain(rng, n, 1 + rng.randint(3), periodic=periodic)
    alphabet = ABC if seed % 3 == 0 else AB
    labels = tuple(rng.choice(tuple(alphabet)) for _ in range(n))
    init = [Fraction(rng.randint(3)) for _ in range(n)]
    init[rng.randint(n)] += 1
    total = sum(init)
    init = tuple(x / total for x in init)
    return FsmSource(alphabet, tuple(f"s{i}" for i in range(n)), init, trans, labels)


MODELS = {
    "aperiodic": lambda seed: closed_class_chain(seed, False),
    "periodic": lambda seed: closed_class_chain(seed, True),
    "int rows": int_row_chain,
    "split rows": split_rows,
}


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("seed", range(24))
def test_closed_class_zeros_match_the_full_product(seed, model, monkeypatch):
    """Every defect equals the oracle's, by `repr`, and every event that the
    closed-class rule settles (no `_AvoidanceProblem` built) has an exact
    zero on the full product."""
    products = counted(monkeypatch, sources, "_AvoidanceProblem")
    src = MODELS[model](seed)
    for e in events(src, seed):
        before = len(products)
        got, want = recurrence_defect(src, e), product_recurrence_defect(src, e)
        assert repr(got) == repr(want)
        if len(products) == before:
            assert want == 0 and type(want) is not float


def test_the_rule_settles_some_events_and_leaves_others(monkeypatch):
    products = counted(monkeypatch, sources, "_AvoidanceProblem")
    settled = solved = 0
    for seed in range(24):
        src = closed_class_chain(seed, seed % 2 == 1)
        for e in events(src, seed):
            before = len(products)
            recurrence_defect(src, e)
            settled += len(products) == before
            solved += len(products) > before
    assert settled > 20 and solved > 20


@pytest.mark.parametrize("seed", range(16))
def test_is_recurrent_is_a_zero_defect_for_every_positive_word(seed):
    src = closed_class_chain(seed, seed % 2 == 1)
    for depth in (1, 2, 3):
        zero = all(
            recurrence_defect(src, event(src.alphabet, [w])) == 0
            for w in positive_words(src, depth)
        )
        assert is_recurrent(src, depth).recurrent == zero


def test_a_settled_event_builds_no_walk_and_no_product(monkeypatch):
    mean = stationary_mean(escapable_chain(1))
    e = event(AB, [("a",)])
    assert cyl_prob(mean, ("a",)) > 0
    products = counted(monkeypatch, sources, "_AvoidanceProblem")
    walks = counted(monkeypatch, sources, "forward_walk")
    assert repr(recurrence_defect(mean, e)) == "Fraction(0, 1)"
    assert (len(products), len(walks)) == (0, 0)


def test_an_escaping_event_builds_one_walk_and_one_product(monkeypatch):
    # the chain of test_sources.test_recurrence_defect_partial_escape
    zero, half, one = Fraction(0), Fraction(1, 2), Fraction(1)
    src = FsmSource(
        AB,
        ("t", "la", "lb"),
        (one, zero, zero),
        ((zero, half, half), (zero, one, zero), (zero, zero, one)),
        ("a", "a", "b"),
    )
    products = counted(monkeypatch, sources, "_AvoidanceProblem")
    walks = counted(monkeypatch, sources, "forward_walk")
    assert recurrence_defect(src, event(AB, [("a",)])) == half
    assert (len(products), len(walks)) == (1, 1)


#: the events of the `means` benchmark
MEANS_EVENTS = ((("a",),), (("a", "b"),), (("a", "a"), ("b", "b")))


def means_chain(seed: int, n: int, k: int) -> FsmSource:
    """Built like the `means` benchmark's chains: k irreducible closed
    classes holding about a quarter of the n states, sparse transient rows
    (up to 7 entries) into them, an init of 1/3 on three states, and the
    model read back from its JSON form."""
    rng = SplitMix64(seed)
    sizes = [max(2, n // (4 * k))] * k
    t = n - sum(sizes)
    zero = Fraction(0)
    trans = [[zero] * n for _ in range(n)]
    start = t
    for size in sizes:
        for i in range(size):
            row = list(rng.rational_row(size, 24, 0.5))
            if row[(i + 1) % size] == 0:  # the cycle edge keeps the class irreducible
                row = [x / 2 for x in row]
                row[(i + 1) % size] = Fraction(1, 2)
            trans[start + i][start : start + size] = row
        start += size
    for i in range(t):
        targets = [t + rng.randint(n - t)] + [rng.randint(n) for _ in range(6)]
        weights = [1 + rng.randint(120) for _ in targets]
        for j, w in zip(targets, weights):
            trans[i][j] += Fraction(w, sum(weights))
    init = (Fraction(1, 3),) * 3 + (zero,) * (n - 3)
    labels = tuple(rng.choice(("a", "b")) for _ in range(n))
    src = FsmSource(AB, tuple(f"s{i}" for i in range(n)), init, tuple(map(tuple, trans)), labels)
    return parse_model(source_to_json(src))


@pytest.mark.parametrize("n, k", [(20, 3), (30, 4), (40, 3), (50, 4), (60, 3)])
def test_means_defects_keep_the_type_of_their_zeros(n, k):
    """`format_scalar` prints an int 0 and a Fraction 0 alike, so the
    `means` digests cannot tell a zero defect's type; `repr` can."""
    for seed in range(3):
        src = means_chain(seed, n, k)
        for words in MEANS_EVENTS:
            e = event(AB, words)
            assert repr(recurrence_defect(src, e)) == repr(product_recurrence_defect(src, e))
