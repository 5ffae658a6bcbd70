"""Answers read off one step of the init or its support on the closed
classes, before any search or solve, against the paths they skip.

`is_recurrent` certifies an init on the closed classes at once, an exact
`stationarity_witness` compares the init with its one step, an exact
`channel_stationarity_witness` returns None when alpha K_a = alpha for every
input a, an exact `stationary_mean` of an init on the closed classes that
equals its step is that init, the two dominance checks stop at once when
the kept root lies in the other root on one chain, an exact
`equivalence_witness` returns None for equal inits on one chain, and an
exact `recurrence_defect` that the closed classes settle is 0 with no
product.  Each answer must equal the skipped path's by `repr`, which
`families.full_paths` forces by switching the rules off.  The float forward step (`SparseMatrix.step` on a float matrix),
which the AMS probe runs, must give a column-by-column accumulation's
floats, sign of zero included, and `partial_mean` the means that stepping
every term gives.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amschan import sources
from amschan.battery import AB, rand_channel, rand_source, rand_stationary_channel
from amschan.channels import hookup, input_marginal, output_marginal
from amschan.classify import channel_stationarity_witness, classify_channel
from amschan.gallery import copy_channel, cycle_source
from amschan.linalg import RowBasis, SparseMatrix
from amschan.models import parse_model, source_to_json
from amschan.oracle import enum_domination_witness
from amschan.rng import SplitMix64
from amschan.scalars import EPS
from amschan.seqcore import event
from amschan.sources import (
    FsmSource,
    asymptotically_dominates,
    classify_source,
    dominates,
    equivalence_witness,
    is_recurrent,
    positive_words,
    recurrence_defect,
    shifted_source,
    stationarity_witness,
    stationary_mean,
    with_init,
)
from families import counted, floated, fresh, full_paths, outcome, reducible_chain, split_states

SETTINGS = settings(max_examples=60)


def periodic_source(rng: SplitMix64) -> FsmSource:
    """A reducible chain whose classes are periodic, from a random init,
    its stationary mean, or a point mass on one closed-class state (on the
    closed classes, but not its own step unless the class is one state)."""
    n = 3 + rng.randint(4)
    trans, classes = reducible_chain(rng, n, 1 + rng.randint(2), periodic=True)
    labels = tuple("ab"[rng.randint(2)] for _ in range(n))
    src = FsmSource(AB, tuple(f"s{i}" for i in range(n)), rng.rational_row(n, 12), trans, labels)
    kind = rng.randint(3)
    if kind == 1:
        return stationary_mean(src)
    if kind == 2:
        s = min(next(iter(classes)))
        return with_init(src, tuple(Fraction(int(i == s)) for i in range(n)))
    return src


KINDS = ("random", "mean", "periodic", "cycle")


@st.composite
def exact_sources(draw, kinds=KINDS + ("hookup",)):
    """Random sources, their stationary means, periodic chains, cycles and
    the joint sources of stationary means hooked to channels, all exact."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(kinds))
    if kind == "periodic":
        return periodic_source(rng)
    if kind == "cycle":
        return cycle_source(tuple("ab"[rng.randint(2)] for _ in range(2 + rng.randint(4))))
    src = rand_source(rng, AB, 2 + rng.randint(4), zero_prob=0.4, cover=True)
    if kind == "random":
        return src
    mean = stationary_mean(src)
    if kind == "mean":
        return fresh(mean)
    ch = rand_stationary_channel(rng, AB, AB, 2) if rng.randint(2) else rand_channel(rng, AB, AB)
    return hookup(mean, ch).source


@st.composite
def any_sources(draw):
    src = draw(exact_sources())
    return floated(src) if draw(st.booleans()) else src


@SETTINGS
@given(any_sources(), st.integers(1, 4))
def test_source_answers_match_the_paths_they_skip(src, depth):
    mean = stationary_mean(src)
    answers = (
        is_recurrent(src, depth),
        stationarity_witness(src, depth),
        outcome(stationarity_witness, src),
        mean,
        mean.init,
        sources._stationary_input(src),
        dominates(mean, src, depth),
        asymptotically_dominates(mean, src, depth),
        outcome(classify_source, src, depth),
    )
    full = fresh(src)
    with full_paths():
        mean = stationary_mean(full)
        expected = (
            is_recurrent(full, depth),
            equivalence_witness(full, shifted_source(full, 1), depth),
            outcome(equivalence_witness, full, shifted_source(full, 1)),
            mean,
            mean.init,
            sources._stationary_input(full),
            dominates(mean, full, depth),
            asymptotically_dominates(mean, full, depth),
            outcome(classify_source, full, depth),
        )
    assert repr(answers) == repr(expected)


@st.composite
def channels(draw):
    """Stationary channels (alpha K_a = alpha), their split-state copies
    (stationary, alpha K_a != alpha), random and copy channels, exact or
    float."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("stationary", "split", "random", "copy")))
    if kind == "copy":
        ch = copy_channel()
    elif kind == "random":
        ch = rand_channel(rng, AB, AB, 1 + rng.randint(2))
    else:
        ch = rand_stationary_channel(rng, AB, AB, 1 + rng.randint(2))
        if kind == "split":
            ch = split_states(ch)
    return floated(ch) if draw(st.booleans()) else ch


@SETTINGS
@given(channels(), exact_sources(KINDS), st.integers(1, 3))
def test_channel_answers_match_the_paths_they_skip(ch, src, depth):
    def witnesses():
        # a float channel's search without a depth, which the rules leave
        # alone, can walk to its budget: only exact ones are asked
        unbounded = channel_stationarity_witness(ch) if ch.is_exact else None
        return channel_stationarity_witness(ch, depth), unbounded

    answers = witnesses()
    if not ch.is_exact:
        src = floated(src)
    verdict = outcome(classify_channel, ch, [src], depth)
    with full_paths():
        expected = witnesses()
        full = outcome(classify_channel, ch, [fresh(src)], depth)
    assert repr(answers) == repr(expected)
    assert verdict == full


@st.composite
def source_pairs(draw):
    """(eta, mu) over one alphabet: two inits on one chain, the two
    marginals of a hookup (one chain, one cache, other labels), or two
    chains of one size, whose init supports may nest."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    n = 2 + rng.randint(3)
    mu = rand_source(rng, AB, n, zero_prob=0.4, cover=True)
    kind = draw(st.sampled_from(("one chain", "marginals", "two chains")))
    if kind == "marginals":
        joint = hookup(stationary_mean(mu), rand_channel(rng, AB, AB, 1 + rng.randint(2)))
        eta, mu = output_marginal(joint), input_marginal(joint)
    elif kind == "one chain":
        eta = with_init(mu, rng.rational_row(n, 12, 0.4))
    else:
        eta = rand_source(rng, AB, n, zero_prob=0.4, cover=True)
    if draw(st.booleans()):
        eta = stationary_mean(eta)
    if draw(st.booleans()):
        eta, mu = floated(eta), floated(mu)
    return eta, mu


@SETTINGS
@given(source_pairs(), st.integers(1, 4))
def test_dominance_answers_match_the_search(pair, depth):
    eta, mu = pair
    answers = (dominates(eta, mu, depth), outcome(asymptotically_dominates, eta, mu, depth))
    with full_paths():
        expected = (dominates(eta, mu, depth), outcome(asymptotically_dominates, eta, mu, depth))
    assert repr(answers) == repr(expected)
    assert answers[0].witness == enum_domination_witness(eta, mu, depth)


@SETTINGS
@given(any_sources())
def test_init_bits_are_the_positive_entries(src):
    assert sources._init_bits(src) == sum(1 << i for i, x in enumerate(src.init) if x > 0)


def exact_stationary_mean(seed: int) -> FsmSource:
    return fresh(stationary_mean(rand_source(SplitMix64(seed), AB, 4, zero_prob=0.3, cover=True)))


@pytest.mark.parametrize("seed", range(5))
def test_classify_source_on_a_stationary_mean_searches_and_solves_nothing(monkeypatch, seed):
    src = exact_stationary_mean(seed)
    pairs = counted(monkeypatch, sources, "_support_pairs")
    shifts = counted(monkeypatch, sources, "shifted_source")
    solves = counted(monkeypatch, sources, "_solve_chain_limit")
    verdict = classify_source(src, 4)
    assert verdict.stationary and verdict.recurrent.recurrent
    assert (len(pairs), len(shifts), len(solves)) == (0, 0, 0)


@pytest.mark.parametrize("seed", range(5))
def test_classify_channel_with_the_copy_channel_builds_no_basis(monkeypatch, seed):
    adds = counted(monkeypatch, RowBasis, "add_ints")
    verdict = classify_channel(copy_channel(), [exact_stationary_mean(seed)], 4)
    assert verdict.stationary.holds and verdict.per_source[0].quasi_stationary.holds
    assert adds == []


def test_a_non_stationary_init_on_the_closed_classes_is_solved(monkeypatch):
    """A point mass on a 2-periodic class lies on the closed classes but is
    not its own step, so the mean reads the solve."""
    trans = ((0, Fraction(1)), (Fraction(1), 0))
    src = FsmSource(AB, ("x", "y"), (Fraction(1), Fraction(0)), trans, ("a", "b"))
    solves = counted(monkeypatch, sources, "_solve_chain_limit")
    assert stationary_mean(src).init == (Fraction(1, 2), Fraction(1, 2))
    assert stationarity_witness(src) == ("a",)
    assert len(solves) == 1


def test_one_source_steps_its_exact_init_once(monkeypatch):
    """The mean rule, the stationarity rule and the gate read one cached
    step of the init."""
    src = exact_stationary_mean(0)
    steps = counted(monkeypatch, SparseMatrix, "_step_ints")
    stationary_mean(src)
    assert stationarity_witness(src) is None and sources._stationary_input(src)
    assert len(steps) == 1


def test_a_shifted_source_steps_its_own_init():
    """A point mass on a 2-cycle is not its step; its shift is not either,
    and must not read the step of the init it came from."""
    trans = ((0, Fraction(1)), (Fraction(1), 0))
    src = FsmSource(AB, ("x", "y"), (Fraction(1), Fraction(0)), trans, ("a", "b"))
    assert stationarity_witness(src) == ("a",)
    shifted = shifted_source(src, 1)
    assert shifted.init == (0, Fraction(1))
    assert stationarity_witness(shifted) == stationarity_witness(fresh(shifted)) == ("a",)


@st.composite
def chain_cases(draw):
    """(source, event, twin): a `reducible_chain` of 3-8 states and 1-3
    closed classes, periodic or not, with random labels and init; an event
    of 1-3 positive words of one length 1-3; and the source's law again on
    its chain: the source itself, a `with_init` restart on its init, or a
    JSON copy, whose rows are equal but distinct objects."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    n = 3 + rng.randint(6)
    trans, _ = reducible_chain(rng, n, 1 + rng.randint(3), periodic=draw(st.booleans()))
    labels = tuple("ab"[rng.randint(2)] for _ in range(n))
    src = FsmSource(AB, tuple(f"s{i}" for i in range(n)), rng.rational_row(n, 12, 0.5), trans, labels)
    k = draw(st.integers(1, 3))
    words = [w for w in positive_words(src, k) if len(w) == k]
    e = event(AB, draw(st.lists(st.sampled_from(words), min_size=1, max_size=3)))
    kind = draw(st.sampled_from(("same", "restart", "copy")))
    if kind == "restart":
        return src, e, with_init(src, src.init)
    return src, e, parse_model(source_to_json(src)) if kind == "copy" else src


@settings(max_examples=150)
@given(chain_cases(), st.sampled_from((None, 1, 3)))
def test_closed_class_zeros_and_equal_inits_match_the_full_paths(case, max_len):
    src, e, twin = case
    answers = (recurrence_defect(src, e), equivalence_witness(src, twin, max_len))
    with full_paths():
        full = fresh(src)
        expected = (recurrence_defect(full, e), equivalence_witness(full, fresh(twin), max_len))
    assert repr(answers) == repr(expected)


def test_full_paths_builds_the_product_and_the_basis(monkeypatch):
    """A stationary mean's defect is settled on its closed classes, and the
    mean against its JSON copy by equal inits on one chain; `full_paths`
    sends both to the product and the basis search."""
    src, e = exact_stationary_mean(0), event(AB, [("a", "b"), ("b", "a")])
    copy = parse_model(source_to_json(src))
    products = counted(monkeypatch, sources, "_AvoidanceProblem")
    adds = counted(monkeypatch, RowBasis, "add_ints")
    answers = repr((recurrence_defect(src, e), equivalence_witness(src, copy)))
    assert (len(products), len(adds)) == (0, 0)
    with full_paths():
        assert repr((recurrence_defect(src, e), equivalence_witness(src, copy))) == answers
    assert products and adds


# ---------------------------------------------------------------------------
# the float step against a column-by-column accumulation
# ---------------------------------------------------------------------------


def dict_step(m: SparseMatrix, v) -> tuple:
    """The float step of a vector holding a float, written out: each
    column's terms added from the first one, in row order, in a dict; a
    column without a term is 0.0."""
    acc = {}
    for x, row in zip(v, m.rows):
        if x:
            for j, p in row:
                acc[j] = acc[j] + x * p if j in acc else x * p
    out = [0.0] * m.n_cols
    for j, y in acc.items():
        out[j] = y if type(y) is float else float(y)
    return tuple(out)


def dict_partial_means(m: SparseMatrix, v, ns) -> list[tuple]:
    """Every term stepped by `dict_step`, summed per coordinate from int 0
    and divided with ``/``."""
    acc, out = [0] * len(v), {}
    for k in range(1, max(ns) + 1):
        acc = [a + x for a, x in zip(acc, v)]
        if k in ns:
            out[k] = tuple(a / k for a in acc)
        v = dict_step(m, v)
    return [out[n] for n in ns]


#: entries a float chain can hold: probabilities, rounding residue in
#: [-EPS, 0), and subnormal masses, whose products with a residue round to
#: -0.0
ENTRIES = st.one_of(
    st.floats(1e-3, 1.0),
    st.floats(-EPS, -1e-300),
    st.sampled_from((5e-324, 1e-310, 2.5e-308, -EPS, -1e-16)),
)
VECTOR_ENTRIES = st.one_of(ENTRIES, st.sampled_from((0, 0.0, -0.0, 5e-324, -5e-324)))


@st.composite
def float_matrices(draw):
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(n):
        cols = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
        rows.append([(j, draw(ENTRIES)) for j in cols])
    m = SparseMatrix(rows, n, [{float}] * n)
    v = tuple(draw(st.lists(VECTOR_ENTRIES, min_size=n, max_size=n)))
    if float not in map(type, v):
        v = (0.0,) + v[1:]
    return m, v


@settings(max_examples=300)
@given(float_matrices())
def test_float_step_matches_the_dict_accumulation(mv):
    m, v = mv
    assert repr(m.step(v)) == repr(dict_step(m, v))


def test_float_step_keeps_a_negative_zero_sum():
    # 5e-324 * -1e-16 rounds to -0.0: a column whose only terms are such
    # products sums to -0.0, and a column that no term reaches is 0.0
    m = SparseMatrix([[(0, -1e-16), (1, 1.0)], [(0, -1e-16)], []], 3, [{float}] * 3)
    v = (5e-324, 5e-324, 0.0)
    assert repr(m.step(v)) == repr(dict_step(m, v)) == "(-0.0, 5e-324, 0.0)"


@settings(max_examples=100)
@given(float_matrices(), st.sampled_from(((1,), (3, 7), (128, 256))))
def test_partial_mean_matches_stepping_every_term(mv, ns):
    m, v = mv
    assert repr(m.partial_mean(v, ns)) == repr(dict_partial_means(m, v, ns))


@pytest.mark.parametrize("seed", range(4))
def test_partial_mean_of_a_periodic_float_orbit(monkeypatch, seed):
    """A permutation of at most 6 states repeats an all-float orbit within 6
    steps, which the orbit key must find."""
    rng = SplitMix64(seed)
    n = 3 + rng.randint(4)
    perm = sorted(range(n), key=lambda i: rng.next_u64())
    m = SparseMatrix([[(perm[i], 1.0)] for i in range(n)], n, [{float}] * n)
    v = tuple(rng.uniform() for _ in range(n))
    expected = repr(dict_partial_means(m, v, (128, 256)))
    steps = counted(monkeypatch, SparseMatrix, "step")
    assert repr(m.partial_mean(v, (128, 256))) == expected
    assert len(steps) <= 6
