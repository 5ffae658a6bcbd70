"""Support searches and partial means that stop at a repeated state.

`dominates`, `asymptotically_dominates` and `is_recurrent` read one search
over pairs of support bitmasks, which extends one word per pair: the
domination checks stop at the first pair whose dominator side is empty,
and recurrence pairs a word's support with its closed-class end states.
`positive_words` enumerates words on support bitmasks.  The oracles in
`oracle.py` enumerate every word up to the depth with restarted dense
passes, so the domination tests pin the order in which the shared search
meets its witnesses.  A float copy of an exact model has its zero pattern,
so its support questions get the exact answers.
`SparseMatrix.partial_mean` stops stepping once its orbit repeats; the
reference, `oracle.stepped_partial_means`, steps every term.  Models are
random exact sources with 1-5 states over two or three symbols, sparse or
dense, and hookups of small sources with a random channel.

The recurrence theorem behind the depth-free stationarity gate: a source
is recurrent iff no support pair of any length fails the closed-class
test.  Each failing pair of the saturated search yields an explicit word
x = w u c of positive recurrence defect; with no failing pair,
`is_recurrent` certifies past twice the saturation length.
"""

from collections import Counter, deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amschan.battery import AB, ABC, rand_channel, rand_source
from amschan.channels import hookup
from amschan.errors import InvariantError
from amschan.gallery import absorbing_source, cycle_source, lazy_two_state
from amschan.linalg import SparseMatrix
from amschan.oracle import (
    enum_asymptotic_domination_witness,
    enum_domination_witness,
    positive_prefixes,
    product_recurrence_witness,
    stepped_partial_means,
)
from amschan.rng import SplitMix64
from amschan.seqcore import event
from amschan.sources import (
    _bit_list,
    _failing_pairs,
    _init_bits,
    _support_pairs,
    as_float_source,
    asymptotically_dominates,
    dominates,
    is_ergodic,
    chain_graph,
    is_recurrent,
    positive_words,
    recurrence_defect,
    FsmSource,
    stationary_mean,
    with_init,
)

SETTINGS = settings(max_examples=150)


def forbidding(rng: SplitMix64, alphabet, word) -> FsmSource:
    """A chain on the pairs of symbols, labelled by the second, whose paths
    spell every word except those that contain `word`, of length 3."""
    pairs = [(x, y) for x in alphabet for y in alphabet]
    rows = []
    for x, y in pairs:
        succ = [pairs.index((y, z)) for z in alphabet if (x, y, z) != tuple(word)]
        weights = rng.rational_row(len(succ), 12)
        rows.append(tuple(weights[succ.index(j)] if j in succ else 0 for j in range(len(pairs))))
    init = rng.rational_row(len(pairs), 12)
    states = tuple(f"{x}{y}" for x, y in pairs)
    return FsmSource(alphabet, states, init, tuple(rows), tuple(y for _, y in pairs))


@st.composite
def source_pairs(draw):
    """(dominator family, dominated source): two exact sources on one
    alphabet.  `kind` says how they are related."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    alphabet = draw(st.sampled_from((AB, ABC)))
    zero_prob = draw(st.sampled_from((0.2, 0.5, 0.7)))
    kind = draw(st.sampled_from(("independent", "same chain", "hookup", "forbidden word")))
    if kind == "forbidden word":
        # the dominated side's supports repeat after one symbol, while the
        # dominator's differ until the forbidden word is spelled
        word = draw(st.lists(st.sampled_from(tuple(alphabet)), min_size=3, max_size=3))
        mu = rand_source(rng, alphabet, len(alphabet), zero_prob=0.0, cover=True)
        return forbidding(rng, alphabet, word), mu
    if kind == "hookup":
        ch = rand_channel(rng, alphabet, AB, n_states=draw(st.integers(1, 2)), zero_prob=0.4)
        eta = rand_source(rng, alphabet, draw(st.integers(1, 3)), zero_prob)
        mu = rand_source(rng, alphabet, draw(st.integers(1, 3)), zero_prob)
        return hookup(eta, ch).source, hookup(mu, ch).source
    mu = rand_source(rng, alphabet, draw(st.integers(1, 5)), zero_prob)
    if kind == "same chain":
        eta = with_init(mu, rand_source(rng, alphabet, len(mu.states), zero_prob).init)
    else:
        eta = rand_source(rng, alphabet, draw(st.integers(1, 5)), zero_prob)
    return eta, mu


def test_domination_matches_enumeration():
    outcomes = Counter()

    @SETTINGS
    @given(source_pairs(), st.integers(1, 5))
    def check(pair, depth):
        eta, mu = pair
        verdict = dominates(eta, mu, depth)
        assert verdict.witness == enum_domination_witness(eta, mu, depth)
        assert verdict.holds == (verdict.witness is None)
        assert verdict.depth == depth
        outcomes[verdict.holds] += 1

    check()
    assert outcomes[False] >= 30 and outcomes[True] >= 30, outcomes


def test_asymptotic_domination_matches_enumeration():
    outcomes = Counter()

    @SETTINGS
    @given(source_pairs(), st.integers(1, 5))
    def check(pair, depth):
        eta, mu = stationary_mean(pair[0]), pair[1]
        verdict = asymptotically_dominates(eta, mu, depth)
        assert verdict.witness == enum_asymptotic_domination_witness(eta, mu, depth)
        assert verdict.holds == (verdict.witness is None)
        outcomes[verdict.holds] += 1

    check()
    # the earlier word-by-word check was never compared on negative cases
    assert outcomes[False] >= 30 and outcomes[True] >= 30, outcomes


def test_mean_domination_matches_enumeration():
    # a source against its own stationary mean: the pairs classify_source checks
    for seed in range(30):
        rng = SplitMix64(seed)
        mu = rand_source(rng, (AB, ABC)[seed % 2], 1 + seed % 5, (0.2, 0.5, 0.7)[seed % 3])
        mean = stationary_mean(mu)
        for depth in (2, 4):
            assert dominates(mean, mu, depth).witness == enum_domination_witness(mean, mu, depth)
            assert asymptotically_dominates(mean, mu, depth).witness == (
                enum_asymptotic_domination_witness(mean, mu, depth)
            )


def test_domination_at_depth_zero_holds():
    s = absorbing_source()
    assert dominates(cycle_source(), s, 0).holds
    assert asymptotically_dominates(stationary_mean(cycle_source()), s, 0).holds


def test_float_support_checks_match_exact():
    # the float copies read positivity off the same supports, and the float
    # stationary means keep every class their init reaches
    outcomes = Counter()

    @SETTINGS
    @given(source_pairs(), st.integers(1, 5))
    def check(pair, depth):
        eta, mu = pair
        feta, fmu = as_float_source(eta), as_float_source(mu)
        for src, fsrc in ((eta, feta), (mu, fmu)):
            assert positive_words(fsrc, depth) == positive_words(src, depth)
            recurrent = is_recurrent(src, depth)
            assert is_recurrent(fsrc, depth) == recurrent
            assert is_ergodic(fsrc) == is_ergodic(src)
            outcomes["recurrent", recurrent.recurrent] += 1
        assert dominates(feta, fmu, depth) == dominates(eta, mu, depth)
        for dom, fdom in ((eta, feta), (mu, fmu)):
            mean, fmean = stationary_mean(dom), stationary_mean(fdom)
            assert [bool(x) for x in fmean.init] == [bool(x) for x in mean.init]
            assert dominates(fmean, fmu, depth) == dominates(mean, mu, depth)
            verdict = asymptotically_dominates(mean, mu, depth)
            assert asymptotically_dominates(fmean, fmu, depth) == verdict
            outcomes["asymptotic", verdict.holds] += 1
        outcomes["dominates", dominates(eta, mu, depth).holds] += 1

    check()
    for check_name in ("dominates", "asymptotic", "recurrent"):
        assert outcomes[check_name, False] >= 20 and outcomes[check_name, True] >= 20, outcomes


@SETTINGS
@given(st.integers(0, 2**32), st.integers(1, 5), st.integers(1, 5))
def test_exact_recurrence_matches_full_product(seed, n_states, depth):
    rng = SplitMix64(seed)
    alphabet = (AB, ABC)[seed % 2]
    src = rand_source(rng, alphabet, n_states, (0.2, 0.5, 0.7)[seed % 3])
    assert is_recurrent(src, depth).witness == product_recurrence_witness(src, depth)


@SETTINGS
@given(st.integers(0, 2**32), st.integers(1, 5), st.integers(0, 5))
def test_exact_positive_words_on_supports(seed, n_states, depth):
    src = rand_source(SplitMix64(seed), (AB, ABC)[seed % 2], n_states, 0.5)
    assert positive_words(src, depth) == [w for w, _ in positive_prefixes(src, depth)]


# ---------------------------------------------------------------------------
# partial means
# ---------------------------------------------------------------------------


@st.composite
def recurrence_cases(draw):
    """Exact sources of 2-6 states, sparse and often reducible, started from
    a random init (which often charges transient states), from one state,
    or from their stationary mean; and hookups of 2-3-state sources with a
    2-state channel."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    zero_prob = draw(st.sampled_from((0.3, 0.5, 0.7)))
    if draw(st.booleans()):
        src = rand_source(rng, AB, draw(st.integers(2, 3)), zero_prob=zero_prob)
        return hookup(src, rand_channel(rng, AB, AB, zero_prob=0.5)).source
    n = draw(st.integers(2, 6))
    src = rand_source(rng, draw(st.sampled_from((AB, ABC))), n, zero_prob=zero_prob)
    kind = draw(st.sampled_from(("random", "one state", "mean")))
    if kind == "one state":
        i = draw(st.integers(0, n - 1))
        src = with_init(src, tuple(Fraction(int(k == i)) for k in range(n)))
    elif kind == "mean":
        src = stationary_mean(src)
    return src


def refuting_word(src, w, start, end):
    """x = w u c, where w ends in `start`: u spells a shortest path from
    `start` into a closed class in which no path spells w (no `end` state
    lies in it), and c a path inside that class, |c| = |wu| + |w|."""
    graph = chain_graph(src)
    spelled = {graph.class_of[j] for j in _bit_list(end)}
    parent, queue = {start: None}, deque([start])
    while graph.class_of[queue[0]] in spelled or graph.class_of[queue[0]] < 0:
        i = queue.popleft()
        for j in graph.succ[i]:
            if j not in parent:
                parent[j] = i
                queue.append(j)
    path, i = [], queue[0]
    while i != start:
        path.append(i)
        i = parent[i]
    path.reverse()
    for _ in range(2 * len(w) + len(path)):
        path.append(graph.succ[path[-1] if path else start][0])
    return w + tuple(src.labels[j] for j in path)


@SETTINGS
@given(recurrence_cases())
def test_failing_pairs_decide_recurrence_at_every_length(src):
    graph = chain_graph(src)
    ends = sum(1 << s for c in graph.closed for s in c)
    sides = (src, _init_bits(src)), (src, ends)
    first = {pair: w for w, pair in _support_pairs(src.alphabet, None, *sides, {})}
    saturation = max(map(len, first.values()))
    deeper = {pair: w for w, pair in _support_pairs(src.alphabet, saturation + 1, *sides, {})}
    assert deeper == first
    failing = _failing_pairs(src, None, {})
    for pair, starts in failing.items():
        x = refuting_word(src, first[pair], starts[0], pair[1])
        assert recurrence_defect(src, event(src.alphabet, [x])) > 0
    if not failing:
        assert is_recurrent(src, 2 * saturation + 2).recurrent


def lasso(q: int, p: int, one):
    """q transient states on a path into a cycle of p states; entries `one`
    and int 0."""
    n = q + p
    nxt = [i + 1 for i in range(n - 1)] + [q]
    return tuple(tuple(one if j == nxt[i] else 0 for j in range(n)) for i in range(n))


def as_floats(m):
    return tuple(tuple(float(x) if x else 0 for x in row) for row in m)


NS = [(1,), (2, 3), (5, 17), (128, 256), (3, 64, 100)]


def partial_mean_cases():
    cases = []
    for q, p in ((0, 1), (0, 3), (2, 1), (3, 4), (1, 6)):
        for one in (1, Fraction(1), 1.0):
            n = q + p
            trans = lasso(q, p, one)
            cases.append((trans, (one,) + (0,) * (n - 1)))
            # int zeros among the init's entries
            half = one / 2
            cases.append((trans, (half,) + (0,) * (n - 2) + (half,) if n > 1 else (one,)))
    for src in (absorbing_source(), lazy_two_state(), cycle_source(("a", "b", "c"))):
        cases.append((src.trans, src.init))
        cases.append((as_floats(src.trans), tuple(float(x) if x else 0 for x in src.init)))
    for seed in range(6):
        src = rand_source(SplitMix64(seed), AB, n_states=2 + seed % 4, zero_prob=0.5)
        cases.append((src.trans, src.init))
        cases.append((as_floats(src.trans), tuple(float(x) for x in src.init)))
    return cases


def test_partial_mean_matches_stepping_every_time():
    for trans, init in partial_mean_cases():
        for ns in NS:
            got = SparseMatrix.of(trans).partial_mean(init, ns)
            assert repr(got) == repr(stepped_partial_means(SparseMatrix.of(trans), init, ns))


@pytest.mark.parametrize("q,p", [(0, 1), (0, 5), (3, 1), (4, 7), (10, 20)])
def test_partial_mean_steps_a_lasso_at_most_its_length(monkeypatch, q, p):
    calls = Counter()
    step = SparseMatrix.step

    def counted(self, v):
        calls["step"] += 1
        return step(self, v)

    monkeypatch.setattr(SparseMatrix, "step", counted)
    for one in (Fraction(1), 1.0):
        trans = lasso(q, p, one)
        # an init with int zeros differs in type from its steps, which have
        # Fraction or float zeros, so it adds one state before the lasso
        for zero, extra in ((one - one, 0), (0, 1)):
            init = (one,) + (zero,) * (q + p - 1)
            calls.clear()
            got = SparseMatrix.of(trans).partial_mean(init, (128, 256))
            assert calls["step"] <= p + q + extra
            want = stepped_partial_means(SparseMatrix.of(trans), init, (128, 256))
            assert repr(got) == repr(want)


@pytest.mark.parametrize("ns", [(), (0,), (128, 0), (-1, 256)])
def test_partial_mean_rejects_n_below_one(ns):
    for trans, init in partial_mean_cases()[:4]:
        with pytest.raises(InvariantError, match="n >= 1"):
            SparseMatrix.of(trans).partial_mean(init, ns)
