"""Recurrence: the closed-class decision against the full product oracle.

`is_recurrent` settles each end state on the closed classes of the chain's
positive-transition graph and builds the chain x automaton product only for
the end states it cannot settle, on the product states they reach;
`recurrence_defect` solves on those reachable states only.  The first
decision reads the pair (word support, closed-class end states), so the
pairs are searched first: a source none of whose pairs fails is certified
with no word enumerated, and otherwise only the words whose pair can still
reach a failing pair within the depth are enumerated.  The oracles in
`oracle.py` build every product state for every word.  Models are 2-3-symbol
random sources with 3-6 states, reducible chains with two or three closed
classes whose alphabets differ (so some class lacks a short word), the same
chains entered through a deterministic transient path, and hookups with a
random channel, in exact mode and parsed in float mode.  The pair search is
also checked on a seeded set of 2-6-state sources and of hookups at depths
5-6, and on hand-built chains whose witnesses and visited words are pinned.
"""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amschan
from amschan import sources
from amschan.battery import ABC, AB, rand_channel, rand_dense_source, rand_source
from amschan.channels import hookup
from amschan.errors import InvariantError
from amschan.gallery import absorbing_source, bsc, iid_uniform, lazy_two_state
from amschan.models import parse_model, source_to_json
from amschan.oracle import product_recurrence_defect, product_recurrence_witness
from amschan.rng import SplitMix64
from amschan.seqcore import Alphabet, event
from amschan.sources import (
    FsmSource,
    asymptotically_dominates,
    chain_graph,
    cyl_prob,
    dominates,
    is_recurrent,
    positive_words,
    recurrence_defect,
    stationary_mean,
    with_init,
)

SETTINGS = settings(max_examples=60)


def reducible(rng: SplitMix64, alphabet, n_transient: int, class_alphabets, path) -> FsmSource:
    """A chain of closed classes, one per entry of `class_alphabets` (sizes
    1-3, dense rows, labels from that sub-alphabet), fed by `n_transient`
    transient states that each leave with positive probability, entered
    after a deterministic path spelling `path`."""
    sizes = [1 + rng.randint(3) for _ in class_alphabets]
    k, t = len(path), n_transient
    n = k + t + sum(sizes)
    zero = Fraction(0)
    rows, labels = [], list(path)
    for i in range(k):
        target = i + 1 if i + 1 < k else k + rng.randint(t)
        rows.append(tuple(Fraction(int(j == target)) for j in range(n)))
    for _ in range(t):
        row = list(rng.rational_row(n - k, 12, 0.3))
        if not any(row[t:]):  # make sure the state can leave the transient block
            row[t + rng.randint(n - k - t)] = Fraction(1, 12)
            total = sum(row)
            row = [x / total for x in row]
        rows.append((zero,) * k + tuple(row))
        labels.append(rng.choice(tuple(alphabet)))
    start = k + t
    for size, syms in zip(sizes, class_alphabets):
        for _ in range(size):
            inner = rng.rational_row(size, 12, 0.0)
            rows.append((zero,) * start + inner + (zero,) * (n - start - size))
            labels.append(rng.choice(syms))
        start += size
    if k:
        init = (Fraction(1),) + (zero,) * (n - 1)
    else:
        init = rng.rational_row(t, 12, 0.3) + (zero,) * (n - t)
    return FsmSource(alphabet, tuple(f"s{i}" for i in range(n)), init, tuple(rows), tuple(labels))


@st.composite
def chains(draw):
    """(source, float mode) from one of the model families above."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    alphabet = draw(st.sampled_from((AB, ABC)))
    kind = draw(st.sampled_from(("random", "reducible", "delayed", "escape", "hookup")))
    if kind == "random":
        src = rand_source(rng, alphabet, n_states=draw(st.integers(3, 6)),
                          zero_prob=draw(st.sampled_from((0.2, 0.5, 0.7))))
    elif kind == "hookup":
        base = rand_source(rng, alphabet, n_states=draw(st.integers(2, 3)), zero_prob=0.5)
        src = hookup(base, rand_channel(rng, alphabet, AB, n_states=1, zero_prob=0.4)).source
    elif kind == "escape":
        # every word with a symbol besides "a" can escape into the "a" class
        src = reducible(rng, alphabet, draw(st.integers(2, 4)), [tuple(alphabet), ("a",)], [])
    else:
        syms = tuple(alphabet)
        subs = [syms] + [
            tuple(draw(st.lists(st.sampled_from(syms), min_size=1, max_size=2, unique=True)))
            for _ in range(draw(st.integers(1, 2)))
        ]
        path = []
        if kind == "delayed":
            path = draw(st.lists(st.sampled_from(syms), min_size=1, max_size=3))
        src = reducible(rng, alphabet, draw(st.integers(1, 4)), subs, path)
    float_mode = draw(st.booleans())
    if float_mode:
        src = parse_model(source_to_json(src), float_mode=True)
    return src, float_mode


@SETTINGS
@given(chains(), st.integers(3, 4))
def test_witness_matches_full_product(chain, depth):
    src, _ = chain
    assert is_recurrent(src, depth).witness == product_recurrence_witness(src, depth)


@SETTINGS
@given(chains(), st.integers(0, 2**32))
def test_defect_matches_full_product(chain, seed):
    src, _ = chain
    rng = SplitMix64(seed)
    for length in (1, 2, 3):
        positive = [w for w in positive_words(src, length) if len(w) == length]
        e = event(src.alphabet, {rng.choice(positive) for _ in range(1 + rng.randint(3))})
        assert repr(recurrence_defect(src, e)) == repr(product_recurrence_defect(src, e))


@SETTINGS
@given(chains(), st.integers(0, 2**32))
def test_defect_with_null_words_matches_full_product(chain, seed):
    # null words add no start; an event of null words alone has defect int 0
    src, _ = chain
    rng = SplitMix64(seed)
    for length in (1, 2, 3):
        words = list(src.alphabet.words(length))
        positive = set(positive_words(src, length))
        null = [w for w in words if w not in positive]
        picked = {rng.choice(words) for _ in range(1 + rng.randint(4))}
        for words in (picked, null[:2]):
            if words:
                e = event(src.alphabet, words)
                assert repr(recurrence_defect(src, e)) == repr(product_recurrence_defect(src, e))
        if null:
            assert repr(recurrence_defect(src, event(src.alphabet, null[:1]))) == "0"


def test_chain_graph_reach_matches_search():
    # each state's reachable closed classes, against a plain graph search
    for seed in range(40):
        rng = SplitMix64(seed)
        classes = [("a", "b"), ("a",), ("b",)][: 2 + seed % 2]
        src = reducible(rng, AB, 1 + seed % 3, classes, "ab"[: seed % 3])
        graph = chain_graph(src)
        for s in range(len(src.states)):
            seen, stack = {s}, [s]
            while stack:
                for j in graph.succ[stack.pop()]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            assert graph.reach[s] == sum(1 << k for k, c in enumerate(graph.closed) if seen & set(c))


@SETTINGS
@given(st.data())
def test_pattern_automaton_matches_its_definition(data):
    """Every input u up to two symbols longer than the words walks to the
    node of its longest suffix that is a word prefix, which matches iff u
    ends with a word; the nodes are the word prefixes, numbered as they
    first occur in the words."""
    alphabet = Alphabet(("a", "b", "c")[: data.draw(st.integers(1, 3))])
    length = data.draw(st.integers(1, 6))
    word = st.tuples(*[st.sampled_from(tuple(alphabet))] * length)
    words = data.draw(st.lists(word, min_size=1, max_size=6))
    ac = sources.PatternAutomaton(alphabet, words)
    prefixes = list(dict.fromkeys(w[:k] for w in words for k in range(length + 1)))
    assert [ac.walk(p) for p in prefixes] == list(range(ac.size))
    for u in alphabet.words_upto(length + 2):
        longest = next(u[i:] for i in range(len(u) + 1) if u[i:] in prefixes)
        q = ac.walk(u)
        assert q == ac.walk(longest)
        assert ac.match[q] == (len(u) >= length and u[len(u) - length:] in words)


def count_automata(monkeypatch) -> list:
    built = []

    class Counting(sources.PatternAutomaton):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(sources, "PatternAutomaton", Counting)
    return built


def test_stationary_mean_builds_no_product(monkeypatch):
    built = count_automata(monkeypatch)
    src = stationary_mean(rand_dense_source(SplitMix64(11), ABC, n_states=3))
    assert is_recurrent(src, 5).recurrent
    assert built == []


def test_transient_source_builds_the_product(monkeypatch):
    built = count_automata(monkeypatch)
    src = absorbing_source()
    verdict = is_recurrent(src, 3)
    assert not verdict.recurrent
    assert len(built) >= 1
    assert verdict.witness == product_recurrence_witness(src, 3)


# ---------------------------------------------------------------------------
# the transition rows are checked once per chain
# ---------------------------------------------------------------------------


def test_bad_row_still_raises():
    bad = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(0), Fraction(1)))
    with pytest.raises(InvariantError):
        FsmSource(AB, ("x", "y"), (Fraction(1), Fraction(0)), bad, ("a", "b"))


def test_with_init_checks_the_init():
    src = absorbing_source()
    with pytest.raises(InvariantError):
        with_init(src, (Fraction(1, 2),) * (len(src.states) + 1))
    with pytest.raises(InvariantError):
        with_init(src, (Fraction(1, 2),) + (Fraction(0),) * (len(src.states) - 1))


def test_foreign_cache_does_not_skip_the_rows():
    src = absorbing_source()
    n = len(src.states)
    bad = tuple((Fraction(1, 2),) + (Fraction(0),) * (n - 1) for _ in range(n))
    with pytest.raises(InvariantError):
        FsmSource(src.alphabet, src.states, src.init, bad, src.labels, src._cache)


def test_foreign_cache_does_not_carry_chain_results():
    src = lazy_two_state()
    cyl_prob(src, ("a", "b"))
    chain_graph(src)
    stationary_mean(src)
    other = FsmSource(src.alphabet, src.states, src.init, ((0, 1), (0, 1)), src.labels, src._cache)
    assert cyl_prob(other, ("a", "b")) == 1
    assert chain_graph(other).closed == ((1,),)
    assert stationary_mean(other).init == (0, 1)
    # the first chain keeps its own cache
    assert src._cache["checked"] is src.trans and "cesaro" in src._cache
    assert cyl_prob(src, ("a", "b")) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# the support-pair search: depth-free certificates, pruned refutations
# ---------------------------------------------------------------------------


def random_source(seed: int) -> FsmSource:
    """A random source with 2-6 states and zero_prob 0.5, over three
    symbols for every fourth seed."""
    rng = SplitMix64(seed)
    return rand_source(rng, ABC if seed % 4 == 3 else AB, 2 + rng.randint(5), 0.5)


def differential_models():
    """(name, source, depth): 160 random sources at depths 5-6, and 5
    hookups of 2-4-state sources with 2-state channels at depth 5, each
    drawn from its own seed."""
    for seed in range(160):
        yield f"source {seed}", random_source(seed), 6 if seed % 4 < 2 else 5
    for seed in range(1005, 1010):
        rng = SplitMix64(seed)
        base = rand_source(rng, AB, n_states=2 + rng.randint(3), zero_prob=0.5)
        yield f"hookup {seed}", hookup(base, rand_channel(rng, AB, AB, 2, 0.5)).source, 5


def test_pair_search_matches_the_full_product():
    refuted = 0
    for name, src, depth in differential_models():
        verdict = is_recurrent(src, depth)
        witness = product_recurrence_witness(src, depth)
        assert (verdict.recurrent, verdict.depth, verdict.witness) == (
            witness is None, depth, witness), name
        refuted += witness is not None
    assert refuted >= 30


def counter_source() -> FsmSource:
    """A transient path spelling b b b b b into a class that spells every
    word without five b's in a row; the init also charges the class."""
    n = 10  # path p0..p4, class c0 (label a) and c1..c4 counting b's
    half, zero = Fraction(1, 2), Fraction(0)

    def row(*targets):
        p = Fraction(1, len(targets))
        return tuple(p if j in targets else zero for j in range(n))

    rows = [row(i + 1) for i in range(5)]  # p4 enters c0
    rows += [row(5, 6), row(5, 7), row(5, 8), row(5, 9), row(5)]
    init = (half,) + (half / 5,) * 5 + (zero,) * 4
    labels = ("b",) * 5 + ("a",) + ("b",) * 4
    return FsmSource(AB, tuple(f"s{i}" for i in range(n)), init, tuple(rows), labels)


def test_pinned_witnesses():
    assert is_recurrent(random_source(50), 5) == sources.RecurrenceVerdict(False, 5, ("b", "a", "a"))
    assert is_recurrent(counter_source(), 5) == sources.RecurrenceVerdict(False, 5, ("b",) * 5)
    assert is_recurrent(counter_source(), 4) == sources.RecurrenceVerdict(True, 4)


def forbid_word_enumeration(monkeypatch):
    def fail(*args):
        raise AssertionError("a certified source enumerated words")

    monkeypatch.setattr(sources, "_positive_supports", fail)
    monkeypatch.setattr(sources, "_words_toward_failure", fail)


def delayed_iid() -> FsmSource:
    """A transient state labelled a, then the fair iid source; the init
    charges no state of the closed class."""
    half, zero = Fraction(1, 2), Fraction(0)
    row = (zero, half, half)
    return FsmSource(AB, ("t", "a", "b"), (Fraction(1), zero, zero), (row,) * 3, ("a", "a", "b"))


def test_certified_sources_enumerate_no_words(monkeypatch):
    forbid_word_enumeration(monkeypatch)
    noisy = hookup(iid_uniform(), bsc(Fraction(1, 10))).source
    for src in (iid_uniform(), noisy, delayed_iid()):
        assert is_recurrent(src, 30) == sources.RecurrenceVerdict(True, 30, None)
    # domination searches the same support pairs, so it enumerates no word either
    for src in (iid_uniform(), noisy):
        mean = stationary_mean(src)
        assert dominates(mean, src, 30) == sources.Verdict(True, 30, None)
        assert asymptotically_dominates(mean, src, 30) == sources.Verdict(True, 30, None)


def test_refutation_visits_only_words_toward_failing_pairs(monkeypatch):
    visited = []
    pruned = sources._words_toward_failure

    def counting(*args):
        for item in pruned(*args):
            visited.append(item[0])
            yield item

    monkeypatch.setattr(sources, "_words_toward_failure", counting)
    src = counter_source()
    verdict = is_recurrent(src, 5)
    assert verdict.witness == product_recurrence_witness(src, 5) == ("b",) * 5
    # only the path toward b b b b b, of the 62 positive words
    assert visited == [("b",) * k for k in range(1, 6)]
    assert len(positive_words(src, 5)) == 62


FLOAT_DEFECT = """
import sys
from amschan.models import parse_model
from amschan.seqcore import event
from amschan.sources import recurrence_defect
src = parse_model({model!r}, float_mode=True)
print(repr(recurrence_defect(src, event(src.alphabet, [("a", "a"), ("b", "b")]))))
"""


def test_float_defect_does_not_depend_on_the_hash_seed():
    # under hash seed 1 the event's two words iterate in the other order
    # than under 0 and 7; this chain's float defect then moved in its last bit
    rows = [["0", "1", "0", "0", "0", "0"], ["1", "0", "0", "0", "0", "0"],
            ["0", "3/8", "5/24", "1/6", "1/4", "0"], ["2/15", "0", "0", "8/15", "0", "1/3"],
            ["1/5", "0", "0", "0", "12/25", "8/25"], ["1/5", "4/15", "1/3", "0", "1/30", "1/6"]]
    model = {
        "kind": "source", "alphabet": ["a", "b"],
        "states": [{"name": f"s{i}", "label": label} for i, label in enumerate("babbba")],
        "init": ["1/9", "4/9", "0", "0", "1/9", "1/3"], "trans": rows,
    }
    src_root = str(pathlib.Path(amschan.__file__).resolve().parent.parent)
    paths = [src_root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    out = set()
    for seed in ("0", "1", "7"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "PYTHONHASHSEED": seed}
        run = subprocess.run([sys.executable, "-c", FLOAT_DEFECT.format(model=model)],
                             capture_output=True, text=True, env=env, check=True)
        out.add(run.stdout)
    assert len(out) == 1
    assert float(out.pop()) == pytest.approx(180263 / 1335600)
