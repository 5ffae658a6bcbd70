"""Measure equality: the basis-pruned search against the full breadth-first
search of the oracle.

With exact sources `equivalence_witness` expands only words whose stacked
forward vectors are linearly independent; it must still return the witness
of `oracle.bfs_equivalence_witness`, which extends every positive word with
dense products.  Float sources run the full search a level at a time on
blocks, so they must match the oracle too, and
`oracle.stepped_equivalence_witness`, which steps one word at a time, in
witness and in the word at which the budget stops the search.  Pairs cover
2-3 symbols and 2-6 states with sparse and dense rows: differing pairs, a
source against its shift, a stationary mean against its shift, a
split-state presentation of the same measure, and one whose split copy has
a new row, which differs late or not at all.  A deterministic path put in
front of both sources delays every witness.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amschan import cli, sources
from amschan.battery import ABC, AB, rand_ergodic_stationary_source, rand_source
from amschan.channels import FsmChannel
from amschan.errors import BudgetExceededError
from amschan.gallery import absorbing_source
from amschan.linalg import SparseMatrix
from amschan.models import channel_to_json, parse_model, source_to_json
from amschan.oracle import bfs_equivalence_witness, stepped_equivalence_witness
from amschan.rng import SplitMix64
from amschan.sources import (
    FsmSource,
    as_float_source,
    equivalence_witness,
    is_stationary,
    shifted_source,
    stationary_mean,
    with_init,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def split_state(src, j: int, alpha: Fraction) -> FsmSource:
    """The same measure with state j split into two copies of its label and
    row, entered in proportion alpha : 1 - alpha."""

    def split_row(row):
        return tuple(row[:j]) + (alpha * row[j],) + tuple(row[j + 1 :]) + ((1 - alpha) * row[j],)

    trans = tuple(split_row(row) for row in src.trans)
    states = tuple(f"s{i}" for i in range(len(src.states) + 1))
    return FsmSource(
        src.alphabet, states, split_row(src.init), trans + (trans[j],), src.labels + (src.labels[j],)
    )


def with_row(src, i: int, row) -> FsmSource:
    trans = src.trans[:i] + (tuple(row),) + src.trans[i + 1 :]
    return FsmSource(src.alphabet, src.states, src.init, trans, src.labels)


def delayed(src, path_labels) -> FsmSource:
    """src entered after a deterministic path spelling `path_labels`."""
    k, n = len(path_labels), len(src.states)
    zero = Fraction(0)
    rows = [tuple(Fraction(int(j == i + 1)) for j in range(k)) + (zero,) * n for i in range(k - 1)]
    rows.append((zero,) * k + tuple(src.init))
    rows += [(zero,) * k + tuple(row) for row in src.trans]
    init = (Fraction(1),) + (zero,) * (k + n - 1)
    states = tuple(f"s{i}" for i in range(k + n))
    return FsmSource(src.alphabet, states, init, tuple(rows), tuple(path_labels) + src.labels)


def make_pair(rng, alphabet, kind, n, zero_prob, n2=2, path=(), float_mode=False):
    """(s1, s2) of one kind: "differ" draws s2 with `n2` states, "shift"
    and "stationary-shift" pair a source with its shift, "split" with a
    split-state copy, and "late" with a split copy whose new row differs.
    A non-empty `path` delays both sources."""
    s1 = rand_source(rng, alphabet, n_states=n, zero_prob=zero_prob)
    if kind == "differ":
        s2 = rand_source(rng, alphabet, n_states=n2, zero_prob=zero_prob)
    elif kind == "shift":
        s2 = shifted_source(s1, 1)
    elif kind == "stationary-shift":
        s1 = stationary_mean(s1)
        s2 = shifted_source(s1, 1)
    else:
        s2 = split_state(s1, rng.randint(n), Fraction(1 + rng.randint(11), 12))
        if kind == "late":
            s2 = with_row(s2, n, rng.rational_row(n + 1, 12, zero_prob))
    if path:
        s1, s2 = delayed(s1, path), delayed(s2, path)
    if float_mode:
        s1, s2 = floated(s1), floated(s2)
    return s1, s2


def floated(src: FsmSource) -> FsmSource:
    return parse_model(source_to_json(src), float_mode=True)


KINDS = ("differ", "shift", "stationary-shift", "split", "late")


@st.composite
def pairs(draw):
    """(s1, s2, max_len).  Pairs that may be equal and are searched to the
    full |S1|+|S2| bound keep to 2-3 states and no delay, since the oracle
    walks |A|^(|S1|+|S2|) words."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    alphabet = draw(st.sampled_from((AB, ABC)))
    kind = draw(st.sampled_from(KINDS))
    max_len = draw(st.sampled_from((None, 1, 2, 3, 4, 5)))
    float_mode = draw(st.booleans())
    full_equal = max_len is None and kind in ("stationary-shift", "split", "late")
    n = draw(st.integers(2, 3 if full_equal or float_mode else 6))
    zero_prob = draw(st.sampled_from((0.0, 0.3, 0.6)))
    n2 = draw(st.integers(2, 6)) if kind == "differ" else 2
    path = () if full_equal else draw(st.lists(st.sampled_from(tuple(alphabet)), max_size=3))
    s1, s2 = make_pair(rng, alphabet, kind, n, zero_prob, n2, tuple(path), float_mode)
    return s1, s2, max_len


@SETTINGS
@given(pairs())
def test_witness_matches_full_search(pair):
    s1, s2, max_len = pair
    assert equivalence_witness(s1, s2, max_len) == bfs_equivalence_witness(s1, s2, max_len)


def test_equal_presentations_have_no_witness():
    rng = SplitMix64(5)
    for alphabet in (AB, ABC):
        src = rand_source(rng, alphabet, n_states=3, zero_prob=0.0)
        split = split_state(src, 1, Fraction(5, 12))
        assert equivalence_witness(src, split) is None
        assert bfs_equivalence_witness(src, split) is None


def test_pruning_ranks_both_chains_together():
    """A fair coin against a chain that agrees on every word of length 2 but
    forbids three a's in a row.  The coin's forward vectors alone have rank
    2, so a rank test on them would cut every word of length 2."""
    half, zero, one = Fraction(1, 2), Fraction(0), Fraction(1)
    coin = FsmSource(AB, ("A", "B"), (half, half), ((half, half), (half, half)), ("a", "b"))
    memory = FsmSource(
        AB,
        ("A1", "A2", "B"),
        (half, zero, half),
        ((zero, half, half), (zero, zero, one), (half, zero, half)),
        ("a", "a", "b"),
    )
    assert equivalence_witness(coin, memory) == ("a", "a", "a")
    assert bfs_equivalence_witness(coin, memory) == ("a", "a", "a")


def test_stationary_dense_source_steps_once_per_independent_word(monkeypatch):
    """Each word the search expands steps every symbol once per chain, and
    at most |S1|+|S2| non-root words are independent."""
    src = rand_ergodic_stationary_source(SplitMix64(20), ABC, n_states=20)
    calls = 0
    step = SparseMatrix.step

    def counted(self, v, keep=None):
        nonlocal calls
        calls += 1
        return step(self, v, keep)

    monkeypatch.setattr(SparseMatrix, "step", counted)
    assert is_stationary(src)
    # the exact search steps through SparseMatrix.step, so the pin counts it
    assert 0 < calls <= 2 * len(ABC) * (2 * len(src.states))


def float_stationary_source(n: int) -> FsmSource:
    return as_float_source(rand_ergodic_stationary_source(SplitMix64(12), AB, n_states=n))


def test_float_search_stops_at_its_budget():
    src = float_stationary_source(12)
    with pytest.raises(BudgetExceededError):
        equivalence_witness(src, shifted_source(src, 1))


def test_cli_exits_4_when_float_search_exceeds_budget(tmp_path, capsys):
    path = tmp_path / "dense12.json"
    path.write_text(json.dumps(source_to_json(float_stationary_source(12))))
    assert cli.main(["classify", "--source", str(path), "--float"]) == cli.EXIT_BUDGET
    assert "float equality search" in capsys.readouterr().err


def test_negative_bound_checks_no_word():
    # the source and its shift differ at length 1; a bound below 0 leaves
    # no word to check, as a bound of 0 does, in both modes
    src = absorbing_source()
    shift = shifted_source(src, 1)
    for s1, s2 in ((src, shift), (as_float_source(src), as_float_source(shift))):
        assert equivalence_witness(s1, s2, 1) == ("a",)
        for bound in (0, -1, -3):
            assert equivalence_witness(s1, s2, bound) is None
        assert is_stationary(s1, -1)
        assert not is_stationary(s1, 1)


def test_is_exact_checks_init_and_trans():
    # ints go with either scalar kind, so floats in the init or in the rows
    # alone make a float source, and in the init or the kernel a float channel
    src = FsmSource(AB, ("s0", "s1"), (Fraction(1, 2),) * 2, ((0, 1), (1, 0)), ("a", "b"))
    assert src.is_exact
    floated = with_init(src, (0.5, 0.5))
    assert not floated.is_exact
    assert src.is_exact
    float_trans = ((0.0, 1.0), (1.0, 0.0))
    assert not FsmSource(AB, src.states, (1, 0), float_trans, src.labels).is_exact
    half = Fraction(1, 2)
    kernel = {(q, a): (("a", 1 - q, half), ("b", q, half)) for q in (0, 1) for a in AB}
    ch = FsmChannel(AB, AB, ("q0", "q1"), (half, half), kernel)
    assert ch.is_exact
    assert not parse_model(channel_to_json(ch), float_mode=True).is_exact
    int_rows = {(q, a): ((a, 1 - q, 1),) for q in (0, 1) for a in AB}
    assert not FsmChannel(AB, AB, ch.states, (0.5, 0.5), int_rows).is_exact
    float_rows = {key: tuple((b, q2, float(p)) for b, q2, p in row) for key, row in kernel.items()}
    assert not FsmChannel(AB, AB, ch.states, (1, 0), float_rows).is_exact


# ---------------------------------------------------------------------------
# the level search of float sources against the word-at-a-time reference
# ---------------------------------------------------------------------------


def _float_block_cases():
    """(s1, s2, max_len): pairs of every kind on 2-3 states, with {a, b} or
    {a, b, c}, delayed by 0-2 symbols unless they may be equal to the full
    bound, each floated, with its first source exact, with int inits
    (1, 0, ...) on both float sources, and exact against the second's int
    init; a source whose symbol c no state carries; max_len 0, 1, 3 and
    None; and exact sources against float ones whose masses they are
    within EPS of, where a float int mass meets a Fraction."""
    for seed in range(60):
        rng = SplitMix64(seed)
        alphabet = (AB, ABC)[seed % 2]
        kind = KINDS[seed // 2 % len(KINDS)]
        max_len = (None, 0, 1, 3)[seed // 10 % 4]
        full_equal = max_len is None and kind in ("stationary-shift", "split", "late")
        path = () if full_equal else tuple(alphabet)[: seed % 3]
        n, zero_prob = 2 + seed % 2, (0.0, 0.3, 0.6)[seed % 3]
        s1, s2 = make_pair(rng, alphabet, kind, n, zero_prob, 2 + seed % 3, path)
        yield floated(s1), floated(s2), max_len
        yield s1, floated(s2), max_len
        f1, f2 = (with_init(floated(s), (1,) + (0,) * (len(s.states) - 1)) for s in (s1, s2))
        yield f1, f2, max_len
        yield s1, f2, max_len
    src = rand_source(SplitMix64(3), AB, n_states=3, zero_prob=0.3)
    no_c = FsmSource(ABC, src.states, src.init, src.trans, src.labels)
    for max_len in (0, 1, 3, None):
        yield floated(no_c), floated(shifted_source(no_c, 1)), max_len
        yield no_c, floated(split_state(no_c, 1, Fraction(1, 3))), max_len
    for exact, fl in near_int_pairs():
        for max_len in (1, 2, None):
            yield exact, fl, max_len
            yield fl, exact, max_len


def near_int_pairs():
    """(exact source, float source) whose masses differ by 1e-12 on bc,
    where the float source keeps an int mass: in the first pair its init is
    ints and its column c holds only ints, in the second no state is
    labeled c, so every word ending in c has int mass 0 (and its b is null,
    but the exact source's is not, so b is expanded).  Compared as floats,
    as float mode compares them, the pairs are equal."""
    e, zero, one = Fraction(1, 10**12), Fraction(0), Fraction(1)
    half = Fraction(1, 2)
    exact = FsmSource(
        ABC, ("p", "q", "r"), (zero, one, zero),
        ((half, half, zero), (zero, e, 1 - e), (zero, zero, one)), ("a", "b", "c"),
    )
    ints = FsmSource(
        ABC, ("x", "y", "z"), (0, 1, 0), ((0.5, 0.5, 0), (0, 0, 1), (0, 0, 1)), ("a", "b", "c")
    )
    yield exact, ints
    exact = FsmSource(
        ABC, ("p", "q", "r"), (1 - e, e, zero),
        ((one, zero, zero), (zero, zero, one), (zero, zero, one)), ("a", "b", "c"),
    )
    no_c = FsmSource(ABC, ("x", "y"), (1.0, 0.0), ((1.0, 0.0), (0.0, 1.0)), ("a", "b"))
    yield exact, no_c


def test_float_block_search_matches_stepped_reference():
    """Expanding a whole level on blocks returns the witness of the
    reference that steps one word and symbol at a time, and of the dense
    full search; a pair with an exact source is compared as floats, so the
    references run on the pair with that source floated."""
    for s1, s2, max_len in _float_block_cases():
        f1, f2 = (as_float_source(s) if s.is_exact else s for s in (s1, s2))
        expected = stepped_equivalence_witness(f1, f2, max_len)
        assert equivalence_witness(s1, s2, max_len) == expected
        assert bfs_equivalence_witness(f1, f2, max_len) == expected
    for exact, fl in near_int_pairs():
        assert equivalence_witness(exact, fl) is None
        assert equivalence_witness(as_float_source(exact), fl) is None


def forbidden_run(k: int) -> FsmSource:
    """Uniform i.i.d. symbols over {a, b, c}, except that k b's in a row are
    followed by a or c: the first word on which it differs from the uniform
    coin is b^k a, a child of b^k, which is in the middle of its level."""
    third, half = Fraction(1, 3), Fraction(1, 2)
    zero = Fraction(0)
    states = ("A", "C") + tuple(f"B{i}" for i in range(1, k + 1))
    rows = []
    for i in range(k + 2):
        row = [zero] * (k + 2)
        if i == k + 1:  # B_k
            row[0] = row[1] = half
        else:
            row[0] = row[1] = third
            row[2 if i < 2 else i + 1] = third
        rows.append(tuple(row))
    init = (third, third, third) + (zero,) * (k - 1)
    return FsmSource(ABC, states, init, tuple(rows), ("a", "c") + ("b",) * k)


def uniform_coin() -> FsmSource:
    third = Fraction(1, 3)
    return FsmSource(ABC, ("a", "b", "c"), (third,) * 3, ((third,) * 3,) * 3, ("a", "b", "c"))


@pytest.mark.parametrize(
    "first, second, max_len, budgets",
    [
        # the witness bbba is a child of bbb, the 27th expanded word
        (as_float_source(uniform_coin()), as_float_source(forbidden_run(3)), None, 40),
        # 63 words to depth 6, all of positive mass, then no witness
        (float_stationary_source(12), shifted_source(float_stationary_source(12), 1), 6, 70),
    ],
    ids=["forbidden-run", "dense12"],
)
def test_float_block_search_stops_at_the_reference_budget(
    first, second, max_len, budgets, monkeypatch
):
    """With every budget from 0 up, the level search raises exactly when the
    reference, which counts word by word, does, and otherwise returns its
    result."""
    for budget in range(budgets + 1):
        try:
            expected = stepped_equivalence_witness(first, second, max_len, budget)
        except BudgetExceededError:
            expected = BudgetExceededError
        monkeypatch.setattr(sources, "FLOAT_SEARCH_BUDGET", budget)
        try:
            got = equivalence_witness(first, second, max_len)
        except BudgetExceededError:
            got = BudgetExceededError
        assert got == expected
    assert expected is not BudgetExceededError


def test_float_search_steps_each_level_once_per_source(monkeypatch):
    """The float search makes no one-vector step: each level after the root
    is one `step_block` per source."""
    src = float_stationary_source(12)
    calls = {"step": 0, "step_block": 0}
    step, step_block = SparseMatrix.step, SparseMatrix.step_block

    def counted(self, v, keep=None):
        calls["step"] += 1
        return step(self, v, keep)

    def counted_block(self, cols):
        calls["step_block"] += 1
        return step_block(self, cols)

    shifted = shifted_source(src, 1)
    monkeypatch.setattr(SparseMatrix, "step", counted)
    monkeypatch.setattr(SparseMatrix, "step_block", counted_block)
    assert equivalence_witness(src, shifted, 6) is None
    # levels 1-5 are stepped; the root's children are masked
    assert calls == {"step": 0, "step_block": 2 * 5}
