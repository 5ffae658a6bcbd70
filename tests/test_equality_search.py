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

Two exact laws on one chain with equal inits are equal without a search;
the search must still return the oracle's witness on pairs of one chain,
a source against its shifts and two inits of one chain (two sources side
by side on one block-diagonal chain among them), the second often a JSON
copy, whose rows are equal but distinct objects.  Counting pins check that
equal inits skip the basis and that pairs on different chains keep the
stacked one.
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
from amschan.linalg import RowBasis, SparseMatrix
from amschan.models import channel_to_json, parse_model, source_to_json
from amschan.oracle import bfs_equivalence_witness, stepped_equivalence_witness
from amschan.rng import SplitMix64
from amschan.sources import (
    FsmSource,
    as_float_source,
    engine,
    equivalence_witness,
    is_stationary,
    shifted_source,
    stationary_mean,
    with_init,
)
from families import counted, float_split_copy, float_stationary_source, floated, split_state

SETTINGS = settings(max_examples=150)


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
    """Each non-root word the search expands is stepped once per chain and
    masked for each symbol, and at most |S1|+|S2| non-root words are
    independent."""
    src = rand_ergodic_stationary_source(SplitMix64(20), ABC, n_states=20)
    steps = counted(monkeypatch, SparseMatrix, "step")
    assert is_stationary(src)
    # the exact search steps through SparseMatrix.step, so the pin counts it
    assert 0 < len(steps) <= 2 * (2 * len(src.states))


# ---------------------------------------------------------------------------
# two laws on one chain
# ---------------------------------------------------------------------------


def side_by_side(a: FsmSource, b: FsmSource) -> tuple[FsmSource, FsmSource]:
    """The laws of `a` and `b` as two inits of one block-diagonal chain."""
    zero = Fraction(0)
    na, nb = len(a.states), len(b.states)
    trans = tuple(tuple(r) + (zero,) * nb for r in a.trans)
    trans += tuple((zero,) * na + tuple(r) for r in b.trans)
    states = tuple(f"s{i}" for i in range(na + nb))
    both = FsmSource(a.alphabet, states, tuple(a.init) + (zero,) * nb, trans, a.labels + b.labels)
    return both, with_init(both, (zero,) * na + tuple(b.init))


def json_copy(src: FsmSource) -> FsmSource:
    return parse_model(json.loads(json.dumps(source_to_json(src))))


def one_label_starts(src: FsmSource) -> tuple[FsmSource, FsmSource]:
    """`src` with states 0 and 1 relabeled alike, started on each of them:
    the two laws agree on every word of length 1."""
    n = len(src.states)
    labels = src.labels[:1] * 2 + src.labels[2:]
    return tuple(
        FsmSource(src.alphabet, src.states, tuple(Fraction(int(h == k)) for h in range(n)),
                  src.trans, labels)
        for k in (0, 1)
    )


SAME_CHAIN_KINDS = ("shift1", "shift2", "inits", "one-label", "side-by-side", "copy")


@st.composite
def same_chain_pairs(draw):
    """(s1, s2, max_len) of two exact laws on one chain of 2-6 states, 3 at
    least for "one-label" (with 2, its chain spells one word per length),
    the second a JSON copy half of the time; "copy" pairs have the same
    init.  A full-bound search keeps to 2-3 states, since the oracle walks
    |A|^(2n) words; a bounded "side-by-side" pair may put one path of 1-2
    symbols in front of both sources, which delays the witness."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    alphabet = draw(st.sampled_from((AB, ABC)))
    kind = draw(st.sampled_from(SAME_CHAIN_KINDS))
    max_len = draw(st.sampled_from((None, 0, 1, 2, 3)))
    n = draw(st.integers(3 if kind == "one-label" else 2, 3 if max_len is None else 6))
    zero_prob = draw(st.sampled_from((0.0, 0.3, 0.6)))
    if kind == "side-by-side":
        k = draw(st.integers(1, n - 1))
        a = rand_source(rng, alphabet, n_states=k, zero_prob=zero_prob)
        b = rand_source(rng, alphabet, n_states=n - k, zero_prob=zero_prob)
        if max_len is not None:
            path = tuple(draw(st.lists(st.sampled_from(tuple(alphabet)), max_size=2)))
            if path:
                a, b = delayed(a, path), delayed(b, path)
        s1, s2 = side_by_side(a, b)
    else:
        s1 = rand_source(rng, alphabet, n_states=n, zero_prob=zero_prob)
        if kind == "inits":
            s2 = with_init(s1, rng.rational_row(n, 12, zero_prob))
        elif kind == "one-label":
            s1, s2 = one_label_starts(s1)
        elif kind == "copy":
            s2 = s1
        else:
            s2 = shifted_source(s1, int(kind[-1]))
    if draw(st.booleans()):
        s2 = json_copy(s2)
    return s1, s2, max_len


@SETTINGS
@given(same_chain_pairs())
def test_same_chain_pairs_match_full_search(pair):
    s1, s2, max_len = pair
    assert equivalence_witness(s1, s2, max_len) == bfs_equivalence_witness(s1, s2, max_len)


def test_chains_with_one_labeling_and_other_rows_keep_the_pair_search():
    """Same labels and init on two chains whose rows differ: one row moved
    to other columns keeps its integer form, and random rows do not.  The
    same rows and init under other labels are another law too."""
    half, zero = Fraction(1, 2), Fraction(0)
    src = FsmSource(
        ABC, ("x", "y", "z"), (Fraction(1), zero, zero),
        ((zero, half, half), (half, zero, half), (half, half, zero)), ("a", "b", "c"),
    )
    moved = with_row(src, 0, (half, half, zero))
    assert engine(src).ints == engine(moved).ints
    assert equivalence_witness(src, moved) == bfs_equivalence_witness(src, moved) == ("a", "a")
    relabeled = FsmSource(src.alphabet, src.states, src.init, src.trans, ("b", "a", "c"))
    assert equivalence_witness(src, relabeled) == ("a",)
    for seed in range(10):
        s1 = rand_source(SplitMix64(seed), AB, n_states=3, zero_prob=0.3)
        s2 = with_row(s1, seed % 3, SplitMix64(seed + 50).rational_row(3, 12, 0.3))
        assert equivalence_witness(s1, s2) == bfs_equivalence_witness(s1, s2)


class _Counts:
    """Counts `SparseMatrix.step` calls and records the width and result of
    every `RowBasis.add_ints` call."""

    def __init__(self, monkeypatch):
        self.steps, self.adds = 0, []
        step, add_ints = SparseMatrix.step, RowBasis.add_ints

        def counted_step(matrix, v):
            self.steps += 1
            return step(matrix, v)

        def counted_add(basis, w):
            self.adds.append((len(w), add_ints(basis, w)))
            return self.adds[-1][1]

        monkeypatch.setattr(SparseMatrix, "step", counted_step)
        monkeypatch.setattr(RowBasis, "add_ints", counted_add)

    @property
    def expanded(self) -> int:
        return sum(kept for _, kept in self.adds)


def test_stationary_mean_equals_its_shift_without_a_search(monkeypatch):
    """A 64-state stationary mean and its shift have the same init, so the
    search returns before its basis: the one step is the shift's."""
    mean = stationary_mean(rand_source(SplitMix64(7), ABC, 64, zero_prob=0.9, cover=True))
    counts = _Counts(monkeypatch)
    assert is_stationary(mean)
    assert counts.steps == 1 and counts.adds == []


def test_pair_search_on_two_chains_steps_once_per_chain_and_word(monkeypatch):
    """A stationary source against a split-state presentation of it: the
    stacked basis is |S1|+|S2| wide, it keeps at most |S1|+|S2| words, and
    each is stepped once on each chain."""
    src = rand_ergodic_stationary_source(SplitMix64(20), ABC, n_states=8)
    split = split_state(src, 3, Fraction(5, 12))
    width = len(src.states) + len(split.states)
    counts = _Counts(monkeypatch)
    assert equivalence_witness(src, split) is None
    assert {w for w, _ in counts.adds} == {width}
    assert 0 < counts.expanded <= width and counts.steps == 2 * counts.expanded


def test_float_search_stops_at_its_budget():
    with pytest.raises(BudgetExceededError):
        equivalence_witness(float_stationary_source(12), float_split_copy(12))


def test_cli_exits_4_when_float_search_exceeds_budget(tmp_path, capsys):
    path = tmp_path / "dense12.json"
    path.write_text(json.dumps(source_to_json(float_split_copy(12, Fraction(1, 2)))))
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


def test_float_search_matches_stepped_reference():
    """The float search returns the witness of the reference that steps
    one word and symbol at a time, and of the dense full search; a pair
    with an exact source is compared as floats, so the references run on
    the pair with that source floated."""
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
        (float_stationary_source(12), float_split_copy(12), 6, 70),
    ],
    ids=["forbidden-run", "dense12"],
)
def test_float_search_stops_at_the_reference_budget(
    first, second, max_len, budgets, monkeypatch
):
    """With every budget from 0 up, the float search raises exactly when the
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
    """The float search steps word by word: each expanded word but the root,
    whose children are only masked, is one `step` per source.  Every word
    of the 12-state split pair has positive mass, so the 1 + 2 + ... + 2**5
    words shorter than 6 are expanded."""
    src, split = float_stationary_source(12), float_split_copy(12)
    steps = counted(monkeypatch, SparseMatrix, "step")
    assert equivalence_witness(src, split, 6) is None
    assert len(steps) == 2 * sum(len(src.alphabet) ** k for k in range(1, 6))
