"""Measure equality: the basis-pruned search against the full breadth-first
search of the oracle.

With exact sources `equivalence_witness` expands only words whose stacked
forward vectors are linearly independent; it must still return the witness
of `oracle.bfs_equivalence_witness`, which extends every positive word with
dense products.  Float sources run the full search, so they must match the
oracle too.  Pairs cover 2-3 symbols and 2-6 states with sparse and dense
rows: differing pairs, a source against its shift, a stationary mean against
its shift, a split-state presentation of the same measure, and one whose
split copy has a new row, which differs late or not at all.  A deterministic
path put in front of both sources delays every witness.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amschan import cli
from amschan.battery import ABC, AB, rand_ergodic_stationary_source, rand_source
from amschan.errors import BudgetExceededError
from amschan.linalg import SparseMatrix
from amschan.models import parse_model, source_to_json
from amschan.oracle import bfs_equivalence_witness
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


@st.composite
def pairs(draw):
    """(s1, s2, max_len).  Pairs that may be equal and are searched to the
    full |S1|+|S2| bound keep to 2-3 states and no delay, since the oracle
    walks |A|^(|S1|+|S2|) words."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    alphabet = draw(st.sampled_from((AB, ABC)))
    kind = draw(st.sampled_from(("differ", "shift", "stationary-shift", "split", "late")))
    max_len = draw(st.sampled_from((None, 1, 2, 3, 4, 5)))
    float_mode = draw(st.booleans())
    full_equal = max_len is None and kind in ("stationary-shift", "split", "late")
    n = draw(st.integers(2, 3 if full_equal or float_mode else 6))
    zero_prob = draw(st.sampled_from((0.0, 0.3, 0.6)))
    s1 = rand_source(rng, alphabet, n_states=n, zero_prob=zero_prob)
    if kind == "differ":
        s2 = rand_source(rng, alphabet, n_states=draw(st.integers(2, 6)), zero_prob=zero_prob)
    elif kind == "shift":
        s2 = shifted_source(s1, 1)
    elif kind == "stationary-shift":
        s1 = stationary_mean(s1)
        s2 = shifted_source(s1, 1)
    else:
        s2 = split_state(s1, rng.randint(n), Fraction(1 + rng.randint(11), 12))
        if kind == "late":
            s2 = with_row(s2, n, rng.rational_row(n + 1, 12, zero_prob))
    if not full_equal:
        path = draw(st.lists(st.sampled_from(tuple(alphabet)), max_size=3))
        if path:
            s1, s2 = delayed(s1, path), delayed(s2, path)
    if float_mode:
        s1, s2 = (parse_model(source_to_json(s), float_mode=True) for s in (s1, s2))
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


def test_is_exact_checks_init_and_trans():
    # ints go with either scalar kind, so floats in the init or in the rows
    # alone make a float source
    src = FsmSource(AB, ("s0", "s1"), (Fraction(1, 2),) * 2, ((0, 1), (1, 0)), ("a", "b"))
    assert src.is_exact
    floated = with_init(src, (0.5, 0.5))
    assert not floated.is_exact
    assert src.is_exact
    float_trans = ((0.0, 1.0), (1.0, 0.0))
    assert not FsmSource(AB, src.states, (1, 0), float_trans, src.labels).is_exact
