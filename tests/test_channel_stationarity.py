"""Channel stationarity: the basis search against the full enumeration of
the oracle.

With an exact channel `channel_stationarity_witness` checks the kernel shift
identity on pair words breadth first and expands only words whose stacked
vectors are linearly independent; it must still return the canonically
first (w, v) of `oracle.enum_channel_stationarity_witness`, which checks
every pair.  Float channels enumerate, so they must match the oracle too.
Random channels almost always fail at m = 1, so a counter family that acts
on the input only at its last phase moves the first violation deeper.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amschan import cli
from amschan.battery import (
    ABC,
    AB,
    rand_channel,
    rand_dense_channel,
    rand_markov_channel,
    rand_stationary_channel,
)
from amschan.channels import FsmChannel
from amschan.classify import channel_stationarity_witness, is_channel_stationary
from amschan.errors import BudgetExceededError
from amschan.gallery import bsc, copy_channel, transient_copy_channel
from amschan.linalg import SparseMatrix
from amschan.models import channel_to_json, parse_model
from amschan.oracle import enum_channel_stationarity_witness
from amschan.rng import SplitMix64

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def counter_channel(rng, k: int, in_alphabet=AB, random_init: bool = False) -> FsmChannel:
    """Counts inputs mod k.  Phases 0..k-2 emit one common law whatever the
    input; phase k-1 emits a law of the input, a point mass on "a" for the
    first symbol.  Started at phase 0 the identity holds for m < k - 1 and
    fails first at m = k - 1; a random initial phase law moves that."""
    common = rng.rational_row(len(AB), 12)
    kernel = {}
    for q in range(k):
        for i, a in enumerate(in_alphabet):
            if q < k - 1:
                law = common
            elif i == 0:
                law = (Fraction(1), Fraction(0))
            else:
                law = rng.rational_row(len(AB), 12, zero_prob=0.3)
            kernel[(q, a)] = tuple((b, (q + 1) % k, p) for b, p in zip(AB, law) if p)
    init = rng.rational_row(k, 12) if random_init else (Fraction(1),) + (Fraction(0),) * (k - 1)
    return FsmChannel(in_alphabet, AB, tuple(f"t{q}" for q in range(k)), init, kernel)


def floated(ch: FsmChannel) -> FsmChannel:
    return parse_model(channel_to_json(ch), float_mode=True)


@st.composite
def channels(draw):
    """(channel, depth): 2-3 input symbols into {a, b}, 1-4 states, exact or
    float, depth 1-5 (1-4 with three input symbols, where the oracle's
    enumeration of a stationary channel at depth 5 takes seconds)."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    alphabet = draw(st.sampled_from((AB, ABC)))
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("random", "dense", "stationary", "markov", "counter")))
    if kind == "random":
        ch = rand_channel(rng, alphabet, AB, n_states=n, zero_prob=draw(st.sampled_from((0.3, 0.6))))
    elif kind == "dense":
        ch = rand_dense_channel(rng, alphabet, AB, n_states=n)
    elif kind == "stationary":
        ch = rand_stationary_channel(rng, alphabet, AB, n_states=n)
    elif kind == "markov":
        ch = rand_markov_channel(rng, alphabet, AB, n_states=n)
    else:
        ch = counter_channel(rng, n, alphabet, random_init=draw(st.booleans()))
    if draw(st.booleans()):
        ch = floated(ch)
    return ch, draw(st.integers(1, 5 if alphabet == AB else 4))


@SETTINGS
@given(channels())
@pytest.mark.filterwarnings("ignore:.*renormalized")
def test_witness_matches_full_enumeration(case):
    ch, depth = case
    expected = enum_channel_stationarity_witness(ch, depth)
    assert channel_stationarity_witness(ch, depth) == expected
    verdict = is_channel_stationary(ch, depth)
    assert (verdict.holds, verdict.depth, verdict.witness) == (expected is None, depth, expected)
    bound = (len(ch.in_alphabet) + 1) * len(ch.states) - 1
    if bound <= 5:
        # with no length bound the search is complete: it agrees with the
        # enumeration up to the longest word the basis argument needs
        assert channel_stationarity_witness(ch) == enum_channel_stationarity_witness(ch, bound)


@pytest.mark.filterwarnings("ignore:.*renormalized")
def test_counter_channels_fail_first_at_their_last_phase():
    for k in (2, 3, 4, 5):
        for seed in range(4):
            ch = counter_channel(SplitMix64(seed), k, ABC if seed % 2 else AB)
            expected = enum_channel_stationarity_witness(ch, 5)
            assert len(expected[1]) == k - 1
            assert channel_stationarity_witness(ch, 5) == expected
            assert channel_stationarity_witness(ch) == expected
            assert channel_stationarity_witness(floated(ch), 5) == expected
            assert channel_stationarity_witness(ch, k - 2) is None
            assert channel_stationarity_witness(ch, -1) is None  # no level to check


def test_pruning_ranks_late_and_current_vectors_together():
    """An input-blind channel whose output law from its initial state is a
    fair coin except that v3 copies v1 after v2 = b; its one-step shift is a
    fair coin.  The late vectors alpha K_a M_u alone reach their rank 3 by
    length 1, so a search ranking them alone would expand no word of length
    2; the current vectors alpha M_u keep it going to the failure at m = 3."""
    half, one = Fraction(1, 2), Fraction(1)
    # states: 0 start, 1 / 2 remember v1 = a / b, 3 fair coin, 4 / 5 emit a / b
    moves = {
        0: (("a", 1, half), ("b", 2, half)),
        1: (("a", 3, half), ("b", 4, half)),
        2: (("a", 3, half), ("b", 5, half)),
        3: (("a", 3, half), ("b", 3, half)),
        4: (("a", 3, one),),
        5: (("b", 3, one),),
    }
    kernel = {(q, a): entries for q, entries in moves.items() for a in AB}
    init = (one,) + (Fraction(0),) * 5
    ch = FsmChannel(AB, AB, tuple(f"q{q}" for q in range(6)), init, kernel)
    expected = (("a",) * 4, ("a", "b", "a"))
    assert enum_channel_stationarity_witness(ch, 3) == expected
    assert channel_stationarity_witness(ch, 3) == expected
    assert channel_stationarity_witness(ch) == expected
    assert channel_stationarity_witness(ch, 2) is None


def test_complete_verdicts_without_a_bound():
    assert channel_stationarity_witness(bsc(Fraction(1, 10))) is None
    assert channel_stationarity_witness(copy_channel(ABC)) is None
    # the first output is "a" whatever the input, the second copies "b"
    assert channel_stationarity_witness(transient_copy_channel()) == (("a", "b"), ("a",))


def test_dense_stationary_channel_visits_a_bounded_number_of_words(monkeypatch):
    """Each visited word but the root steps its |A_in| + 1 blocks once, and
    only the at most (|A_in| + 1) * n independent words have children."""
    ch = rand_stationary_channel(SplitMix64(8), AB, AB, n_states=3)
    a_in, a_out, n = len(ch.in_alphabet), len(ch.out_alphabet), len(ch.states)
    calls = 0
    step = SparseMatrix.step

    def counted(self, v, keep=None):
        nonlocal calls
        calls += 1
        return step(self, v, keep)

    monkeypatch.setattr(SparseMatrix, "step", counted)
    assert is_channel_stationary(ch, 8).holds
    root_steps = a_in * a_out
    visited = 1 + (calls - root_steps) // (a_in + 1)
    assert visited <= 1 + (a_in + 1) * n * a_in * a_out


def test_float_channels_stop_at_the_budget():
    ch = floated(bsc(Fraction(1, 10)))
    assert channel_stationarity_witness(ch, 4) is None  # 682 pairs
    with pytest.raises(BudgetExceededError):
        channel_stationarity_witness(ch, 8)


def test_cli_exits_4_when_float_channel_search_exceeds_budget(tmp_path, capsys):
    path = tmp_path / "bsc.json"
    path.write_text(json.dumps(channel_to_json(bsc(Fraction(1, 10)))))
    argv = ["classify", "--channel", str(path), "--float", "--depth", "8"]
    assert cli.main(argv) == cli.EXIT_BUDGET
    assert "float channel stationarity search" in capsys.readouterr().err
