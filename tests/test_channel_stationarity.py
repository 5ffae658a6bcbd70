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

from amschan import classify, cli
from amschan.battery import (
    ABC,
    AB,
    rand_channel,
    rand_dense_channel,
    rand_markov_channel,
    rand_stationary_channel,
)
from amschan.channels import FsmChannel, channel_cyl_prob
from amschan.classify import channel_stationarity_witness, is_channel_stationary
from amschan.errors import BudgetExceededError
from amschan.gallery import bsc, copy_channel, transient_copy_channel
from amschan.linalg import SparseMatrix
from amschan.models import channel_to_json
from amschan.oracle import enum_channel_stationarity_witness, stepped_channel_stationarity_witness
from amschan.rng import SplitMix64
from amschan.seqcore import Alphabet
from families import counted, floated, split_bsc, split_states

SETTINGS = settings(max_examples=120)
ABCD = Alphabet(("a", "b", "c", "d"))


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


def with_int_rows(ch: FsmChannel, rng) -> FsmChannel:
    """`ch` in float mode with a point-mass int init and about a third of its
    kernel rows replaced by one int entry of probability 1, so that some
    forward vectors hold ints only."""
    ch, n = floated(ch), len(ch.states)
    kernel = {
        key: ((rng.choice(ch.out_alphabet.symbols), rng.randint(n), 1),) if rng.randint(3) == 0 else row
        for key, row in ch.kernel.items()
    }
    init = (1,) + (0,) * (n - 1)
    return FsmChannel(ch.in_alphabet, ch.out_alphabet, ch.states, init, kernel)


def delayed_a_channel(k: int, out_alphabet: Alphabet = AB) -> FsmChannel:
    """k >= 3 states emitting a fair die over `out_alphabet`, except that a
    first input b starts a path of k - 3 more throws that then emits "a" for
    sure.  The identity fails first at m = k - 2, with w[0] = b, after every
    w beginning with a."""
    one = Fraction(1)
    coin = k - 1

    def throw(q):
        return tuple((b, q, Fraction(1, len(out_alphabet))) for b in out_alphabet)

    kernel = {}
    for a in AB:
        nxt = 1 if a == "b" else coin
        kernel[(0, a)] = throw(nxt)
        for q in range(1, k - 2):
            kernel[(q, a)] = throw(q + 1)
        kernel[(k - 2, a)] = (("a", coin, one),)
        kernel[(coin, a)] = throw(coin)
    init = (one,) + (Fraction(0),) * (k - 1)
    return FsmChannel(AB, out_alphabet, tuple(f"q{q}" for q in range(k)), init, kernel)


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
    only the at most (|A_in| + 1) * n independent words have children.  The
    channel is stationary but alpha K_a is not alpha, so it is searched."""
    ch = split_states(rand_stationary_channel(SplitMix64(8), AB, AB, n_states=3))
    a_in, a_out, n = len(ch.in_alphabet), len(ch.out_alphabet), len(ch.states)
    steps = counted(monkeypatch, SparseMatrix, "step")
    assert is_channel_stationary(ch, 8).holds
    root_steps = a_in * a_out
    # the exact search steps through SparseMatrix.step, so the pin counts it
    assert len(steps) > root_steps
    visited = 1 + (len(steps) - root_steps) // (a_in + 1)
    assert visited <= 1 + (a_in + 1) * n * a_in * a_out


def test_float_enumeration_steps_each_pair_word_once(monkeypatch):
    """The float search reads each pair word's mass off `kernel_walk`, so
    enumerating depth 4 over 2 x 2 symbols steps each of the
    4 + 16 + ... + 4**5 pair words of length 1 to 5 once.  The split bsc is
    enumerated; the norm bound, which would decide the bsc itself, steps no
    vector."""
    ch = split_bsc()
    steps = counted(monkeypatch, SparseMatrix, "step")
    assert channel_stationarity_witness(ch, 4) is None
    assert len(steps) == sum(4**k for k in range(1, 6))


def test_float_channels_stop_at_the_budget():
    ch = split_bsc()
    assert channel_stationarity_witness(ch, 4) is None  # 682 pairs
    with pytest.raises(BudgetExceededError):
        channel_stationarity_witness(ch, 8)


def test_cli_exits_4_when_float_channel_search_exceeds_budget(tmp_path, capsys):
    path = tmp_path / "split-bsc.json"
    path.write_text(json.dumps(channel_to_json(split_bsc())))
    argv = ["classify", "--channel", str(path), "--float", "--depth", "8"]
    assert cli.main(argv) == cli.EXIT_BUDGET
    assert "float channel stationarity search" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the pair walk against the vector-at-a-time reference
# ---------------------------------------------------------------------------


def _block_cases():
    """(channel, depth): seeded exact channels of five kinds with 1-4 states
    (counters 2-5) and {a, b} or {a, b, c} inputs into {a, b}, at depths 0-5
    (0-4 with three inputs), and of four kinds with 1-3 states from two
    inputs into three or four outputs at depths 2-3 and from three inputs
    into four at depths 1-2, each also in float mode and with int rows and
    an int init, and the delayed-a channel."""
    kinds = (rand_channel, rand_dense_channel, rand_stationary_channel, rand_markov_channel)
    for seed in range(40):
        rng = SplitMix64(seed)
        alphabet = (AB, ABC)[seed % 2]
        n = 1 + seed // 2 % 4
        kind = seed // 8 % 5
        if kind < 4:
            ch = kinds[kind](rng, alphabet, AB, n_states=n)
        else:
            ch = counter_channel(rng, n + 1, alphabet, random_init=seed % 3 == 0)
        depth = seed // 3 % (6 if alphabet == AB else 5)
        for case in (ch, floated(ch), with_int_rows(ch, rng)):
            yield case, depth
    for seed in range(24):
        rng = SplitMix64(100 + seed)
        in_alphabet, out_alphabet = ((AB, ABC), (ABC, ABCD), (AB, ABCD))[seed % 3]
        ch = kinds[seed // 3 % 4](rng, in_alphabet, out_alphabet, n_states=1 + seed % 4 % 3)
        for case in (ch, floated(ch), with_int_rows(ch, rng)):
            yield case, (3 if in_alphabet == AB else 2) - seed // 3 % 2
    yield delayed_a_channel(5), 4
    yield floated(delayed_a_channel(5)), 4


def test_pair_walk_matches_stepped_reference():
    """Exact channels, float ones, and float ones with int rows and an int
    init return the witness of the reference, which steps one vector at a
    time: a float channel walks every level, an exact one its failing
    level."""
    for ch, depth in _block_cases():
        expected = stepped_channel_stationarity_witness(ch, range(depth + 1))
        assert channel_stationarity_witness(ch, depth) == expected


def test_exact_failing_level_is_walked_without_blocks():
    """An exact channel finds the witness on its failing level with one
    exact step per pair word: a counter channel over {a, b, c} fails first
    at its last phase, m = 4."""
    ch = counter_channel(SplitMix64(1), 5, ABC)
    expected = enum_channel_stationarity_witness(ch, 5)
    assert len(expected[1]) == 4
    assert channel_stationarity_witness(ch, 5) == expected


def test_kernel_steps_are_built_once_per_channel(monkeypatch):
    """A channel builds its kernel steps, one SparseMatrix per (a, b), on
    first use and keeps them: an exact channel that fails at m = 4 reads
    them in its basis search, in `kernel_walk` on its failing level and in
    `channel_cyl_prob`, and a float channel in its pair walk and in
    `channel_cyl_prob`."""
    builds = []

    class Counted(SparseMatrix):
        def __init__(self, *args, **kwargs):
            builds.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("amschan.channels.SparseMatrix", Counted)
    for ch in (counter_channel(SplitMix64(1), 5, ABC), floated(delayed_a_channel(5))):
        before = len(builds)
        w, v = channel_stationarity_witness(ch, 5)
        assert len(v) >= 1
        channel_cyl_prob(ch, w, v)
        assert len(builds) - before == len(ch.in_alphabet) * len(ch.out_alphabet)


@pytest.mark.parametrize(
    "ch",
    [split_bsc(), floated(delayed_a_channel(6)), floated(delayed_a_channel(4, ABC))],
)
def test_pair_walk_stops_at_the_reference_budget(ch, monkeypatch):
    """With every budget from 0 to 700 pairs the float search raises exactly
    when the reference, which counts pair by pair, does, and otherwise
    returns its result: the split bsc checks 682 pairs to depth 4 and finds
    nothing,
    the delayed-a channel fails at its 427th pair, and with three outputs
    at its 51st, the first pair of w = (b, a, a)."""
    for budget in range(701):
        try:
            expected = stepped_channel_stationarity_witness(ch, range(5), budget)
        except BudgetExceededError:
            expected = BudgetExceededError
        monkeypatch.setattr(classify, "FLOAT_SEARCH_BUDGET", budget)
        try:
            got = channel_stationarity_witness(ch, 4)
        except BudgetExceededError:
            got = BudgetExceededError
        assert got == expected
