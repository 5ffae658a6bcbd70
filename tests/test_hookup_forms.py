"""Exact hookups built on integer row forms, against the dense Fraction
construction `oracle.dense_hookup`, by `repr`.

`channels.hookup` builds the joint chain of an exact chain and an exact
kernel with no zero entry from their integer row forms
(`channels._exact_joint`); the joint's dense `trans` and its engine's
Fraction rows are built only when read.  A kernel with a zero entry keeps
no forms, and its hookups are built densely, as the reference is.
Every read must equal the dense construction's, value and type: the integer
forms, column ranks, float engine and graph successors, which are read off
the forms without building a Fraction row, then the init, the engine's rows,
the dense `trans` and `as_float_source`.

Models: random, reducible, periodic, int-row (deterministic, int 1 steps) and
lasso sources (the point masses of `channel_output_measure`), with random,
dense, stationary, copy and transient-copy channels, each possibly given
explicit int 0 and Fraction(0) kernel entries, int 1 rows, entries into one
joint state twice and an int init.  The memo hit, both marginals and the
hookup of a hookup (`classify._triple`) are compared the same way.

The joint init of an exact source init, an exact channel init and a kernel
with no zero entry is built as an integer form too (`channels._joint_init`)
and checked on it.  Its entries must have the types the emitted Fraction
sum gives: an int 1 only for an int 1 source mass times an int 1 channel
mass times a `unit` kernel row, a Fraction elsewhere where mass lands.  The
zero-free pairs draw channel inits over two or more states and int 1 and
Fraction(1) point masses, for the source too, and a memo hit with a new init.
"""

import json
import pathlib
import pickle
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from amschan import channels, linalg, sources
from amschan.battery import (
    AB, ABC, rand_channel, rand_dense_channel, rand_labels, rand_source, rand_stationary_channel,
)
from amschan.channels import (
    FsmChannel, hookup, input_marginal, lift_to_pair_input, output_marginal,
)
from amschan.classify import run_theorem_trial
from amschan.errors import InvariantError
from amschan.gallery import bsc, copy_channel, transient_copy_channel
from amschan.linalg import IntVector, LazyMatrix
from amschan.models import parse_channel
from amschan.oracle import dense_hookup
from amschan.rng import SplitMix64
from amschan.sources import (
    FsmSource, as_float_source, chain_graph, engine, stationary_mean, with_init,
)
from families import counted, int_rows, reducible_chain

F = Fraction
SETTINGS = settings(max_examples=150)


def _lasso(rng: SplitMix64, alphabet) -> FsmSource:
    """A stem + cycle point mass as `channel_output_measure` builds it: int 1
    steps and an int 1 init."""
    word = tuple(rng.choice(alphabet.symbols) for _ in range(1 + rng.randint(4)))
    stem, m = rng.randint(len(word)), len(word)
    trans = tuple(
        tuple(int(j == (p + 1 if p + 1 < m else stem)) for j in range(m)) for p in range(m)
    )
    init = tuple(int(p == 0) for p in range(m))
    return FsmSource(alphabet, tuple(f"t{p}" for p in range(m)), init, trans, word)


def _source(rng: SplitMix64, kind: str, alphabet) -> FsmSource:
    n = 1 + rng.randint(4)
    if kind == "random":
        return rand_source(rng, alphabet, n_states=n, zero_prob=rng.uniform())
    if kind in ("reducible", "periodic"):
        trans, _ = reducible_chain(rng, n + 1, 1 + rng.randint(2), periodic=kind == "periodic")
        labels = rand_labels(rng, alphabet, n + 1)
        return FsmSource(
            alphabet, tuple(f"s{i}" for i in range(n + 1)), rng.rational_row(n + 1, 12, 0.4),
            trans, labels,
        )
    if kind == "int rows":
        src = int_rows(rng, n)
        return FsmSource(alphabet, src.states, src.init, src.trans, src.labels)
    return _lasso(rng, alphabet)


def _with_zeros(rng: SplitMix64, ch: FsmChannel) -> FsmChannel:
    """`ch` with explicit zero entries (int 0 or Fraction(0)) added to some
    kernel rows, some rows turned into one int 1 entry, some entries split
    in two into the same (output, next state), and an int init on one state
    half the time."""
    n, outs = len(ch.states), ch.out_alphabet.symbols
    kernel = {}
    for key, row in ch.kernel.items():
        row = list(row)
        pick = rng.randint(4)
        if pick == 0:
            row = [(rng.choice(outs), rng.randint(n), 1)]
        elif pick == 1:
            b, q2, p = row[0]
            row[0:1] = [(b, q2, p * F(1, 3)), (b, q2, p * F(2, 3))]
        for _ in range(rng.randint(3)):
            zero = 0 if rng.randint(2) else F(0)
            row.insert(rng.randint(len(row) + 1), (rng.choice(outs), rng.randint(n), zero))
        kernel[key] = tuple(row)
    init = ch.init
    if rng.randint(2):
        init = tuple(int(q == 0) for q in range(n))
    return FsmChannel(ch.in_alphabet, ch.out_alphabet, ch.states, init, kernel)


def _channel(rng: SplitMix64, kind: str, alphabet, out) -> FsmChannel:
    n = 1 + rng.randint(3)
    if kind == "random":
        ch = rand_channel(rng, alphabet, out, n_states=n, zero_prob=rng.uniform())
    elif kind == "dense":
        ch = rand_dense_channel(rng, alphabet, out, n_states=n)
    elif kind == "stationary":
        ch = rand_stationary_channel(rng, alphabet, out, n_states=n)
    elif kind == "copy":
        ch = copy_channel(alphabet)
    else:
        ch = transient_copy_channel(alphabet, alphabet.symbols[0])
    return _with_zeros(rng, ch) if rng.randint(2) else ch


SOURCE_KINDS = ("random", "reducible", "periodic", "int rows", "lasso")
CHANNEL_KINDS = ("random", "dense", "stationary", "copy", "transient copy")


@st.composite
def pairs(draw):
    """(source, channel) of one input alphabet."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    alphabet = draw(st.sampled_from((AB, ABC)))
    kind = draw(st.sampled_from(CHANNEL_KINDS))
    out = alphabet if kind in ("copy", "transient copy") else draw(st.sampled_from((AB, ABC)))
    src = _source(rng, draw(st.sampled_from(SOURCE_KINDS)), alphabet)
    return src, _channel(rng, kind, alphabet, out)


def _zero_free(ch: FsmChannel) -> bool:
    """Whether no kernel entry of `ch` is 0, so that `ch` keeps its forms
    and its exact hookups are built on them."""
    return all(p for row in ch.kernel.values() for _, _, p in row)


def assert_matches_dense(got: FsmSource, want: FsmSource, fresh: bool = False) -> None:
    """Every read of `got` equals `want`'s by `repr`.  The reads of the forms
    come first; on a `fresh` exact joint they build no Fraction row."""
    eng, ref = engine(got), engine(want)
    assert repr(eng.ints) == repr(ref.ints)
    assert repr(eng.col_rank) == repr(ref.col_rank) and eng.exact == ref.exact
    n = len(got.states)
    assert [eng.all_int(i) for i in range(n)] == [ref.all_int(i) for i in range(n)]
    assert repr(chain_graph(got).succ) == repr(chain_graph(want).succ)
    assert repr(sources._float_engine(got).rows) == repr(sources._float_engine(want).rows)
    assert got.is_exact == want.is_exact and got._cache["rows"][0] == want._cache["rows"][0]
    if fresh:
        assert "rows" not in vars(eng) and got.trans._rows is None
    assert repr(got.init) == repr(want.init)
    assert got.labels == want.labels and got.states == want.states
    assert repr(eng.rows) == repr(ref.rows)
    assert repr(got.trans) == repr(want.trans)
    assert got == want
    floats = as_float_source(got)
    assert repr(floats.trans) == repr(tuple(tuple(map(float, row)) for row in want.trans))
    assert repr(floats.init) == repr(tuple(map(float, want.init)))


def _point(rng: SplitMix64, n: int) -> tuple:
    """A point mass on a random state, as an int 1 among int 0s, or as
    Fraction(1) among int 0s or Fraction(0)s."""
    k, pick = rng.randint(n), rng.randint(3)
    if pick == 0:
        return tuple(int(i == k) for i in range(n))
    return tuple(F(1) if i == k else 0 if pick == 1 else F(0) for i in range(n))


def _zero_free_channel(rng: SplitMix64, kind: str, alphabet, out) -> FsmChannel:
    """A channel of two or more states with no zero kernel entry, some rows
    turned into one int 1 entry (`unit`), and an init that charges every
    state or is a point mass (`_point`)."""
    n = 2 + rng.randint(2)
    if kind == "random":
        ch = rand_channel(rng, alphabet, out, n_states=n, zero_prob=rng.uniform())
    elif kind == "dense":
        ch = rand_dense_channel(rng, alphabet, out, n_states=n)
    elif kind == "stationary":
        ch = rand_stationary_channel(rng, alphabet, out, n_states=n)
    else:
        ch = transient_copy_channel(alphabet, alphabet.symbols[0])
    m, outs = len(ch.states), ch.out_alphabet.symbols
    kernel = {}
    for key, row in ch.kernel.items():
        row = tuple(entry for entry in row if entry[2])
        if rng.randint(3) == 0:
            row = ((rng.choice(outs), rng.randint(m), 1),)
        kernel[key] = row
    init = rng.rational_row(m, 12) if rng.randint(2) else _point(rng, m)
    return FsmChannel(ch.in_alphabet, ch.out_alphabet, ch.states, init, kernel)


def _zero_free_pair(rng: SplitMix64, alphabet, kind: str, out, source_kind: str):
    """(source, channel, a second init of the source) for `hookup` on forms."""
    src = _source(rng, source_kind, alphabet)
    n = len(src.states)
    if rng.randint(2):
        src = with_init(src, _point(rng, n))
    again = _point(rng, n) if rng.randint(2) else rng.rational_row(n, 12, 0.5)
    return src, _zero_free_channel(rng, kind, alphabet, out), again


ZERO_FREE_KINDS = ("random", "dense", "stationary", "transient copy")


@st.composite
def zero_free_pairs(draw):
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    alphabet = draw(st.sampled_from((AB, ABC)))
    kind = draw(st.sampled_from(ZERO_FREE_KINDS))
    out = alphabet if kind == "transient copy" else draw(st.sampled_from((AB, ABC)))
    return _zero_free_pair(rng, alphabet, kind, out, draw(st.sampled_from(SOURCE_KINDS)))


@SETTINGS
@given(zero_free_pairs())
def test_joint_inits_on_forms_match_the_dense_construction(pair):
    """The joint init built on integer forms, and a memo hit's with a new
    init, equal the emitted Fraction sums by `repr`, and each keeps the
    form `IntVector.of` gives of it."""
    src, ch, init = pair
    first = hookup(src, ch).source
    again = with_init(src, init)
    hit = hookup(again, ch).source
    assert hit.trans is first.trans
    for got, model in ((first, src), (hit, again)):
        want = dense_hookup(model, ch).source
        assert repr(got.init) == repr(want.init)
        form, of = got._init_form, IntVector.of(want.init)
        assert type(form) is IntVector and (form.nums, form.den, form.frac) == (
            of.nums, of.den, of.frac
        )
    assert_matches_dense(hit, dense_hookup(again, ch).source)


def test_exact_hookups_check_no_joint_init_as_a_distribution(monkeypatch):
    """An exact hookup on forms, and its memo hit, check the joint init on
    its integer form alone: no joint init goes through
    `_check_distribution` or `_check_init`, and no Fraction product is
    emitted for it."""
    rng = SplitMix64(11)
    cases = []
    for i in range(24):
        kind = ZERO_FREE_KINDS[i % 4]
        src, ch, init = _zero_free_pair(rng, AB, kind, AB, SOURCE_KINDS[i % 5])
        cases.append((src, ch, with_init(src, init)))
    checked = counted(monkeypatch, sources, "_check_distribution")
    inits = counted(monkeypatch, sources, "_check_init")
    forms = counted(monkeypatch, sources, "_check_form")
    products = counted(monkeypatch, Fraction, "__mul__")
    for src, ch, again in cases:
        hookup(src, ch)
        hookup(again, ch)
    assert checked == [] and inits == [] and products == []
    assert [what for *_, what in forms] == ["init"] * 2 * len(cases)


@SETTINGS
@given(pairs())
def test_exact_hookups_match_the_dense_construction(pair):
    src, ch = pair
    joint = hookup(src, ch).source
    forms = _zero_free(ch)
    assert (type(joint.trans) is LazyMatrix) == forms
    assert_matches_dense(joint, dense_hookup(src, ch).source, fresh=forms)


@SETTINGS
@given(pairs())
def test_a_checked_row_that_holds_an_int_is_one_int_1(pair):
    """The rule the joint rows' one int flag rests on: the nonzero entries
    of a checked exact row (a source's, or a dense joint's), and a kernel
    row with no zero entry, that hold an int are one int 1."""
    src, ch = pair
    for model in (src, dense_hookup(src, ch).source):
        for row in engine(model).rows:
            if any(type(p) is int for _, p in row):
                assert repr([p for _, p in row]) == "[1]"
    for row in ch.kernel.values():
        if all(p for _, _, p in row) and any(type(p) is int for _, _, p in row):
            assert repr([p for _, _, p in row]) == "[1]"


def test_a_kernel_with_a_zero_entry_keeps_no_forms():
    """An int 0 or Fraction(0) kernel entry, as in the committed
    `zero_entry_channel.json`, leaves the channel without forms, and its
    exact hookups take the dense path; without the zero it keeps them, a
    row of one int 1 flagged as a unit."""
    rows = {(0, "a"): (("a", 0, 1),), (0, "b"): (("b", 0, F(1, 2)), ("a", 0, F(1, 2)))}
    ch = FsmChannel(AB, AB, ("q",), (1,), rows)
    assert ch._cache["forms"] == {(0, "a"): (1, (1,), True), (0, "b"): (2, (1, 1), False)}
    src = FsmSource(AB, ("s0", "s1"), (1, 0), ((F(1, 3), F(2, 3)), (0, 1)), ("a", "b"))
    data = pathlib.Path(__file__).parent / "data" / "zero_entry_channel.json"
    zeros = [
        FsmChannel(AB, AB, ("q",), (1,), {**rows, (0, "b"): rows[0, "b"] + (("a", 0, z),)})
        for z in (0, F(0))
    ]
    for zero in zeros + [parse_channel(json.loads(data.read_text()))]:
        assert zero._cache["forms"] is None and channels._joint_kernel(zero) is None
        joint = hookup(src, zero).source
        assert type(joint.trans) is tuple
        assert_matches_dense(joint, dense_hookup(src, zero).source)


@settings(max_examples=60)
@given(pairs(), st.integers(0, 2**32))
def test_a_memo_hit_and_the_marginals_match_the_dense_construction(pair, seed):
    """A second source on the chain shares the joint chain (the memo hit)
    with its own init, here drawn as a Fraction law or an int point mass;
    both marginals share the joint's cache."""
    src, ch = pair
    first = hookup(src, ch)
    rng = SplitMix64(seed)
    n, k = len(src.states), rng.randint(len(src.states))
    init = rng.rational_row(n, 12, 0.5) if rng.randint(2) else tuple(int(s == k) for s in range(n))
    again = with_init(src, init)
    hit = hookup(again, ch)
    assert hit.source.trans is first.source.trans
    assert_matches_dense(hit.source, dense_hookup(again, ch).source)
    ref = dense_hookup(src, ch)
    for marginal in (input_marginal, output_marginal):
        assert_matches_dense(marginal(first), marginal(ref))


@settings(max_examples=40)
@given(pairs(), st.integers(0, 2**32))
def test_a_hookup_of_a_hookup_matches_the_dense_construction(pair, seed):
    """The triple process of the cascade claims, `hookup(hookup(src, c1),
    lift_to_pair_input(c2))`, and a hookup of the first joint's output
    marginal read the first joint's forms, building none of its rows; the
    references are dense twice.  A channel with a zero kernel entry gives
    a dense joint instead, built from the Fraction rows of its source."""
    src, c1 = pair
    rng = SplitMix64(seed)
    c2 = _channel(rng, "random", c1.out_alphabet, AB)
    joint, ref = hookup(src, c1), dense_hookup(src, c1)
    lifted = lift_to_pair_input(c2, src.alphabet)
    triple = hookup(joint.source, lifted).source
    via_marginal = hookup(output_marginal(joint), c2).source
    fresh = _zero_free(c2)
    if fresh and _zero_free(c1):
        assert "rows" not in vars(engine(joint.source)) and joint.source.trans._rows is None
    assert_matches_dense(triple, dense_hookup(ref.source, lifted).source, fresh=fresh)
    assert_matches_dense(
        via_marginal, dense_hookup(output_marginal(ref), c2).source, fresh=fresh
    )


def test_zero_kernel_entries_keep_their_types():
    """A kernel entry 0 where no positive term lands leaves an int 0 in a
    joint row or init only when every term there is an int 1 step or init
    mass times an int entry; a Fraction(0) entry, a Fraction mass or a
    channel init over two states makes it Fraction(0), and a zero that
    shares its joint state with a positive int entry makes that entry a
    Fraction unless the zero is an int.  These kernels keep no forms, so
    their joints are built densely."""
    rows = {
        (0, "a"): (("a", 0, 1), ("b", 1, 0)),
        (0, "b"): (("b", 1, F(0)), ("a", 0, F(1, 2)), ("b", 0, F(1, 2))),
        (1, "a"): (("a", 1, 0), ("a", 1, 1)),
        (1, "b"): (("a", 0, F(0)), ("a", 0, 1)),
    }
    inits = ((1, 0), (F(1), F(0)), (F(1, 2), F(1, 2)), (0, 1))
    points = (
        FsmSource(AB, ("s0", "s1"), (1, 0), ((0, 1), (1, 0)), ("a", "b")),
        FsmSource(AB, ("s0", "s1"), (F(1, 3), F(2, 3)), ((F(1, 4), F(3, 4)), (1, 0)), ("a", "a")),
        FsmSource(AB, ("s0", "s1"), (0, 1), ((F(1), F(0)), (0, 1)), ("b", "a")),
    )
    for init in inits:
        ch = FsmChannel(AB, AB, ("q0", "q1"), init, rows)
        for src in points:
            joint = hookup(src, ch).source
            assert_matches_dense(joint, dense_hookup(src, ch).source, fresh=_zero_free(ch))


def test_a_joint_pickles_as_its_dense_rows():
    """A pickled joint comes back with its dense `trans` as a tuple, still
    the object its cache says was checked, and the same law."""
    rng = SplitMix64(5)
    src, ch = _source(rng, "random", AB), _channel(rng, "dense", AB, AB)
    joint = hookup(src, ch).source
    back = pickle.loads(pickle.dumps(joint))
    assert type(back.trans) is tuple and back._cache["checked"] is back.trans
    assert_matches_dense(back, dense_hookup(src, ch).source)


def test_float_inits_and_float_channels_match_the_dense_construction():
    """An int-row chain with a float init, or a float channel, gives the
    dense construction's joint or its error: the rows of an exact chain and
    kernel are still built on integers, the rest as before."""
    src = int_rows(SplitMix64(2), 5, (0.5, 0.25, 0.25, 0.0, 0.0))
    outcomes = {hookup: [], dense_hookup: []}
    for ch in (copy_channel(), transient_copy_channel(), bsc(F(1, 3)), bsc(0.25)):
        for build, out in outcomes.items():
            try:
                out.append(repr(build(src, ch).source))
            except InvariantError as exc:
                out.append(str(exc))
    assert outcomes[hookup] == outcomes[dense_hookup]
    assert outcomes[hookup][2] == "source mixes Fractions and floats"


def test_stationary_means_of_joints_match_the_dense_construction():
    """A joint's stationary mean shares its chain: the Cesaro limit reads
    the integer forms, and the mean's init is the dense chain's."""
    for seed in range(6):
        rng = SplitMix64(seed)
        src, ch = _source(rng, "reducible", AB), _channel(rng, "random", AB, AB)
        got = stationary_mean(hookup(src, ch).source)
        assert_matches_dense(got, stationary_mean(dense_hookup(src, ch).source))


def test_a_prop10_trial_checks_and_builds_no_joint_row(monkeypatch):
    """The cascade claim prop10 hooks sources to cascades and to lifted
    channels, and hooks joints again: no joint row goes through the dense
    row check, and no joint's Fraction rows or dense `trans` are built."""
    joints, built = [], []
    exact_joint = channels._exact_joint
    rows_func, dense_rows = linalg.FormMatrix.rows.func, LazyMatrix.rows

    def record_joint(*args):
        out = exact_joint(*args)
        joints.append(out[0])
        return out

    def record_rows(self):
        built.append(self)
        return rows_func(self)

    def record_dense(self):
        built.append(self)
        return dense_rows(self)

    monkeypatch.setattr(channels, "_exact_joint", record_joint)
    monkeypatch.setattr(linalg.FormMatrix.rows, "func", record_rows)
    monkeypatch.setattr(LazyMatrix, "rows", record_dense)
    checked = counted(monkeypatch, sources, "_check_distribution")
    for index in range(4):
        run_theorem_trial("prop10", 1, index, 3)
    sizes = {len(trans) for trans in joints}
    assert joints and not built
    # the non-joint sources of these trials have 2 states, the joints 8 or 16
    assert not [v for v, what in checked if what == "transition row" and len(v) in sizes]
