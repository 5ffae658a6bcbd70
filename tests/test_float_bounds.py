"""The norm bounds that decide float stationarity on one chain.

Two float laws on one chain differ on a word w by |(x - y) M_w 1|, at most
||x - y||_1, since every M_w is substochastic; a channel's shift identity on
a first symbol a differs by |(alpha K_a - alpha) M_u 1|, at most
||alpha K_a - alpha||_1.  When the norm lies within EPS - slack, where the
slack bounds the rounding of the float forward pass, every comparison of
the full float search passes, so the bound's None must be the search's
answer wherever the search completes.  The cases put the norm on both
sides of EPS - slack.  Exact sources keep their exact decision: an init
equal to its step returns None, and any other source is searched against
its shift.  Every check that needs a stationary source reads one gate,
the measure-level test plus, in float mode, no failing support pair of
any length, so a float law that equals its shift entry by entry but not
as a law is rejected by all of them, and the gate's answer does not
depend on the depth a check is asked at.
"""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import amschan
from amschan.battery import ABC, AB, rand_source, rand_stationary_channel
from amschan.channels import FsmChannel, nu_partial_mean_tables, quasi_stationary_mean
from amschan.classify import (
    _kernel_within_float_bound,
    channel_stationarity_witness,
    classify_channel,
    is_quasi_stationary_wrt,
)
from amschan.errors import BudgetExceededError, PreconditionError
from amschan.gallery import copy_channel
from amschan.models import channel_to_json, parse_model, source_to_json
from amschan.oracle import stepped_channel_stationarity_witness, stepped_equivalence_witness
from amschan.rng import SplitMix64
from amschan.scalars import EPS
from amschan import sources
from amschan.sources import (
    FsmSource,
    _forward_slack,
    _stationary_input,
    _within_float_bound,
    as_float_source,
    asymptotically_dominates,
    classify_source,
    engine,
    equivalence_witness,
    shifted_source,
    stationarity_witness,
    stationary_mean,
    with_init,
)
from families import floated

SETTINGS = settings(max_examples=150)
#: multiples of EPS - slack at which the cases put the norm
FACTORS = (0.0, 0.5, 0.999, 1.001, 1.5, 2.5, 8.0)


def amschan_cli(*args):
    """`python -m amschan *args` on this checkout's package."""
    src_root = str(pathlib.Path(amschan.__file__).resolve().parent.parent)
    paths = [src_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    cmd = [sys.executable, "-m", "amschan", *args]
    return subprocess.run(cmd, capture_output=True, env=env, timeout=60)


def assert_cli_rejects(ch_path, src_path, *flags):
    """In float mode `classify` rejects the quasi-stationarity check (exit 0)
    and `qsmean` exits 3."""
    files = ["--channel", str(ch_path), "--source", str(src_path)]
    run = amschan_cli("classify", "--float", *flags, *files)
    assert run.returncode == 0, run.stderr
    assert b"quasi-stationary=rejected" in run.stdout
    run = amschan_cli("qsmean", "--float", *flags, *files)
    assert run.returncode == 3, run.stderr


def completed(search):
    """The search's result, or BudgetExceededError if it stopped."""
    try:
        return search()
    except BudgetExceededError:
        return BudgetExceededError


# ---------------------------------------------------------------------------
# the inputs that exceeded the float budget before the bounds
# ---------------------------------------------------------------------------


def test_cli_classifies_the_8_state_float_stationary_mean(tmp_path):
    mean = stationary_mean(rand_source(SplitMix64(20), AB, 8, zero_prob=0.6))
    path = tmp_path / "mean8.json"
    path.write_text(json.dumps(source_to_json(mean)))
    run = amschan_cli("classify", "--source", str(path), "--float")
    assert run.returncode == 0, run.stderr
    assert stationarity_witness(floated(mean)) is None


def test_float_stationary_channels_are_decided_without_a_search():
    for n in (3, 4):
        for seed in range(10):
            ch = floated(rand_stationary_channel(SplitMix64(seed), AB, AB, n_states=n))
            assert channel_stationarity_witness(ch) is None


# ---------------------------------------------------------------------------
# the bounds against the full float searches
# ---------------------------------------------------------------------------


def test_slack_is_finite_within_reach_and_grows():
    slack = _forward_slack(4, 8, 1.0, 2.0)
    assert 0 < slack < 1e-12
    assert _forward_slack(4, 16, 1.0, 2.0) > slack < _forward_slack(8, 8, 1.0, 2.0)
    # rows summing to more than 1 grow the masses, up to the reach of the bound
    assert _forward_slack(4, 8, 1 + 1e-12, 2.0) > slack
    assert _forward_slack(4, 10**7, 1 + 1e-6, 2.0) == float("inf")
    assert _forward_slack(4, 10**12, 1.0, 2.0) == float("inf")


def perturbed(init, i: int, size: float):
    """`init` with `size` moved onto entry i from its largest entry."""
    j = max(range(len(init)), key=lambda k: init[k])
    out = list(init)
    out[i] += size
    out[j] -= size
    return tuple(out)


@st.composite
def source_pairs(draw):
    """(s1, s2, max_len, factor): a floated stationary mean of 2-4 states
    and the same chain from its init with mass moved between two states so
    that ||init1 - init2||_1 is about factor * (EPS - slack)."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    alphabet = draw(st.sampled_from((AB, ABC)))
    n = draw(st.integers(2, 4))
    zero_prob = draw(st.sampled_from((0.0, 0.3)))
    src = floated(stationary_mean(rand_source(rng, alphabet, n_states=n, zero_prob=zero_prob)))
    max_len = draw(st.sampled_from((None, 0, 1, 2, 3)))
    factor = draw(st.sampled_from(FACTORS))
    i = draw(st.integers(0, n - 1))
    assume(i != max(range(n), key=lambda k: src.init[k]))
    bound = max_len if max_len is not None else 2 * n
    target = EPS - _forward_slack(n, bound, 1.0, 2.0)
    return src, with_init(src, perturbed(src.init, i, factor * target / 2)), max_len, factor


@SETTINGS
@given(source_pairs())
def test_source_bound_agrees_with_the_full_search(case):
    s1, s2, max_len, factor = case
    bound = max_len if max_len is not None else 2 * len(s1.states)
    decided = _within_float_bound(engine(s1), s1.init, s2.init, bound)
    assert decided == (factor < 1)
    expected = completed(lambda: stepped_equivalence_witness(s1, s2, max_len))
    if decided:
        assert expected in (None, BudgetExceededError)
        assert equivalence_witness(s1, s2, max_len) is None
    else:
        assert completed(lambda: equivalence_witness(s1, s2, max_len)) == expected
    # a source against its shift reads the same bound
    assert completed(lambda: stationarity_witness(s2, max_len)) == completed(
        lambda: equivalence_witness(s2, shifted_source(s2, 1), max_len)
    )


@st.composite
def channel_cases(draw):
    """(channel, depth, factor): a floated stationary channel with 2-3
    states whose init has mass moved between two states so that the
    largest ||alpha K_a - alpha||_1 is about factor * (EPS - slack)."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    alphabet = draw(st.sampled_from((AB, ABC)))
    n = draw(st.integers(2, 3))
    ch = floated(rand_stationary_channel(rng, alphabet, AB, n_states=n))
    depth = draw(st.integers(0, 3 if alphabet == AB else 2))
    factor = draw(st.sampled_from(FACTORS))
    i, j = draw(st.integers(0, n - 1)), max(range(n), key=lambda k: ch.init[k])
    assume(i != j)
    unit = [0.0] * n
    unit[i], unit[j] = 1.0, -1.0

    def moved(a, d):
        out = [0.0] * n
        for q, x in enumerate(d):
            for _, q2, p in ch.kernel[(q, a)]:
                out[q2] += x * p
        return sum(abs(x - y) for x, y in zip(out, d))

    scale = max(moved(a, unit) for a in alphabet)
    assume(scale > 1e-3)
    target = EPS - _forward_slack(n * 2, depth + 1, 1.0, 3.0)
    init = perturbed(ch.init, i, factor * target / scale)
    return FsmChannel(ch.in_alphabet, ch.out_alphabet, ch.states, init, ch.kernel), depth, factor


@SETTINGS
@given(channel_cases())
def test_channel_bound_agrees_with_the_full_search(case):
    ch, depth, factor = case
    decided = _kernel_within_float_bound(ch, depth)
    assert decided == (factor < 1)
    expected = stepped_channel_stationarity_witness(ch, range(depth + 1))
    if decided:
        assert expected is None
    assert channel_stationarity_witness(ch, depth) == expected


# ---------------------------------------------------------------------------
# exact sources: one step of the init, then the search against the shift
# ---------------------------------------------------------------------------


@st.composite
def exact_sources(draw):
    """Random exact sources of 1-5 states, their stationary means, and means
    restarted with the mass of two states moved, which are not stationary
    unless the two states are equivalent."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    alphabet = draw(st.sampled_from((AB, ABC)))
    n = draw(st.integers(1, 5))
    src = rand_source(rng, alphabet, n_states=n, zero_prob=draw(st.sampled_from((0.0, 0.3, 0.6))))
    kind = draw(st.sampled_from(("random", "mean", "moved")))
    if kind != "random":
        src = stationary_mean(src)
    if kind == "moved" and n > 1:
        i = draw(st.integers(0, n - 1))
        src = with_init(src, perturbed(src.init, i, Fraction(1, 100)))
    return src


@SETTINGS
@given(exact_sources(), st.sampled_from((None, -2, 0, 1, 2, 3, 6)))
def test_exact_stationarity_witness_is_the_search_against_the_shift(src, max_len):
    expected = equivalence_witness(src, shifted_source(src, 1), max_len)
    assert stationarity_witness(src, max_len) == expected


def test_float_pairs_with_other_rows_keep_the_search():
    """Same labels and init on two float chains whose rows differ: the bound
    needs one chain, so the pair is searched, and most pairs differ."""
    witnesses = []
    for seed in range(10):
        s1 = floated(rand_source(SplitMix64(seed), AB, n_states=3, zero_prob=0.3))
        rows = list(s1.trans)
        rows[seed % 3] = tuple(map(float, SplitMix64(seed + 50).rational_row(3, 12, 0.3)))
        s2 = FsmSource(AB, s1.states, s1.init, tuple(rows), s1.labels)
        witnesses.append(stepped_equivalence_witness(s1, s2))
        assert equivalence_witness(s1, s2) == witnesses[-1]
    assert witnesses.count(None) <= 2


# ---------------------------------------------------------------------------
# one stationarity gate for every check that needs a stationary source
# ---------------------------------------------------------------------------


def entrywise_shift_invariant_source() -> FsmSource:
    """Four states on one i.i.d. chain with rows (1/4, 1/4, 1/4, 1/4),
    labels a a b b and init 1/4 +- 9e-10: each entry of the init is within
    EPS of its step's, but the mass of [a] moves by 1.8e-9."""
    d = 9e-10
    init = (0.25 + d, 0.25 + d, 0.25 - d, 0.25 - d)
    return FsmSource(AB, ("s0", "s1", "s2", "s3"), init, ((0.25,) * 4,) * 4, ("a", "a", "b", "b"))


def test_a_law_moved_by_the_shift_is_rejected_by_every_gate(tmp_path):
    src, ch = entrywise_shift_invariant_source(), copy_channel()
    assert stationarity_witness(src) == ("a",)
    assert not classify_source(src, 3).stationary
    (row,) = classify_channel(ch, [src], 3).per_source
    assert row.quasi_stationary is None
    assert row.rejections["quasi_stationary"] == "source is not stationary"
    gated = (
        lambda: quasi_stationary_mean(src, ch, 2),
        lambda: nu_partial_mean_tables(src, ch, (1, 2), 2),
        lambda: is_quasi_stationary_wrt(ch, src, 2),
        lambda: asymptotically_dominates(src, src, 2),
    )
    for check in gated:
        with pytest.raises(PreconditionError):
            check()
    src_path, ch_path = tmp_path / "src.json", tmp_path / "copy.json"
    src_path.write_text(json.dumps(source_to_json(src)))
    ch_path.write_text(json.dumps(channel_to_json(ch)))
    assert_cli_rejects(ch_path, src_path)


def test_a_float_law_whose_step_sums_further_from_1_keeps_its_verdict():
    """A two-state i.i.d. chain whose rows and init each sum to 1 - 7e-10:
    the stepped init sums to about 1 - 1.4e-9, outside EPS of 1, but lies
    within the norm bound of the init, so the source is stationary.  The
    shifted law is the init's step and is not checked again."""
    p = (0.5, 0.4999999993)
    src = FsmSource(AB, ("x", "y"), p, (p, p), ("a", "b"))
    shifted = shifted_source(src, 1)
    assert shifted.init == tuple(engine(src).step(p))
    assert abs(sum(shifted.init) - 1) > EPS
    assert stationarity_witness(src) is None
    verdict = classify_source(src, 3)
    assert verdict.stationary and verdict.recurrent.recurrent
    quasi_stationary_mean(src, copy_channel(), 2)


@st.composite
def gate_cases(draw):
    """(source, depth): random exact sources of 1-5 states, their stationary
    means, floated copies of both, and floated means with less than EPS
    moved onto one entry of the init from its largest, inside or outside
    the init's support; depths 1-3."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    alphabet = draw(st.sampled_from((AB, ABC)))
    n = draw(st.integers(1, 5))
    src = rand_source(rng, alphabet, n_states=n, zero_prob=draw(st.sampled_from((0.0, 0.3, 0.6))))
    kind = draw(st.sampled_from(("random", "mean", "floated", "floated mean", "moved")))
    if kind in ("mean", "floated mean", "moved"):
        src = stationary_mean(src)
    if kind in ("floated", "floated mean", "moved"):
        src = floated(src)
    if kind == "moved":
        size = draw(st.sampled_from((0.5, 0.9, 0.999))) * EPS
        outside = [k for k, x in enumerate(src.init) if not x]
        off_support = outside and draw(st.booleans())
        i = draw(st.sampled_from(outside) if off_support else st.integers(0, n - 1))
        src = with_init(src, perturbed(src.init, i, size))
    return src, draw(st.integers(1, 3))


# 300 draws reach moved float means on which an entry-by-entry shortcut
# and the measure-level test disagree
@settings(SETTINGS, max_examples=300)
@given(gate_cases())
def test_classify_source_and_the_quasi_stationary_mean_share_one_gate(case):
    """The source verdict calls a source stationary exactly when the
    quasi-stationary mean admits it at the same depth (both read the one
    gate, which in float mode also asks that no support pair of any length
    fail the closed-class test), and a float search that stops at its
    budget stops both."""
    src, depth = case

    def admitted():
        try:
            quasi_stationary_mean(src, copy_channel(src.alphabet), depth)
        except PreconditionError:
            return False
        return True

    assert completed(admitted) == completed(lambda: classify_source(src, depth).stationary)


# ---------------------------------------------------------------------------
# the gate reads no depth
# ---------------------------------------------------------------------------

DATA = pathlib.Path(__file__).parent / "data"


def transient_pair_chain() -> FsmSource:
    """The {a, b, c} chain s -> y, x -> z -> y -> x, labels a a c b, init
    (1e-10, 1/3 - 1e-10, 1/3, 1/3): stationary within EPS, recurrent at
    depth 1, and refuted at depth 2 by (a, b), which only the transient
    path s -> y spells."""
    doc = json.loads((DATA / "transient_pair_chain.json").read_text())
    return parse_model(doc, float_mode=True)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_a_float_law_with_a_failing_pair_is_rejected_at_every_depth(depth):
    src = transient_pair_chain()
    assert stationarity_witness(src) is None
    assert not _stationary_input(src)
    assert not classify_source(src, depth).stationary
    with pytest.raises(PreconditionError):
        quasi_stationary_mean(src, copy_channel(ABC), depth)


def test_cli_rejects_the_chain_with_a_failing_pair_at_depth_1(tmp_path):
    ch_path = tmp_path / "copy.json"
    ch_path.write_text(json.dumps(channel_to_json(copy_channel(ABC))))
    for depth in ("1", "2"):
        assert_cli_rejects(ch_path, DATA / "transient_pair_chain.json", "--depth", depth)


def test_a_float_stationary_mean_passes_the_gate_without_a_pair_search(monkeypatch):
    """The mean's init lies in the closed classes, which decides the gate;
    the chain whose init charges a transient state is searched."""
    calls = []
    search = sources._support_pairs
    monkeypatch.setattr(sources, "_support_pairs", lambda *a: calls.append(1) or search(*a))
    src = rand_source(SplitMix64(8), ABC, 64, zero_prob=0.9, cover=True)
    assert _stationary_input(as_float_source(stationary_mean(src)))
    assert calls == []
    assert not _stationary_input(transient_pair_chain())
    assert calls == [1]
