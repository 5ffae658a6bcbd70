"""Differential tests of the sparse forward engine and its prefix walks.

Every production forward pass runs on `linalg.SparseMatrix` and, where words
share prefixes, on a memoized `PrefixWalk`.  The references below restart a
literal dense forward pass for every word, as the defining formulas read, and
the engine's dense counterpart is the oracle's own product.  Models are
3-symbol sources with 3-6 states and their hookups with random channels, in
exact mode and parsed in float mode, as `--float` does.  Values are compared
through `repr`, so a float must match bit for bit and every zero must keep
its type (int 0, Fraction(0) or 0.0).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amschan.battery import ABC, AB, rand_channel, rand_source, rand_stationary_channel
from amschan.channels import FsmChannel, conditional_table, hookup
from amschan.classify import is_channel_stationary
from amschan.errors import InvariantError
from amschan.linalg import mask
from amschan.models import channel_to_json, parse_model, source_to_json
from amschan.oracle import dense_vec_mat
from amschan.oracle import enum_channel_stationarity_witness as ref_channel_stationarity_witness
from amschan.oracle import product_recurrence_witness as ref_recurrence_witness
from amschan.rng import SplitMix64
from amschan.scalars import is_positive, is_zero
from amschan.sources import (
    FsmSource,
    dominates,
    engine,
    is_recurrent,
    shifted_source,
    with_init,
)

SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None)


@st.composite
def models(draw):
    """(source, channel, float mode): a 3-symbol source with 3-6 states and a
    random channel into {a, b}, both parsed in float mode when drawn so."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    src = rand_source(rng, ABC, n_states=draw(st.integers(3, 6)),
                      zero_prob=draw(st.sampled_from((0.2, 0.5))))
    ch = rand_channel(rng, ABC, AB, n_states=draw(st.integers(1, 2)), zero_prob=0.4)
    float_mode = draw(st.booleans())
    if float_mode:
        src = parse_model(source_to_json(src), float_mode=True)
        ch = parse_model(channel_to_json(ch), float_mode=True)
    return src, ch, float_mode


def reprs(values):
    return [repr(x) for x in values]


# ---------------------------------------------------------------------------
# per-word-restart references
# ---------------------------------------------------------------------------


def ref_forward(src, word, init=None):
    vec = tuple(src.init if init is None else init)
    for t, sym in enumerate(word):
        base = vec if t == 0 else dense_vec_mat(vec, src.trans)
        vec = tuple(x if lab == sym else 0 for x, lab in zip(base, src.labels))
    return vec


def ref_positive_words(src, depth):
    return [
        w for n in range(1, depth + 1) for w in src.alphabet.words(n)
        if is_positive(sum(ref_forward(src, w)))
    ]


def ref_rect(joint, w, v, init=None):
    src = joint.source
    vec = tuple(src.init if init is None else init)
    for t in range(len(w)):
        base = vec if t == 0 else dense_vec_mat(vec, src.trans)
        vec = tuple(
            x if a == w[t] and (t >= len(v) or b == v[t]) else 0
            for x, (a, b) in zip(base, src.labels)
        )
    return sum(vec)


def ref_conditional_table(joint, mu, depth, init=None):
    entries, flagged = {}, set()
    for w in joint.in_alphabet.words_upto(depth):
        pw = sum(ref_forward(mu, w))
        if is_zero(pw):
            flagged.add(w)
            continue
        for k in range(len(w) + 1):
            for v in joint.out_alphabet.words(k):
                entries[(w, v)] = ref_rect(joint, w, v, init) / pw
    return entries, flagged


def ref_domination_witness(eta, mu, depth):
    for w in ref_positive_words(mu, depth):
        if is_zero(sum(ref_forward(eta, w))):
            return w
    return None


# ---------------------------------------------------------------------------
# the engine step against the oracle's dense product
# ---------------------------------------------------------------------------


def _probe_vectors(src):
    """The init, a few forward vectors, and a vector with zeros of every type."""
    vecs = [src.init, shifted_source(src, 1).init, shifted_source(src, 3).init]
    zero = 0.0 if isinstance(src.init[0], float) else Fraction(0)
    vecs.append(tuple((0, zero, x)[i % 3] for i, x in enumerate(src.init)))
    return vecs


@SETTINGS
@given(models())
def test_engine_step_matches_dense_product(model):
    src, ch, _ = model
    for chain in (src, hookup(src, ch).source):
        eng = engine(chain)
        masks = eng.label_masks(chain.labels)
        for v in _probe_vectors(chain):
            dense = dense_vec_mat(v, chain.trans)
            assert reprs(eng.step(v)) == reprs(dense)
            for sym in set(chain.labels):
                assert reprs(eng.step(v, masks[sym])) == reprs(mask(dense, masks[sym]))


@SETTINGS
@given(st.integers(0, 2**32), st.integers(3, 6))
def test_models_reject_mixed_scalar_kinds(seed, n_states):
    # a model holds Fractions or floats, so the engine never sums a mix
    src = rand_source(SplitMix64(seed), ABC, n_states=n_states, zero_prob=0.3)
    ch = rand_channel(SplitMix64(seed), ABC, AB, zero_prob=0.4)
    row = (float(src.trans[0][0]),) + src.trans[0][1:]
    entries = ch.kernel[0, "a"]
    kernel = {**ch.kernel, (0, "a"): ((*entries[0][:2], float(entries[0][2])),) + entries[1:]}
    with pytest.raises(InvariantError, match="mixes Fractions and floats"):
        with_init(src, (float(src.init[0]),) + src.init[1:])
    with pytest.raises(InvariantError, match="mixes Fractions and floats"):
        FsmSource(ABC, src.states, src.init, (row,) + src.trans[1:], src.labels)
    with pytest.raises(InvariantError, match="mixes Fractions and floats"):
        FsmChannel(ch.in_alphabet, ch.out_alphabet, ch.states, ch.init, kernel)
    with pytest.raises(InvariantError, match="mixes Fractions and floats"):
        FsmChannel(ch.in_alphabet, ch.out_alphabet, ch.states, (1.0, 0), ch.kernel)
    # the Cesaro partial mean of one term divides int zeros into 0.0
    joint = hookup(src, rand_channel(SplitMix64(seed), ABC, AB, zero_prob=0.4)).source
    terms = [joint.init]
    for n in (1, 2, 3):
        literal = tuple(sum(xs, 0) / n for xs in zip(*terms))
        terms.append(dense_vec_mat(terms[-1], joint.trans))
        assert reprs(engine(joint).partial_mean(joint.init, n)) == reprs(literal)


# ---------------------------------------------------------------------------
# prefix walks against per-word restarts
# ---------------------------------------------------------------------------


@SETTINGS
@given(models())
def test_conditional_table_matches_restarts(model):
    src, ch, _ = model
    joint = hookup(src, ch)
    for init in (None, shifted_source(joint.source, 1).init):
        table = conditional_table(joint, src, 2, init=init)
        entries, flagged = ref_conditional_table(joint, src, 2, init)
        assert table.flagged == flagged
        assert list(table.entries) == list(entries)
        assert reprs(table.entries.values()) == reprs(entries.values())


@SETTINGS
@given(models(), st.integers(0, 2**32))
def test_channel_stationarity_witness_matches_restarts(model, seed):
    # a stationary channel has no witness, so every word pair is compared
    _, ch, float_mode = model
    stationary = rand_stationary_channel(SplitMix64(seed), ABC, AB)
    if float_mode:
        stationary = parse_model(channel_to_json(stationary), float_mode=True)
    for c in (ch, stationary):
        assert is_channel_stationary(c, 2).witness == ref_channel_stationarity_witness(c, 2)


@SETTINGS
@given(models())
def test_recurrence_witness_matches_restarts(model):
    src, ch, _ = model
    assert is_recurrent(src, 3).witness == ref_recurrence_witness(src, 3)
    joint = hookup(src, ch).source
    assert is_recurrent(joint, 2).witness == ref_recurrence_witness(joint, 2)


@SETTINGS
@given(models(), st.integers(0, 2**32))
def test_domination_witness_matches_restarts(model, seed):
    src, ch, float_mode = model
    other = rand_source(SplitMix64(seed), ABC, n_states=len(src.states), zero_prob=0.5)
    if float_mode:
        other = parse_model(source_to_json(other), float_mode=True)
    for eta, mu in ((other, src), (src, other)):
        assert dominates(eta, mu, 3).witness == ref_domination_witness(eta, mu, 3)
    j1, j2 = hookup(src, ch).source, hookup(other, ch).source
    assert dominates(j2, j1, 2).witness == ref_domination_witness(j2, j1, 2)
