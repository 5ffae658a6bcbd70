"""Differential tests of the sparse forward engine and its prefix walks.

Every production forward pass runs on `linalg.SparseMatrix` and, where words
share prefixes, on a memoized `PrefixWalk`; exact passes run on the integer
form, `linalg.IntVector`.  The references below restart a literal dense
forward pass for every word, as the defining formulas read, and the engine's
dense counterpart is the oracle's own product.  Models are 3-symbol sources
with 3-6 states and their hookups with random channels, in exact mode and
parsed in float mode, as `--float` does, plus chains with int-only columns
and the int chains of lasso inputs.  Values are compared through `repr`, so
a float must match bit for bit and every zero must keep its type (int 0,
Fraction(0) or 0.0).
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amschan.battery import (
    ABC,
    AB,
    rand_channel,
    rand_lassos,
    rand_source,
    rand_stationary_channel,
)
from amschan.channels import (
    FsmChannel,
    JointSource,
    LassoInput,
    channel_output_measure,
    conditional_table,
    hookup,
    kernel_walk,
    nu_partial_mean_tables,
    rect_walk,
)
from amschan.classify import is_channel_stationary
from amschan.errors import InvariantError
from amschan.linalg import IntVector, SparseMatrix, mask
from amschan.models import channel_to_json, parse_model, source_to_json
from amschan.oracle import dense_vec_mat
from amschan.oracle import enum_channel_stationarity_witness as ref_channel_stationarity_witness
from amschan.oracle import product_recurrence_witness as ref_recurrence_witness
from amschan.rng import SplitMix64
from amschan.scalars import is_positive, is_zero
from amschan.sources import (
    FsmSource,
    as_float_source,
    dominates,
    engine,
    forward_walk,
    is_recurrent,
    shifted_source,
    stationary_mean,
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


def started(joint, init):
    """`joint` from `init`, or from its own init when `init` is None."""
    if init is None:
        return joint
    return JointSource(with_init(joint.source, init), joint.in_alphabet, joint.out_alphabet)


def exact_averages(chain, ns):
    """The Cesaro partial means of an exact chain from its init, each the
    Fraction average of its terms stepped densely."""
    terms = [chain.init]
    while len(terms) < max(ns):
        terms.append(dense_vec_mat(terms[-1], chain.trans))
    return [tuple(Fraction(sum(xs, 0), n) for xs in zip(*terms[:n])) for n in ns]


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
        if type(pw) is int and joint.source.is_exact:  # an exact quotient is a Fraction
            pw = Fraction(pw)
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
    # the Cesaro partial mean of an exact chain is the exact average: int
    # zeros, which the first term holds, divide into Fraction(0)
    joint = hookup(src, rand_channel(SplitMix64(seed), ABC, AB, zero_prob=0.4)).source
    literals = exact_averages(joint, (1, 2, 3))
    for n, literal in zip((1, 2, 3), literals):
        assert reprs(engine(joint).partial_mean(joint.init, (n,))[0]) == reprs(literal)
    # one accumulation gives every requested n
    means = engine(joint).partial_mean(joint.init, (3, 1, 2))
    assert [reprs(m) for m in means] == [reprs(literals[k]) for k in (2, 0, 1)]


# ---------------------------------------------------------------------------
# the integer form against the oracle's dense product
# ---------------------------------------------------------------------------


def unit_vector(n, j):
    return tuple(int(k == j) for k in range(n))


def with_int_entries(src, rng):
    """`src` with int 0 for each zero and a third of its rows replaced by
    int unit rows, so that columns reached only by those rows hold ints."""
    n = len(src.states)
    rows = tuple(
        unit_vector(n, rng.randint(n)) if rng.randint(3) == 0
        else tuple(x if x else 0 for x in row)
        for row in src.trans
    )
    return FsmSource(src.alphabet, src.states, src.init, rows, src.labels)


def int_copy_channel(alphabet):
    """The copy channel with int kernel entries and an int init."""
    kernel = {(0, a): ((a, 0, 1),) for a in alphabet}
    return FsmChannel(alphabet, alphabet, ("q",), (1,), kernel)


@st.composite
def exact_chains(draw):
    """An exact source with int-only columns, its hookup, and the output laws
    of a lasso input through an int channel (an all-int chain) and through
    a random channel (int zeros in the init, int-only columns)."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    src = with_int_entries(rand_source(rng, ABC, n_states=draw(st.integers(1, 6)),
                                       zero_prob=draw(st.sampled_from((0.2, 0.5)))), rng)
    ch = rand_channel(rng, ABC, AB, n_states=draw(st.integers(1, 2)), zero_prob=0.4)
    (x,) = rand_lassos(rng, src, 1, depth=4)
    return [
        src,
        hookup(src, ch).source,
        channel_output_measure(int_copy_channel(ABC), x),
        channel_output_measure(ch, x),
    ]


def _int_probes(chain, rng):
    """The init, an int unit vector and a mix of ints and Fractions."""
    n = len(chain.states)
    unit = unit_vector(n, rng.randint(n))
    mixed = tuple(Fraction(1 + rng.randint(5), 7) if rng.randint(2) else rng.randint(3)
                  for _ in range(n))
    return [chain.init, unit, mixed]


@SETTINGS
@given(exact_chains(), st.integers(0, 2**32))
def test_integer_steps_match_dense_products(chains, seed):
    rng = SplitMix64(seed)
    for chain in chains:
        eng = engine(chain)
        masks = eng.label_masks(chain.labels)
        keeps = [None, *(masks[sym] for sym in chain.alphabet)]
        for v in _int_probes(chain, rng):
            iv = IntVector.of(v)
            assert reprs(iv.scalars()) == reprs(v)
            for keep in keeps:
                dense = dense_vec_mat(v, chain.trans)
                if keep is not None:
                    dense = mask(dense, keep)
                    assert reprs(mask(iv, keep).scalars()) == reprs(mask(v, keep))
                assert reprs(eng.step(iv, keep).scalars()) == reprs(dense)
            # four steps in a row, each masked by the next symbol of a cycle
            stepped, dense = iv, tuple(v)
            for t in range(4):
                keep = keeps[1 + t % (len(keeps) - 1)]
                stepped = eng.step(stepped, keep)
                dense = mask(dense_vec_mat(dense, chain.trans), keep)
                assert type(stepped) is IntVector
                assert reprs(stepped.scalars()) == reprs(dense)
                assert repr(stepped.total()) == repr(sum(dense))


@SETTINGS
@given(models(), exact_chains())
def test_walk_totals_match_scalar_sums(model, chains):
    """`total(key)` is `sum(walk[key])` in value and type, and `support(key)`
    lists the positive entries, which are the nonzero ones here, on exact,
    float and all-int walks."""
    src, ch, _ = model
    joint = hookup(src, ch)
    walks = [(forward_walk(c), list(c.alphabet.words_upto(3))) for c in (src, *chains)]
    pairs = [(w, v) for w in AB.words_upto(2) for k in range(len(w) + 1) for v in AB.words(k)]
    walks.append((rect_walk(joint), [(w, v) for w in ABC.words_upto(2)
                                     for k in range(len(w) + 1) for v in AB.words(k)]))
    walks.append((kernel_walk(ch), [(w, v) for w in ABC.words_upto(2) for v in AB.words(len(w))]))
    walks.append((kernel_walk(int_copy_channel(AB)), [(w[:len(v)], v) for w, v in pairs]))
    # a float chain from an int unit init: its IntVector root meets float steps
    floated = with_init(as_float_source(src), unit_vector(len(src.states), 0))
    walks.append((forward_walk(floated), list(src.alphabet.words_upto(3))))
    for walk, keys in walks:
        for key in keys:
            vec = walk[key]
            assert repr(walk.total(key)) == repr(sum(vec))
            assert walk.support(key) == [i for i, x in enumerate(vec) if is_positive(x)]
            assert walk.support(key) == [i for i, x in enumerate(vec) if x]


def test_conditional_table_of_an_int_chain_divides_ints():
    # an all-int hookup gives int rectangle and input masses; the model is
    # exact, so their quotients are Fractions, not the floats of int division
    lasso = channel_output_measure(int_copy_channel(AB), LassoInput(("a",), ("b", "a")))
    joint = hookup(lasso, int_copy_channel(AB))
    table = conditional_table(joint, lasso, 3)
    entries, flagged = ref_conditional_table(joint, lasso, 3)
    assert table.flagged == flagged and flagged
    assert reprs(table.entries.values()) == reprs(entries.values())
    assert {type(x) for x in table.entries.values()} == {Fraction}


def test_long_shift_matches_fraction_reference():
    src = rand_source(SplitMix64(3), ABC, n_states=5, zero_prob=0.3)
    ref = src.init
    for _ in range(300):
        ref = dense_vec_mat(ref, src.trans)
    assert reprs(shifted_source(src, 300).init) == reprs(ref)


# ---------------------------------------------------------------------------
# block steps against one step per vector
# ---------------------------------------------------------------------------


def _block_matrix(rng, n_rows, n_cols, exact):
    """A sparse matrix whose rows are empty, int unit rows (so a column
    reached only by them holds ints) or random rows of Fractions or
    floats, with some zero entries dropped."""
    rows = []
    for _ in range(n_rows):
        kind = rng.randint(4)
        if kind == 0:
            rows.append([])
        elif kind == 1:
            rows.append([(rng.randint(n_cols), 1)])
        else:
            law = rng.rational_row(n_cols, 9, zero_prob=0.4)
            rows.append([(j, p if exact else float(p)) for j, p in enumerate(law) if p])
    return SparseMatrix(rows, n_cols)


@SETTINGS
@given(st.integers(0, 2**32), st.integers(1, 5), st.integers(1, 5), st.integers(1, 6))
def test_step_block_matches_step_on_each_vector(seed, n_rows, n_cols, size):
    """`step_block` gives `step`'s vector for every vector of a block of
    floats, bit for bit, over float and exact matrices.  Blocks hold a zero
    vector and rows that are all zero."""
    rng = SplitMix64(seed)
    for exact in (False, True):
        m = _block_matrix(rng, n_rows, n_cols, exact)
        dead = rng.randint(n_rows)  # a row that is zero in every vector
        vectors = [[0.0] * n_rows] + [
            [0.0 if i == dead or rng.randint(3) == 0 else rng.uniform() for i in range(n_rows)]
            for _ in range(size - 1)
        ]
        cols = m.step_block([list(c) for c in zip(*vectors)])
        assert [reprs(v) for v in zip(*cols)] == [reprs(m.step(tuple(v))) for v in vectors]


# ---------------------------------------------------------------------------
# prefix walks against per-word restarts
# ---------------------------------------------------------------------------


@SETTINGS
@given(models())
def test_conditional_table_matches_restarts(model):
    src, ch, _ = model
    joint = hookup(src, ch)
    for init in (None, shifted_source(joint.source, 1).init):
        table = conditional_table(started(joint, init), src, 2)
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


# ---------------------------------------------------------------------------
# the hookup memo and the joint engine against fresh builds
# ---------------------------------------------------------------------------


def float_channel(ch):
    """`ch` with every kernel and init entry converted to a float."""
    kernel = {key: tuple((b, q, float(p)) for b, q, p in row) for key, row in ch.kernel.items()}
    return FsmChannel(ch.in_alphabet, ch.out_alphabet, ch.states, tuple(map(float, ch.init)), kernel)


@st.composite
def scalar_models(draw):
    """(source, channel): a 3-symbol source with 1-6 states and a random
    channel into {a, b}, exact, converted to floats, or parsed in float
    mode, the channel with explicit zero entries or without."""
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    src = rand_source(rng, ABC, n_states=draw(st.integers(1, 6)),
                      zero_prob=draw(st.sampled_from((0.2, 0.5))))
    ch = rand_channel(rng, ABC, AB, n_states=draw(st.integers(1, 2)), zero_prob=0.4)
    mode = draw(st.sampled_from(("exact", "float", "parsed")))
    if mode == "float":
        src, ch = as_float_source(src), float_channel(ch)
    elif mode == "parsed":
        src = parse_model(source_to_json(src), float_mode=True)
        ch = parse_model(channel_to_json(ch), float_mode=True)
    if draw(st.booleans()):
        ch = with_zero_entries(ch)
    return src, ch


def with_zero_entries(ch):
    """`ch` with a zero entry of its scalar type, on output b and state 0,
    added to every kernel row: joint columns that only such entries reach
    hold a Fraction(0) or a 0.0, not an int 0."""
    kernel = {key: row + (("b", 0, row[0][2] - row[0][2]),) for key, row in ch.kernel.items()}
    return FsmChannel(ch.in_alphabet, ch.out_alphabet, ch.states, ch.init, kernel)


def unshared(src):
    """`src` with a cache of its own, so that a hookup of it builds afresh."""
    return FsmSource(src.alphabet, src.states, src.init, src.trans, src.labels)


def engine_form(eng):
    return [[(j, repr(x)) for j, x in row] for row in eng.rows], eng.col_rank, eng.exact


def model_form(src):
    return src.alphabet, src.states, reprs(src.init), [reprs(r) for r in src.trans], src.labels


@SETTINGS
@given(scalar_models())
def test_hookup_engine_and_memo_match_fresh_builds(model):
    """The engine a hookup attaches is the one `SparseMatrix.of` reads off
    the dense joint matrix, and a hookup of the same chain with another init
    shares the first joint's chain and cache and equals a fresh build."""
    src, ch = model
    joint = hookup(src, ch).source
    assert engine_form(engine(joint)) == engine_form(SparseMatrix.of(joint.trans))
    for other in (with_init(src, shifted_source(src, 1).init), stationary_mean(src)):
        shared = hookup(other, ch).source
        assert shared.trans is joint.trans and shared._cache is joint._cache
        built = hookup(unshared(other), ch).source
        assert built.trans is not joint.trans
        assert model_form(shared) == model_form(built)


def quotients_of_totals(joint, mu, depth, init=None):
    """Each unflagged table entry as ``rects.total((w, v)) / pw``: the
    rectangle's scalar total divided by the input mass, a Fraction when
    the joint source is exact."""
    inputs, rects = forward_walk(mu), rect_walk(started(joint, init))
    entries = {}
    for w in joint.in_alphabet.words_upto(depth):
        pw = inputs.total(w)
        if not pw > 0:
            continue
        if type(pw) is int and joint.source.is_exact:
            pw = Fraction(pw)
        for k in range(len(w) + 1):
            for v in joint.out_alphabet.words(k):
                entries[(w, v)] = rects.total((w, v)) / pw
    return entries


#: every entry is the int 1, so the joint state that emits b is an int 0 in
#: every term of a partial mean, whose exact average is Fraction(0)
INT_ENTRIES = (
    FsmSource(ABC, ("u",), (1,), ((1,),), ("c",)),
    FsmChannel(ABC, AB, ("q",), (1,), {(0, s): (("a", 0, 1),) for s in ABC}),
)


@SETTINGS
@given(scalar_models())
@example(INT_ENTRIES)
def test_conditional_table_entries_are_quotients_of_totals(model):
    """Entries read off integer numerators equal the quotients of the walks'
    totals in value and type, on exact and float tables and on the tables
    of the partial-mean inits of a stationary source: the exact averages of
    the terms when exact, the engine's float means in floats."""
    src, ch = model
    joint = hookup(src, ch)
    for init in (None, shifted_source(joint.source, 1).init):
        table = conditional_table(started(joint, init), src, 3)
        want = quotients_of_totals(joint, src, 3, init)
        assert list(table.entries) == list(want)
        assert reprs(table.entries.values()) == reprs(want.values())
    if not src.is_exact:
        return
    stat = stationary_mean(src)
    sjoint = hookup(stat, ch).source
    for exact in (True, False):
        jsrc = sjoint if exact else as_float_source(sjoint)
        mu = stat if exact else as_float_source(stat)
        probe = JointSource(jsrc, joint.in_alphabet, joint.out_alphabet)
        tables = nu_partial_mean_tables(stat, ch, (1, 3), 2, exact)
        if exact:
            avgs = exact_averages(jsrc, (1, 3))
        else:
            avgs = engine(jsrc).partial_mean(jsrc.init, (1, 3))
        for table, avg in zip(tables, avgs):
            want = quotients_of_totals(probe, mu, 2, avg)
            assert list(table.entries) == list(want)
            assert reprs(table.entries.values()) == reprs(want.values())
