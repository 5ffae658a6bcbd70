from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amschan import channels, sources
from amschan.battery import ABC, rand_channel, rand_source, rand_stationary_source
from amschan.channels import (
    FsmChannel,
    LassoInput,
    cascade,
    channel_cyl_prob,
    channel_output_measure,
    conditional_table,
    hookup,
    input_marginal,
    joint_stationary_mean,
    kernel_stationary_mean,
    lift_to_pair_input,
    markov_channel,
    nu_i_table,
    nu_partial_mean_table,
    nu_partial_mean_tables,
    output_marginal,
    quasi_stationary_mean,
    rect_prob,
    table_coherence_witness,
)
from amschan.classify import is_quasi_stationary_wrt
from amschan.errors import AlphabetMismatchError, InvariantError, PreconditionError
from amschan.gallery import bsc, constant_source, copy_channel
from amschan.oracle import (
    brute_force_channel_prob,
    product_recurrence_witness,
    table_agreement_witness,
)
from amschan.rng import SplitMix64
from amschan.seqcore import Alphabet
from amschan.sources import (
    FsmSource,
    are_equivalent,
    as_float_source,
    cesaro_limit,
    cyl_prob,
    is_recurrent,
    is_stationary,
)
from families import counted, floated as _float_channel

AB = Alphabet(("a", "b"))
F = Fraction


# ---------------------------------------------------------------------------
# kernels and cylinder evaluation
# ---------------------------------------------------------------------------


def test_channel_cyl_prob_bsc(bsc25):
    assert channel_cyl_prob(bsc25, ("a",), ("a",)) == F(3, 4)
    assert channel_cyl_prob(bsc25, ("a", "b"), ("a", "b")) == F(9, 16)


def test_channel_cyl_prob_copy(copy):
    assert channel_cyl_prob(copy, ("a", "b"), ("a",)) == 1
    assert channel_cyl_prob(copy, ("a", "b"), ("a", "b")) == 1
    assert channel_cyl_prob(copy, ("a", "b"), ("b",)) == 0


def test_channel_cyl_prob_errors(bsc25):
    with pytest.raises(InvariantError):
        channel_cyl_prob(bsc25, ("a",), ("a", "b"))
    with pytest.raises(AlphabetMismatchError):
        channel_cyl_prob(bsc25, ("z",), ("a",))


def test_channel_validation():
    # kernel row that does not sum to one
    with pytest.raises(InvariantError):
        FsmChannel(
            AB, AB, ("q",), (F(1),),
            {(0, "a"): (("a", 0, F(1, 2)),), (0, "b"): (("a", 0, F(1)),)},
        )
    # missing kernel row
    with pytest.raises(InvariantError):
        FsmChannel(AB, AB, ("q",), (F(1),), {(0, "a"): (("a", 0, F(1)),)})


def test_models_reject_a_tuple_alphabet():
    # a plain tuple is refused at construction, not deep inside a search
    # (classify_channel read `out_alphabet.symbols` of such a channel)
    with pytest.raises(InvariantError, match="Alphabet"):
        rand_channel(SplitMix64(0), ("a", "b", "c"), ("a", "b", "c"), 4)
    kernel = {(0, "a"): (("a", 0, F(1)),), (0, "b"): (("b", 0, F(1)),)}
    for ins, outs in ((("a", "b"), AB), (AB, ("a", "b"))):
        with pytest.raises(InvariantError, match="Alphabet"):
            FsmChannel(ins, outs, ("q",), (F(1),), kernel)
    FsmChannel(AB, AB, ("q",), (F(1),), kernel)
    with pytest.raises(InvariantError, match="Alphabet"):
        FsmSource(("a", "b"), ("s",), (F(1),), ((F(1),),), ("a",))
    FsmSource(AB, ("s",), (F(1),), ((F(1),),), ("a",))


@pytest.mark.parametrize("half, one", [(F(1, 2), F(1)), (0.5, 1.0)])
def test_channel_rejects_negative_kernel_entry(half, one):
    # the row sums to one, so only the sign test can reject it
    kernel = {(0, "a"): (("a", 0, one + half), ("b", 0, -half)), (0, "b"): (("a", 0, one),)}
    with pytest.raises(InvariantError, match="negative"):
        FsmChannel(AB, AB, ("q",), (one,), kernel)


def test_channel_uses_only_needed_input_prefix(bsc25):
    # causality: the last input symbol is irrelevant when |v| < |w|
    assert channel_cyl_prob(bsc25, ("a", "a"), ("a",)) == channel_cyl_prob(
        bsc25, ("a", "b"), ("a",)
    )


# ---------------------------------------------------------------------------
# per-input output laws
# ---------------------------------------------------------------------------


def test_output_measure_copy_lasso(copy, s1):
    out = channel_output_measure(copy, LassoInput((), ("a", "b")))
    assert are_equivalent(out, s1)


def test_output_measure_noiseless_point_mass():
    ch = bsc(0)
    out = channel_output_measure(ch, LassoInput(("b",), ("a",)))
    assert cyl_prob(out, ("b", "a", "a")) == 1


def test_output_measure_pure_noise(s3):
    out = channel_output_measure(bsc(F(1, 2)), LassoInput((), ("b", "a")))
    assert are_equivalent(out, s3)


@settings(max_examples=15)
@given(
    st.integers(0, 2**32),
    st.integers(1, 3),
    st.sampled_from((AB, ABC)),
    st.sampled_from((AB, ABC)),
    st.integers(0, 2),
    st.integers(1, 3),
)
def test_output_measure_matches_channel_paths(seed, n, in_ab, out_ab, stem_len, cycle_len):
    # the output law is the hookup with the lasso source: every cylinder must
    # be the channel's path sum on the lasso's prefix, and recurrence
    # witnesses must match the oracle's full product
    rng = SplitMix64(seed)
    ch = rand_channel(rng, in_ab, out_ab, n_states=n, zero_prob=0.4)
    syms = tuple(in_ab)
    x = LassoInput(
        tuple(rng.choice(syms) for _ in range(stem_len)),
        tuple(rng.choice(syms) for _ in range(cycle_len)),
    )
    prefix = x.stem + x.cycle * 4
    out = channel_output_measure(ch, x)
    for v in out_ab.words_upto(4):
        assert cyl_prob(out, v) == brute_force_channel_prob(ch, prefix[: len(v)], v)
    assert is_recurrent(out, 3).witness == product_recurrence_witness(out, 3)


def test_output_measure_empty_cycle_rejected(copy):
    with pytest.raises(InvariantError):
        LassoInput(("a",), ())


def test_kernel_stationary_mean_examples(copy, ct):
    mean = kernel_stationary_mean(copy, LassoInput((), ("a", "b")))
    assert cyl_prob(mean, ("a",)) == F(1, 2)
    assert cyl_prob(kernel_stationary_mean(ct, LassoInput((), ("a",))), ("a",)) == 1
    assert cyl_prob(kernel_stationary_mean(ct, LassoInput((), ("b",))), ("a",)) == 0


def test_kernel_stationary_mean_cesaro_oracle(ct):
    # partial averages of shifted output-cylinder masses approach the mean
    from amschan.oracle import cesaro_partial
    from amschan.seqcore import event

    out = channel_output_measure(ct, LassoInput((), ("b",)))
    mean = kernel_stationary_mean(ct, LassoInput((), ("b",)))
    e = event(AB, [("a",)])
    for n in (64, 128):
        assert abs(float(cesaro_partial(out, e, n)) - float(cyl_prob(mean, ("a",)))) <= 1.0 / n


# ---------------------------------------------------------------------------
# hookups and marginals
# ---------------------------------------------------------------------------


def test_hookup_rectangles(s1, s3, bsc25, copy):
    j = hookup(s3, bsc25)
    assert rect_prob(j, ("a",), ("a",)) == F(3, 8)
    j2 = hookup(s1, bsc(F(1, 10)))
    assert rect_prob(j2, ("a", "b"), ("a", "b")) == F(81, 100)
    for w in AB.words(2):
        assert rect_prob(hookup(s1, copy), w, w) == cyl_prob(s1, w)


def test_hookup_checks_each_shared_row_once(monkeypatch, s3, bsc25):
    """The |B| joint states that differ only in the last output share one
    row object, which is validated once, on its integer form: the dense
    row's check does not run.  The iid source's two states share one row
    object, and the joint rows of one source row form are built once.  The
    joint init, built as an integer form, is checked on that form, and so
    is a memo hit's, with no distribution check."""
    checked = counted(monkeypatch, sources, "_check_distribution")
    rows = counted(monkeypatch, channels, "_check_form")
    inits = counted(monkeypatch, sources, "_check_form")
    joint = hookup(s3, bsc25).source
    n_rows = len(s3.states) * len(bsc25.states)
    n_forms = len({id(row) for row in s3.trans}) * len(bsc25.states)
    assert [what for *_, what in rows] == ["transition row"] * n_forms
    assert [what for *_, what in inits] == ["init"] and checked == []
    d, nums, _ = inits.pop()
    assert (d, nums) == (joint._init_form.den, joint._init_form.nums)
    again = sources.with_init(s3, (F(1, 5), F(4, 5)))
    inits.clear()
    hit = hookup(again, bsc25).source
    assert hit.trans is joint.trans and len(rows) == n_forms
    assert [what for *_, what in inits] == ["init"] and checked == []
    assert len({id(row) for row in joint.trans}) == n_rows < len(joint.trans)
    checked.clear()
    cesaro_limit(joint.trans)
    assert [what for _, what in checked] == ["transition row"] * n_rows


def test_hookup_memo_is_keyed_by_the_labels(s3, bsc25):
    """The two marginals of one joint share its chain and cache under
    different labels; a hookup of each carries its own marginal's labels
    and rows, also when the other marginal was hooked up first."""
    joint = hookup(s3, bsc25)
    ch = bsc(F(1, 10))
    ins, outs = input_marginal(joint), output_marginal(joint)
    assert ins._cache is outs._cache and ins.labels != outs.labels
    for marginal in (ins, outs, ins, outs):
        got = hookup(marginal, ch).source
        unshared = FsmSource(
            marginal.alphabet, marginal.states, marginal.init, marginal.trans, marginal.labels
        )
        want = hookup(unshared, ch).source
        assert got.labels == want.labels
        assert repr(got.trans) == repr(want.trans) and repr(got.init) == repr(want.init)


def test_hookup_alphabet_mismatch(s3):
    other = Alphabet(("x", "y"))
    ch = copy_channel(other)
    with pytest.raises(AlphabetMismatchError):
        hookup(s3, ch)


def test_hookup_against_brute_force_oracle():
    from amschan.oracle import brute_force_rect_prob

    rng = SplitMix64(7)
    for _ in range(8):
        src = rand_source(rng, AB, n_states=3)
        ch = rand_channel(rng, AB, AB, n_states=2)
        j = hookup(src, ch)
        for w in AB.words(2):
            for v in AB.words(2):
                assert rect_prob(j, w, v) == brute_force_rect_prob(src, ch, [w], [v])


@settings(max_examples=25)
@given(
    st.integers(0, 2**32),
    st.integers(1, 3),
    st.integers(1, 2),
    st.sampled_from((AB, ABC)),
    st.sampled_from((AB, ABC)),
)
def test_hookup_rectangles_match_brute_force(seed, n_src, n_ch, in_ab, out_ab):
    # every rectangle [w] x [v] with |v| <= |w| <= 3, exact and in floats
    from amschan.oracle import brute_force_rect_prob

    rng = SplitMix64(seed)
    src = rand_source(rng, in_ab, n_states=n_src, zero_prob=0.4)
    ch = rand_channel(rng, in_ab, out_ab, n_states=n_ch, zero_prob=0.4)
    joint, fjoint = hookup(src, ch), hookup(as_float_source(src), _float_channel(ch))
    for w in in_ab.words_upto(3):
        for k in range(len(w) + 1):
            for v in out_ab.words(k):
                expected = brute_force_rect_prob(src, ch, [w], [v])
                assert rect_prob(joint, w, v) == expected
                assert abs(rect_prob(fjoint, w, v) - float(expected)) <= 1e-12


def test_marginals(s1, s3, bsc25, copy):
    j = hookup(s3, bsc25)
    assert are_equivalent(input_marginal(j), s3)
    assert are_equivalent(output_marginal(j), s3)  # uniform in, uniform out
    assert are_equivalent(output_marginal(hookup(s3, copy)), s3)
    out = output_marginal(hookup(s1, bsc(F(1, 10))))
    assert cyl_prob(out, ("a",)) == F(9, 10)


def test_marginal_consistency_randomized():
    rng = SplitMix64(101)
    for _ in range(6):
        src = rand_source(rng, AB, n_states=2, zero_prob=0.3)
        ch = rand_channel(rng, AB, AB, n_states=2, zero_prob=0.3)
        assert are_equivalent(input_marginal(hookup(src, ch)), src)


def test_rect_prob_output_shallower(s3, bsc25):
    j = hookup(s3, bsc25)
    # summing the next output symbol recovers the shallower rectangle
    for w in AB.words(2):
        for v in AB.words(1):
            assert rect_prob(j, w, v) == sum(
                rect_prob(j, w, v + (b,)) for b in AB
            )
    with pytest.raises(InvariantError):
        rect_prob(j, ("a",), ("a", "b"))


# ---------------------------------------------------------------------------
# cascades
# ---------------------------------------------------------------------------


def test_cascade_bsc_composition():
    c = cascade(bsc(F(1, 10)), bsc(F(1, 5)))
    assert channel_cyl_prob(c, ("a",), ("b",)) == F(1, 10) * F(4, 5) + F(9, 10) * F(1, 5)


def test_cascade_copy_identity(bsc25, copy):
    rng = SplitMix64(13)
    left = cascade(copy, bsc25)
    right = cascade(bsc25, copy)
    for w in AB.words_upto(3):
        for k in range(len(w) + 1):
            for v in AB.words(k):
                p = channel_cyl_prob(bsc25, w, v)
                assert channel_cyl_prob(left, w, v) == p
                assert channel_cyl_prob(right, w, v) == p


def test_cascade_total_noise_first(s3):
    # after a totally noisy first hop the output law no longer depends on
    # the input, and at depth 1 it equals the second channel driven by a
    # uniform input
    rng = SplitMix64(19)
    ch2 = rand_channel(rng, AB, AB, n_states=2)
    c = cascade(bsc(F(1, 2)), ch2)
    j_uniform = hookup(s3, ch2)
    for a in AB:
        for b in AB:
            uniform_out = rect_prob(j_uniform, ("a",), (b,)) + rect_prob(
                j_uniform, ("b",), (b,)
            )
            assert channel_cyl_prob(c, (a,), (b,)) == uniform_out
    for b in AB.words(2):
        assert channel_cyl_prob(c, ("a", "a"), b) == channel_cyl_prob(
            c, ("b", "a"), b
        )


def test_cascade_associativity_on_evaluations():
    rng = SplitMix64(29)
    for _ in range(5):
        c1 = rand_channel(rng, AB, AB, n_states=2)
        c2 = rand_channel(rng, AB, AB, n_states=2)
        c3 = rand_channel(rng, AB, AB, n_states=2)
        left = cascade(cascade(c1, c2), c3)
        right = cascade(c1, cascade(c2, c3))
        for w in AB.words_upto(4):
            for k in range(len(w) + 1):
                for v in AB.words(k):
                    assert channel_cyl_prob(left, w, v) == channel_cyl_prob(
                        right, w, v
                    )


def test_cascade_alphabet_mismatch(bsc25):
    other = Alphabet(("x", "y"))
    with pytest.raises(AlphabetMismatchError):
        cascade(bsc25, copy_channel(other))


def test_cascade_kernel_normalization_preserved():
    rng = SplitMix64(37)
    c = cascade(
        rand_channel(rng, AB, AB, n_states=2), rand_channel(rng, AB, AB, n_states=2)
    )
    for entries in c.kernel.values():
        assert sum(p for _, _, p in entries) == 1


def test_lift_to_pair_input(bsc25, s3):
    lifted = lift_to_pair_input(bsc25, AB)
    assert lifted.in_alphabet == Alphabet(tuple((x, y) for x in AB for y in AB))
    assert channel_cyl_prob(lifted, (("a", "b"),), ("b",)) == channel_cyl_prob(
        bsc25, ("b",), ("b",)
    )


# ---------------------------------------------------------------------------
# input-driven Markov output chains
# ---------------------------------------------------------------------------


def test_markov_channel_identity_matrices():
    ident = ((F(1), F(0)), (F(0), F(1)))
    ch = markov_channel({"a": ident, "b": ident}, ("a", "b"), init=(F(1), F(0)))
    out = channel_output_measure(ch, LassoInput((), ("b", "a", "b")))
    assert cyl_prob(out, ("a", "a", "a")) == 1


def test_markov_channel_input_independent_matrices(s3):
    m = ((F(1, 3), F(2, 3)), (F(3, 4), F(1, 4)))
    ch = markov_channel({"a": m, "b": m}, ("a", "b"), init=(F(1, 2), F(1, 2)))
    out1 = channel_output_measure(ch, LassoInput((), ("a",)))
    out2 = channel_output_measure(ch, LassoInput((), ("b", "a")))
    assert are_equivalent(out1, out2)


def test_float_parameters_give_float_channels():
    # a channel holds one scalar kind, so default laws follow the parameters
    half = ((0.5, 0.5), (0.5, 0.5))
    for ch in (bsc(0.25), markov_channel({"a": half, "b": half}, ("a", "b"))):
        assert all(isinstance(x, float) for x in ch.init)
    assert markov_channel({"a": ((F(1), F(0)), (F(0), F(1)))}, ("a", "b")).init == (F(1, 2),) * 2


def test_markov_channel_validation():
    with pytest.raises(InvariantError):
        markov_channel(
            {"a": ((F(1),),), "b": ((F(1, 2), F(1, 2)), (F(1), F(0)))},
            ("a",),
        )


def test_markov_channel_is_ams(s3):
    from amschan.classify import is_channel_ams_wrt

    rng = SplitMix64(43)
    m1 = tuple(rng.rational_row(2, 12) for _ in range(2))
    m2 = tuple(rng.rational_row(2, 12) for _ in range(2))
    ch = markov_channel({"a": m1, "b": m2}, ("a", "b"), init=rng.rational_row(2, 12))
    verdict = is_channel_ams_wrt(ch, s3, 3)
    assert verdict.holds and verdict.evidence.converged


# ---------------------------------------------------------------------------
# conditional tables: the shifted family and quasi-stationary means
# ---------------------------------------------------------------------------


def test_nu_0_equals_kernel(s3, bsc25):
    t = nu_i_table(s3, bsc25, 0, 2)
    for (w, v), value in t.entries.items():
        assert value == channel_cyl_prob(bsc25, w, v)


def test_nu_i_stationary_channel_collapses(s3, bsc25):
    t0 = nu_i_table(s3, bsc25, 0, 2)
    for i in range(1, 6):
        assert table_agreement_witness(nu_i_table(s3, bsc25, i, 2), t0) is None


def test_nu_1_transient_copy_is_copy(s3, ct, copy):
    t = nu_i_table(s3, ct, 1, 3)
    for (w, v), value in t.entries.items():
        assert value == channel_cyl_prob(copy, w, v)


def test_nu_i_oracle_joint_paths(s3, ct):
    # brute-force oracle at depth 3: shift the joint law by hand using the
    # path-enumeration oracle on the hookup chain
    from amschan.oracle import brute_force_word_probs
    from amschan.sources import shifted_source

    joint = hookup(s3, ct).source
    t = nu_i_table(s3, ct, 1, 3)
    table = brute_force_word_probs(shifted_source(joint, 1), 3)
    for w in AB.words(3):
        for v in AB.words(3):
            mass = sum(
                p
                for word, p in table.items()
                if tuple(x for x, _ in word) == w and tuple(y for _, y in word) == v
            )
            assert t.entry(w, v) == mass / cyl_prob(s3, w)


def test_nu_i_requires_stationary_source(s1, bsc25):
    with pytest.raises(PreconditionError):
        nu_i_table(s1, bsc25, 1, 2)
    with pytest.raises(PreconditionError):
        quasi_stationary_mean(s1, bsc25, 2)


def test_table_flags_zero_mass_inputs(bsc25):
    src = constant_source("a", AB)  # words containing b have mass zero
    t = nu_i_table(src, bsc25, 0, 2)
    assert ("b",) in t.flagged and ("a", "b") in t.flagged
    assert (("a",), ("a",)) in t.entries


def test_conditional_table_of_an_int_source_holds_fractions(copy):
    # the source is built of plain ints, so its input masses are ints, and
    # so are the masses of the rectangles no path reaches; their quotients
    # are exact zeros, not float 0.0 among Fractions
    src = FsmSource(AB, ("s0", "s1"), (1, 0), ((0, 1), (1, 0)), ("a", "b"))
    t = conditional_table(hookup(src, copy), src, 2)
    assert repr(t.entry(("a",), ("b",))) == "Fraction(0, 1)"
    assert t.entry(("a", "b"), ("a", "b")) == 1
    assert {type(x) for x in t.entries.values()} == {Fraction}
    floats = as_float_source(src)
    assert repr(conditional_table(hookup(floats, copy), floats, 2).entry(("a",), ("b",))) == "0.0"


def test_conditional_table_of_an_int_source_through_a_float_channel_holds_floats():
    # the joint source is float, so the int masses of the input cylinders
    # divide as ints and every entry, the unreached rectangles too, is a float
    src = FsmSource(AB, ("s0", "s1"), (1, 0), ((0, 1), (1, 0)), ("a", "b"))
    fcopy = FsmChannel(AB, AB, ("q",), (1.0,), {(0, a): ((a, 0, 1.0),) for a in AB})
    t = conditional_table(hookup(src, fcopy), src, 2)
    assert repr(t.entry(("a",), ("b",))) == "0.0"
    assert {type(x) for x in t.entries.values()} == {float}


def test_float_hookup_of_tiny_mass_chain_has_the_exact_words(tiny_mass_chain, copy):
    exact, floats = (
        sources.positive_words(hookup(src, copy).source, 2)
        for src in (tiny_mass_chain(Fraction(1, 10**5), Fraction(1)), tiny_mass_chain(1e-5, 1.0))
    )
    assert floats == exact == [(("a", "a"),), (("a", "a"), ("a", "a"))]


def test_float_tables_reject_a_source_refuted_on_its_chain_graph(tiny_mass_chain, copy):
    # the float tiny-mass chain passes the stationarity test within EPS, but
    # it is not recurrent, so it is not stationary; the joint law gives the
    # input a a b (mass 1e-10) no mass, and a table would set its entries,
    # entry(w, ()) included, to 0.0; quasi-stationarity is refused alike
    for one in (Fraction(1), 1.0):
        src = tiny_mass_chain(one / 10**5, one)
        for make in (
            lambda: quasi_stationary_mean(src, copy, 3),
            lambda: nu_i_table(src, copy, 1, 3),
            lambda: nu_partial_mean_tables(src, copy, (2,), 3, exact=False),
            lambda: is_quasi_stationary_wrt(copy, src, 3),
        ):
            with pytest.raises(PreconditionError):
                make()


def test_float_qs_mean_of_a_slowly_leaving_source_is_rejected(copy):
    # x -> y at 1e-10: not stationary, and not recurrent in either mode
    def src(eps, one):
        trans = ((one - eps, eps), (one - one, one))
        return FsmSource(AB, ("x", "y"), (one - eps, eps), trans, ("a", "b"))

    for model in (src(Fraction(1, 10**10), Fraction(1)), src(1e-10, 1.0)):
        with pytest.raises(PreconditionError, match="needs a stationary source"):
            quasi_stationary_mean(model, copy, 3)


def test_float_conditional_table_keeps_tiny_mass_inputs(tiny_mass_chain, copy):
    # the input a a b has mass 1e-10, below EPS but positive: the float
    # table gives it entries, as the exact table does
    exact, floats = (
        conditional_table(hookup(src, copy), src, 3)
        for src in (tiny_mass_chain(Fraction(1, 10**5), Fraction(1)), tiny_mass_chain(1e-5, 1.0))
    )
    assert ("a", "a", "b") not in floats.flagged and floats.flagged == exact.flagged
    assert exact.entry(("a", "a", "b"), ("a", "a", "b")) == 1
    assert abs(floats.entry(("a", "a", "b"), ("a", "a", "b")) - 1) < 1e-6


def test_float_markov_channel_keeps_tiny_entries():
    m = ((1 - 1e-10, 1e-10), (0.0, 1.0))
    ch = markov_channel({"a": m, "b": m}, ("a", "b"))
    assert ch.kernel[(0, "a")] == (("a", 0, 1 - 1e-10), ("b", 1, 1e-10))
    assert ch.kernel[(1, "a")] == (("b", 1, 1.0),)


def test_qs_mean_examples(s3, bsc25, ct, copy):
    t = quasi_stationary_mean(s3, ct, 3)
    for (w, v), value in t.entries.items():
        assert value == channel_cyl_prob(copy, w, v)
    t2 = quasi_stationary_mean(s3, bsc25, 3)
    for (w, v), value in t2.entries.items():
        assert value == channel_cyl_prob(bsc25, w, v)


def test_table_coherence(s3, ct, bsc25):
    assert table_coherence_witness(quasi_stationary_mean(s3, ct, 3)) is None
    assert table_coherence_witness(nu_i_table(s3, bsc25, 2, 3)) is None


def test_qs_mean_is_cesaro_limit_of_family(s3, ct):
    # the partial means of the shifted family converge to the exact table,
    # with the literal small-n average agreeing with the linear shortcut
    exact = quasi_stationary_mean(s3, ct, 2)
    literal = {}
    n = 8
    for i in range(n):
        for key, value in nu_i_table(s3, ct, i, 2).entries.items():
            literal[key] = literal.get(key, 0) + value
    shortcut = nu_partial_mean_table(s3, ct, n, 2)
    for key, total in literal.items():
        assert shortcut.entries[key] == total / n
    big = nu_partial_mean_table(s3, ct, 512, 2, exact=False)
    for key, value in big.entries.items():
        assert abs(value - float(exact.entries[key])) <= 2 / 512


def test_partial_mean_tables_share_one_pass(s3, ct):
    # each table of one longer pass is its one-n table, floats bit for bit
    for exact, ns in ((True, (3, 8)), (False, (128, 256))):
        tables = nu_partial_mean_tables(s3, ct, ns, 2, exact)
        for n, table in zip(ns, tables):
            alone = nu_partial_mean_table(s3, ct, n, 2, exact)
            assert repr(table.entries) == repr(alone.entries)
            assert table.flagged == alone.flagged
    with pytest.raises(InvariantError):
        nu_partial_mean_tables(s3, ct, (4, 0), 2)


def test_qs_mean_input_marginal_is_source(s3, ct):
    jbar = joint_stationary_mean(hookup(s3, ct))
    assert are_equivalent(input_marginal(jbar), s3)
    assert is_stationary(jbar.source, max_len=3)


def test_conditional_table_random_instances():
    rng = SplitMix64(61)
    for _ in range(5):
        src = rand_stationary_source(rng, AB, n_states=2)
        ch = rand_channel(rng, AB, AB, n_states=2)
        t = quasi_stationary_mean(src, ch, 2)
        assert table_coherence_witness(t) is None
        for (w, v), value in t.entries.items():
            assert 0 <= value <= 1
