import pathlib
from fractions import Fraction

import pytest

from amschan import classify
from amschan.battery import (
    rand_channel,
    rand_dense_channel,
    rand_dense_source,
    rand_ergodic_stationary_source,
    rand_source,
    rand_stationary_source,
)
from amschan.channels import (
    FsmChannel,
    channel_cyl_prob,
    hookup,
    joint_stationary_mean,
    output_marginal,
    quasi_stationary_mean,
    rect_walk,
)
from amschan.classify import (
    THEOREMS,
    check_qs_mean_ergodic_identities,
    classify_channel,
    is_channel_ams_wrt,
    is_channel_ergodic_wrt,
    is_channel_recurrent_wrt,
    is_channel_stationary,
    is_quasi_stationary_wrt,
    resolve_theorem_id,
    run_theorem_suite,
)
from amschan.errors import PreconditionError, UnknownTheoremError
from amschan.gallery import bsc, coin_flip_once_channel, cycle_source, iid_uniform
from amschan.models import channel_to_json, parse_channel
from amschan.oracle import table_agreement_witness
from amschan.rng import SplitMix64
from amschan.scalars import is_positive
from amschan.seqcore import Alphabet, product_alphabet
from amschan.sources import as_float_source, equivalence_witness, stationary_mean
from families import counted

AB = Alphabet(("a", "b"))
F = Fraction


# ---------------------------------------------------------------------------
# individual checkers
# ---------------------------------------------------------------------------


def test_float_channel_classify_on_tiny_transient_mass(tiny_mass_chain, copy):
    # the float stationarity test passes within EPS, but the source is not
    # recurrent, which proves it non-stationary; and the float mean keeps
    # B's mass of 1e-10, so the AMS evidence converges as in exact mode
    for src in (tiny_mass_chain(F(1, 10**5), F(1)), tiny_mass_chain(1e-5, 1.0)):
        (row,) = classify_channel(copy, [src], 3).per_source
        assert row.quasi_stationary is None and row.recurrent is None
        assert row.rejections == {
            "quasi_stationary": "source is not stationary",
            "recurrent": "source is not recurrent at this depth",
            "ergodic": "source is not ergodic",
        }
        assert row.ams.holds


def test_channel_stationarity(bsc25, copy, ct):
    assert is_channel_stationary(bsc25, 4).holds
    assert is_channel_stationary(copy, 4).holds
    verdict = is_channel_stationary(ct, 2)
    assert not verdict.holds
    w, v = verdict.witness
    # the returned witness genuinely violates the shift identity
    late = sum(channel_cyl_prob(ct, w, (b,) + v) for b in ct.out_alphabet)
    assert late != channel_cyl_prob(ct, w[1:], v)
    # the canonical deeper witness violates it too
    assert sum(
        channel_cyl_prob(ct, ("b", "b"), (b, "b")) for b in ct.out_alphabet
    ) == 1 != channel_cyl_prob(ct, ("b",), ("b",))


def test_quasi_stationarity(bsc25, ct, s1, s3):
    assert is_quasi_stationary_wrt(bsc25, s3, 3).holds
    verdict = is_quasi_stationary_wrt(ct, s3, 3)
    assert not verdict.holds
    assert verdict.witness == (("b",), ("a",))
    with pytest.raises(PreconditionError):
        is_quasi_stationary_wrt(bsc25, s1, 3)  # non-stationary source rejected


def test_quasi_stationarity_randomized_stationary_channels():
    from amschan.battery import rand_stationary_channel, rand_stationary_source

    rng = SplitMix64(3)
    for _ in range(10):
        ch = rand_stationary_channel(rng, n_states=2)
        src = rand_stationary_source(rng, n_states=2)
        assert is_quasi_stationary_wrt(ch, src, 3).holds


def test_channel_recurrence(copy, bsc25, ct, s2, s3):
    assert is_channel_recurrent_wrt(copy, s3, 3).holds
    assert is_channel_recurrent_wrt(bsc25, s3, 2).holds
    verdict = is_channel_recurrent_wrt(ct, s3, 1)
    assert not verdict.holds
    assert verdict.witness == (("b",), ("a",))
    with pytest.raises(PreconditionError):
        is_channel_recurrent_wrt(copy, s2, 2)  # non-recurrent source rejected


def test_channel_ams(ct, copy, s1, s3):
    v = is_channel_ams_wrt(ct, s3, 3)
    assert v.holds and v.evidence.constant >= 0 and v.dominated.holds
    # the stationary mean of the transient-copy hookup is the copy hookup
    from amschan.sources import are_equivalent

    assert are_equivalent(
        v.stationary_mean.source, hookup(s3, copy).source, max_len=4
    )
    v2 = is_channel_ams_wrt(copy, s1, 3)
    assert v2.holds
    assert are_equivalent(
        v2.stationary_mean.source,
        hookup(stationary_mean(s1), copy).source,
        max_len=4,
    )


def test_channel_ams_deviation_halves(s3):
    rng = SplitMix64(9)
    from amschan.battery import rand_markov_channel

    ch = rand_markov_channel(rng, n_states=2)
    v = is_channel_ams_wrt(ch, s3, 3)
    assert v.holds
    ev = v.evidence
    if ev.dev_small > 1e-12:
        assert 0.3 <= ev.dev_big / ev.dev_small <= 0.7


def test_channel_ergodicity(bsc25, copy, s1, s3, s2):
    assert is_channel_ergodic_wrt(bsc25, s3, 3).ergodic
    flip = coin_flip_once_channel()
    assert not is_channel_ergodic_wrt(flip, s3, 3).ergodic
    assert is_channel_ergodic_wrt(copy, stationary_mean(s1), 3).ergodic
    from amschan.gallery import two_loop_source

    with pytest.raises(PreconditionError):
        is_channel_ergodic_wrt(bsc25, two_loop_source(), 3)


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------


def test_classify_channel_bsc(bsc25, s1, s3):
    verdict = classify_channel(bsc25, [s3, stationary_mean(s1)], 3)
    assert verdict.stationary.holds
    for row in verdict.per_source:
        assert row.quasi_stationary.holds
        assert row.recurrent.holds
        assert row.ams.holds and row.r_ams
        assert row.ergodic.ergodic


def test_classify_channel_ct_strict_separation(ct, s3):
    verdict = classify_channel(ct, [s3], 3)
    assert not verdict.stationary.holds
    row = verdict.per_source[0]
    assert row.quasi_stationary is not None and not row.quasi_stationary.holds
    assert row.recurrent is not None and not row.recurrent.holds
    assert row.ams.holds
    assert row.r_ams is False


def test_classify_channel_builds_one_hookup_per_source(monkeypatch, bsc25, s1, s3):
    """The four checkers of a source share its hookup, and their verdicts
    are those of the public per-check functions."""
    sources = [s3, stationary_mean(s1), s1]
    built = counted(monkeypatch, classify, "hookup")
    verdict = classify_channel(bsc25, sources, 3)
    assert [src for src, _ in built] == sources
    monkeypatch.undo()
    for src, row in zip(sources, verdict.per_source):
        if row.quasi_stationary is not None:
            assert row.quasi_stationary == is_quasi_stationary_wrt(bsc25, src, 3)
        if row.recurrent is not None:
            assert row.recurrent == is_channel_recurrent_wrt(bsc25, src, 3)
        if row.ergodic is not None:
            assert row.ergodic == is_channel_ergodic_wrt(bsc25, src, 3)
        ams = is_channel_ams_wrt(bsc25, src, 3)
        assert (row.ams.holds, row.ams.evidence, row.ams.dominated) == (
            ams.holds, ams.evidence, ams.dominated
        )


def test_classify_channel_precondition_routing(copy, s1, s3):
    verdict = classify_channel(copy, [s1, s3], 3)
    row_s1, row_s3 = verdict.per_source
    assert row_s1.quasi_stationary is None
    assert "quasi_stationary" in row_s1.rejections
    assert row_s1.recurrent is not None  # the cycle source is recurrent
    assert row_s3.quasi_stationary.holds


# ---------------------------------------------------------------------------
# quasi-stationary mean identities
# ---------------------------------------------------------------------------


def test_qs_identity_report_stationary_source(s3, copy):
    report = check_qs_mean_ergodic_identities(copy, s3, 2)
    assert report.all_passed


def test_qs_identity_report_nonstationary_ergodic_source(copy, s1):
    report = check_qs_mean_ergodic_identities(copy, s1, 2)
    assert report.all_passed


def test_qs_identity_random_ergodic_instances():
    rng = SplitMix64(15)
    for _ in range(5):
        src = rand_dense_source(rng, AB, n_states=2, cover=True)
        ch = rand_dense_channel(rng, AB, AB, n_states=2)
        assert check_qs_mean_ergodic_identities(ch, src, 2).all_passed


def test_qs_identity_reports_bad_preconditions(copy, s2):
    report = check_qs_mean_ergodic_identities(copy, s2, 2)
    assert not report.all_passed  # absorbing source is not recurrent
    names = {i.name: i.passed for i in report.items}
    assert names["pre source-recurrent"] is False


def test_qs_dichotomy_disjoint_supports(copy):
    from amschan.gallery import constant_source

    src_a = constant_source("a", AB)
    src_b = constant_source("b", AB)
    report = check_qs_mean_ergodic_identities(copy, src_a, 2, partners=(src_b,))
    assert report.all_passed
    assert any("dichotomy" in item.name for item in report.items)


# ---------------------------------------------------------------------------
# table identities and table supports, decided on the joint means
# ---------------------------------------------------------------------------


def _joint_mean(src, ch):
    return joint_stationary_mean(hookup(src, ch)).source


@pytest.mark.parametrize("float_mode", [False, True])
def test_table_agreement_matches_joint_mean_equality(float_mode):
    # two quasi-stationary-mean tables over one stationary source agree on
    # positive inputs exactly when the two joint means agree on every pair
    # word up to the depth, which is what the identity checks decide
    rng = SplitMix64(21)
    differing = 0
    for i in range(60):
        src = rand_stationary_source(rng, n_states=2)
        c1 = rand_channel(rng, n_states=2, zero_prob=0.5)
        c2 = rand_channel(rng, n_states=1 + i % 2, zero_prob=0.5)
        if float_mode:
            src = as_float_source(src)
            c1, c2 = (parse_channel(channel_to_json(c), True) for c in (c1, c2))
        for depth in (1, 2, 3, 4):
            for a, b in ((c1, c1), (c1, c2)):
                tables = table_agreement_witness(
                    quasi_stationary_mean(src, a, depth), quasi_stationary_mean(src, b, depth)
                )
                joints = equivalence_witness(_joint_mean(src, a), _joint_mean(src, b), depth)
                assert (tables is None) == (joints is None), (i, depth)
                differing += joints is not None
    assert differing >= 100


def test_failing_identity_names_the_first_differing_pair_word():
    # an iid output law and a sticky one agree on single symbols, so the
    # joint means first differ on a pair word of length 2
    stay, move = F(3, 4), F(1, 4)
    kernel = {
        (q, x): (("a", 0, stay if q == 0 else move), ("b", 1, move if q == 0 else stay))
        for q in (0, 1)
        for x in AB
    }
    sticky = FsmChannel(AB, AB, ("a", "b"), (F(1, 2), F(1, 2)), kernel)
    src = iid_uniform()
    noise, sticky = (joint_stationary_mean(hookup(src, c)) for c in (bsc(F(1, 2)), sticky))
    item = classify._agreement_item("identity", noise, sticky, 3, "agreed")
    assert not item.passed and item.detail == "tables differ at (aa, aa)"
    assert classify._agreement_item("identity", noise, sticky, 1, "agreed").passed


def _pair_words(first, second, depth):
    """Each nonempty pair word up to `depth`, with its two component words."""
    for p in product_alphabet(first, second).words_upto(depth):
        if p:
            yield p, tuple(tuple(side) for side in zip(*p))


def test_dominating_pair_supports_match_table_positivity():
    # the prop10/11 coverage sets are the positive pair words of the first
    # hookup's mean and the positive entries of the second channel's table
    rng = SplitMix64(23)
    depth, zeros, positives = 3, 0, 0
    for i in range(40):
        if i % 2:
            c1, c2 = rand_dense_channel(rng), rand_dense_channel(rng, n_states=1 + i % 4 // 2)
            src = rand_ergodic_stationary_source(rng, n_states=2) if i % 4 == 1 else cycle_source()
        else:
            c1 = rand_channel(rng, zero_prob=0.4)
            c2 = rand_channel(rng, n_states=1 + i % 4 // 2, zero_prob=0.4)
            src = rand_stationary_source(rng, n_states=2) if i % 4 == 0 else rand_source(rng, n_states=2)
        first, second = classify._dominating_pair_supports(src, c1, c2, depth)
        jbar1 = joint_stationary_mean(hookup(stationary_mean(src), c1))
        rects = rect_walk(jbar1)
        table = quasi_stationary_mean(output_marginal(jbar1), c2, depth)
        checks = [
            (p, is_positive(rects.total(wu)), first)
            for p, wu in _pair_words(jbar1.in_alphabet, jbar1.out_alphabet, depth)
        ] + [
            (p, u not in table.flagged and is_positive(table.entry(u, v)), second)
            for p, (u, v) in _pair_words(table.in_alphabet, table.out_alphabet, depth)
        ]
        for p, positive, support in checks:
            assert positive == (p in support), (i, p)
            zeros += not positive
            positives += positive
    assert zeros >= 1000 and positives >= 1000


# ---------------------------------------------------------------------------
# the claim registry
# ---------------------------------------------------------------------------


ALIASES = {
    "hookup-stationarity-iff": "prop1",
    "recurrence-iff": "prop2",
    "hierarchy": "prop3",
    "kernel-r-ams": "prop5",
    "ams-asymptotic-domination": "prop6",
    "kernel-ams": "prop7",
    "cascade-quasi-stationary": "prop8",
    "cascade-recurrent": "prop9",
    "cascade-r-ams": "prop10",
    "cascade-ams": "prop11",
    "qs-mean-shift-collapse": "prop12",
    "qs-mean-convergence": "prop13",
    "ergodicity-conditions": "prop14",
    "qs-mean-identities": "prop15",
    "qs-mean-dichotomy": "prop16",
    "source-dominance": "lemma7",
    "kernel-vs-hookup-dominance": "lemma8",
    "stationary-hookup": "stationary_hookup",
}


def test_resolve_theorem_ids():
    assert resolve_theorem_id("prop8") == "prop8"
    assert resolve_theorem_id("Prop 8") == "prop8"
    assert resolve_theorem_id("stationary_hookup") == "stationary_hookup"
    assert set(ALIASES.values()) == set(THEOREMS)
    for alias, canonical in ALIASES.items():
        assert resolve_theorem_id(alias) == canonical
    with pytest.raises(UnknownTheoremError):
        resolve_theorem_id("prop99")


def test_registry_covers_all_claims():
    expected = {f"prop{i}" for i in (1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)}
    expected |= {"lemma7", "lemma8", "stationary_hookup"}
    assert set(THEOREMS) == expected


def test_suite_reports_are_deterministic():
    a = run_theorem_suite("prop8", 3, 3, seed=7).to_text()
    b = run_theorem_suite("prop8", 3, 3, seed=7).to_text()
    assert a == b
    c = run_theorem_suite("prop8", 3, 3, seed=8).to_text()
    assert a != c


def test_every_suite_passes_smoke():
    texts = []
    for tid in sorted(THEOREMS):
        report = run_theorem_suite(tid, 2, 3, seed=123)
        assert report.all_passed, (tid, [i.detail for i in report.items if not i.passed])
        texts.append(report.to_text())
    golden = pathlib.Path(__file__).parent / "data" / "check_reports_seed123.txt"
    assert "".join(texts) == golden.read_text()


def test_suite_counterexample_serialization():
    # reports carry serialized models when trials fail; build a fake failing
    # trial by running a claim against a tiny trial count and checking shape
    report = run_theorem_suite("prop3", 2, 3, seed=5)
    assert report.counterexamples == []
    text = report.to_text()
    assert text.startswith("check prop3:") and text.endswith("result: PASS 2/2\n")
