from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amschan import linalg, sources
from amschan.battery import ABC, rand_channel, rand_source
from amschan.channels import cascade, hookup
from amschan.errors import AlphabetMismatchError, InvariantError, PreconditionError
from amschan.gallery import (
    absorbing_source,
    constant_source,
    cycle_source,
    iid_uniform,
    lazy_two_state,
    two_loop_source,
)
from amschan.linalg import SparseMatrix, vec_mat
from amschan.oracle import (
    ams_evidence_by_words,
    brute_force_event_prob,
    brute_force_word_probs,
    dense_bareiss,
    mat_eq,
    mat_mul,
    product_recurrence_defect,
)
from amschan.rng import SplitMix64
from amschan.seqcore import Alphabet, event, full_event, sort_words
from amschan.sources import (
    FsmSource,
    RecurrenceVerdict,
    ams_evidence,
    are_equivalent,
    as_float_source,
    asymptotic_support,
    asymptotically_dominates,
    cesaro_limit,
    class_decomposition,
    classify_source,
    cyl_prob,
    dominates,
    equivalence_witness,
    event_prob,
    is_ergodic,
    is_recurrent,
    is_stationary,
    positive_words,
    recurrence_defect,
    shifted_source,
    stationary_mean,
    with_init,
)
from families import counted, reducible_chain

AB = Alphabet(("a", "b"))
F = Fraction


# ---------------------------------------------------------------------------
# cylinder evaluation
# ---------------------------------------------------------------------------


def test_cyl_prob_deterministic_cycle(s1):
    assert cyl_prob(s1, ("a", "b")) == 1
    assert cyl_prob(s1, ("b",)) == 0
    assert cyl_prob(s1, ()) == 1


def test_cyl_prob_iid(s3):
    for w in s3.alphabet.words(3):
        assert cyl_prob(s3, w) == F(1, 8)


def test_cyl_prob_alphabet_mismatch(s3):
    with pytest.raises(AlphabetMismatchError):
        cyl_prob(s3, ("z",))


def test_event_prob_examples(s1, s3):
    assert event_prob(s3, full_event(AB, 2)) == 1
    assert event_prob(s1, event(AB, [("a", "a")])) == 0
    assert event_prob(s3, event(AB, [("a", "a"), ("a", "b")])) == F(1, 2)


@pytest.mark.parametrize("seed", [1, 5, 9])
def test_float_event_prob_adds_words_in_canonical_order(seed):
    """A float event mass is its words' masses added left to right from
    int 0 in canonical order, not in the event's set order, which follows
    the hash seed: on these models and events the set order sums to other
    floats under PYTHONHASHSEED 0 and 1.  The path-enumeration oracle adds
    in the same order."""
    src = as_float_source(rand_source(SplitMix64(seed), ABC, 5, zero_prob=0.2, denom=97))
    for depth in (2, 3):
        words = sort_words(ABC.words(depth), ABC)
        table = brute_force_word_probs(src, depth)
        for e in (full_event(ABC, depth), event(ABC, words[::2])):
            want, brute = 0, 0
            for w in sort_words(e.words, ABC):
                want = want + cyl_prob(src, w)
                brute = brute + table.get(w, 0)
            assert repr(event_prob(src, e)) == repr(want)
            assert repr(brute_force_event_prob(src, e)) == repr(brute)


def test_conservation_and_consistency():
    rng = SplitMix64(17)
    for _ in range(10):
        src = rand_source(rng, AB, n_states=3)
        for depth in (1, 2, 3):
            assert sum(cyl_prob(src, w) for w in AB.words(depth)) == 1
        for w in AB.words(2):
            assert cyl_prob(src, w) == sum(cyl_prob(src, w + (a,)) for a in AB)


def test_shifted_source(s1, s2):
    assert cyl_prob(shifted_source(s1, 1), ("b",)) == 1
    assert shifted_source(s1, 0) is s1
    assert cyl_prob(shifted_source(s2, 2), ("a",)) == 0
    # shift agrees with the event-level preimage
    from amschan.seqcore import shift_preimage

    e = event(AB, [("a", "b")])
    for n in (1, 2, 3):
        assert event_prob(shifted_source(s2, n), e) == event_prob(
            s2, shift_preimage(e, n)
        )


# ---------------------------------------------------------------------------
# Cesaro limits and stationary means
# ---------------------------------------------------------------------------


def test_cesaro_period_two():
    p = ((F(0), F(1)), (F(1), F(0)))
    limit = cesaro_limit(p).matrix
    assert limit == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))


def test_cesaro_absorbing():
    p = ((F(0), F(1)), (F(0), F(1)))
    assert cesaro_limit(p).matrix == ((F(0), F(1)), (F(0), F(1)))


def test_cesaro_two_state_exact_and_oracle():
    # frozen expectation (1/3, 2/3) per row; cross-checked two independent
    # ways: long-run averaging of matrix powers and the exact fixed-point
    # equations of the limit itself.
    p = ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
    limit = cesaro_limit(p).matrix
    assert limit == ((F(1, 3), F(2, 3)), (F(1, 3), F(2, 3)))

    pf = tuple(tuple(float(x) for x in row) for row in p)
    acc = [[0.0, 0.0], [0.0, 0.0]]
    cur = ((1.0, 0.0), (0.0, 1.0))
    n = 10_000
    for _ in range(n):
        for i in range(2):
            for j in range(2):
                acc[i][j] += cur[i][j]
        cur = mat_mul(cur, pf)
    for i in range(2):
        for j in range(2):
            assert abs(acc[i][j] / n - float(limit[i][j])) <= 1e-3
    # exact stationarity of the computed row
    assert vec_mat(limit[0], p) == limit[0]


def test_cesaro_identities_random_including_degenerate():
    rng = SplitMix64(23)
    for k in range(25):
        n = 2 + rng.randint(3)
        zero = 0.0 if k % 3 == 0 else 0.5
        rows = tuple(rng.rational_row(n, 12, zero) for _ in range(n))
        if k % 5 == 0:  # force a permutation (periodic) matrix
            perm = sorted(range(n), key=lambda i: rng.next_u64())
            rows = tuple(
                tuple(F(1) if j == perm[i] else F(0) for j in range(n))
                for i in range(n)
            )
        limit = cesaro_limit(rows).matrix
        for row in limit:
            assert sum(row) == 1 and all(x >= 0 for x in row)
        assert mat_eq(mat_mul(limit, rows), limit)
        assert mat_eq(mat_mul(rows, limit), limit)
        assert mat_eq(mat_mul(limit, limit), limit)


def test_cesaro_cache_keeps_arithmetic_modes_apart():
    # Fraction(1,2) == 0.5, so equal-valued exact and float matrices must
    # not share a memoization slot: exact callers must get exact rows back
    pf = ((0.5, 0.5), (0.25, 0.75))
    pe = ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
    rf = cesaro_limit(pf)
    re = cesaro_limit(pe)
    assert all(isinstance(x, F) for row in re.matrix for x in row)
    assert all(isinstance(x, float) for row in rf.matrix for x in row)


def test_cesaro_rejects_non_stochastic():
    with pytest.raises(InvariantError):
        cesaro_limit(((F(1, 2), F(1, 4)), (F(0), F(1))))


def float_average(trans, log_n: int):
    """(1/N) sum_{k<N} P^k in floats for N = 2**log_n, by doubling:
    S_2m = S_m + S_m P^m."""
    n = len(trans)
    power = tuple(tuple(map(float, row)) for row in trans)
    total = tuple(tuple(float(i == j) for j in range(n)) for i in range(n))
    for _ in range(log_n):
        total = tuple(
            tuple(a + b for a, b in zip(r, s)) for r, s in zip(total, mat_mul(total, power))
        )
        power = mat_mul(power, power)
    return [[x / 2**log_n for x in row] for row in total]


@settings(max_examples=60)
@given(st.integers(0, 2**32), st.integers(3, 6), st.integers(1, 3))
def test_cesaro_limit_of_reducible_chains(seed, n, n_classes):
    trans, classes = reducible_chain(SplitMix64(seed), n, n_classes)
    limit = cesaro_limit(trans)
    deco, pi = limit.decomposition, limit.matrix
    assert {frozenset(deco.sccs[c]) for c in deco.closed} == classes
    for row, absorb in zip(pi, deco.absorb):
        assert sum(row) == 1 and all(x >= 0 for x in row)
        assert sum(absorb) == 1
        # the mass the limit row puts on each closed class is the absorption
        assert [sum(row[s] for s in deco.sccs[c]) for c in deco.closed] == list(absorb)
    assert mat_mul(pi, trans) == mat_mul(trans, pi) == mat_mul(pi, pi) == pi
    # the identities also hold for wrong limits (every row one class's law),
    # so the partial average is the oracle; its distance to the limit is
    # O(1/N), below 22/N on 1500 chains of this family
    for row, avg in zip(pi, float_average(trans, 10)):
        assert all(abs(float(x) - y) <= 32 / 1024 for x, y in zip(row, avg))
    # ergodicity is read off the chain graph: from a point mass it holds iff
    # the limit row charges exactly one closed class, listed in class order
    n = len(trans)
    src = FsmSource(AB, tuple(map(str, range(n))), (F(1),) + (F(0),) * (n - 1), trans, ("a",) * n)
    for i, row in enumerate(pi):
        charged = tuple(
            tuple(str(s) for s in deco.sccs[c])
            for c in deco.closed
            if sum(row[s] for s in deco.sccs[c])
        )
        verdict = is_ergodic(with_init(src, tuple(F(i == j) for j in range(n))))
        assert verdict.ergodic == (len(charged) == 1)
        assert verdict.positive_classes == charged


@settings(max_examples=60)
@given(st.integers(0, 2**32), st.integers(3, 9), st.integers(1, 3))
def test_float_cesaro_limit_of_reducible_chains(seed, n, n_classes):
    # the float chain has the exact chain's closed classes and, within 1e-9,
    # its limit
    trans, classes = reducible_chain(SplitMix64(seed), n, n_classes)
    exact = cesaro_limit(trans).matrix
    limit = cesaro_limit(tuple(tuple(map(float, row)) for row in trans))
    deco = limit.decomposition
    assert {frozenset(deco.sccs[c]) for c in deco.closed} == classes
    for row, exact_row in zip(limit.matrix, exact):
        assert all(abs(x - float(y)) <= 1e-9 for x, y in zip(row, exact_row))
    assert not any(type(x) is Fraction for row in limit.matrix for x in row)


def float_reference(trans, order, reach):
    """(absorb, class laws) of a float chain whose closed classes are
    `order`, each from one dense float system solved by `linalg.solve` or
    `linalg.solve_columns`.  I - Q has each entry set once, its diagonal to
    1 - p of the state's self-loop; b_C adds the steps into C left to right;
    a law solves pi (P - I) = 0 on all but the last member's column and
    sum(pi) = 1.  h(s, C) is kept where `reach[s][k]` is true, else int 0,
    and is int 1 in C; a law is 0 off its class."""
    n = len(trans)
    laws = []
    for members in order:
        pos = {s: k for k, s in enumerate(members)}
        last = len(members) - 1
        a = [[-1.0 if i == k else 0.0 for i in range(last + 1)] for k in range(last)]
        for i, s in enumerate(members):
            for j, p in enumerate(trans[s]):
                if p > 0 and pos[j] < last:
                    a[pos[j]][i] = p - 1 if j == s else p
        law = [0] * n
        for s, p in zip(members, linalg.solve([*a, [1.0] * len(members)], [0.0] * last + [1.0])):
            law[s] = p
        laws.append(tuple(law))
    target = {s: k for k, members in enumerate(order) for s in members}
    unknown = {s: i for i, s in enumerate(s for s in range(n) if s not in target)}
    a = [[0] * len(unknown) for _ in unknown]
    cols = [[0] * len(unknown) for _ in order]
    for s, i in unknown.items():
        a[i][i] = 1
        for j, p in enumerate(trans[s]):
            if p <= 0:
                continue
            if j == s:
                a[i][i] = 1 - p
            elif j in unknown:
                a[i][unknown[j]] = -p
            else:
                b = cols[target[j]]
                b[i] = b[i] + p if b[i] else p
    hs = linalg.solve_columns(a, cols)
    absorb = []
    for s in range(n):
        if s in unknown:
            absorb.append(tuple(h[unknown[s]] if reach[s][k] else 0 for k, h in enumerate(hs)))
        else:
            absorb.append(tuple(int(target[s] == k) for k in range(len(order))))
    return tuple(absorb), tuple(laws)


@settings(max_examples=80)
@given(st.integers(0, 2**32), st.integers(3, 12), st.integers(1, 3), st.booleans())
def test_float_limits_match_dense_float_reference(seed, n, n_classes, periodic):
    # the float absorption rows and class laws are built on the exact
    # solve's equations with d = 1; by repr, they are the dense float
    # systems' solutions, bit for bit
    trans, classes = reducible_chain(SplitMix64(seed), n, n_classes, periodic=periodic)
    floats = tuple(tuple(map(float, row)) for row in trans)
    assert all(x >= 0 for row in floats for x in row)  # no rounding residue
    exact = class_decomposition(trans)
    order = [exact.sccs[c] for c in exact.closed]
    assert set(map(frozenset, order)) == classes
    absorb, laws = float_reference(floats, order, exact.absorb)
    src = FsmSource(AB, tuple(map(str, range(n))), (1.0,) + (0.0,) * (n - 1), floats, ("a",) * n)
    for deco in (class_decomposition(floats), class_decomposition(src)):
        assert [deco.sccs[c] for c in deco.closed] == order
        assert repr(deco.absorb) == repr(absorb)
        assert repr(deco.classdist) == repr(laws)


def test_float_limit_of_one_state_classes_holds_no_fraction():
    # a one-state closed class solves the all-int system [[1]] x = [1]
    limit = cesaro_limit(((0.5, 0.5, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    assert [list(map(repr, row)) for row in limit.matrix] == [
        ["0", "1.0", "0"], ["0", "1.0", "0"], ["0", "0", "1.0"]
    ]
    laws = limit.decomposition.classdist
    assert [repr(x) for dist in laws for x in dist if x] == ["1.0", "1.0"]


def test_class_decomposition_structure(s2):
    deco = class_decomposition(s2.trans)
    assert len(deco.closed) == 1
    closed_states = deco.sccs[deco.closed[0]]
    assert closed_states == (1,)
    # absorption rows sum to one
    for row in deco.absorb:
        assert sum(row) == 1


def test_stationary_mean_examples(s1, s2):
    m1 = stationary_mean(s1)
    assert m1.init == (F(1, 2), F(1, 2))
    assert cyl_prob(m1, ("a", "b")) == F(1, 2)
    m2 = stationary_mean(s2)
    assert cyl_prob(m2, ("a",)) == 0
    assert cyl_prob(m2, ("b",) * 4) == 1
    # stationarizing is idempotent on already-stationary inputs
    m3 = stationary_mean(lazy_two_state())
    assert stationary_mean(m3).init == m3.init


def test_finite_n_partial_mean_cycle(s1):
    # the n-step partial mean of [a] under the alternating source is
    # ceil(n/2)/n, so the deviation from 1/2 is at most 1/(2n)
    from amschan.oracle import cesaro_partial

    e = event(AB, [("a",)])
    for n in (1, 2, 3, 5, 8, 50):
        partial = cesaro_partial(s1, e, n)
        assert partial == F(-(-n // 2), n)
        assert abs(partial - F(1, 2)) <= F(1, 2 * n)


def ams_probe_models() -> list[FsmSource]:
    """Seeded exact and float 2-6-state sources, hookups and cascades with
    4-9-symbol joint alphabets, periodic and absorbing chains, and a source
    with a symbol that no state carries."""
    models = [
        cycle_source(("a", "b", "c")),
        absorbing_source(),
        lazy_two_state(),
        FsmSource(ABC, ("s0", "s1"), (F(1, 2), F(1, 2)), ((F(0), F(1)), (F(1), F(0))), ("a", "b")),
    ]
    for seed in range(10):
        rng = SplitMix64(seed)
        a, b = (AB, ABC)[seed % 2], (AB, ABC)[seed // 2 % 2]
        src = rand_source(rng, a, n_states=2 + seed % 5, zero_prob=0.5)
        ch = rand_channel(rng, a, b, zero_prob=0.4)
        joint = hookup(src, ch).source
        models += [src, as_float_source(src), joint, as_float_source(joint)]
        if seed % 3 == 0:
            second = rand_channel(rng, b, a, zero_prob=0.4)
            models.append(hookup(src, cascade(ch, second)).source)
    return models


def test_ams_evidence_matches_word_by_word():
    for src in ams_probe_models():
        for depth in (1, 2):
            assert repr(ams_evidence(src, depth)) == repr(ams_evidence_by_words(src, depth))


def orbit_length(m: SparseMatrix, v) -> int:
    """The number of distinct vectors v M^k, told apart by entries and
    types, up to 256."""
    seen = set()
    while (v, tuple(map(type, v))) not in seen and len(seen) < 256:
        seen.add((v, tuple(map(type, v))))
        v = m.step(v)
    return len(seen)


def test_ams_evidence_steps_each_prefix_once(monkeypatch):
    models = ams_probe_models()
    orbits = [orbit_length(SparseMatrix.of(m.trans), as_float_source(m).init) for m in models]
    calls = Counter()
    phase = ["battery"]
    step = SparseMatrix.step

    def counted(self, v):
        calls[phase[0]] += 1
        return step(self, v)

    def in_phase(name, fn):
        def run(*args):
            outer, phase[0] = phase[0], name
            try:
                return fn(*args)
            finally:
                phase[0] = outer

        return run

    monkeypatch.setattr(SparseMatrix, "step", counted)
    monkeypatch.setattr(SparseMatrix, "partial_mean", in_phase("mean", SparseMatrix.partial_mean))
    monkeypatch.setattr(sources, "stationary_mean", in_phase("solve", sources.stationary_mean))
    for src, orbit in zip(models, orbits):
        for depth in (1, 2, 3):
            calls.clear()
            ams_evidence(src, depth)
            # one step per word shorter than the depth, for the stationary
            # mean and each of the two partial means
            size = len(src.alphabet.symbols)
            assert calls["battery"] <= 3 * sum(size**k for k in range(1, depth))
            assert calls["mean"] <= orbit


# ---------------------------------------------------------------------------
# equality and stationarity
# ---------------------------------------------------------------------------


def test_are_equivalent_iid_presentations(s3):
    # the same fair-coin law presented on two and on four states (state
    # emits its label, so a literal one-state coin cannot exist here)
    coin = FsmSource(
        AB,
        ("x", "y"),
        (F(1, 2), F(1, 2)),
        ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
        ("a", "b"),
    )
    assert are_equivalent(coin, s3)
    fat = FsmSource(
        AB,
        ("x1", "x2", "y1", "y2"),
        (F(1, 4),) * 4,
        ((F(1, 4),) * 4,) * 4,
        ("a", "a", "b", "b"),
    )
    assert are_equivalent(fat, s3)


def test_are_equivalent_witness(s1):
    assert not are_equivalent(s1, shifted_source(s1, 1))
    assert equivalence_witness(s1, shifted_source(s1, 1)) == ("a",)
    assert are_equivalent(s1, shifted_source(s1, 2))


def test_are_equivalent_is_equivalence_relation():
    rng = SplitMix64(31)
    sources = [rand_source(rng, AB, n_states=2) for _ in range(6)]
    for a in sources:
        assert are_equivalent(a, a)
    for a in sources:
        for b in sources:
            assert are_equivalent(a, b) == are_equivalent(b, a)
    # transitivity spot check via stationarized copies
    for a in sources:
        m = stationary_mean(a)
        m2 = stationary_mean(m)
        if are_equivalent(a, m) and are_equivalent(m, m2):
            assert are_equivalent(a, m2)


def test_is_stationary(s1, s3):
    assert is_stationary(s3)
    assert not is_stationary(s1)
    assert is_stationary(stationary_mean(s1))
    assert is_stationary(two_loop_source())


# ---------------------------------------------------------------------------
# recurrence
# ---------------------------------------------------------------------------


def test_recurrence_defect_examples(s1, s2, s3):
    assert recurrence_defect(s2, event(AB, [("a",)])) == 1
    assert recurrence_defect(s3, event(AB, [("a", "a")])) == 0
    assert recurrence_defect(s1, event(AB, [("a",)])) == 0


def test_recurrence_defect_of_int_chains_keeps_ints():
    # a deterministic int step from an int start escapes with int 0 or 1,
    # a solved hitting probability makes a Fraction, as on the full product
    zero_one = FsmSource(
        AB, ("0", "1", "2"), (1, 0, 0), ((0, 1, 0), (0, 0, 1), (0, 0, 1)), ("a", "b", "b")
    )
    split = with_init(zero_one, (F(1, 2), F(1, 2), 0))
    lazy = FsmSource(AB, ("0", "1"), (1, 0), ((F(1, 2), F(1, 2)), (1, 0)), ("a", "b"))
    for src, words, defect in (
        (zero_one, [("a",)], "1"),
        (zero_one, [("a", "b")], "1"),
        (split, [("a",)], "Fraction(1, 2)"),
        (lazy, [("a",)], "Fraction(0, 1)"),
        (lazy, [("a", "b")], "Fraction(0, 1)"),
    ):
        e = event(AB, words)
        assert repr(recurrence_defect(src, e)) == repr(product_recurrence_defect(src, e)) == defect


def test_recurrence_defect_empty_event(s3):
    from amschan.seqcore import empty_event

    assert recurrence_defect(s3, empty_event(AB, 2)) == 0


def test_recurrence_defect_partial_escape():
    # from the start, mass 1/2 never sees another 'a': defect is exactly 1/2
    src = FsmSource(
        AB,
        ("t", "la", "lb"),
        (F(1),) + (F(0), F(0)),
        (
            (F(0), F(1, 2), F(1, 2)),
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
        ),
        ("a", "a", "b"),
    )
    assert recurrence_defect(src, event(AB, [("a",)])) == F(1, 2)


def test_recurrence_defect_matches_union_bound(s2):
    # the defect of a union is bounded by the sum of defects
    e1, e2 = event(AB, [("a",)]), event(AB, [("b",)])
    u = event(AB, [("a",), ("b",)])
    assert recurrence_defect(s2, u) <= recurrence_defect(s2, e1) + recurrence_defect(
        s2, e2
    )


def test_is_recurrent_examples(s1, s2, s3):
    verdict = is_recurrent(s2, 1)
    assert not verdict.recurrent and verdict.witness == ("a",)
    assert is_recurrent(s3, 5).recurrent
    assert is_recurrent(s1, 4).recurrent


def test_is_recurrent_agrees_with_defects():
    rng = SplitMix64(41)
    for _ in range(15):
        src = rand_source(rng, AB, n_states=3, zero_prob=0.45)
        verdict = is_recurrent(src, 3)
        defects = {
            w: recurrence_defect(src, event(AB, [w]))
            for w in positive_words(src, 3)
        }
        assert verdict.recurrent == all(d == 0 for d in defects.values())
        if not verdict.recurrent:
            assert defects[verdict.witness] > 0


# ---------------------------------------------------------------------------
# support, domination, ergodicity
# ---------------------------------------------------------------------------


def test_asymptotic_support_examples(s1, s2, s3):
    assert asymptotic_support(s2, 2) == {("b",), ("b", "b")}
    assert asymptotic_support(s3, 2) == set(AB.words(1)) | set(AB.words(2))
    assert asymptotic_support(s1, 1) == {("a",), ("b",)}


def test_asymptotic_support_matches_mean_support():
    rng = SplitMix64(49)
    for _ in range(10):
        src = rand_source(rng, AB, n_states=3, zero_prob=0.4)
        mean = stationary_mean(src)
        assert asymptotic_support(src, 3) == set(positive_words(mean, 3))


def test_dominates_examples(s1, s2):
    v = dominates(stationary_mean(s2), s2, 1)
    assert not v.holds and v.witness == ("a",)
    assert dominates(stationary_mean(s1), s1, 4).holds
    assert dominates(s2, s2, 3).holds


def test_asymptotically_dominates_examples(s2, s3):
    assert asymptotically_dominates(stationary_mean(s2), s2, 3).holds
    point = constant_source("b", AB)
    v = asymptotically_dominates(point, s3, 1)
    assert not v.holds and v.witness == ("a",)
    with pytest.raises(PreconditionError):
        asymptotically_dominates(s2, s3, 2)  # non-stationary dominator rejected


def test_every_source_asymptotically_dominated_by_mean_with_decay_oracle():
    # independent oracle: the shifted mass of every mean-null word must
    # decay below 1e-6; transient leak rates of random chains can be slow,
    # so the horizon is generous and the propagation runs in floats
    from amschan.sources import as_float_source

    rng = SplitMix64(53)
    for _ in range(10):
        src = rand_source(rng, AB, n_states=3, zero_prob=0.45)
        mean = stationary_mean(src)
        assert asymptotically_dominates(mean, src, 3).holds
        null_words = [
            w
            for k in (1, 2, 3)
            for w in AB.words(k)
            if cyl_prob(mean, w) == 0
        ]
        probe = as_float_source(src)
        for _ in range(400):
            probe = shifted_source(probe, 1)
        for w in null_words:
            assert cyl_prob(probe, w) <= 1e-6


def test_is_ergodic_examples(s1, s3):
    assert is_ergodic(s3).ergodic
    assert is_ergodic(s1).ergodic
    verdict = is_ergodic(two_loop_source())
    assert not verdict.ergodic
    assert len(verdict.positive_classes) == 2
    assert verdict.caveat


def test_float_ergodicity_counts_classes_reached_with_tiny_mass(tiny_mass_chain):
    # B gets 1e-10 < EPS of the long-run mass but is reachable, so it is
    # charged in float mode as in exact mode.
    for src in (tiny_mass_chain(1e-5, 1.0), tiny_mass_chain(F(1, 10**5), F(1))):
        verdict = is_ergodic(src)
        assert not verdict.ergodic
        assert verdict.positive_classes == (("B",), ("A",))


def test_float_recurrence_refutation_overrides_stationarity(tiny_mass_chain):
    # every cylinder moves by less than EPS under the shift, so the float
    # stationarity test passes; "a a" is refuted on the chain graph (the
    # chain can enter B, which spells only b), and a stationary measure is
    # recurrent, so the float verdict is non-stationary as in exact mode
    exact = classify_source(tiny_mass_chain(F(1, 10**5), F(1)), 3)
    verdict = classify_source(tiny_mass_chain(1e-5, 1.0), 3)
    assert is_stationary(tiny_mass_chain(1e-5, 1.0))
    for v in (exact, verdict):
        assert not v.stationary
        assert v.recurrent == RecurrenceVerdict(False, 3, ("a", "a"))


def test_exact_domination_verdicts_on_tiny_transient_mass(tiny_mass_chain):
    # "a a b" has mass 1/10^10 but the stationary mean (mass on A and B
    # only) gives it none; every word the closed classes spell has positive
    # mean mass.  Float mode reads positivity off the supports and agrees
    # (test_float_domination_verdicts_on_tiny_transient_mass).
    verdict = classify_source(tiny_mass_chain(F(1, 10**5), F(1)), 3)
    assert verdict.dominated_by_mean == sources.Verdict(False, 3, ("a", "a", "b"))
    assert verdict.asymptotically_dominated == sources.Verdict(True, 3)


def test_float_domination_verdicts_on_tiny_transient_mass(tiny_mass_chain):
    # B's long-run mass of 1e-10 is below EPS, but B is reachable: the float
    # mean keeps it, so both float verdicts are the exact ones
    exact = classify_source(tiny_mass_chain(F(1, 10**5), F(1)), 3)
    verdict = classify_source(tiny_mass_chain(1e-5, 1.0), 3)
    assert verdict.dominated_by_mean == exact.dominated_by_mean
    assert verdict.asymptotically_dominated == exact.asymptotically_dominated
    init = stationary_mean(tiny_mass_chain(1e-5, 1.0)).init
    assert abs(sum(init) - 1) <= 1e-15
    assert init[3] > 0


def test_float_rounding_residue_is_no_transition():
    # 1 - 0.9 - 0.1 is -2.8e-17, which the stochasticity check admits; it is
    # no edge 0 -> 2, so {0, 1} stays closed and keeps all the mass
    residue = 1 - 0.9 - 0.1
    assert residue < 0
    trans = ((0.9, 0.1, residue), (0.5, 0.5, 0.0), (0.0, 0.0, 1.0))
    src = FsmSource(AB, ("s0", "s1", "s2"), (1.0, 0.0, 0.0), trans, ("a", "a", "b"))
    assert is_ergodic(src).positive_classes == (("s0", "s1"),)
    assert positive_words(src, 2) == [("a",), ("a", "a")]
    pi = cesaro_limit(trans).matrix
    assert pi[0][2] == 0 and pi[1][2] == 0
    mean = stationary_mean(src)
    assert mean.init[2] == 0 and abs(sum(mean.init) - 1) <= 1e-15
    assert dominates(mean, src, 3).holds
    assert asymptotically_dominates(mean, src, 3).holds
    # nor does a transient state's residue make an absorption target
    absorbing = tuple(tuple(float(i == j) for j in range(4)) for i in range(1, 4))
    pi = cesaro_limit(((0.2, 0.7, 0.1, residue), *absorbing)).matrix
    assert pi[0][0] == pi[0][3] == 0 and abs(pi[0][1] - 0.875) <= 1e-15
    # nor is a residue in the init part of its support
    start = FsmSource(AB, ("s0", "s1", "s2"), (0.5, 0.5, residue), trans, ("a", "a", "b"))
    assert positive_words(start, 2) == [("a",), ("a", "a")]
    assert is_ergodic(start).positive_classes == (("s0", "s1"),)
    assert dominates(mean, start, 3).holds
    assert asymptotically_dominates(mean, start, 3).holds


def test_float_rounding_residue_solves_as_zero():
    # t0 -> t1 with the residue 1 - 0.3 - 0.6 - 0.1 = -2.8e-17 is no step in
    # the absorption, class-law or avoidance solves either: the chain
    # solves as its twin with 0.0 there, h(t0, B) = 0.14285714285714288
    residue = 1 - 0.3 - 0.6 - 0.1
    assert residue < 0

    def chain(x):
        trans = (
            (0.3, x, 0.6, 0.1),
            (0.0, 0.5, 0.25, 0.25),
            (0.0, 0.0, 1.0, 0.0),
            (0.0, 0.0, 0.0, 1.0),
        )
        return FsmSource(AB, ("t0", "t1", "A", "B"), (1.0, 0.0, 0.0, 0.0), trans, tuple("aaab"))

    def solved(src):
        deco = class_decomposition(src)
        defect = recurrence_defect(src, event(AB, [("a",)]))
        return repr((stationary_mean(src).init, deco.absorb, deco.classdist, defect))

    assert solved(chain(residue)) == solved(chain(0.0))
    assert stationary_mean(chain(residue)).init[3] == 0.14285714285714288


def test_chain_results_are_cached_per_chain(monkeypatch):
    # the class laws are solved once per chain; the inits are not
    # stationary, so each mean reads them
    calls, real = [], sources._solve_chain_limit

    def counted(eng, graph):
        calls.append(eng)
        return real(eng, graph)

    monkeypatch.setattr(sources, "_solve_chain_limit", counted)
    src = lazy_two_state()
    classify_source(src, 3)
    stationary_mean(src)
    stationary_mean(with_init(src, (F(1, 2), F(1, 2))))
    assert len(calls) == 1
    # equal values in separately built chains share nothing
    for twin in (lazy_two_state(), lazy_two_state()):
        stationary_mean(twin)
    assert len(calls) == 3
    assert not is_ergodic(two_loop_source(F(1, 3)))
    assert len(calls) == 3


def test_cesaro_limit_is_one_object_per_chain(monkeypatch):
    # a float chain's means and decompositions read one solve, and PI is
    # built once per chain, also where an exact chain steps float inits
    solves, builds = [], []
    solve, build = sources._solve_chain_limit, sources._limit_matrix
    monkeypatch.setattr(sources, "_solve_chain_limit", lambda e, g: solves.append(e) or solve(e, g))
    monkeypatch.setattr(sources, "_limit_matrix", lambda deco: builds.append(deco) or build(deco))
    trans = ((0.5, 0.25, 0.25), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    src = FsmSource(AB, ("t", "a", "b"), (1.0, 0.0, 0.0), trans, ("a", "a", "b"))
    for _ in range(3):
        stationary_mean(src)
        class_decomposition(src)
    assert len(solves) == 1 and len(builds) == 1
    assert type(src._cache["cesaro"]) is sources._ChainLimit
    ints = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    src = FsmSource(AB, ("s0", "s1", "s2"), (0.5, 0.25, 0.25), ints, ("a", "b", "a"))
    assert sources.engine(src).exact and not src.is_exact
    means = {stationary_mean(with_init(src, (x, 0.5 - x, 0.5))).init for x in (0.0, 0.25, 0.5)}
    assert means == {(0.25, 0.25, 0.5)}
    assert len(solves) == 2 and len(builds) == 2
    assert type(src._cache["cesaro"]) is sources._ChainLimit


def test_exact_limits_never_reach_the_float_elimination(monkeypatch):
    # exact class laws and absorption probabilities solve on the rows'
    # integer forms; only a float chain calls `solve` or `solve_columns`
    calls = []
    for module in (linalg, sources):
        for name in ("solve", "solve_columns"):
            real = getattr(linalg, name)
            monkeypatch.setattr(
                module, name, lambda *args, real=real: calls.append(args) or real(*args)
            )
    fractions = (
        (F(1, 2), F(1, 4), F(1, 4), F(0)),
        (F(0), F(1, 3), F(2, 3), F(0)),
        (F(0), F(3, 5), F(2, 5), F(0)),
        (F(0), F(0), F(0), F(1)),
    )
    ints = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    for trans in (fractions, ints, reducible_chain(SplitMix64(4), 9, 3)[0]):
        n = len(trans)
        src = FsmSource(AB, tuple(map(str, range(n))), (F(1, n),) * n, trans, ("a",) * n)
        deco = class_decomposition(src)
        stationary_mean(src)
        class_decomposition(trans)
        assert all(type(x) is F for dist in deco.classdist for x in dist if x)
    # a one-state class's law is Fraction(1), and an int 2-cycle's halves
    assert repr(class_decomposition(ints).classdist) == repr(
        ((0, 0, F(1)), (F(1, 2), F(1, 2), 0))
    )
    assert calls == []
    class_decomposition(tuple(tuple(map(float, row)) for row in fractions))
    assert calls


def test_stationary_mean_eliminates_once_per_closed_class_plus_one(monkeypatch):
    # k class laws and, as the init charges states that reach two classes,
    # its one transposed system with one right-hand side, each one integer
    # elimination by `linalg.cramer_numerators`: the laws' built on integers
    # by `_class_stationary`, the init's by `sources._class_weights`
    calls, real = [], linalg.cramer_numerators

    def counted(rows, n_cols):
        calls.append(len(rows))
        return real(rows, n_cols)

    monkeypatch.setattr(linalg, "cramer_numerators", counted)
    monkeypatch.setattr(sources, "cramer_numerators", counted)
    checked = 0
    for seed in range(12):
        trans, classes = reducible_chain(SplitMix64(seed), 9, 2 + seed % 3)
        if sum(map(len, classes)) == len(trans):
            continue
        calls.clear()
        n = len(trans)
        states, init = tuple(map(str, range(n))), (F(1, n),) * n
        stationary_mean(FsmSource(AB, states, init, trans, ("a",) * n))
        assert len(calls) == len(classes) + 1
        checked += 1
    assert checked >= 6


def limit_step(src):
    """init times the Cesaro limit, as a sparse step of the dense matrix."""
    return SparseMatrix.of(cesaro_limit(src.trans).matrix).step(src.init)


def assert_mean_is_limit_step(src):
    assert repr(stationary_mean(src).init) == repr(limit_step(src))


@settings(max_examples=80)
@given(st.integers(0, 2**32), st.integers(1, 9), st.integers(1, 4))
def test_stationary_mean_is_the_limit_step(seed, n, n_classes):
    # the weighted sum of class laws equals the step by PI in value and type
    rng = SplitMix64(seed)
    trans, _ = reducible_chain(rng, n, min(n, n_classes))
    k = rng.randint(n)
    inits = [
        tuple(int(i == k) for i in range(n)),
        rng.rational_row(n, 12, 0.5),
        tuple(x or 0 for x in rng.rational_row(n, 12, 0.5)),  # int zeros
    ]
    src = FsmSource(AB, tuple(map(str, range(n))), inits[0], trans, ("a",) * n)
    for init in inits:
        assert_mean_is_limit_step(with_init(src, init))
    # a stationary init is its own mean
    mean = stationary_mean(with_init(src, inits[1]))
    assert_mean_is_limit_step(mean)
    assert stationary_mean(mean).init == mean.init
    # a chain given this chain's cache gets its own limit
    other, _ = reducible_chain(rng, n, 1)
    assert_mean_is_limit_step(FsmSource(AB, src.states, inits[1], other, src.labels, src._cache))


def split_states(trans, classes) -> list[int]:
    """The states that reach two closed classes or more, ascending."""
    out = []
    for s in range(len(trans)):
        seen, todo = {s}, [s]
        while todo:
            for j, p in enumerate(trans[todo.pop()]):
                if p and j not in seen:
                    seen.add(j)
                    todo.append(j)
        if sum(not seen.isdisjoint(c) for c in classes) > 1:
            out.append(s)
    return out


@settings(max_examples=60)
@given(st.integers(0, 2**32), st.integers(2, 4), st.booleans(), st.booleans())
def test_exact_means_of_transient_inits_are_the_limit_step(seed, n_classes, periodic, one_class):
    # the class weights of one transposed solve per init against the step by
    # the dense Cesaro limit, which reads the chain's full absorption solve
    rng = SplitMix64(seed)
    n = n_classes + 2 + rng.randint(10)
    trans, classes = reducible_chain(
        rng, n, n_classes, transient=2 + rng.randint(n - n_classes - 1),
        one_class=one_class, periodic=periodic,
    )
    closed = sorted(set().union(*classes))
    t = [s for s in range(n) if s not in closed]
    inits = [
        tuple(int(i == t[0]) for i in range(n)),  # one transient state, ints
        tuple(F(1, len(t)) if i in t else F(0) for i in range(n)),  # several
        # transient and closed states, Fractions among int zeros
        tuple(
            F(1, 2) if i == t[-1] else F(1, 2 * len(closed)) if i in closed else 0
            for i in range(n)
        ),
    ]
    src = FsmSource(AB, tuple(map(str, range(n))), inits[0], trans, ("a",) * n)
    for init in inits:
        assert_mean_is_limit_step(with_init(src, init))
    if one_class:
        # each transient state reaches only the first class
        mean = stationary_mean(with_init(src, inits[1])).init
        assert sum(any(mean[j] for j in c) for c in classes) == 1


def test_a_transient_state_that_reaches_one_class(monkeypatch):
    # t1 reaches only b, so its mass goes to b whole; t0 reaches both
    # classes, and t2 does through t0.  A mean solves one row per state that
    # reaches two classes, and only if its init charges one of them
    zero = F(0)
    trans = (
        (zero, F(1, 2), zero, F(1, 2), zero),
        (zero, F(1, 3), zero, zero, F(2, 3)),
        (F(1, 4), zero, zero, zero, F(3, 4)),
        (zero, zero, zero, F(1), zero),
        (zero, zero, zero, zero, F(1)),
    )
    src = FsmSource(AB, ("t0", "t1", "t2", "a", "b"), (0, 1, 0, 0, 0), trans, tuple("aabab"))
    calls = counted(monkeypatch, sources, "cramer_numerators")
    assert stationary_mean(src).init == (0, 0, 0, 0, 1)
    assert [(len(rows), width) for rows, width in calls] == [(1, 1)] * 2  # a and b
    for init in ((F(1, 2), 0, 0, F(1, 2), 0), (0, F(1, 2), F(1, 2), 0, 0)):
        calls.clear()
        stationary_mean(with_init(src, init))
        assert [(len(rows), width) for rows, width in calls] == [(2, 1)]  # t0 and t2
    for init in ((0, 1, 0, 0, 0), (F(1, 2), 0, F(1, 2), 0, 0), (F(1, 3), F(1, 3), 0, F(1, 3), 0)):
        assert_mean_is_limit_step(with_init(src, init))


@pytest.mark.parametrize("seed", range(6))
def test_an_exact_mean_solves_one_transposed_system_per_init(monkeypatch, seed):
    # the k class laws once per chain, then one elimination per init that
    # charges a state reaching two classes, with one right-hand side and one
    # row per such state; the full absorption system of k right-hand sides
    # is built only when a decomposition or PI reads it
    rng = SplitMix64(seed)
    trans, classes = reducible_chain(rng, 12, 2 + seed % 3, transient=6, periodic=seed % 2 == 1)
    k, n = len(classes), len(trans)
    t = [s for s in range(n) if not any(s in c for c in classes)]
    split = split_states(trans, classes)
    states, labels = tuple(map(str, range(n))), ("a",) * n
    src = FsmSource(AB, states, tuple(F(int(i == split[0])) for i in range(n)), trans, labels)
    calls = counted(monkeypatch, sources, "cramer_numerators")
    builds = counted(monkeypatch, sources, "_hitting_solve")
    mean = stationary_mean(src)
    assert [width for _, width in calls] == [1] * (k + 1) and len(calls[-1][0]) == len(split)
    limit = src._cache["cesaro"]
    assert builds == [] and "absorption" not in vars(limit) and "matrix" not in vars(limit)
    # a second init on the chain makes its own solve and no class law
    calls.clear()
    stationary_mean(with_init(src, tuple(F(1, 6) if i in t else F(0) for i in range(n))))
    assert [(len(rows), width) for rows, width in calls] == [(len(split), 1)]
    # an init on a closed class, on a fresh chain, solves the class laws only
    calls.clear()
    member = next(min(c) for c in classes if len(c) > 1)
    on_class = FsmSource(AB, states, tuple(int(i == member) for i in range(n)), trans, labels)
    stationary_mean(on_class)
    assert len(calls) == k and builds == []
    # so does a transient init on a chain whose transient states reach one class
    calls.clear()
    one, one_classes = reducible_chain(rng, 12, k, transient=6, one_class=True)
    assert split_states(one, one_classes) == []
    init = tuple(F(0) if any(i in c for c in one_classes) else F(1, 6) for i in range(n))
    one_mean = stationary_mean(FsmSource(AB, states, init, one, labels))
    assert len(calls) == k and builds == []
    assert repr(one_mean.init) == repr(limit_step(FsmSource(AB, states, init, one, labels)))
    # the first decomposition builds the full system once, a second none
    calls.clear()
    builds.clear()
    deco = class_decomposition(src)
    assert len(builds) == 1 and [(len(rows), width) for rows, width in calls] == [(len(t), k)]
    assert "absorption" in vars(limit) and class_decomposition(src) == deco
    assert len(builds) == 1 and len(calls) == 1
    assert repr(mean.init) == repr(limit_step(src))


def dense_limit(trans, order):
    """(absorb, class laws, PI) of an exact chain whose closed classes are
    `order`, from dense systems solved by `oracle.dense_bareiss`, with the
    library's types: h(s, C) an int 1 in C, a Fraction where a transient s
    reaches C and an int 0 elsewhere; a law Fractions on its class."""
    n = len(trans)
    transient = [s for s in range(n) if not any(s in members for members in order)]
    laws = []
    for members in order:
        # pi (P - I) = 0 on all but the last member's column, sum(pi) = 1
        a = [[trans[i][j] - (i == j) for i in members] for j in members[:-1]]
        (x,) = dense_bareiss([*a, [1] * len(members)], [[0] * (len(members) - 1) + [1]])
        law = [0] * n
        for s, p in zip(members, x):
            law[s] = p
        laws.append(tuple(law))
    a = [[(i == j) - trans[i][j] for j in transient] for i in transient]
    hs = dense_bareiss(a, [[sum(trans[i][j] for j in c) for i in transient] for c in order])
    absorb = []
    for s in range(n):
        if s in transient:
            absorb.append(tuple(h[transient.index(s)] or 0 for h in hs))
        else:
            absorb.append(tuple(int(s in members) for members in order))
    pi = tuple(
        tuple(
            next((h * law[j] for h, law, c in zip(row, laws, order) if j in c and h), 0)
            for j in range(n)
        )
        for row in absorb
    )
    return tuple(absorb), tuple(laws), pi


def dense_mean(init, pi, order):
    """init times PI, Fractions on the closed classes and zeros elsewhere
    that are Fractions when the init holds one."""
    zero = F(0) if F in map(type, init) else 0
    closed = set().union(*order)
    return tuple(
        F(sum(x * row[j] for x, row in zip(init, pi))) if j in closed else zero
        for j in range(len(init))
    )


@settings(max_examples=50)
@given(
    st.integers(0, 2**32),
    st.integers(6, 40),
    st.integers(1, 4),
    st.sampled_from(("random", "no transient state", "one class reached")),
)
def test_exact_limits_match_dense_oracle(seed, n, n_classes, shape):
    # the integer absorption solve against dense Fraction systems, by repr,
    # so that every int and Fraction is pinned with its value
    rng = SplitMix64(seed)
    transient = 0 if shape == "no transient state" else 1 + rng.randint(n - n_classes)
    trans, classes = reducible_chain(
        rng, n, n_classes, transient=transient, one_class=shape == "one class reached"
    )
    labels = tuple(rng.choice(("a", "b")) for _ in range(n))
    k = rng.randint(n)
    inits = [
        tuple(int(i == k) for i in range(n)),
        rng.rational_row(n, 12, 0.5),
        tuple(x or 0 for x in rng.rational_row(n, 12, 0.7)),  # int zeros
    ]
    src = FsmSource(AB, tuple(map(str, range(n))), inits[1], trans, labels)
    deco = class_decomposition(src)
    order = [deco.sccs[c] for c in deco.closed]
    assert set(map(frozenset, order)) == classes
    absorb, laws, pi = dense_limit(trans, order)
    for got in (deco, class_decomposition(trans)):
        assert repr(got.absorb) == repr(absorb)
        assert repr(got.classdist) == repr(laws)
    assert repr(cesaro_limit(trans).matrix) == repr(pi)
    for init in inits:
        assert repr(stationary_mean(with_init(src, init)).init) == repr(dense_mean(init, pi, order))
    for length in (1, 2):
        positive = [w for w in positive_words(src, length) if len(w) == length]
        e = event(AB, {rng.choice(positive) for _ in range(1 + rng.randint(2))})
        for init in inits:
            s = with_init(src, init)
            assert repr(recurrence_defect(s, e)) == repr(product_recurrence_defect(s, e))


def test_stationary_mean_without_transient_states():
    # one-state closed classes and a two-cycle, no transient state
    zero, half = F(0), F(1, 2)
    trans = (
        (F(1), zero, zero, zero),
        (zero, F(1), zero, zero),
        (zero, zero, zero, F(1)),
        (zero, zero, F(1), zero),
    )
    src = FsmSource(AB, ("0", "1", "2", "3"), (half, zero, half, zero), trans, ("a", "b", "a", "b"))
    assert stationary_mean(src).init == (half, 0, F(1, 4), F(1, 4))
    for init in ((0, 0, 1, 0), (F(1, 3), F(1, 3), 0, F(1, 3))):
        assert_mean_is_limit_step(with_init(src, init))
    # an int chain keeps int zeros for an int init and floats for a float one
    ints = FsmSource(AB, ("0", "1"), (0, 1), ((1, 0), (1, 0)), ("a", "b"))
    assert repr(stationary_mean(ints).init) == "(Fraction(1, 1), 0)"
    for init in ((0, 1), (0.5, 0.5)):
        assert_mean_is_limit_step(with_init(ints, init))


def test_classify_source_consistency(s1, s2, s3):
    for src in (s1, s2, s3, lazy_two_state(), two_loop_source()):
        verdict = classify_source(src, 3)
        if verdict.stationary:
            assert verdict.recurrent.recurrent
        assert verdict.ams.converged
        assert verdict.asymptotically_dominated.holds
        # finite sources: recurrence iff domination by the stationary mean,
        # on this battery
        assert verdict.recurrent.recurrent == verdict.dominated_by_mean.holds


def test_degenerate_inits_allowed():
    # zero-mass states are retained, not pruned; the first symbol is the
    # initial state's label, later symbols mix again
    src = with_init(iid_uniform(), (F(1), F(0)))
    assert cyl_prob(src, ("a",)) == 1
    assert cyl_prob(src, ("a", "b")) == F(1, 2)
    assert len(src.states) == 2


def test_source_validation():
    with pytest.raises(InvariantError):
        FsmSource(AB, ("x",), (F(1, 2),), ((F(1),),), ("a",))
    with pytest.raises(InvariantError):
        FsmSource(AB, ("x",), (F(1),), ((F(1, 2),),), ("a",))
    with pytest.raises(AlphabetMismatchError):
        FsmSource(AB, ("x",), (F(1),), ((F(1),),), ("z",))
