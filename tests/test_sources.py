from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amschan import linalg, sources
from amschan.battery import rand_source
from amschan.errors import AlphabetMismatchError, InvariantError, PreconditionError
from amschan.gallery import constant_source, iid_uniform, lazy_two_state, two_loop_source
from amschan.linalg import mat_eq, mat_mul, vec_mat
from amschan.rng import SplitMix64
from amschan.seqcore import Alphabet, event, full_event
from amschan.sources import (
    FsmSource,
    RecurrenceVerdict,
    are_equivalent,
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


def reducible_chain(rng: SplitMix64, n: int, n_classes: int):
    """(P, closed classes): an exact n-state chain with `n_classes` closed
    classes (some periodic) and transient states that each enter a class
    with positive probability, its states in a random order."""
    sizes = [1] * n_classes
    for _ in range(rng.randint(n - n_classes + 1)):
        sizes[rng.randint(n_classes)] += 1
    t = n - sum(sizes)
    rows, classes = [], []
    for _ in range(t):
        row = list(rng.rational_row(n, 12, 0.5))
        if not any(row[t:]):
            row[t + rng.randint(n - t)] = F(1, 12)
        rows.append(tuple(x / sum(row) for x in row))
    start = t
    for size in sizes:
        for i in range(size):
            inner = list(rng.rational_row(size, 12, 0.6))
            inner[(i + 1) % size] += F(1, 12)  # a cycle keeps the class irreducible
            inner = [x / sum(inner) for x in inner]
            rows.append((F(0),) * start + tuple(inner) + (F(0),) * (n - start - size))
        classes.append(range(start, start + size))
        start += size
    perm = sorted(range(n), key=lambda i: rng.next_u64())
    where = {old: new for new, old in enumerate(perm)}
    trans = tuple(tuple(rows[perm[i]][perm[j]] for j in range(n)) for i in range(n))
    return trans, {frozenset(where[s] for s in c) for c in classes}


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
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


def test_chain_results_are_cached_per_chain(monkeypatch):
    calls, real = [], sources.class_decomposition

    def counted(trans):
        calls.append(trans)
        return real(trans)

    monkeypatch.setattr(sources, "class_decomposition", counted)
    src = two_loop_source()
    classify_source(src, 3)
    stationary_mean(src)
    stationary_mean(with_init(src, (F(1), F(0))))
    assert len(calls) == 1
    # equal values in separately built chains share nothing
    for twin in (two_loop_source(), two_loop_source()):
        stationary_mean(twin)
    assert len(calls) == 3
    assert not is_ergodic(two_loop_source(F(1, 3)))
    assert len(calls) == 3


def test_stationary_mean_eliminates_once_per_closed_class_plus_one(monkeypatch):
    # k class laws and one absorption system with k right-hand sides
    calls, real = [], linalg._solve_bareiss

    def counted(a, cols):
        calls.append(len(a))
        return real(a, cols)

    monkeypatch.setattr(linalg, "_solve_bareiss", counted)
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
