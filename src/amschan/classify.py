"""Stability verdicts for channels and the executable claim registry.

The stability hierarchy
    stationary  =>  quasi-stationary  =>  recurrent-and-AMS  =>  AMS
is asserted, never merely observed: `classify_channel` hard-fails on an
inversion instead of reporting one.

Finite semantics of the verdicts:

* channel stationarity is the identity between shifted kernel evaluations
  on input/output cylinder pairs up to the given depth, decided on a linear
  basis of the kernel's forward vectors for exact channels (complete with no
  depth bound) and by enumeration for float ones;
* quasi-stationarity with respect to a stationary source is shift
  invariance of the hookup on product cylinders up to the depth;
* channel recurrence with respect to a recurrent source demands zero
  recurrence defect for every positive-mass rectangle up to the depth;
* the AMS verdict is always affirmative for finite models; its value is the
  constructive evidence: the exact stationary mean of the hookup, observed
  O(1/n) Cesaro convergence toward it, and asymptotic domination by it.

Almost-everywhere quantifiers are exercised on positive-mass cylinders and
on eventually periodic (lasso) inputs; universal quantifiers over sources
are exercised on a configurable battery.  `run_theorem_suite` packages one
randomized check per bundled claim, deterministic per seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial

from .battery import (
    battery_stationary_sources,
    rand_channel,
    rand_dense_channel,
    rand_dense_source,
    rand_ergodic_stationary_source,
    rand_lassos,
    rand_markov_channel,
    rand_recurrent_channel,
    rand_source,
    rand_stationary_channel,
    rand_stationary_source,
)
from .channels import (
    FsmChannel,
    JointSource,
    LassoInput,
    _require_stationary,
    cascade,
    channel_output_measure,
    hookup,
    joint_shifted,
    joint_stationary_mean,
    kernel_cyl_prob,
    kernel_stationary_mean,
    kernel_steps,
    kernel_walk,
    lift_to_pair_input,
    nu_partial_mean_tables,
    output_marginal,
    quasi_stationary_mean,
    table_coherence_witness,
)
from .errors import (
    BudgetExceededError,
    HierarchyViolationError,
    PreconditionError,
    UnknownTheoremError,
)
from .gallery import coin_flip_once_channel, cycle_source, iid_uniform, transient_copy_channel
from .linalg import IntVector, RowBasis, add_vectors, same_entries, same_total, stacked, total
from .models import channel_to_json, source_to_json
from .rng import SplitMix64, derive_seed
from .scalars import EPS, is_positive, scalar_eq, to_float
from .seqcore import Alphabet, Word, sort_words
from .sources import (
    FLOAT_SEARCH_BUDGET,
    AmsEvidence,
    ErgodicVerdict,
    FsmSource,
    Verdict,
    _forward_slack,
    _stationary_input,
    ams_evidence,
    asymptotic_support,
    asymptotically_dominates,
    cyl_prob,
    dominates,
    equivalence_witness,
    is_ergodic,
    is_recurrent,
    is_stationary,
    positive_words,
    shifted_source,
    stationarity_witness,
    stationary_mean,
    with_init,
)

# ---------------------------------------------------------------------------
# channel-level verdicts
# ---------------------------------------------------------------------------


def channel_stationarity_witness(
    ch: FsmChannel, max_len: int | None = None
) -> tuple[Word, Word] | None:
    """First (w, v) with |w| = m + 1 and |v| = m <= max_len, in the order
    m, w, v, where the mass given to [v] one step late on [w] differs from
    the mass given to [v] on w[1:]; None if there is none.

    With u the pair word of (w[1:], v), M_u its kernel steps, K_a the sum of
    the steps M_(a, b) over b and alpha the initial law, the identity reads
    alpha K_a M_u 1 == alpha M_u 1 for a = w[0].  Exact channels search pair
    words breadth first, check each, and expand only those whose stacked
    vector (alpha K_a M_u for each a, then alpha M_u) is independent of the
    earlier ones (Schutzenberger 1961, Tzeng 1992).  A word's vector is a
    combination of those of expanded words no longer than it, so the first
    failing word has the smallest failing m, whose (w, v) pairs are then
    walked in order on `kernel_walk`, one exact step per pair word, for the
    witness.  At most (|A_in| + 1) * n words are expanded, so words up
    to length (|A_in| + 1) * n - 1, the default `max_len`, decide the
    identity for all lengths.  An exact channel with alpha K_a = alpha for
    every a passes every check and returns None before the search, the
    exact twin of the float norm bound below.  Float channels
    (`ch.is_exact` false) have no exact rank test.  One whose alpha K_a is within the norm bound of
    `_kernel_within_float_bound` of alpha for every a passes every check and
    returns None at once; the others walk every (w, v) up to `max_len` on
    `kernel_walk` and raise BudgetExceededError on pair
    FLOAT_SEARCH_BUDGET + 1.  Both read the channel's `kernel_steps`.
    """
    bound = (len(ch.in_alphabet) + 1) * len(ch.states) - 1 if max_len is None else max_len
    if not ch.is_exact:
        if _kernel_within_float_bound(ch, bound):
            return None
        return _walked_witness(ch, range(bound + 1), FLOAT_SEARCH_BUDGET)
    steps = kernel_steps(ch)
    pairs = [steps[a, b] for a in ch.in_alphabet for b in ch.out_alphabet]
    init = ch._init_form
    late = [add_vectors([steps[a, b].step(init) for b in ch.out_alphabet]) for a in ch.in_alphabet]
    if all(same_entries(x, init) for x in late):
        return None
    basis = RowBasis()
    queue: deque[tuple[int, tuple[IntVector, ...]]] = deque([(0, (*late, init))])
    while queue:
        m, blocks = queue.popleft()
        if not all(same_total(block, blocks[-1]) for block in blocks[:-1]):
            return _walked_witness(ch, (m,))
        if m >= bound or not basis.add_ints(stacked(blocks)):
            continue
        for step in pairs:
            queue.append((m + 1, tuple(map(step.step, blocks))))
    return None


def _kernel_within_float_bound(ch: FsmChannel, bound: int) -> bool:
    """Whether a float channel passes every check of `_walked_witness`
    to `bound`.  The check of a first symbol a compares alpha K_a M_u 1
    with alpha M_u 1, which differ by (alpha K_a - alpha) M_u 1, at most
    ||alpha K_a - alpha||_1 since every M_u is substochastic.  So that norm
    within EPS - slack for every a decides the identity.  The slack
    (`sources._forward_slack`) takes the bound + 1 steps of the search, sums
    of at most |states| * |A_out| terms, and a mass that also covers the
    rounding of alpha K_a, which is summed here off the kernel's entries."""
    n = len(ch.states)
    alpha = [float(x) for x in ch.init]
    rho = max(total(abs(p) for _, _, p in row) for row in ch.kernel.values())
    mass = total(map(abs, alpha)) * (1 + 2 * rho)
    slack = _forward_slack(n * len(ch.out_alphabet), bound + 1, rho, mass)
    for a in ch.in_alphabet:
        late = [0.0] * n
        for q, x in enumerate(alpha):
            for _, q2, p in ch.kernel[(q, a)]:
                late[q2] += x * p
        if total(abs(x - y) for x, y in zip(late, alpha)) > EPS - slack:
            return False
    return True


def _walked_witness(
    ch: FsmChannel, levels, budget: int | None = None
) -> tuple[Word, Word] | None:
    """First (w, v) with |v| = m for m in `levels`, in the order m, w, v, on
    which the channel fails the identity, each pair checked on its own on
    the vectors of `kernel_walk`, each pair word stepped once; raises
    BudgetExceededError on pair `budget` + 1.  The walk keeps the root and
    the pair words of the current level's two lengths only.

    An exact pair compares the sum of the vectors of (w, (b,) + v) with the
    vector of (w[1:], v) by cross-multiplying.  A float pair adds the masses
    of (w, (b,) + v) over b in alphabet order from int 0, and compares that
    sum within EPS with the mass of (w[1:], v), as `scalar_eq` compares
    floats; the empty pair word's mass is 1, as `kernel_cyl_prob` gives it."""
    walk = kernel_walk(ch)
    outs, exact = ch.out_alphabet.symbols, ch.is_exact

    def fails(w, v):
        if exact:
            late = add_vectors([walk.vector((w, (b,) + v)) for b in outs])
            return not same_total(late, walk.vector((w[1:], v)))
        late = total(walk.total((w, (b,) + v)) for b in outs)
        return abs(late - kernel_cyl_prob(walk, w[1:], v)) > EPS

    pairs = 0
    for m in levels:
        walk.vectors = {k: x for k, x in walk.vectors.items() if not k[0] or len(k[0]) >= m}
        for w in ch.in_alphabet.words(m + 1):
            for v in ch.out_alphabet.words(m):
                pairs += 1
                if budget is not None and pairs > budget:
                    raise BudgetExceededError(
                        f"float channel stationarity search checks more than {budget} (w, v) pairs"
                    )
                if fails(w, v):
                    return (w, v)
    return None


def is_channel_stationary(ch: FsmChannel, depth: int) -> Verdict:
    """Kernel shift identity on every cylinder pair (w, v) with |v| <= depth
    and |w| = |v| + 1; both sides are constant on such cylinders, so this
    checks the identity at every input point up to the depth.  Exact
    channels decide it on a linear basis of the kernel's forward vectors,
    float ones by enumeration; see `channel_stationarity_witness`."""
    witness = channel_stationarity_witness(ch, depth)
    return Verdict(witness is None, depth, witness)


def _split_product_word(word: Word) -> tuple[Word, Word]:
    return tuple(a for a, _ in word), tuple(b for _, b in word)


def is_quasi_stationary_wrt(ch: FsmChannel, src: FsmSource, depth: int) -> Verdict:
    """Shift invariance of the hookup on product cylinders up to the depth.

    A non-stationary source is rejected with an error, not a false verdict:
    quasi-stationarity is defined against stationary inputs only.
    """
    _require_stationary(src, "quasi-stationarity")
    return _hookup_quasi_stationary(hookup(src, ch), depth)


def _hookup_quasi_stationary(joint: JointSource, depth: int) -> Verdict:
    w = stationarity_witness(joint.source, max_len=depth)
    if w is None:
        return Verdict(True, depth)
    return Verdict(False, depth, _split_product_word(w))


def is_channel_recurrent_wrt(ch: FsmChannel, src: FsmSource, depth: int) -> Verdict:
    """Zero recurrence defect for every positive-mass rectangle [w] x [v]
    (equal depths <= depth) of the hookup.  Needs a recurrent source."""
    if not is_recurrent(src, depth):
        raise PreconditionError("channel recurrence is defined against a recurrent source")
    return _hookup_recurrent(hookup(src, ch), depth)


def _hookup_recurrent(joint: JointSource, depth: int) -> Verdict:
    verdict = is_recurrent(joint.source, depth)
    if verdict.recurrent:
        return Verdict(True, depth)
    return Verdict(False, depth, _split_product_word(verdict.witness))


@dataclass(frozen=True)
class ChannelAmsVerdict:
    """Affirmative for every finite model; the content is the evidence."""

    holds: bool
    evidence: AmsEvidence
    dominated: Verdict
    stationary_mean: JointSource = field(repr=False, compare=False, default=None)

    def __bool__(self) -> bool:
        return self.holds


def is_channel_ams_wrt(ch: FsmChannel, src: FsmSource, depth: int) -> ChannelAmsVerdict:
    """Compute the exact stationary mean of the hookup, then certify (a)
    Cesaro partial sums converge to it on rectangles and (b) it dominates
    the hookup asymptotically (support form)."""
    return _hookup_ams(hookup(src, ch), depth)


def _hookup_ams(joint: JointSource, depth: int) -> ChannelAmsVerdict:
    jbar = joint_stationary_mean(joint)
    evidence = ams_evidence(joint.source, depth=min(depth, 2), mean=jbar.source)
    dominated = asymptotically_dominates(jbar.source, joint.source, depth)
    return ChannelAmsVerdict(
        evidence.converged and dominated.holds, evidence, dominated, jbar
    )


def is_channel_ergodic_wrt(ch: FsmChannel, src: FsmSource, depth: int) -> ErgodicVerdict:
    """Single positive-mass closed class of the joint chain.

    The verdict is depth-free (the joint chain is inspected directly); the
    depth argument only mirrors the other checkers' signatures.  Rejects
    non-ergodic sources."""
    if not is_ergodic(src):
        raise PreconditionError("channel ergodicity is defined against an ergodic source")
    return is_ergodic(hookup(src, ch).source)


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------


@dataclass
class SourceChecks:
    """Per-source verdicts; None marks a rejected (inadmissible) check."""

    label: str
    quasi_stationary: Verdict | None
    recurrent: Verdict | None
    ams: ChannelAmsVerdict
    r_ams: bool | None
    ergodic: ErgodicVerdict | None
    rejections: dict


@dataclass
class ChannelVerdict:
    stationary: Verdict
    depth: int
    per_source: list[SourceChecks]


def classify_channel(
    ch: FsmChannel,
    sources: list[FsmSource],
    depth: int = 3,
    labels: list[str] | None = None,
) -> ChannelVerdict:
    """Run every checker against every admissible source and assert the
    hierarchy.  Checks whose precondition the source fails are recorded as
    rejections, never as false verdicts.  The checkers of one source share
    one hookup, and with it its engine, chain graph and Cesaro limit."""
    stationary = is_channel_stationary(ch, depth)
    rows: list[SourceChecks] = []
    for k, src in enumerate(sources):
        label = labels[k] if labels else f"source{k}"
        rejections: dict = {}
        quasi = None
        src_recurrent = is_recurrent(src, depth).recurrent
        stationary_src = _stationary_input(src)
        joint = hookup(src, ch)
        if stationary_src:
            quasi = _hookup_quasi_stationary(joint, depth)
        else:
            rejections["quasi_stationary"] = "source is not stationary"
        recurrent = None
        if src_recurrent:
            recurrent = _hookup_recurrent(joint, depth)
        else:
            rejections["recurrent"] = "source is not recurrent at this depth"
        ams = _hookup_ams(joint, depth)
        r_ams = None if recurrent is None else (recurrent.holds and ams.holds)
        ergodic = None
        if is_ergodic(src):
            ergodic = is_ergodic(joint.source)
        else:
            rejections["ergodic"] = "source is not ergodic"

        if stationary.holds and quasi is not None and not quasi.holds:
            raise HierarchyViolationError(
                f"{label}: stationary channel with non-stationary hookup"
            )
        if quasi is not None and quasi.holds and r_ams is not None and not r_ams:
            raise HierarchyViolationError(
                f"{label}: quasi-stationary hookup that is not recurrent-and-AMS"
            )
        if not ams.holds:
            raise HierarchyViolationError(
                f"{label}: AMS evidence failed on a finite model"
            )
        rows.append(
            SourceChecks(label, quasi, recurrent, ams, r_ams, ergodic, rejections)
        )
    return ChannelVerdict(stationary, depth, rows)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    detail: str


@dataclass
class TheoremCheckReport:
    theorem: str
    description: str
    depth: int
    seed: int | None
    items: list[CheckItem]
    counterexamples: list[tuple[str, dict]] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.items)

    def to_text(self) -> str:
        lines = [f"check {self.theorem}: {self.description}"]
        params = f"items={len(self.items)} depth={self.depth}"
        if self.seed is not None:
            params += f" seed={self.seed}"
        lines.append(params)
        for item in self.items:
            status = "pass" if item.passed else "FAIL"
            lines.append(f"{item.name}: {status} - {item.detail}")
        passed = sum(1 for i in self.items if i.passed)
        verdict = "PASS" if self.all_passed else "FAIL"
        lines.append(f"result: {verdict} {passed}/{len(self.items)}")
        return "\n".join(lines) + "\n"


def _wstr(word: Word) -> str:
    if all(isinstance(s, str) and len(s) == 1 for s in word):
        return "".join(word) if word else "()"
    return repr(word)


# ---------------------------------------------------------------------------
# quasi-stationary mean identities (ergodic case)
# ---------------------------------------------------------------------------


def _agreement_item(
    name: str, j1: JointSource, j2: JointSource, depth: int, agreed: str
) -> CheckItem:
    """A check item that passes when the conditional tables of two joint laws
    with the same input law agree on positive inputs up to `depth`: both
    divide by that law, so they agree where the joint laws agree on every
    pair word (a rectangle is a sum of pair words).  A failure names the
    first differing pair word, split into (w, v)."""
    wit = equivalence_witness(j1.source, j2.source, depth)
    if wit is None:
        return CheckItem(name, True, agreed)
    w, v = (tuple(side) for side in zip(*wit))
    return CheckItem(name, False, f"tables differ at ({_wstr(w)}, {_wstr(v)})")


def check_qs_mean_ergodic_identities(
    ch: FsmChannel,
    src: FsmSource,
    depth: int,
    partners: tuple[FsmSource, ...] = (),
) -> TheoremCheckReport:
    """For an ergodic recurrent source, the channel factor of the hookup's
    stationary mean taken against the source equals the quasi-stationary
    mean taken against the source's stationary mean, exactly on positive
    inputs.  For partner sources, equal stationary means force equal tables
    and disjoint supports force disjoint hookup-mean supports.  No table is
    built: each identity is decided on the two joint means by the equality
    search (`_agreement_item`).

    Precondition failures are reported as failing items, never skipped
    silently.
    """
    items: list[CheckItem] = []
    mubar = stationary_mean(src)
    pre = [
        ("pre source-ergodic", bool(is_ergodic(src)), "single positive closed class"),
        ("pre source-recurrent", bool(is_recurrent(src, depth)), f"depth {depth}"),
    ]
    if pre[0][1]:
        ergodic = bool(is_channel_ergodic_wrt(ch, mubar, depth))
        pre.append(("pre channel-ergodic", ergodic, "wrt the stationary mean"))
        recurrent = bool(is_channel_recurrent_wrt(ch, mubar, depth))
        pre.append(("pre channel-recurrent", recurrent, "wrt the stationary mean"))
    for name, ok, detail in pre:
        items.append(CheckItem(name, ok, detail))
    admissible = all(ok for _, ok, _ in pre)

    if admissible:
        items.append(
            _agreement_item(
                "qs-mean identity",
                joint_stationary_mean(hookup(src, ch)),
                joint_stationary_mean(hookup(mubar, ch)),
                depth,
                "tables agree on positive inputs",
            )
        )
    else:
        items.append(CheckItem("qs-mean identity", False, "preconditions not met"))

    for k, other in enumerate(partners):
        name = f"dichotomy vs partner{k}"
        if not (is_ergodic(other) and is_recurrent(other, depth)):
            items.append(CheckItem(name, False, "partner fails preconditions"))
            continue
        obar = stationary_mean(other)
        supp1 = set(positive_words(mubar, depth))
        supp2 = set(positive_words(obar, depth))
        j1 = joint_stationary_mean(hookup(mubar, ch))
        j2 = joint_stationary_mean(hookup(obar, ch))
        if not (supp1 & supp2):
            joint_overlap = set(positive_words(j1.source, depth)) & set(
                positive_words(j2.source, depth)
            )
            items.append(
                CheckItem(
                    name,
                    not joint_overlap,
                    "singular means give disjoint hookup-mean supports"
                    if not joint_overlap
                    else f"overlap {_wstr(sorted(joint_overlap)[0])}",
                )
            )
        elif equivalence_witness(mubar, obar) is None:
            items.append(_agreement_item(name, j1, j2, depth, "equal means give equal tables"))
        else:
            items.append(
                CheckItem(
                    name,
                    True,
                    "means neither equal nor support-singular at this depth; "
                    "dichotomy not decidable here",
                )
            )
    return TheoremCheckReport(
        "qs-mean-identities",
        "quasi-stationary means against an ergodic source and its stationary mean",
        depth,
        None,
        items,
    )


# ---------------------------------------------------------------------------
# the claim registry
# ---------------------------------------------------------------------------

#: trial outcome: (passed, detail, the models the trial drew, by name);
#: `run_theorem_trial` serializes the models of a failing trial
Trial = tuple[bool, str, dict]


def _models(**named) -> dict:
    out = {}
    for key, value in named.items():
        if isinstance(value, FsmSource):
            out[key] = source_to_json(value)
        elif isinstance(value, FsmChannel):
            out[key] = channel_to_json(value)
        else:
            out[key] = value
    return out


def _trial_hookup_stationarity_iff(rng: SplitMix64, depth: int) -> Trial:
    src = (
        rand_stationary_source(rng, n_states=2)
        if rng.uniform() < 0.5
        else rand_source(rng, n_states=2)
    )
    ch = rand_channel(rng, n_states=2, zero_prob=0.3)
    joint = hookup(src, ch)
    joint_stat = is_stationary(joint.source, depth)
    src_stat = is_stationary(src, depth)
    # each rectangle up to `depth` is a sum of pair-word cylinders up to it,
    # and each such cylinder is a rectangle
    shifted_hookup = hookup(shifted_source(src, 1), ch).source
    identity = equivalence_witness(joint_shifted(joint, 1).source, shifted_hookup, depth) is None
    ok = joint_stat == (src_stat and identity)
    detail = f"hookup-stationary={joint_stat} input-stationary={src_stat} identity={identity}"
    return ok, detail, dict(source=src, channel=ch)


def _lasso_cycles(rng: SplitMix64, src: FsmSource, count: int) -> list[LassoInput]:
    """`count` random lassos of `src`, each read as the purely periodic
    input that repeats its stem and cycle."""
    return [LassoInput((), x.stem + x.cycle) for x in rand_lassos(rng, src, count, depth=3)]


def _kernels_recurrent(ch: FsmChannel, cycles: list[LassoInput], depth: int) -> bool:
    """Whether the channel's output law on each periodic input is recurrent."""
    return all(is_recurrent(channel_output_measure(ch, x), depth).recurrent for x in cycles)


def _trial_recurrence_iff(rng: SplitMix64, depth: int) -> Trial:
    transient = rng.uniform() < 0.4
    if transient:
        ch = transient_copy_channel(first=rng.choice(("a", "b")))
    else:
        ch = rand_dense_channel(rng, n_states=2)
    src = iid_uniform() if rng.uniform() < 0.5 else rand_dense_source(rng, n_states=2)

    # Pointwise recurrence is probed on purely periodic inputs: stems create
    # transient patterns in even a noiseless output law, which the hookup
    # never sees because point irregularities carry no source mass.  The
    # constant inputs must always be present: a transient output prefix is
    # only visible against a cycle that cannot reproduce it.
    cycles = [
        LassoInput((), (sym,))
        for sym in src.alphabet
        if is_positive(cyl_prob(src, (sym,)))
    ] + _lasso_cycles(rng, src, 2)

    def both_sides(L: int) -> tuple[bool, bool]:
        return is_channel_recurrent_wrt(ch, src, L).holds, _kernels_recurrent(ch, cycles, L)

    lhs, rhs = both_sides(depth)
    if lhs != rhs:
        lhs, rhs = both_sides(depth + 1)  # rule out a depth artifact
    return (
        lhs == rhs,
        f"hookup-recurrent={lhs} kernels-recurrent={rhs} (transient={transient})",
        dict(source=src, channel=ch),
    )


def _trial_hierarchy(rng: SplitMix64, depth: int) -> Trial:
    ch = rand_channel(rng, n_states=2, zero_prob=0.25 + 0.5 * rng.uniform())
    sources = [rand_stationary_source(rng, n_states=2), rand_source(rng, n_states=2)]
    models = dict(channel=ch, source0=sources[0], source1=sources[1])
    try:
        verdict = classify_channel(ch, sources, depth)
    except HierarchyViolationError as exc:
        return False, f"hierarchy inversion: {exc}", models
    flags = []
    for row in verdict.per_source:
        q = "-" if row.quasi_stationary is None else str(row.quasi_stationary.holds)
        r = "-" if row.r_ams is None else str(row.r_ams)
        flags.append(f"{row.label}: quasi={q} r-ams={r} ams={row.ams.holds}")
    return True, "; ".join(flags), models


def _trial_kernel_r_ams(rng: SplitMix64, depth: int) -> Trial:
    src = rand_ergodic_stationary_source(rng, n_states=2)
    ch = rand_dense_channel(rng, n_states=2)
    hyp = _kernels_recurrent(ch, _lasso_cycles(rng, src, 3), depth)
    concl = (
        is_channel_recurrent_wrt(ch, src, depth).holds
        and is_channel_ams_wrt(ch, src, depth).holds
    )
    return (
        hyp and concl,
        f"kernels-recurrent={hyp} hookup-r-ams={concl}",
        dict(source=src, channel=ch),
    )


def _trial_ams_asymptotic_domination(rng: SplitMix64, depth: int) -> Trial:
    src = rand_stationary_source(rng, n_states=2)
    ch = rand_channel(rng, n_states=2, zero_prob=0.3)
    hook_ok = is_channel_ams_wrt(ch, src, depth).holds
    lasso_ok = True
    for x in rand_lassos(rng, src, 2, depth=3):
        out = channel_output_measure(ch, x)
        if not asymptotically_dominates(kernel_stationary_mean(ch, x), out, depth):
            lasso_ok = False
    return (
        hook_ok and lasso_ok,
        f"hookup-level={hook_ok} lasso-level={lasso_ok}",
        dict(source=src, channel=ch),
    )


def _trial_kernel_ams(rng: SplitMix64, depth: int) -> Trial:
    if rng.uniform() < 0.5:
        ch = rand_markov_channel(rng, n_states=2)
        kind = "markov"
    else:
        ch = rand_channel(rng, n_states=2, zero_prob=0.3)
        kind = "transducer"
    src = rand_stationary_source(rng, n_states=2)
    v = is_channel_ams_wrt(ch, src, depth)
    detail = (
        f"{kind}: converged={v.evidence.converged} "
        f"C={v.evidence.constant:.3g} dominated={v.dominated.holds}"
    )
    return v.holds, detail, dict(source=src, channel=ch)


def _trial_cascade_quasi_stationary(rng: SplitMix64, depth: int) -> Trial:
    c1 = rand_stationary_channel(rng, n_states=2)
    c2 = rand_stationary_channel(rng, n_states=2)
    casc = cascade(c1, c2)
    sanity = (
        is_channel_stationary(c1, min(depth, 2)).holds
        and is_channel_stationary(c2, min(depth, 2)).holds
    )
    srcs = [iid_uniform(), rand_stationary_source(rng, n_states=2)]
    results = [is_quasi_stationary_wrt(casc, s, depth).holds for s in srcs]
    return (
        sanity and all(results),
        f"factors-stationary={sanity} cascade-quasi-stationary={results}",
        dict(first=c1, second=c2),
    )


def _trial_cascade_recurrent(rng: SplitMix64, depth: int) -> Trial:
    c2 = rand_recurrent_channel(rng)
    deterministic = all(
        len(entries) == 1 for entries in c2.kernel.values()
    )
    srcs = [iid_uniform(), rand_dense_source(rng, n_states=2)]
    c1 = rand_channel(rng, n_states=2, zero_prob=0.3)
    if deterministic:
        # A noiseless second stage transmits the first stage's transient
        # irregularities, so its per-output-law recurrence hypothesis must
        # hold against the actual intermediate process: keep the first
        # channel's hookups recurrent.
        for _ in range(30):
            if all(
                is_recurrent(hookup(s, c1).source, depth).recurrent for s in srcs
            ):
                break
            c1 = rand_channel(rng, n_states=2, zero_prob=0.3)
        else:
            c1 = rand_dense_channel(rng, n_states=2)
    casc = cascade(c1, c2)
    results = [is_channel_recurrent_wrt(casc, s, depth).holds for s in srcs]
    return (
        all(results),
        f"cascade-recurrent={results} (noiseless-second={deterministic})",
        dict(first=c1, second=c2),
    )


def _triple(src: FsmSource, c1: FsmChannel, lifted: FsmChannel) -> JointSource:
    """The ((a, b), c) process of `src` through the cascade of c1 and c2:
    the first hookup's joint process hooked to c2 acting on its outputs,
    `lifted` = `lift_to_pair_input(c2, src.alphabet)`.  A trial lifts c2
    once, so hookups of one chain share the second joint chain too."""
    return hookup(hookup(src, c1).source, lifted)


def _dominating_pair_supports(
    src: FsmSource, c1: FsmChannel, c2: FsmChannel, depth: int
) -> tuple[set[Word], set[Word]]:
    """Pair words up to `depth` charged by the stationary mean of the first
    hookup (against the input's stationary mean), and those where the
    quasi-stationary-mean table of the second channel against that mean's
    output marginal is positive.  A stationary mean charges exactly its
    chain's asymptotic support, so the second mean is never solved."""
    jbar1 = joint_stationary_mean(hookup(stationary_mean(src), c1))
    second = hookup(output_marginal(jbar1), c2).source
    return asymptotic_support(jbar1.source, depth), asymptotic_support(second, depth)


def _triple_words_ok(words, first: set[Word], second: set[Word]) -> tuple[bool, str]:
    """Support of the triple process must be covered by the dominating pair
    (`_dominating_pair_supports`): each positive ((a,b),c) word needs its
    (a,b) pair word in the first support and its (b,c) one in the second."""
    for word in words:
        w = tuple(s[0][0] for s in word)
        u = tuple(s[0][1] for s in word)
        v = tuple(s[1] for s in word)
        if tuple(zip(w, u)) not in first:
            return False, f"pair mass vanishes on ({_wstr(w)},{_wstr(u)})"
        if tuple(zip(u, v)) not in second:
            return False, f"table entry vanishes on ({_wstr(u)},{_wstr(v)})"
    return True, "covered"


def _trial_cascade_r_ams(rng: SplitMix64, depth: int) -> Trial:
    c1 = rand_dense_channel(rng, n_states=2)
    c2 = rand_dense_channel(rng, n_states=1 if rng.uniform() < 0.6 else 2)
    casc = cascade(c1, c2)
    src = (
        rand_ergodic_stationary_source(rng, n_states=2)
        if rng.uniform() < 0.5
        else cycle_source()
    )
    rec = is_channel_recurrent_wrt(casc, src, depth).holds
    ams = is_channel_ams_wrt(casc, src, depth).holds
    mubar = stationary_mean(src)
    pair_dom = dominates(
        joint_stationary_mean(hookup(mubar, casc)).source,
        hookup(src, casc).source,
        depth,
    ).holds
    lifted = lift_to_pair_input(c2, src.alphabet)
    triple = _triple(src, c1, lifted)
    tdepth = min(depth, 2)
    supp_incl = dominates(_triple(mubar, c1, lifted).source, triple.source, tdepth).holds
    first, second = _dominating_pair_supports(src, c1, c2, tdepth)
    covered, why = _triple_words_ok(positive_words(triple.source, tdepth), first, second)
    detail = (
        f"recurrent={rec} ams={ams} pair-dominated={pair_dom} "
        f"triple-support={supp_incl} pair-tables={covered} ({why})"
    )
    return (
        rec and ams and pair_dom and supp_incl and covered,
        detail,
        dict(first=c1, second=c2, source=src),
    )


def _trial_cascade_ams(rng: SplitMix64, depth: int) -> Trial:
    c1 = rand_channel(rng, n_states=2, zero_prob=0.4)
    c2 = rand_channel(rng, n_states=1 if rng.uniform() < 0.6 else 2, zero_prob=0.4)
    casc = cascade(c1, c2)
    src = (
        rand_stationary_source(rng, n_states=2)
        if rng.uniform() < 0.5
        else rand_source(rng, n_states=2)
    )
    ams = is_channel_ams_wrt(casc, src, depth).holds
    tdepth = min(depth, 2)
    triple = _triple(src, c1, lift_to_pair_input(c2, src.alphabet))
    first, second = _dominating_pair_supports(src, c1, c2, tdepth)
    support = sort_words(asymptotic_support(triple.source, tdepth), triple.source.alphabet)
    covered, why = _triple_words_ok(support, first, second)
    return (
        ams and covered,
        f"ams={ams} asymptotic-support-covered={covered} ({why})",
        dict(first=c1, second=c2, source=src),
    )


def _trial_qs_mean_shift_collapse(rng: SplitMix64, depth: int) -> Trial:
    src = rand_stationary_source(rng, n_states=2)
    ch = rand_channel(rng, n_states=2, zero_prob=0.3)
    t = quasi_stationary_mean(src, ch, depth)
    coherent = table_coherence_witness(t) is None
    # both tables divide by `src`, the input law of the joint mean and of
    # its shift, so they agree where the two joint laws do
    jbar = joint_stationary_mean(hookup(src, ch)).source
    collapsed = stationarity_witness(jbar, depth) is None
    return (
        coherent and collapsed,
        f"coherent={coherent} shift-collapsed={collapsed}",
        dict(source=src, channel=ch),
    )


def _table_deviation(t1, t2) -> float:
    e2 = t2.entries
    return total(abs(to_float(x) - to_float(e2[k])) for k, x in t1.entries.items() if k in e2)


def _trial_qs_mean_convergence(rng: SplitMix64, depth: int) -> Trial:
    src = rand_stationary_source(rng, n_states=2)
    ch = rand_channel(rng, n_states=2, zero_prob=0.25)
    exact_table = quasi_stationary_mean(src, ch, depth)
    d1, d2 = (
        _table_deviation(table, exact_table)
        for table in nu_partial_mean_tables(src, ch, (128, 256), depth, exact=False)
    )
    return (
        d1 <= 1e-9 or d2 <= 0.7 * d1 + 1e-12,
        f"dev(128)={d1:.3e} dev(256)={d2:.3e}",
        dict(source=src, channel=ch),
    )


def _trial_ergodicity_conditions(rng: SplitMix64, depth: int) -> Trial:
    ch = coin_flip_once_channel() if rng.uniform() < 0.3 else rand_dense_channel(rng, n_states=2)
    src_s = rand_ergodic_stationary_source(rng, n_states=2)
    src_r = rand_dense_source(rng, n_states=2)
    lhs = (
        is_channel_ergodic_wrt(ch, src_s, depth).ergodic
        and is_channel_ergodic_wrt(ch, src_r, depth).ergodic
    )
    rhs = (
        is_ergodic(stationary_mean(hookup(src_s, ch).source)).ergodic
        and is_ergodic(stationary_mean(hookup(src_r, ch).source)).ergodic
    )
    return (
        lhs == rhs,
        f"hookups-ergodic={lhs} qs-means-ergodic={rhs}",
        dict(channel=ch, source=src_s),
    )


def _report_outcome(report: TheoremCheckReport, agreed: str) -> tuple[bool, str]:
    """Whether every item of `report` passed, with `agreed` as the detail,
    or else the names of the failing items."""
    if report.all_passed:
        return True, agreed
    return False, f"failed: {[i.name for i in report.items if not i.passed]}"


def _trial_qs_mean_identities(rng: SplitMix64, depth: int) -> Trial:
    src = rand_dense_source(rng, n_states=2, cover=True)
    ch = rand_dense_channel(rng, n_states=2)
    report = check_qs_mean_ergodic_identities(ch, src, depth)
    ok, detail = _report_outcome(report, "identity holds")
    return ok, detail, dict(source=src, channel=ch)


def _trial_qs_mean_dichotomy(rng: SplitMix64, depth: int) -> Trial:
    abc = Alphabet(("a", "b", "c"))
    if rng.uniform() < 0.5:
        # singular branch: label-disjoint ergodic sources
        src1 = rand_dense_source(rng, Alphabet(("a", "b")), n_states=2, cover=True)
        src1 = FsmSource(abc, src1.states, src1.init, src1.trans, src1.labels)
        src2 = FsmSource(
            abc,
            ("u",),
            (1,),
            ((1,),),
            ("c",),
        )
        branch = "singular"
    else:
        chain = rand_dense_source(rng, Alphabet(("a", "b")), n_states=2, cover=True)
        chain = FsmSource(abc, chain.states, chain.init, chain.trans, chain.labels)
        src1 = chain
        src2 = with_init(chain, rng.rational_row(len(chain.states)))
        branch = "equal-mean"
    ch = rand_dense_channel(rng, abc, Alphabet(("a", "b")), n_states=1)
    report = check_qs_mean_ergodic_identities(ch, src1, depth, partners=(src2,))
    ok, detail = _report_outcome(report, "dichotomy respected")
    return ok, f"{branch}: {detail}", dict(source1=src1, source2=src2, channel=ch)


def _trial_source_dominance(rng: SplitMix64, depth: int) -> Trial:
    if rng.uniform() < 0.5:
        eta = rand_dense_source(rng, n_states=2, cover=True)
        mu = rand_source(rng, n_states=2)
        how = "dense dominator"
    else:
        eta = rand_source(rng, n_states=3)
        peak = max(range(len(eta.init)), key=lambda i: to_float(eta.init[i]))
        point = tuple(1 if i == peak else 0 for i in range(len(eta.init)))
        mu = with_init(eta, point)
        how = "restricted init"
    hyp = dominates(eta, mu, depth).holds
    ch = rand_channel(rng, n_states=2, zero_prob=0.3)
    concl = dominates(hookup(eta, ch).source, hookup(mu, ch).source, depth).holds
    return (
        (not hyp) or concl,
        f"{how}: dominated={hyp} hookup-dominated={concl}",
        dict(eta=eta, mu=mu, channel=ch),
    )


def _trial_kernel_vs_hookup_dominance(rng: SplitMix64, depth: int) -> Trial:
    mu = rand_source(rng, n_states=2)
    nu1 = rand_channel(rng, n_states=2, zero_prob=0.4)
    nu2 = rand_channel(rng, n_states=2, zero_prob=0.4)
    walk1, walk2 = kernel_walk(nu1), kernel_walk(nu2)
    kernel_side = not any(
        scalar_eq(kernel_cyl_prob(walk2, w, v), 0)
        and not scalar_eq(kernel_cyl_prob(walk1, w, v), 0)
        for w in positive_words(mu, depth)
        for k in range(len(w) + 1)
        for v in nu1.out_alphabet.words(k)
    )
    hookup_side = dominates(
        hookup(mu, nu2).source, hookup(mu, nu1).source, depth
    ).holds
    return (
        kernel_side == hookup_side,
        f"kernel-dominance={kernel_side} hookup-dominance={hookup_side}",
        dict(source=mu, first=nu1, second=nu2),
    )


def _trial_stationary_hookup(rng: SplitMix64, depth: int) -> Trial:
    ch = rand_stationary_channel(rng, n_states=2)
    src = battery_stationary_sources(rng, randoms=1)[rng.randint(5)]
    sanity = is_channel_stationary(ch, min(depth, 2)).holds
    verdict = is_quasi_stationary_wrt(ch, src, depth)
    return (
        sanity and verdict.holds,
        f"channel-stationary={sanity} hookup-stationary={verdict.holds}",
        dict(source=src, channel=ch),
    )


@dataclass(frozen=True)
class _Claim:
    description: str
    trial: object


THEOREMS: dict[str, _Claim] = {
    "prop1": _Claim(
        "a hookup is stationary iff its input is stationary and the shifted-kernel identity holds",
        _trial_hookup_stationarity_iff,
    ),
    "prop2": _Claim(
        "channel recurrence wrt a source matches source recurrence plus per-input recurrence",
        _trial_recurrence_iff,
    ),
    "prop3": _Claim(
        "no inversion in the stability hierarchy across randomized classifications",
        _trial_hierarchy,
    ),
    "prop5": _Claim(
        "per-input recurrent laws give a recurrent-and-AMS channel wrt stationary inputs",
        _trial_kernel_r_ams,
    ),
    "prop6": _Claim(
        "AMS hookups and per-input laws are asymptotically dominated by stationary means",
        _trial_ams_asymptotic_domination,
    ),
    "prop7": _Claim(
        "per-input AMS laws (incl. input-driven Markov chains) give an AMS channel",
        _trial_kernel_ams,
    ),
    "prop8": _Claim(
        "a cascade of quasi-stationary channels is quasi-stationary",
        _trial_cascade_quasi_stationary,
    ),
    "prop9": _Claim(
        "a cascade ending in a recurrent channel is recurrent",
        _trial_cascade_recurrent,
    ),
    "prop10": _Claim(
        "a cascade of recurrent AMS channels is recurrent AMS with the domination chain",
        _trial_cascade_r_ams,
    ),
    "prop11": _Claim(
        "a cascade of AMS channels is AMS with the asymptotic domination chain",
        _trial_cascade_ams,
    ),
    "prop12": _Claim(
        "quasi-stationary mean tables are coherent and shift-collapsed",
        _trial_qs_mean_shift_collapse,
    ),
    "prop13": _Claim(
        "shifted-family partial means converge to the quasi-stationary mean at rate C/n",
        _trial_qs_mean_convergence,
    ),
    "prop14": _Claim(
        "hookup ergodicity matches ergodicity of the quasi-stationary means",
        _trial_ergodicity_conditions,
    ),
    "prop15": _Claim(
        "quasi-stationary means wrt an ergodic source and wrt its stationary mean coincide",
        _trial_qs_mean_identities,
    ),
    "prop16": _Claim(
        "singular ergodic sources give support-disjoint means; equal means give equal tables",
        _trial_qs_mean_dichotomy,
    ),
    "lemma7": _Claim(
        "source domination is preserved by every hookup",
        _trial_source_dominance,
    ),
    "lemma8": _Claim(
        "kernel-level dominance iff hookup-level dominance",
        _trial_kernel_vs_hookup_dominance,
    ),
    "stationary_hookup": _Claim(
        "a stationary channel hooked to a stationary source gives a stationary joint law",
        _trial_stationary_hookup,
    ),
}


def resolve_theorem_id(theorem: str) -> str:
    """The claim named by its id or its trial's name without ``_trial_``,
    ignoring case, spaces, hyphens and underscores."""
    key = theorem.strip().lower().replace(" ", "").replace("-", "").replace("_", "")
    for canonical in THEOREMS:
        if key == canonical.replace("_", ""):
            return canonical
    for canonical, claim in THEOREMS.items():
        if key == claim.trial.__name__.removeprefix("_trial_").replace("_", ""):
            return canonical
    raise UnknownTheoremError(
        f"unknown check id {theorem!r}; known: {', '.join(sorted(THEOREMS))}"
    )


def run_theorem_trial(theorem: str, seed: int, index: int, depth: int) -> tuple[bool, str, dict | None]:
    """One deterministic trial, with the serialized models of a failing
    one; trial streams derive from (seed, index) so trials can run in any
    order or in parallel and merge identically."""
    canonical = resolve_theorem_id(theorem)
    rng = SplitMix64(derive_seed(seed, index))
    passed, detail, models = THEOREMS[canonical].trial(rng, depth)
    return passed, detail, None if passed else _models(**models)


def run_theorem_suite(
    theorem: str, trials: int, depth: int = 3, seed: int = 0, map=map
) -> TheoremCheckReport:
    """Randomized hypothesis/conclusion checks for one bundled claim.

    Deterministic per (seed, trials, depth): identical inputs produce
    byte-identical reports.  Failing trials carry serialized counterexample
    models in the report.  `map` runs the trials, in order of their results:
    the builtin runs them here, a process pool's `map` in its workers.
    """
    canonical = resolve_theorem_id(theorem)
    claim = THEOREMS[canonical]
    items: list[CheckItem] = []
    counterexamples: list[tuple[str, dict]] = []
    trial = partial(run_theorem_trial, canonical, seed, depth=depth)
    for i, (passed, detail, ce) in enumerate(map(trial, range(trials))):
        name = f"trial {i:03d}"
        items.append(CheckItem(name, passed, detail))
        if ce is not None:
            counterexamples.append((name, ce))
    return TheoremCheckReport(
        canonical, claim.description, depth, seed, items, counterexamples
    )
