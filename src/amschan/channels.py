"""Finite-state causal probabilistic transducers and their hookups.

A channel is a transducer: in state q, reading input symbol a, it emits an
output symbol b and moves to state q' with probability K(q, a)(b, q').  Its
kernel nu(x, .) assigns to every input sequence x a measure on output
sequences; causality is structural, so nu(x, [v]) only depends on the first
|v| input symbols and is computed by a forward pass over channel states.

Timing convention (shared by every construction and oracle here): at each
tick the source emits a symbol, then the channel consumes that same symbol
and emits its output.  A joint state (s, q, b) therefore records the source
state s at time t, the channel state q after consuming the time-t symbol,
and the time-t output b; its label is the pair (label(s), b).

Conditional laws that need not factor through a finite transducer (the
shifted family nu_i and quasi-stationary means) are represented as
depth-bounded conditional tables: entry (w, v) is the conditional probability
of output prefix v given input cylinder [w], with zero-mass inputs flagged
rather than given a conventional value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import AlphabetMismatchError, InvariantError, PreconditionError
from .linalg import Matrix, PrefixWalk, SparseMatrix, Vector
from .scalars import Scalar, is_zero, scalar_eq, to_float
from .seqcore import Alphabet, Word, check_word, product_alphabet
from .sources import (
    FsmSource,
    _check_distribution,
    _stationary_precondition,
    as_float_source,
    engine,
    forward_walk,
    shifted_source,
    stationary_mean,
)

#: kernel entry list for one (state, input symbol): (output, next state, prob)
KernelEntries = tuple[tuple[object, int, Scalar], ...]


@dataclass
class FsmChannel:
    """Finite-state transducer with initial state law `init` and kernel K."""

    in_alphabet: Alphabet
    out_alphabet: Alphabet
    states: tuple[str, ...]
    init: Vector
    kernel: Mapping[tuple[int, object], KernelEntries]

    def __post_init__(self):
        n = len(self.states)
        if len(self.init) != n:
            raise InvariantError("channel init size must match the state count")
        _check_distribution(self.init, "channel init")
        for q in range(n):
            for a in self.in_alphabet:
                entries = self.kernel.get((q, a))
                if entries is None:
                    raise InvariantError(f"kernel missing entries for state {q}, input {a!r}")
                total: Scalar = 0
                for b, q2, p in entries:
                    if b not in self.out_alphabet:
                        raise AlphabetMismatchError(f"output symbol {b!r} not in alphabet")
                    if not 0 <= q2 < n:
                        raise InvariantError("kernel next-state out of range")
                    if (not isinstance(p, float) and p < 0) or (
                        isinstance(p, float) and p < -1e-9
                    ):
                        raise InvariantError("kernel probability is negative")
                    total = total + p
                if not scalar_eq(total, 1):
                    raise InvariantError(
                        f"kernel row for state {q}, input {a!r} does not sum to 1"
                    )


def kernel_steps(ch: FsmChannel) -> dict[tuple[object, object], SparseMatrix]:
    """(a, b) -> the sparse state-to-state step of reading a and emitting b."""
    n = len(ch.states)
    return {
        (a, b): SparseMatrix(
            [[(q2, p) for bb, q2, p in ch.kernel[(q, a)] if bb == b] for q in range(n)], n
        )
        for a in ch.in_alphabet
        for b in ch.out_alphabet
    }


def kernel_walk(ch: FsmChannel) -> PrefixWalk:
    """(w, v) with |w| == |v| -> channel-state mass after reading w and
    emitting v, from the initial state law."""
    steps = kernel_steps(ch)

    def link(key):
        w, v = key
        return (w[:-1], v[:-1]), steps[w[-1], v[-1]], None

    return PrefixWalk(((), ()), ch.init, link)


def kernel_cyl_prob(walk: PrefixWalk, w: Word, v: Word) -> Scalar:
    """nu(x, [v]) for x in [w] from a `kernel_walk`; words unchecked."""
    return sum(walk[w[: len(v)], v]) if v else 1


def channel_cyl_prob(ch: FsmChannel, w: Word, v: Word) -> Scalar:
    """nu(x, [v]) for any x in [w]; needs |w| >= |v| (causality)."""
    w = check_word(ch.in_alphabet, w)
    v = check_word(ch.out_alphabet, v)
    if len(w) < len(v):
        raise InvariantError("input word shorter than output word")
    return kernel_cyl_prob(kernel_walk(ch), w, v)


# ---------------------------------------------------------------------------
# per-input output measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LassoInput:
    """Eventually periodic input stem . cycle^infinity; makes pointwise
    channel statements checkable on concrete sequences."""

    stem: Word
    cycle: Word

    def __post_init__(self):
        if len(self.cycle) == 0:
            raise InvariantError("lasso cycle must be nonempty")


def channel_output_measure(ch: FsmChannel, x: LassoInput) -> FsmSource:
    """The output law nu(x, .) as a finite-state source over B.

    States are (next input position, channel state, last output); positions
    advance along the stem and then wrap around the cycle.
    """
    stem = check_word(ch.in_alphabet, x.stem)
    cycle = check_word(ch.in_alphabet, x.cycle)
    m = len(stem) + len(cycle)
    b_syms = tuple(ch.out_alphabet)
    nq, nb = len(ch.states), len(b_syms)
    b_index = {b: i for i, b in enumerate(b_syms)}

    def nxt_pos(p: int) -> int:
        return p + 1 if p + 1 < m else len(stem)

    def idx(p: int, q: int, b: int) -> int:
        return (p * nq + q) * nb + b

    size = m * nq * nb
    states = tuple(
        f"t{p}|{ch.states[q]}|{b_syms[b]}"
        for p in range(m)
        for q in range(nq)
        for b in range(nb)
    )
    labels = tuple(
        b_syms[b] for p in range(m) for q in range(nq) for b in range(nb)
    )
    init = [0] * size
    x0 = stem[0] if stem else cycle[0]
    for q0, mass in enumerate(ch.init):
        if is_zero(mass):
            continue
        for b, q2, p in ch.kernel[(q0, x0)]:
            init[idx(nxt_pos(0), q2, b_index[b])] += mass * p
    rows = [[0] * size for _ in range(size)]
    for p in range(m):
        sym = stem[p] if p < len(stem) else cycle[p - len(stem)]
        for q in range(nq):
            for b in range(nb):
                z = idx(p, q, b)
                for b2, q2, pr in ch.kernel[(q, sym)]:
                    rows[z][idx(nxt_pos(p), q2, b_index[b2])] += pr
    return FsmSource(
        ch.out_alphabet,
        states,
        tuple(init),
        tuple(tuple(r) for r in rows),
        labels,
    )


def kernel_stationary_mean(ch: FsmChannel, x: LassoInput) -> FsmSource:
    """Output-shift stationary mean of the per-input law nu(x, .)."""
    return stationary_mean(channel_output_measure(ch, x))


# ---------------------------------------------------------------------------
# hookup and marginals
# ---------------------------------------------------------------------------


@dataclass
class JointSource:
    """Input/output process of a source fed through a channel: a finite-state
    source over the product alphabet, with the component alphabets kept."""

    source: FsmSource
    in_alphabet: Alphabet
    out_alphabet: Alphabet


def hookup(src: FsmSource, ch: FsmChannel) -> JointSource:
    """Joint law on rectangles: integral over [w] of nu(x, [v]).

    Moore product construction; see the module docstring for the tick
    convention realized here.
    """
    if src.alphabet != ch.in_alphabet:
        raise AlphabetMismatchError("source alphabet differs from channel input")
    b_syms = tuple(ch.out_alphabet)
    b_index = {b: i for i, b in enumerate(b_syms)}
    ns, nq, nb = len(src.states), len(ch.states), len(b_syms)

    def idx(s: int, q: int, b: int) -> int:
        return (s * nq + q) * nb + b

    size = ns * nq * nb
    states = tuple(
        f"{src.states[s]}|{ch.states[q]}|{b_syms[b]}"
        for s in range(ns)
        for q in range(nq)
        for b in range(nb)
    )
    labels = tuple(
        (src.labels[s], b_syms[b])
        for s in range(ns)
        for q in range(nq)
        for b in range(nb)
    )
    init = [0] * size
    for s in range(ns):
        if is_zero(src.init[s]):
            continue
        for q0, rho in enumerate(ch.init):
            if is_zero(rho):
                continue
            for b, q2, p in ch.kernel[(q0, src.labels[s])]:
                init[idx(s, q2, b_index[b])] += src.init[s] * rho * p
    rows = [[0] * size for _ in range(size)]
    for s in range(ns):
        for q in range(nq):
            for b in range(nb):
                z = idx(s, q, b)
                for s2 in range(ns):
                    ps = src.trans[s][s2]
                    if is_zero(ps):
                        continue
                    for b2, q2, pk in ch.kernel[(q, src.labels[s2])]:
                        rows[z][idx(s2, q2, b_index[b2])] += ps * pk
    joint = FsmSource(
        product_alphabet(src.alphabet, ch.out_alphabet),
        states,
        tuple(init),
        tuple(tuple(r) for r in rows),
        labels,
    )
    return JointSource(joint, src.alphabet, ch.out_alphabet)


def input_marginal(joint: JointSource) -> FsmSource:
    src = joint.source
    return FsmSource(
        joint.in_alphabet,
        src.states,
        src.init,
        src.trans,
        tuple(a for a, _ in src.labels),
        src._cache,
    )


def output_marginal(joint: JointSource) -> FsmSource:
    src = joint.source
    return FsmSource(
        joint.out_alphabet,
        src.states,
        src.init,
        src.trans,
        tuple(b for _, b in src.labels),
        src._cache,
    )


def joint_stationary_mean(joint: JointSource) -> JointSource:
    return JointSource(
        stationary_mean(joint.source), joint.in_alphabet, joint.out_alphabet
    )


def joint_shifted(joint: JointSource, n: int) -> JointSource:
    return JointSource(
        shifted_source(joint.source, n), joint.in_alphabet, joint.out_alphabet
    )


def rect_walk(joint: JointSource, init: Vector | None = None) -> PrefixWalk:
    """(w, v) with |v| <= |w| -> joint mass per end state of the rectangle
    [w] x [v]; output positions beyond |v| are unconstrained."""
    src = joint.source
    eng = engine(src)
    by_pair = eng.label_masks(src.labels)
    by_input = eng.label_masks(tuple(a for a, _ in src.labels))

    def link(key):
        w, v = key
        step = eng if len(w) > 1 else None
        if len(v) == len(w):
            return (w[:-1], v[:-1]), step, by_pair[(w[-1], v[-1])]
        return (w[:-1], v), step, by_input[w[-1]]

    return PrefixWalk(((), ()), src.init if init is None else init, link)


def rect_prob(joint: JointSource, w: Word, v: Word, init: Vector | None = None) -> Scalar:
    """Joint mass of the rectangle [w] x [v] with |v| <= |w|.

    Output positions beyond |v| are unconstrained, so this also evaluates
    rectangles whose output side is shallower than the input side.
    """
    w = check_word(joint.in_alphabet, w)
    v = check_word(joint.out_alphabet, v)
    if len(v) > len(w):
        raise InvariantError("rectangle output word deeper than input word")
    return sum(rect_walk(joint, init)[w, v])


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def cascade(ch1: FsmChannel, ch2: FsmChannel) -> FsmChannel:
    """Markovian composition: feed the first channel's output into the second.

    The intermediate symbol is marginalized out; by construction the triple
    input/middle/output process is Markov in the middle coordinate.
    """
    if ch1.out_alphabet != ch2.in_alphabet:
        raise AlphabetMismatchError("cascade alphabets do not match")
    n1, n2 = len(ch1.states), len(ch2.states)
    states = tuple(
        f"{s1}|{s2}" for s1 in ch1.states for s2 in ch2.states
    )
    init = tuple(
        ch1.init[i] * ch2.init[j] for i in range(n1) for j in range(n2)
    )
    kernel: dict[tuple[int, object], KernelEntries] = {}
    for q1 in range(n1):
        for q2 in range(n2):
            q = q1 * n2 + q2
            for a in ch1.in_alphabet:
                acc: dict[tuple[object, int], Scalar] = {}
                for b, q1n, p1 in ch1.kernel[(q1, a)]:
                    for c, q2n, p2 in ch2.kernel[(q2, b)]:
                        key = (c, q1n * n2 + q2n)
                        acc[key] = acc.get(key, 0) + p1 * p2
                kernel[(q, a)] = tuple(
                    (c, qn, p) for (c, qn), p in acc.items()
                )
    return FsmChannel(ch1.in_alphabet, ch2.out_alphabet, states, init, kernel)


def markov_channel(
    matrices: Mapping[object, Matrix],
    out_labels: tuple,
    init: Vector | None = None,
    out_alphabet: Alphabet | None = None,
) -> FsmChannel:
    """Channel whose output is a Markov chain driven by the input.

    `matrices[a]` moves the output-state chain when input a is read; the new
    state's label is emitted.  All matrices must share the labeled state set
    and have stochastic rows.  The initial state law defaults to uniform.
    """
    n = len(out_labels)
    in_syms = tuple(matrices.keys())
    for a, m in matrices.items():
        if len(m) != n or any(len(r) != n for r in m):
            raise InvariantError("per-symbol matrices must share the state set")
        for row in m:
            _check_distribution(row, f"matrix row for input {a!r}")
    if out_alphabet is None:
        out_alphabet = Alphabet(tuple(dict.fromkeys(out_labels)))
    if init is None:
        init = tuple(Fraction(1, n) for _ in range(n))
    states = tuple(f"y{i}" for i in range(n))
    kernel: dict[tuple[int, object], KernelEntries] = {}
    for q in range(n):
        for a in in_syms:
            kernel[(q, a)] = tuple(
                (out_labels[q2], q2, matrices[a][q][q2])
                for q2 in range(n)
                if not is_zero(matrices[a][q][q2])
            )
    return FsmChannel(Alphabet(in_syms), out_alphabet, states, tuple(init), kernel)


def lift_to_pair_input(ch: FsmChannel, first_alphabet: Alphabet) -> FsmChannel:
    """Reinterpret a B->C channel as an (AxB)->C channel that ignores the
    first component; used to build triple joint processes through a cascade."""
    pair = product_alphabet(first_alphabet, ch.in_alphabet)
    kernel: dict[tuple[int, object], KernelEntries] = {}
    for q in range(len(ch.states)):
        for sym in pair:
            kernel[(q, sym)] = ch.kernel[(q, sym[1])]
    return FsmChannel(pair, ch.out_alphabet, ch.states, ch.init, kernel)


# ---------------------------------------------------------------------------
# conditional kernel tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionalKernelTable:
    """Depth-bounded conditional cylinder law: entry (w, v) with |v| <= |w|.

    Inputs with conditioning mass zero are flagged and carry no entries; a
    silent zero would corrupt the prefix-sum invariant
    sum_b entry(w, v + b) == entry(w, v), entry(w, ()) == 1.
    """

    in_alphabet: Alphabet
    out_alphabet: Alphabet
    depth: int
    entries: dict
    flagged: frozenset

    def entry(self, w: Word, v: Word) -> Scalar:
        return self.entries[(tuple(w), tuple(v))]


def conditional_table(
    joint: JointSource,
    mu: FsmSource,
    depth: int,
    init: Vector | None = None,
) -> ConditionalKernelTable:
    """Rectangle values of `joint` (optionally from a replacement initial
    vector) divided by the input-cylinder masses of `mu`."""
    entries: dict = {}
    flagged: set = set()
    inputs, rects = forward_walk(mu), rect_walk(joint, init)
    for w in joint.in_alphabet.words_upto(depth):
        pw = sum(inputs[w])
        if is_zero(pw):
            flagged.add(w)
            continue
        for k in range(len(w) + 1):
            for v in joint.out_alphabet.words(k):
                entries[(w, v)] = sum(rects[w, v]) / pw
    return ConditionalKernelTable(
        joint.in_alphabet, joint.out_alphabet, depth, entries, frozenset(flagged)
    )


def nu_i_table(
    src_stationary: FsmSource, ch: FsmChannel, i: int, depth: int
) -> ConditionalKernelTable:
    """Conditional table of the i-step-shifted joint law.

    For a stationary input the shifted joint law has the same input marginal,
    so it factors through a channel; this table is that channel's conditional
    law on cylinders, obtained by propagating the joint chain i steps
    (marginalizing the first i emissions) before the constrained forward pass.
    """
    if i < 0:
        raise InvariantError("shift index must be >= 0")
    if not _stationary_precondition(src_stationary):
        raise PreconditionError("the shifted-channel family needs a stationary source")
    joint = hookup(src_stationary, ch)
    init = shifted_source(joint.source, i).init
    return conditional_table(joint, src_stationary, depth, init=init)


def nu_partial_mean_table(
    src_stationary: FsmSource,
    ch: FsmChannel,
    n: int,
    depth: int,
    exact: bool = True,
) -> ConditionalKernelTable:
    """Cesaro partial mean (1/n) sum_{i<n} of the shifted-family tables.

    Rectangle values are linear in the joint initial vector and the input
    marginal is fixed, so the average of the n tables equals one table built
    from the averaged initial vector; that identity is what makes large n
    affordable.  `exact=False` runs the propagation in floats.
    """
    if n < 1:
        raise InvariantError("partial mean needs n >= 1")
    if not _stationary_precondition(src_stationary):
        raise PreconditionError("the shifted-channel family needs a stationary source")
    joint = hookup(src_stationary, ch)
    jsrc = joint.source if exact else as_float_source(joint.source)
    mu = src_stationary if exact else as_float_source(src_stationary)
    avg = engine(jsrc).partial_mean(jsrc.init, n)
    probe = JointSource(jsrc, joint.in_alphabet, joint.out_alphabet)
    return conditional_table(probe, mu, depth, init=avg)


def quasi_stationary_mean(
    src_stationary: FsmSource, ch: FsmChannel, depth: int
) -> ConditionalKernelTable:
    """Channel factor of the stationary mean of the hookup.

    The joint Cesaro limit is computed exactly; because the input is
    stationary, the limit's input marginal is the input law itself, and the
    table is the limit's rectangle values conditioned on input cylinders.
    The shifted-family partial means converge to this table entrywise.
    """
    if not _stationary_precondition(src_stationary):
        raise PreconditionError("quasi-stationary mean needs a stationary source")
    joint = hookup(src_stationary, ch)
    jbar = joint_stationary_mean(joint)
    return conditional_table(jbar, src_stationary, depth)


def qs_mean_table_wrt_ams(
    src: FsmSource, ch: FsmChannel, depth: int
) -> ConditionalKernelTable:
    """Channel factor of the stationary mean of the hookup of an arbitrary
    (AMS) source: rectangle values of the joint mean conditioned on the
    cylinders of the input's stationary mean."""
    joint = hookup(src, ch)
    jbar = joint_stationary_mean(joint)
    return conditional_table(jbar, stationary_mean(src), depth)


def table_coherence_witness(t: ConditionalKernelTable):
    """First violation of the prefix-sum invariant, or None."""
    for w in t.in_alphabet.words_upto(t.depth):
        if w in t.flagged:
            continue
        if not scalar_eq(t.entry(w, ()), 1):
            return (w, ())
        for k in range(len(w)):
            for v in t.out_alphabet.words(k):
                total = sum(t.entry(w, v + (b,)) for b in t.out_alphabet)
                if not scalar_eq(total, t.entry(w, v)):
                    return (w, v)
    return None


def table_agreement_witness(
    t1: ConditionalKernelTable, t2: ConditionalKernelTable, tol: float | None = None
):
    """First (w, v) where the tables disagree, on inputs unflagged in both."""
    for (w, v), x in t1.entries.items():
        if w in t2.flagged:
            continue
        y = t2.entries.get((w, v))
        if y is None:
            continue
        if tol is None:
            if not scalar_eq(x, y):
                return (w, v)
        elif abs(to_float(x) - to_float(y)) > tol:
            return (w, v)
    return None
