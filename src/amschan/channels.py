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

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping

from .errors import AlphabetMismatchError, InvariantError, PreconditionError
from .linalg import IntVector, Matrix, PrefixWalk, SparseMatrix, Vector, total
from .scalars import Scalar, is_zero, scalar_eq
from .seqcore import Alphabet, Word, check_word, product_alphabet
from .sources import (
    FsmSource,
    _check_distribution,
    _check_one_kind,
    _stationary_precondition,
    as_float_source,
    engine,
    forward_walk,
    is_recurrent,
    shifted_source,
    stationary_mean,
    with_init,
)

#: kernel entry list for one (state, input symbol): (output, next state, prob)
KernelEntries = tuple[tuple[object, int, Scalar], ...]


@dataclass
class FsmChannel:
    """Finite-state transducer with initial state law `init` and kernel K;
    like a source, it holds Fractions or floats, not both.  `_cache` holds
    the entry "kinds" of both and the kernel "steps" (`kernel_steps`)."""

    in_alphabet: Alphabet
    out_alphabet: Alphabet
    states: tuple[str, ...]
    init: Vector
    kernel: Mapping[tuple[int, object], KernelEntries]
    _cache: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.states)
        if len(self.init) != n:
            raise InvariantError("channel init size must match the state count")
        kinds = _check_distribution(self.init, "channel init")
        for q in range(n):
            for a in self.in_alphabet:
                entries = self.kernel.get((q, a))
                if entries is None:
                    raise InvariantError(f"kernel missing entries for state {q}, input {a!r}")
                for b, q2, _ in entries:
                    if b not in self.out_alphabet:
                        raise AlphabetMismatchError(f"output symbol {b!r} not in alphabet")
                    if not 0 <= q2 < n:
                        raise InvariantError("kernel next-state out of range")
                kinds |= _check_distribution(
                    [p for _, _, p in entries], f"kernel row for state {q}, input {a!r}"
                )
        _check_one_kind(kinds, "channel")
        self._cache = {"kinds": kinds}

    @property
    def is_exact(self) -> bool:
        return float not in self._cache["kinds"]


def kernel_steps(ch: FsmChannel) -> dict[tuple[object, object], SparseMatrix]:
    """(a, b) -> the sparse state-to-state step of reading a and emitting b,
    built once per channel and kept in its cache."""
    steps = ch._cache.get("steps")
    if steps is None:
        n = len(ch.states)
        steps = ch._cache["steps"] = {
            (a, b): SparseMatrix(
                [[(q2, p) for bb, q2, p in ch.kernel[(q, a)] if bb == b] for q in range(n)], n
            )
            for a in ch.in_alphabet
            for b in ch.out_alphabet
        }
    return steps


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
    return walk.total((w[: len(v)], v)) if v else 1


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
    """The output law nu(x, .) as a finite-state source over B: the output
    marginal of the hookup of `ch` with the point mass on x.

    That point mass is a deterministic source with one state per position of
    stem + cycle, labelled by its symbol; the last position steps back to the
    start of the cycle.
    """
    stem = check_word(ch.in_alphabet, x.stem)
    word = stem + check_word(ch.in_alphabet, x.cycle)
    m = len(word)
    trans = tuple(
        tuple(int(j == (p + 1 if p + 1 < m else len(stem))) for j in range(m))
        for p in range(m)
    )
    init = tuple(int(p == 0) for p in range(m))
    lasso = FsmSource(ch.in_alphabet, tuple(f"t{p}" for p in range(m)), init, trans, word)
    return output_marginal(hookup(lasso, ch))


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
    convention realized here.  The rows come from the source's sparse
    engine, and a joint row does not depend on the last output, so the |B|
    joint states that differ only in it share one row.

    The joint chain does not depend on `src.init`, so it is built once per
    (source chain, channel) and kept in the source's cache under "hookups";
    a later hookup of the same chain, alphabet, states and labels with the
    same channel computes only the joint init and shares the chain's
    `trans` and cache, its engine and Cesaro limit included.  A fresh
    chain gets its engine from the sparse rows built here.
    """
    if src.alphabet != ch.in_alphabet:
        raise AlphabetMismatchError("source alphabet differs from channel input")
    b_index = {b: i for i, b in enumerate(ch.out_alphabet)}
    nq, nb = len(ch.states), len(b_index)
    size = len(src.states) * nq * nb

    def emit(s: int, q: int, mass: Scalar, acc: dict[int, Scalar]) -> None:
        """Add mass * K(q, label(s))(b, q2) to acc at each joint state
        (s, q2, b); the first term is stored as it is, as ``0 + x`` would
        give it, and an int mass of 1 (a deterministic step) does not
        multiply."""
        unit = type(mass) is int and mass == 1
        for b, q2, pk in ch.kernel[(q, src.labels[s])]:
            j = (s * nq + q2) * nb + b_index[b]
            x = pk if unit else mass * pk
            acc[j] = acc[j] + x if j in acc else x

    def dense(acc: dict[int, Scalar]) -> tuple[Scalar, ...]:
        row: list[Scalar] = [0] * size
        for j, x in acc.items():
            row[j] = x
        return tuple(row)

    init: dict[int, Scalar] = {}
    for s, x in enumerate(src.init):
        for q0, rho in enumerate(ch.init):
            if not (is_zero(x) or is_zero(rho)):
                emit(s, q0, x * rho, init)
    memo = src._cache.setdefault("hookups", {})
    key = (id(ch), src.alphabet, src.states, src.labels)
    hit = memo.get(key)
    if hit is not None and hit[0] is ch:
        return JointSource(with_init(hit[1], dense(init)), src.alphabet, ch.out_alphabet)
    rows: list[tuple[Scalar, ...]] = []
    sparse: list[tuple[tuple[int, Scalar], ...]] = []
    col_types: list[set] = [set() for _ in range(size)]
    for src_row in engine(src).rows:
        for q in range(nq):
            acc: dict[int, Scalar] = {}
            for s2, ps in src_row:
                if not is_zero(ps):
                    emit(s2, q, ps, acc)
            for j, x in acc.items():
                col_types[j].add(type(x))
            rows += [dense(acc)] * nb
            sparse += [tuple((j, x) for j, x in sorted(acc.items()) if x)] * nb
    joint_states = [(s, q, b) for s in range(len(src.states)) for q in range(nq) for b in b_index]
    joint = FsmSource(
        product_alphabet(src.alphabet, ch.out_alphabet),
        tuple(f"{src.states[s]}|{ch.states[q]}|{b}" for s, q, b in joint_states),
        dense(init),
        tuple(rows),
        tuple((src.labels[s], b) for s, _, b in joint_states),
    )
    # the entries no row reaches are int 0, which adds nothing to a column's type
    joint._cache["engine"] = SparseMatrix(sparse, size, col_types)
    memo[key] = (ch, joint)
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


def rect_walk(joint: JointSource) -> PrefixWalk:
    """(w, v) with |v| <= |w| -> joint mass per end state of the rectangle
    [w] x [v] from the joint init; output positions beyond |v| are unconstrained."""
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

    return PrefixWalk(((), ()), src.init, link)


def rect_prob(joint: JointSource, w: Word, v: Word) -> Scalar:
    """Joint mass of the rectangle [w] x [v] with |v| <= |w|.

    Output positions beyond |v| are unconstrained, so this also evaluates
    rectangles whose output side is shallower than the input side.
    """
    w = check_word(joint.in_alphabet, w)
    v = check_word(joint.out_alphabet, v)
    if len(v) > len(w):
        raise InvariantError("rectangle output word deeper than input word")
    return rect_walk(joint).total((w, v))


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
                        p = p1 * p2
                        acc[key] = acc[key] + p if key in acc else p
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
    and have stochastic rows; the kernel keeps their positive entries.  The
    initial state law defaults to uniform.
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
        floats = any(isinstance(x, float) for m in matrices.values() for row in m for x in row)
        init = tuple(1 / n if floats else Fraction(1, n) for _ in range(n))
    states = tuple(f"y{i}" for i in range(n))
    kernel: dict[tuple[int, object], KernelEntries] = {}
    for q in range(n):
        for a in in_syms:
            kernel[(q, a)] = tuple(
                (out_labels[q2], q2, matrices[a][q][q2])
                for q2 in range(n)
                if matrices[a][q][q2] > 0
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

    Inputs whose conditioning mass is not positive (an exact zero, or a float
    rounding residue) are flagged and carry no entries; a silent zero would
    corrupt the prefix-sum invariant
    sum_b entry(w, v + b) == entry(w, v), entry(w, ()) == 1.
    """

    in_alphabet: Alphabet
    out_alphabet: Alphabet
    depth: int
    entries: dict
    flagged: frozenset

    def entry(self, w: Word, v: Word) -> Scalar:
        return self.entries[(tuple(w), tuple(v))]


def conditional_table(joint: JointSource, mu: FsmSource, depth: int) -> ConditionalKernelTable:
    """Rectangle values of `joint` from its own init (`rect_walk`) divided
    by the input-cylinder masses of `mu`.  An entry of an exact joint
    source is a Fraction, also where both masses are ints, and where both
    walks hold integer vectors it is read off their numerators; an entry
    of a float one is the float quotient."""
    entries: dict = {}
    flagged: set = set()
    inputs, rects = forward_walk(mu), rect_walk(joint)
    exact = joint.source.is_exact
    for w in joint.in_alphabet.words_upto(depth):
        pv = inputs.vector(w)
        pw = total(pv)
        if not pw > 0:
            flagged.add(w)
            continue
        if type(pw) is int and exact:
            pw = Fraction(pw)
        ints = exact and type(pv) is IntVector
        if ints:
            pw_den, pw_num = pv.den, sum(pv.nums)
        for k in range(len(w) + 1):
            for v in joint.out_alphabet.words(k):
                r = rects.vector((w, v))
                if ints and type(r) is IntVector:
                    # (sum(r.nums) / r.den) / (pw_num / pw_den)
                    entries[(w, v)] = Fraction(sum(r.nums) * pw_den, r.den * pw_num)
                else:
                    entries[(w, v)] = total(r) / pw
    return ConditionalKernelTable(
        joint.in_alphabet, joint.out_alphabet, depth, entries, frozenset(flagged)
    )


def _require_stationary(src: FsmSource, depth: int, what: str) -> None:
    """Raise PreconditionError unless `src` passes the stationarity test.

    A stationary measure is recurrent, and the recurrence check refutes on
    the chain graph; so a float source that is stationary within EPS but not
    recurrent is rejected, as in exact mode.  Its tables would otherwise
    divide by input masses below EPS that the joint law does not share, and
    break the prefix-sum invariant.
    """
    if not _stationary_precondition(src) or not (
        src.is_exact or is_recurrent(src, max(depth, 1)).recurrent
    ):
        raise PreconditionError(f"{what} needs a stationary source")


def nu_i_table(
    src_stationary: FsmSource, ch: FsmChannel, i: int, depth: int
) -> ConditionalKernelTable:
    """Conditional table of the i-step-shifted joint law.

    For a stationary input the shifted joint law has the same input marginal,
    so it factors through a channel; this table is that channel's conditional
    law on cylinders, the table of the joint law shifted i steps
    (`joint_shifted`, which marginalizes the first i emissions).
    """
    if i < 0:
        raise InvariantError("shift index must be >= 0")
    _require_stationary(src_stationary, depth, "the shifted-channel family")
    return conditional_table(joint_shifted(hookup(src_stationary, ch), i), src_stationary, depth)


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
    (table,) = nu_partial_mean_tables(src_stationary, ch, (n,), depth, exact)
    return table


def nu_partial_mean_tables(
    src_stationary: FsmSource,
    ch: FsmChannel,
    ns: tuple[int, ...],
    depth: int,
    exact: bool = True,
) -> list[ConditionalKernelTable]:
    """`nu_partial_mean_table` for each n in `ns`, each the table of the joint
    chain `with_init` its average, all from one propagation of max(ns) steps."""
    if min(ns) < 1:
        raise InvariantError("partial mean needs n >= 1")
    _require_stationary(src_stationary, depth, "the shifted-channel family")
    joint = hookup(src_stationary, ch)
    jsrc = joint.source if exact else as_float_source(joint.source)
    mu = src_stationary if exact else as_float_source(src_stationary)
    return [
        conditional_table(replace(joint, source=with_init(jsrc, avg)), mu, depth)
        for avg in engine(jsrc).partial_mean(jsrc.init, ns)
    ]


def quasi_stationary_mean(
    src_stationary: FsmSource, ch: FsmChannel, depth: int
) -> ConditionalKernelTable:
    """Channel factor of the stationary mean of the hookup.

    The joint Cesaro limit is computed exactly; because the input is
    stationary, the limit's input marginal is the input law itself, and the
    table is the limit's rectangle values conditioned on input cylinders.
    The shifted-family partial means converge to this table entrywise.
    """
    _require_stationary(src_stationary, depth, "quasi-stationary mean")
    joint = hookup(src_stationary, ch)
    jbar = joint_stationary_mean(joint)
    return conditional_table(jbar, src_stationary, depth)


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
