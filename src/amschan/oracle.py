"""Independent oracles: brute-force enumeration, literal Cesaro partial
sums, dense matrix products, the dense Fraction hookup, the full equality
search, the full domination enumerations, the full channel stationarity
enumeration, the full recurrence product, dense fraction-free elimination,
and Monte Carlo sampling.

These deliberately share no forward-pass or graph machinery with the
production modules (an oracle sharing the bug is no oracle): brute force
enumerates raw state paths with `itertools.product`, the Cesaro partials
follow the defining sum term by term, the equality search walks every
positive word breadth first with dense products, the domination
enumerations test every word up to the depth with restarted dense passes
and close reachability over the dense rows, `dense_hookup` multiplies the
source's dense entries by the kernel's in Fractions and writes every joint
row densely for the joint source's own check, the channel stationarity
enumeration restarts a pass over every kernel entry for each (w, v), the
recurrence oracles pair every chain state with every automaton state by
scanning dense rows and restart a dense forward pass per word, the dense
elimination updates every entry below each pivot in natural order, and sampling
uses the SplitMix64 stream with per-trajectory derived seeds so blocks merge
deterministically.
The recurrence oracles share `seqcore.PatternAutomaton`, which a test checks
against its definition, and solve an exact hitting system by `dense_bareiss`
and a float one by `linalg.solve`, which its own tests cover.
`positive_prefixes`, the word-by-word reference of the support enumeration,
steps the production engine once per word and symbol, masking each step
(``mask(step(v), keep)``): it checks which words the bitmasks keep, not the
forward pass.  So do `stepped_partial_means`, which steps every term of a
partial mean, and `ams_evidence_by_words`, the word-by-word AMS battery
over `sources.forward_walk`: they check the stored cycle, the column sums
and the level-by-level masses, not the step itself.  So do
`stepped_kernel_blocks` and `stepped_channel_stationarity_witness`, the
channel stationarity enumeration with one `step` per vector and one check
per pair, and `stepped_equivalence_witness`, the float equality search with
one masked `step` per word and symbol and one check per child: they
check the order of the walks, the pruning and the budget, not the step
itself.  Likewise `qs_mean_table_wrt_ams` and `table_agreement_witness`,
the table-side reference of the claim checks that decide table identities
on the joint means, build their tables with `channels.conditional_table`:
they check the route through the equality search, not the table
construction.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .channels import (
    ConditionalKernelTable,
    FsmChannel,
    JointSource,
    conditional_table,
    hookup,
    joint_stationary_mean,
    kernel_steps,
)
from .errors import AlphabetMismatchError, BudgetExceededError, SingularMatrixError
from .linalg import (
    IntVector, SparseMatrix, Vector, mask, null, same_total, solve, to_engine, total,
)
from .rng import SplitMix64, derive_seed
from .scalars import Scalar, is_positive, is_zero, scalar_eq, to_float
from .seqcore import CylinderEvent, PatternAutomaton, Word, product_alphabet, sort_words
from .sources import (
    FLOAT_SEARCH_BUDGET,
    AmsEvidence,
    FsmSource,
    as_float_source,
    engine,
    event_prob,
    forward_walk,
    stationary_mean,
    with_init,
)

#: refuse path enumerations larger than this
DEFAULT_PATH_BUDGET = 2_000_000


def _check_budget(n_states: int, depth: int, budget: int) -> None:
    if n_states**depth > budget:
        raise BudgetExceededError(
            f"{n_states}^{depth} paths exceed the enumeration budget {budget}"
        )


def brute_force_word_probs(
    src: FsmSource, depth: int, budget: int = DEFAULT_PATH_BUDGET
) -> dict[Word, Scalar]:
    """Measure of every depth-`depth` word by raw path enumeration."""
    n = len(src.states)
    _check_budget(n, depth, budget)
    out: dict[Word, Scalar] = {}
    for path in itertools.product(range(n), repeat=depth):
        p = src.init[path[0]]
        for i in range(1, depth):
            if p == 0:
                break
            p = p * src.trans[path[i - 1]][path[i]]
        if p == 0:
            continue
        word = tuple(src.labels[s] for s in path)
        out[word] = out.get(word, 0) + p
    return out


def brute_force_event_prob(
    src: FsmSource, e: CylinderEvent, budget: int = DEFAULT_PATH_BUDGET
) -> Scalar:
    """Event measure by raw path enumeration, the words' masses added in
    canonical order; exact in rational mode."""
    table = brute_force_word_probs(src, e.depth, budget)
    out: Scalar = 0
    for w in sort_words(e.words, src.alphabet):
        out = out + table.get(w, 0)
    return out


def brute_force_channel_prob(
    ch: FsmChannel, w: Word, v: Word, budget: int = DEFAULT_PATH_BUDGET
) -> Scalar:
    """nu([w], [v]) by enumerating channel state paths (|w| >= |v|)."""
    n = len(ch.states)
    _check_budget(n, len(v) + 1, budget)
    total: Scalar = 0
    for path in itertools.product(range(n), repeat=len(v) + 1):
        p: Scalar = ch.init[path[0]]
        for t in range(len(v)):
            if p == 0:
                break
            step = 0
            for b, q2, pr in ch.kernel[(path[t], w[t])]:
                if b == v[t] and q2 == path[t + 1]:
                    step = step + pr
            p = p * step
        total = total + p
    return total


def brute_force_rect_prob(
    src: FsmSource,
    ch: FsmChannel,
    input_words: list[Word],
    output_words: list[Word],
    budget: int = DEFAULT_PATH_BUDGET,
) -> Scalar:
    """Hookup mass of a rectangle, composed from the two path oracles.

    The defining integral on rectangles reduces on cylinders to
    sum over w in F of mu([w]) * nu([w], G).
    """
    depth = len(input_words[0])
    word_probs = brute_force_word_probs(src, depth, budget)
    total: Scalar = 0
    for w in input_words:
        mass = word_probs.get(w, 0)
        if mass == 0:
            continue
        for v in output_words:
            total = total + mass * brute_force_channel_prob(ch, w, v, budget)
    return total


def cesaro_partial(src: FsmSource, e: CylinderEvent, n: int) -> Scalar:
    """(1/n) * sum_{k<n} of the k-shifted event measure, by definition.

    The shifted initial vectors are accumulated incrementally, which computes
    exactly the defining sum of event_prob over shifted sources.
    """
    if n < 1:
        raise ValueError("partial mean needs n >= 1")
    total: Scalar = 0
    init = src.init
    for k in range(n):
        probe = with_init(src, init) if k else src
        total = total + event_prob(probe, e)
        if k < n - 1:
            init = dense_vec_mat(init, src.trans)
    return total / n


def stepped_partial_means(m: SparseMatrix, v: Vector, ns: tuple[int, ...]) -> list[Vector]:
    """`SparseMatrix.partial_mean` with a step for every term, accumulated
    term by term from int 0 and averaged as Fractions when the matrix and
    the vector are exact."""
    exact = m.exact and float not in map(type, v)
    acc: list[Scalar] = [0] * len(v)
    out = {}
    for k in range(1, max(ns) + 1):
        acc = [a + x for a, x in zip(acc, v)]
        if k in ns:
            out[k] = tuple(Fraction(a, k) if exact else a / k for a in acc)
        v = m.step(v)
    return [out[n] for n in ns]


def ams_evidence_by_words(src: FsmSource, depth: int = 2) -> AmsEvidence:
    """`sources.ams_evidence` word by word: each probe's masses come from a
    `forward_walk`, each word a mask of its prefix's one step, and the
    partial means from `stepped_partial_means`."""
    f = as_float_source(src)
    words = [w for n in range(1, depth + 1) for w in f.alphabet.words(n)]
    mean = forward_walk(with_init(f, tuple(map(to_float, stationary_mean(src).init))))
    target = {w: mean.total(w) for w in words}

    def deviation(avg: Vector) -> float:
        probe = forward_walk(with_init(f, avg))
        return total([abs(probe.total(w) - target[w]) for w in words])

    small, big = stepped_partial_means(engine(f), f.init, (128, 256))
    return AmsEvidence(128, 256, deviation(small), deviation(big))


def dense_bareiss(a: list[list[Scalar]], cols: list[list[Scalar]]) -> list[list[Fraction]]:
    """Solve a x = c exactly for each column c of `cols`: fraction-free
    (Bareiss) elimination of every entry of the dense integer-scaled rows,
    the first nonzero row below as each pivot, then back-substitution of the
    Cramer numerators over the last pivot.  Raises SingularMatrixError."""
    n = len(a)
    if n == 0:
        return [[] for _ in cols]
    width = n + len(cols)
    m: list[list[int]] = []
    for i in range(n):
        row = [*a[i], *(c[i] for c in cols)]
        d = math.lcm(*(x.denominator for x in row))
        m.append([x.numerator * (d // x.denominator) for x in row])
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        m[k], m[pivot] = m[pivot], m[k]
        for i in range(k + 1, n):
            for j in range(k + 1, width):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    det = m[n - 1][n - 1]
    out = []
    for c in range(n, width):
        num = [0] * n
        for i in range(n - 1, -1, -1):
            acc = det * m[i][c]
            for j in range(i + 1, n):
                acc -= m[i][j] * num[j]
            num[i] = acc // m[i][i]
        out.append([Fraction(x, det) for x in num])
    return out


def dense_vec_mat(v, m):
    """Row vector times matrix, as the literal dense sum over every entry,
    each added left to right from int 0: `sum` would compensate float
    rounding on Python 3.12 and later."""
    return tuple(
        functools.reduce(operator.add, (v[i] * m[i][j] for i in range(len(v))), 0)
        for j in range(len(m[0]))
    )


def mat_mul(a, b):
    """Matrix product, as the literal dense sum over every entry."""
    return tuple(dense_vec_mat(row, b) for row in a)


def mat_eq(a, b) -> bool:
    """Equal shapes and entrywise `scalar_eq`."""
    if len(a) != len(b) or any(len(r) != len(s) for r, s in zip(a, b)):
        return False
    return all(scalar_eq(x, y) for r, s in zip(a, b) for x, y in zip(r, s))


def _dense_extend(src: FsmSource, vec, sym, first: bool):
    """The forward vector of a word extended by `sym`: the literal dense
    product (none for the first symbol), masked to the states labeled `sym`."""
    base = vec if first else dense_vec_mat(vec, src.trans)
    return tuple(x if lab == sym else 0 for x, lab in zip(base, src.labels))


def _dense_forward(src: FsmSource, word: Word, init=None):
    vec = tuple(src.init if init is None else init)
    for t, sym in enumerate(word):
        vec = _dense_extend(src, vec, sym, t == 0)
    return vec


def bfs_equivalence_witness(
    s1: FsmSource, s2: FsmSource, max_len: int | None = None
) -> Word | None:
    """First word in canonical order, of length <= max_len (default
    |S1|+|S2|), on which the two measures differ, or None.

    Every word with positive measure under either source is extended, breadth
    first, with the literal dense product; only words null under both are cut.
    """
    if s1.alphabet != s2.alphabet:
        raise AlphabetMismatchError("sources live over different alphabets")
    bound = max_len if max_len is not None else len(s1.states) + len(s2.states)
    queue = deque([((), s1.init, s2.init)])
    while queue:
        word, v1, v2 = queue.popleft()
        if len(word) == bound:
            continue
        for sym in s1.alphabet:
            m1 = _dense_extend(s1, v1, sym, not word)
            m2 = _dense_extend(s2, v2, sym, not word)
            p1, p2 = sum(m1), sum(m2)
            if not scalar_eq(p1, p2):
                return word + (sym,)
            if is_positive(p1) or is_positive(p2):
                queue.append((word + (sym,), m1, m2))
    return None


def stepped_equivalence_witness(
    s1: FsmSource, s2: FsmSource, max_len: int | None = None, budget: int = FLOAT_SEARCH_BUDGET
) -> Word | None:
    """The reference of the float search of `sources.equivalence_witness`,
    which float and mixed pairs run unless the one-chain norm bound decides
    them: every word shorter than max_len (default |S1|+|S2|) that is not
    null under both sources is expanded, breadth first, with one
    `SparseMatrix.step` per word and symbol, masked to the symbol (the
    root's children only masked), and each child is checked on its own;
    raises BudgetExceededError on expanded word `budget` + 1."""
    bound = max_len if max_len is not None else len(s1.states) + len(s2.states)
    expanded = 0
    e1, e2 = engine(s1), engine(s2)
    masks1, masks2 = e1.label_masks(s1.labels), e2.label_masks(s2.labels)
    queue = deque([((), to_engine(s1.init), to_engine(s2.init))])
    while queue:
        word, v1, v2 = queue.popleft()
        if len(word) == bound:
            continue
        expanded += 1
        if expanded > budget:
            raise BudgetExceededError(f"float equality search expands more than {budget} words")
        for sym in s1.alphabet:
            m1 = mask(e1.step(v1) if word else v1, masks1[sym])
            m2 = mask(e2.step(v2) if word else v2, masks2[sym])
            if not same_total(m1, m2):
                return word + (sym,)
            if not (null(m1) and null(m2)):
                queue.append((word + (sym,), m1, m2))
    return None


def positive_prefixes(src: FsmSource, max_len: int) -> Iterator[tuple[Word, IntVector | Vector]]:
    """(word, forward vector in engine form) of each word of length <=
    max_len whose forward vector has a positive sum (a float one by the EPS
    test), lazily and in canonical order; only those words are extended."""
    eng = engine(src)
    masks = eng.label_masks(src.labels)
    level: list[tuple[Word, IntVector | Vector]] = [((), to_engine(src.init))]
    for _ in range(max_len):
        nxt: list[tuple[Word, IntVector | Vector]] = []
        for word, vec in level:
            for sym in src.alphabet:
                child = mask(eng.step(vec) if word else vec, masks[sym])
                if sum(child.nums) > 0 if type(child) is IntVector else is_positive(sum(child)):
                    nxt.append((word + (sym,), child))
                    yield nxt[-1]
        level = nxt


def enum_domination_witness(eta: FsmSource, mu: FsmSource, depth: int) -> Word | None:
    """First word in canonical order, of length <= depth, with positive mass
    under mu and none under eta; every word gets restarted dense passes."""
    for n in range(1, depth + 1):
        for w in mu.alphabet.words(n):
            if is_positive(sum(_dense_forward(mu, w))) and is_zero(sum(_dense_forward(eta, w))):
                return w
    return None


def enum_asymptotic_domination_witness(
    eta: FsmSource, mu: FsmSource, depth: int
) -> Word | None:
    """First word in canonical order, of length <= depth, that mu's chain
    spells from a recurrent state its init support reaches, and that has
    no mass under eta.  Reachability is closed over the dense rows; a state
    is recurrent when every state it reaches reaches it back; a word is
    spelled from those states when its dense pass from their indicator has
    positive mass."""
    n = len(mu.states)
    reach = []
    for i in range(n):
        seen, stack = {i}, [i]
        while stack:
            s = stack.pop()
            for j in range(n):
                if is_positive(mu.trans[s][j]) and j not in seen:
                    seen.add(j)
                    stack.append(j)
        reach.append(seen)
    recurrent = {j for j in range(n) if all(j in reach[k] for k in reach[j])}
    core = {j for i in range(n) if is_positive(mu.init[i]) for j in reach[i] & recurrent}
    start = tuple(int(s in core) for s in range(n))
    for length in range(1, depth + 1):
        for w in mu.alphabet.words(length):
            if is_positive(sum(_dense_forward(mu, w, start))) and is_zero(
                sum(_dense_forward(eta, w))
            ):
                return w
    return None


def dense_hookup(src: FsmSource, ch: FsmChannel) -> JointSource:
    """`channels.hookup` built densely, with no memo: each joint row is the
    dict of the products of the source's nonzero dense entries with the
    kernel entries, written into a dense row that the joint source's own
    check then reads.  A product is kept as it is, not multiplied, when the
    source entry is an int 1, and a first term is stored as it is."""
    b_index = {b: i for i, b in enumerate(ch.out_alphabet)}
    nq, nb = len(ch.states), len(b_index)
    size = len(src.states) * nq * nb

    def emit(s: int, q: int, mass: Scalar, acc: dict[int, Scalar]) -> None:
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
    rows: list[tuple[Scalar, ...]] = []
    for src_row in src.trans:
        for q in range(nq):
            acc: dict[int, Scalar] = {}
            for s2, ps in enumerate(src_row):
                if not is_zero(ps):
                    emit(s2, q, ps, acc)
            rows += [dense(acc)] * nb
    joint_states = [(s, q, b) for s in range(len(src.states)) for q in range(nq) for b in b_index]
    joint = FsmSource(
        product_alphabet(src.alphabet, ch.out_alphabet),
        tuple(f"{src.states[s]}|{ch.states[q]}|{b}" for s, q, b in joint_states),
        dense(init),
        tuple(rows),
        tuple((src.labels[s], b) for s, _, b in joint_states),
    )
    return JointSource(joint, src.alphabet, ch.out_alphabet)


def _kernel_pass(ch: FsmChannel, w: Word, v: Word) -> Scalar:
    """nu([w], [v]) by a restarted pass over every kernel entry (|w| >= |v|)."""
    if not v:
        return 1
    vec = list(ch.init)
    for t, b in enumerate(v):
        nxt: list[Scalar] = [0] * len(vec)
        for q, mass in enumerate(vec):
            if mass:
                for bb, q2, p in ch.kernel[(q, w[t])]:
                    if bb == b:
                        nxt[q2] = nxt[q2] + mass * p
        vec = nxt
    return sum(vec)


def enum_channel_stationarity_witness(ch: FsmChannel, depth: int) -> tuple[Word, Word] | None:
    """First (w, v) with |w| = m + 1, |v| = m <= depth, in the order m, w,
    v, where the mass given to [v] one step late on [w] differs from the
    mass given to [v] on w[1:]; every pair is enumerated."""
    for m in range(depth + 1):
        for w in ch.in_alphabet.words(m + 1):
            for v in ch.out_alphabet.words(m):
                late = sum(_kernel_pass(ch, w, (b,) + v) for b in ch.out_alphabet)
                if not scalar_eq(late, _kernel_pass(ch, w[1:], v)):
                    return (w, v)
    return None


def stepped_kernel_blocks(ch: FsmChannel):
    """`block(w)`: the kernel's forward vectors of (w, u) for every output
    word u of length |w|, in the order of `words`, and their masses, as
    ``(vectors, masses)``; each vector is stepped on its own by the
    `SparseMatrix.step` of the channel's `kernel_steps`, from the vectors
    of w[:-1], one (w[-1], b) at a time: the vectors and masses that
    `classify._walked_witness` reads off `kernel_walk`."""
    outs, steps = ch.out_alphabet.symbols, kernel_steps(ch)
    # the empty word's mass is 1, as kernel_cyl_prob gives it
    blocks = {(): ([to_engine(ch.init)], [1])}

    def block(w):
        found = blocks.get(w)
        if found is None:
            vectors = [steps[w[-1], b].step(x) for x in block(w[:-1])[0] for b in outs]
            found = blocks[w] = (vectors, [total(x) for x in vectors])
        return found

    return block


def stepped_channel_stationarity_witness(
    ch: FsmChannel, levels, budget: int | None = None
) -> tuple[Word, Word] | None:
    """The reference of `classify._walked_witness`, the pair walk of
    `classify.channel_stationarity_witness` (levels 0 to the bound for a
    float channel, the failing level for an exact one): the first failing
    (w, v) of the levels m in `levels`, each pair checked on its own on the
    blocks of `stepped_kernel_blocks`, its late masses added left to right
    from int 0 (`linalg.total`); raises BudgetExceededError at pair
    `budget` + 1."""
    block = stepped_kernel_blocks(ch)
    pairs = 0
    for m in levels:
        n_v = len(ch.out_alphabet) ** m
        for w in ch.in_alphabet.words(m + 1):
            late, masses = block(w)[1], block(w[1:])[1]
            for i, v in enumerate(ch.out_alphabet.words(m)):
                pairs += 1
                if budget is not None and pairs > budget:
                    raise BudgetExceededError(
                        f"float channel stationarity search checks more than {budget} (w, v) pairs"
                    )
                if not scalar_eq(total(late[i::n_v]), masses[i]):
                    return (w, v)
    return None


class _FullProduct:
    """Every (chain state, automaton state) pair with its positive-probability
    successors, split by the fate of the matching process: match states are
    absorbing, `never` states cannot reach one, and `can_avoid` states can
    reach a `never` state without matching."""

    def __init__(self, src: FsmSource, ac: PatternAutomaton):
        n = len(src.states)
        self.size = n * ac.size
        adj: list[list[tuple[int, Scalar]]] = [[] for _ in range(self.size)]
        for s in range(n):
            for s2 in range(n):
                p = src.trans[s][s2]
                if is_positive(p):
                    for q in range(ac.size):
                        adj[s * ac.size + q].append((s2 * ac.size + ac.delta[q][src.labels[s2]], p))
        self.adj = adj
        self.is_match = [ac.match[z % ac.size] for z in range(self.size)]
        radj: list[list[int]] = [[] for _ in range(self.size)]
        for z in range(self.size):
            if not self.is_match[z]:
                for z2, _ in adj[z]:
                    radj[z2].append(z)
        reach_match = _reverse_reach(radj, [z for z in range(self.size) if self.is_match[z]])
        self.never = [not self.is_match[z] and z not in reach_match for z in range(self.size)]
        reach_never = _reverse_reach(radj, [z for z in range(self.size) if self.never[z]])
        self.can_avoid = [z in reach_never and not self.is_match[z] for z in range(self.size)]
        self._hit: list[Scalar] | None = None

    def can_avoid_forever(self, z: int) -> bool:
        return any(self.can_avoid[z2] or self.never[z2] for z2, _ in self.adj[z])

    def hit_probabilities(self) -> list[Scalar]:
        """P(visit a match state at some time >= 0) per product state."""
        if self._hit is not None:
            return self._hit
        h: list[Scalar] = [0] * self.size
        unknown = []
        for z in range(self.size):
            if self.is_match[z]:
                h[z] = 1
            elif self.never[z]:
                h[z] = 0
            elif not self.can_avoid[z]:
                h[z] = 1
            else:
                unknown.append(z)
        if unknown:
            pos = {z: k for k, z in enumerate(unknown)}
            a = [[0] * len(unknown) for _ in unknown]
            b: list[Scalar] = [0] * len(unknown)
            for z in unknown:
                i = pos[z]
                a[i][i] = 1
                for z2, p in self.adj[z]:
                    if z2 in pos:
                        a[i][pos[z2]] = a[i][pos[z2]] - p
                    else:
                        b[i] = b[i] + p * h[z2]
            exact = not any(float in map(type, row) for row in (*a, b))
            x = dense_bareiss(a, [b])[0] if exact else solve(a, b)
            for z in unknown:
                h[z] = x[pos[z]]
        self._hit = h
        return h

    def avoid_forever(self, z: int) -> Scalar:
        """P(no match at any time >= 1 | start at z now); the products
        p * h are added left to right."""
        h = self.hit_probabilities()
        hit = 0
        for z2, p in self.adj[z]:
            hit = hit + p * h[z2]
        return 1 - hit


def _reverse_reach(radj: list[list[int]], seeds: list[int]) -> set[int]:
    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        for p in radj[queue.popleft()]:
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return seen


def product_recurrence_witness(src: FsmSource, depth: int) -> Word | None:
    """First positive word of length <= depth, in canonical order, with a
    realizing path that ends in a product state able to avoid the word
    forever; each word gets its own full product and a restarted dense
    forward pass."""
    for n in range(1, depth + 1):
        for w in src.alphabet.words(n):
            vec = _dense_forward(src, w)
            if not is_positive(sum(vec)):
                continue
            ac = PatternAutomaton(src.alphabet, [w])
            prod, q = _FullProduct(src, ac), ac.walk(w)
            if any(
                is_positive(x) and prod.can_avoid_forever(s * ac.size + q)
                for s, x in enumerate(vec)
            ):
                return w
    return None


def product_recurrence_defect(src: FsmSource, e: CylinderEvent) -> Scalar:
    """mu(F minus all later returns to F) on the full product of the chain
    with the automaton of F's words; an empty event has defect 0."""
    if e.is_empty:
        return Fraction(0) if src.is_exact else 0.0
    words = sort_words(e.words, src.alphabet)
    ac = PatternAutomaton(src.alphabet, words)
    prod = _FullProduct(src, ac)
    total: Scalar = 0
    for w in words:
        vec, q = _dense_forward(src, w), ac.walk(w)
        for s, x in enumerate(vec):
            if is_positive(x):
                total = total + x * prod.avoid_forever(s * ac.size + q)
    return total


def qs_mean_table_wrt_ams(
    src: FsmSource, ch: FsmChannel, depth: int
) -> ConditionalKernelTable:
    """Channel factor of the stationary mean of the hookup of an arbitrary
    (AMS) source: rectangle values of the joint mean conditioned on the
    cylinders of the input's stationary mean."""
    jbar = joint_stationary_mean(hookup(src, ch))
    return conditional_table(jbar, stationary_mean(src), depth)


def table_agreement_witness(t1: ConditionalKernelTable, t2: ConditionalKernelTable):
    """First (w, v) where the tables disagree, on inputs unflagged in both."""
    for (w, v), x in t1.entries.items():
        if w in t2.flagged:
            continue
        y = t2.entries.get((w, v))
        if y is not None and not scalar_eq(x, y):
            return (w, v)
    return None


@dataclass(frozen=True)
class EmpiricalTable:
    """Sampled word frequencies with binomial confidence half-widths."""

    horizon: int
    samples: int
    seed: int
    freq: dict

    def ci_half_width(self, word: Word) -> float:
        p = to_float(self.freq.get(tuple(word), 0))
        return 3.0 * math.sqrt(p * (1.0 - p) / self.samples)


#: refuse runs drawing more than this many symbols
DEFAULT_SAMPLE_BUDGET = 50_000_000


def monte_carlo(
    src: FsmSource,
    horizon: int,
    samples: int,
    seed: int,
    budget: int = DEFAULT_SAMPLE_BUDGET,
) -> EmpiricalTable:
    """Sample `samples` independent length-`horizon` trajectories.

    Trajectory i draws from SplitMix64(derive_seed(seed, i)), so any blocking
    of the work merges to the same table.  Frequencies are exact rationals
    count/samples.
    """
    if horizon < 1 or samples < 1:
        raise ValueError("horizon and sample count must be >= 1")
    if horizon * samples > budget:
        raise BudgetExceededError(
            f"{samples} x {horizon} symbols exceed the sampling budget {budget}"
        )
    n = len(src.states)
    init_cdf = _cumulative(src.init)
    row_cdf = [_cumulative(src.trans[i]) for i in range(n)]
    counts: dict[Word, int] = {}
    for i in range(samples):
        gen = SplitMix64(derive_seed(seed, i))
        s = _draw(init_cdf, gen.uniform())
        word = [src.labels[s]]
        for _ in range(horizon - 1):
            s = _draw(row_cdf[s], gen.uniform())
            word.append(src.labels[s])
        key = tuple(word)
        counts[key] = counts.get(key, 0) + 1
    freq = {w: Fraction(c, samples) for w, c in counts.items()}
    return EmpiricalTable(horizon, samples, seed, freq)


def _cumulative(vec) -> list[float]:
    acc = 0.0
    out = []
    for x in vec:
        acc += to_float(x)
        out.append(acc)
    return out


def _draw(cdf: list[float], u: float) -> int:
    for i, threshold in enumerate(cdf):
        if u < threshold:
            return i
    return len(cdf) - 1
