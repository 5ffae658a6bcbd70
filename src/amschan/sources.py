"""Finite-state hidden-Markov measures on one-sided sequence spaces.

A source is a Moore-style labeled Markov chain: state s emits the fixed
symbol label(s), so the measure of a cylinder [w] is the total probability of
state paths whose labels spell w.  Every measure-level notion used by the
classifiers reduces to finite linear algebra on the chain:

* shifting the measure replaces the initial distribution by pi P^n;
* the Cesaro limit matrix PI = lim (1/n) sum_k P^k always exists for a finite
  stochastic matrix and is assembled from the chain's communicating classes:
  PI[i][j] = sum over closed classes C of h(i,C) * pi_C(j), where h(i,C) is
  the absorption probability into C and pi_C its unique stationary law;
* the stationary mean of a source is the same chain started from pi PI;
* the recurrence defect of an event F, mu(F minus all later returns to F),
  is computed by pairing the chain with a multi-word matching automaton over
  F's words and solving a hitting-probability system on the product states
  reachable from F's end states;
* recurrence of a word is first decided on the closed classes of the chain's
  positive-transition graph; the product is built only for end states whose
  reachable closed classes do not all spell the word;
* ergodicity is read off the same graph: the closed classes that carry mass
  in the long run are those the init support reaches;
* a word's positivity depends only on the support of its forward vector,
  and the support after a symbol only on the support before it
  (`ChainGraph.image`, a subset construction).  The supports follow the
  positive entries of the model, which are exact in float mode too.  A
  word's pair of supports, on two chains or two roots of one chain, thus
  fixes its extensions' pairs, and `_support_pairs` searches those pairs
  breadth first, one word per pair.  `dominates` and
  `asymptotically_dominates` stop at the first pair whose dominator side
  is empty; `is_recurrent` pairs the support with the closed-class end
  states, certifies a source when no pair fails the closed-class decision,
  and enumerates words only toward pairs that fail it.  `positive_words`
  and `asymptotic_support` enumerate words on support bitmasks, whatever
  the scalars.

Chain results (engine, graph, Cesaro limit, the joint chains of hookups)
are cached per chain in `FsmSource._cache`; the module keeps no
process-global state.

Exactness policy: with rational inputs every verdict here is exact.  Float
inputs degrade value comparisons to the EPS tolerance of `scalars`; support
questions (positive words, reachable classes, absorption targets) read the
positive entries of the model and of the init, in either mode; a float entry
in [-EPS, 0), which the stochasticity check admits, counts as zero.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import (
    AlphabetMismatchError,
    BudgetExceededError,
    InvariantError,
    PreconditionError,
)
from .linalg import (
    IntVector, Matrix, PrefixWalk, RowBasis, SparseMatrix, Vector, cramer_numerators, entry, mask,
    null, same_total, solve, solve_columns, stacked, to_engine, to_scalars, total,
)
from .scalars import EPS, Scalar, scalar_eq, to_float
from .seqcore import Alphabet, CylinderEvent, Word, check_word, sort_words


@dataclass
class FsmSource:
    """Finite-state source: (alphabet, states, init law, transitions, labels).

    `_cache` holds what does not depend on `init`: the sparse "engine", the
    chain "graph" (`ChainGraph`, which also memoises support images),
    "cesaro", the chain's `_ChainLimit` in either arithmetic: the class
    laws, the absorption solve (an exact chain's as integer Cramer
    numerators over one denominator) and, once first read, the limit matrix
    PI as a SparseMatrix, and "hookups", the joint chains
    `channels.hookup` built from this chain, keyed by (id of the channel,
    alphabet, states, labels), each entry holding its channel so that a
    hit is confirmed by identity.  The labels are in the key because the
    two marginals of a hookup share one cache under different labels.
    Models are immutable values: a source's or channel's fields are never
    changed after it is built, which is what makes these entries valid for
    as long as the cache lives.  Sources sharing `trans` share it.  Its "checked" entry
    is the `trans` object whose rows were validated and "kinds" their entry
    types, so sources made from a checked chain skip the row scan; a row
    object that `trans` holds several times, as a hookup's, is checked once.
    After that check, chain computations read the engine's nonzero rows, not
    `trans`; only the public `class_decomposition` and `cesaro_limit` of a
    dense matrix check and convert it again.  A source given the cache of
    another `trans` object gets a fresh one instead.  A source holds
    Fractions or floats, not both.
    """

    alphabet: Alphabet
    states: tuple[str, ...]
    init: Vector
    trans: Matrix
    labels: tuple
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.states)
        if len(self.init) != n or len(self.trans) != n or len(self.labels) != n:
            raise InvariantError("init/trans/labels size must match the state count")
        for sym in self.labels:
            if sym not in self.alphabet:
                raise AlphabetMismatchError(f"label {sym!r} not in alphabet")
        kinds = _check_distribution(self.init, "init")
        if self._cache.get("checked") is not self.trans:
            self._cache = {"kinds": _check_rows(self.trans), "checked": self.trans}
        _check_one_kind(kinds | self._cache["kinds"], "source")

    @property
    def is_exact(self) -> bool:
        """No float in `init` or `trans`; the `trans` half reads the entry
        types recorded when the rows were checked."""
        return float not in self._cache["kinds"] and not any(
            isinstance(x, float) for x in self.init
        )


def _check_distribution(vec: Vector, what: str) -> set[type]:
    """Raise unless `vec` is a probability vector; return its entry types.
    Exact nonzero entries are summed as integer numerators over their lcm;
    a zero passes the sign test and adds nothing to the sum."""
    kinds = set(map(type, vec))
    if float not in kinds:
        nonzero = list(filter(None, vec))
        d = lcm(*(x.denominator for x in nonzero))
        nums = [x.numerator * (d // x.denominator) for x in nonzero]
        if min(nums, default=0) < 0:
            raise InvariantError(f"{what} has a negative entry")
        if sum(nums) != d:
            raise InvariantError(f"{what} does not sum to 1")
        return kinds
    total = 0
    for x in vec:
        if x:
            if x < (-EPS if isinstance(x, float) else 0):
                raise InvariantError(f"{what} has a negative entry")
            total += x
    if not scalar_eq(total, 1):
        raise InvariantError(f"{what} does not sum to 1")
    return kinds


def _check_rows(trans: Matrix) -> set[type]:
    """Raise unless `trans` is a square stochastic matrix; return its entry
    types.  Each distinct row object is checked once."""
    kinds: set = set()
    checked: set[int] = set()
    for row in trans:
        if id(row) not in checked:
            checked.add(id(row))
            if len(row) != len(trans):
                raise InvariantError("transition matrix must be square")
            kinds |= _check_distribution(row, "transition row")
    return kinds


def _check_one_kind(kinds: set[type], what: str) -> None:
    """A model holds Fractions or floats; ints go with either."""
    if Fraction in kinds and float in kinds:
        raise InvariantError(f"{what} mixes Fractions and floats")


def with_init(src: FsmSource, init: Vector) -> FsmSource:
    return FsmSource(src.alphabet, src.states, tuple(init), src.trans, src.labels, src._cache)


def as_float_source(src: FsmSource) -> FsmSource:
    return FsmSource(
        src.alphabet,
        src.states,
        tuple(to_float(x) for x in src.init),
        tuple(tuple(to_float(x) for x in row) for row in src.trans),
        src.labels,
    )


# ---------------------------------------------------------------------------
# cylinder evaluation
# ---------------------------------------------------------------------------


def engine(src: FsmSource) -> SparseMatrix:
    """The sparse forward engine of `src.trans`, built once per chain."""
    eng = src._cache.get("engine")
    if eng is None:
        eng = src._cache["engine"] = SparseMatrix.of(src.trans)
    return eng


def forward_walk(src: FsmSource) -> PrefixWalk:
    """Word -> mass per end state of generating it from `src.init` (start
    elsewhere with `with_init`); a word's vector is its prefix's, stepped and masked."""
    eng = engine(src)
    masks = eng.label_masks(src.labels)

    def link(word):
        return word[:-1], eng if len(word) > 1 else None, masks[word[-1]]

    return PrefixWalk((), src.init, link)


def forward_vector(src: FsmSource, word: Word) -> Vector:
    """Mass per end state of generating `word` (forward algorithm)."""
    return forward_walk(src)[tuple(word)]


def cyl_prob(src: FsmSource, word: Word) -> Scalar:
    """mu([w]); the empty word has measure 1."""
    word = check_word(src.alphabet, word)
    if not word:
        return 1
    return forward_walk(src).total(word)


def event_prob(src: FsmSource, e: CylinderEvent) -> Scalar:
    if e.alphabet != src.alphabet:
        raise AlphabetMismatchError("event alphabet differs from source alphabet")
    return sum(cyl_prob(src, w) for w in e.words)


def shifted_source(src: FsmSource, n: int) -> FsmSource:
    """The measure of the n-times shifted process: init becomes pi P^n."""
    if n < 0:
        raise InvariantError("shift count must be >= 0")
    init = to_engine(src.init)
    for _ in range(n):
        init = engine(src).step(init)
    return with_init(src, to_scalars(init)) if n else src


def positive_words(src: FsmSource, max_len: int) -> list[Word]:
    """All words of length <= max_len with positive measure, canonical order,
    enumerated on support bitmasks."""
    return [w for w, _ in _positive_supports(src, max_len)]


# ---------------------------------------------------------------------------
# supports as state bitmasks
# ---------------------------------------------------------------------------


def _bit_list(m: int) -> list[int]:
    """The set bits of `m`, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _init_bits(src: FsmSource) -> int:
    """The bitmask of the init's positive entries."""
    return sum(1 << i for i, x in enumerate(src.init) if x > 0)


def _positive_supports(
    src: FsmSource, max_len: int, root: int | None = None
) -> Iterator[tuple[Word, int]]:
    """(word, support bitmask of its forward vector) of each positive word of
    length <= max_len, lazily and in canonical order; the chain starts on
    the `root` mask, by default the init support."""
    graph = chain_graph(src)
    labels = graph.label_bits(src.labels)
    level: list[tuple[Word, int]] = [((), _init_bits(src) if root is None else root)]
    for _ in range(max_len):
        nxt: list[tuple[Word, int]] = []
        for word, m in level:
            img = graph.image(m) if word else m
            for sym in src.alphabet:
                child = img & labels[sym]
                if child:
                    nxt.append((word + (sym,), child))
                    yield nxt[-1]
        level = nxt


_Pair = tuple[int, int]


def _support_pairs(
    alphabet: Alphabet,
    depth: int,
    kept: tuple[FsmSource, int],
    other: tuple[FsmSource, int],
    succ: dict[_Pair | None, list[tuple[object, _Pair]]],
) -> Iterator[tuple[Word, _Pair]]:
    """(word, pair) of each distinct pair of supports, the word being the
    first, in canonical order, of length <= depth that is positive on the
    `kept` side and has that pair; lazily, in canonical order of the words.
    Each side is a chain and its root support mask.

    A word's pair fixes the pairs of all its extensions, so a pair is
    expanded once, from its first word: a later word with that pair has
    extensions whose pairs the first word's extensions, no longer and
    canonically earlier, already have.  Each expanded pair's (symbol,
    child pair) list, in alphabet order, goes into `succ`, the empty
    word's under the key None: its first symbol takes no image.
    """
    (ksrc, kroot), (osrc, oroot) = kept, other
    kgraph, ograph = chain_graph(ksrc), chain_graph(osrc)
    kbits, obits = kgraph.label_bits(ksrc.labels), ograph.label_bits(osrc.labels)
    labels = [(sym, kbits[sym], obits[sym]) for sym in alphabet]
    kimage, oimage = kgraph.image, ograph.image
    seen: set[_Pair] = set()
    level: list[tuple[Word, _Pair | None]] = [((), None)]
    for _ in range(depth):
        nxt = []
        for word, pair in level:
            k, o = (kroot, oroot) if pair is None else (kimage(pair[0]), oimage(pair[1]))
            succ[pair] = kids = []
            for sym, kb, ob in labels:
                if k & kb:
                    child = (k & kb, o & ob)
                    kids.append((sym, child))
                    if child not in seen:
                        seen.add(child)
                        nxt.append((word + (sym,), child))
                        yield nxt[-1]
        level = nxt


# ---------------------------------------------------------------------------
# communicating classes and the Cesaro limit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassDecomposition:
    """Strongly connected components of the positive-transition graph.

    `closed` lists the indices (into sccs) of closed (recurrent) classes;
    `absorb[i][c]` is the probability of eventual absorption into the c-th
    closed class from state i, int 0 where i does not reach it, int 1 in
    its own class, and a Fraction (a float in a float chain) for a
    transient i that reaches it; `classdist[c]` is that class's stationary
    law, written over the full state set with zeros outside the class.
    The absorption entries of an exact chain are its `_ChainLimit`'s
    numerators, each divided by the solve's denominator.
    """

    sccs: tuple[tuple[int, ...], ...]
    closed: tuple[int, ...]
    absorb: Matrix
    classdist: tuple[Vector, ...]


@dataclass(frozen=True)
class CesaroLimitMatrix:
    """PI = lim (1/n) sum_{k<n} P^k with its supporting decomposition."""

    matrix: Matrix
    decomposition: ClassDecomposition


def _sccs(adj) -> tuple[list[list[int]], list[int]]:
    """Kosaraju's algorithm, iterative: the components in topological order
    and each state's component index."""
    n = len(adj)
    seen = [False] * n
    order: list[int] = []
    for s in range(n):
        if seen[s]:
            continue
        stack: list[tuple[int, int]] = [(s, 0)]
        seen[s] = True
        while stack:
            v, i = stack.pop()
            if i < len(adj[v]):
                stack.append((v, i + 1))
                w = adj[v][i]
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, 0))
            else:
                order.append(v)
    radj: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for w in adj[v]:
            radj[w].append(v)
    comp = [-1] * n
    comps: list[list[int]] = []
    for s in reversed(order):
        if comp[s] != -1:
            continue
        cur = [s]
        comp[s] = len(comps)
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in radj[v]:
                if comp[w] == -1:
                    comp[w] = len(comps)
                    cur.append(w)
                    queue.append(w)
        comps.append(sorted(cur))
    return comps, comp


def _reach(adj, seeds) -> set[int]:
    """The states reachable from `seeds` along `adj`, seeds included."""
    seen = set(seeds)
    queue = deque(seen)
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


@dataclass(frozen=True)
class ChainGraph:
    """The positive-transition graph of a chain and its closed classes.

    `edges[i]` lists the positive entries (j, p) of row i in ascending j,
    `succ[i]` their j and `succ_bits[i]` their bitmask; `sccs` lists the
    members of every strongly connected component in topological order,
    `closed` those of each closed class, `class_of[i]` is the index in
    `closed` of i's class (-1 if i is transient), and `reach[i]` the indices
    of the closed classes i reaches.

    The graph also maps the supports of the chain's forward vectors, as
    bitmasks of states.  A forward vector's support fixes its successors'
    supports: the support of v M on the states labelled a is
    ``image(m) & label_bits(labels)[a]`` for m the support of v.  The
    supports of a chain thus form a finite automaton, the subset
    construction of Rabin and Scott (1959).  Both maps are memoised.
    """

    edges: tuple[tuple[tuple[int, Scalar], ...], ...]
    succ: tuple[tuple[int, ...], ...]
    succ_bits: tuple[int, ...]
    sccs: tuple[tuple[int, ...], ...]
    closed: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    reach: tuple[frozenset[int], ...]
    _image: dict[int, int] = field(default_factory=dict, repr=False, compare=False)
    _labels: dict[tuple, defaultdict[object, int]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def image(self, m: int) -> int:
        """The bitmask of the successors of the states in `m`."""
        out = self._image.get(m)
        if out is None:
            out = 0
            for i in _bit_list(m):
                out |= self.succ_bits[i]
            self._image[m] = out
        return out

    def label_bits(self, labels: tuple) -> defaultdict[object, int]:
        """label -> bitmask of the states carrying it (0 if none)."""
        bits = self._labels.get(labels)
        if bits is None:
            bits = self._labels[labels] = defaultdict(int)
            for j, label in enumerate(labels):
                bits[label] |= 1 << j
        return bits


def chain_graph(src: FsmSource) -> ChainGraph:
    """The ChainGraph of `src.trans`, built once per chain from the positive
    entries of its engine."""
    graph = src._cache.get("graph")
    if graph is None:
        graph = src._cache["graph"] = _chain_graph(engine(src))
    return graph


def _chain_graph(eng: SparseMatrix) -> ChainGraph:
    # a checked exact row's nonzero entries are all positive; a float row may
    # hold entries in [-EPS, 0), rounding residue that is not a transition
    if eng.exact:
        edges = eng.rows
    else:
        edges = tuple(tuple(e for e in row if e[1] > 0) for row in eng.rows)
    succ = tuple(tuple(j for j, _ in row) for row in edges)
    comps, comp_of = _sccs(succ)
    # a closed class is a component that no edge leaves
    closed = tuple(
        c for c, members in enumerate(comps)
        if all(comp_of[j] == c for i in members for j in succ[i])
    )
    class_of = [-1] * len(succ)
    for k, c in enumerate(closed):
        for s in comps[c]:
            class_of[s] = k
    # components come in topological order, so each one's successors are done
    reach_of: list[frozenset[int]] = [frozenset()] * len(comps)
    for c in reversed(range(len(comps))):
        acc = {class_of[comps[c][0]]} if c in closed else set()
        for i in comps[c]:
            for j in succ[i]:
                acc |= reach_of[comp_of[j]]
        reach_of[c] = frozenset(acc)
    return ChainGraph(
        edges,
        succ,
        tuple(sum(1 << j for j in row) for row in succ),
        tuple(map(tuple, comps)),
        tuple(tuple(comps[c]) for c in closed),
        tuple(class_of),
        tuple(reach_of[comp_of[i]] for i in range(len(succ))),
    )


@dataclass(frozen=True)
class _ChainLimit:
    """The Cesaro limit's pieces of one chain: its graph, each closed class's
    law, and h(s, C) for the transient states s, in the order of
    `transient`, as ``nums[c][i] / den``.  An exact chain's `nums` are the
    integer Cramer numerators of the absorption solve and `den` its last
    pivot (whose sign they share); a float chain's are the float solutions
    over 1.  `matrix` is PI itself, built from these on first use."""

    graph: ChainGraph
    classdist: tuple[Vector, ...]
    transient: tuple[int, ...]
    nums: list[list[Scalar]]
    den: int
    exact: bool

    def decomposition(self) -> ClassDecomposition:
        graph = self.graph
        absorb_rows: list[list[Scalar]] = [[0] * len(graph.closed) for _ in graph.class_of]
        for s, k in enumerate(graph.class_of):
            if k >= 0:
                absorb_rows[s][k] = 1
        # h(s, C) is zero unless s reaches C; a float solve can leave
        # roundoff there, which would give mass to a class s never enters
        for k, col in enumerate(self.nums):
            for s, x in zip(self.transient, col):
                if k in graph.reach[s]:
                    absorb_rows[s][k] = Fraction(x, self.den) if self.exact else x
        closed = tuple(
            c for c, members in enumerate(graph.sccs) if graph.class_of[members[0]] >= 0
        )
        absorb = tuple(tuple(row) for row in absorb_rows)
        return ClassDecomposition(graph.sccs, closed, absorb, self.classdist)

    @cached_property
    def matrix(self) -> SparseMatrix:
        return SparseMatrix.of(_limit_matrix(self.decomposition()))


def class_decomposition(trans: Matrix | FsmSource) -> ClassDecomposition:
    """The SCCs, each closed class's stationary law, and the absorption
    probabilities h(., C), with Q the transient block: the systems
    (I - Q) h = b_C of all closed classes C share one elimination.  The class
    laws, I - Q and each b_C are read off the nonzero entries in ascending
    order.

    `trans` is a stochastic matrix, which is checked and scanned for its
    nonzero entries, or a source, whose cached `_chain_limit` is read, so
    its chain is eliminated once."""
    if isinstance(trans, FsmSource):
        return _chain_limit(trans).decomposition()
    _check_rows(trans)
    eng = SparseMatrix.of(trans)
    return _solve_chain_limit(eng, _chain_graph(eng)).decomposition()


def _solve_chain_limit(eng: SparseMatrix, graph: ChainGraph) -> _ChainLimit:
    """The class laws and one absorption solve for all closed classes."""
    rows = eng.rows
    one = 1 if eng.exact else 1.0
    classdist = tuple(_class_stationary(rows, members, one) for members in graph.closed)
    transient: dict[int, int] = {}
    targets: dict[int, int] = {}
    for s, k in enumerate(graph.class_of):
        if k < 0:
            transient[s] = len(transient)
        else:
            targets[s] = k
    nums, den = _hitting_solve(rows, transient, targets, len(graph.closed), eng.exact)
    return _ChainLimit(graph, classdist, tuple(transient), nums, den, eng.exact)


def _hitting_solve(
    rows, unknown: dict[int, int], targets: dict[int, int], width: int, exact: bool
) -> tuple[list[list[Scalar]], int]:
    """Solve (I - Q) h = b_k for k < `width`, one elimination for all k;
    return the solutions as ``(nums, den)``, h_k = nums[k] / den.

    `rows[s]` lists the steps (j, p) out of state s.  `unknown` numbers the
    states whose h is solved for, which make up Q; a step into a state that
    `targets` maps to k adds p to b_k, and a step anywhere else adds
    nothing.  An exact chain's system is never built in Fractions: with the
    numerators n_sj of row s over their lcm d_s, row s of d_s (I - Q) has
    d_s - n_ss on its diagonal and -n_sj off it, and d_s b_k sums the n_sj
    of the steps into class k.  `linalg.cramer_numerators` eliminates these
    integer rows, so `nums` are the Cramer numerators and `den` the last
    pivot.  A float chain sets each entry of I - Q once, its diagonal to
    1 - p of the state's self-loop, solves it by `solve_columns`, and
    returns the float solutions over 1.
    """
    if exact:
        n = len(unknown)
        ints: list[dict[int, int]] = [{}] * n
        for s, i in unknown.items():
            row = rows[s]
            d = lcm(*(p.denominator for _, p in row))
            out = {i: d}
            for j, p in row:
                x = p.numerator * (d // p.denominator)
                u = unknown.get(j)
                if u is not None:
                    out[u] = d - x if u == i else -x
                else:
                    k = targets.get(j)
                    if k is not None:
                        out[n + k] = out.get(n + k, 0) + x
            ints[i] = {j: x for j, x in out.items() if x}
        return cramer_numerators(ints, width)
    a: list[list[Scalar]] = [[0] * len(unknown) for _ in unknown]
    cols: list[list[Scalar]] = [[0] * len(unknown) for _ in range(width)]
    for s, i in unknown.items():
        a[i][i] = 1
        for j, p in rows[s]:
            if j == s:
                a[i][i] = 1 - p
            elif j in unknown:
                a[i][unknown[j]] = -p
            else:
                k = targets.get(j)
                if k is not None:
                    b = cols[k]
                    b[i] = b[i] + p if b[i] else p
    return solve_columns(a, cols), 1


def _class_stationary(rows, members: tuple[int, ...], one: Scalar) -> Vector:
    """Unique stationary law of an irreducible closed class, written over all
    states: pi (P - I) = 0 on all but the last member's column, sum(pi) = 1.
    `rows` are the chain's nonzero entries; `one` is 1.0 in a float chain,
    so that a one-state class's law is a float too."""
    pos = {s: k for k, s in enumerate(members[:-1])}
    a: list[list[Scalar]] = [[0] * len(members) for _ in pos]
    for i, s in enumerate(members):
        if s in pos:
            a[i][i] = -1
        for j, p in rows[s]:
            if j in pos:
                a[pos[j]][i] = p - 1 if j == s else p
    x = solve([*a, [one] * len(members)], [0] * (len(members) - 1) + [one])
    full: list[Scalar] = [0] * len(rows)
    for s, p in zip(members, x):
        full[s] = p
    return tuple(full)


def cesaro_limit(trans: Matrix) -> CesaroLimitMatrix:
    """Cesaro limit matrix of a finite stochastic matrix (exact when the
    input is rational).

    Row i of the result is the long-run average occupation law started from
    state i; it is row-stochastic and satisfies PI P = P PI = PI PI = PI.
    """
    deco = class_decomposition(trans)
    return CesaroLimitMatrix(_limit_matrix(deco), deco)


def _limit_matrix(deco: ClassDecomposition) -> Matrix:
    """PI[i][j] = h(i, C) pi_C(j) for j in the closed class C, else int 0.
    h(i, C) is nonzero exactly where i reaches C, so a float limit keeps
    every h(i, C) and pi_C(j) as solved, however small, and its rows keep
    all their mass."""
    n = len(deco.absorb)
    # each class's law is zero off its own states, which are disjoint
    laws = [[(j, dist[j]) for j in deco.sccs[c]] for c, dist in zip(deco.closed, deco.classdist)]
    rows = []
    for absorb in deco.absorb:
        row = [0] * n
        for h, law in zip(absorb, laws):
            if h:
                for j, p in law:
                    row[j] = h * p
        rows.append(tuple(row))
    return tuple(rows)


def _chain_limit(src: FsmSource) -> _ChainLimit:
    """The "cesaro" entry of `FsmSource._cache`, exact or float; solved once
    per chain."""
    limit = src._cache.get("cesaro")
    if limit is None:
        limit = src._cache["cesaro"] = _solve_chain_limit(engine(src), chain_graph(src))
    return limit


def stationary_mean(src: FsmSource) -> FsmSource:
    """Same chain restarted from pi PI; its law is the Cesaro limit of the
    shifted laws, and it is stationary.  The limit's pieces, PI among
    them, are computed once per chain (`_chain_limit`).

    On an exact chain an exact init's mean is the weighted sum of the class
    laws, sum_C w_C pi_C, where w_C is the init's mass in C plus
    sum_i init_i h(i, C) over the transient states.  With the init as integers u over e (`IntVector`) and
    h(i, C) = N_i / D, w_C is the one Fraction
    (D sum_{j in C} u_j + sum_i u_i N_i) / (e D).  The result equals the
    step of `init` by PI in value and type: Fractions on the closed classes,
    zeros elsewhere that are Fractions when the init holds one.  A float
    init, or a float chain's, is stepped by the cached PI (`matrix`).
    """
    limit = _chain_limit(src)
    kinds = set(map(type, src.init))
    if not limit.exact or float in kinds:
        return with_init(src, limit.matrix.step(src.init))
    u = IntVector.of(src.init)
    den = u.den * limit.den
    # the init's transient mass, as (index in `transient`, numerator)
    mass = [(i, u.nums[s]) for i, s in enumerate(limit.transient) if u.nums[s]]
    init: list[Scalar] = [Fraction(0) if Fraction in kinds else 0] * len(src.init)
    for members, nums, dist in zip(limit.graph.closed, limit.nums, limit.classdist):
        w = Fraction(
            limit.den * sum(u.nums[j] for j in members) + sum(x * nums[i] for i, x in mass), den
        )
        for j in members:
            init[j] = w * dist[j]
    return with_init(src, tuple(init))


# ---------------------------------------------------------------------------
# measure equality and stationarity
# ---------------------------------------------------------------------------


#: most words a float-mode equality search may expand; the exact search
#: needs at most |S1|+|S2| + 1 and is not counted
FLOAT_SEARCH_BUDGET = 20_000


def equivalence_witness(
    s1: FsmSource, s2: FsmSource, max_len: int | None = None
) -> Word | None:
    """Shortest word (canonical order) on which the two measures differ.

    Checking all words up to |S1|+|S2| characterizes equality of finite-state
    measures, so a None result with the default bound is reported as full
    measure equality.  Subtrees where both measures vanish are pruned.

    With exact sources the search keeps a linear basis (Schutzenberger 1961,
    Tzeng 1992): a non-root word whose stacked forward vector ``v1 + v2`` is
    a combination of those of words expanded before it is not expanded.  Its
    extensions by z differ by the same combination of the earlier words'
    extensions by z, which are no longer and canonically earlier, so the
    witness is the one the full search finds, after at most |S1|+|S2|
    expansions besides the root's.  The root is left out of the basis: its
    children are masked, not stepped, so they follow another linear map.
    The search runs on integer numerators (`linalg.IntVector`): it compares
    masses by cross-multiplying and hands the numerators to the basis.
    When a source is a float one there is no exact rank test: the pair is
    compared as floats, an exact side through `as_float_source`, which is
    the answer float mode gives.  The full search then runs one level at a
    time on blocks of forward vectors (`_level_witness`); it raises
    BudgetExceededError past FLOAT_SEARCH_BUDGET expanded words, at the
    word where expanding one word at a time would.
    """
    if s1.alphabet != s2.alphabet:
        raise AlphabetMismatchError("sources live over different alphabets")
    bound = max_len if max_len is not None else len(s1.states) + len(s2.states)
    if not (s1.is_exact and s2.is_exact):
        f1, f2 = (as_float_source(s) if s.is_exact else s for s in (s1, s2))
        return _level_witness(f1, f2, bound)
    basis = RowBasis()
    e1, e2 = engine(s1), engine(s2)
    masks1, masks2 = e1.label_masks(s1.labels), e2.label_masks(s2.labels)
    queue: deque = deque([((), to_engine(s1.init), to_engine(s2.init))])
    while queue:
        word, v1, v2 = queue.popleft()
        if len(word) >= bound:
            continue
        if word and not basis.add_ints(stacked([v1, v2])):
            continue
        for sym in s1.alphabet:
            if word:
                m1, m2 = e1.step(v1, masks1[sym]), e2.step(v2, masks2[sym])
            else:
                m1, m2 = mask(v1, masks1[sym]), mask(v2, masks2[sym])
            if not same_total(m1, m2):
                return word + (sym,)
            if not (null(m1) and null(m2)):
                queue.append((word + (sym,), m1, m2))
    return None


def _level_witness(s1: FsmSource, s2: FsmSource, bound: int) -> Word | None:
    """The full search of `equivalence_witness` on two float sources: every
    word of length below `bound` that is not null under both is expanded,
    breadth first, a whole level at a time.

    Each source holds the level's forward vectors as one block
    (`_LevelBlock`), the words in canonical order.  A level after the root
    is stepped once, and the mass of each (word, symbol) is ``sum()`` of the
    stepped vector on the symbol's columns, in ascending state order.  The
    kept columns of a masked `SparseMatrix.step` hold exactly these values,
    and its zeros add nothing to the sum, so every mass, comparison and
    pruning decision is the one expanding word by word makes
    (`oracle.stepped_equivalence_witness`), and the first differing
    (word, symbol) in word-major order is the canonically first witness.
    The children that are not null on both sides make the next level, in
    the same order.  Before a level is stepped it is cut to the words
    FLOAT_SEARCH_BUDGET still allows; a witness among them is returned, and
    otherwise BudgetExceededError is raised, as expanding the next word one
    at a time would."""
    symbols = s1.alphabet.symbols
    sides = [_LevelBlock(s1), _LevelBlock(s2)]
    words: list[Word] = [()]
    expanded = depth = 0
    while words and depth < bound:
        allowed = max(FLOAT_SEARCH_BUDGET - expanded, 0)
        over = len(words) > allowed
        if over:
            words = words[:allowed]
            for side in sides:
                side.cut(allowed)
        expanded += len(words)
        (vals1, nulls1), (vals2, nulls2) = (side.masses(depth) for side in sides)
        hit = None
        for s, (a, b) in enumerate(zip(vals1, vals2)):
            k = next((k for k, (x, y) in enumerate(zip(a, b)) if abs(x - y) > EPS), None)
            if k is not None and (hit is None or k < hit[0]):
                hit = (k, s)
        if hit is not None:
            return words[hit[0]] + (symbols[hit[1]],)
        if over:
            raise BudgetExceededError(
                f"float equality search expands more than {FLOAT_SEARCH_BUDGET} words"
            )
        live = [
            (k, s)
            for k in range(len(words))
            for s in range(len(symbols))
            if not (nulls1[s][k] and nulls2[s][k])
        ]
        words = [words[k] + (symbols[s],) for k, s in live]
        depth += 1
        if words and depth < bound:
            for side in sides:
                side.advance(live)
    return None


class _LevelBlock:
    """One float source's side of `_level_witness`: the forward vectors of
    a level's words as one block of floats, a list per state across the
    words (see `SparseMatrix.step_block`); the init is read with ``float``,
    which changes no value, since a float model's ints are 0 and 1."""

    def __init__(self, src: FsmSource):
        self.eng = engine(src)
        masks = self.eng.label_masks(src.labels)
        #: each symbol's columns, in alphabet order, and each state's symbol
        self.groups = [masks[sym] for sym in src.alphabet]
        self.state_symbol = [src.alphabet.index(label) for label in src.labels]
        self.cols = [[float(x)] for x in src.init]

    def cut(self, n: int) -> None:
        """Keep the first n words of the level."""
        self.cols = [col[:n] for col in self.cols]

    def masses(self, depth: int) -> tuple[list[list], list[list[bool]]]:
        """Steps the block unless it is the root's and returns, per symbol,
        each word's child mass and whether it is null."""
        out = self.out = self.eng.step_block(self.cols) if depth else self.cols
        sums = []
        for g in self.groups:
            if not g:  # a symbol no state carries
                sums.append([0] * len(out[0]))
            elif len(g) == 1:  # sum() of a lone entry gives the entry back
                sums.append(out[g[0]])
            else:
                sums.append(list(map(sum, zip(*(out[j] for j in g)))))
        return sums, [[abs(x) <= EPS for x in s] for s in sums]

    def advance(self, live: list[tuple[int, int]]) -> None:
        """The next level: child (k, s) is word k's stepped vector on the
        columns of symbol s, zero elsewhere."""
        self.cols = [
            [col[k] if s == own else 0.0 for k, s in live]
            for col, own in zip(self.out, self.state_symbol)
        ]


def are_equivalent(s1: FsmSource, s2: FsmSource, max_len: int | None = None) -> bool:
    return equivalence_witness(s1, s2, max_len) is None


def is_stationary(src: FsmSource, max_len: int | None = None) -> bool:
    """Shift invariance: the measure equals its own one-step shift."""
    return are_equivalent(src, shifted_source(src, 1), max_len)


def _stationary_precondition(src: FsmSource) -> bool:
    """Cheap-first stationarity test for precondition checks.

    An init vector fixed by the transition matrix forces stationarity of the
    measure (this covers every stationary mean, whatever the state count);
    otherwise fall back to the measure-level check, which is polynomial in
    the state count for exact chains and budgeted in float mode.
    """
    if all(scalar_eq(a, b) for a, b in zip(shifted_source(src, 1).init, src.init)):
        return True
    return is_stationary(src)


# ---------------------------------------------------------------------------
# recurrence via pattern automata
# ---------------------------------------------------------------------------


class PatternAutomaton:
    """Multi-word matching automaton over a set of equal-length words.

    Each node stands for a word prefix; the nodes are numbered as the
    prefixes first occur in the words, from the empty prefix, node 0.  With
    u the prefix of node q, `delta[q][a]` is the node of the longest suffix
    of u + a that is a word prefix, so a walk ends on the longest suffix of
    its input that is one.  `match[q]` is true when u is one of the words;
    since the words have one length, that is when the path into q ends with
    one of them.
    """

    def __init__(self, alphabet: Alphabet, words):
        self.alphabet = alphabet
        words = [tuple(w) for w in words]
        ids: dict[Word, int] = {(): 0}
        for w in words:
            for k in range(1, len(w) + 1):
                ids.setdefault(w[:k], len(ids))
        self.delta: list[dict] = []
        for u in ids:
            row = {}
            for sym in alphabet:
                v = u + (sym,)
                while v not in ids:
                    v = v[1:]
                row[sym] = ids[v]
            self.delta.append(row)
        whole = set(words)
        self.match = [u in whole for u in ids]
        self.size = len(ids)

    def walk(self, word: Word) -> int:
        node = 0
        for sym in word:
            node = self.delta[node][sym]
        return node


class _AvoidanceProblem:
    """Product of a source chain with a pattern automaton, on the product
    states reachable from `starts`.

    Match states absorb the matching process, so only the starts and the
    non-match states are expanded; every kept state's successors are kept,
    and its fate is the one it has in the full product.  The fates split the
    states: `sure` states hit a match with probability one, `never` states
    cannot, and the remaining ones (`can_avoid` minus `never`) need a linear
    solve.  The split alone decides whether a recurrence defect vanishes; the
    solve gives its exact value.
    """

    def __init__(self, src: FsmSource, ac: PatternAutomaton, starts: list[int]):
        self.ac = ac
        self.exact = engine(src).exact
        edges = chain_graph(src).edges
        # product state z is a match when its automaton state, z % size, is
        size, delta, labels, match = ac.size, ac.delta, src.labels, ac.match
        adj: dict[int, list[tuple[int, Scalar]]] = {}
        stack = list(starts)
        while stack:
            z = stack.pop()
            if z in adj:
                continue
            s, q = divmod(z, size)
            adj[z] = row = [(s2 * size + delta[q][labels[s2]], p) for s2, p in edges[s]]
            stack.extend(z2 for z2, _ in row if z2 not in adj and not match[z2 % size])
        self.adj = adj

        radj: defaultdict[int, list[int]] = defaultdict(list)
        for z, row in adj.items():
            if not match[z % size]:  # absorbing for the hitting analysis
                for z2, _ in row:
                    radj[z2].append(z)
        states = set(adj).union(*([z2 for z2, _ in row] for row in adj.values()))
        reach_match = _reach(radj, [z for z in states if match[z % size]])
        self.states = sorted(states)
        self.never = {z for z in states if z not in reach_match}
        # product states with a positive chance of never matching again
        self.can_avoid = {z for z in _reach(radj, self.never) if not match[z % size]}

    @cached_property
    def hit_probabilities(self) -> tuple[dict[int, Scalar], int, dict[int, int]]:
        """P(visit a match state at some time >= 0) per product state, as
        ``(h, den, solved)``: state z's probability is h[z] / den, where
        `den` is the `_hitting_solve` denominator; `solved` numbers the
        states whose h was solved for, the others' being 0 or den."""
        # match states are in neither set: they are hit surely
        h: dict[int, Scalar] = {}
        unknown: dict[int, int] = {}
        for z in self.states:
            if z in self.never:
                h[z] = 0
            elif z in self.can_avoid:
                unknown[z] = len(unknown)
            else:
                h[z] = 1
        sure = {z: 0 for z, x in h.items() if x}
        (nums,), den = _hitting_solve(self.adj, unknown, sure, 1, self.exact)
        for z in sure:
            h[z] = den
        h.update(zip(unknown, nums))
        return h, den, unknown

    def avoid_forever(self, z: int) -> Scalar:
        """P(no match at any time >= 1 | start at z now).  Exact: with the
        numerators n_p of the row's steps over their lcm d, the one Fraction
        (d D - sum n_p h[z2]) / (d D); an int, as ``1 - sum(p * h)`` gives,
        when every step and every h it reads are ints."""
        h, den, solved = self.hit_probabilities
        row = self.adj[z]
        if not self.exact:
            return 1 - sum(p * h[z2] for z2, p in row)
        d = lcm(*(p.denominator for _, p in row))
        top = d * den - sum(p.numerator * (d // p.denominator) * h[z2] for z2, p in row)
        if any(type(p) is not int or z2 in solved for z2, p in row):
            return Fraction(top, d * den)
        return top // (d * den)

    def can_avoid_forever(self, z: int) -> bool:
        """Graph-only test for avoid_forever(z) > 0."""
        return any(z2 in self.can_avoid for z2, _ in self.adj[z])


def recurrence_defect(src: FsmSource, e: CylinderEvent) -> Scalar:
    """Exact mass of the event that never recurs: mu(F minus union of T^{-k}F).

    Paths realizing a word of F land in a product state of chain x automaton;
    from there the defect weight is the probability of never matching again.
    An empty event has defect 0 by convention.
    """
    if e.alphabet != src.alphabet:
        raise AlphabetMismatchError("event alphabet differs from source alphabet")
    if e.is_empty:
        return Fraction(0) if src.is_exact else 0.0
    # canonical order, so that a float defect does not depend on the hash seed
    words = sort_words(e.words, src.alphabet)
    ac = PatternAutomaton(src.alphabet, words)
    walk = forward_walk(src)
    ends = [(walk.vector(w), walk.support(w), ac.walk(w)) for w in words]
    prob = _AvoidanceProblem(src, ac, [s * ac.size + q for _, starts, q in ends for s in starts])
    total: Scalar = 0
    for vec, starts, q in ends:
        for s in starts:
            total = total + entry(vec, s) * prob.avoid_forever(s * ac.size + q)
    return total


@dataclass(frozen=True)
class Verdict:
    """Depth-tagged verdict: refutations carry the first violating word (or
    word pair) and are exact; confirmations only cover words up to `depth`."""

    holds: bool
    depth: int
    witness: Word | tuple[Word, Word] | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class RecurrenceVerdict:
    """Depth-tagged recurrence verdict: refutations are exact and final,
    confirmations only cover generating words up to `depth`."""

    recurrent: bool
    depth: int
    witness: Word | None = None

    def __bool__(self) -> bool:
        return self.recurrent


def is_recurrent(src: FsmSource, depth: int) -> RecurrenceVerdict:
    """Check defect == 0 for every positive-probability word of length <= depth.

    The defect of w vanishes iff no path realizing w ends in a product state
    that can still escape future matches.  A closed class is irreducible, so
    from any of its states the chain again spells every word that some path
    inside the class spells.  An end state s of w whose reachable closed
    classes all spell w therefore cannot escape: from any state s reaches it
    can still enter such a class and spell w.  This shortcut reads only the
    word's pair (supp, end): `supp` the support of its forward vector, `end`
    the closed-class states where a path inside its class spelling w can
    end.  A pair fails the shortcut when some state of `supp` reaches a
    closed class that `end` does not spell.

    The pairs of a word's extensions follow from its own pair, so the pairs
    up to `depth` are searched first, each expanded once (`_support_pairs`,
    with `supp` the kept side and `end` the other, rooted on every
    closed-class state).  If none fails, the source is recurrent up to
    `depth` and no word is enumerated.  Otherwise the positive words are
    enumerated in canonical order, skipping every word whose pair reaches no
    failing pair within the remaining depth (`_words_toward_failure`), and
    only the end states of a word whose own pair fails go to the product
    with its pattern automaton, of which only the graph split is used (no
    linear solve).  The first refuted word is the first in canonical order.
    """
    if depth < 1:
        raise InvariantError("recurrence depth must be >= 1")
    graph = chain_graph(src)
    reach = [sum(1 << c for c in r) for r in graph.reach]
    ends = sum(1 << s for c in graph.closed for s in c)
    succ: dict[_Pair | None, list[tuple[object, _Pair]]] = {}
    # each pair's start states: those of `supp` that reach a closed class
    # `end` does not spell
    failing: dict[_Pair, list[int]] = {}
    for _, pair in _support_pairs(src.alphabet, depth, (src, _init_bits(src)), (src, ends), succ):
        supp, end = pair
        spelled = 0
        for j in _bit_list(end):
            spelled |= 1 << graph.class_of[j]
        starts = [s for s in _bit_list(supp) if reach[s] & ~spelled]
        if starts:
            failing[pair] = starts
    if not failing:
        return RecurrenceVerdict(True, depth)
    for w, pair in _words_toward_failure(succ, failing, depth):
        starts = failing.get(pair)
        if starts:
            ac = PatternAutomaton(src.alphabet, [w])
            q = ac.walk(w)
            prob = _AvoidanceProblem(src, ac, [s * ac.size + q for s in starts])
            if any(prob.can_avoid_forever(s * ac.size + q) for s in starts):
                return RecurrenceVerdict(False, depth, w)
    return RecurrenceVerdict(True, depth)


def _words_toward_failure(succ, failing, depth: int) -> Iterator[tuple[Word, _Pair]]:
    """(word, pair) of each positive word of length <= depth, canonical
    order, whose pair reaches a failing pair within the depth left after
    it; the other words and their extensions are skipped.  Each pair's
    distance to a failing pair comes from a backward breadth-first search
    over `succ`."""
    pred: defaultdict[_Pair, list] = defaultdict(list)
    for pair, kids in succ.items():
        for _, child in kids:
            pred[child].append(pair)
    dist = dict.fromkeys(failing, 0)
    queue = deque(failing)
    while queue:
        pair = queue.popleft()
        for p in pred[pair]:
            if p not in dist:
                dist[p] = dist[pair] + 1
                queue.append(p)
    level: list[tuple[Word, _Pair | None]] = [((), None)]
    for k in range(1, depth + 1):
        nxt = []
        for w, pair in level:
            for sym, child in succ[pair]:
                d = dist.get(child)
                if d is not None and d <= depth - k:
                    nxt.append((w + (sym,), child))
                    yield nxt[-1]
        level = nxt


# ---------------------------------------------------------------------------
# support, domination, ergodicity
# ---------------------------------------------------------------------------


def asymptotic_support(src: FsmSource, max_len: int) -> set[Word]:
    """Words (length <= max_len) generable from the reachable closed classes.

    This is the eventual support of the shifted laws: transient mass dies
    out, so for a word outside this set mu(T^{-n}[w]) -> 0, and inside it the
    stationary mean gives [w] positive measure.
    """
    return {w for w, _ in _positive_supports(src, max_len, _core_bits(src))}


def _charged_classes(src: FsmSource) -> set[int]:
    """The closed classes, as indices into `chain_graph(src).closed`, that
    the init support reaches: those that carry mass in the long run."""
    graph = chain_graph(src)
    return set().union(*(graph.reach[i] for i in _bit_list(_init_bits(src))))


def _core_bits(src: FsmSource) -> int:
    """The bitmask of the states of the charged closed classes."""
    closed = chain_graph(src).closed
    return sum(1 << s for c in _charged_classes(src) for s in closed[c])


def dominates(eta: FsmSource, mu: FsmSource, depth: int) -> Verdict:
    """eta-null words must be mu-null, for all words of length <= depth;
    decided on pairs of supports (`_support_pairs`): the witness is the
    first word whose pair has an empty eta side."""
    if eta.alphabet != mu.alphabet:
        raise AlphabetMismatchError("sources live over different alphabets")
    pairs = _support_pairs(mu.alphabet, depth, (mu, _init_bits(mu)), (eta, _init_bits(eta)), {})
    w = next((w for w, (_, e) in pairs if not e), None)
    return Verdict(w is None, depth, w)


def asymptotically_dominates(
    eta_stationary: FsmSource, mu: FsmSource, depth: int
) -> Verdict:
    """eta-null words must leave the support of the shifted laws of mu.

    The dominating measure must be stationary (checked; rejected otherwise):
    for a stationary eta, asymptotic domination at cylinder level is exactly
    "every eta-null word is outside the asymptotic support of mu".  Decided
    on pairs of supports as `dominates` is, mu's side started from the
    closed classes its init support reaches.
    """
    if eta_stationary.alphabet != mu.alphabet:
        raise AlphabetMismatchError("sources live over different alphabets")
    if not _stationary_precondition(eta_stationary):
        raise PreconditionError("asymptotic domination needs a stationary dominator")
    eta = (eta_stationary, _init_bits(eta_stationary))
    pairs = _support_pairs(mu.alphabet, depth, (mu, _core_bits(mu)), eta, {})
    w = next((w for w, (_, e) in pairs if not e), None)
    return Verdict(w is None, depth, w)


@dataclass(frozen=True)
class ErgodicVerdict:
    """State-level ergodicity verdict.

    A negative verdict carries the caveat that distinct closed classes could
    in principle induce the same label law; the state-level test is
    sufficient for ergodicity but possibly not necessary.
    """

    ergodic: bool
    caveat: str
    positive_classes: tuple[tuple[str, ...], ...]

    def __bool__(self) -> bool:
        return self.ergodic


_ERGODIC_CAVEAT = "state-level test; negative verdicts are up to output-equivalence"


def is_ergodic(src: FsmSource) -> ErgodicVerdict:
    """Ergodic iff exactly one closed class carries mass in the long run,
    that is, iff the init support reaches exactly one closed class of the
    chain graph (Kemeny and Snell 1960); no Cesaro solve.  The init support
    is its positive entries, in either mode.
    """
    charged = _charged_classes(src)
    positive = tuple(
        tuple(src.states[s] for s in members)
        for c, members in enumerate(chain_graph(src).closed)
        if c in charged
    )
    return ErgodicVerdict(len(positive) == 1, _ERGODIC_CAVEAT, positive)


# ---------------------------------------------------------------------------
# source-level classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmsEvidence:
    """Observed Cesaro convergence of shifted laws toward the stationary mean.

    dev(n) aggregates |partial mean - stationary mean| over a word battery;
    `constant` is the empirical C with dev(n) <= C/n at the small n.
    """

    n_small: int
    n_big: int
    dev_small: float
    dev_big: float

    @property
    def constant(self) -> float:
        return self.n_small * self.dev_small

    @property
    def converged(self) -> bool:
        return self.dev_small <= 1e-12 or self.dev_big <= 0.7 * self.dev_small + 1e-12


def ams_evidence(src: FsmSource, depth: int = 2) -> AmsEvidence:
    """Finite-n convergence certificate at n = 128 and 256 (float
    arithmetic; sizes only).

    dev(n) sums |mass of [w] from the partial mean - mass from the
    stationary mean| over the words w of length 1..depth, shortest first
    and then lexicographic.  Each probe computes its masses level by level:
    a word's vector is its prefix's vector, stepped once for all its
    one-symbol extensions and then masked to each symbol's states.  A
    masked step adds the same products in the same order as a step
    restricted to the symbol's columns (`forward_walk`), so every mass is
    the forward pass's, bit for bit."""
    f = as_float_source(src)
    eng = engine(f)
    keeps = [eng.label_masks(f.labels)[a] for a in f.alphabet.symbols]

    def masses(root: Vector) -> list[Scalar]:
        out: list[Scalar] = []
        prefixes = [to_engine(root)]
        for n in range(depth):
            words = [mask(v, keep) for v in prefixes for keep in keeps]
            out += map(total, words)
            if n + 1 < depth:
                prefixes = list(map(eng.step, words))
        return out

    target = masses(tuple(map(to_float, stationary_mean(src).init)))

    def deviation(avg: Vector) -> float:
        return sum(abs(p - t) for p, t in zip(masses(avg), target))

    small, big = eng.partial_mean(f.init, (128, 256))
    return AmsEvidence(128, 256, deviation(small), deviation(big))


@dataclass(frozen=True)
class SourceVerdict:
    """Verdicts for one source, consistent with the stability hierarchy."""

    stationary: bool
    recurrent: RecurrenceVerdict
    ams: AmsEvidence
    ergodic: ErgodicVerdict
    dominated_by_mean: Verdict
    asymptotically_dominated: Verdict


def classify_source(src: FsmSource, depth: int = 4) -> SourceVerdict:
    """Full source report: stationarity, recurrence (depth-tagged), AMS
    convergence evidence, ergodicity, and both domination checks against the
    stationary mean."""
    mean = stationary_mean(src)
    stationary = is_stationary(src)
    recurrent = is_recurrent(src, depth)
    # A stationary measure is recurrent, and the recurrence check refutes on
    # the chain graph.  So a refutation proves the source non-stationary even
    # when the float stationarity test, equal up to EPS, passed; with exact
    # inputs the inversion can only be a bug.
    if stationary and not recurrent.recurrent:
        if src.is_exact:
            raise InvariantError("stationary source classified non-recurrent")
        stationary = False
    return SourceVerdict(
        stationary=stationary,
        recurrent=recurrent,
        ams=ams_evidence(src, depth=min(depth, 2)),
        ergodic=is_ergodic(src),
        dominated_by_mean=dominates(mean, src, depth),
        asymptotically_dominated=asymptotically_dominates(mean, src, depth),
    )
