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
  in the long run are those the init support reaches.

Chain results (engine, graph, Cesaro limit) are cached per chain in
`FsmSource._cache`; the module keeps no process-global state.

Exactness policy: with rational inputs every verdict here is exact; float
inputs degrade comparisons to the EPS tolerance of `scalars`.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    AlphabetMismatchError,
    BudgetExceededError,
    InvariantError,
    PreconditionError,
)
from .linalg import (
    Matrix, PrefixWalk, RowBasis, SparseMatrix, Vector, mask, solve, solve_columns, vec_mat
)
from .scalars import EPS, Scalar, is_positive, is_zero, scalar_eq, to_float
from .seqcore import Alphabet, CylinderEvent, Word, check_word, sort_words


@dataclass
class FsmSource:
    """Finite-state source: (alphabet, states, init law, transitions, labels).

    `_cache` holds what depends on `trans` alone ("engine", "graph",
    "cesaro"); sources sharing `trans` share it.  Its "checked" entry is the
    `trans` object whose rows were validated and "kinds" their entry types,
    so sources made from a checked chain skip the row scan.  A source given
    the cache of another `trans` object gets a fresh one instead.  A source
    holds Fractions or floats, not both.
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
            self._cache = {}
            trans_kinds: set = set()
            for row in self.trans:
                if len(row) != n:
                    raise InvariantError("transition matrix must be square")
                trans_kinds |= _check_distribution(row, "transition row")
            self._cache["checked"] = self.trans
            self._cache["kinds"] = trans_kinds
        _check_one_kind(kinds | self._cache["kinds"], "source")

    @property
    def is_exact(self) -> bool:
        """No float in `init` or `trans`; the `trans` half reads the entry
        types of the cached engine."""
        return float not in engine(self).types and not any(
            isinstance(x, float) for x in self.init
        )


def _check_distribution(vec: Vector, what: str) -> set[type]:
    """Raise unless `vec` is a probability vector; return its entry types."""
    # a zero passes the sign test and adds nothing to the sum, also in floats
    total = 0
    for x in vec:
        if x:
            if x < (-EPS if isinstance(x, float) else 0):
                raise InvariantError(f"{what} has a negative entry")
            total += x
    if not scalar_eq(total, 1):
        raise InvariantError(f"{what} does not sum to 1")
    return set(map(type, vec))


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


def forward_walk(src: FsmSource, init: Vector | None = None) -> PrefixWalk:
    """Word -> mass per end state of generating it, from `init` (default the
    source's own); a word's vector is its prefix's, stepped and masked."""
    eng = engine(src)
    masks = eng.label_masks(src.labels)

    def link(word):
        return word[:-1], eng if len(word) > 1 else None, masks[word[-1]]

    return PrefixWalk((), src.init if init is None else init, link)


def forward_vector(src: FsmSource, word: Word, init: Vector | None = None) -> Vector:
    """Mass per end state of generating `word` (forward algorithm)."""
    return forward_walk(src, init)[tuple(word)]


def cyl_prob(src: FsmSource, word: Word) -> Scalar:
    """mu([w]); the empty word has measure 1."""
    word = check_word(src.alphabet, word)
    if not word:
        return 1
    return sum(forward_vector(src, word))


def event_prob(src: FsmSource, e: CylinderEvent) -> Scalar:
    if e.alphabet != src.alphabet:
        raise AlphabetMismatchError("event alphabet differs from source alphabet")
    return sum(cyl_prob(src, w) for w in e.words)


def shifted_source(src: FsmSource, n: int) -> FsmSource:
    """The measure of the n-times shifted process: init becomes pi P^n."""
    if n < 0:
        raise InvariantError("shift count must be >= 0")
    init = src.init
    for _ in range(n):
        init = engine(src).step(init)
    return with_init(src, init) if n else src


def positive_prefixes(src: FsmSource, max_len: int) -> Iterator[tuple[Word, Vector]]:
    """(word, forward vector) of each positive-measure word of length <=
    max_len, lazily and in canonical order; only positive words are extended."""
    eng = engine(src)
    masks = eng.label_masks(src.labels)
    level: list[tuple[Word, Vector]] = [((), src.init)]
    for _ in range(max_len):
        nxt: list[tuple[Word, Vector]] = []
        for word, vec in level:
            for sym in src.alphabet:
                child = eng.step(vec, masks[sym]) if word else mask(vec, masks[sym])
                if is_positive(sum(child)):
                    nxt.append((word + (sym,), child))
                    yield nxt[-1]
        level = nxt


def positive_words(src: FsmSource, max_len: int) -> list[Word]:
    """All words of length <= max_len with positive measure, canonical order."""
    return [w for w, _ in positive_prefixes(src, max_len)]


# ---------------------------------------------------------------------------
# communicating classes and the Cesaro limit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassDecomposition:
    """Strongly connected components of the positive-transition graph.

    `closed` lists the indices (into sccs) of closed (recurrent) classes;
    `absorb[i][c]` is the probability of eventual absorption into the c-th
    closed class from state i; `classdist[c]` is that class's stationary law,
    written over the full state set with zeros outside the class.
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


def _positive_edges(trans: Matrix) -> list[list[int]]:
    n = len(trans)
    return [[j for j in range(n) if is_positive(trans[i][j])] for i in range(n)]


def _sccs(adj: list[list[int]]) -> list[list[int]]:
    """Kosaraju's algorithm, iterative; components in topological order."""
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
    return comps


def _closed_classes(adj: list[list[int]]) -> tuple[list[list[int]], list[int], tuple[int, ...]]:
    """The SCCs of `adj` in topological order, each state's SCC index, and
    the indices of the closed SCCs, which no edge leaves."""
    comps = _sccs(adj)
    comp_of = [0] * len(adj)
    for c, members in enumerate(comps):
        for v in members:
            comp_of[v] = c
    closed = tuple(
        c
        for c, members in enumerate(comps)
        if all(comp_of[j] == c for i in members for j in adj[i])
    )
    return comps, comp_of, closed


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

    `edges[i]` lists the (j, p) with ``is_positive(p)`` in ascending j, and
    `succ[i]` their j; `closed` lists the members of each closed class,
    `class_of[i]` is the index in `closed` of i's class (-1 if i is
    transient), and `reach[i]` the indices of the closed classes i reaches.
    """

    edges: tuple[tuple[tuple[int, Scalar], ...], ...]
    succ: tuple[tuple[int, ...], ...]
    closed: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    reach: tuple[frozenset[int], ...]


def chain_graph(src: FsmSource) -> ChainGraph:
    """The ChainGraph of `src.trans`, built once per chain from the nonzero
    entries of its engine."""
    graph = src._cache.get("graph")
    if graph is not None:
        return graph
    edges = tuple(tuple((j, p) for j, p in row if is_positive(p)) for row in engine(src).rows)
    succ = tuple(tuple(j for j, _ in row) for row in edges)
    comps, comp_of, closed = _closed_classes(succ)
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
    graph = src._cache["graph"] = ChainGraph(
        edges,
        succ,
        tuple(tuple(comps[c]) for c in closed),
        tuple(class_of),
        tuple(reach_of[comp_of[i]] for i in range(len(succ))),
    )
    return graph


def class_decomposition(trans: Matrix) -> ClassDecomposition:
    """The SCCs, each closed class's stationary law, and the absorption
    probabilities h(., C), with Q the transient block: the systems
    (I - Q) h = b_C of all closed classes C share one elimination."""
    n = len(trans)
    for row in trans:
        _check_distribution(row, "transition row")
    comps, comp_of, closed = _closed_classes(_positive_edges(trans))
    closed_states = {c: set(comps[c]) for c in closed}

    classdist = tuple(_class_stationary(trans, comps[c]) for c in closed)

    transient = [i for i in range(n) if comp_of[i] not in closed]
    absorb_rows: list[list[Scalar]] = [[0] * len(closed) for _ in range(n)]
    for ci, c in enumerate(closed):
        for s in closed_states[c]:
            absorb_rows[s][ci] = 1
    if transient:
        a = [
            [
                (1 if i == j else 0) - trans[transient[i]][transient[j]]
                for j in range(len(transient))
            ]
            for i in range(len(transient))
        ]
        cols = [[sum(trans[s][j] for j in closed_states[c]) for s in transient] for c in closed]
        for ci, h in enumerate(solve_columns(a, cols)):
            for s, x in zip(transient, h):
                absorb_rows[s][ci] = x
    absorb = tuple(tuple(row) for row in absorb_rows)
    return ClassDecomposition(
        tuple(tuple(c) for c in comps), closed, absorb, classdist
    )


def _class_stationary(trans: Matrix, members: tuple[int, ...] | list[int]) -> Vector:
    """Unique stationary law of an irreducible closed class."""
    k = len(members)
    idx = {s: i for i, s in enumerate(members)}
    a: list[list[Scalar]] = []
    b: list[Scalar] = []
    for row in range(k - 1):
        j = members[row]
        a.append(
            [trans[i][j] - (1 if i == j else 0) for i in members]
        )
        b.append(0)
    a.append([1] * k)
    b.append(1)
    x = solve(a, b)
    n = len(trans)
    full = [0] * n
    for s in members:
        full[s] = x[idx[s]]
    return tuple(full)


def cesaro_limit(trans: Matrix) -> CesaroLimitMatrix:
    """Cesaro limit matrix of a finite stochastic matrix (exact when the
    input is rational).

    Row i of the result is the long-run average occupation law started from
    state i; it is row-stochastic and satisfies PI P = P PI = PI PI = PI.
    """
    deco = class_decomposition(trans)
    n = len(trans)
    # each class's law is zero off its own states, which are disjoint
    support = [
        [(j, dist[j]) for j in deco.sccs[c] if not is_zero(dist[j])]
        for c, dist in zip(deco.closed, deco.classdist)
    ]
    rows = []
    for i in range(n):
        row = [0] * n
        for h, law in zip(deco.absorb[i], support):
            if not is_zero(h):
                for j, p in law:
                    row[j] = h * p
        rows.append(tuple(row))
    return CesaroLimitMatrix(tuple(rows), deco)


def stationary_mean(src: FsmSource) -> FsmSource:
    """Same chain restarted from pi PI; its law is the Cesaro limit of the
    shifted laws, and it is stationary.  PI is computed once per chain."""
    limit = src._cache.get("cesaro")
    if limit is None:
        limit = src._cache["cesaro"] = cesaro_limit(src.trans)
    return with_init(src, vec_mat(src.init, limit.matrix))


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
    Float sources have no exact rank test and keep the full search, which
    raises BudgetExceededError past FLOAT_SEARCH_BUDGET expanded words.
    """
    if s1.alphabet != s2.alphabet:
        raise AlphabetMismatchError("sources live over different alphabets")
    bound = max_len if max_len is not None else len(s1.states) + len(s2.states)
    basis = RowBasis() if s1.is_exact and s2.is_exact else None
    expanded = 0
    e1, e2 = engine(s1), engine(s2)
    masks1, masks2 = e1.label_masks(s1.labels), e2.label_masks(s2.labels)
    queue: deque[tuple[Word, Vector, Vector]] = deque([((), s1.init, s2.init)])
    while queue:
        word, v1, v2 = queue.popleft()
        if len(word) == bound:
            continue
        if basis is None:
            expanded += 1
            if expanded > FLOAT_SEARCH_BUDGET:
                raise BudgetExceededError(
                    f"float equality search expands more than {FLOAT_SEARCH_BUDGET} words"
                )
        elif word and not basis.add(v1 + v2):
            continue
        for sym in s1.alphabet:
            if word:
                m1, m2 = e1.step(v1, masks1[sym]), e2.step(v2, masks2[sym])
            else:
                m1, m2 = mask(v1, masks1[sym]), mask(v2, masks2[sym])
            p1, p2 = sum(m1), sum(m2)
            if not scalar_eq(p1, p2):
                return word + (sym,)
            if is_positive(p1) or is_positive(p2):
                queue.append((word + (sym,), m1, m2))
    return None


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
    """Multi-word matching automaton with totalized transitions.

    Built from a set of equal-length words: states are trie nodes, failure
    links give the longest suffix that is again a prefix of some word, and
    `delta` resolves every (state, symbol) pair.  `match[q]` is true when the
    path into q ends with one of the words.
    """

    def __init__(self, alphabet: Alphabet, words):
        self.alphabet = alphabet
        children: list[dict] = [{}]
        terminal: list[bool] = [False]
        for w in words:
            node = 0
            for sym in w:
                nxt = children[node].get(sym)
                if nxt is None:
                    nxt = len(children)
                    children[node][sym] = nxt
                    children.append({})
                    terminal.append(False)
                node = nxt
            terminal[node] = True

        n = len(children)
        fail = [0] * n
        delta: list[dict] = [dict() for _ in range(n)]
        match = list(terminal)
        queue = deque()
        for sym in alphabet:
            child = children[0].get(sym)
            if child is None:
                delta[0][sym] = 0
            else:
                delta[0][sym] = child
                fail[child] = 0
                queue.append(child)
        while queue:
            u = queue.popleft()
            match[u] = match[u] or match[fail[u]]
            for sym in alphabet:
                child = children[u].get(sym)
                if child is None:
                    delta[u][sym] = delta[fail[u]][sym]
                else:
                    fail[child] = delta[fail[u]][sym]
                    delta[u][sym] = child
                    queue.append(child)
        self.delta = delta
        self.match = match
        self.size = n

    def walk(self, word: Word, start: int = 0) -> int:
        node = start
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
        edges = chain_graph(src).edges
        size, delta, labels, is_match = ac.size, ac.delta, src.labels, self.is_match
        adj: dict[int, list[tuple[int, Scalar]]] = {}
        stack = list(starts)
        while stack:
            z = stack.pop()
            if z in adj:
                continue
            s, q = divmod(z, size)
            adj[z] = row = [(s2 * size + delta[q][labels[s2]], p) for s2, p in edges[s]]
            stack.extend(z2 for z2, _ in row if z2 not in adj and not is_match(z2))
        self.adj = adj

        radj: defaultdict[int, list[int]] = defaultdict(list)
        for z, row in adj.items():
            if not is_match(z):  # absorbing for the hitting analysis
                for z2, _ in row:
                    radj[z2].append(z)
        states = set(adj).union(*([z2 for z2, _ in row] for row in adj.values()))
        reach_match = _reach(radj, [z for z in states if is_match(z)])
        self.states = sorted(states)
        self.never = {z for z in states if z not in reach_match}
        # product states with a positive chance of never matching again
        self.can_avoid = {z for z in _reach(radj, self.never) if not is_match(z)}
        self._hit: dict[int, Scalar] | None = None

    def is_match(self, z: int) -> bool:
        return self.ac.match[z % self.ac.size]

    def hit_probabilities(self) -> dict[int, Scalar]:
        """P(visit a match state at some time >= 0) per product state."""
        if self._hit is not None:
            return self._hit
        h: dict[int, Scalar] = {}
        unknown = []
        for z in self.states:
            if self.is_match(z):
                h[z] = 1
            elif z in self.never:
                h[z] = 0
            elif z not in self.can_avoid:
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
            x = solve(a, b)
            for z in unknown:
                h[z] = x[pos[z]]
        self._hit = h
        return h

    def avoid_forever(self, z: int) -> Scalar:
        """P(no match at any time >= 1 | start at z now)."""
        h = self.hit_probabilities()
        return 1 - sum(p * h[z2] for z2, p in self.adj[z])

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
    ac = PatternAutomaton(src.alphabet, e.words)
    walk = forward_walk(src)
    ends = [(walk[w], ac.walk(w)) for w in e.words]
    prob = _AvoidanceProblem(
        src, ac, [s * ac.size + q for vec, q in ends for s, x in enumerate(vec) if is_positive(x)]
    )
    total: Scalar = 0
    for vec, q in ends:
        for s in range(len(vec)):
            if is_positive(vec[s]):
                total = total + vec[s] * prob.avoid_forever(s * ac.size + q)
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
    can still enter such a class and spell w.  Only the other end states go
    to the product, and only its graph split is used (no linear solve).
    """
    if depth < 1:
        raise InvariantError("recurrence depth must be >= 1")
    graph = chain_graph(src)
    masks = engine(src).label_masks(src.labels)
    # word -> the closed-class states where a path inside its class spelling
    # the word can end
    ends: dict[Word, set[int]] = {(): {s for c in graph.closed for s in c}}
    for w, vec in positive_prefixes(src, depth):
        prev = ends[w[:-1]]
        after = prev if len(w) == 1 else set().union(*(graph.succ[t] for t in prev))
        ends[w] = end = after.intersection(masks[w[-1]])
        spelled = {graph.class_of[j] for j in end}
        if len(spelled) == len(graph.closed):
            continue
        starts = [s for s, r in enumerate(graph.reach) if not r <= spelled and is_positive(vec[s])]
        if starts:
            ac = PatternAutomaton(src.alphabet, [w])
            q = ac.walk(w)
            prob = _AvoidanceProblem(src, ac, [s * ac.size + q for s in starts])
            if any(prob.can_avoid_forever(s * ac.size + q) for s in starts):
                return RecurrenceVerdict(False, depth, w)
    return RecurrenceVerdict(True, depth)


# ---------------------------------------------------------------------------
# support, domination, ergodicity
# ---------------------------------------------------------------------------


def asymptotic_support(src: FsmSource, max_len: int) -> set[Word]:
    """Words (length <= max_len) generable from the reachable closed classes.

    This is the eventual support of the shifted laws: transient mass dies
    out, so for a word outside this set mu(T^{-n}[w]) -> 0, and inside it the
    stationary mean gives [w] positive measure.
    """
    graph = chain_graph(src)
    start = [i for i, x in enumerate(src.init) if is_positive(x)]
    core = {s for i in start for c in graph.reach[i] for s in graph.closed[c]}

    out: set[Word] = set()
    level: dict[Word, frozenset[int]] = {(): frozenset(core)}
    for t in range(max_len):
        nxt: dict[Word, frozenset[int]] = {}
        for word, states in level.items():
            for sym in src.alphabet:
                if t == 0:
                    cell = frozenset(s for s in states if src.labels[s] == sym)
                else:
                    cell = frozenset(
                        j for s in states for j in graph.succ[s] if src.labels[j] == sym
                    )
                if cell:
                    nxt[word + (sym,)] = cell
        out.update(nxt)
        level = nxt
    return out


def dominates(eta: FsmSource, mu: FsmSource, depth: int) -> Verdict:
    """eta-null words must be mu-null, for all words of length <= depth."""
    if eta.alphabet != mu.alphabet:
        raise AlphabetMismatchError("sources live over different alphabets")
    walk = forward_walk(eta)
    for w, _ in positive_prefixes(mu, depth):
        if is_zero(sum(walk[w])):
            return Verdict(False, depth, w)
    return Verdict(True, depth)


def asymptotically_dominates(
    eta_stationary: FsmSource, mu: FsmSource, depth: int
) -> Verdict:
    """eta-null words must leave the support of the shifted laws of mu.

    The dominating measure must be stationary (checked; rejected otherwise):
    for a stationary eta, asymptotic domination at cylinder level is exactly
    "every eta-null word is outside the asymptotic support of mu".
    """
    if eta_stationary.alphabet != mu.alphabet:
        raise AlphabetMismatchError("sources live over different alphabets")
    if not _stationary_precondition(eta_stationary):
        raise PreconditionError("asymptotic domination needs a stationary dominator")
    walk = forward_walk(eta_stationary)
    for w in sort_words(asymptotic_support(mu, depth), mu.alphabet):
        if is_zero(sum(walk[w])):
            return Verdict(False, depth, w)
    return Verdict(True, depth)


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
    chain graph (Kemeny and Snell 1960); no Cesaro solve.  In float mode a
    class reached only along paths of mass below EPS counts too.
    """
    graph = chain_graph(src)
    charged = set().union(*(graph.reach[i] for i, x in enumerate(src.init) if is_positive(x)))
    positive = tuple(
        tuple(src.states[s] for s in members)
        for c, members in enumerate(graph.closed)
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


def ams_evidence(
    src: FsmSource, depth: int = 2, n_small: int = 128, n_big: int = 256
) -> AmsEvidence:
    """Finite-n convergence certificate (float arithmetic; sizes only)."""
    f = as_float_source(src)
    words = [w for n in range(1, depth + 1) for w in f.alphabet.words(n)]
    mean = forward_walk(f, tuple(map(to_float, stationary_mean(src).init)))
    target = {w: sum(mean[w]) for w in words}

    def deviation(n: int) -> float:
        probe = forward_walk(f, engine(f).partial_mean(f.init, n))
        return sum(abs(sum(probe[w]) - target[w]) for w in words)

    return AmsEvidence(n_small, n_big, deviation(n_small), deviation(n_big))


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
