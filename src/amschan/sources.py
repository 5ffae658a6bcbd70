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
  is 0 on an exact chain when the closed classes that F's end states reach
  all spell F; otherwise it is computed by pairing the chain with a
  multi-word matching automaton over F's words and solving a
  hitting-probability system on the product states reachable from F's end
  states;
* recurrence of a word is first decided on the closed classes of the chain's
  positive-transition graph; the product is built only for end states whose
  reachable closed classes do not all spell the word, and an init on the
  closed classes is recurrent with no search at all;
* what one integer step of an exact init decides is answered before any
  search or solve: an init equal to its step is stationary, and, on the
  closed classes, its own stationary mean;
* ergodicity is read off the same graph: the closed classes that carry mass
  in the long run are those the init support reaches;
* a word's positivity depends only on the support of its forward vector,
  and the support after a symbol only on the support before it
  (`ChainGraph.image`, a subset construction).  The supports follow the
  positive entries of the model, which are exact in float mode too.  A
  word's pair of supports, on two chains or two roots of one chain, thus
  fixes its extensions' pairs, and `_support_pairs` searches those pairs
  breadth first, one word per pair, to a depth or until a level adds none.
  `dominates` and `asymptotically_dominates` stop at the first pair whose
  dominator side is empty; `is_recurrent` pairs the support with the
  closed-class end states, certifies a source when no pair fails the
  closed-class decision, and enumerates words only toward pairs that fail
  it; the float stationarity gate asks for no failing pair at any length.
  `positive_words` and `asymptotic_support` enumerate words on support
  bitmasks, whatever the scalars.

Chain results (the row forms the stochasticity check read, the engine
built from them, graph, Cesaro limit, the joint chains of hookups) are
cached per chain in `FsmSource._cache`; the module keeps no process-global
state.

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
from itertools import compress, count
from math import inf, lcm

from .errors import (
    AlphabetMismatchError,
    BudgetExceededError,
    InvariantError,
    PreconditionError,
)
from .linalg import (
    IntVector, Matrix, PrefixWalk, RowBasis, SparseMatrix, Vector, cramer_numerators, entry,
    int_form, mask, null, same_entries, same_total, solve, solve_columns, stacked, to_scalars,
    total,
)
from .scalars import EPS, Scalar, scalar_eq, to_float
from .seqcore import Alphabet, CylinderEvent, PatternAutomaton, Word, check_word, sort_words


@dataclass
class FsmSource:
    """Finite-state source: (alphabet, states, init law, transitions, labels).

    The check of an exact init computes its integer form, a
    `linalg.IntVector`, and the source keeps it in `_init_form`; a float
    init keeps its tuple there, so `_init_form` is always the init's engine
    form (`linalg.to_engine`).  The walks, `shifted_source`,
    `equivalence_witness`, `_one_step` and the class weights of
    `stationary_mean` read it instead of converting `init` again, and
    `init` stays the given tuple.  A restart (`_restarted`) and a hookup's
    joint source on integer forms (`_source`) are given their form.

    `_cache` holds what does not depend on `init`, once per chain.  Its
    "checked" entry is the `trans` object whose rows were validated, and
    "rows" what the check read off them, the chain's only row form: their
    entry types, each row's nonzero entries (j, x) and, without a float,
    its integer form (d, numerators over d); a row object that `trans`
    holds several times, as a hookup's, is checked once and its forms are
    stored once.  From these come the sparse "engine", built on first use.
    The joint chain of an exact hookup whose kernel has no zero entry
    instead comes with its cache filled: its rows were checked on their
    integer forms, "rows" keeps only their entry types, and its "engine"
    is built from those forms, with one int flag per row (a
    `linalg.FormMatrix`); its `trans` is a `linalg.LazyMatrix`, whose
    dense rows, like the engine's Fraction rows, are built only when read.
    The chain also keeps the engine's float copy "float engine",
    which the AMS probe steps, the chain "graph" (`ChainGraph`, which also
    memoises support images) and "cesaro", the chain's `_ChainLimit` in
    either arithmetic: the class laws and, once first read by a
    decomposition or PI, the full absorption solve (an exact chain's as
    integer Cramer numerators over one denominator) and PI as a
    SparseMatrix; an exact init's stationary mean reads only the class
    laws and solves its own transposed system when the init charges a state
    that reaches two closed classes.  "hookups" holds the joint chains
    `channels.hookup` built from this chain, keyed by (id of the channel,
    alphabet, states, labels), each entry holding its channel so that a
    hit is confirmed by identity; the two marginals of a hookup share one
    cache under different labels.  Models are immutable values, so these
    entries stay valid for as long as the cache lives.  Sources sharing `trans` share
    it, and a source given the cache of another `trans` object gets a fresh
    one.  The public `class_decomposition` and `cesaro_limit` of a dense
    matrix check it the same way and cache nothing.  A source holds
    Fractions or floats, not both.
    """

    alphabet: Alphabet
    states: tuple[str, ...]
    init: Vector
    trans: Matrix
    labels: tuple
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._check(None)

    def _check(self, form: IntVector | None) -> None:
        """Raise unless the fields make a source; keep the init's engine
        form in `_init_form`.  An exact init is checked on its IntVector,
        `form` when it is given (`_source`) and else the one `_check_init`
        computes; a float init on its entries."""
        if not isinstance(self.alphabet, Alphabet):
            raise InvariantError("source alphabet must be an Alphabet")
        n = len(self.states)
        if len(self.init) != n or len(self.trans) != n or len(self.labels) != n:
            raise InvariantError("init/trans/labels size must match the state count")
        symbols = self.alphabet.symbols
        for sym in self.labels:
            if sym not in symbols:
                raise AlphabetMismatchError(f"label {sym!r} not in alphabet")
        if form is None:
            kinds, self._init_form = _check_init(self.init, "init")
        else:
            _check_form(form.den, form.nums, "init")
            kinds, self._init_form = {Fraction} if form.frac else {int}, form
        if self._cache.get("checked") is not self.trans:
            self._cache = {"rows": _check_rows(self.trans), "checked": self.trans}
        _check_one_kind(kinds | self._cache["rows"][0], "source")

    @property
    def is_exact(self) -> bool:
        """No float in `init` or `trans`; the `trans` half reads the entry
        types recorded when the rows were checked."""
        return float not in self._cache["rows"][0] and type(self._init_form) is IntVector

    @cached_property
    def _one_step(self) -> tuple[IntVector, bool]:
        """An exact init's one `IntVector` step, from its kept form, and
        whether it equals the init, taken once per source.  An init equal
        to its step is stationary (`stationarity_witness`) and, on the
        closed classes, its own stationary mean (`stationary_mean`)."""
        init = self._init_form
        step = engine(self).step(init)
        return step, same_entries(init, step)


def _source(alphabet, states, init: Vector, trans, labels, cache, form) -> FsmSource:
    """``FsmSource(alphabet, states, init, trans, labels, cache)``, where
    `form` is the engine form of `init` (`linalg.to_engine`): an exact init
    is checked on that IntVector, and no Fraction of it is read."""
    if type(form) is not IntVector:
        return FsmSource(alphabet, states, init, trans, labels, cache)
    src = object.__new__(FsmSource)
    src.alphabet, src.states, src.init = alphabet, states, init
    src.trans, src.labels, src._cache = trans, labels, cache
    src._check(form)
    return src


def _check_init(vec: Vector, what: str) -> tuple[set[type], IntVector | Vector]:
    """Raise unless the init `vec` is a probability vector; return its entry
    types and its engine form (`linalg.to_engine`), which a source or
    channel keeps: an exact init is checked on its IntVector, the one
    integer form that its readers step, and a float one as
    `_check_distribution` checks it."""
    kinds = set(map(type, vec))
    if float in kinds:
        _check_scalars(vec, what)
        return kinds, tuple(vec)
    form = IntVector.of(vec)
    _check_form(form.den, form.nums, what)
    return kinds, form


def _check_distribution(vec: Vector, what: str) -> tuple[set[type], tuple, tuple | None]:
    """Raise unless the row `vec` is a probability vector; return its entry
    types, its nonzero entries (j, x) and, when exact, their integer form
    (`linalg.int_form`), on whose numerators the sum is checked; a zero
    passes the sign test and adds nothing to the sum.  An init is checked
    by `_check_init` instead."""
    kinds = set(map(type, vec))
    nonzero = tuple(compress(enumerate(vec), vec))
    if float not in kinds:
        form = int_form(nonzero)
        _check_form(*form, what)
        return kinds, nonzero, form
    _check_scalars([x for _, x in nonzero], what)
    return kinds, nonzero, None


def _check_scalars(vec, what: str) -> None:
    """Raise unless the entries of `vec`, some of them floats, are a
    probability vector's within EPS."""
    if any(x < (-EPS if isinstance(x, float) else 0) for x in vec):
        raise InvariantError(f"{what} has a negative entry")
    if not scalar_eq(total(vec), 1):
        raise InvariantError(f"{what} does not sum to 1")


def _check_form(d: int, nums: tuple[int, ...], what: str) -> None:
    """Raise unless the integer form (d, numerators over d) of an exact
    vector, or of its nonzero entries, is a probability vector's."""
    if min(nums, default=0) < 0:
        raise InvariantError(f"{what} has a negative entry")
    if sum(nums) != d:
        raise InvariantError(f"{what} does not sum to 1")


def _check_rows(trans: Matrix) -> tuple[set[type], tuple, tuple | None]:
    """Raise unless `trans` is a square stochastic matrix; return its entry
    types, each row's nonzero entries and, unless it holds a float, each
    row's integer form.  Each distinct row object is checked once, and the
    rows holding it share its forms."""
    kinds: set = set()
    forms: dict[int, list] = {}
    for row in trans:
        if id(row) not in forms:
            if len(row) != len(trans):
                raise InvariantError("transition matrix must be square")
            row_kinds, *forms[id(row)] = _check_distribution(row, "transition row")
            kinds |= row_kinds
    rows, ints = zip(*(forms[id(row)] for row in trans)) if trans else ((), ())
    return kinds, rows, None if float in kinds else ints


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
    """The sparse forward engine of `src.trans`, built on first use from the
    row forms its check kept, and once per chain."""
    eng = src._cache.get("engine")
    if eng is None:
        eng = src._cache["engine"] = SparseMatrix.checked(src.trans, *src._cache["rows"])
    return eng


def _float_engine(src: FsmSource) -> SparseMatrix:
    """The engine of `as_float_source(src)`, built once per chain from the
    nonzero entries of `engine(src)`: each as a float, a zero float left
    out, and every column of type float, as `as_float_source` gives them.
    An exact entry's float is its numerator over d in its row's integer
    form, the correctly rounded quotient that ``float`` of the Fraction is."""
    eng = src._cache.get("float engine")
    if eng is None:
        n, base = len(src.states), engine(src)
        if base.exact:
            floats = (
                [(j, x / d) for j, x in zip(cols, nums)]
                for cols, (d, nums) in zip(base.cols, base.ints)
            )
        else:
            floats = ([(j, float(x)) for j, x in row] for row in base.rows)
        rows = [[(j, y) for j, y in row if y] for row in floats]
        eng = src._cache["float engine"] = SparseMatrix(rows, n, [{float}] * n)
    return eng


def forward_walk(src: FsmSource) -> PrefixWalk:
    """Word -> mass per end state of generating it from `src.init` (start
    elsewhere with `with_init`); a word's vector masks its prefix's one step."""
    eng = engine(src)
    masks = eng.label_masks(src.labels)

    def link(word):
        return word[:-1], eng if len(word) > 1 else None, masks[word[-1]]

    return PrefixWalk((), src._init_form, link)


def forward_vector(src: FsmSource, word: Word) -> Vector:
    """Mass per end state of generating `word` (forward algorithm)."""
    return forward_walk(src)[tuple(word)]


def cyl_prob(src: FsmSource, word: Word) -> Scalar:
    """mu([w]); the empty word has measure 1."""
    word = check_word(src.alphabet, word)
    return forward_walk(src).total(word) if word else 1


def event_prob(src: FsmSource, e: CylinderEvent) -> Scalar:
    """mu(e): its words' masses added from int 0 in canonical order, not the set's."""
    if e.alphabet != src.alphabet:
        raise AlphabetMismatchError("event alphabet differs from source alphabet")
    walk = forward_walk(src)
    return total(walk.total(w) for w in sort_words(e.words, src.alphabet))


def shifted_source(src: FsmSource, n: int) -> FsmSource:
    """The measure of the n-times shifted process: init becomes pi P^n."""
    if n < 0:
        raise InvariantError("shift count must be >= 0")
    if not n:
        return src
    init = src._init_form
    for _ in range(n):
        init = engine(src).step(init)
    return _restarted(src, init)


def _restarted(src: FsmSource, init: IntVector | Vector) -> FsmSource:
    """`src` started from the stepped init `init`, in engine form, which is
    not checked again as a distribution: a float chain whose rows each sum
    to within EPS of 1 can step a checked init's sum further from 1.  A
    step's IntVector is reduced by its gcd, so it is the one
    `IntVector.of` gives of its scalars and becomes the kept form; the old
    init's form and its step (`_one_step`) are not carried over."""
    out = object.__new__(FsmSource)
    out.__dict__.update(vars(src), init=tuple(to_scalars(init)), _init_form=init)
    out.__dict__.pop("_one_step", None)
    return out


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
    """The bitmask of the init's positive entries: its nonzero ones, a float
    only if positive, since an exact entry is checked nonnegative while a
    float one may lie in [-EPS, 0)."""
    return sum(1 << i for i, x in enumerate(src.init) if x and (type(x) is not float or x > 0))


def _on_closed_classes(src: FsmSource) -> bool:
    """Whether the init's support lies on closed-class states.  Such a law
    has no transient part (Kemeny and Snell 1960): every path stays in the
    class it starts in, so each support pair of `is_recurrent` passes the
    closed-class test and the source is recurrent at every depth."""
    return not _init_bits(src) & ~chain_graph(src).closed_bits


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
_Succ = dict[_Pair | None, list[tuple[object, _Pair]]]


def _support_pairs(
    alphabet: Alphabet,
    depth: int | None,
    kept: tuple[FsmSource, int],
    other: tuple[FsmSource, int],
    succ: _Succ,
) -> Iterator[tuple[Word, _Pair]]:
    """(word, pair) of each distinct pair of supports, the word being the
    first, in canonical order, of length <= depth that is positive on the
    `kept` side and has that pair; lazily, in canonical order of the words.
    Each side is a chain and its root support mask.  With `depth` None the
    search runs until a level adds no new pair: it then has every pair.

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
    for _ in count() if depth is None else range(depth):
        if not level:
            break
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

    `succ[i]` lists the j of the positive entries of row i, ascending, and
    `succ_bits[i]` their bitmask; `sccs` lists the members of every strongly
    connected component in topological order, `closed` those of each closed
    class, `class_of[i]` is the index in `closed` of i's class (-1 if i is
    transient), and `reach[i]` the bitmask of the closed classes i reaches.

    The graph also maps the supports of the chain's forward vectors, as
    bitmasks of states.  A forward vector's support fixes its successors'
    supports: the support of v M on the states labelled a is
    ``image(m) & label_bits(labels)[a]`` for m the support of v.  The
    supports of a chain thus form a finite automaton, the subset
    construction of Rabin and Scott (1959).  Both maps are memoised.
    """

    succ: tuple[tuple[int, ...], ...]
    succ_bits: tuple[int, ...]
    sccs: tuple[tuple[int, ...], ...]
    closed: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    reach: tuple[int, ...]
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

    @cached_property
    def closed_bits(self) -> int:
        """The bitmask of the states of all closed classes."""
        return sum(1 << s for c in self.closed for s in c)

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
        succ = eng.cols
    else:
        succ = tuple(tuple(j for j, p in row if p > 0) for row in eng.rows)
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
    reach_of = [0] * len(comps)
    for c in reversed(range(len(comps))):
        acc = 1 << class_of[comps[c][0]] if c in closed else 0
        for i in comps[c]:
            for j in succ[i]:
                acc |= reach_of[comp_of[j]]
        reach_of[c] = acc
    return ChainGraph(
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
    law, and its rows as ``(successors, weights)`` (`_row_weights`).  The
    absorption solve h(s, C) for all transient states and closed classes,
    `absorption`, and PI itself, `matrix`, are built from these on first
    read: by `decomposition()` (the public `class_decomposition` and
    `cesaro_limit`) and by the PI step of float inits and float chains.  An
    exact init's stationary mean reads neither (`_class_weights`)."""

    graph: ChainGraph
    classdist: tuple[Vector, ...]
    steps: tuple
    exact: bool

    @cached_property
    def absorption(self) -> tuple[tuple[int, ...], list[list[Scalar]], int]:
        """``(transient, nums, den)``: h(s, C) for the transient states s, in
        the order of `transient`, as ``nums[c][i] / den``, of one system
        (`_hitting_solve`): an exact chain's Cramer numerators over the last
        pivot (whose sign they share), a float chain's float solutions over 1."""
        transient: dict[int, int] = {}
        targets: dict[int, int] = {}
        for s, k in enumerate(self.graph.class_of):
            if k < 0:
                transient[s] = len(transient)
            else:
                targets[s] = k
        nums, den = _hitting_solve(
            self.steps, transient, targets, len(self.graph.closed), self.exact
        )
        return tuple(transient), nums, den

    def decomposition(self) -> ClassDecomposition:
        graph = self.graph
        transient, nums, den = self.absorption
        absorb_rows: list[list[Scalar]] = [[0] * len(graph.closed) for _ in graph.class_of]
        for s, k in enumerate(graph.class_of):
            if k >= 0:
                absorb_rows[s][k] = 1
        # h(s, C) is zero unless s reaches C; a float solve can leave
        # roundoff there, which would give mass to a class s never enters
        for k, col in enumerate(nums):
            for s, x in zip(transient, col):
                if graph.reach[s] >> k & 1:
                    absorb_rows[s][k] = Fraction(x, den) if self.exact else x
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
    eng = SparseMatrix.checked(trans, *_check_rows(trans))
    return _solve_chain_limit(eng, _chain_graph(eng)).decomposition()


def _row_weights(eng: SparseMatrix) -> tuple[tuple[int, tuple[Scalar, ...]], ...]:
    """Each row's weights as numerators over d, ``(d, numerators)``, aligned
    with `ChainGraph.succ`: an exact row's integer form (`SparseMatrix.ints`),
    a float row's positive entries over d = 1 (a residue in [-EPS, 0) is none)."""
    if eng.exact:
        return eng.ints
    return tuple((1, tuple(p for _, p in row if p > 0)) for row in eng.rows)


def _solve_chain_limit(eng: SparseMatrix, graph: ChainGraph) -> _ChainLimit:
    """The class laws, solved on the chain's rows as ``(successors,
    weights)`` (`_row_weights`), which the `_ChainLimit` keeps for its
    absorption solve."""
    steps = tuple(zip(graph.succ, _row_weights(eng)))
    classdist = tuple(_class_stationary(steps, members, eng.exact) for members in graph.closed)
    return _ChainLimit(graph, classdist, steps, eng.exact)


def _dense(rows: list[dict[int, Scalar]], width: int) -> tuple[list[list[Scalar]], list[list]]:
    """`cramer_numerators`' sparse rows of [a | c_0 ...] as dense ``(a, cols)``."""
    n = len(rows)
    a = [[r.get(j, 0) for j in range(n)] for r in rows]
    return a, [[r.get(n + k, 0) for r in rows] for k in range(width)]


def _hitting_solve(
    steps, unknown: dict[int, int], targets: dict[int, int], width: int, exact: bool
) -> tuple[list[list[Scalar]], int]:
    """Solve (I - Q) h = b_k for k < `width`, one elimination for all k;
    return the solutions as ``(nums, den)``, h_k = nums[k] / den.  A
    chain's absorption into its closed classes (`_ChainLimit.absorption`)
    and the recurrence defect's escape probabilities use it; an exact
    init's stationary mean solves the transpose of these rows instead,
    with the init as its one right-hand side (`_class_weights`).

    `steps[s]` gives the states j that state s steps to and the weights of
    the steps as ``(d_s, numerators n_sj)`` (`_row_weights`).  `unknown`
    numbers the states whose h is solved for, which make up Q; a step into
    a state that `targets` maps to k adds its weight to b_k, and a step
    anywhere else adds nothing.  One build serves both arithmetics, never
    in Fractions: row s of d_s (I - Q) has d_s - n_ss on its diagonal and
    -n_sj off it, and d_s b_k sums the n_sj of the steps into class k, left
    to right (a float row has d_s = 1).  `linalg.cramer_numerators`
    eliminates exact rows, giving Cramer numerators over the last pivot;
    `solve_columns` the dense float rows, giving solutions over 1.
    """
    n = len(unknown)
    rows: list[dict[int, Scalar]] = [{}] * n
    for s, i in unknown.items():
        succ, (d, nums) = steps[s]
        out = {i: d}
        for j, x in zip(succ, nums):
            u = unknown.get(j)
            if u is not None:
                out[u] = d - x if u == i else -x
            else:
                k = targets.get(j)
                if k is not None:
                    out[n + k] = out.get(n + k, 0) + x
        rows[i] = {j: x for j, x in out.items() if x}
    if exact:
        return cramer_numerators(rows, width)
    return solve_columns(*_dense(rows, width)), 1


def _class_stationary(steps, members: tuple[int, ...], exact: bool) -> Vector:
    """Unique stationary law of an irreducible closed class, written over all
    states: pi (P - I) = 0 on all but the last member's column, sum(pi) = 1.
    `steps` are the chain's rows as in `_hitting_solve`.  One build on the
    forms (d_s, n_s.) serves both arithmetics: with y_s = pi_s / d_s the
    equations read sum_s n_sj y_s = d_j y_j and sum_s d_s y_s = 1, so
    `linalg.cramer_numerators` gives pi_s = d_s N_s / D, and `solve` a float
    class's pi = y (d_s = 1).  Every successor of a member is a member."""
    pos = {s: k for k, s in enumerate(members)}
    last = len(members) - 1
    # column k is y_k = pi_k / d_k, and column last + 1 the right-hand side
    eqs = [{k: -steps[s][1][0]} for k, s in enumerate(members[:-1])] + [{last + 1: 1}]
    for k, s in enumerate(members):
        succ, (d, nums) = steps[s]
        eqs[last][k] = d
        for j, x in zip(succ, nums):
            if (i := pos[j]) < last:
                eqs[i][k] = x - d if j == s else x
    if exact:
        (ys,), den = cramer_numerators(eqs, 1)
        law = [Fraction(steps[s][1][0] * y, den) for s, y in zip(members, ys)]
    else:
        a, (b,) = _dense(eqs, 1)
        law = solve(a, b)
    full: list[Scalar] = [0] * len(steps)
    for s, p in zip(members, law):
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
    """The "cesaro" entry of `FsmSource._cache`, exact or float; its class
    laws are solved once per chain."""
    limit = src._cache.get("cesaro")
    if limit is None:
        limit = src._cache["cesaro"] = _solve_chain_limit(engine(src), chain_graph(src))
    return limit


def stationary_mean(src: FsmSource) -> FsmSource:
    """Same chain restarted from pi PI; its law is the Cesaro limit of the
    shifted laws, and it is stationary.  The class laws are solved once per
    chain (`_chain_limit`).

    On an exact chain an exact init's mean is the weighted sum of the class
    laws, sum_C w_C pi_C, where w_C is the init's mass in C plus its
    absorption into C from the transient states (`_class_weights`, at most
    one transposed solve per init).  The result equals the step of `init` by
    PI in value and type: Fractions on the closed classes, zeros elsewhere
    that are Fractions when the init holds one.  A float init, or a float
    chain's, is stepped by the cached PI (`matrix`), which reads the
    chain's full absorption solve.

    An exact init on the closed classes that equals its step
    (`FsmSource._one_step`) is its own mean: it is returned at once, with
    no `_ChainLimit`, in the solve's types (Fractions on the closed
    classes, the zeros above elsewhere).
    """
    kinds = set(map(type, src.init))
    if src.is_exact and _on_closed_classes(src) and src._one_step[1]:
        closed, zero = chain_graph(src).closed_bits, Fraction(0) if Fraction in kinds else 0
        mean = [Fraction(x) if closed >> j & 1 else zero for j, x in enumerate(src.init)]
        return with_init(src, tuple(mean))
    limit = _chain_limit(src)
    if not limit.exact or float in kinds:
        return with_init(src, limit.matrix.step(src.init))
    init: list[Scalar] = [Fraction(0) if Fraction in kinds else 0] * len(src.init)
    weights = _class_weights(limit, src._init_form)
    for members, w, dist in zip(limit.graph.closed, weights, limit.classdist):
        for j in members:
            init[j] = w * dist[j]
    return with_init(src, tuple(init))


def _class_weights(limit: _ChainLimit, u: IntVector) -> list[Fraction]:
    """w_C of an exact init on an exact chain for each closed class C: the
    init's mass in C plus alpha_T (I - Q)^-1 b_C, its absorption into C
    through the expected visits y to the transient states (Kemeny and
    Snell 1960).  The init comes as its kept IntVector u.

    The mass of a state that reaches one closed class only, a member of C
    or a transient state whose paths all end in C, goes to C whole, so
    only the states that reach two classes or more are unknowns of the
    solve, and a step into any other state adds to that state's class.
    An init that charges none of them, as on a chain of one closed class,
    solves nothing.

    With the init as integers u over e (`IntVector`), y solves the one
    transposed system y M = u, where M = d (I - Q) holds the integer rows
    that `_hitting_solve` builds, so y_s is e / d_s times the expected
    visits to s: the equation of state j has d_j - n_jj on y_j, -n_sj on
    y_s and u_j on the right.  It is eliminated once by
    `linalg.cramer_numerators`, giving y_s = Y_s / D, and w_C is the one
    Fraction (D m_C + sum_s Y_s sum_{t into C} n_st) / (e D), where m_C
    sums the u_j of the states whose mass goes to C whole."""
    graph, steps = limit.graph, limit.steps
    # the class that a state's mass all goes to, or -1 where it reaches several
    sink = [r.bit_length() - 1 if r & (r - 1) == 0 else -1 for r in graph.reach]
    acc = [0] * len(graph.closed)
    for x, k in zip(u.nums, sink):
        if k >= 0:
            acc[k] += x
    if not any(x for x, k in zip(u.nums, sink) if k < 0):
        return [Fraction(x, u.den) for x in acc]
    pos = {s: i for i, s in enumerate(s for s, k in enumerate(sink) if k < 0)}
    m = len(pos)
    eqs: list[dict[int, int]] = [{} for _ in pos]
    for s, i in pos.items():
        succ, (d, nums) = steps[s]
        eqs[i][i] = d
        if u.nums[s]:
            eqs[i][m] = u.nums[s]
        for t, x in zip(succ, nums):
            j = pos.get(t)
            if j is not None:
                eqs[j][i] = eqs[j].get(i, 0) - x
    (ys,), den = cramer_numerators(eqs, 1)
    acc = [den * x for x in acc]
    for s, y in zip(pos, ys):
        succ, (_, nums) = steps[s]
        for t, x in zip(succ, nums):
            k = sink[t]
            if k >= 0:
                acc[k] += y * x
    return [Fraction(x, u.den * den) for x in acc]


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
    The search runs on integer numerators (`linalg.IntVector`), one step
    per expanded word and source, masked for each symbol: it compares
    masses by cross-multiplying and hands the numerators to the basis.
    Two exact sources with equal inits on one chain (same labels and rows)
    have one law, so the search returns None at once, as for a stationary
    mean against its shift: on a sparse 64-state chain that takes about
    1 ms, where the stacked 2n-wide search takes 8.6 s.
    When a source is a float one there is no exact rank test: the pair is
    compared as floats, an exact side through `as_float_source`, which is
    the answer float mode gives.  Two float laws on one chain (same labels
    and equal rows) whose inits are within the norm bound of
    `_within_float_bound` pass every comparison of the search, so it
    returns None at once.  Otherwise the same loop runs without the basis:
    every word shorter than the bound that is not null under both laws is
    expanded, the root included, and the search raises
    BudgetExceededError on expanded word FLOAT_SEARCH_BUDGET + 1.
    """
    if s1.alphabet != s2.alphabet:
        raise AlphabetMismatchError("sources live over different alphabets")
    bound = max_len if max_len is not None else len(s1.states) + len(s2.states)
    basis = None
    if s1.is_exact and s2.is_exact:
        e1, e2 = engine(s1), engine(s2)
        if _one_chain(s1, s2, e1, e2) and tuple(s1.init) == tuple(s2.init):
            return None
        basis = RowBasis()
    else:
        s1, s2 = (as_float_source(s) if s.is_exact else s for s in (s1, s2))
        e1, e2 = engine(s1), engine(s2)
        one_chain = s1.labels == s2.labels and s1.trans == s2.trans
        if one_chain and _within_float_bound(e1, s1.init, s2.init, bound):
            return None
    v1, v2 = s1._init_form, s2._init_form
    expanded = 0
    masks1, masks2 = e1.label_masks(s1.labels), e2.label_masks(s2.labels)
    queue: deque = deque([((), v1, v2)])
    while queue:
        word, v1, v2 = queue.popleft()
        if len(word) >= bound:
            continue
        if basis is None:
            expanded += 1
            if expanded > FLOAT_SEARCH_BUDGET:
                raise BudgetExceededError(
                    f"float equality search expands more than {FLOAT_SEARCH_BUDGET} words"
                )
        if word:
            if basis is not None and not basis.add_ints(stacked([v1, v2])):
                continue
            v1, v2 = e1.step(v1), e2.step(v2)
        for sym in s1.alphabet:
            m1, m2 = mask(v1, masks1[sym]), mask(v2, masks2[sym])
            if not same_total(m1, m2):
                return word + (sym,)
            if not (null(m1) and null(m2)):
                queue.append((word + (sym,), m1, m2))
    return None


def _one_chain(s1: FsmSource, s2: FsmSource, e1: SparseMatrix, e2: SparseMatrix) -> bool:
    """Whether two exact sources with engines e1, e2 have the same labels and
    rows: a row's integer form and its nonzero columns fix its entries."""
    if s1.labels != s2.labels:
        return False
    if s1.trans is s2.trans:
        return True
    return e1.ints == e2.ints and e1.cols == e2.cols


def are_equivalent(s1: FsmSource, s2: FsmSource, max_len: int | None = None) -> bool:
    return equivalence_witness(s1, s2, max_len) is None


def stationarity_witness(src: FsmSource, max_len: int | None = None) -> Word | None:
    """`equivalence_witness(src, shifted_source(src, 1), max_len)`: the first
    word whose mass the shift moves, or None.

    The two laws share one chain, so an exact init that equals its one
    `IntVector` step (`FsmSource._one_step`) gives None before any shifted
    source is built, and a float one within the norm bound of
    `_within_float_bound` of its step gives None before the search starts."""
    if not src.is_exact:
        return equivalence_witness(src, shifted_source(src, 1), max_len)
    step, fixed = src._one_step
    if fixed:
        return None
    return equivalence_witness(src, _restarted(src, step), max_len)


#: unit roundoff of a binary64 float
_UNIT = 2.0**-53


def _forward_slack(width: int, steps: int, rho: float, mass: float) -> float:
    """How far below EPS the l1 distance of two float laws x, y on one chain
    must lie for every mass comparison of a float search on them to pass.

    The search compares the float values of x M 1 and y M 1, where M is a
    product of at most `steps` masked steps, each of whose rows has an
    absolute sum at most `rho`, and each mass is a float forward pass whose
    sums have at most `width` terms.  In real arithmetic
    |x M 1 - y M 1| <= ||x - y||_1 G with G = max(rho, 1)**steps, since
    ||M 1||_inf <= G.  A forward pass of k = (steps + 2)(width + 2) rounded
    sums of products is off by at most gamma G ||x||_1, with
    gamma = k u / (1 - k u) and u = 2**-53 (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, ch. 3), and the computed norm by a factor
    1 + gamma.  So with G' = G (1 + gamma) and mass = ||x||_1 + ||y||_1,
    a computed norm N <= EPS - s, where s = EPS (G' - 1) + gamma G' mass,
    puts every compared pair of masses within EPS.  The slack returned is
    2s; past the reach of the bound it is infinite, and the search decides.
    """
    steps = max(steps, 0)
    k = (steps + 2) * (width + 2)
    if k * _UNIT > 1e-6 or steps * (rho - 1) > 1:
        return inf
    gamma = k * _UNIT / (1 - k * _UNIT)
    growth = max(rho, 1.0) ** steps * (1 + gamma)
    return 2 * (EPS * (growth - 1) + gamma * growth * mass)


def _within_float_bound(eng: SparseMatrix, x: Vector, y: Vector, bound: int) -> bool:
    """Whether two laws on the float chain of `eng` agree within EPS on every
    word of length <= `bound`, as the float search computes them: on one
    chain |mu_x(w) - mu_y(w)| = |(x - y) M_w 1| <= ||x - y||_1, since every
    M_w is substochastic, up to the rounding `_forward_slack` bounds."""
    norm = total(abs(a - b) for a, b in zip(x, y))
    rho = max((total(abs(p) for _, p in row) for row in eng.rows), default=0.0)
    mass = total(map(abs, x)) + total(map(abs, y))
    return norm <= EPS - _forward_slack(len(x), bound, rho, mass)


def is_stationary(src: FsmSource, max_len: int | None = None) -> bool:
    """Shift invariance: the measure equals its own one-step shift."""
    return stationarity_witness(src, max_len) is None


def _stationary_input(src: FsmSource) -> bool:
    """The one stationarity gate of every check that needs a stationary
    source, `classify_source` included: the law equals its shift
    (`is_stationary`) and, in float mode, no support pair of any length
    fails the closed-class test of `is_recurrent` (`_failing_pairs`).

    A stationary measure is recurrent, and a source is recurrent iff no
    pair fails; the pairs are finitely many, so the answer reads no depth.
    An exact stationary source is recurrent, and an init supported on the
    closed classes, as a stationary mean's is, has no failing pair
    (`_on_closed_classes`, which `is_recurrent` reads too): neither is
    searched."""
    if not is_stationary(src):
        return False
    if src.is_exact or _on_closed_classes(src):
        return True
    return not _failing_pairs(src, None, {})


# ---------------------------------------------------------------------------
# recurrence via pattern automata
# ---------------------------------------------------------------------------


class _AvoidanceProblem:
    """Product of a source chain with a pattern automaton, on the product
    states reachable from `starts`.

    Product state z is (chain state, automaton state) = divmod(z, size);
    `adj[z]` lists its successors as ints, in the order of the chain row's
    nonzero entries, whose weights are the chain's `_row_weights`, exact
    ones in their integer form.  Match states absorb the matching process,
    so only the starts and the non-match states are expanded; every kept
    state's successors are kept, and its fate is the one it has in the full
    product.  The fates split the states: `sure` states hit a match with
    probability one, `never` states cannot, and the remaining ones
    (`can_avoid` minus `never`) need a linear solve.  The split alone
    decides whether a recurrence defect vanishes; the solve gives its exact
    value.  `recurrence_defect` builds it only for an event that the
    closed-class rule (`_closed_class_zero`) leaves open, or on a float chain,
    and `is_recurrent` only for a word whose pair fails that rule.
    """

    def __init__(self, src: FsmSource, ac: PatternAutomaton, starts: list[int]):
        self.ac = ac
        eng, graph = engine(src), chain_graph(src)
        self.eng, self.exact, self.weights = eng, eng.exact, _row_weights(eng)
        succ, size, delta, labels, match = graph.succ, ac.size, ac.delta, src.labels, ac.match
        adj: dict[int, list[int]] = {}
        stack = list(starts)
        while stack:
            z = stack.pop()
            if z in adj:
                continue
            s, q = divmod(z, size)
            moves = delta[q]
            adj[z] = row = [s2 * size + moves[labels[s2]] for s2 in succ[s]]
            stack += [z2 for z2 in row if z2 not in adj and not match[z2 % size]]
        self.adj = adj

        radj: defaultdict[int, list[int]] = defaultdict(list)
        for z, row in adj.items():
            if not match[z % size]:  # absorbing for the hitting analysis
                for z2 in row:
                    radj[z2].append(z)
        states = set(adj).union(*adj.values())
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
        size, adj, weights = self.ac.size, self.adj, self.weights
        steps = {z: (adj[z], weights[z // size]) for z in unknown}
        (nums,), den = _hitting_solve(steps, unknown, sure, 1, self.exact)
        for z in sure:
            h[z] = den
        h.update(zip(unknown, nums))
        return h, den, unknown

    def avoid_forever(self, z: int) -> Scalar:
        """P(no match at any time >= 1 | start at z now): with the row's
        `_row_weights` n_p over d, (d D - sum n_p h[z2]) / (d D), the sum
        taken left to right.  A float chain has d D = 1; an exact one gives
        one Fraction, or an int, as ``1 - sum(p * h)`` gives, when every
        step and every h it reads are ints."""
        h, den, solved = self.hit_probabilities
        row, s = self.adj[z], z // self.ac.size
        d, nums = self.weights[s]
        top = d * den - total(n * h[z2] for z2, n in zip(row, nums))
        if not self.exact:
            return top
        if any(z2 in solved for z2 in row) or not self.eng.all_int(s):
            return Fraction(top, d * den)
        return top // (d * den)

    def can_avoid_forever(self, z: int) -> bool:
        """Graph-only test for avoid_forever(z) > 0."""
        return any(z2 in self.can_avoid for z2 in self.adj[z])


def recurrence_defect(src: FsmSource, e: CylinderEvent) -> Scalar:
    """Exact mass of the event that never recurs: mu(F minus union of T^{-k}F).

    Unless the closed-class rule settles F (`_closed_class_zero`, with no
    walk or product), paths realizing a word of F land in a product state
    of chain x automaton; from there the defect weight is the probability
    of never matching again.  On an exact chain with exact forward vectors,
    the terms v_s / e times `avoid_forever` are summed as integers over one
    common denominator into one scalar, an int exactly when every term is
    one; otherwise the terms are added left to right.  An empty event has
    defect 0 by convention.
    """
    if e.alphabet != src.alphabet:
        raise AlphabetMismatchError("event alphabet differs from source alphabet")
    if e.is_empty:
        return Fraction(0) if src.is_exact else 0.0
    # canonical order, so that a float defect does not depend on the hash seed
    words = sort_words(e.words, src.alphabet)
    if (zero := _closed_class_zero(src, words)) is not None:
        return zero
    ac = PatternAutomaton(src.alphabet, words)
    walk = forward_walk(src)
    ends = [(walk.vector(w), s * ac.size + ac.walk(w)) for w in words for s in walk.support(w)]
    prob = _AvoidanceProblem(src, ac, [z for _, z in ends])
    if prob.exact and all(type(vec) is IntVector for vec, _ in ends):
        terms = [(vec, z // ac.size, prob.avoid_forever(z)) for vec, z in ends]
        bottom = lcm(*(vec.den * a.denominator for vec, _, a in terms))
        top = sum(
            vec.nums[s] * a.numerator * (bottom // (vec.den * a.denominator)) for vec, s, a in terms
        )
        if any(type(a) is not int or vec.frac >> s & 1 for vec, s, a in terms):
            return Fraction(top, bottom)
        return top // bottom
    return total(entry(vec, z // ac.size) * prob.avoid_forever(z) for vec, z in ends)


def _closed_class_zero(src: FsmSource, words: list[Word]) -> Scalar | None:
    """0 if the closed-class rule of `is_recurrent` (`_escape_starts`), with
    "some word of F" in place of the word, settles the event F of `words`
    on support bitmasks; None if it leaves F open or the chain is a float
    one, whose escape term 1 - sum p need not be 0.0.  The zero has the
    product's type: `Fraction(0)` when some end state has a Fraction forward
    entry (the frac bits of `SparseMatrix.step`, followed on the masks) or
    a non-int entry in its row, int 0 otherwise."""
    if not src.is_exact:
        return None
    graph, eng = chain_graph(src), engine(src)
    bits, image = graph.label_bits(src.labels), graph.image
    closed, init = graph.closed_bits, _init_bits(src)
    fracs = src._init_form.frac
    supp = end = frac = 0
    for w in words:
        b = bits[w[0]]
        s, c, f = init & b, closed & b, fracs & b
        for sym in w[1:]:
            b = bits[sym]
            s, c, f = image(s) & b, image(c) & b, eng.step_frac(f) & b
        supp, end, frac = supp | s, end | c, frac | f & s
    if _escape_starts(graph, supp, end):
        return None
    return Fraction(0) if frac or not all(map(eng.all_int, _bit_list(supp))) else 0


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
    An init on the closed classes has no failing pair at any depth
    (`_on_closed_classes`), so it is certified before any pair is searched.
    """
    if depth < 1:
        raise InvariantError("recurrence depth must be >= 1")
    if _on_closed_classes(src):
        return RecurrenceVerdict(True, depth)
    succ: _Succ = {}
    failing = _failing_pairs(src, depth, succ)
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


def _failing_pairs(src: FsmSource, depth: int | None, succ: _Succ) -> dict[_Pair, list[int]]:
    """The pairs (supp, end) of the words of length <= depth, or of any
    length with `depth` None, that fail the closed-class shortcut of
    `is_recurrent`, each with its start states: those of `supp` that reach
    a closed class `end` does not spell.  The search fills `succ` as
    `_support_pairs` does."""
    graph = chain_graph(src)
    ends = (src, graph.closed_bits)
    failing: dict[_Pair, list[int]] = {}
    for _, pair in _support_pairs(src.alphabet, depth, (src, _init_bits(src)), ends, succ):
        starts = _escape_starts(graph, *pair)
        if starts:
            failing[pair] = starts
    return failing


def _escape_starts(graph: ChainGraph, supp: int, end: int) -> list[int]:
    """The states of the mask `supp` that reach a closed class holding no
    state of the mask `end`, one that does not spell the word or event of
    the pair (supp, end).  With none, its recurrence defect is 0: the
    closed-class rule of `is_recurrent`."""
    spelled = 0
    for j in _bit_list(end):
        spelled |= 1 << graph.class_of[j]
    return [s for s in _bit_list(supp) if graph.reach[s] & ~spelled]


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


def _charged_classes(src: FsmSource) -> list[int]:
    """The ascending indices into `chain_graph(src).closed` of the closed
    classes the init support reaches: those that carry mass in the long run."""
    graph, charged = chain_graph(src), 0
    for i in _bit_list(_init_bits(src)):
        charged |= graph.reach[i]
    return _bit_list(charged)


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
    w = _undominated_word(mu.alphabet, depth, (mu, _init_bits(mu)), (eta, _init_bits(eta)))
    return Verdict(w is None, depth, w)


def asymptotically_dominates(
    eta_stationary: FsmSource, mu: FsmSource, depth: int
) -> Verdict:
    """eta-null words must leave the support of the shifted laws of mu.

    The dominating measure must pass the stationarity gate
    (`_stationary_input`, which reads no depth; PreconditionError
    otherwise): for a stationary
    eta, asymptotic domination at cylinder level is exactly "every eta-null
    word is outside the asymptotic support of mu".  Decided on pairs of
    supports as `dominates` is, mu's side started from the closed classes
    its init support reaches.
    """
    if eta_stationary.alphabet != mu.alphabet:
        raise AlphabetMismatchError("sources live over different alphabets")
    if not _stationary_input(eta_stationary):
        raise PreconditionError("asymptotic domination needs a stationary dominator")
    eta = (eta_stationary, _init_bits(eta_stationary))
    w = _undominated_word(mu.alphabet, depth, (mu, _core_bits(mu)), eta)
    return Verdict(w is None, depth, w)


def _undominated_word(
    alphabet: Alphabet, depth: int, kept: tuple[FsmSource, int], other: tuple[FsmSource, int]
) -> Word | None:
    """The first word of length <= depth positive on the `kept` side whose
    pair has an empty `other` side, or None.  Two sides on one chain (one
    graph, same labels) whose kept root lies in the other root have no such
    word, as a support image is monotone in its mask: none is searched."""
    (ksrc, kroot), (osrc, oroot) = kept, other
    one_chain = ksrc.labels == osrc.labels and chain_graph(ksrc) is chain_graph(osrc)
    if one_chain and not kroot & ~oroot:
        return None
    pairs = _support_pairs(alphabet, depth, kept, other, {})
    return next((w for w, (_, e) in pairs if not e), None)


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
    closed = chain_graph(src).closed
    positive = tuple(tuple(src.states[s] for s in closed[c]) for c in _charged_classes(src))
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


def ams_evidence(src: FsmSource, depth: int = 2, mean: FsmSource | None = None) -> AmsEvidence:
    """Finite-n convergence certificate at n = 128 and 256 (float
    arithmetic; sizes only).

    dev(n) sums |mass of [w] from the partial mean - mass from the
    stationary mean| over the words w of length 1..depth, shortest first
    and then lexicographic.  Each probe computes its masses level by level,
    as `forward_walk` does: a word's vector is its prefix's vector, stepped
    once for all its one-symbol extensions and then masked to each
    symbol's states, so every mass is the forward pass's, bit for bit.  A
    word's mass adds its prefix's entries on the symbol's states left to
    right from int 0, which is the masked vector's `total`: the int zeros
    of the mask leave a float sum that started from int 0 unchanged.
    The probe steps the chain's `_float_engine`, built once per chain.
    A caller that holds `stationary_mean(src)` already passes it as
    `mean`; without it the mean is computed here."""
    eng = _float_engine(src)
    keeps = [eng.label_masks(src.labels)[a] for a in src.alphabet.symbols]

    def masses(root: Vector) -> list[Scalar]:
        out: list[Scalar] = []
        prefixes = [root]
        for n in range(depth):
            out += [total(map(v.__getitem__, keep)) for v in prefixes for keep in keeps]
            if n + 1 < depth:
                prefixes = [eng.step(mask(v, keep)) for v in prefixes for keep in keeps]
        return out

    if mean is None:
        mean = stationary_mean(src)
    target = masses(tuple(map(to_float, mean.init)))

    def deviation(avg: Vector) -> float:
        return total([abs(p - t) for p, t in zip(masses(avg), target)])

    small, big = eng.partial_mean(tuple(map(to_float, src.init)), (128, 256))
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
    recurrent = is_recurrent(src, depth)
    stationary = _stationary_input(src)
    # the gate refuses a float source with a failing pair at any length, and
    # an exact stationary source is recurrent: a stationary source refuted
    # here can only be a bug
    if stationary and not recurrent.recurrent:
        raise InvariantError("stationary source classified non-recurrent")
    return SourceVerdict(
        stationary=stationary,
        recurrent=recurrent,
        ams=ams_evidence(src, depth=min(depth, 2), mean=mean),
        ergodic=is_ergodic(src),
        dominated_by_mean=dominates(mean, src, depth),
        asymptotically_dominated=asymptotically_dominates(mean, src, depth),
    )
