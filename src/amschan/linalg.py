"""Sparse forward passes and linear solves over exact rationals or floats.

Matrices are immutable tuples of row tuples; probability vectors are row
vectors (a distribution times a stochastic matrix is ``vec_mat(pi, P)``).

Chain computations read one sparse engine per matrix, a `SparseMatrix` of
the nonzero entries of each row.  A source's engine is built by
`SparseMatrix.checked` from the rows its stochasticity check read, without
a second pass over the dense matrix: its column types are the entry types
when the matrix has one, and only a matrix of several is scanned by column;
`of` scans a dense matrix.  An exact hookup's engine is a `FormMatrix`,
given by its rows' columns and integer forms alone, with one flag per row
for a row that is one int 1 (the others hold Fractions); its Fraction rows,
its column ranks and the dense matrix of its source (a `LazyMatrix`) are
built only when read.  `step` multiplies a row vector by the nonzero
entries only, and `mask` keeps the columns of one label.  A model holds one
kind of scalar, Fractions or floats (ints go with either), so each entry
equals the dense ``sum(v[i] * m[i][j] for i)`` in value, order and type: a
column without a nonzero term gives ``0.0`` when the vector or the column
holds a float and ``Fraction(0)`` when they hold a Fraction.

Exact forward passes run on integers.  An `IntVector` holds integer
numerators over one denominator, reduced by their gcd after each step, and
a bitmask of the entries that are Fractions; the others are ints.  Each
exact row has an integer form (`int_form`): the lcm d of its entries'
denominators and their numerators over d.  A checked source's engine takes
the forms its check computed, and any other matrix reads them off its rows
on first use; the absorption and recurrence solves of `sources` read them
too.  Stepping an IntVector multiplies by the matrix's integer rows, each
row's numerators scaled to the lcm of all the d; a row is scaled when a
step first reaches it, so a short walk on a large chain scales only the
rows it visits.  The bitmask follows the type rule above, so `scalars`
gives the same tuple the Fraction pass would.  `step` takes either form and
returns the same one; a float matrix steps an `IntVector` as scalars.
`PrefixWalk` starts from a root vector in this engine form, the form a
model keeps of its init, keeps each prefix's vector in it and computes it
once: the vector of a word w a is w's vector stepped, masked to the states
labelled a, and w is stepped once for all its children.  `total` and
`support` read a vector without building the scalar tuple; `total` adds
a float vector's entries left to right from int 0, as ``sum`` did before
Python 3.12 compensated its float rounding, so a float mass is the same on
every supported Python.  `vec_mat` builds a
throwaway engine for one step; the library keeps its engines, so only tests
call it.  `partial_mean` stops stepping once the orbit of its vector
repeats, a vector being compared by its entries and their types; the later
terms repeat the stored cycle.  Each coordinate's terms are summed in order
from int 0 by `itertools.accumulate`, the same additions as adding vector
after vector, so every mean, float or exact, is the one stepping every term
gives, in value and type.

Exact systems are solved on integers only, and only on nonzeros, by
`cramer_numerators`, the library's one exact elimination: each row of the
augmented matrix comes as its nonzero integers, which the callers in
`sources` build from the chain's integer row forms (the closed classes'
laws, the absorption and the avoidance probabilities).  Fraction-free
(Bareiss 1968) elimination keeps every entry an integer.  It takes the
columns in ascending count of nonzeros, each pivoted on its shortest row,
so that little fill-in arises, and it skips a row whose entry in the pivot
column is zero: step k would only scale such a row by pivot_k / pivot_(k-1),
so the row records the pivot it was last brought to, s, and the next step
that needs it folds the whole factor pivot_k / s into its one exact
division.  Back-substitution computes the Cramer numerators N_i = D x_i
over the last pivot D, the determinant up to sign, and returns them as
integers with D; ``Fraction(N_i, D)`` is the unique solution, whichever
pivots were taken.  A caller that needs only sums of the x_i, as a
stationary mean's class weights, can form them on the numerators and
divide once.  `solve_columns` is the float elimination: it solves a square
system for several right-hand sides with one elimination of the matrix,
and `solve` is its one-column case.  It pivots partially; the pivots depend
on the matrix alone and each column goes through the same operations as it
would on its own, so a column's float solution is bit-identical to its
one-column solve.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, cycle, islice
from math import gcd, lcm
from operator import truediv

from .errors import InvariantError, SingularMatrixError
from .scalars import Scalar, is_zero, scalar_eq

Vector = tuple[Scalar, ...]
Matrix = tuple[tuple[Scalar, ...], ...]

#: the dense sum's result types, promoted int < Fraction < float
_TYPES = (int, Fraction, float)


class LazyMatrix:
    """A dense matrix whose row tuples `build()` makes on first read of a
    row; its length is known before.  It reads, compares, hashes, prints
    and pickles as that tuple of rows."""

    __slots__ = ("_len", "_build", "_rows")

    def __init__(self, n_rows: int, build):
        self._len, self._build, self._rows = n_rows, build, None

    def rows(self) -> Matrix:
        if self._rows is None:
            self._rows, self._build = self._build(), None
        return self._rows

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        return self.rows()[i]

    def __iter__(self):
        return iter(self.rows())

    def __eq__(self, other) -> bool:
        return self.rows() == (other.rows() if type(other) is LazyMatrix else other)

    def __hash__(self) -> int:
        return hash(self.rows())

    def __repr__(self) -> str:
        return repr(self.rows())

    def __reduce__(self):
        return tuple, (self.rows(),)


def _rank(types) -> int:
    return 2 if float in types else 1 if Fraction in types else 0


def _bits(cols) -> int:
    """The bitmask with the bits of `cols` set."""
    out = 0
    for j in cols:
        out |= 1 << j
    return out


class IntVector:
    """An exact vector: entry i is ``nums[i] / den``, a Fraction when bit i
    of `frac` is set and an int otherwise; `den` is positive."""

    __slots__ = ("nums", "den", "frac")

    def __init__(self, nums: tuple[int, ...], den: int, frac: int):
        self.nums = nums
        self.den = den
        self.frac = frac

    @classmethod
    def of(cls, v: Vector) -> IntVector:
        """The integer form of a vector of Fractions and ints."""
        dens = [x.denominator for x in v]
        den = lcm(*dens)
        nums = tuple([x.numerator * (den // d) for x, d in zip(v, dens)])
        return cls(nums, den, _bits([i for i, x in enumerate(v) if type(x) is not int]))

    def scalars(self) -> Vector:
        den, frac = self.den, self.frac
        return tuple(
            Fraction(x, den) if frac >> i & 1 else x // den for i, x in enumerate(self.nums)
        )

    def total(self) -> Scalar:
        """``sum(self.scalars())``, value and type."""
        s = sum(self.nums)
        return Fraction(s, self.den) if self.frac else s // self.den


def to_engine(v: Vector) -> IntVector | Vector:
    """The engine form of `v`: an IntVector unless it holds a float."""
    if any(type(x) is float for x in v):
        return tuple(v)
    return IntVector.of(v)


def to_scalars(v: IntVector | Vector) -> Vector:
    return v.scalars() if type(v) is IntVector else v


def entry(v: IntVector | Vector, i: int) -> Scalar:
    """``to_scalars(v)[i]``, value and type, without the other entries."""
    if type(v) is IntVector:
        return Fraction(v.nums[i], v.den) if v.frac >> i & 1 else v.nums[i] // v.den
    return v[i]


def total(v: IntVector | Iterable[Scalar]) -> Scalar:
    """The sum of v's entries, or of any scalars; they are added left to
    right from int 0, where ``sum`` compensates float rounding on Python
    3.12 and later."""
    if type(v) is IntVector:
        return v.total()
    s = 0
    for x in v:
        s += x
    return s


def null(v: IntVector | Vector) -> bool:
    """``is_zero(total(v))``, read off the numerators' sum when exact."""
    return sum(v.nums) == 0 if type(v) is IntVector else is_zero(total(v))


def support(v: IntVector | Vector) -> list[int]:
    """The indices of the positive entries of `v`, ascending; a float entry
    counts however small it is."""
    return [i for i, x in enumerate(v.nums if type(v) is IntVector else v) if x > 0]


def same_total(a: IntVector | Vector, b: IntVector | Vector) -> bool:
    """``scalar_eq(total(a), total(b))``; two IntVectors cross-multiply."""
    if type(a) is IntVector and type(b) is IntVector:
        return sum(a.nums) * b.den == sum(b.nums) * a.den
    return scalar_eq(total(a), total(b))


def same_entries(a: IntVector, b: IntVector) -> bool:
    """Whether two IntVectors of one length are equal entry by entry in
    value (``a.scalars() == b.scalars()``), by cross-multiplying."""
    return all(x * b.den == y * a.den for x, y in zip(a.nums, b.nums))


def add_vectors(vs: list[IntVector]) -> IntVector:
    """The entrywise sum of IntVectors of one length, types as ``sum``."""
    den = lcm(*(v.den for v in vs))
    scaled = [[x * (den // v.den) for x in v.nums] for v in vs]
    frac = 0
    for v in vs:
        frac |= v.frac
    return IntVector(tuple(map(sum, zip(*scaled))), den, frac)


def stacked(vs: list[IntVector]) -> list[int]:
    """Integers proportional to the concatenation of the IntVectors `vs`."""
    den = lcm(*(v.den for v in vs))
    return [x * (den // v.den) for v in vs for x in v.nums]


def mask(v: IntVector | Vector, keep: tuple[int, ...]) -> IntVector | Vector:
    """v on the columns `keep`, int 0 elsewhere; an IntVector keeps its
    denominator, unreduced, until its next step."""
    if type(v) is IntVector:
        nums = [0] * len(v.nums)
        for j in keep:
            nums[j] = v.nums[j]
        return IntVector(tuple(nums), v.den, v.frac & _bits(keep))
    out = [0] * len(v)
    for j in keep:
        out[j] = v[j]
    return tuple(out)


def int_form(row) -> tuple[int, tuple[int, ...]]:
    """The exact nonzero entries (j, x) of a row as (d, numerators over d),
    d the lcm of their denominators."""
    dens = [x.denominator for _, x in row]
    d = lcm(*dens)
    return d, tuple([x.numerator * (d // e) for (_, x), e in zip(row, dens)])


class SparseMatrix:
    """A matrix as the nonzero (column, entry) pairs of each row; `of` lists
    them in ascending column order.

    `col_types[j]` is the set of entry types of column j, zeros included when
    the matrix has them (`of`, `checked`); by default it is read off the
    given entries.  Only each column's promoted type, `col_rank`, is kept.
    `ints` gives each row of an exact matrix in its integer form
    (`int_form`); it is read off the rows on first use unless given.
    `cols` gives each row's nonzero columns, read off the rows on first use.
    A `FormMatrix` is given by its row forms instead.
    """

    def __init__(self, rows, n_cols: int, col_types: list[set] | None = None, ints=None):
        self.rows = tuple(map(tuple, rows))
        self.n_cols = n_cols
        if col_types is None:
            col_types = [set() for _ in range(n_cols)]
            for row in self.rows:
                for j, x in row:
                    col_types[j].add(type(x))
        self.col_rank = [_rank(t) for t in col_types]
        self._start(2 not in self.col_rank, ints)

    def _start(self, exact: bool, ints) -> None:
        """The fields every matrix starts with besides `rows`, `n_cols` and
        `col_rank`."""
        self.exact = exact
        self._ints = ints
        self._cols: tuple | None = None
        self._masks: dict = {}
        #: the integer rows over their common denominator `_int_den`, each
        #: filled in when a step first reaches it
        self._int_rows: list | None = None
        self._int_den = 0

    @classmethod
    def of(cls, m: Matrix) -> SparseMatrix:
        col_types = [set(map(type, col)) for col in zip(*m)]
        return cls((((j, x) for j, x in enumerate(row) if x) for row in m), len(m[0]), col_types)

    @classmethod
    def checked(cls, m: Matrix, kinds: set[type], rows, ints) -> SparseMatrix:
        """``of(m)`` from the nonzero `rows` and integer forms `ints` of a
        checked square `m` whose entries have the types `kinds`: one type
        is every column's, and only a matrix of several is scanned."""
        col_types = [kinds] * len(m) if len(kinds) == 1 else [set(map(type, c)) for c in zip(*m)]
        return cls(rows, len(m), col_types, ints)

    @property
    def cols(self) -> tuple[tuple[int, ...], ...]:
        if self._cols is None:
            self._cols = tuple(tuple(j for j, _ in row) for row in self.rows)
        return self._cols

    @property
    def ints(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        if self._ints is None:
            self._ints = tuple(map(int_form, self.rows))
        return self._ints

    def all_int(self, i: int) -> bool:
        """Whether every nonzero entry of row i is an int."""
        return all(type(p) is int for _, p in self.rows[i])

    def label_masks(self, labels: tuple) -> dict:
        """label -> ascending tuple of the columns carrying it (empty if none)."""
        if labels not in self._masks:
            masks = self._masks[labels] = defaultdict(tuple)
            for j, label in enumerate(labels):
                masks[label] += (j,)
        return self._masks[labels]

    @cached_property
    def frac_cols(self) -> int:
        """The bitmask of the columns not of type int."""
        return _bits(j for j, r in enumerate(self.col_rank) if r)

    def step_frac(self, frac: int) -> int:
        """The `frac` bits of the step of an IntVector whose `frac` bits are
        `frac`: every column if one is set, else the non-int columns."""
        return (1 << self.n_cols) - 1 if frac else self.frac_cols

    def step(self, v: IntVector | Vector):
        """v times the matrix; each entry is the dense product's, type
        included.  An IntVector gives an IntVector unless the matrix holds
        a float."""
        if type(v) is IntVector:
            if self.exact:
                return self._step_ints(v)
            v = v.scalars()
        acc: dict[int, Scalar] = {}
        for x, row in zip(v, self.rows):
            if x:
                for j, p in row:
                    acc[j] = acc[j] + x * p if j in acc else x * p
        if float in map(type, v):
            # a float in v makes every column float
            out = [0.0] * self.n_cols
            for j, y in acc.items():
                out[j] = y if type(y) is float else float(y)
            return tuple(out)
        out: list[Scalar] = [0] * self.n_cols
        v_rank = _rank(set(map(type, v)))
        for j in range(self.n_cols):
            kind = _TYPES[max(v_rank, self.col_rank[j])]
            y = acc.get(j, 0)
            out[j] = y if type(y) is kind else kind(y)
        return tuple(out)

    def _step_ints(self, v: IntVector) -> IntVector:
        rows = self._int_rows
        if rows is None:
            rows = self._int_rows = [None] * len(self.ints)
            self._int_den = lcm(*(d for d, _ in self.ints))
        acc = [0] * self.n_cols
        for i, x in enumerate(v.nums):
            if x:
                row = rows[i]
                if row is None:
                    d, nums = self.ints[i]
                    f = self._int_den // d
                    if self._cols is None:
                        row = tuple((j, n * f) for (j, _), n in zip(self.rows[i], nums))
                    else:
                        row = tuple((j, n * f) for j, n in zip(self._cols[i], nums))
                    rows[i] = row
                for j, p in row:
                    acc[j] += x * p
        den = v.den * self._int_den
        g = gcd(den, *acc)
        if g > 1:
            den //= g
            acc = [x // g for x in acc]
        return IntVector(tuple(acc), den, self.step_frac(v.frac))

    def partial_mean(self, v: Vector, ns: tuple[int, ...]) -> list[Vector]:
        """(1/n) sum_{k<n} v M^k for each n >= 1 in `ns`; an exact matrix and
        vector give a mean of Fractions, and any other divides each entry
        with ``/``.

        The vectors v M^k are stepped in engine form (`to_engine`).  The
        step is deterministic, so once a vector equals an earlier one in its
        entries and their types (an IntVector in ``(nums, den, frac)``), the
        later terms are the stored cycle, repeated, and no more steps are
        taken.  Each coordinate's terms are then summed in order from int 0
        by `accumulate`, the additions term-by-term stepping would make, and
        each mean is read off the running sums."""
        if not ns or min(ns) < 1:
            raise InvariantError("partial mean needs n >= 1")
        last = max(ns)
        first = to_engine(v)
        div = Fraction if self.exact and type(first) is IntVector else truediv
        orbit = [first]
        index = {_orbit_key(first): 0}
        back = 0  # where the orbit goes on from its last vector, once that is known
        while len(orbit) < last:
            nxt = self.step(orbit[-1])
            back = index.setdefault(_orbit_key(nxt), len(orbit))
            if back < len(orbit):
                break
            orbit.append(nxt)
        terms = list(map(to_scalars, orbit))
        seq = islice(chain(terms, cycle(terms[back:])), last)
        sums = [list(accumulate(col, initial=0)) for col in zip(*seq)]
        return [tuple(div(s[n], n) for s in sums) for n in ns]


class FormMatrix(SparseMatrix):
    """An exact square SparseMatrix given by its row forms alone: row i has
    its nonzero entries in the columns `cols[i]`, with the integer form
    `ints[i]`; they are ints where `units[i]` is set, the row then being
    one int 1, and Fractions elsewhere.  Its `rows` and `col_rank` are
    built on first read, each distinct row once (rows that share their
    `cols` object share their built row), so a reader of columns, forms or
    types (`step`, `all_int`) makes no Fraction."""

    def __init__(self, cols, ints, units):
        self.n_cols = len(cols)
        self._start(True, ints)
        self._cols, self._units = cols, units

    @cached_property
    def rows(self) -> tuple:
        built: dict[int, tuple] = {}
        out = []
        for cols, (d, nums), unit in zip(self._cols, self._ints, self._units):
            row = built.get(id(cols))
            if row is None:
                row = built[id(cols)] = tuple(
                    (j, n // d if unit else Fraction(n, d)) for j, n in zip(cols, nums)
                )
            out.append(row)
        return tuple(out)

    @cached_property
    def col_rank(self) -> list[int]:
        """1 where a column holds a Fraction, else 0."""
        rank = [0] * self.n_cols
        seen: set[int] = set()
        for cols, unit in zip(self._cols, self._units):
            if not unit and id(cols) not in seen:
                seen.add(id(cols))
                for j in cols:
                    rank[j] = 1
        return rank

    def all_int(self, i: int) -> bool:
        return self._units[i]


def _orbit_key(v: IntVector | Vector) -> tuple:
    if type(v) is IntVector:
        return v.nums, v.den, v.frac
    return v, tuple(map(type, v))


def vec_mat(v: Vector, m: Matrix) -> Vector:
    return SparseMatrix.of(m).step(v)


class PrefixWalk:
    """Forward vectors of a prefix-closed family of keys, filled in lazily
    and kept in engine form (`to_engine`), from the root's `vector`, given
    in that form (a model's kept init form).

    `link(key)` gives ``(parent, matrix, keep)``: the key's vector is the
    parent's times `matrix`, masked to the columns `keep` (`mask`) unless
    `keep` is None; a None `matrix` masks the parent's own vector.  Masked
    siblings share their parent's one step by each matrix.  ``walk[key]``
    is its scalar tuple.
    """

    def __init__(self, root, vector: IntVector | Vector, link):
        self.vectors = {root: vector}
        self.steps: dict = {}
        self.link = link

    def vector(self, key) -> IntVector | Vector:
        vec = self.vectors.get(key)
        if vec is None:
            parent, matrix, keep = self.link(key)
            vec = self.vector(parent)
            if keep is None:
                vec = matrix.step(vec)
            else:
                if matrix is not None:
                    stepped = self.steps.get((parent, matrix))
                    if stepped is None:
                        stepped = self.steps[parent, matrix] = matrix.step(vec)
                    vec = stepped
                vec = mask(vec, keep)
            self.vectors[key] = vec
        return vec

    def __getitem__(self, key) -> Vector:
        return to_scalars(self.vector(key))

    def total(self, key) -> Scalar:
        return total(self.vector(key))

    def support(self, key) -> list[int]:
        return support(self.vector(key))


class RowBasis:
    """Row-echelon basis of exact rational vectors.

    Each row is kept as primitive integers (gcd 1) with its pivot column, and
    every row is zero on the pivots of the rows before it.
    """

    def __init__(self):
        self.rows: list[tuple[int, list[int]]] = []

    def add(self, v: Vector) -> bool:
        """Add `v` (Fractions or ints) if it is independent of the rows so
        far; return whether it was."""
        return self.add_ints(list(IntVector.of(v).nums))

    def add_ints(self, w: list[int]) -> bool:
        """`add` for a vector given as integers proportional to it."""
        for p, row in self.rows:
            c = w[p]
            if c:
                a = row[p]
                w = [a * x - c * y for x, y in zip(w, row)]
        pivot = next((j for j, x in enumerate(w) if x), None)
        if pivot is None:
            return False
        g = gcd(*w)
        self.rows.append((pivot, [x // g for x in w]))
        return True


def solve(a: list[list[Scalar]], b: list[Scalar]) -> list[float]:
    """Solve the square system a x = b in floats: ``solve_columns(a, [b])[0]``.

    Raises SingularMatrixError if no unique solution exists.
    """
    return solve_columns(a, [b])[0]


def solve_columns(a: list[list[Scalar]], cols: list[list[Scalar]]) -> list[list[float]]:
    """Solve a x = c in floats for each column c of `cols`, eliminating `a`
    once with partial pivoting; every entry is taken as a float.

    Returns one solution list per column, each equal to ``solve(a, c)``.
    Raises SingularMatrixError if `a` is numerically singular.
    """
    n = len(a)
    width = n + len(cols)
    m = [[*map(float, a[i]), *(float(c[i]) for c in cols)] for i in range(n)]
    for k in range(n):
        pivot = max(range(k, n), key=lambda i: abs(m[i][k]))
        if abs(m[pivot][k]) < 1e-14:
            raise SingularMatrixError("matrix is numerically singular")
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, width):
                m[i][j] -= f * m[k][j]
    out = []
    for c in range(n, width):
        x = [0.0] * n
        for i in range(n - 1, -1, -1):
            x[i] = (m[i][c] - total([m[i][j] * x[j] for j in range(i + 1, n)])) / m[i][i]
        out.append(x)
    return out


def cramer_numerators(rows: list[dict[int, int]], n_cols: int) -> tuple[list[list[int]], int]:
    """Eliminate the integer system a x = c_k, k < `n_cols`, once for all
    its right-hand sides; return each column's Cramer numerators
    N_i = D x_i and the last pivot D, which is +-det(a), so x_i = N_i / D.

    `rows[i]` holds the nonzero entries of row i of [a | c_0 ... ]: columns
    0..n-1 of `a`, then column n + k of c_k.  The rows are consumed.
    Raises SingularMatrixError if a is singular; n = 0 gives empty columns
    over 1.
    """
    n = len(rows)
    width = n + n_cols
    count = [0] * width
    for row in rows:
        for j in row:
            count[j] += 1
    # rows[i] times pivot / scale[i] is row i's entry of the elimination so far
    scale = [1] * n
    active = list(range(n))
    pivot = 1
    upper: list[tuple[int, int, dict[int, int]]] = []
    # columns in ascending nonzero count, each pivoted on its shortest row
    for c in sorted(range(n), key=count.__getitem__):
        p, size = -1, width + 1
        for i in active:
            if rows[i].get(c) and len(rows[i]) < size:
                p, size = i, len(rows[i])
        if p < 0:
            raise SingularMatrixError("matrix is singular")
        active.remove(p)
        prow = rows[p]
        if scale[p] != pivot:
            s = scale[p]
            prow = {j: x * pivot // s for j, x in prow.items()}
        pc = prow.pop(c)
        keys = prow.keys()
        for i in active:
            r = rows[i]
            ri = r.pop(c, 0)
            if ri:
                # the step from the row's last scale to pc, one exact division
                s = scale[i]
                if keys <= r.keys():
                    rows[i] = {j: (pc * x - ri * prow.get(j, 0)) // s for j, x in r.items()}
                else:
                    rows[i] = {
                        j: (pc * r.get(j, 0) - ri * prow.get(j, 0)) // s for j in r.keys() | keys
                    }
                scale[i] = pc
        upper.append((c, pc, prow))
        pivot = pc

    # N_j = D x_j is a Cramer numerator over D = +-det, so each division is
    # exact; entry r of `num` holds -D, so the sum over a pivot row's other
    # entries is -(D b_r - sum m_cj N_j)
    out = []
    for r in range(n, width):
        num = [0] * width
        num[r] = -pivot
        for c, pc, prow in reversed(upper):
            acc = 0
            for j, y in prow.items():
                acc -= y * num[j]
            num[c] = acc // pc
        out.append(num[:n])
    return out, pivot
