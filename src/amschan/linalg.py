"""Sparse forward passes and linear solves over exact rationals or floats.

Matrices are immutable tuples of row tuples; probability vectors are row
vectors (a distribution times a stochastic matrix is ``vec_mat(pi, P)``).

Forward passes run on one sparse engine: `SparseMatrix.step` multiplies a
row vector by the nonzero entries only, keeping the columns of one label if
asked.  Each entry still equals the dense ``sum(v[i] * m[i][j] for i)`` in
value, order and type: a column without a nonzero term gives ``0.0`` when the
vector or the column holds a float and ``Fraction(0)`` when they hold a
Fraction.  `PrefixWalk` computes each prefix's forward vector once.

Exact systems are solved by fraction-free (Bareiss) Gaussian elimination on
an integer-scaled augmented matrix, so intermediate entries stay integers and
the back-substituted solution is exact.  Float systems fall back to ordinary
elimination with partial pivoting.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm

from .errors import SingularMatrixError
from .scalars import Scalar

Vector = tuple[Scalar, ...]
Matrix = tuple[tuple[Scalar, ...], ...]

#: the dense sum's result types, promoted int < Fraction < float
_TYPES = (int, Fraction, float)


def _rank(types) -> int:
    return 2 if float in types else 1 if Fraction in types else 0


def mask(v: Vector, keep: tuple[int, ...]) -> Vector:
    """v on the columns `keep`, int 0 elsewhere."""
    out = [0] * len(v)
    for j in keep:
        out[j] = v[j]
    return tuple(out)


class SparseMatrix:
    """A matrix as the nonzero (column, entry) pairs of each row.

    Operands that mix Fractions and floats are summed with the `dense` matrix
    the rows came from: there the first float term decides the rounding.
    Rows given without it (a channel kernel's) sum in their own order.
    """

    def __init__(self, rows, n_cols: int, dense: Matrix | None = None):
        self.rows = tuple(map(tuple, rows))
        self.n_cols = n_cols
        self.dense = dense
        col_types: list[set] = [set() for _ in range(n_cols)]
        for row in self.rows if dense is None else map(enumerate, dense):
            for j, x in row:
                col_types[j].add(type(x))
        self.types = set().union(*col_types)
        self.col_rank = [_rank(t) for t in col_types]
        self._cut: dict = {None: self.rows}
        self._masks: dict = {}

    @classmethod
    def of(cls, m: Matrix) -> SparseMatrix:
        return cls((((j, x) for j, x in enumerate(row) if x) for row in m), len(m[0]), m)

    def label_masks(self, labels: tuple) -> dict:
        """label -> ascending tuple of the columns carrying it (empty if none)."""
        if labels not in self._masks:
            masks = self._masks[labels] = defaultdict(tuple)
            for j, label in enumerate(labels):
                masks[label] += (j,)
        return self._masks[labels]

    def step(self, v: Vector, keep: tuple[int, ...] | None = None) -> Vector:
        """v times the matrix on the columns `keep` (all if None), int 0 on
        the others; each kept entry is the dense product's, type included."""
        v_types = set(map(type, v))
        types = v_types | self.types
        if self.dense is not None and float in types and Fraction in types:
            m = self.dense
            full = tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(self.n_cols))
            return full if keep is None else mask(full, keep)
        rows = self._cut.get(keep)
        if rows is None:
            kept = set(keep)
            rows = self._cut[keep] = tuple(tuple(e for e in r if e[0] in kept) for r in self.rows)
        acc: dict[int, Scalar] = {}
        for x, row in zip(v, rows):
            if x:
                for j, p in row:
                    acc[j] = acc[j] + x * p if j in acc else x * p
        out: list[Scalar] = [0] * self.n_cols
        v_rank = _rank(v_types)
        for j in range(self.n_cols) if keep is None else keep:
            kind = _TYPES[max(v_rank, self.col_rank[j])]
            y = acc.get(j, 0)
            out[j] = y if type(y) is kind else kind(y)
        return tuple(out)

    def partial_mean(self, v: Vector, n: int) -> Vector:
        """(1/n) sum_{k<n} v M^k, accumulated term by term from int 0."""
        acc: list[Scalar] = [0] * len(v)
        for k in range(n):
            acc = [a + x for a, x in zip(acc, v)]
            if k < n - 1:
                v = self.step(v)
        return tuple(a / n for a in acc)


def vec_mat(v: Vector, m: Matrix) -> Vector:
    return SparseMatrix.of(m).step(v)


class PrefixWalk(dict):
    """Forward vectors of a prefix-closed family of keys, filled in lazily.

    `link(key)` gives ``(parent, matrix, keep)``: the key's vector is
    ``matrix.step(walk[parent], keep)``, or ``mask(walk[parent], keep)`` when
    `matrix` is None.
    """

    def __init__(self, root, vector: Vector, link):
        super().__init__({root: tuple(vector)})
        self.link = link

    def __missing__(self, key) -> Vector:
        parent, matrix, keep = self.link(key)
        prev = self[parent]
        vec = self[key] = mask(prev, keep) if matrix is None else matrix.step(prev, keep)
        return vec


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
        d = lcm(*(x.denominator for x in v))
        w = [x.numerator * (d // x.denominator) for x in v]
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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = range(len(b[0]))
    return tuple(
        tuple(sum(row[k] * b[k][j] for k in range(len(b))) for j in cols) for row in a
    )


def mat_eq(a: Matrix, b: Matrix) -> bool:
    from .scalars import scalar_eq

    if len(a) != len(b) or any(len(r) != len(s) for r, s in zip(a, b)):
        return False
    return all(scalar_eq(x, y) for r, s in zip(a, b) for x, y in zip(r, s))


def solve(a: list[list[Scalar]], b: list[Scalar]) -> list[Scalar]:
    """Solve the square system a x = b.

    Raises SingularMatrixError if no unique solution exists.
    """
    if any(isinstance(x, float) for row in a for x in row) or any(
        isinstance(x, float) for x in b
    ):
        return _solve_float([list(map(float, row)) for row in a], [float(x) for x in b])
    return _solve_bareiss(a, b)


def _solve_bareiss(a: list[list[Scalar]], b: list[Scalar]) -> list[Fraction]:
    n = len(a)
    if n == 0:
        return []
    # scale each row (including the rhs) to integers
    m: list[list[int]] = []
    for i in range(n):
        row = [Fraction(x) for x in a[i]] + [Fraction(b[i])]
        d = lcm(*(x.denominator for x in row))
        m.append([int(x * d) for x in row])

    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]

    x: list[Fraction] = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(m[i][n])
        for j in range(i + 1, n):
            acc -= m[i][j] * x[j]
        x[i] = acc / m[i][i]
    return x


def _solve_float(a: list[list[float]], b: list[float]) -> list[float]:
    n = len(a)
    m = [a[i] + [b[i]] for i in range(n)]
    for k in range(n):
        pivot = max(range(k, n), key=lambda i: abs(m[i][k]))
        if abs(m[pivot][k]) < 1e-14:
            raise SingularMatrixError("matrix is numerically singular")
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n + 1):
                m[i][j] -= f * m[k][j]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        x[i] = (m[i][n] - sum(m[i][j] * x[j] for j in range(i + 1, n))) / m[i][i]
    return x
