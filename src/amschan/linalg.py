"""Sparse forward passes and linear solves over exact rationals or floats.

Matrices are immutable tuples of row tuples; probability vectors are row
vectors (a distribution times a stochastic matrix is ``vec_mat(pi, P)``).

Forward passes run on one sparse engine: `SparseMatrix.step` multiplies a
row vector by the nonzero entries only, keeping the columns of one label if
asked.  A model holds one kind of scalar, Fractions or floats (ints go with
either), so each entry equals the dense ``sum(v[i] * m[i][j] for i)`` in
value, order and type: a column without a nonzero term gives ``0.0`` when the
vector or the column holds a float and ``Fraction(0)`` when they hold a
Fraction.  `PrefixWalk` computes each prefix's forward vector once.

`solve_columns` solves a square system for several right-hand sides with
one elimination of the matrix; `solve` is its one-column case.  Exact
systems run on integers all the way through: each row of the augmented
matrix is scaled to integers by its denominators' lcm, fraction-free
(Bareiss) elimination keeps every entry an integer, and back-substitution
computes the Cramer numerators N_i = D x_i over the determinant D, so each
solution entry is one ``Fraction(N_i, D)``.  Float systems use ordinary
elimination with partial pivoting; the pivots depend on the matrix alone and
each column goes through the same operations as it would on its own, so a
column's float solution is bit-identical to its one-column solve.
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

    `col_types[j]` is the set of entry types of column j, zeros included when
    the matrix has them (`of`); by default it is read off the given entries.
    """

    def __init__(self, rows, n_cols: int, col_types: list[set] | None = None):
        self.rows = tuple(map(tuple, rows))
        self.n_cols = n_cols
        if col_types is None:
            col_types = [set() for _ in range(n_cols)]
            for row in self.rows:
                for j, x in row:
                    col_types[j].add(type(x))
        self.types = set().union(*col_types)
        self.col_rank = [_rank(t) for t in col_types]
        self._cut: dict = {None: self.rows}
        self._masks: dict = {}

    @classmethod
    def of(cls, m: Matrix) -> SparseMatrix:
        col_types = [set(map(type, col)) for col in zip(*m)]
        return cls((((j, x) for j, x in enumerate(row) if x) for row in m), len(m[0]), col_types)

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
        v_rank = _rank(set(map(type, v)))
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
    """Solve the square system a x = b: ``solve_columns(a, [b])[0]``.

    Raises SingularMatrixError if no unique solution exists.
    """
    return solve_columns(a, [b])[0]


def solve_columns(a: list[list[Scalar]], cols: list[list[Scalar]]) -> list[list[Scalar]]:
    """Solve a x = c for each column c of `cols`, eliminating `a` once.

    Returns one solution list per column: Fractions when every entry is
    exact, else floats, each equal to ``solve(a, c)``.  Raises
    SingularMatrixError if no unique solution exists.
    """
    if any(isinstance(x, float) for row in (*a, *cols) for x in row):
        return _solve_float(
            [list(map(float, row)) for row in a], [list(map(float, c)) for c in cols]
        )
    return _solve_bareiss(a, cols)


def _solve_bareiss(a: list[list[Scalar]], cols: list[list[Scalar]]) -> list[list[Fraction]]:
    n = len(a)
    if n == 0:
        return [[] for _ in cols]
    width = n + len(cols)
    # scale each row of [a | cols] to integers
    m: list[list[int]] = []
    for i in range(n):
        row = [*a[i], *(c[i] for c in cols)]
        d = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (d // x.denominator) for x in row])

    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
        for i in range(k + 1, n):
            for j in range(k + 1, width):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]

    # N_i = D x_i is a Cramer numerator over D = det, so each division is exact
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


def _solve_float(a: list[list[float]], cols: list[list[float]]) -> list[list[float]]:
    n = len(a)
    width = n + len(cols)
    m = [a[i] + [c[i] for c in cols] for i in range(n)]
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
            x[i] = (m[i][c] - sum(m[i][j] * x[j] for j in range(i + 1, n))) / m[i][i]
        out.append(x)
    return out
