from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amschan.errors import SingularMatrixError
from amschan.linalg import (
    IntVector, RowBasis, cramer_numerators, solve, solve_columns, support, vec_mat,
)
from amschan.oracle import dense_bareiss, mat_eq, mat_mul
from amschan.rng import SplitMix64


def exact_solve(a, cols):
    """Solve a x = c for each column c of `cols` on the library's one exact
    elimination: each row of [a | cols] as its nonzero entries scaled to
    integers by their lcm, and each solution entry one Fraction(N_i, D)."""
    rows = []
    for i, r in enumerate(a):
        row = {j: x for j, x in enumerate([*r, *(c[i] for c in cols)]) if x}
        d = lcm(*[x.denominator for x in row.values()])
        rows.append({j: x.numerator * (d // x.denominator) for j, x in row.items()})
    nums, den = cramer_numerators(rows, len(cols))
    return [[Fraction(x, den) for x in col] for col in nums]


def test_solve_exact_small():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    b = [Fraction(5), Fraction(10)]
    x = exact_solve(a, [b])[0]
    assert x == [Fraction(1), Fraction(3)]
    assert all(isinstance(v, Fraction) for v in x)


def test_solve_needs_pivoting():
    a = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert exact_solve(a, [[Fraction(7), Fraction(9)]]) == [[Fraction(9), Fraction(7)]]


def test_solve_singular():
    with pytest.raises(SingularMatrixError):
        exact_solve([[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]], [[1, 2]])
    with pytest.raises(SingularMatrixError):
        solve([[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]], [1, 2])


def test_solve_random_roundtrip():
    rng = SplitMix64(3)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            a = [
                [Fraction(rng.randint(19) - 9, 1 + rng.randint(7)) for _ in range(n)]
                for _ in range(n)
            ]
            x_true = [Fraction(rng.randint(9), 1 + rng.randint(5)) for _ in range(n)]
            b = [sum(a[i][j] * x_true[j] for j in range(n)) for i in range(n)]
            try:
                x = exact_solve(a, [b])[0]
            except SingularMatrixError:
                continue
            assert x == x_true


def test_solve_float():
    x = solve([[2.0, 0.0], [0.0, 4.0]], [1.0, 1.0])
    assert abs(x[0] - 0.5) < 1e-12 and abs(x[1] - 0.25) < 1e-12


def test_solve_columns_is_the_float_elimination():
    # exact entries are taken as floats: an all-int system gives floats
    a, cols = [[2, 1], [1, 3]], [[5, 10], [3, 4]]
    xs = solve_columns(a, cols)
    assert xs == [[1.0, 3.0], [1.0, 1.0]]
    assert all(type(v) is float for x in xs for v in x)
    assert solve(a, cols[0]) == xs[0] and type(solve([[1]], [1])[0]) is float
    half = [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]
    floats = solve_columns([[0.5, 0.0], [0.0, 0.25]], [[1.0, 1.0]])
    assert repr(solve_columns(half, [[1, 1]])) == repr(floats) == "[[2.0, 4.0]]"


def _outcome(run):
    try:
        return repr(run())
    except SingularMatrixError:
        return "singular"


@settings(max_examples=150)
@given(st.integers(0, 2**32), st.integers(0, 12), st.integers(1, 4))
def test_solve_columns(seed, n, k):
    rng = SplitMix64(seed)

    def entry():
        # a third zeros, so that pivots need row swaps and some draws are singular
        return Fraction(rng.randint(19) - 9, 1 + rng.randint(7)) if rng.randint(3) else 0

    a = [[entry() for _ in range(n)] for _ in range(n)]
    cols = [[entry() for _ in range(n)] for _ in range(k)]
    basis = RowBasis()
    if all(basis.add(tuple(row)) for row in a):
        xs = exact_solve(a, cols)
        assert len(xs) == k
        for b, x in zip(cols, xs):
            assert all(type(v) is Fraction for v in x)
            assert [sum(r * v for r, v in zip(row, x)) for row in a] == b
            assert x == exact_solve(a, [b])[0]
    else:
        with pytest.raises(SingularMatrixError):
            exact_solve(a, cols)
    # each float column takes the pivots of `a` and its own operations alone
    fa = [list(map(float, row)) for row in a]
    fcols = [list(map(float, c)) for c in cols]
    together = _outcome(lambda: solve_columns(fa, fcols))
    assert together == _outcome(lambda: [solve(fa, c) for c in fcols])
    if n:
        # a repeated row stays a copy of its twin through both eliminations
        twin = a[:-1] + [a[0]] if n > 1 else [[0]]
        with pytest.raises(SingularMatrixError):
            exact_solve(twin, cols)
        with pytest.raises(SingularMatrixError):
            solve_columns([list(map(float, r)) for r in twin], fcols)
    else:
        assert exact_solve([], cols) == solve_columns([], fcols) == [[]] * k


@settings(max_examples=250)
@given(
    st.integers(0, 2**32),
    st.integers(1, 14),
    st.integers(1, 4),
    st.sampled_from(("sparse", "dense", "zero-diagonal", "singular")),
)
def test_sparse_elimination_matches_dense_oracle(seed, n, k, pattern):
    # the sparse elimination picks its own pivots and scales rows lazily, so
    # only the unique solution, Fraction(N, D) normalised, can agree
    rng = SplitMix64(seed)
    keep = 4 if pattern == "sparse" else 1

    def entry(i, j):
        if pattern == "zero-diagonal" and i == j or rng.randint(keep):
            return 0
        x = Fraction(rng.randint(19) - 9, 1 + rng.randint(7))
        return x.numerator if rng.randint(3) == 0 and x.denominator == 1 else x

    a = [[entry(i, j) for j in range(n)] for i in range(n)]
    if pattern == "sparse":
        for i in range(n):  # a nonzero diagonal keeps most draws regular
            a[i][i] = a[i][i] or 1 + rng.randint(5)
    if pattern == "singular" and n > 1:
        # the last row a combination of two others
        i, j = rng.randint(n - 1), rng.randint(n - 1)
        c = Fraction(rng.randint(7) - 3, 1 + rng.randint(3))
        a[-1] = [x + c * y for x, y in zip(a[i], a[j])]
    elif pattern == "singular":
        a = [[0]]
    cols = [[entry(-1, j) for j in range(n)] for _ in range(k)]
    assert _outcome(lambda: exact_solve(a, cols)) == _outcome(lambda: dense_bareiss(a, cols))


def _det(a) -> Fraction:
    """det(a) by Gaussian elimination over Fractions."""
    m = [list(map(Fraction, row)) for row in a]
    det = Fraction(1)
    for k in range(len(m)):
        p = next((i for i in range(k, len(m)) if m[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            m[k], m[p], det = m[p], m[k], -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


@settings(max_examples=200)
@given(
    st.integers(0, 2**32),
    st.integers(0, 12),
    st.integers(1, 4),
    st.sampled_from(("sparse", "dense", "singular")),
)
def test_cramer_numerators_match_dense_oracle(seed, n, k, pattern):
    # the integer core alone: N / D is the dense solution, D = +-det(a), and
    # a N = D c holds in integers for every column c
    rng = SplitMix64(seed)
    keep = 3 if pattern == "sparse" else 1

    def entry():
        return 0 if rng.randint(keep) else rng.randint(41) - 20

    a = [[entry() for _ in range(n)] for _ in range(n)]
    if pattern == "sparse":
        for i in range(n):
            a[i][i] = a[i][i] or 1 + rng.randint(9)
    elif pattern == "singular" and n > 1:
        # the last row a combination of two others
        i, j, c = rng.randint(n - 1), rng.randint(n - 1), rng.randint(7) - 3
        a[-1] = [x + c * y for x, y in zip(a[i], a[j])]
    elif pattern == "singular" and n:
        a = [[0]]
    cols = [[entry() for _ in range(n)] for _ in range(k)]

    def run():
        # the core consumes its rows
        rows = [
            {j: x for j, x in enumerate([*row, *(c[i] for c in cols)]) if x}
            for i, row in enumerate(a)
        ]
        nums, den = cramer_numerators(rows, k)
        assert abs(den) == abs(_det(a)) and len(nums) == k
        for c, col in zip(cols, nums):
            assert [sum(x * y for x, y in zip(row, col)) for row in a] == [den * y for y in c]
        return [[Fraction(x, den) for x in col] for col in nums]

    assert _outcome(run) == _outcome(lambda: dense_bareiss(a, cols))
    if pattern == "singular" and n:
        assert _outcome(run) == "singular"


def test_cramer_numerators_edge_cases():
    # n = 0: empty columns over 1; a singular system raises
    assert cramer_numerators([], 3) == ([[], [], []], 1)
    with pytest.raises(SingularMatrixError):
        cramer_numerators([{0: 2, 1: 4, 2: 1}, {0: 1, 1: 2, 2: 5}], 1)
    with pytest.raises(SingularMatrixError):
        cramer_numerators([{1: 3, 2: 1}, {1: 1}], 1)
    # a zero diagonal needs another pivot row; D is the determinant up to sign
    nums, den = cramer_numerators([{1: 2, 2: 3}, {0: 5, 1: 1, 2: 7}], 1)
    assert abs(den) == 10 and [Fraction(x, den) for x in nums[0]] == [Fraction(11, 10), Fraction(3, 2)]


def test_zero_diagonal_needs_a_row_swap():
    a = [[0, Fraction(1, 2), 0], [3, 0, 1], [0, 1, Fraction(2, 3)]]
    cols = [[1, 2, 3], [Fraction(1, 7), 0, 0]]
    assert repr(exact_solve(a, cols)) == repr(dense_bareiss(a, cols))
    with pytest.raises(SingularMatrixError):
        exact_solve([[0, 1], [0, 2]], [[1, 1]])
    with pytest.raises(SingularMatrixError):
        dense_bareiss([[0, 1], [0, 2]], [[1, 1]])


def test_matrix_helpers():
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))
    assert mat_eq(mat_mul(ident, ident), ident)
    assert vec_mat((Fraction(1), Fraction(0), Fraction(0)), ident) == (1, 0, 0)


def test_row_basis_keeps_independent_rows():
    F = Fraction
    basis = RowBasis()
    assert not basis.add((0, F(0), 0))
    assert basis.add((F(1, 2), F(1, 3), 0))
    assert not basis.add((F(3, 2), 1, 0))
    assert basis.add((F(1, 2), 0, F(1, 7)))
    assert not basis.add((F(1), F(1, 3), F(1, 7)))
    assert basis.add((0, 0, F(2, 9)))
    assert not basis.add((F(5), F(-4), F(3, 11)))
    assert len(basis.rows) == 3


def test_row_basis_rank_matches_solve():
    """Four random vectors in Q^4 are independent exactly when the square
    system with them as rows is solvable."""
    rng = SplitMix64(5)
    for _ in range(40):
        rows = [
            [Fraction(rng.randint(3) - 1, 1 + rng.randint(4)) for _ in range(4)]
            for _ in range(4)
        ]
        basis = RowBasis()
        added = [basis.add(tuple(r)) for r in rows]
        try:
            exact_solve(rows, [[Fraction(1)] * 4])
            singular = False
        except SingularMatrixError:
            singular = True
        assert all(added) != singular


def test_support_lists_positive_entries_however_small():
    # a float mass below the comparison tolerance is still in the support,
    # a negative rounding residue is not
    assert support((1e-12, 0.0, 0, 0.5)) == [0, 3]
    assert support((0.5, 1 - 0.9 - 0.1, 0.5)) == [0, 2]
    assert support(IntVector.of((Fraction(1, 10**12), 0, Fraction(0), 1))) == [0, 3]
