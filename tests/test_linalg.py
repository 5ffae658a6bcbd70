from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amschan.errors import SingularMatrixError
from amschan.linalg import RowBasis, mat_eq, mat_mul, solve, solve_columns, vec_mat
from amschan.rng import SplitMix64


def test_solve_exact_small():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    b = [Fraction(5), Fraction(10)]
    x = solve(a, b)
    assert x == [Fraction(1), Fraction(3)]
    assert all(isinstance(v, Fraction) for v in x)


def test_solve_needs_pivoting():
    a = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert solve(a, [Fraction(7), Fraction(9)]) == [Fraction(9), Fraction(7)]


def test_solve_singular():
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
                x = solve(a, b)
            except SingularMatrixError:
                continue
            assert x == x_true


def test_solve_float():
    x = solve([[2.0, 0.0], [0.0, 4.0]], [1.0, 1.0])
    assert abs(x[0] - 0.5) < 1e-12 and abs(x[1] - 0.25) < 1e-12


def _outcome(run):
    try:
        return repr(run())
    except SingularMatrixError:
        return "singular"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
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
        xs = solve_columns(a, cols)
        assert len(xs) == k
        for b, x in zip(cols, xs):
            assert all(type(v) is Fraction for v in x)
            assert [sum(r * v for r, v in zip(row, x)) for row in a] == b
            assert x == solve(a, b)
    else:
        with pytest.raises(SingularMatrixError):
            solve_columns(a, cols)
    # each float column takes the pivots of `a` and its own operations alone
    fa = [list(map(float, row)) for row in a]
    fcols = [list(map(float, c)) for c in cols]
    together = _outcome(lambda: solve_columns(fa, fcols))
    assert together == _outcome(lambda: [solve(fa, c) for c in fcols])
    if n:
        # a repeated row stays a copy of its twin through both eliminations
        twin = a[:-1] + [a[0]] if n > 1 else [[0]]
        for m, c in ((twin, cols), ([list(map(float, r)) for r in twin], fcols)):
            with pytest.raises(SingularMatrixError):
                solve_columns(m, c)
    else:
        assert solve_columns([], cols) == solve_columns([], fcols) == [[]] * k


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
            solve(rows, [Fraction(1)] * 4)
            singular = False
        except SingularMatrixError:
            singular = True
        assert all(added) != singular
