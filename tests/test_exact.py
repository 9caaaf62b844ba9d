"""Exact elimination (int_solve, int_det, rank) against sympy."""

import math
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgs import _exact

# zeros and repeated small values make singular and rank-deficient matrices common
_entries = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]),
    st.fractions(-3, 3, max_denominator=5),
)


@st.composite
def _matrices(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=m, max_size=m))
    return rows, n


@st.composite
def _deficient_int_matrices(draw):
    """Integer products B C with an inner dimension k, so of rank at most k."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    k = draw(st.integers(0, min(m, n)))
    ints = st.integers(-3, 3)
    B = draw(st.lists(st.lists(ints, min_size=k, max_size=k), min_size=m, max_size=m))
    C = draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=k, max_size=k))
    return [[sum(B[i][t] * C[t][j] for t in range(k)) for j in range(n)] for i in range(m)], n


def _sym(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def _frac(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def _det(rows) -> Fraction:
    """The determinant of a rational matrix: ``int_det`` of its ``_scaled``
    rows, over D^n."""
    D, a = _exact._scaled(rows)
    return Fraction(_exact.int_det(a), D ** len(a))


_settings = settings(max_examples=150, deadline=None, derandomize=True)


@_settings
@given(st.one_of(_matrices(), _deficient_int_matrices()))
def test_rank_and_nullspace_match_sympy(data):
    rows, _ = data
    A = _sym(rows)
    assert _exact.rank(rows) == A.rank()
    if A.rows == A.cols:
        assert _det(rows) == _frac(A.det())


@_settings
@given(_matrices(), st.lists(_entries, min_size=4, max_size=4))
def test_solve_matches_sympy(data, rhs):
    rows, n = data
    k = min(len(rows), n)
    square = [r[:k] for r in rows[:k]]
    A = _sym(square)
    assert _det(square) == _frac(A.det())
    # the same system with each equation scaled to integers
    scales = [math.lcm(*(x.denominator for x in (*r, y))) for r, y in zip(square, rhs)]
    int_rows = [[int(x * m) for x in r] for r, m in zip(square, scales)]
    sol = _exact.int_solve(int_rows, [int(y * m) for y, m in zip(rhs, scales)])
    if A.det() == 0:
        assert sol is None
    else:
        b = sympy.Matrix([sympy.Rational(x.numerator, x.denominator) for x in rhs[:k]])
        num, den = sol
        assert den > 0 and [Fraction(x, den) for x in num] == [_frac(x) for x in A.LUsolve(b)]
