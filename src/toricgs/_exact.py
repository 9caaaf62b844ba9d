"""Exact rational linear algebra on `fractions.Fraction` matrices.

Small dense routines (n <= 4 throughout the package): the integer solve of
polar vertex enumeration, determinants for its boundedness test and for
volumes, and the rational solve paths.  Matrices are lists of lists of
Fractions or ints; vectors are lists of Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

Vec = Sequence[Fraction]


def frac(x) -> Fraction:
    """Coerce ints, Fractions, and numeric strings ("p/q" or decimal) exactly."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def _rref(rows: list[list[Fraction]], ncols: int):
    """Reduced row echelon form over the first ``ncols`` columns.

    Returns (reduced rows, pivot columns); columns past ``ncols`` (an
    augmented right-hand side) are carried along but never pivoted on.
    """
    a = [list(r) for r in rows]
    m = len(a)
    pivots: list[int] = []
    for col in range(ncols):
        rk = len(pivots)
        if rk == m:
            break
        piv = next((r for r in range(rk, m) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        inv = Fraction(1) / a[rk][col]
        a[rk] = [x * inv for x in a[rk]]
        for r in range(m):
            if r != rk and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rk])]
        pivots.append(col)
    return a, pivots


def solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve a square rational system by Gauss-Jordan elimination.

    Returns None when the matrix is singular.
    """
    n = len(rows)
    a, pivots = _rref([list(r) + [rhs[i]] for i, r in enumerate(rows)], n)
    if len(pivots) < n:
        return None
    return [a[i][n] for i in range(n)]


def rank(rows: list[list[Fraction]]) -> int:
    if not rows:
        return 0
    return len(_rref(rows, len(rows[0]))[1])


def _bareiss(a: list[list[int]]) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the square int
    block of ``a``, in place; columns past it (a right-hand side) ride along.

    Every division is exact.  Returns (p, sign): p is the last pivot, which
    every diagonal entry equals at the end, and sign that of the row swaps,
    so the block's determinant is sign * p.  p = 0 when the block is singular.
    """
    n = len(a)
    prev, sign = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0, sign
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        p = a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = p
    return prev, sign


def det(rows) -> Fraction:
    """Exact determinant: each row scaled to ints, then ``_bareiss``."""
    scales = [lcm(*(x.denominator for x in r)) for r in rows]
    a = [[int(x * m) for x in r] for r, m in zip(rows, scales)]
    p, sign = _bareiss(a)
    return Fraction(sign * p, prod(scales))


def int_solve(rows, rhs) -> tuple[list[int], int] | None:
    """Solve a square integer system in ints: (numerators, denominator).

    ``_bareiss`` on the augmented rows: at the end each diagonal entry
    equals the last pivot, so x_i = numerators[i] / denominator with
    denominator > 0.  Much faster than ``solve`` on Fractions.  Returns None
    when the matrix is singular.
    """
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    p, _ = _bareiss(a)
    if p == 0:
        return None
    sign = 1 if p > 0 else -1
    return [sign * r[-1] for r in a], sign * p


def primitive(v: Vec) -> tuple[Fraction, ...]:
    """Scale a nonzero rational vector to a primitive integer vector.

    Keeps orientation (multiplies by a positive rational only).
    """
    dens = [x.denominator for x in v]
    scale = lcm(*dens) if dens else 1
    ints = [int(x * scale) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(Fraction(x, g) for x in ints)
