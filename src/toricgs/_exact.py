"""Number coercion, and exact linear algebra on integer matrices.

``num`` decides once, by type, whether a number stays exact: ints,
Fractions and numeric strings become Fractions, any other real a float.
Every later step keeps that type, so exact data gives exact results.

Rationals become ints in one place, ``_scaled``: a matrix times the least
common denominator D of its entries.  Small dense routines (n <= 4
throughout the package) then run on one fraction-free integer elimination,
``_bareiss``: the integer solve of the Mabuchi moment system, the inverse
of the starting cone of a vertex enumeration, the determinants of scaled
simplices (their volumes), and ranks.

``lazy(name)`` binds a module that loads on its first attribute access.
numpy is bound so, as ``np``, which every module of the package imports
from here; so are the package's own modules in the package namespace, in
the CLI (``invariants``, ``stability``, ``mafunc``) and in ``mafunc`` (the
two that only its ding ray diagnostic calls).  A command that touches no
array never pays the numpy import, and a subcommand loads only the
modules it runs.
"""

from __future__ import annotations

import importlib.util
import numbers
import sys
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import ValidationError, ZeroVector

Vec = Sequence[Fraction]


def lazy(name: str):
    """The module ``name`` as loaded, else one that loads on its first
    attribute access (``importlib.util.LazyLoader``), set on its package."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, attr = name.rpartition(".")
    if package:
        setattr(sys.modules[package], attr, module)
    return module


np = lazy("numpy")


def num(x) -> Fraction | float:
    """A Fraction for an int, Fraction or numeric string; a float for any other real."""
    if isinstance(x, (int, Fraction, str)):
        return Fraction(x)
    return float(x)


def vector(a, dim: int) -> tuple:
    """``a`` coerced entrywise by ``num``, a scalar as a 1-vector.

    Raises ValidationError unless it has ``dim`` entries.
    """
    v = (num(a),) if isinstance(a, (numbers.Number, str)) else tuple(num(x) for x in a)
    if len(v) != dim:
        raise ValidationError(
            f"direction of length {len(v)} for a polytope of dimension {dim}"
        )
    return v


def direction(a, dim: int) -> tuple:
    """A nonzero ``vector``: the direction of a toric valuation."""
    v = vector(a, dim)
    if not any(v):
        raise ZeroVector("direction must be nonzero")
    return v


def frac(x) -> Fraction:
    """``num(x)``, with a float snapped to the nearest Fraction of denominator <= 10^12."""
    v = num(x)
    return v if isinstance(v, Fraction) else Fraction(v).limit_denominator(10**12)


def dot(a: Vec, b: Vec) -> Fraction:
    """<a, b> of equal-length vectors; a Fraction unless an entry is a float."""
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def _scaled(rows) -> tuple[int, list[tuple[int, ...]]]:
    """(D, the rows times D) for rows of ints and Fractions, with D the least
    common denominator of all their entries, so each x * D is an int."""
    D = lcm(*(x.denominator for r in rows for x in r))
    return D, [tuple(x.numerator * (D // x.denominator) for x in r) for r in rows]


def _bareiss(a: list[list[int]], ncols: int) -> tuple[int, int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the int rows ``a``
    over their first ``ncols`` columns, in place; columns past them (a
    right-hand side) ride along.  Any shape and rank.

    A column with no nonzero entry below the pivot rows is skipped, so every
    entry stays a minor of the input and every division is exact.  Returns
    (rank, p, sign): p is the last pivot (1 when there is none), which every
    pivot entry equals at the end, and sign that of the row swaps, so a
    square block of full rank has determinant sign * p.
    """
    prev, sign, rk = 1, 1, 0
    for col in range(ncols):
        if rk == len(a):
            break
        piv = next((i for i in range(rk, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        if piv != rk:
            a[rk], a[piv] = a[piv], a[rk]
            sign = -sign
        p = a[rk][col]
        for i in range(len(a)):
            if i != rk:
                f = a[i][col]
                a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], a[rk])]
        prev = p
        rk += 1
    return rk, prev, sign


def rank(rows: list[list[Fraction]]) -> int:
    """Exact rank of a rational matrix: ``_bareiss`` of its ``_scaled`` rows."""
    if not rows:
        return 0
    return _bareiss(_scaled(rows)[1], len(rows[0]))[0]


def int_det(rows) -> int:
    """Determinant of a square integer matrix, by ``_bareiss`` on a copy."""
    a = list(rows)
    rk, p, sign = _bareiss(a, len(a))
    return sign * p if rk == len(a) else 0


def int_solve(rows, rhs) -> tuple[list[int], int] | None:
    """Solve a square integer system in ints: (numerators, denominator).

    ``_bareiss`` on the augmented rows: at the end each diagonal entry
    equals the last pivot, so x_i = numerators[i] / denominator with
    denominator > 0.  Returns None when the matrix is singular.
    """
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    rk, p, _ = _bareiss(a, len(a))
    if rk < len(a):
        return None
    sign = 1 if p > 0 else -1
    return [sign * r[-1] for r in a], sign * p
