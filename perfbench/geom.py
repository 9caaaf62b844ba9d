"""Exact lattice-polytope geometry owned by the benchmark.

These routines are the independent oracle for the correctness checks: they
never call into ``toricgs``.  Polytopes are given as integer point lists in
dimension 2 or 3; everything is computed in integers and Fractions by brute
force, which is cheap at the benchmark's sizes (at most 8 points).  Lattice
points of dilates are enumerated exactly in integers; sums over them (weights,
PL values) are taken in floats.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def _sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _dot(p, q):
    return sum(a * b for a, b in zip(p, q))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _primitive(normal, rhs):
    g = math.gcd(*normal, rhs)
    return tuple(x // g for x in normal), rhs // g


def hull_facets(points):
    """Supporting hyperplanes <n, x> <= r of conv(points), deduplicated.

    Returns a sorted list of (normal, rhs) with primitive integer data, or
    None when the points do not span the ambient space.
    """
    pts = sorted(set(tuple(p) for p in points))
    dim = len(pts[0])
    found = set()
    for combo in itertools.combinations(pts, dim):
        if dim == 2:
            d = _sub(combo[1], combo[0])
            normal = (d[1], -d[0])
        else:
            normal = _cross(_sub(combo[1], combo[0]), _sub(combo[2], combo[0]))
        if not any(normal):
            continue
        r = _dot(normal, combo[0])
        side = [_dot(normal, p) - r for p in pts]
        if all(s <= 0 for s in side) and any(s < 0 for s in side):
            found.add(_primitive(normal, r))
        elif all(s >= 0 for s in side) and any(s > 0 for s in side):
            found.add(_primitive(tuple(-x for x in normal), -r))
    if not found:
        return None
    return sorted(found)


def origin_interior(points) -> bool:
    """True when the points span the space and 0 is strictly inside."""
    facets = hull_facets(points)
    return facets is not None and all(r > 0 for _, r in facets)


def vertices(points, facets=None):
    """Extreme points: those lying on facets whose normals span the space."""
    facets = facets or hull_facets(points)
    dim = len(points[0])
    out = []
    for p in sorted(set(tuple(p) for p in points)):
        normals = [n for n, r in facets if _dot(n, p) == r]
        if _rank(normals) == dim:
            out.append(p)
    return out


def _rank(rows) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def solve(rows, rhs):
    """Exact solution of a square system, or None when singular."""
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


def triangulation(points):
    """Star triangulation from the origin over the hull facets.

    Each simplex is (origin, v1, ..., vn) with integer vertices; a 3D facet
    polygon is fanned from its first vertex in angular order.
    """
    facets = hull_facets(points)
    dim = len(points[0])
    verts = vertices(points)
    origin = (0,) * dim
    out = []
    for normal, r in facets:
        on = [v for v in verts if _dot(normal, v) == r]
        if dim == 2:
            out.append((origin, on[0], on[-1]))
            continue
        cx = [sum(v[k] for v in on) / len(on) for k in range(3)]
        u = _sub(on[0], on[1]) if len(on) > 1 else (1, 0, 0)
        w = _cross(normal, u)
        ordered = sorted(
            on,
            key=lambda v: math.atan2(
                _dot(w, [v[k] - cx[k] for k in range(3)]),
                _dot(u, [v[k] - cx[k] for k in range(3)]),
            ),
        )
        for a, b in zip(ordered[1:-1], ordered[2:]):
            out.append((origin, ordered[0], a, b))
    return out


def simplex_volume(simplex) -> Fraction:
    dim = len(simplex) - 1
    edges = [_sub(p, simplex[0]) for p in simplex[1:]]
    return Fraction(abs(_det(edges)), math.factorial(dim))


def _det(rows) -> Fraction:
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def volume(points) -> Fraction:
    return sum((simplex_volume(s) for s in triangulation(points)), Fraction(0))


def linear_moments(points):
    """Exact integrals of x_i and x_i x_j over conv(points).

    Uses the vertex formulas on each simplex:
    int x_i = vol * mean_k v_ki and
    int x_i x_j = vol / ((n+1)(n+2)) * (sum_k v_ki v_kj + S_i S_j).
    """
    dim = len(points[0])
    first = [Fraction(0)] * dim
    second = [[Fraction(0)] * dim for _ in range(dim)]
    for s in triangulation(points):
        vol = simplex_volume(s)
        sums = [sum(v[i] for v in s) for i in range(dim)]
        for i in range(dim):
            first[i] += vol * Fraction(sums[i], dim + 1)
            for j in range(dim):
                acc = sum(v[i] * v[j] for v in s) + sums[i] * sums[j]
                second[i][j] += vol * Fraction(acc, (dim + 1) * (dim + 2))
    return first, second


def reflexive(points) -> bool:
    """True when every facet of conv(points) is <n, x> <= 1 with n integral."""
    facets = hull_facets(points)
    return bool(facets) and all(r == 1 for _, r in facets)


def mabuchi_positive(points) -> bool:
    """True when the Mabuchi weight 1 + <b, x>, b solving the moment system
    (second moments) b = -(first moments), is positive on conv(points)."""
    first, second = linear_moments(points)
    b = solve(second, [-x for x in first])
    return b is not None and all(1 + _dot(b, v) > 0 for v in points)


def pl_minimum(points, pieces) -> Fraction:
    """Exact min over conv(points) of max_j (<a_j, x> + c_j).

    Vertex enumeration of {t >= <a_j,x> + c_j, <n_i,x> <= r_i} in
    (x, t)-space: every vertex has dim+1 independent active constraints,
    at least one of them a piece, and the minimum of t is attained at one.
    All candidate vertices are solved in floats at once; those within
    rounding of feasible and of the float minimum are then solved and
    checked exactly, and the least exact value among them is returned.
    """
    dim = len(points[0])
    rows = [(tuple(Fraction(x) for x in a) + (Fraction(-1),), -Fraction(c), True) for a, c in pieces]
    rows += [(tuple(Fraction(x) for x in n) + (Fraction(0),), Fraction(r), False)
             for n, r in hull_facets(points)]
    combos = [c for c in itertools.combinations(range(len(rows)), dim + 1) if any(rows[i][2] for i in c)]
    A = np.array([[float(x) for x in row] for row, _, _ in rows])
    b = np.array([float(v) for _, v, _ in rows])
    idx = np.array(combos)
    M = A[idx]
    # the data are small rationals, so a nonsingular system has |det| far above this
    ok = np.abs(np.linalg.det(M)) > 1e-9
    sol = np.linalg.solve(M[ok], b[idx[ok]][..., None])[..., 0]
    feasible = np.all(sol @ A.T <= b + 1e-7, axis=1)
    t = np.where(feasible, sol[:, dim], np.inf)
    best = None
    for k in np.flatnonzero(t <= t.min() + 1e-7):
        combo = idx[ok][k]
        x = solve([rows[i][0] for i in combo], [rows[i][1] for i in combo])
        if x is not None and all(_dot(row, x) <= v for row, v, _ in rows):
            best = x[dim] if best is None or x[dim] < best else best
    return best

def lattice_points(points, m: int):
    """Integer points of m * conv(points) as an (N, dim) int64 array.

    Column by column: for each integer head (x_1..x_{n-1}) in the bounding
    box, the facet inequalities <n, u> <= m r bound the last coordinate to an
    integer interval, found by exact floor division.
    """
    facets = hull_facets(points)
    dim = len(points[0])
    lo = [m * min(p[j] for p in points) for j in range(dim)]
    hi = [m * max(p[j] for p in points) for j in range(dim)]
    axes = [np.arange(lo[j], hi[j] + 1, dtype=np.int64) for j in range(dim - 1)]
    heads = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim - 1)
    zlo = np.full(len(heads), lo[-1], dtype=np.int64)
    zhi = np.full(len(heads), hi[-1], dtype=np.int64)
    for normal, r in facets:
        rhs = m * r - heads @ np.array(normal[:-1], dtype=np.int64)
        c = normal[-1]
        if c > 0:
            zhi = np.minimum(zhi, rhs // c)
        elif c < 0:
            zlo = np.maximum(zlo, -(rhs // -c))
        else:
            zhi = np.where(rhs < 0, zlo - 1, zhi)
    counts = np.maximum(zhi - zlo + 1, 0)
    rows = np.repeat(np.arange(len(heads)), counts)
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.column_stack([heads[rows], zlo[rows] + offsets])


def weight_values(spec, x):
    """Values of a generator weight description ``(kind, a0, b)`` at the
    rows of ``x``; polynomial means 1 + (a0 + <b,x>)^2."""
    kind, a0, b = spec
    if kind == "constant":
        return np.full(len(x), float(a0))
    lin = float(a0) + x @ np.array([float(v) for v in b])
    if kind == "affine":
        return lin
    if kind == "exp_affine":
        return np.exp(lin)
    return 1.0 + lin * lin
