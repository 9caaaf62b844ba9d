"""Monotone labelled lattice polytopes with exact rational geometry.

A labelled polytope here is always written in the monotone normalization

    P = { x in R^n : <nu_i, x> <= 1 for every facet normal nu_i },

with the origin strictly interior, so P and conv(nu_i) are polar: one vertex
enumeration, :func:`_polar`, gives the vertices from the normals or the
normals from the vertices, and each construction runs it once.  Its integer
solve also decides which constraints are tight where; P keeps that incidence
for the triangulation.  Construction and triangulation combinatorics run
in exact arithmetic, lattice enumeration in guarded int64; floating point
enters only downstream (quadrature, solvers).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, lcm, prod

import numpy as np

from . import _exact
from .errors import (
    DegenerateFacet,
    LowerDimensional,
    OriginNotInterior,
    OverflowGuard,
    PolytopeError,
    Unbounded,
)

Point = tuple[Fraction, ...]

#: cap on the bounding-box candidates of a |mP ∩ Z^n| enumeration
LATTICE_CAP = 10**7

_INT64_MAX = 2**63 - 1


def _as_point(p) -> Point:
    return tuple(_exact.frac(x) for x in p)


def _affine_rank(points: list[Point]) -> int:
    if len(points) < 2:
        return 0
    base = points[0]
    rows = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    return _exact.rank(rows)


def solve_vertices(rows, key=None) -> tuple[tuple[Point, ...], tuple[frozenset, ...]]:
    """(vertices, tight) of {x : <a, x> <= b for every integer row (a, b)}:
    the vertices sorted by ``key``, and per row the indices of those on it.
    Solve-and-filter: every n rows that hold with equality at exactly one
    point give that point when it satisfies all of them.  At a solution
    num / den the integer slacks b*den - <a, num> decide feasibility (all
    >= 0) and tightness (== 0).
    """
    combos = itertools.combinations(range(len(rows)), len(rows[0][0]))
    return _incidence(_vertex_slacks(rows, combos), len(rows), key)


def _vertex_slacks(rows, combos) -> dict:
    """{point: its integer slack on every row} for the feasible unique
    solutions of the row index subsets ``combos``."""
    slack = {}
    for combo in combos:
        sol = _exact.int_solve([rows[i][0] for i in combo], [rows[i][1] for i in combo])
        if sol is None:
            continue
        num, den = sol
        s = [b * den - sum(x * y for x, y in zip(a, num)) for a, b in rows]
        if min(s) >= 0:
            slack[tuple(Fraction(x, den) for x in num)] = s
    return slack


def _incidence(slack: dict, nrows: int, key=None):
    """The points of ``slack`` sorted by ``key``, and per row the indices of
    those with zero slack on it."""
    verts = tuple(sorted(slack, key=key))
    slacks = [slack[v] for v in verts]
    tight = [frozenset(j for j, s in enumerate(slacks) if not s[i]) for i in range(nrows)]
    return verts, tuple(tight)


def _integral_row(a, b) -> tuple[tuple[int, ...], int]:
    """The constraint <a, x> <= b scaled by a positive integer to int entries."""
    scale = lcm(*(x.denominator for x in (*a, b)))
    return tuple(int(x * scale) for x in a), int(b * scale)


def _polar(rows, key=None):
    """``solve_vertices`` of {x : <r, x> <= 1 for r in rows}; Unbounded unless bounded.

    Each row is scaled to integers once.  An extreme recession direction
    lies on n - 1 independent rows, so up to sign it is their generalized
    cross product (entry j: (-1)^j times the minor without column j).  Rows
    that do not span give no vertex.
    """
    n = len(rows[0])
    ints = [_integral_row(r, 1) for r in rows]
    for sub in itertools.combinations([a for a, _ in ints], n - 1):
        d = [(-1) ** j * _exact.int_det([r[:j] + r[j + 1:] for r in sub]) for j in range(n)]
        if any(d):
            dots = [sum(x * y for x, y in zip(a, d)) for a, _ in ints]
            if all(t <= 0 for t in dots) or all(t >= 0 for t in dots):
                raise Unbounded("the system has a recession direction")
    verts, tight = solve_vertices(ints, key)
    if not verts:
        raise Unbounded("the rows do not span the ambient space")
    return verts, tight


def fan_triangulation(vertices, tight, apex=None) -> list[tuple[Point, ...]]:
    """Pulling triangulation of the polytope conv(vertices) = {<a, x> <= b}.

    The apex (the first vertex, or a given interior point) is coned over
    every facet that misses it, and each facet is triangulated the same way
    from its own first vertex.  The facets of a face are its maximal proper
    intersections with ``tight``, the vertex indices on each constraint as
    :func:`solve_vertices` found them, so redundant constraints are
    harmless.  Returns tuples of n + 1 points.
    """
    verts = list(vertices)
    pts = verts if apex is None else verts + [apex]
    top = None if apex is None else len(verts)
    simplices = _pull(frozenset(range(len(verts))), len(verts[0]), tight, top)
    return [tuple(pts[i] for i in s) for s in simplices]


def _pull(face, dim: int, tight, apex=None) -> list[tuple[int, ...]]:
    """Index simplices of the pulling triangulation of a dim-dimensional face."""
    if apex is None:
        if len(face) == dim + 1:
            return [tuple(sorted(face))]
        apex = min(face)
    subfaces: list[frozenset] = []
    for T in tight:
        F = face & T
        if F and F != face and F not in subfaces:
            subfaces.append(F)
    return [
        (apex,) + s
        for F in subfaces
        if apex not in F and not any(F < G for G in subfaces)
        for s in _pull(F, dim - 1, tight)
    ]


class LabelledPolytope:
    """A monotone labelled polytope with exact facet and vertex data.

    Use :func:`from_facets`, :func:`from_vertices`, or :func:`builtin` to
    construct one.  The constructor is internal and takes validated data;
    ``tight`` holds, per normal, the indices of the vertices on its facet.
    """

    def __init__(self, dim: int, normals: tuple[Point, ...], vertices: tuple[Point, ...], tight):
        self.dim = dim
        self.normals = normals
        self.vertices = vertices
        self._tight = tight

    # -- basic queries ------------------------------------------------------

    def support_min(self, a):
        """min_P <a, x>, attained at a vertex; exact for a Fraction ``a``."""
        return min(_exact.dot(a, v) for v in self.vertices)

    def support_max(self, a):
        """max_P <a, x>, attained at a vertex; exact for rational ``a``."""
        return -self.support_min([-x for x in a])

    def interval(self) -> tuple[Fraction, Fraction]:
        """The polytope as an interval (1D only)."""
        if self.dim != 1:
            raise PolytopeError("interval() requires a 1-dimensional polytope")
        xs = [v[0] for v in self.vertices]
        return min(xs), max(xs)

    # -- cached derived data ------------------------------------------------

    @cached_property
    def _moment_cache(self) -> dict:
        """What ``quadrature`` keeps on P; it is freed with P."""
        return {}

    @cached_property
    def vertices_f(self) -> np.ndarray:
        return np.array([[float(x) for x in v] for v in self.vertices], dtype=float)

    @cached_property
    def triangulation(self) -> tuple[tuple[Point, ...], ...]:
        """Star triangulation from the origin.

        Each simplex is a tuple of n+1 rational points whose first entry is
        the origin; the remaining points lie on one facet.  Simplex volumes
        sum to vol(P) exactly.
        """
        origin = tuple(Fraction(0) for _ in range(self.dim))
        return tuple(fan_triangulation(self.vertices, self._tight, apex=origin))

    @cached_property
    def volume(self) -> Fraction:
        """Euclidean volume of P (exact)."""
        total = Fraction(0)
        fact = 1
        for k in range(2, self.dim + 1):
            fact *= k
        for s in self.triangulation:
            rows = [[x - b for x, b in zip(p, s[0])] for p in s[1:]]
            total += abs(_exact.det(rows)) / fact
        return total

    @cached_property
    def _int_facets(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Facet rows scaled to integers: (A_i, d_i) with <A_i, u> <= m*d_i."""
        return tuple(_integral_row(nu, 1) for nu in self.normals)

    def _int64_facets(self, m: int, umax) -> tuple[np.ndarray, np.ndarray]:
        """(A, m*d) as int64 arrays, for points with |u_j| <= umax[j].

        Raises :class:`OverflowGuard` unless the entries of A and each bound
        m*d_i + sum_j |A_ij| umax_j on |m*d_i - <A_i, u>| fit in int64.
        """
        rows = self._int_facets
        worst = max(
            max(*(abs(x) for x in a), m * d + sum(abs(x) * b for x, b in zip(a, umax)))
            for a, d in rows
        )
        if worst > _INT64_MAX:
            raise OverflowGuard(f"integer facet system reaches {worst}, beyond int64")
        A = np.array([a for a, _ in rows], dtype=np.int64)
        return A, np.array([m * d for _, d in rows], dtype=np.int64)

    # -- lattice enumeration ------------------------------------------------

    def lattice_points(self, m: int) -> np.ndarray:
        """All integer points of m*P, lexicographically sorted, as an array.

        Column by column: each integer head (u_1..u_{n-1}) of the bounding
        box gets the interval of u_n that the facet inequalities
        <A_i, u> <= m*d_i leave, by exact floor division.  Raises
        :class:`OverflowGuard` when the bounding box holds more than
        ``LATTICE_CAP`` candidates or the facet arithmetic could overflow
        int64.
        """
        if m < 1:
            raise PolytopeError("lattice scale m must be >= 1")
        lo = [ceil(min(v[j] for v in self.vertices) * m) for j in range(self.dim)]
        hi = [floor(max(v[j] for v in self.vertices) * m) for j in range(self.dim)]
        count = prod(b - a + 1 for a, b in zip(lo, hi))
        if count > LATTICE_CAP:
            raise OverflowGuard(
                f"lattice enumeration of {count} candidates exceeds cap {LATTICE_CAP}"
            )
        A, rhs = self._int64_facets(m, [max(-a, b) for a, b in zip(lo, hi)])
        # P is bounded with the origin inside: the box holds the origin, and
        # some facet has c > 0 and some c < 0
        shape = [b - a + 1 for a, b in zip(lo[:-1], hi[:-1])]
        heads = np.indices(shape, dtype=np.int64).reshape(len(shape), prod(shape)).T
        heads += np.array(lo[:-1], dtype=np.int64)
        r = rhs - heads @ A[:, :-1].T
        c = A[:, -1]
        pos, neg = c > 0, c < 0
        zhi = (r[:, pos] // c[pos]).min(axis=1)
        zlo = (-(r[:, neg] // -c[neg])).max(axis=1)
        # the bounds of an empty column can lie far outside the box, where
        # zhi - zlo could wrap; those of a kept column lie inside it
        empty = (zhi < zlo) | (r[:, c == 0] < 0).any(axis=1)
        counts = np.where(empty, 0, zhi - zlo + 1)
        starts = np.cumsum(counts) - counts
        last = np.arange(counts.sum(), dtype=np.int64) + np.repeat(zlo - starts, counts)
        return np.column_stack([np.repeat(heads, counts, axis=0), last])

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "facets": [
                {"normal": [str(x) for x in nu], "label": "1"} for nu in self.normals
            ],
        }

    def __repr__(self) -> str:
        return (
            f"LabelledPolytope(dim={self.dim}, facets={len(self.normals)}, "
            f"vertices={len(self.vertices)})"
        )


def from_facets(normals, labels) -> LabelledPolytope:
    """Build a polytope from facet normals and positive labels.

    Inputs are rescaled so every label becomes 1 (each normal is divided by
    its label).  The system must be bounded (checked by :func:`_polar`),
    which with the origin strictly inside makes it full-dimensional, and
    every facet must be tight and appear once after the rescaling.
    """
    if len(normals) != len(labels):
        raise PolytopeError("normals and labels must have equal length")
    if not normals:
        raise PolytopeError("at least one facet is required")
    n = len(normals[0])
    if not 1 <= n <= 4:
        raise PolytopeError("dimension must be between 1 and 4")
    nus: list[Point] = []
    for i, (nu, lab) in enumerate(zip(normals, labels)):
        lab = _exact.frac(lab)
        if lab <= 0:
            raise DegenerateFacet(f"facet {i} has non-positive label {lab}", index=i)
        p = _as_point(nu)
        if len(p) != n:
            raise PolytopeError(f"facet {i} has wrong dimension")
        if all(x == 0 for x in p):
            raise DegenerateFacet(f"facet {i} has zero normal", index=i)
        nu = tuple(x / lab for x in p)
        if nu in nus:
            raise DegenerateFacet(f"facet {i} repeats facet {nus.index(nu)}", index=i)
        nus.append(nu)

    vertices, tight = _polar(nus)
    for i, on in enumerate(tight):
        # a genuine facet carries n affinely independent tight vertices; fewer
        # means the constraint is loose or touches only a lower-dimensional face
        if len(on) < n or _affine_rank([vertices[j] for j in on]) < n - 1:
            raise DegenerateFacet(f"facet {i} is redundant or loose", index=i)
    return LabelledPolytope(n, tuple(nus), vertices, tight)


def from_vertices(points) -> LabelledPolytope:
    """Build a polytope as the convex hull of rational points.

    The origin must be strictly interior: then the label-1 facet normals are
    the vertices of the polar {a : <a, p> <= 1 for all points p} (Ziegler,
    *Lectures on Polytopes*, 2.3), ordered by primitive normal.  The same
    enumeration gives the points on each facet; a vertex is the only point
    on all of its facets.
    """
    pts = sorted({_as_point(p) for p in points})
    if not pts:
        raise PolytopeError("at least one point is required")
    n = len(pts[0])
    if not 1 <= n <= 4:
        raise PolytopeError("dimension must be between 1 and 4")
    if any(len(p) != n for p in pts):
        raise PolytopeError("points have inconsistent dimensions")
    if _affine_rank(pts) < n:
        raise LowerDimensional("points do not affinely span the ambient space")
    try:
        normals, on = _polar(pts, key=_exact.primitive)
    except Unbounded:
        raise OriginNotInterior("origin is not strictly interior to the hull") from None
    # a point inside a face is on every facet that the vertices of the face are on
    keep = [k for k, s in enumerate(on) if sum(s <= t for t in on) == 1]
    tight = [frozenset(j for j, k in enumerate(keep) if i in on[k]) for i in range(len(normals))]
    return LabelledPolytope(n, normals, tuple(pts[k] for k in keep), tuple(tight))


#: vertex data for the builtin library of monotone polytopes; every entry is
#: re-derived and reflexivity-checked at first load rather than trusted.
_BUILTIN_VERTICES: dict[str, tuple[tuple[int, ...], ...]] = {
    "p1": ((-1,), (1,)),
    "p2": ((-1, -1), (2, -1), (-1, 2)),
    "p1xp1": ((-1, -1), (-1, 1), (1, -1), (1, 1)),
    "bl1p2": ((-1, 0), (0, -1), (2, -1), (-1, 2)),
    "bl2p2": ((-1, 0), (0, -1), (1, -1), (1, 0), (-1, 2)),
    "bl3p2": ((-1, 0), (0, -1), (1, -1), (1, 0), (0, 1), (-1, 1)),
}

_builtin_cache: dict[str, LabelledPolytope] = {}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN_VERTICES))


def builtin(name: str) -> LabelledPolytope:
    """Fetch a builtin polytope by key, validating reflexivity at load.

    The check: all vertices integral, every facet label 1 with an integral
    normal (so the dual polytope is again a lattice polytope), every facet
    tight.  Hardcoded data is never trusted unverified.
    """
    if name not in _BUILTIN_VERTICES:
        raise PolytopeError(
            f"unknown builtin polytope {name!r}; available: {', '.join(builtin_names())}"
        )
    if name not in _builtin_cache:
        P = from_vertices(_BUILTIN_VERTICES[name])
        for v in P.vertices:
            if any(x.denominator != 1 for x in v):
                raise PolytopeError(f"builtin {name!r} failed reflexivity: vertex {v}")
        for nu in P.normals:
            if any(x.denominator != 1 for x in nu):
                raise PolytopeError(
                    f"builtin {name!r} failed reflexivity: non-integral normal {nu}"
                )
        _builtin_cache[name] = P
    return _builtin_cache[name]
