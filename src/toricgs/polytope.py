"""Monotone labelled lattice polytopes with exact rational geometry.

A labelled polytope here is always written in the monotone normalization

    P = { x in R^n : <nu_i, x> <= 1 for every facet normal nu_i },

with the origin strictly interior, so P and conv(nu_i) are polar: one vertex
enumeration, :func:`_polar`, gives the vertices from the normals or the
normals from the vertices, and each construction runs it once.  The
enumeration is the double description method in Python ints
(:func:`_double_description`); it keeps, per vertex, the constraints it lies
on, and P keeps that incidence for the triangulation and for cutting P into
the linearity cells of a PL function.  Construction and triangulation
combinatorics run in exact arithmetic, lattice enumeration in guarded int64;
floating point enters only downstream (quadrature, solvers).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, prod

from . import _exact
from ._exact import np
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


# -- vertex enumeration: the double description method -------------------------
#
# A constraint <a, x> <= b with int entries is the homogeneous row (-a, b):
# at x = num / den (den > 0) it reads <(-a, b), (num, den)> >= 0.  The
# polytope's vertices are then the extreme rays (num, den) of the cone of all
# its rows with den > 0, each an int tuple divided by its gcd, and a ray's
# zero set, the rows it lies on, is an int bit mask (bit i for row i).


def _homogeneous(a, b) -> tuple[int, ...]:
    """The cone row (-a, b) of the int constraint <a, x> <= b."""
    return (*(-x for x in a), b)


def _reduced(y) -> tuple[int, ...]:
    """The int vector ``y`` divided by the gcd of its entries."""
    g = gcd(*y)
    return tuple(x // g for x in y)


def _double_description(rows, rays, todo) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays of the pointed cone {y : <rows[i], y> >= 0 for every i}.

    ``rays`` are the (ray, zero mask) pairs of the extreme rays of the cone
    of the rows not in ``todo``; the rows of ``todo`` are added one at a
    time (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda and Prodon,
    "Double description method revisited", 1996).  A row keeps the rays on
    its side and joins each adjacent pair it separates by the ray on its
    hyperplane.  Adjacency is decided from the zero sets alone: in a cone of
    dimension d = len(row), two extreme rays are adjacent when their common
    zero set holds at least d - 2 rows and no third ray's zero set contains
    it.
    """
    need = len(rows[0]) - 2
    for i in todo:
        h, bit = rows[i], 1 << i
        kept, pos, neg = [], [], []
        for y, z in rays:
            s = sum(x * w for x, w in zip(h, y))
            if s > 0:
                kept.append((y, z))
                pos.append((y, z, s))
            elif s < 0:
                neg.append((y, z, s))
            else:
                kept.append((y, z | bit))
        if neg:
            masks = [z for _, z in rays]
            for p, zp, sp in pos:
                for q, zq, sq in neg:
                    common = zp & zq
                    if common.bit_count() < need:
                        continue
                    # p and q contain it; a third ray would make it a larger face
                    if sum((z & common) == common for z in masks) > 2:
                        continue
                    ray = _reduced([sp * b - sq * a for a, b in zip(p, q)])
                    kept.append((ray, common | bit))
        rays = kept
    return rays


def _independent(rows, count: int) -> list[int]:
    """Indices of the first ``count`` linearly independent int rows, in order
    (fewer when the rows span less), by fraction-free elimination."""
    chosen, echelon = [], []
    for i, r in enumerate(rows):
        for c, e in echelon:
            if r[c]:
                f, p = r[c], e[c]
                r = [x * p - f * y for x, y in zip(r, e)]
        c = next((c for c, x in enumerate(r) if x), None)
        if c is not None:
            chosen.append(i)
            echelon.append((c, r))
            if len(chosen) == count:
                break
    return chosen


def _simplicial_cone(rows, basis) -> list[tuple[tuple[int, ...], int]]:
    """The (ray, zero mask) pairs of {y : <rows[i], y> >= 0 for i in basis},
    for len(y) independent rows: the columns of the inverse of their matrix,
    each on all of the rows but one.  ``_bareiss`` of [B | I] leaves p B^-1
    in the right block."""
    d = len(basis)
    a = [list(rows[i]) + [int(k == j) for k in range(d)] for j, i in enumerate(basis)]
    p = _exact._bareiss(a, d)[1]
    sign = 1 if p > 0 else -1
    full = sum(1 << i for i in basis)
    return [
        (_reduced([sign * a[k][d + j] for k in range(d)]), full & ~(1 << i))
        for j, i in enumerate(basis)
    ]


def solve_vertices(rows) -> list[tuple[tuple[int, ...], int]]:
    """The vertices of the polytope {x : <a, x> <= b for every int row (a, b)}.

    Each vertex is a (ray, zero mask) pair: the vertex is num / den for the
    ray (num, den), and bit i of the mask is set when it lies on row i.  The
    double description starts from the simplicial cone of the first n + 1
    independent rows (-a, b) and adds the others, then t >= 0 as row
    len(rows).  Raises LowerDimensional when the rows (-a, b) span less than
    R^(n+1), and Unbounded when a ray with den = 0, a recession direction,
    remains.
    """
    n = len(rows[0][0])
    cone = [_homogeneous(a, b) for a, b in rows]
    basis = _independent(cone, n + 1)
    if len(basis) <= n:
        raise LowerDimensional("the rows (-a, b) do not span the homogeneous space")
    cone.append((0,) * n + (1,))
    todo = [i for i in range(len(cone)) if i not in basis]
    rays = _double_description(cone, _simplicial_cone(cone, basis), todo)
    if any(not y[-1] for y, _ in rays):
        raise Unbounded("the system has a recession direction")
    return rays


def _polar(rows):
    """``solve_vertices`` of {x : <r, x> <= 1 for r in rows}, each row scaled
    to integers once."""
    return solve_vertices([_integral_row(r, 1) for r in rows])


def _incidence(rays, nrows: int, key=None) -> tuple[tuple[Point, ...], tuple[frozenset, ...]]:
    """The points num / den of the (ray, mask) pairs ``rays``, sorted by
    ``key`` of the int ray (by the point itself by default), and per row the
    indices of the points on it."""
    pts = [(tuple(Fraction(x, y[-1]) for x in y[:-1]), y, z) for y, z in rays]
    pts.sort(key=(lambda t: t[0]) if key is None else (lambda t: key(t[1])))
    verts = tuple(v for v, _, _ in pts)
    tight = tuple(
        frozenset(k for k, (_, _, z) in enumerate(pts) if z >> i & 1) for i in range(nrows)
    )
    return verts, tight


def _integral_row(a, b) -> tuple[tuple[int, ...], int]:
    """The constraint <a, x> <= b scaled by a positive integer to int entries."""
    ints = _exact._scaled([(*a, b)])[1][0]
    return ints[:-1], ints[-1]


def _int_simplex(simplex) -> tuple[int, tuple[int, ...], list[tuple[int, ...]], int]:
    """(D, D s0, the edges D (p - s0), |det| of those edges) of a rational
    simplex, D the common denominator of its points: its volume is
    |det| / (D^n n!)."""
    D, (s0, *rest) = _exact._scaled(simplex)
    edges = [tuple(x - y for x, y in zip(p, s0)) for p in rest]
    return D, s0, edges, abs(_exact.int_det(edges))


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
        """min_P <a, x>, attained at a vertex; exact for a rational ``a``,
        taken in ints on ``a`` and the vertices scaled by one D."""
        if not all(isinstance(x, (int, Fraction)) for x in a):
            return min(_exact.dot(a, v) for v in self.vertices)
        D, (ra, *rows) = _exact._scaled([a, *self.vertices])
        return Fraction(min(sum(x * y for x, y in zip(ra, r, strict=True)) for r in rows), D * D)

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
        """What ``quadrature`` and ``invariants.dh_marginal`` keep on P; it is
        freed with P."""
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
        """Euclidean volume of P (exact), from each ``_int_simplex``."""
        total = Fraction(0)
        for D, _, _, det in map(_int_simplex, self.triangulation):
            total += Fraction(det, D**self.dim)
        return total / factorial(self.dim)

    @cached_property
    def _int_facets(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Facet rows scaled to integers: (A_i, d_i) with <A_i, u> <= m*d_i."""
        return tuple(_integral_row(nu, 1) for nu in self.normals)

    @cached_property
    def _cone_rows(self) -> list[tuple[int, ...]]:
        """The facets as the cone rows (-A_i, d_i) of ``_double_description``."""
        return [_homogeneous(a, d) for a, d in self._int_facets]

    @cached_property
    def _rays(self) -> list[tuple[tuple[int, ...], int]]:
        """The vertices as (ray, zero mask) pairs over ``_cone_rows``: the
        extreme rays of the cone over P, with the facets ``_tight`` puts
        each on."""
        masks = [0] * len(self.vertices)
        for i, on in enumerate(self._tight):
            for k in on:
                masks[k] |= 1 << i
        rays = []
        for v, z in zip(self.vertices, masks):
            num, den = _integral_row(v, 1)
            rays.append(((*num, den), z))
        return rays

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

    def _columns(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The non-empty columns of mP: (heads, lo, hi) as int64 arrays.

        Row i of ``heads`` is an integer head (u_1..u_{n-1}) of the bounding
        box, in lexicographic order, and u_n runs over [lo[i], hi[i]], the
        interval that the facet inequalities <A_i, u> <= m*d_i leave, by
        exact floor division.  Raises :class:`OverflowGuard` when the
        bounding box holds more than ``LATTICE_CAP`` candidates or the facet
        arithmetic could overflow int64.
        """
        if m < 1:
            raise PolytopeError("lattice scale m must be >= 1")
        # the box of mP by int floor and ceiling division of m num / den
        coords = [[(x.numerator * m, x.denominator) for x in c] for c in zip(*self.vertices)]
        lo = [min(-(-a // d) for a, d in c) for c in coords]
        hi = [max(a // d for a, d in c) for c in coords]
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
        keep = (zhi >= zlo) & (r[:, c == 0] >= 0).all(axis=1)
        return heads[keep], zlo[keep], zhi[keep]

    def lattice_points(self, m: int) -> np.ndarray:
        """All integer points of m*P, lexicographically sorted, as an array.

        The columns of ``_columns`` expanded point by point; its errors and
        its cap apply.  ``stability.s_g_lattice`` sums over the columns
        themselves, at a cost in columns, not points.
        """
        heads, lo, hi = self._columns(m)
        counts = hi - lo + 1
        starts = np.cumsum(counts) - counts
        last = np.arange(counts.sum(), dtype=np.int64) + np.repeat(lo - starts, counts)
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

    try:
        rays = _polar(nus)
    except LowerDimensional:
        raise Unbounded("the normals lie on an affine hyperplane") from None
    vertices, tight = _incidence(rays, len(nus))
    for i, on in enumerate(tight):
        # distinct normals give distinct hyperplanes, so no other row holds a
        # facet's vertices; a loose row, or one that touches only a
        # lower-dimensional face, has its vertices inside a facet's
        if any(on <= other for k, other in enumerate(tight) if k != i):
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
    try:
        rays = _polar(pts)
    except LowerDimensional:
        raise LowerDimensional("points do not affinely span the ambient space") from None
    except Unbounded:
        raise OriginNotInterior("origin is not strictly interior to the hull") from None
    normals, on = _incidence(rays, len(pts), key=lambda y: _reduced(y[:-1]))
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
