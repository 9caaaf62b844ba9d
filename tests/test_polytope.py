"""Polytope construction, builtins, supports, triangulation, lattice scans."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricgs as t
from toricgs import _exact, errors, polytope
from toricgs.cli import polytope_from_dict
from toricgs.stability import _dual_vertices

from oracles import (
    affine_rank,
    brute_lattice_points,
    cyclic_ccw,
    hull_normals,
    hull_vertices,
    polygon_monomial_integral,
    polyhedron_vertices,
    tight_sets,
    triangle_monomial_integral,
)


EXPECTED_VOLUMES = {
    "p1": Fraction(2),
    "p2": Fraction(9, 2),
    "p1xp1": Fraction(4),
    "bl1p2": Fraction(4),
    "bl2p2": Fraction(7, 2),
    "bl3p2": Fraction(3),
}


def test_builtin_names_and_volumes():
    assert set(t.builtin_names()) == set(EXPECTED_VOLUMES)
    for name, vol in EXPECTED_VOLUMES.items():
        P = t.builtin(name)
        assert P.volume == vol, name
        # monotone normalization: every facet is stored with label one
        assert all(f["label"] == "1" for f in P.to_dict()["facets"]), name


def test_builtin_unknown_name_raises():
    with pytest.raises(errors.PolytopeError):
        t.builtin("nope")


def test_builtin_volumes_match_shoelace_oracle():
    for name in ("p2", "p1xp1", "bl1p2", "bl2p2", "bl3p2"):
        P = t.builtin(name)
        oracle = polygon_monomial_integral(P.vertices, 0, 0)
        assert P.volume == oracle, name


def test_interval_from_facets():
    P = t.from_facets([(1,), (-1,)], [1, 1])
    assert set(P.vertices) == {(Fraction(-1),), (Fraction(1),)}
    assert P.interval() == (Fraction(-1), Fraction(1))


def test_from_facets_rescales_labels_to_one():
    P = t.from_facets([(2,), (-1,)], [2, 1])
    assert set(P.vertices) == {(Fraction(-1),), (Fraction(1),)}
    assert P.normals == ((Fraction(1),), (Fraction(-1),))


def test_from_facets_negative_label_rejected():
    with pytest.raises(errors.DegenerateFacet):
        t.from_facets([(1,), (-1,)], [1, -1])


def test_from_facets_repeated_normal_rejected():
    # the second copy of x <= 1 is redundant, also when it shows only after
    # dividing by the labels
    for normals, labels in (([(1,), (1,), (-1,)], [1, 1, 1]), ([(2,), (1,), (-1,)], [2, 1, 1])):
        with pytest.raises(errors.DegenerateFacet) as info:
            t.from_facets(normals, labels)
        assert info.value.index == 1


@pytest.mark.parametrize("normals, index", [
    # x <= 1/2 cuts the square, so x <= 1 touches nothing
    ([(1, 0), (-1, 0), (0, 1), (0, -1), (2, 0)], 0),
    # x + y <= 2 touches the square only at its vertex (1, 1)
    ([(1, 0), (-1, 0), (0, 1), (0, -1), ("1/2", "1/2")], 4),
    # x + y <= 2 touches the cube only along its edge x = y = 1
    ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), ("1/2", "1/2", 0)], 6),
], ids=["loose", "on_a_vertex", "on_an_edge"])
def test_from_facets_rows_off_a_facet_rejected(normals, index):
    with pytest.raises(errors.DegenerateFacet) as info:
        t.from_facets(normals, [1] * len(normals))
    assert info.value.index == index


def test_from_facets_unbounded_rejected():
    # the first normals lie on a line, so no start cone; the second system
    # keeps the ray t(-1, -1)
    for normals in ([(1, 0), (0, 1)], [(1, 0), (0, 1), (-1, 1)]):
        with pytest.raises(errors.Unbounded):
            t.from_facets(normals, [1] * len(normals))


def test_from_facets_empty_or_origin_excluded_rejected():
    # x <= -1 together with -x <= -1 has no interior around the origin
    with pytest.raises(errors.PolytopeError):
        t.from_facets([(1,), (-1,)], [Fraction(1, 2), Fraction(-1, 2)])


def test_p2_normals_recovered_from_vertices():
    verts = [(-1, -1), (2, -1), (-1, 2)]
    P = t.from_vertices(verts)
    assert set(P.normals) == {
        (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(-1)),
        (Fraction(1), Fraction(1)),
    }
    assert set(P.vertices) == {tuple(Fraction(x) for x in v) for v in verts}


def test_square_from_vertices():
    P = t.from_vertices([(1, 1), (-1, 1), (1, -1), (-1, -1)])
    assert len(P.normals) == 4
    assert P.volume == 4


def test_from_vertices_requires_interior_origin():
    with pytest.raises(errors.OriginNotInterior):
        t.from_vertices([(0, 0), (1, 0), (0, 1)])


def test_support_values(p1, p2):
    assert p1.support_min((2,)) == -2
    assert p1.support_max((2,)) == 2
    assert p2.support_min((1, 0)) == -1
    assert p1.support_min((0,)) == 0


def test_triangulation_counts(p1, p2, p1xp1):
    assert len(p1.triangulation) == 2
    assert len(p2.triangulation) == 3
    assert len(p1xp1.triangulation) == 4


def test_triangulation_tiles_the_polytope():
    for name in ("p2", "p1xp1", "bl1p2", "bl2p2", "bl3p2"):
        P = t.builtin(name)
        total = Fraction(0)
        for tri in P.triangulation:
            piece = triangle_monomial_integral(tri[0], tri[1], tri[2], 0, 0)
            assert piece != 0
            total += abs(piece)
        assert total == P.volume, name


def test_lattice_point_counts(p1, p2, p1xp1, bl1p2):
    assert sorted(x[0] for x in p1.lattice_points(2).tolist()) == [-2, -1, 0, 1, 2]
    assert len(p1xp1.lattice_points(1)) == 9
    assert len(p2.lattice_points(1)) == 10
    assert len(bl1p2.lattice_points(1)) == 9


def test_lattice_scaling_count_is_ehrhart_like(p1):
    # interval: 2m + 1 points at every scale
    for m in (1, 3, 10, 17):
        assert len(p1.lattice_points(m)) == 2 * m + 1


def test_lattice_cap_guard(p1):
    with pytest.raises(errors.OverflowGuard):
        p1.lattice_points(10**9)


def test_vertices_saturate_their_facets():
    for name in t.builtin_names():
        P = t.builtin(name)
        for v in P.vertices:
            tight = sum(
                1 for nu in P.normals if sum(a * b for a, b in zip(nu, v)) == 1
            )
            assert tight >= P.dim, (name, v)


def test_vertices_are_ccw_orderable_around_origin(bl1p2):
    vs = cyclic_ccw(bl1p2.vertices)
    # consecutive cross products positive: convex, counterclockwise, origin inside
    m = len(vs)
    for i in range(m):
        a, b = vs[i], vs[(i + 1) % m]
        assert a[0] * b[1] - a[1] * b[0] > 0


def test_to_dict_roundtrip():
    from toricgs.cli import polytope_from_dict

    for name in t.builtin_names():
        P = t.builtin(name)
        Q = polytope_from_dict(P.to_dict())
        assert Q.normals == P.normals
        assert Q.vertices == P.vertices


def test_vertices_f_are_floats(p2):
    assert p2.vertices_f.dtype == np.float64
    assert p2.vertices_f.shape == (3, 2)


# ---------------------------------------------------------------------------
# facets by polarity, against a brute-force hull
# ---------------------------------------------------------------------------


@st.composite
def _lattice_sets(draw):
    """Integer points in 1D to 4D, plus centroids of two to n + 1 of them.

    A centroid is never a vertex of the hull: the edge midpoints, points
    inside facets and interior points are among them.  Lower-dimensional
    sets and sets with the origin on the boundary come up as drawn; a set
    closed under x -> -x, drawn half the time, has the origin inside
    unless it is lower-dimensional.
    """
    n = draw(st.integers(1, 4))
    r = {1: 4, 2: 3, 3: 2, 4: 1}[n]
    coord = st.integers(-r, r)
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=8 if n < 4 else 5))
    if draw(st.booleans()):
        pts += [tuple(-x for x in p) for p in pts]
    distinct = sorted(set(pts))
    if len(distinct) < 2:
        return pts
    subsets = st.lists(
        st.sampled_from(distinct), min_size=2, max_size=min(n + 1, len(distinct)), unique=True
    )
    for sub in draw(st.lists(subsets, max_size=2)):
        pts.append(tuple(sum(Fraction(p[i]) for p in sub) / len(sub) for i in range(n)))
    return pts


def _same_polytope(Q, P):
    return (Q.normals, Q.vertices, Q._tight) == (P.normals, P.vertices, P._tight)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_lattice_sets())
def test_from_vertices_matches_brute_force_hull(pts):
    want = hull_normals(pts)
    if want is None:
        n = len(pts[0])
        err = errors.LowerDimensional if affine_rank(pts) < n else errors.OriginNotInterior
        with pytest.raises(err):
            t.from_vertices(pts)
        return
    P = t.from_vertices(pts)
    assert list(P.normals) == want
    assert list(P.vertices) == hull_vertices(pts, want)
    assert P._tight == tight_sets(P.vertices, [(nu, 1) for nu in P.normals])
    # round trips through the facet description, a second and independent
    # vertex enumeration, and through the JSON form
    for Q in (t.from_facets(P.normals, [1] * len(P.normals)), polytope_from_dict(P.to_dict())):
        assert _same_polytope(Q, P)
    assert _dual_vertices(P) == tuple(sorted(tuple(-x for x in nu) for nu in P.normals))


_H = Fraction(1, 2)
_CROSS4 = [tuple(s if i == j else 0 for i in range(4)) for j in range(4) for s in (1, -1)]


@pytest.mark.parametrize(
    "vertices, extra",
    [
        ([(-2,), (1,)], [(0,), (_H,)]),
        ([(1, 1), (-1, 1), (1, -1), (-1, -1)], [(0, 1), (1, 0), (0, 0), (_H, Fraction(-1, 3))]),
        (
            [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
            [(0, 0, 1), (0, -1, 0), (1, 1, 0), (_H, _H, -1), (0, 0, 0)],
        ),
        (_CROSS4, [(_H, _H, 0, 0), (Fraction(1, 4),) * 4, (0, 0, 0, _H), (0, 0, 0, 0)]),
    ],
    ids=["interval", "square", "cube", "cross4"],
)
def test_points_that_are_no_vertices_are_dropped(vertices, extra):
    # edge midpoints, points inside facets and interior points
    P = t.from_vertices(vertices + extra)
    assert list(P.vertices) == sorted(tuple(Fraction(x) for x in v) for v in vertices)
    assert P._tight == tight_sets(P.vertices, [(nu, 1) for nu in P.normals])
    assert _same_polytope(t.from_vertices(vertices), P)


_CROSS3 = [tuple(s if i == j else 0 for i in range(3)) for j in range(3) for s in (1, -1)]
_PRISM = [p + (h,) for p in _CROSS3 for h in (1, -1)]


@pytest.mark.parametrize("build", ["from_vertices", "from_facets"])
@pytest.mark.parametrize("points", [_CROSS4, _PRISM], ids=["cross4", "prism_cross3"])
def test_degenerate_4d_construction_matches_the_oracle(points, build):
    # no vertex is simple: each of the cross-polytope's 8 lies on 8 of its
    # 16 facets, each of the prism's 12 on 5 of its 10
    normals = hull_normals(points)
    facets = [(nu, 1) for nu in normals]
    vertices = polyhedron_vertices(facets)
    assert vertices == sorted(tuple(Fraction(x) for x in p) for p in points)
    if build == "from_vertices":
        P = t.from_vertices(points)
    else:
        P = t.from_facets(normals, [1] * len(normals))
    assert list(P.normals) == normals
    assert list(P.vertices) == vertices
    assert P._tight == tight_sets(vertices, facets)
    assert sum(len(on) for on in P._tight) == len(vertices) * (8 if points is _CROSS4 else 5)


def test_one_vertex_enumeration_per_construction(monkeypatch):
    """from_vertices and the triangulation decide tightness once, in one
    double description run, and take no Fraction dot product."""
    calls = {"_double_description": 0, "dot": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(polytope, "_double_description",
                        counted("_double_description", polytope._double_description))
    monkeypatch.setattr(_exact, "dot", counted("dot", _exact.dot))
    bipyramid = [(2, 0, 0), (0, 2, 0), (-2, 2, 0), (-2, 0, 0), (0, -2, 0), (2, -2, 0),
                 (0, 0, 2), (0, 0, -2), (1, 0, 0)]
    P = t.from_vertices(bipyramid)
    assert len(P.triangulation) == 12
    assert calls == {"_double_description": 1, "dot": 0}
    Q = t.from_facets(P.normals, [1] * len(P.normals))
    assert _same_polytope(Q, P)
    assert calls == {"_double_description": 2, "dot": 0}


@pytest.mark.parametrize(
    "pts",
    [
        [(0, 0), (1, 0), (0, 1)],
        [(-1, 0), (1, 0), (0, 1)],
        [(1, 1), (2, 1), (1, 2)],
        [(-1, -1, 0), (1, -1, 0), (0, 1, 0), (0, 0, 1)],
        [(1,), (2,)],
        [(0,), (1,)],
        [(0, 0, 0, 0), *[tuple(int(i == j) for i in range(4)) for j in range(4)]],
        [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
    ],
    ids=["vertex", "edge", "outside", "facet_3d", "outside_1d", "vertex_1d", "vertex_4d",
         "facet_4d"],
)
def test_origin_on_or_outside_hull_is_rejected(pts):
    with pytest.raises(errors.OriginNotInterior):
        t.from_vertices(pts)


@pytest.mark.parametrize(
    "pts",
    [
        [(1,)],
        [(-1, -1), (1, 1), (0, 0)],
        [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 0)],
        [p[:3] + (0,) for p in _CROSS4],
    ],
    ids=["point_1d", "segment_2d", "triangle_3d", "octahedron_4d"],
)
def test_lower_dimensional_points_are_rejected(pts):
    with pytest.raises(errors.LowerDimensional):
        t.from_vertices(pts)


_HUGE_LABEL = ["100000000000000000000001/100000000000000000000000", 1, 1, 1]


def test_integer_facet_overflow_is_guarded():
    square = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    P = t.from_facets(square, [Fraction(x) for x in _HUGE_LABEL])
    with pytest.raises(errors.OverflowGuard):
        P.lattice_points(2)


# <nu, u> <= 1 for nu = (a, b, c) / d has the integer row (a, b, c) <= d; a
# column of the enumeration subtracts <(a, b), head> from m*d, so the guard
# bounds m*d + |a| umax_x + |b| umax_y + |c| umax_z (every umax is 1 here)
_SIDES = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


@pytest.mark.parametrize(
    "normals, fits",
    [
        # 2^62 + (2^62 - 2) + 1 = 2^63 - 1
        ([(Fraction(2**62 - 2, 2**62), Fraction(1, 2**62)), (-1, 0), (0, 1), (0, -1)], True),
        # 2^62 + (2^62 - 1) + 1 = 2^63
        ([(Fraction(2**62 - 1, 2**62), Fraction(1, 2**62)), (-1, 0), (0, 1), (0, -1)], False),
        # m*d - <A', head> = (2^62 + 1) + 2^62 at head -1 wraps; m*d and
        # |<A, u>| alone fit
        ([(Fraction(2**62, 2**62 + 1), Fraction(1, 2**62 + 1)), (-1, 0), (0, 1), (0, -1)], False),
        # a = 2^62 - 2 and d = 2 fit (2 + 2a + 1 = 2^63 - 1), but at the head
        # (1, 1), outside the projection, the column bounds are d - 2a and
        # 2a - d, whose difference wraps
        ([(2**61 - 1, 2**61 - 1, Fraction(1, 2)), (2**61 - 1, 2**61 - 1, Fraction(-1, 2)),
          *_SIDES], True),
    ],
    ids=["2d_at_bound", "2d_past_bound", "2d_subtraction_wraps", "3d_empty_column_wraps"],
)
def test_lattice_points_at_the_int64_bound(normals, fits):
    P = t.from_facets(normals, [1] * len(normals))
    if fits:
        assert P.lattice_points(1).tolist() == [list(u) for u in brute_lattice_points(P, 1)]
    else:
        with pytest.raises(errors.OverflowGuard, match="beyond int64"):
            P.lattice_points(1)


# ---------------------------------------------------------------------------
# lattice enumeration against a brute-force scan of the exact box
# ---------------------------------------------------------------------------


@st.composite
def _rational_polytopes(draw):
    """A rational cross-polytope (so the origin is interior) plus up to three
    rational points (one in 4D), or in 3D and 4D also a prism over such a
    base, whose facets parallel to the last axis cut whole columns; extents
    keep the bounding box of mP at a few thousand points."""
    n = draw(st.integers(1, 4))
    r = {1: 6, 2: 3, 3: 2, 4: 1}[n]
    k = n - 1 if n >= 3 and draw(st.booleans()) else n
    radius = st.fractions(Fraction(1, 4), r, max_denominator=4)
    pts = [
        tuple(s * draw(radius) if i == j else 0 for i in range(k))
        for j in range(k)
        for s in (1, -1)
    ]
    coords = st.tuples(*[st.fractions(-r, r, max_denominator=4)] * k)
    pts += draw(st.lists(coords, max_size=3 if n <= 3 else 1))
    if k < n:
        h = draw(radius)
        pts = [(*p, s * h) for p in pts for s in (1, -1)]
    m = draw(st.sampled_from([1, 2, 3, 7] if n <= 2 else [1, 2, 3]))
    return t.from_vertices(pts), m


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_rational_polytopes())
def test_lattice_points_match_brute_force(data):
    P, m = data
    U = P.lattice_points(m)
    want = brute_lattice_points(P, m)
    assert U.dtype == np.int64 and U.shape == (len(want), P.dim)
    assert [tuple(u) for u in U.tolist()] == want
