"""Log discrepancy, expected vanishing orders, filtrations, delta invariant."""

import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toricgs as t
from toricgs import errors, polytope, quadrature, stability

from conftest import assert_close, exact_barycenter, norm_inf
from oracles import (
    LoopFiltration,
    affine_rank,
    grid_integral,
    pl_minimum,
    polyhedron_vertices,
    s_g_lattice_exact,
    s_g_lattice_points,
    tight_sets,
)
from perfbench import gen
from perfbench.gen import REFLEXIVE_2D
from perfbench.jobs import build_weight


COTH1 = 1 / math.tanh(1)
CUBE = t.from_vertices([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
SIMPLEX3 = t.from_vertices([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
CUBE4 = t.from_vertices([(x, y, z, w) for x in (-1, 1) for y in (-1, 1)
                         for z in (-1, 1) for w in (-1, 1)])


# ---------------------------------------------------------------------------
# log discrepancy
# ---------------------------------------------------------------------------


def test_log_discrepancy_values(p1, p2):
    assert t.log_discrepancy(p1, (1,)) == 1.0
    assert t.log_discrepancy(p1, (-3,)) == 3.0
    assert t.log_discrepancy(p2, (1, 0)) == 1.0
    assert t.log_discrepancy(p1, (0,)) == 0.0


def test_log_discrepancy_is_one_on_inward_rays():
    # the rays -nu_i generate the associated fan; each carries discrepancy 1
    for name in t.builtin_names():
        P = t.builtin(name)
        for nu in P.normals:
            ray = tuple(-x for x in nu)
            assert t.log_discrepancy(P, ray) == 1.0, (name, ray)


def test_log_discrepancy_positively_homogeneous(p2):
    a = (Fraction(2, 3), Fraction(-1, 2))
    base = t.log_discrepancy(p2, a)
    for s in (2, Fraction(7, 3)):
        scaled = t.log_discrepancy(p2, tuple(s * x for x in a))
        assert scaled == pytest.approx(float(s) * base, abs=1e-14)


def test_log_discrepancy_from_vertices_oracle(bl1p2):
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = tuple(Fraction(x).limit_denominator(60) for x in rng.uniform(-2, 2, 2))
        want = max(-(a[0] * v[0] + a[1] * v[1]) for v in bl1p2.vertices)
        assert t.log_discrepancy(bl1p2, a) == pytest.approx(float(want), abs=1e-14)


# ---------------------------------------------------------------------------
# expected vanishing order S_g
# ---------------------------------------------------------------------------


def test_s_g_anchors(p1, g_one, g_exp_x):
    assert t.s_g(p1, g_one, (1,)) == pytest.approx(1.0, abs=1e-14)
    assert t.s_g(p1, g_exp_x, (1,)) == pytest.approx(COTH1, abs=1e-12)
    assert t.s_g(p1, g_exp_x, (-1,)) == pytest.approx(2 - COTH1, abs=1e-12)


def test_s_g_at_origin_centroid(p2, g_one):
    assert t.s_g(p2, g_one, (1, 0)) == pytest.approx(1.0, abs=1e-13)


def test_s_g_equals_discrepancy_plus_barycenter_pairing(bl1p2):
    g = t.WeightFunction.exp_affine(0, [Fraction(1, 5), Fraction(2, 5)])
    b = t.weighted_barycenter(bl1p2, g)
    for a in ((1, 0), (0, 1), (-2, 1), (Fraction(1, 2), Fraction(1, 3))):
        want = t.log_discrepancy(bl1p2, a) + float(a[0]) * b[0] + float(a[1]) * b[1]
        assert t.s_g(bl1p2, g, a) == pytest.approx(want, abs=1e-12)


def test_s_g_positively_homogeneous(p2, g_one):
    a = (1, 1)
    assert t.s_g(p2, g_one, (3, 3)) == pytest.approx(
        3 * t.s_g(p2, g_one, a), abs=1e-13
    )


def test_s_g_lattice_five_point_sum(p1, g_one):
    # m=2 samples {-1,-1/2,0,1/2,1}: mean of (x+1) over them is exactly 1
    assert t.s_g_lattice(p1, g_one, (1,), 2) == pytest.approx(1.0, abs=1e-15)


def test_s_g_lattice_converges(p1, p2, g_one, g_exp_x):
    cases = [(p1, g_one, (1,)), (p1, g_exp_x, (1,)), (p2, g_one, (1, 0))]
    for P, g, a in cases:
        target = t.s_g(P, g, a)
        for m in (10, 20, 40, 80):
            got = t.s_g_lattice(P, g, a, m)
            assert abs(got - target) <= 5 / m, (P.dim, g.kind, m)


def test_s_g_lattice_spot_values(p1, g_one, g_exp_x):
    assert abs(t.s_g_lattice(p1, g_one, (1,), 100) - 1.0) <= 0.02
    assert abs(t.s_g_lattice(p1, g_exp_x, (1,), 200) - COTH1) <= 0.02


@st.composite
def _lattice_cases(draw, dims=(1, 2, 3), scales=(1, Fraction(1, 3), 0.37)):
    """(points, weight description, direction, m): a ``perfbench.gen``
    polytope (an interval in 1D), a generated weight of a drawn kind, a
    generated direction times one of ``scales`` and a lattice scale."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from(dims))
    pts = gen.interval(rng) if dim == 1 else gen.polytope_points(rng, dim)
    spec = gen.weight(rng, draw(st.sampled_from(gen.WEIGHT_KINDS)), pts)
    a = gen.direction(rng, dim) if dim > 1 else (rng.choice((-3, -2, -1, 1, 2, 3)),)
    scale = draw(st.sampled_from(scales))
    a = tuple(scale * x for x in a)
    m = rng.randint(1, {1: 2000, 2: 60, 3: 14}[dim])
    return pts, spec, a, m


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_lattice_cases())
def test_s_g_lattice_matches_the_point_sum(case):
    pts, spec, a, m = case
    P = t.from_vertices(pts)
    g = build_weight(t, spec)
    want = s_g_lattice_points(P, g, a, m)
    assert t.s_g_lattice(P, g, a, m) == pytest.approx(want, rel=1e-13, abs=0)


@st.composite
def _rational_poly_cases(draw):
    """A small generated polytope, a rational polynomial weight of degree up
    to 4 made positive on P, a rational direction and a lattice scale."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from((1, 2, 3)))
    pts = gen.interval(rng) if dim == 1 else gen.polytope_points(rng, dim)
    reach = max(abs(x) for v in pts for x in v)
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        powers = tuple(draw(st.integers(0, 4 // dim)) for _ in range(dim))
        terms.append((powers, Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
    floor = 1 + sum(abs(c) * reach ** sum(p) for p, c in terms)
    g = t.WeightFunction.polynomial([((0,) * dim, floor)] + terms)
    a = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
    if not any(a):
        a = (1,) + a[1:]
    m = rng.randint(1, {1: 60, 2: 8, 3: 4}[dim])
    return t.from_vertices(pts), g, a, m


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_rational_poly_cases())
def test_s_g_lattice_matches_the_exact_fraction_sum(case):
    P, g, a, m = case
    want = s_g_lattice_exact(P, g, a, m)
    assert abs(t.s_g_lattice(P, g, a, m) - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("n", [1, 2, 10**4])
@pytest.mark.parametrize("c", [0.0, 1e-300, -1e-300, 1e-12, -1e-12, 1e-3, -1e-3, 1.0, -1.0, 50.0, -50.0])
def test_exp_column_sums_match_mpmath(c, n):
    # one column u_n = lo..hi at m = 4, where the exponent moves by c a step;
    # its weights relative to the largest, and the values base + slope u_n/m,
    # rising and falling, summed term by term in mpmath
    m, lo = 4, -5
    hi = lo + n - 1
    top = hi if c > 0 else lo
    with mpmath.workdps(40):
        w = [mpmath.exp(mpmath.mpf(c) * (k - top)) for k in range(lo, hi + 1)]
        mass = mpmath.fsum(w)
        for slope, base in ((1.0, 0.5 - lo / m), (-1.0, 0.5 + hi / m)):
            got_mass, got_first = stability._exp_columns(
                [c * m], np.zeros((1, 0)), np.array([lo]), np.array([hi]), m, np.array([base]), slope
            )
            first = mpmath.fsum(
                wk * (mpmath.mpf(base) + mpmath.mpf(slope) * k / m) for wk, k in zip(w, range(lo, hi + 1))
            )
            assert abs(got_mass[0] - mass) <= 1e-13 * mass, (slope, float(mass))
            assert abs(got_first[0] - first) <= 1e-13 * first, (slope, float(first))


def test_s_g_lattice_sums_columns_without_lattice_points(monkeypatch):
    def refuse(self, m):
        raise AssertionError("s_g_lattice expanded the lattice points")

    monkeypatch.setattr(polytope.LabelledPolytope, "lattice_points", refuse)
    for g in (t.WeightFunction.constant(1), t.WeightFunction.affine(1, (Fraction(1, 9),) * 3),
              t.WeightFunction.exp_affine(0, (0.25, -0.5, 0.125)),
              t.WeightFunction.polynomial([((0, 0, 0), 2), ((1, 1, 0), Fraction(1, 8))])):
        assert t.s_g_lattice(SIMPLEX3, g, (1, 2, -1), 5) > 0


def test_s_g_lattice_rejects_a_weight_of_another_dimension(p2, g_exp_x):
    cube = t.WeightFunction.polynomial([((0, 0, 0), 1), ((1, 0, 0), Fraction(1, 9))])
    for g in (g_exp_x, cube):
        with pytest.raises(errors.SchemaViolation, match="does not match"):
            t.s_g_lattice(p2, g, (1, 0), 3)


def test_s_g_lattice_memory_grows_with_columns_not_points():
    # the hexagonal bipyramid with box [-2, 2]^3 and 12 facets, the largest
    # 3D polytope the generator draws: at m = 12 mP holds about 41000
    # points in 2401 columns; point arrays of them peaked above 2 MB
    P = t.from_vertices([(2, 0, 0), (0, 2, 0), (-2, 2, 0), (-2, 0, 0), (0, -2, 0),
                         (2, -2, 0), (0, 0, 2), (0, 0, -2)])
    assert len(P.normals) == 12
    g = t.WeightFunction.polynomial([((0, 0, 0), 2), ((2, 0, 0), Fraction(1, 8)), ((1, 1, 1), Fraction(1, 16))])
    t.s_g_lattice(P, g, (1, 2, -1), 12)
    tracemalloc.start()
    try:
        t.s_g_lattice(P, g, (1, 2, -1), 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_ding_na_valuation_signs(p1, g_exp_x):
    assert t.ding_na_valuation(p1, g_exp_x, (1,)) == pytest.approx(1 - COTH1, abs=1e-12)
    assert t.ding_na_valuation(p1, g_exp_x, (1,)) < 0
    assert t.ding_na_valuation(p1, g_exp_x, (-1,)) > 0
    assert t.ding_na_valuation(p1, t.WeightFunction.constant(1), (1,)) == pytest.approx(
        0.0, abs=1e-14
    )


# ---------------------------------------------------------------------------
# PL convex functions and twists
# ---------------------------------------------------------------------------


def test_pl_normalizes_min_to_zero(p1):
    f = t.PLConvexFunction(p1, (((1,), -5), ((-1,), -5)))
    assert min(f.value(np.array([[-1.0], [0.0], [1.0]]))) == 0.0
    assert f.value_exact((0,)) == 0
    assert f.value_exact((1,)) == 1


def test_pl_zero_function(p1):
    z = t.PLConvexFunction.zero(p1)
    assert t.lambda_na(z) == 0.0
    assert np.all(z.value(np.array([[0.3], [-0.9]])) == 0.0)


def test_pl_valuation_type(p2):
    f = t.PLConvexFunction.valuation_type(p2, (1, 0))
    # <a,x> - min = x + 1 on this triangle
    assert f.value_exact((0, 0)) == 1
    assert f.value_exact((-1, 0)) == 0
    assert t.lambda_na(f) == 3.0  # max x-coordinate 2, plus offset 1


def test_pl_duplicate_pieces_removed(p1):
    f = t.PLConvexFunction(p1, (((1,), 0), ((1,), 0), ((-1,), 0)))
    assert len(f.pieces) == 2


def test_pl_serialization(abs_x):
    d = abs_x.to_dict()
    assert {"a", "c"} <= set(d["pieces"][0].keys())


def test_twist_adds_slopes(p1, abs_x):
    tw = t.twist(abs_x, 1)
    assert set(tw.pieces) == {
        ((Fraction(2),), Fraction(0)),
        ((Fraction(0),), Fraction(0)),
    }


def test_twist_of_valuation_type_shifts_direction(p2):
    f = t.PLConvexFunction.valuation_type(p2, (1, 0))
    tw = t.twist(f, (1, 1))
    want = t.PLConvexFunction.valuation_type(p2, (2, 1))
    assert tw.pieces[0][0] == want.pieces[0][0]
    # both normalized to min zero
    assert tw.pieces == want.pieces


def test_twist_requires_rational_direction(abs_x):
    with pytest.raises(ValueError):
        t.twist(abs_x, 0.123456789)


# ---------------------------------------------------------------------------
# filtration sampling
# ---------------------------------------------------------------------------


def test_filtration_zero_function_single_atom(p1, g_one):
    z = t.PLConvexFunction.zero(p1)
    fs = t.dh_g_filtration(p1, g_one, z, 4)
    pos, mass = fs.nu_atoms
    assert list(pos) == [0.0]
    assert mass[0] == pytest.approx(fs.total_mass, abs=1e-15)


def test_filtration_abs_x_atoms_at_m2(p1, g_one, abs_x):
    fs = t.dh_g_filtration(p1, g_one, abs_x, 2)
    pos, mass = fs.nu_atoms
    assert list(pos) == [0.0, 0.5, 1.0]
    assert list(mass) == pytest.approx([0.5, 1.0, 1.0], abs=1e-15)
    assert fs.total_mass == pytest.approx(2.5, abs=1e-15)


def test_filtration_mass_converges_to_weighted_volume(g_one):
    for name in t.builtin_names():
        P = t.builtin(name)
        z = t.PLConvexFunction.zero(P)
        Vg = t.weighted_volume(P, g_one)
        for m in (10, 40, 80):
            fs = t.dh_g_filtration(P, g_one, z, m)
            rel = abs(fs.total_mass - Vg) / Vg
            assert rel < 3 / m, (name, m)


_P1_EXP = ([(-1,), (1,)], ("exp_affine", 0, (1,)), (1,))
_P2_ONE = ([(-1, -1), (2, -1), (-1, 2)], ("constant", 1, ()), (1, 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_lattice_cases(dims=(2, 3), scales=(1, Fraction(1, 3))))
@example((*_P1_EXP, 3))
@example((*_P1_EXP, 7))
@example((*_P2_ONE, 3))
@example((*_P2_ONE, 7))
def test_filtration_mean_equals_lattice_vanishing_order(case):
    # definitional identity: the mean of nu_m for valuation data, from the
    # points of mP, is s_g_lattice, summed over its columns
    pts, spec, a, m = case
    P = t.from_vertices(pts)
    g = build_weight(t, spec)
    fs = t.dh_g_filtration(P, g, t.PLConvexFunction.valuation_type(P, a), m)
    s = t.s_g_lattice(P, g, a, m)
    # within 1e-13, relative and absolute
    assert abs(fs.mean - s) <= 1e-13 * min(1.0, abs(s))


def test_filtration_f_m_is_complementary_cumulative(p1, g_one, abs_x):
    fs = t.dh_g_filtration(p1, g_one, abs_x, 2)
    assert fs.f_m(-0.1) == pytest.approx(fs.total_mass, abs=1e-15)
    assert fs.f_m(0.25) == pytest.approx(2.0, abs=1e-15)
    assert fs.f_m(0.75) == pytest.approx(1.0, abs=1e-15)
    assert fs.f_m(1.25) == 0.0


def _assert_matches_loop(P, g, f, m):
    fs = t.dh_g_filtration(P, g, f, m)
    ref = LoopFiltration(P, g, f, m)
    (pos, mass), (want_pos, want_mass) = fs.nu_atoms, ref.nu_atoms
    assert np.array_equal(pos, want_pos) and np.array_equal(mass, want_mass)
    assert fs.total_mass == ref.total_mass and fs.mean == ref.mean
    assert [fs.f_m(x) for x in pos] == [ref.f_m(x) for x in pos]
    assert len(fs.entries) == len(ref.entries) and list(fs.entries) == ref.entries
    return fs


@st.composite
def _filtration_cases(draw):
    # the cross-polytope conv(+-e_i) keeps the origin interior
    n = draw(st.integers(1, 3))
    r = 3 if n < 3 else 2
    axes = [draw(st.tuples(st.integers(1, r), st.integers(1, r))) for _ in range(n)]
    pts = [tuple(s * (i == j) for j in range(n)) for i, (hi, lo) in enumerate(axes) for s in (hi, -lo)]
    pts += draw(st.lists(st.tuples(*[st.integers(-r, r)] * n), max_size=3))
    pieces = draw(st.lists(st.tuples(st.tuples(*[_fractions] * n), _fractions), min_size=1, max_size=4))
    b = draw(st.tuples(*[st.fractions(-1, 1, max_denominator=4)] * n))
    g = draw(st.sampled_from([t.WeightFunction.constant(Fraction(3, 2)), t.WeightFunction.exp_affine(0, b)]))
    return t.from_vertices(pts), g, tuple(pieces), draw(st.integers(1, 12))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_filtration_cases())
def test_filtration_matches_the_per_point_fraction_loop(case):
    P, g, pieces, m = case
    _assert_matches_loop(P, g, t.PLConvexFunction(P, pieces), m)


def test_filtration_numerators_past_2_53_take_python_ints(p1, p1xp1, g_one, g_exp_x):
    # f(0) = (2^53 + 1)/7: numerator 2^53 + 1 rounds on its way to a float,
    # so k / D in int64 arithmetic would miss the correctly rounded position
    f = t.PLConvexFunction(p1, (((Fraction(2**53 + 1, 7),), 0),))
    fs = _assert_matches_loop(p1, g_exp_x, f, 1)
    assert fs.numerators.dtype == object and fs.denominator == 7
    assert fs.nu_atoms[0][1] == (2**53 + 1) / 7 != float(2**53 + 1) / 7
    # 10^12-scale denominators, as float pieces from the CLI give, and a mix
    # of float and rational pieces on the square
    pieces = (((Fraction(1, 999999999989), Fraction(-3, 7)), Fraction(1, 999999999959)),
              ((0.1234567, -0.75), 0.3), ((-1, 1), 0))
    fs = _assert_matches_loop(p1xp1, g_one, t.PLConvexFunction(p1xp1, pieces), 9)
    assert fs.numerators.dtype == object


@pytest.mark.parametrize("slope,m,dtype", [
    (Fraction(1, 2**52), 2, np.int64),  # L m = 2^53
    (Fraction(1, 2**52), 3, object),  # L m = 3 * 2^52
    (Fraction(2**52), 1, np.int64),  # |C| + |A| max|u| = 2^53
    (Fraction(2**52 + 1), 1, object),  # 2^53 + 2
])
def test_filtration_int64_bound_is_2_53(p1, g_exp_x, slope, m, dtype):
    f = t.PLConvexFunction(p1, (((slope,), 0),))
    assert _assert_matches_loop(p1, g_exp_x, f, m).numerators.dtype == dtype


# ---------------------------------------------------------------------------
# continuous non-Archimedean energies
# ---------------------------------------------------------------------------


def test_e_g_na_zero_function(p1, g_one):
    assert t.e_g_na(p1, g_one, t.PLConvexFunction.zero(p1)) == pytest.approx(
        0.0, abs=1e-15
    )


def test_e_g_na_abs_x(p1, g_one, abs_x):
    assert t.e_g_na(p1, g_one, abs_x) == pytest.approx(0.5, abs=1e-9)


def test_e_g_na_valuation_type_equals_s_g(p1, p2, bl1p2, g_exp_x, g_one):
    cases = [
        (p1, g_exp_x, (1,)),
        (p1, g_exp_x, (-2,)),
        (p2, g_one, (1, 1)),
        (bl1p2, g_one, (1, -1)),
    ]
    for P, g, a in cases:
        f = t.PLConvexFunction.valuation_type(P, a)
        if g.is_polynomial_kind:
            # both are the float of the same exact Fraction
            assert t.e_g_na(P, g, f) == t.s_g(P, g, a)
        else:
            assert t.e_g_na(P, g, f) == pytest.approx(t.s_g(P, g, a), abs=1e-10)


def test_e_g_na_builds_each_cell_simplex_once(monkeypatch):
    built = []
    init = quadrature._Simplex.__init__

    def counted(self, simplex):
        built.append(simplex)
        init(self, simplex)

    monkeypatch.setattr(quadrature._Simplex, "__init__", counted)
    verts = [(-1, 0), (0, -1), (1, -1), (1, 0), (0, 1), (-1, 1)]
    P = t.from_vertices(verts)
    pieces = (((1, 0), 0), ((0, 1), 0), ((-1, -1), Fraction(1, 2)), ((Fraction(1, 2), -1), 0))
    weights = [t.WeightFunction.exp_affine(0, (0.3, -0.2)), t.WeightFunction.constant(1),
               t.WeightFunction.affine(1, (Fraction(1, 5), Fraction(-1, 7)))]
    for f in (t.PLConvexFunction(P, pieces), t.PLConvexFunction.valuation_type(P, (1, 2))):
        before = len(built)
        values = [(t.e_g_na(P, g, f), t.j_g_na(P, g, f)) for g in weights]
        # the first weight builds one per cell simplex, or for a one-piece f
        # those of P's triangulation; the others build none
        assert len(built) - before == sum(len(s) for _, s in f.cell_simplices)
        # the same bits as a fresh function with each weight alone
        for g, value in zip(weights, values):
            fresh = t.PLConvexFunction(t.from_vertices(verts), f.pieces)
            assert value == (t.e_g_na(fresh.domain, g, fresh), t.j_g_na(fresh.domain, g, fresh))


def test_e_g_na_two_dimensional_corner_function(p1xp1, g_one):
    # f = max(x, y, 0) on the square averages to 5/12
    f = t.PLConvexFunction(
        p1xp1, (((1, 0), 0), ((0, 1), 0), ((0, 0), 0))
    )
    assert t.e_g_na(p1xp1, g_one, f) == pytest.approx(5 / 12, abs=1e-12)


def test_e_g_na_is_exact_in_three_dimensions():
    # E[max(x, y, z)] = 1/2 on the cube; the normalisation adds 1
    f = t.PLConvexFunction(CUBE, (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)))
    assert t.e_g_na(CUBE, t.WeightFunction.constant(1), f) == 1.5


def test_e_g_na_three_pieces_exp_weight_matches_grid():
    f = t.PLConvexFunction(
        CUBE,
        (
            ((1, Fraction(1, 2), 0), 0),
            ((0, -1, 0), Fraction(1, 3)),
            ((Fraction(-1, 3), 0, Fraction(1, 2)), 0),
        ),
    )
    assert len(f.cell_simplices) == 3
    g = t.WeightFunction.exp_affine(Fraction(1, 10), [Fraction(3, 5), Fraction(-2, 5), Fraction(1, 5)])
    e = t.e_g_na(CUBE, g, f)

    def grid_mean(m):
        num = grid_integral(CUBE, lambda X: f.value(X) * g.value(X), m)
        return num / grid_integral(CUBE, g.value, m)

    # the midpoint grid converges at O(1/m^2), kinks included
    coarse, fine = abs(grid_mean(30) - e), abs(grid_mean(60) - e)
    assert fine <= 2e-4 * e
    assert fine <= coarse / 3


def _rational(rng, top, den):
    return Fraction(int(rng.integers(-top, top + 1)), int(rng.integers(1, den + 1)))


def test_pl_minimum_in_3d_is_exactly_zero():
    # four pieces with p/q data on the cube: the minima have denominators
    # far beyond what a float solve can recover
    rng = np.random.default_rng(2024)
    for _ in range(40):
        pieces = [
            (tuple(_rational(rng, 60, 40) for _ in range(3)), _rational(rng, 60, 40))
            for _ in range(4)
        ]
        f = t.PLConvexFunction(CUBE, tuple(pieces))
        low = pl_minimum(CUBE, pieces)
        assert set(f.pieces) == {(a, c - low) for a, c in pieces}
        assert pl_minimum(CUBE, f.pieces) == 0


_fractions = st.fractions(-3, 3, max_denominator=5)


def _pieces(n):
    piece = st.tuples(st.tuples(*[_fractions] * n), _fractions)
    return st.lists(piece, min_size=1, max_size=4)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["p1", "p2", "bl2p2", "cube", "simplex3"]).flatmap(
    lambda name: st.tuples(st.just(name), _pieces(1 if name == "p1" else 3 if name in ("cube", "simplex3") else 2))
))
def test_pl_normalisation_gives_exact_minimum_zero(case):
    name, pieces = case
    P = {"cube": CUBE, "simplex3": SIMPLEX3}.get(name) or t.builtin(name)
    f = t.PLConvexFunction(P, tuple(pieces))
    assert pl_minimum(P, f.pieces) == 0
    _check_cells(P, f)


def _check_cells(P, f):
    """f's cells against the oracle: each piece whose cell is
    full-dimensional has one, with the vertices of a brute-force scan and
    their incidence by Fraction dot products; no other piece has one."""
    facets = [(nu, 1) for nu in P.normals]
    cells = {j: (verts, tight) for j, verts, tight in f._cells}
    assert len(cells) == len(f._cells)
    for j, (aj, cj) in enumerate(f.pieces):
        cuts = [
            (tuple(x - y for x, y in zip(ak, aj)), cj - ck)
            for k, (ak, ck) in enumerate(f.pieces)
            if k != j
        ]
        want = polyhedron_vertices(facets + cuts)
        if not want or affine_rank(want) < P.dim:
            assert j not in cells
            continue
        verts, tight = cells[j]
        assert list(verts) == want
        assert tight == tight_sets(verts, facets + cuts)


_H = Fraction(1, 2)
_CUBE4_PIECES = [((0, 0, 0, 0), 0), ((1, -1, 0, 0), 0), ((0, 0, 1, 0), -_H), ((0, 0, 0, 1), -1)]


@pytest.mark.parametrize("name, pieces, dropped", [
    # the cut x = y runs through the vertex (-1, -1)
    ("p2", [((0, 0), 0), ((1, -1), 0)], 0),
    # the cell of 0 lies between the parallel cuts x = -1/2 and x = 1/2, and
    # 2x - 1 cuts it on the hyperplane of x - 1/2, whose cell is the line x = 1/2
    ("p1xp1", [((0, 0), 0), ((1, 0), -_H), ((-1, 0), -_H), ((2, 0), -1)], 1),
    # -1 and x - 1 win nowhere: their cells are empty
    ("p1xp1", [((1, 0), 0), ((-1, 0), 0), ((0, 0), -1), ((1, 0), -1)], 2),
    # 0 wins only at the origin
    ("p1", [((0,), 0), ((1,), 0), ((-1,), 0)], 1),
    # in 4D the cut x1 = x2 holds 8 of the 16 vertices, and x4 - 1 wins only
    # on the facet x4 = 1
    ("cube4", _CUBE4_PIECES, 1),
], ids=["cut_through_vertex", "parallel_cuts", "empty_cells", "point_cell", "cube4"])
def test_degenerate_cells_match_the_oracle(name, pieces, dropped):
    P = CUBE4 if name == "cube4" else t.builtin(name)
    f = t.PLConvexFunction(P, tuple(pieces))
    assert len(f._cells) == len(pieces) - dropped
    _check_cells(P, f)
    assert pl_minimum(P, f.pieces) == 0


def test_one_kernel_run_per_piece_from_the_domain_rays(monkeypatch):
    """A k-piece function runs the double description once per piece: each
    run starts from P's vertex rays with their facet zero sets and adds only
    that piece's k - 1 cuts, and nothing enumerates P again."""
    P = CUBE4
    for k, ((y, z), v) in enumerate(zip(P._rays, P.vertices)):
        assert tuple(Fraction(x, y[-1]) for x in y[:-1]) == v
        assert all((z >> i & 1) == (k in on) for i, on in enumerate(P._tight))
    runs = []
    kernel = stability._double_description

    def counted(rows, rays, todo):
        runs.append((rays, list(todo), len(rows)))
        return kernel(rows, rays, todo)

    def forbidden(*args):
        raise AssertionError("P was enumerated again")

    monkeypatch.setattr(stability, "_double_description", counted)
    monkeypatch.setattr(polytope, "_double_description", forbidden)
    t.PLConvexFunction(P, tuple(_CUBE4_PIECES))
    F, k = len(P.normals), len(_CUBE4_PIECES)
    assert len(runs) == k
    for rays, todo, nrows in runs:
        assert rays is P._rays
        assert todo == list(range(F, F + k - 1))
        assert nrows == F + k - 1


def _unimodular(n, ops):
    """Product of elementary integer matrices: swaps, sign flips, shears."""
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    for kind, i, j in ops:
        i, j = i % n, j % n
        if kind == "flip":
            A[i] = [-x for x in A[i]]
        elif kind == "swap":
            A[i], A[j] = A[j], A[i]
        elif i != j:
            A[i] = [x + y for x, y in zip(A[i], A[j])]
    return A


def _inverse_transpose(A):
    if len(A) == 1:
        return [[Fraction(1, A[0][0])]]
    (a, b), (c, d) = A
    det = a * d - b * c
    return [[Fraction(d, det), Fraction(-c, det)], [Fraction(-b, det), Fraction(a, det)]]


def _apply(M, v):
    return tuple(sum(m * x for m, x in zip(row, v)) for row in M)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from(["p1", "p2", "p1xp1", "bl1p2", "bl2p2", "bl3p2"]),
    st.lists(st.tuples(st.sampled_from(["flip", "swap", "shear"]), st.integers(0, 1), st.integers(0, 1)), max_size=6),
    st.lists(st.tuples(st.tuples(_fractions, _fractions), _fractions), min_size=1, max_size=4),
    st.tuples(st.fractions(5, 7, max_denominator=3), *[st.fractions(-1, 1, max_denominator=5)] * 2),
)
def test_e_g_na_is_gl_n_z_invariant(name, ops, pieces, weight):
    # x' = A x maps (P, g, f) to (AP, g o A^-1, f o A^-1); |det A| = 1
    P = t.builtin(name)
    n = P.dim
    A = _unimodular(n, ops)
    B = _inverse_transpose(A)
    pieces = [(a[:n], c) for a, c in pieces]
    a0, b = weight[0], weight[1 : n + 1]
    g = t.WeightFunction.affine(a0, b)
    Q = t.from_vertices([_apply(A, v) for v in P.vertices])
    gq = t.WeightFunction.affine(a0, _apply(B, b))
    f = t.PLConvexFunction(P, tuple(pieces))
    fq = t.PLConvexFunction(Q, tuple((_apply(B, a), c) for a, c in pieces))
    assert t.e_g_na(Q, gq, fq) == t.e_g_na(P, g, f)


_POLYGONS = [t.builtin(name).vertices for name in t.builtin_names()] + REFLEXIVE_2D


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from(_POLYGONS),
    st.lists(st.tuples(st.sampled_from(["flip", "swap", "shear"]), st.integers(0, 1), st.integers(0, 1)), max_size=6),
    st.tuples(st.fractions(5, 7, max_denominator=3), *[st.fractions(-1, 1, max_denominator=5)] * 2),
    st.tuples(*[st.fractions(-2, 2, max_denominator=3)] * 2),
)
def test_invariants_are_gl_n_z_equivariant(vertices, ops, weight, a):
    # x' = A x maps (P, g) to (AP, g o A^-1); points map by A and the
    # directions and slopes paired with them by B = A^-T
    n = len(vertices[0])
    A = _unimodular(n, ops)
    B = _inverse_transpose(A)
    P, Q = t.from_vertices(vertices), t.from_vertices([_apply(A, v) for v in vertices])
    b = weight[1 : n + 1]
    g, gq = t.WeightFunction.affine(weight[0], b), t.WeightFunction.affine(weight[0], _apply(B, b))
    a = a[:n] if any(a[:n]) else (1,) * n
    assert exact_barycenter(Q, gq) == _apply(A, exact_barycenter(P, g))
    assert t.delta_toric(Q, gq) == t.delta_toric(P, g)
    assert t.s_g(Q, gq, _apply(B, a)) == t.s_g(P, g, a)
    assert t.solve_mabuchi_soliton(Q).b == _apply(B, t.solve_mabuchi_soliton(P).b)
    xi = [float(x) for x in _apply(B, t.solve_kr_soliton(P).xi)]
    assert max(abs(x - y) for x, y in zip(t.solve_kr_soliton(Q).xi, xi)) <= 1e-12
    assert abs(t.futaki(Q, gq, _apply(B, a)) - t.futaki(P, g, a)) <= 1e-15


def test_lambda_and_j_na_examples(p1, g_one, g_exp_x, abs_x):
    assert t.lambda_na(abs_x) == 1.0
    assert t.j_g_na(p1, g_one, abs_x) == pytest.approx(0.5, abs=1e-9)
    f = t.PLConvexFunction.valuation_type(p1, (1,))  # x + 1
    assert t.lambda_na(f) == 2.0
    assert t.j_g_na(p1, g_exp_x, f) == pytest.approx(2 - COTH1, abs=1e-12)


def test_j_g_na_nonnegative_on_random_pl(p1xp1, g_one):
    rng = np.random.default_rng(23)
    for _ in range(10):
        pieces = tuple(
            (
                (
                    Fraction(int(rng.integers(-3, 4)), 2),
                    Fraction(int(rng.integers(-3, 4)), 2),
                ),
                Fraction(int(rng.integers(-2, 3)), 2),
            )
            for _ in range(int(rng.integers(1, 5)))
        )
        f = t.PLConvexFunction(p1xp1, pieces)
        e = t.e_g_na(p1xp1, g_one, f)
        lam = t.lambda_na(f)
        assert -1e-12 <= e <= lam + 1e-12
        assert t.j_g_na(p1xp1, g_one, f) == pytest.approx(lam - e, abs=1e-12)
        assert t.j_g_na(p1xp1, g_one, f) >= -1e-12


# ---------------------------------------------------------------------------
# delta invariant
# ---------------------------------------------------------------------------


def test_delta_interval(p1, g_one, g_exp_x):
    assert t.delta_toric(p1, g_one) == pytest.approx(1.0, abs=1e-14)
    assert t.delta_toric(p1, g_exp_x) == pytest.approx(math.tanh(1), abs=1e-12)
    delta, direction = t.delta_toric(p1, g_exp_x, with_direction=True)
    assert direction[0] == pytest.approx(1.0)  # worst direction points right


def test_delta_interval_two_direction_oracle(p1, g_exp_x):
    # only the two unit directions matter in 1D
    ratios = [
        t.log_discrepancy(p1, (s,)) / t.s_g(p1, g_exp_x, (s,)) for s in (1, -1)
    ]
    assert t.delta_toric(p1, g_exp_x) == pytest.approx(min(ratios), abs=1e-13)


def test_delta_direction_grid_oracle(bl1p2, g_one):
    delta = t.delta_toric(bl1p2, g_one)
    assert delta < 1
    thetas = np.arange(0, 2 * math.pi, 0.01)
    ratios = [
        t.log_discrepancy(bl1p2, (math.cos(th), math.sin(th)))
        / t.s_g(bl1p2, g_one, (math.cos(th), math.sin(th)))
        for th in thetas
    ]
    assert delta == pytest.approx(min(ratios), abs=1e-3)
    # the exact value never exceeds any sampled ratio
    assert delta <= min(ratios) + 1e-12


def test_delta_scale_invariant_in_g(bl1p2, g_one):
    g3 = t.WeightFunction.constant(3)
    assert t.delta_toric(bl1p2, g3) == pytest.approx(
        t.delta_toric(bl1p2, g_one), abs=1e-14
    )


def test_delta_one_for_solved_weight(bl1p2, solved_kr_bl1p2):
    delta = t.delta_toric(bl1p2, solved_kr_bl1p2.weight)
    assert delta == pytest.approx(1.0, abs=1e-9)


def test_g_uniform_check(p1, bl1p2, g_one, g_exp_x, solved_kr_bl1p2):
    r = t.g_uniform_check(p1, g_one)
    assert r["stable_modulo_torus"] is True
    assert r["barycenter_norm"] < 1e-13
    r = t.g_uniform_check(p1, g_exp_x)
    assert r["stable_modulo_torus"] is False
    assert r["barycenter_norm"] == pytest.approx(2 / (math.e**2 - 1), rel=1e-10)
    r = t.g_uniform_check(bl1p2, solved_kr_bl1p2.weight)
    assert r["stable_modulo_torus"] is True
    assert r["barycenter_norm"] < 1e-10


def test_a_kr_soliton_is_g_ding_semistable():
    # existence implies stability: for the weight e^{<xi,x>} that the KR
    # solver's Newton loop returns, delta = 1, D^NA >= 0 on the dual vertices
    # and Fut = 0, read off the first moments rather than the solver's residual
    for vertices in REFLEXIVE_2D:
        P = t.from_vertices(vertices)
        g = t.WeightFunction.exp_affine(0, t.solve_kr_soliton(P).xi)
        assert abs(1 - t.delta_toric(P, g)) <= 1e-11, vertices
        for nu in P.normals:
            assert t.ding_na_valuation(P, g, tuple(-x for x in nu)) >= -1e-11, vertices
        for xi in ((1.0, 0.0), (0.0, 1.0)):
            assert abs(t.futaki(P, g, xi)) <= 1e-11, vertices


def test_an_unstable_weight_has_a_destabilizing_direction():
    # b_g != 0 for 1 + x/7 - y/9: decided exactly, delta < 1, and the float
    # direction that attains delta has D^NA(a) = -<a, b_g> < 0
    g = t.WeightFunction.affine(1, [Fraction(1, 7), Fraction(-1, 9)])
    for vertices in REFLEXIVE_2D[:6]:
        P = t.from_vertices(vertices)
        check = t.g_uniform_check(P, g)
        assert check["decided_by"] == "exact" and check["stable_modulo_torus"] is False
        delta, a = t.delta_toric(P, g, with_direction=True)
        assert delta < 1, vertices
        ding = t.ding_na_valuation(P, g, a)
        assert ding < 0, vertices
        assert ding == pytest.approx(-float(np.dot(a, t.weighted_barycenter(P, g))), abs=1e-13)


def test_zero_barycenter_is_decided_exactly_for_rational_weights(p1xp1, bl1p2, g_one):
    tiny = t.WeightFunction.affine(1, [Fraction(1, 10**11), 0])
    r = t.g_uniform_check(p1xp1, tiny)
    assert r["stable_modulo_torus"] is False and r["decided_by"] == "exact"
    assert t.g_uniform_check(p1xp1, g_one)["stable_modulo_torus"] is True
    assert t.delta_toric(p1xp1, g_one) == 1.0
    # delta = 1 / (1 - min_i <nu_i, b_g>), computed in Fractions
    for P, g in ((p1xp1, tiny), (bl1p2, g_one)):
        b = exact_barycenter(P, g)
        low = min(sum(x * y for x, y in zip(nu, b)) for nu in P.normals)
        assert low < 0
        assert t.delta_toric(P, g) == float(1 / (1 - low))
    assert t.g_uniform_check(p1xp1, t.WeightFunction.exp_affine(0, [1, 0]))["decided_by"] == "tol"
