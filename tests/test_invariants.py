"""Weighted volumes, barycenters, Futaki pairing, soliton solvers, marginals."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import toricgs as t
from toricgs import errors, invariants, quadrature
from toricgs.invariants import weighted_volume_exact

from conftest import assert_close, exact_barycenter, norm_inf, run_main
from oracles import grid_points, polygon_monomial_integral
from perfbench.gen import REFLEXIVE_2D


# ---------------------------------------------------------------------------
# volumes and barycenters
# ---------------------------------------------------------------------------


def test_weighted_volume_closed_forms(p1, p1xp1, g_one, g_exp_x):
    assert t.weighted_volume(p1, g_one) == pytest.approx(2.0, abs=1e-14)
    assert t.weighted_volume(p1xp1, g_one) == pytest.approx(8.0, abs=1e-13)
    assert t.weighted_volume(p1, g_exp_x) == pytest.approx(
        math.e - 1 / math.e, rel=1e-13
    )


def test_weighted_volume_scales_with_factorial_of_dim(p2, g_one):
    # n! times the euclidean volume 9/2
    assert t.weighted_volume(p2, g_one) == pytest.approx(9.0, abs=1e-13)
    assert weighted_volume_exact(p2, g_one) == Fraction(9)


def test_weighted_volume_exact_affine(bl1p2):
    g = t.WeightFunction.affine(1, [Fraction(1, 4), Fraction(-1, 8)])
    want = 2 * (
        polygon_monomial_integral(bl1p2.vertices, 0, 0)
        + Fraction(1, 4) * polygon_monomial_integral(bl1p2.vertices, 1, 0)
        - Fraction(1, 8) * polygon_monomial_integral(bl1p2.vertices, 0, 1)
    )
    assert weighted_volume_exact(bl1p2, g) == want


def test_barycenter_interval(p1, g_one, g_exp_x):
    assert norm_inf(t.weighted_barycenter(p1, g_one)) < 1e-15
    b = t.weighted_barycenter(p1, g_exp_x)
    assert b[0] == pytest.approx(2 / (math.e**2 - 1), rel=1e-12)
    # same number as coth(1) - 1
    assert b[0] == pytest.approx(1 / math.tanh(1) - 1, rel=1e-12)


def test_barycenter_p2_is_origin(p2, g_one):
    assert norm_inf(t.weighted_barycenter(p2, g_one)) < 1e-13


def test_barycenter_bl1p2_matches_moment_oracle(bl1p2, g_one):
    b = t.weighted_barycenter(bl1p2, g_one)
    area = polygon_monomial_integral(bl1p2.vertices, 0, 0)
    want = (
        polygon_monomial_integral(bl1p2.vertices, 1, 0) / area,
        polygon_monomial_integral(bl1p2.vertices, 0, 1) / area,
    )
    assert b[0] == pytest.approx(float(want[0]), abs=1e-13)
    assert b[1] == pytest.approx(float(want[1]), abs=1e-13)
    assert norm_inf(b) > 0.05


def test_barycenter_equivariant_under_coordinate_swap(bl1p2):
    # the polytope is symmetric under (x, y) -> (y, x)
    for g in (
        t.WeightFunction.constant(1),
        t.WeightFunction.exp_affine(0, [Fraction(1, 3), Fraction(1, 3)]),
    ):
        b = t.weighted_barycenter(bl1p2, g)
        assert b[0] == pytest.approx(b[1], abs=1e-13)


def test_barycenter_exact_rational_path(p1):
    g = t.WeightFunction.affine(1, [Fraction(1, 2)])
    b = exact_barycenter(p1, g)
    # int x (1 + x/2) / int (1 + x/2) = (1/3) / 2
    assert b == (Fraction(1, 6),)


# ---------------------------------------------------------------------------
# Futaki pairing
# ---------------------------------------------------------------------------


def test_futaki_is_minus_barycenter_pairing(bl1p2, g_one):
    b = t.weighted_barycenter(bl1p2, g_one)
    for xi in [(1, 0), (0, 1), (2, -3), (0.5, 0.25)]:
        want = -(xi[0] * b[0] + xi[1] * b[1])
        assert t.futaki(bl1p2, g_one, xi) == pytest.approx(want, abs=1e-13)


def test_futaki_linear_in_direction(p2, g_exp_xy=None):
    g = t.WeightFunction.exp_affine(0, [Fraction(1, 5), Fraction(-1, 10)])
    f1 = t.futaki(p2, g, (1, 0))
    f2 = t.futaki(p2, g, (0, 1))
    f12 = t.futaki(p2, g, (3, -2))
    assert f12 == pytest.approx(3 * f1 - 2 * f2, abs=1e-13)
    assert t.futaki(p2, g, (0, 0)) == 0.0


def test_direction_of_the_wrong_length_is_rejected(p1, p2):
    # g = 1 + x/5: a direction cut to (1,) or padded to (1, 0, 7) once gave
    # Fut = -0.1, the value of (1, 0)
    g = t.WeightFunction.affine(1, [Fraction(1, 5), 0])
    f = t.PLConvexFunction.zero(p2)
    calls = [
        lambda a: t.futaki(p2, g, a),
        lambda a: t.log_discrepancy(p2, a),
        lambda a: t.s_g(p2, g, a),
        lambda a: t.ding_na_valuation(p2, g, a),
        lambda a: t.s_g_lattice(p2, g, a, 4),
        lambda a: t.dh_marginal(p2, a, 0.5),
        lambda a: t.PLConvexFunction.valuation_type(p2, a),
        lambda a: t.twist(f, a),
    ]
    for a in ((1,), (1, 0, 7)):
        for call in calls:
            with pytest.raises(errors.ValidationError, match=f"length {len(a)}.* dimension 2"):
                call(a)
    assert t.futaki(p2, g, (1, 0)) == pytest.approx(-0.1, abs=1e-15)
    # zero directions stay legal where A and Fut are degree-1 homogeneous
    assert t.futaki(p2, g, (0, 0)) == 0.0
    assert t.log_discrepancy(p1, (0,)) == 0.0
    with pytest.raises(errors.ZeroVector):
        t.s_g(p2, g, (0, 0))


def test_futaki_vanishes_for_symmetric_data(p1, p1xp1, p2, g_one):
    for P in (p1, p1xp1, p2):
        n = P.dim
        for d in range(n):
            xi = tuple(int(i == d) for i in range(n))
            assert abs(t.futaki(P, g_one, xi)) < 1e-13


# ---------------------------------------------------------------------------
# Duistermaat-Heckman marginals
# ---------------------------------------------------------------------------


def test_marginal_interval_convention(p1):
    assert t.dh_marginal(p1, 1, 0.3) == 1.0
    assert t.dh_marginal(p1, 1, 2.0) == 0.0


def test_marginal_square_and_triangle(p1xp1, p2):
    assert t.dh_marginal(p1xp1, (1, 0), 0.0) == pytest.approx(2.0, abs=1e-12)
    # slices of the triangle at x = t have length 2 - t on [-1, 2]
    for tt in (-0.5, 0.0, 1.0, 1.7):
        assert t.dh_marginal(p2, (1, 0), tt) == pytest.approx(2.0 - tt, abs=1e-12)
    assert t.dh_marginal(p2, (1, 0), 2.5) == 0.0


def test_marginal_integrates_to_volume():
    # midpoint sampling: the density is piecewise linear with jumps only at
    # the support endpoints, so interior midpoints converge at O(h^2)
    m = 4000
    for name in ("p2", "bl1p2", "bl3p2"):
        P = t.builtin(name)
        for a in ((1, 0), (1, 1), (2, 1)):
            lo = float(P.support_min(a))
            hi = float(P.support_max(a))
            h = (hi - lo) / m
            ts = lo + h * (np.arange(m) + 0.5)
            area = h * sum(t.dh_marginal(P, a, float(x)) for x in ts)
            assert area == pytest.approx(float(P.volume), rel=1e-5), (name, a)


def test_marginal_keeps_the_knots_of_each_typed_direction():
    # the Fraction direction (1, 3) and the float (1.0, 3.0) are equal keys
    # by value but not by type, and differ in a knot: <a, (7/3, -1/3)> is
    # float(4/3) exactly, and 1.0 * float(7/3) + 3.0 * float(-1/3) in floats
    pts = [(Fraction(7, 3), Fraction(-1, 3)), (-1, 2), (-1, -1), (1, 1)]
    P = t.from_vertices(pts)
    directions = [(1, 3), (1.0, 3.0), (Fraction(1, 10), 0.3), (1, 3)]
    knots = [invariants._marginal_splines(P, t._exact.direction(a, 2)) for a in directions]
    assert knots[0] != knots[1]
    for a, kept in zip(directions, knots):
        fresh = t.from_vertices(pts)
        assert kept == invariants._marginal_splines(fresh, t._exact.direction(a, 2))
        for tt in np.linspace(-3.5, 7.5, 23):
            assert t.dh_marginal(P, a, tt) == t.dh_marginal(fresh, a, tt)


def test_marginal_knots_that_nearly_tie():
    # a float direction is used as given, so knots <a, v> can tie up to
    # rounding: <(0.1, 0.3), (3, -1)> is 5.6e-17, not 0.  A divided
    # difference across such a pair once read 2.0 outside the support
    z = [0.0, 0.1 * 3 - 0.3, 1.0]
    assert z[1] != 0
    assert invariants._mspline(z, -0.7, 2) == 0.0
    assert invariants._mspline(z, 0.5, 2) == pytest.approx(1.0, abs=1e-15)
    P = t.from_vertices([(3, -1), (-1, 2), (-1, -1), (1, 1)])
    exact = (Fraction(1, 10), Fraction(3, 10))
    for tt in np.linspace(-0.5, 0.6, 45):
        want = t.dh_marginal(P, exact, tt)
        assert t.dh_marginal(P, (0.1, 0.3), tt) == pytest.approx(want, abs=1e-12)


def test_marginal_matches_strip_count_oracle(bl1p2):
    # the marginal is the pushforward density of the linear functional, so a
    # thin value-strip of width w has area ~ w * density
    pts, cell = grid_points(bl1p2, 1600)
    a = np.array([1.0, 1.0])
    tt = 0.25
    width = 0.08
    strip = np.abs(pts @ a - tt) < width / 2
    est = strip.sum() * cell / width
    assert t.dh_marginal(bl1p2, (1, 1), tt) == pytest.approx(est, rel=2e-2)


# ---------------------------------------------------------------------------
# exponential-weight soliton solve
# ---------------------------------------------------------------------------


def test_kr_soliton_symmetric_cases(p1, p1xp1):
    s1 = t.solve_kr_soliton(p1)
    assert norm_inf(s1.xi) < 1e-12
    s2 = t.solve_kr_soliton(p1xp1)
    assert norm_inf(s2.xi) < 1e-12
    assert s2.residual < 1e-10
    assert s2.feasible


def test_kr_soliton_bl1p2(solved_kr_bl1p2, bl1p2):
    sol = solved_kr_bl1p2
    assert sol.kind == "kr"
    assert sol.iterations <= 30
    assert sol.residual < 1e-12
    assert sol.xi[0] == pytest.approx(sol.xi[1], abs=1e-10)
    # the solved weight recenters the barycenter at the origin
    b = t.weighted_barycenter(bl1p2, sol.weight)
    assert norm_inf(b) < 1e-10


def test_kr_soliton_converges_when_w_stops_resolving_decrease():
    # near these minima a Newton step lowers W by less than its rounding, so
    # an exact Armijo test halves the step until the iteration cap
    for pts in (
        [(-3, 1), (-2, 1), (1, 0), (3, -2)],
        [(-2, 0), (0, -3), (1, -3), (1, 2)],
        [(-2, 1), (0, 1), (1, -2), (1, -1)],
    ):
        P = t.from_vertices(pts)
        sol = t.solve_kr_soliton(P)
        assert sol.iterations <= 30, pts
        assert norm_inf(t.weighted_barycenter(P, sol.weight)) < 1e-12


def test_kr_soliton_is_local_grid_minimum(solved_kr_bl1p2, bl1p2):
    xi = np.asarray(solved_kr_bl1p2.xi, dtype=float)

    def W(z):
        g = t.WeightFunction.exp_affine(0, tuple(float(c) for c in z))
        return quadrature.moments(bl1p2, g, 0)[(0, 0)]

    w0 = W(xi)
    for dx in (-0.05, 0.0, 0.05):
        for dy in (-0.05, 0.0, 0.05):
            if dx == dy == 0.0:
                continue
            assert W(xi + np.array([dx, dy])) > w0


def test_exp_volume_is_convex_in_direction(bl1p2):
    rng = np.random.default_rng(11)

    def W(z):
        g = t.WeightFunction.exp_affine(0, tuple(float(c) for c in z))
        return quadrature.moments(bl1p2, g, 0)[(0, 0)]

    for _ in range(5):
        x, y = rng.uniform(-1.5, 1.5, size=(2, 2))
        assert W((x + y) / 2) <= 0.5 * (W(x) + W(y)) + 1e-12


# ---------------------------------------------------------------------------
# affine-weight soliton solve
# ---------------------------------------------------------------------------


def test_mabuchi_symmetric_cases(p1, p1xp1):
    for P in (p1, p1xp1):
        sol = t.solve_mabuchi_soliton(P)
        assert sol.kind == "mabuchi"
        assert all(x == 0 for x in sol.b)
        assert sol.feasible
        assert sol.weight.kind in ("affine", "constant")


def test_mabuchi_bl1p2_exact_rational(bl1p2):
    sol = t.solve_mabuchi_soliton(bl1p2)
    # independent oracle: solve the 2x2 rational moment system by Cramer
    V = polygon_monomial_integral(bl1p2.vertices, 0, 0)
    bx = polygon_monomial_integral(bl1p2.vertices, 1, 0)
    by = polygon_monomial_integral(bl1p2.vertices, 0, 1)
    mxx = polygon_monomial_integral(bl1p2.vertices, 2, 0)
    mxy = polygon_monomial_integral(bl1p2.vertices, 1, 1)
    myy = polygon_monomial_integral(bl1p2.vertices, 0, 2)
    det = mxx * myy - mxy * mxy
    want = (
        (-bx * myy + by * mxy) / det,
        (-by * mxx + bx * mxy) / det,
    )
    assert tuple(sol.b) == want
    # exact zero residual of the weighted barycenter under the affine weight
    bexact = exact_barycenter(bl1p2, sol.weight)
    assert all(x == 0 for x in bexact)
    # feasibility matches the exact vertex evaluation of 1 + <b, v>
    vertex_vals = [
        1 + sol.b[0] * v[0] + sol.b[1] * v[1] for v in bl1p2.vertices
    ]
    assert sol.feasible == all(x > 0 for x in vertex_vals)
    assert V == Fraction(4)  # guards the oracle itself


_BUILTINS = [t.builtin(name).vertices for name in t.builtin_names()]


@pytest.mark.parametrize("vertices", _BUILTINS + REFLEXIVE_2D)
def test_a_feasible_mabuchi_soliton_is_stable_exactly(tmp_path, vertices):
    # every builtin has a positive Mabuchi weight; 10 of the 16 reflexive
    # polygons do, and the claim is about those only
    P = t.from_vertices(vertices)
    sol = t.solve_mabuchi_soliton(P)
    assert sol.feasible or vertices not in _BUILTINS
    if not sol.feasible:
        return
    check = t.g_uniform_check(P, sol.weight)
    assert check["stable_modulo_torus"] is True and check["decided_by"] == "exact"
    path = tmp_path / "P.json"
    path.write_text(json.dumps({"vertices": [[str(x) for x in v] for v in vertices]}))
    spec = "affine:1," + ",".join(str(x) for x in sol.b)
    rc, out, err = run_main(["check-futaki", "--polytope", str(path), "--g", spec])
    assert rc == 0, err
    report = json.loads(out)
    assert report["results"]["futaki_vanishes"] is True
    assert report["diagnostics"]["decided_by"] == "exact"


def test_soliton_solution_serialization(solved_kr_bl1p2, bl1p2):
    d = solved_kr_bl1p2.to_dict()
    assert d["kind"] == "kr"
    assert len(d["xi"]) == 2
    assert d["weight"]["kind"] == "exp_affine"
    dm = t.solve_mabuchi_soliton(bl1p2).to_dict()
    assert dm["kind"] == "mabuchi"
    assert isinstance(dm["b"][0], (str, int))
