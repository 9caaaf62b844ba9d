"""Weight functions, exact moments, exp integrals, divided differences."""

import gc
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toricgs as t
from toricgs import errors, quadrature

from conftest import run_main
from oracles import (
    brute_gm,
    dd_exp_series,
    exp_dd_series_120,
    exp_simplex_moments,
    grid_integral,
    interval_monomial_integral,
    poly_simplex_moments,
    polygon_monomial_integral,
    unit_triangle_exp_moment,
)


# ---------------------------------------------------------------------------
# weight function objects
# ---------------------------------------------------------------------------


def test_weight_constructors_and_values(p1):
    x = np.array([[0.25], [-0.5]])
    assert np.allclose(t.WeightFunction.constant(3).value(x), [3, 3])
    aff = t.WeightFunction.affine(1, [Fraction(1, 2)])
    assert np.allclose(aff.value(x), [1.125, 0.75])
    ex = t.WeightFunction.exp_affine(0.5, [2])
    assert np.allclose(ex.value(x), np.exp(0.5 + 2 * x[:, 0]))
    poly = t.WeightFunction.polynomial([((0,), 1), ((2,), Fraction(1, 2))])
    assert np.allclose(poly.value(x), 1 + 0.5 * x[:, 0] ** 2)


def test_weight_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.8, 0.8, size=(5, 2))
    weights = [
        t.WeightFunction.constant(2),
        t.WeightFunction.affine(1.5, [0.3, -0.2]),
        t.WeightFunction.exp_affine(0.1, [0.4, 0.7]),
        t.WeightFunction.polynomial([((0, 0), 1), ((2, 0), 0.5), ((1, 1), -0.25)]),
    ]
    eps = 1e-6
    for w in weights:
        grad = w.grad(pts)
        for d in range(2):
            shift = np.zeros(2)
            shift[d] = eps
            fd = (w.value(pts + shift) - w.value(pts - shift)) / (2 * eps)
            assert np.allclose(grad[:, d], fd, atol=1e-6), w.kind


def test_weight_range_on(p1):
    assert t.WeightFunction.constant(2).range_on(p1) == (2.0, 2.0)
    lo, hi = t.WeightFunction.exp_affine(0, [1]).range_on(p1)
    assert math.isclose(lo, math.exp(-1)) and math.isclose(hi, math.e)
    assert t.WeightFunction.affine(1, [Fraction(1, 2)]).range_on(p1) == (0.5, 1.5)
    lo, hi = t.WeightFunction.polynomial([((0,), 1), ((2,), 1)]).range_on(p1)
    assert math.isclose(lo, 1.0, abs_tol=1e-6) and math.isclose(hi, 2.0, abs_tol=1e-6)


def test_weight_positivity_certificates(p1):
    t.WeightFunction.affine(1, [Fraction(1, 2)]).check_positive(p1)
    with pytest.raises(errors.PositivityViolated):
        t.WeightFunction.affine(1, [2]).check_positive(p1)
    with pytest.raises(errors.PositivityViolated):
        t.WeightFunction.constant(0).check_positive(p1)
    with pytest.raises(errors.PositivityViolated):
        t.WeightFunction.polynomial([((2,), 1)]).check_positive(p1)
    # exp of anything is positive
    t.WeightFunction.exp_affine(-50, [30]).check_positive(p1)


def test_weight_serialization_roundtrip():
    weights = [
        t.WeightFunction.constant(Fraction(3, 2)),
        t.WeightFunction.affine(1, [Fraction(-1, 3), 2]),
        t.WeightFunction.exp_affine(0.25, [1.5]),
        t.WeightFunction.polynomial([((0, 1), Fraction(2, 7)), ((3, 0), 1)]),
    ]
    for w in weights:
        w2 = t.WeightFunction.from_dict(w.to_dict())
        assert w2.kind == w.kind
        assert w2.to_dict() == w.to_dict()
        assert (w2.a0, w2.b, w2.coeffs) == (w.a0, w.b, w.coeffs)


def test_weight_from_dict_rejects_bad_schema():
    with pytest.raises(errors.SchemaViolation):
        t.WeightFunction.from_dict({"kind": "mystery"})
    with pytest.raises(errors.SchemaViolation):
        t.WeightFunction.from_dict({"kind": "affine"})  # missing fields
    with pytest.raises(errors.SchemaViolation):
        t.WeightFunction.from_dict(
            {"kind": "polynomial", "coeffs": [{"powers": [0, 0], "c": "1/0"}]}
        )
    for bad, pointer in (
        ([{"powers": "ab", "c": 1}], "/g/coeffs/0/powers"),
        ([{"powers": [1, -1], "c": 1}], "/g/coeffs/0/powers"),
        ([{"powers": [0, True], "c": 1}], "/g/coeffs/0/powers"),
        ([{"powers": [0, 0], "c": 1}, {"powers": [1], "c": 1}], "/g/coeffs/1/powers"),
    ):
        with pytest.raises(errors.SchemaViolation) as info:
            t.WeightFunction.from_dict({"kind": "polynomial", "coeffs": bad})
        assert info.value.pointer == pointer


def test_number_codec_roundtrip():
    vals = [Fraction(1, 3), Fraction(-7, 2), 4, 0.125, -2.5e-3]
    for v in vals:
        enc = quadrature.encode_number(v)
        dec = quadrature.decode_number(enc)
        assert dec == v
        assert isinstance(enc, (str, int, float))


# ---------------------------------------------------------------------------
# exact monomial moments
# ---------------------------------------------------------------------------


def test_interval_monomials_match_closed_form(p1):
    got = quadrature.moments(p1, t.WeightFunction.constant(1), 7)
    for k in range(8):
        assert isinstance(got[(k,)], Fraction)
        assert got[(k,)] == interval_monomial_integral(-1, 1, k), k


def test_polygon_monomials_match_shoelace_oracle():
    for name in ("p2", "p1xp1", "bl1p2", "bl3p2"):
        P = t.builtin(name)
        got = quadrature.moments(P, t.WeightFunction.constant(1), 3)
        assert len(got) == 10
        for (i, j), value in got.items():
            want = polygon_monomial_integral(P.vertices, i, j)
            assert value == want, (name, i, j)


def test_simplex_monomial_example():
    vals = quadrature.simplex_moments(
        ((0, 0), (1, 0), (0, 1)), t.WeightFunction.constant(1), [(1, 0)]
    )
    assert vals == [Fraction(1, 6)]


def test_integrate_polynomial_is_exact(p1):
    w = t.WeightFunction.polynomial([((0,), 1), ((2,), Fraction(1, 2))])
    assert quadrature.moments(p1, w, 0) == {(0,): Fraction(7, 3)}


def test_moment_with_affine_weight_is_exact(p2):
    w = t.WeightFunction.affine(1, [Fraction(1, 4), 0])
    # integral of (1 + x/4) x over P: oracle from polygon moments
    want = polygon_monomial_integral(p2.vertices, 1, 0) + Fraction(1, 4) * polygon_monomial_integral(p2.vertices, 2, 0)
    assert quadrature.moments(p2, w, 1)[(1, 0)] == want


# ---------------------------------------------------------------------------
# exponential integrals
# ---------------------------------------------------------------------------


def test_interval_exp_closed_forms(p1):
    for b in (1.0, 0.3, 2.7, -1.2):
        g = t.WeightFunction.exp_affine(0, [b])
        val = quadrature.moments(p1, g, 0)[(0,)]
        assert val == pytest.approx(2 * math.sinh(b) / b, rel=1e-13)
    # constant offset scales the integral
    g = t.WeightFunction.exp_affine(0.7, [1])
    val = quadrature.moments(p1, g, 0)[(0,)]
    assert val == pytest.approx(math.exp(0.7) * (math.e - 1 / math.e), rel=1e-13)


def test_interval_exp_moments_closed_forms(p1):
    g = t.WeightFunction.exp_affine(0, [1])
    M = quadrature.moments(p1, g, 2)
    assert M[(1,)] == pytest.approx(2 / math.e, rel=1e-12)
    assert M[(2,)] == pytest.approx(math.e - 5 / math.e, rel=1e-12)


def test_triangle_exp_closed_form(p2):
    # slices along x give int over P of e^{x+y} = 2e + e^{-2} for this triangle
    g = t.WeightFunction.exp_affine(0, [1, 1])
    val = quadrature.moments(p2, g, 0)[(0, 0)]
    assert val == pytest.approx(2 * math.e + math.exp(-2), rel=1e-12)


def test_square_exp_factorizes(p1xp1):
    g = t.WeightFunction.exp_affine(0, [0.4, -1.1])
    val = quadrature.moments(p1xp1, g, 0)[(0, 0)]
    want = (2 * math.sinh(0.4) / 0.4) * (2 * math.sinh(1.1) / 1.1)
    assert val == pytest.approx(want, rel=1e-12)


def test_exp_integral_matches_midpoint_grid(bl1p2):
    g = t.WeightFunction.exp_affine(0.2, [0.5, -0.3])
    val = quadrature.moments(bl1p2, g, 0)[(0, 0)]
    oracle = grid_integral(bl1p2, lambda x: g.value(x), 900)
    assert val == pytest.approx(oracle, rel=2e-3)


def test_simplex_exp_integral_2d_closed_form():
    # int over conv{(0,0),(1,0),(0,1)} of e^x dx = e - 2
    (val,) = quadrature.simplex_moments(
        ((0, 0), (1, 0), (0, 1)), t.WeightFunction.exp_affine(0.0, (1.0, 0.0)), [(0, 0)]
    )
    assert val == pytest.approx(math.e - 2, rel=1e-12)


# ---------------------------------------------------------------------------
# divided differences of exp
# ---------------------------------------------------------------------------


def test_exp_dd_repeated_nodes():
    for c in (-2.0, 0.0, 1.5):
        for k in range(5):
            got = quadrature.exp_divided_difference([c] * (k + 1))
            assert got == pytest.approx(math.exp(c) / math.factorial(k), rel=1e-13)


def test_exp_dd_two_points():
    got = quadrature.exp_divided_difference([0.0, 1.0])
    assert got == pytest.approx(math.e - 1, rel=1e-14)
    got = quadrature.exp_divided_difference([-1.0, 1.0])
    assert got == pytest.approx(math.sinh(1), rel=1e-14)


@pytest.mark.parametrize(
    "nodes",
    [
        (0, 1, 2),
        (Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)),
        (-1, -1, 1, 1),
        (0, Fraction(1, 10), Fraction(2, 10), Fraction(3, 10)),
        (-6, -2, 3, 5),           # wide spread
        (-3, 0, 0, 0, 3),         # mixed multiplicity, moderate spread
        (2, 2, 2, 2, 2, 2),       # pure confluent block
        (Fraction(-5), Fraction(-5), Fraction(4), Fraction(9, 2)),
        (Fraction(-9, 2), 0, Fraction(1, 128), Fraction(1, 128), Fraction(1, 64)),  # cluster in a wide set
    ],
)
def test_exp_dd_matches_rational_series_oracle(nodes):
    got = quadrature.exp_divided_difference([float(x) for x in nodes])
    want = float(dd_exp_series(nodes))
    assert got == pytest.approx(want, rel=5e-13), nodes


def test_exp_dd_permutation_invariant():
    rng = np.random.default_rng(3)
    nodes = [Fraction(x).limit_denominator(100) for x in rng.uniform(-2, 2, 4)]
    base = quadrature.exp_divided_difference([float(x) for x in nodes])
    for perm in ([3, 1, 0, 2], [2, 3, 1, 0]):
        got = quadrature.exp_divided_difference([float(nodes[i]) for i in perm])
        assert got == pytest.approx(base, rel=1e-12)


def test_exp_dd_newton_recursion_across_paths():
    # (dd over tail - dd over head) / (last - first) relates adjacent orders,
    # and the node spreads here exercise both evaluation branches
    for nodes in [(-0.4, 0.1, 0.9, 1.3), (-5.0, -1.0, 2.0, 6.0)]:
        head, tail = nodes[:-1], nodes[1:]
        whole = quadrature.exp_divided_difference(list(nodes))
        lhs = (
            quadrature.exp_divided_difference(list(tail))
            - quadrature.exp_divided_difference(list(head))
        ) / (nodes[-1] - nodes[0])
        assert whole == pytest.approx(lhs, rel=1e-11)


def test_exp_dd_near_coincident_nodes_stable():
    base = quadrature.exp_divided_difference([0.0, 0.0, 1.0])
    got = quadrature.exp_divided_difference([0.0, 1e-9, 1.0])
    assert got == pytest.approx(base, rel=1e-6)


@st.composite
def _series_nodes(draw):
    """1-8 centred nodes within the series spread, with zeros and repeats."""
    edge = quadrature._SERIES_SPREAD
    pool = draw(st.lists(
        st.sampled_from([0.0, edge, -edge]) | st.floats(-edge, edge), min_size=1, max_size=4
    ))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))


def _at_table_steps(test):
    """Examples at each spread k/8 of the term table and one ulp above it,
    where the ceiling lookup moves to the next entry (past the last entry,
    to the formula)."""
    for k in range(int(8 * quadrature._SERIES_SPREAD) + 1):
        for s in (k / 8, math.nextafter(k / 8, math.inf)):
            test = example([-s] * 8)(example([s, -s])(test))
    return test


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_series_nodes())
@example([-3.0] * 8)  # the slowest decay relative to the sum: the cap's worst case
@example([3.0, -3.0])
@example([0.0, 3.0, 3.0, -1.5])
@example([0.0])
@_at_table_steps
def test_capped_exp_series_matches_the_120_term_series(y):
    got = quadrature._exp_dd_series(y, len(y) - 1)
    assert got == exp_dd_series_120(y, len(y) - 1), y


def test_series_terms_do_not_decrease_with_the_spread():
    # the lookup serves every spread up to k/8 with the count for k/8
    spreads = sorted({k / 256 for k in range(4 * 256)} | {math.nextafter(k / 8, 0) for k in range(1, 33)})
    counts = [quadrature._series_terms(s) for s in spreads]
    assert counts == sorted(counts)
    steps = range(int(8 * quadrature._SERIES_SPREAD) + 1)
    assert quadrature._SERIES_TERMS == [quadrature._series_terms(k / 8) for k in steps]


def test_exp_dd_at_spread_three_takes_the_series():
    # nodes 0 and 6 sit exactly 3.0 from their mean
    got = quadrature.exp_divided_difference([0.0, 6.0])
    assert got == math.exp(3.0) * exp_dd_series_120([-3.0, 3.0], 1)


def _shared_spread(c):
    nodes = [0.0, *c]
    m = math.fsum(nodes) / len(nodes)
    return max(abs(x - m) for x in nodes), m


def _kappas(n):
    return [k for d in range(3) for k in quadrature._compositions(d, n)]


_PAST = math.nextafter(quadrature._SERIES_SPREAD, math.inf)
# c for n = 1-3 whose shared spread is exactly the series spread, and one ulp past it
_AT_THE_EDGE = [[6.0], [-6.0], [4.5, 4.5], [4.0, 4.0, 4.0], [0.0, 6.0, 6.0]]
_PAST_THE_EDGE = [
    [math.nextafter(6.0, 7.0)],
    [math.nextafter(4.5, 5.0)] * 2,
    [4.0, 4.0, math.nextafter(math.nextafter(4.0, 5.0), 5.0)],
    [0.0, math.nextafter(6.0, 7.0), math.nextafter(6.0, 7.0)],
]


def test_basis_edge_cases_sit_at_the_series_spread():
    assert {_shared_spread(c)[0] for c in _AT_THE_EDGE} == {quadrature._SERIES_SPREAD}
    assert {_shared_spread(c)[0] for c in _PAST_THE_EDGE} == {_PAST}


@st.composite
def _basis_cases(draw):
    """c for n = 1-3, with zeros, repeats and nodes at the centre, and a
    set of kappas with |kappa| <= 2 in any order."""
    n = draw(st.integers(1, 3))
    edge = 2 * quadrature._SERIES_SPREAD
    pool = draw(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, 2.0]) | st.floats(-edge, edge), min_size=1, max_size=3
    ))
    c = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    kappas = draw(st.permutations(_kappas(n)))
    return c, kappas[: draw(st.integers(1, len(kappas)))]


def _at_the_spread_edge(test):
    for c in _AT_THE_EDGE + _PAST_THE_EDGE:
        test = example((c, _kappas(len(c))))(test)
    return test


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_basis_cases())
@example(([1.0, 2.0], [(2, 0), (1, 1), (0, 2)]))  # c_1 is the centre: no pass for it
@example(([0.0, 0.0, 0.0], _kappas(3)))
@_at_the_spread_edge
def test_exp_basis_is_one_shared_centre_series(case):
    c, kappas = case
    got = quadrature.exp_dd_basis(c, kappas)
    assert list(got) == kappas
    spread, m = _shared_spread(c)
    for kappa in kappas:
        nodes = [0.0] + [ci for ci, k in zip(c, kappa) for _ in range(k + 1)]
        if spread <= quadrature._SERIES_SPREAD:
            # the distinct nodes, then each c_i again kappa_i times, centred at m
            y = [x - m for x in [0.0, *c] + [ci for ci, k in zip(c, kappa) for _ in range(k)]]
            want = math.exp(m) * exp_dd_series_120(y, len(y) - 1)
        else:
            want = quadrature.exp_divided_difference(nodes)
        assert got[kappa] == want, (c, kappa)
        exact = float(dd_exp_series([Fraction(x) for x in nodes]))
        assert got[kappa] == pytest.approx(exact, rel=5e-13), (c, kappa)


# ---------------------------------------------------------------------------
# moment kernel properties
# ---------------------------------------------------------------------------

_lattice_polygons = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=5
).map(lambda extra: t.from_vertices([(-1, -1), (1, -1), (0, 1), *extra]))
_small_rationals = st.fractions(-2, 2, max_denominator=7)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_lattice_polygons, _small_rationals, _small_rationals, _small_rationals)
def test_polygon_moments_are_exact_for_random_lattice_polygons(P, a0, b0, b1):
    one = quadrature.moments(P, t.WeightFunction.constant(1), 2)
    affine = quadrature.moments(P, t.WeightFunction.affine(a0, (b0, b1)), 2)
    assert len(one) == len(affine) == 6
    for (i, j), value in one.items():
        assert isinstance(value, Fraction)
        assert value == polygon_monomial_integral(P.vertices, i, j)
        want = (
            a0 * value
            + b0 * polygon_monomial_integral(P.vertices, i + 1, j)
            + b1 * polygon_monomial_integral(P.vertices, i, j + 1)
        )
        assert affine[(i, j)] == want


_exponents = st.floats(-1.5, 1.5, allow_nan=False)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_lattice_polygons, _exponents, _exponents, _exponents)
def test_exp_moments_match_brute_force_gm(P, a0, b0, b1):
    g = t.WeightFunction.exp_affine(a0, (b0, b1))
    for alpha, value in quadrature.moments(P, g, 2).items():
        powers = np.array(alpha, dtype=float)
        mono = lambda x: g.value(x) * np.prod(x**powers, axis=1)  # noqa: E731
        scale = brute_gm(P, lambda x: np.abs(mono(x)))
        assert abs(value - brute_gm(P, mono)) <= 1e-10 * scale, alpha


def test_exp_moments_with_nearly_coincident_nodes_match_mpmath():
    # exponent nodes 0, 5, 5 + 1e-9: nearly coincident amid a spread > 3,
    # the geometry where a divided-difference table would divide by 1e-9
    S = ((0, 0), (1, 0), (0, 1))
    alphas = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    b = (5.0, 5.0 + 1e-9)
    for a0 in (-6, -15):
        vals = quadrature.simplex_moments(S, t.WeightFunction.exp_affine(a0, b), alphas)
        for (i, j), v in zip(alphas, vals):
            want = float(unit_triangle_exp_moment(a0, b, i, j))
            assert abs(v - want) <= 1e-14 * abs(want), (a0, i, j)


# ---------------------------------------------------------------------------
# what the kernel keeps per polytope and per (polytope, weight)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("first", ["fraction", "float"])
def test_equal_constant_weights_of_different_types_keep_their_types(p1xp1, first):
    weights = {"fraction": t.WeightFunction.constant(Fraction(1)),
               "float": t.WeightFunction.constant(1.0)}
    order = [first] + [k for k in weights if k != first]
    got = {k: quadrature.moments(p1xp1, weights[k], 1) for k in order}
    assert all(type(v) is Fraction for v in got["fraction"].values())
    assert all(type(v) is float for v in got["float"].values())
    assert got["fraction"] == {a: Fraction(v) for a, v in got["float"].items()}


def test_mutating_a_returned_moment_dict_changes_no_later_call(p1xp1):
    g = t.WeightFunction.exp_affine(0.0, (0.25, -0.5))
    first = quadrature.moments(p1xp1, g, 1)
    want = dict(first)
    first[(0, 0)] = -1.0
    first.clear()
    assert quadrature.moments(p1xp1, g, 1) == want


@pytest.mark.parametrize("g", [
    t.WeightFunction.exp_affine(0.1, (0.25, -0.5)),
    t.WeightFunction.polynomial([((2, 0), Fraction(1, 3)), ((0, 0), 1)]),
], ids=["exp", "polynomial"])
def test_lower_degree_from_kept_moments_equals_a_fresh_computation(bl1p2, g):
    quadrature.moments(bl1p2, g, 2)
    served = quadrature.moments(bl1p2, g, 0)
    fresh_g = t.WeightFunction.from_dict(g.to_dict())
    fresh_P = t.from_vertices(bl1p2.vertices)
    fresh = quadrature.moments(fresh_P, fresh_g, 0)
    assert list(served) == list(fresh) == [(0, 0)]
    assert repr(served) == repr(fresh)


def test_kr_line_search_weights_leave_no_kept_results():
    P = t.builtin("p1xp1")
    gc.collect()
    before = set(P._moment_cache.get("weights", {}).keys())
    sol = t.solve_kr_soliton(P)
    gc.collect()
    after = set(P._moment_cache["weights"].keys())
    assert after - before == {sol.weight}


def _simplex_cases(n):
    """n + 1 small rational points spanning R^n; the first is the origin
    (a star simplex) or not (a PL cell simplex)."""
    q = st.fractions(-3, 3, max_denominator=4)
    point = st.tuples(*[q] * n)
    origin = st.just((Fraction(0),) * n)
    return st.tuples(origin | point, st.lists(point, min_size=n, max_size=n)).map(
        lambda c: (c[0], *c[1])
    ).filter(lambda s: _rank(s) == n)


def _rank(simplex):
    return t._exact.rank([[x - y for x, y in zip(p, simplex[0])] for p in simplex[1:]])


def _b_vectors(n):
    floats = st.sampled_from([0.0, -0.0]) | st.floats(-2.5, 2.5)
    fracs = st.just(Fraction(0)) | st.fractions(-2, 2, max_denominator=6)
    return st.tuples(*[floats] * n) | st.tuples(*[fracs] * n) | st.tuples(*[floats | fracs] * n)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    _simplex_cases(n), _b_vectors(n), _b_vectors(n), st.sampled_from([0.0, Fraction(1, 3), -0.75])
)))
def test_exp_simplex_moments_match_the_fraction_dot_kernel(case):
    simplex, b, b2, a0 = case
    n = len(b)
    alphas = [a for d in range(3) for a in quadrature._compositions(d, n)]
    S = quadrature._Simplex(simplex)
    # one _Simplex serves two weights: its kept float data is weight-free
    for bb in (b, b2):
        g = quadrature.WeightFunction("exp_affine", a0=a0, b=bb)
        got = quadrature.simplex_moments(S, g, alphas)
        want = exp_simplex_moments(simplex, a0, bb, alphas, quadrature.exp_dd_basis)
        assert list(map(float.hex, got)) == list(map(float.hex, want)), (simplex, bb)


def _poly_weights(n):
    """Polynomial weights of up to three terms of degree <= 2, with rational,
    float or mixed coefficients."""
    powers = st.tuples(*[st.integers(0, 2)] * n).filter(lambda p: sum(p) <= 2)
    coeff = st.fractions(-3, 3, max_denominator=5) | st.floats(-2.5, 2.5)
    return st.lists(st.tuples(powers, coeff), min_size=1, max_size=3).map(
        quadrature.WeightFunction.polynomial
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    _simplex_cases(n), _poly_weights(n), _poly_weights(n)
)))
def test_poly_simplex_moments_match_the_fraction_reference(case):
    simplex, *weights = case
    n = len(simplex[0])
    alphas = [a for d in range(3) for a in quadrature._compositions(d, n)]
    S = quadrature._Simplex(simplex)
    # one _Simplex serves two weights: its kept integrals are weight-free
    for g in weights:
        got = quadrature.simplex_moments(S, g, alphas)
        want = poly_simplex_moments(simplex, g.as_poly(n), alphas)
        assert [type(x) for x in got] == [type(x) for x in want], (simplex, g)
        assert [x.hex() if isinstance(x, float) else x for x in got] == [
            x.hex() if isinstance(x, float) else x for x in want
        ], (simplex, g)


def test_rational_simplex_is_kept_in_ints_and_volumes_are_exact():
    simplex = ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 3)), (Fraction(-1), Fraction(-1)))
    S = quadrature._Simplex(simplex)
    quadrature.simplex_moments(S, t.WeightFunction.polynomial([((2, 0), 1), ((0, 1), 1)]), [(0, 1)])
    quadrature.simplex_moments(S, t.WeightFunction.exp_affine(0, (0.5, -0.25)), [(1, 1)])
    # edges (-1/2, 1/3) and (-3/2, -1): D = 6, |det E| = |1/2 + 1/2|
    assert S.scale == 6 and S.det == 1
    kept = [x for e in S.edges for x in e]
    kept += [c for line in S.lines for c in line.values()]
    kept += [c for tpoly in S.powers.values() for c in tpoly.values()]
    assert len(S.powers) > 4 and {type(x) for x in kept} == {int}
    # a polytope with rational vertices: labels 2 and 3 scale two of the normals
    P = t.from_facets([(2, 1), (-1, 3), (-1, -2)], [2, 3, 1])
    assert any(x.denominator > 1 for v in P.vertices for x in v)
    assert P.volume == polygon_monomial_integral(P.vertices, 0, 0)


def test_kr_solve_takes_no_fraction_dot(monkeypatch):
    P = t.builtin("bl1p2")
    dots = _count_calls(monkeypatch, t._exact, "dot")
    bases = _count_calls(monkeypatch, quadrature, "exp_dd_basis")
    sol = t.solve_kr_soliton(P)
    assert sol.residual < 1e-9
    assert bases and not dots


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("command", ["check-futaki", "delta"])
def test_each_moment_and_certificate_once_per_run(tmp_path, monkeypatch, command):
    # builtin:p1xp1 is triangulated into 4 simplices, so 4 kernel calls is
    # one pass over them: every moment a run needs comes from that pass
    weight = tmp_path / "g.json"
    weight.write_text(json.dumps({"kind": "polynomial", "coeffs": [
        {"powers": [2, 0], "c": "1/4"}, {"powers": [0, 0], "c": 1}]}))
    kernel = _count_calls(monkeypatch, quadrature, "simplex_moments")
    certificates = _count_calls(monkeypatch, quadrature, "_positivity_samples")
    rc, _, err = run_main([command, "--polytope", "builtin:p1xp1", "--g", f"polynomial:@{weight}"])
    assert rc == 0, err
    assert len(kernel) == 4
    assert len(certificates) == 1
