"""Monge-Ampère solver and Archimedean functional suite."""

import math
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricgs as t
from toricgs import mafunc, quadrature
from toricgs.errors import (
    NewtonDiverged,
    NonConvexInput,
    SchemaViolation,
    ValidationError,
    WindowTooSmall,
)
from toricgs.mafunc import (
    DiscretePotential,
    _brentq,
    _weight_1d,
    ding_ray_diagnostic,
    weight_mass,
)

from conftest import assert_close
from oracles import (
    affine_inverse,
    dense_conjugate,
    half_slope_verdict,
    loop_functionals,
    shoot_reference,
)


# ---------------------------------------------------------------------------
# grid and potential plumbing
# ---------------------------------------------------------------------------


def test_grid_basic():
    grid = t.Grid1D()
    assert grid.R == 12.0 and grid.N == 2001
    assert_close(grid.h, 24.0 / 2000.0, 1e-15, "h")
    assert grid.nodes[0] == -12.0 and grid.nodes[-1] == 12.0
    assert grid.nodes[grid.mid_index] == 0.0
    assert grid.to_dict() == {"R": 12.0, "N": 2001}


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        t.Grid1D(N=5)
    with pytest.raises(ValidationError):
        t.Grid1D(R=-1.0)
    with pytest.raises(ValidationError):
        t.Grid1D(R=0.0)


def test_reference_potential_properties(p1):
    ref = t.reference_potential(p1)
    # u0(x) = log(e^{-x} + e^{x}), so u0(0) = log 2 and u0 is even
    assert_close(float(ref.values[ref.grid.mid_index]), math.log(2.0), 1e-14, "u0(0)")
    assert float(np.max(np.abs(ref.values - ref.values[::-1]))) < 1e-12
    ref.validate()
    s = ref.half_slopes()
    assert s[0] == -1.0 and s[-1] == 1.0
    assert float(np.min(np.diff(s))) >= 0.0  # convex
    # the tail slopes are the floats of the exact endpoints
    Q = t.from_vertices([(Fraction(5, 7),), (Fraction(1, 5),), (Fraction(-1, 3),)])
    assert t.reference_potential(Q).slopes == (float(Fraction(-1, 3)), float(Fraction(5, 7)))


def test_solver_requires_one_dimensional_data(p2, g_one):
    with pytest.raises(ValidationError):
        t.solve_ma(p2, g_one)


def test_random_potential_is_deterministic_and_valid(p1):
    a = t.random_potential(p1, seed=5)
    b = t.random_potential(p1, seed=5)
    c = t.random_potential(p1, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    for u in (a, c):
        u.validate()


def test_validate_rejects_concave_and_out_of_range(p1):
    grid = t.Grid1D()
    ref = t.reference_potential(p1, grid)
    bumped = ref.values.copy()
    bumped[grid.mid_index] += 0.5  # concave kink at the center
    with pytest.raises(NonConvexInput):
        DiscretePotential(
            grid=grid, P=p1, values=bumped, ref_values=ref.values
        ).validate()
    # convex inside, but its first slope -1.5 falls below the ghost slope
    # p_min = -1: the ghost difference -1.5 - (-1) < 0 is a concave kink
    steep = 1.5 * np.abs(grid.nodes)
    with pytest.raises(NonConvexInput, match="second differences"):
        DiscretePotential(
            grid=grid, P=p1, values=steep, ref_values=ref.values
        ).validate()


def test_potential_serialization_round_trip(ma_solution_p1, p1):
    d = ma_solution_p1.to_dict()
    assert set(d) == {"grid", "values", "c"}
    back = DiscretePotential.from_dict(d, p1)
    assert np.array_equal(back.values, ma_solution_p1.values)
    assert back.c == ma_solution_p1.c
    assert np.array_equal(back.ref_values, ma_solution_p1.ref_values)


def test_potential_from_dict_rejects_bad_payloads(p1):
    with pytest.raises(SchemaViolation):
        DiscretePotential.from_dict({"values": [0.0]}, p1)
    with pytest.raises(SchemaViolation):
        DiscretePotential.from_dict({"grid": {"R": 12.0}, "values": [0.0]}, p1)
    with pytest.raises(SchemaViolation):
        DiscretePotential.from_dict(
            {"grid": {"R": 12.0, "N": 2001}, "values": [0.0, 1.0]}, p1
        )


def test_weight_mass_matches_weighted_volume(p1, g_one, g_exp_x):
    assert weight_mass(p1, g_one) == 2.0
    assert_close(weight_mass(p1, g_exp_x), math.e - 1.0 / math.e, 1e-14, "mass e^x")
    assert_close(
        weight_mass(p1, g_exp_x), t.weighted_volume(p1, g_exp_x), 1e-12, "vs volume"
    )


# ---------------------------------------------------------------------------
# solver correctness
# ---------------------------------------------------------------------------


def test_solver_matches_exact_solution(ma_solution_p1):
    # g = 1 on [-1, 1]: u'' = c e^{-u} is solved by u(x) = 2 log cosh(x/2) + log 2
    # with c = 1 (then e^{-u} = sech^2(x/2)/2 and u'' matches exactly).
    out = ma_solution_p1
    x = out.grid.nodes
    exact = 2.0 * np.log(np.cosh(x / 2.0)) + math.log(2.0)
    assert float(np.max(np.abs(out.values - exact))) < 5e-4  # O(h^2) at N=2001
    assert abs(out.c - 1.0) < 1e-4
    assert out.residual < 1e-8
    assert out.tail_gap < 1e-4


def test_solver_solution_is_even_for_symmetric_data(ma_solution_p1):
    vals = ma_solution_p1.values
    assert float(np.max(np.abs(vals - vals[::-1]))) < 1e-8


def test_solver_zero_twist_weight_equals_constant_weight(p1, ma_solution_p1):
    out = t.solve_ma(p1, t.WeightFunction.exp_affine(0, (0.0,)))
    assert float(np.max(np.abs(out.values - ma_solution_p1.values))) < 1e-9


_SMALL_SLOPE_WEIGHTS = {
    "exp_affine": lambda beta: t.WeightFunction.exp_affine(0, (beta,)),
    "affine": lambda beta: t.WeightFunction.affine(1, (beta,)),
}


@pytest.mark.parametrize("kind", sorted(_SMALL_SLOPE_WEIGHTS))
@pytest.mark.parametrize("beta", [1e-10, -1e-10, 1e-8])
def test_small_slope_functionals_approach_the_constant_weight(p1, g_one, kind, beta):
    # e^{beta p} and 1 + beta p are 1 + O(beta) on p1, and so is every
    # functional; an offset 1/beta in G made E_g and H_g drift far past that
    u = t.random_potential(p1, seed=3)
    want = t.functionals(u, g_one).to_dict()
    got = t.functionals(u, _SMALL_SLOPE_WEIGHTS[kind](beta)).to_dict()
    for name, value in got.items():
        assert abs(value - want[name]) <= 10 * abs(beta), (name, value, want[name])


@pytest.mark.parametrize("kind", sorted(_SMALL_SLOPE_WEIGHTS))
def test_small_slope_weights_solve_at_the_default_tol(p1, ma_solution_p1, kind):
    make = _SMALL_SLOPE_WEIGHTS[kind]
    for beta in (1e-4, 1e-6, -1e-6):
        assert t.solve_ma(p1, make(beta)).residual <= 1e-10
    # against g = 1, c moves by O(beta^2) and u by O(beta), odd in beta: the
    # skew mass B = 2 beta / 3 sits where e^{-u} ~ e^{-R}, which puts
    # 2.7e-6 into u at beta = 1e-10; the part of u even in beta is O(beta^2)
    plus, minus = t.solve_ma(p1, make(1e-10)), t.solve_ma(p1, make(-1e-10))
    for out in (plus, minus):
        assert out.residual <= 1e-10
        assert abs(out.c - ma_solution_p1.c) <= 1e-9
    even = 0.5 * (plus.values + minus.values) - ma_solution_p1.values
    assert float(np.max(np.abs(even))) <= 1e-9


def test_solver_mass_normalization_is_exact(p1, ma_solution_p1, g_one):
    # summing the flux equations telescopes: c * h * sum e^{-u_k} = integral g
    out = ma_solution_p1
    mass = out.c * out.grid.h * float(np.sum(np.exp(-out.values)))
    assert abs(mass - weight_mass(p1, g_one)) < 1e-10


def test_solver_exponential_weight(p1):
    g = t.WeightFunction.exp_affine(0, (0.3,))
    out = t.solve_ma(p1, g)
    assert out.residual < 1e-8
    assert out.tail_gap < 1e-4
    mass = out.c * out.grid.h * float(np.sum(np.exp(-out.values)))
    assert abs(mass - weight_mass(p1, g)) < 1e-10


@pytest.mark.parametrize("g", [
    t.WeightFunction.constant(1),
    t.WeightFunction.polynomial([((0,), 1), ((2,), Fraction(1, 2))]),
], ids=["constant", "polynomial"])
def test_solver_shoots_no_base_value_twice(p1, g, monkeypatch):
    # every shot runs through the shot loop of _weight_1d, so counting its
    # calls counts the shots
    shots = []  # the base value of each shot
    real_weight_1d, real_brentq = mafunc._weight_1d, mafunc._brentq

    def weight_1d(*args):
        G, mean, Ginv, shoot = real_weight_1d(*args)

        def counted(w0, *rest):
            shots.append(w0)
            return shoot(w0, *rest)

        return G, mean, Ginv, counted

    evaluated = []  # the base values Brent asks for

    def brentq(f, *args):
        return real_brentq(lambda x: evaluated.append(x) or f(x), *args)

    monkeypatch.setattr(mafunc, "_weight_1d", weight_1d)
    monkeypatch.setattr(mafunc, "_brentq", brentq)
    assert t.solve_ma(p1, g).residual < 1e-8
    # p1 brackets the root at the first span: two shots, then one per
    # Brent iterate, none repeated and none for the root's profile
    assert len(set(evaluated)) == len(evaluated) > 2
    assert len(set(shots)) == len(shots) == 2 + len(evaluated)


def test_boundary_layer_is_intrinsic_for_skew_weight(p1):
    # with B = int p g dp > 0 the first interior half-slope sits on the
    # predicted O(h) layer G^{-1}(G(p_min) + h B), not at p_min itself
    g = t.WeightFunction.exp_affine(0, (0.3,))
    out = t.solve_ma(p1, g)
    h = out.grid.h
    s = out.half_slopes()
    B = t.moments(p1, g, 1)[(1,)]
    G = lambda p: math.exp(0.3 * p) / 0.3
    Ginv = lambda y: math.log(0.3 * y) / 0.3
    layer_lo = Ginv(G(-1.0) + h * B)
    assert layer_lo > -1.0 + 1e-3  # the layer is genuinely away from the endpoint
    assert abs(float(s[1]) - layer_lo) < 1e-4
    # the downstream side carries no layer: the last half-slope hits p_max
    assert abs(float(s[-2]) - 1.0) < 1e-6


def test_window_too_small_and_refinement_remedy(p1):
    g = t.WeightFunction.exp_affine(0, (1.0,))
    with pytest.raises(WindowTooSmall):
        t.solve_ma(p1, g)  # default grid cannot resolve the layer excess
    out = t.solve_ma(p1, g, grid=t.Grid1D(R=12.0, N=4001), tol=1e-9)
    assert out.residual < 1e-8
    assert out.tail_gap < 1e-4


def test_window_gap_is_an_o_h_layer_so_a_wider_window_needs_more_nodes(p1):
    # R 12 -> 20 at N = 2001 widens h and the gap (1.4e-4 -> 3.9e-4);
    # raising N with R shrinks h and passes
    g = t.WeightFunction.exp_affine(0, (1,))
    with pytest.raises(WindowTooSmall, match=r"h = 2R/\(N - 1\) must shrink: raise N"):
        t.solve_ma(p1, g, grid=t.Grid1D(R=20.0, N=2001))
    out = t.solve_ma(p1, g, grid=t.Grid1D(R=20.0, N=4001))
    assert out.tail_gap < 1e-4


def test_residual_above_tol_is_one_shooting_residual(p1):
    # for e^{x/2} at N = 4001 the residual is the rounding of G(G^{-1}(y)),
    # about 3e-13; below that tol the solver reports that one residual
    # instead of iterating on it
    g = t.WeightFunction.exp_affine(0, (Fraction(1, 2),))
    with pytest.raises(NewtonDiverged, match="shooting residual") as info:
        t.solve_ma(p1, g, grid=t.Grid1D(N=4001), tol=1e-14)
    assert len(info.value.history) == 1
    assert info.value.history[0] > 1e-14


@pytest.mark.parametrize(
    "g, N",
    [
        (t.WeightFunction.exp_affine(0, (1.5,)), 2001),
        (t.WeightFunction.exp_affine(0, (3,)), 2001),
        (t.WeightFunction.exp_affine(0, (0.3,)), 4001),
        (t.WeightFunction.constant(1), 8001),
    ],
)
def test_residual_has_no_slope_rounding_floor(p1, g, N):
    # slopes rebuilt as diff(u)/h would put these residuals at 1.1e-10 to 4.9e-10,
    # a floor growing like N^2; the shot's own slopes leave about 1e-12.  The
    # two steep weights still miss the tail gap at N = 2001 (WindowTooSmall,
    # an O(h) boundary layer checked after the residual), so that check is
    # lifted here
    with mock.patch.object(mafunc, "_TAIL_TOL", math.inf):
        out = t.solve_ma(p1, g, grid=t.Grid1D(N=N))
    assert out.residual <= 1e-10


def test_solver_converges_to_the_closed_form_at_second_order(p1, g_one):
    # for g = 1 on p1, u'' = c e^{-u} is solved by u = log 2c + 2 log cosh(x/2)
    # for every c; on the window R = 20 the truncation (about e^{-R}) stays
    # below the O(h^2) error up to N = 8001
    errs = []
    for N in (1001, 2001, 4001, 8001):
        u = t.solve_ma(p1, g_one, grid=t.Grid1D(R=20.0, N=N))
        exact = math.log(2.0 * u.c) + 2.0 * np.log(np.cosh(u.grid.nodes / 2.0))
        errs.append(float(np.max(np.abs(u.values - exact))))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(1.8 <= q <= 2.2 for q in orders), (errs, orders)


def test_polynomial_path_matches_closed_form_affine_inverse():
    # an affine weight written as a polynomial goes through the Newton
    # inverse of G; the affine kind inverts G in closed form
    for verts, b in (([(-1,), (1,)], Fraction(2, 5)), ([(Fraction(-3, 4),), (Fraction(5, 4),)], Fraction(-8, 25))):
        P = t.from_vertices(verts)
        affine = t.solve_ma(P, t.WeightFunction.affine(1, (b,)))
        poly = t.solve_ma(P, t.WeightFunction.polynomial([((0,), 1), ((1,), b)]))
        assert float(np.max(np.abs(poly.values - affine.values))) < 1e-12
        assert abs(poly.c - affine.c) < 1e-12


# ---------------------------------------------------------------------------
# private numerical routines of the solver, against in-repo oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "f, lo, hi, root",
    [
        (lambda x: x**3 - 2, 0.0, 3.0, 2.0 ** (1.0 / 3.0)),
        (lambda x: math.cos(x) - x, 0.0, 2.0, 0.7390851332151607),
        (lambda x: math.exp(x) - 5, -1.0, 4.0, math.log(5.0)),
    ],
)
@pytest.mark.parametrize("xtol", [1e-13, 1e-8])
def test_brentq_finds_roots_within_its_tolerance(f, lo, hi, root, xtol):
    x = _brentq(f, lo, f(lo), hi, f(hi), xtol)
    assert abs(x - root) <= xtol + 4 * sys.float_info.epsilon * abs(x)


def test_brentq_raises_newton_diverged_without_a_root():
    for f, match in [
        (lambda x: x * x + 1, "sign change"),
        (lambda x: math.nan if x > 0.5 else x - 1.0, "NaN"),
    ]:
        with pytest.raises(NewtonDiverged, match=match):
            _brentq(f, -1.0, f(-1.0), 2.0, f(2.0), 1e-13)


_coeff = st.fractions(-2, 2, max_denominator=6)
_end = st.fractions(Fraction(1, 4), 3, max_denominator=8)


@st.composite
def _positive_poly(draw):
    """Terms of q(x)^2 + r with q of degree <= 2 and r > 0."""
    q = [draw(_coeff) for _ in range(3)]
    c = [Fraction(0)] * 5
    for i, qi in enumerate(q):
        for j, qj in enumerate(q):
            c[i + j] += qi * qj
    c[0] += draw(st.fractions(Fraction(1, 8), 2, max_denominator=8))
    return [((k,), ck) for k, ck in enumerate(c) if ck]


_tiny_or_moderate = st.one_of(st.floats(1e-300, 1e-6), st.floats(1e-6, 1.0))


@st.composite
def _weight_on_interval(draw):
    """(g, pmin, pmax): a positive polynomial, an affine 1 + beta p positive
    on the interval, or an exp weight with |beta| (pmax - pmin) < log 2, so
    that the extrapolated targets below stay inside the range of G."""
    pmin, pmax = float(-draw(_end)), float(draw(_end))
    kind = draw(st.sampled_from(["polynomial", "affine", "exp_affine"]))
    if kind == "polynomial":
        return t.WeightFunction.polynomial(draw(_positive_poly())), pmin, pmax
    sign = draw(st.sampled_from([-1.0, 1.0]))
    size = draw(_tiny_or_moderate)
    if kind == "affine":
        return t.WeightFunction.affine(1, (0.9 * sign * size / max(-pmin, pmax),)), pmin, pmax
    a0 = draw(st.floats(-2.0, 2.0))
    return t.WeightFunction.exp_affine(a0, (0.69 * sign * size / (pmax - pmin),)), pmin, pmax


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_weight_on_interval(), st.randoms(use_true_random=False))
def test_polynomial_antiderivative_inverse_round_trips_and_is_monotone(weight, rnd):
    # the polynomial Newton inverse stays inside its bracket exactly; the
    # closed-form affine and exp inverses may round a few ulps past an end
    g, pmin, pmax = weight
    slack = 0.0 if g.kind == "polynomial" else 4 * sys.float_info.epsilon * max(-pmin, pmax)
    G, _, Ginv, _ = _weight_1d(g, pmin, pmax)
    ylo, yhi = float(G(pmin)), float(G(pmax))
    scale = max(abs(ylo), abs(yhi))
    inside = list(np.linspace(ylo, yhi, 41))
    ys = list(np.linspace(2 * ylo - yhi, ylo, 6))[:-1] + inside + list(np.linspace(yhi, 2 * yhi - ylo, 6))[1:]
    order = list(range(len(ys)))
    rnd.shuffle(order)  # any warm start
    ps = [0.0] * len(ys)
    for i in order:
        ps[i] = Ginv(ys[i])
    for y, p in zip(inside, ps[5:-5]):
        assert pmin - slack <= p <= pmax + slack
        assert abs(float(G(p)) - y) <= 1e-13 * scale, (y, p)
    assert all(p < q for p, q in zip(ps, ps[1:]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_positive_poly(), st.integers(0, 2**32 - 1))
def test_polynomial_antiderivative_matches_the_exact_antiderivative(coeffs, seed):
    # Horner's rule against the exact rational antiderivative, within the
    # rounding bound 2 (d + 2) eps sum_k |c_k| |p|^(k+1) / (k+1)
    g = t.WeightFunction.polynomial(coeffs)
    G = _weight_1d(g, -3.0, 3.0)[0]
    deg = max(k for (k,), _ in coeffs)
    ps = np.random.default_rng(seed).uniform(-3.0, 3.0, size=12)
    for p, got in zip(ps, G(ps)):
        q = Fraction(float(p))
        exact = sum(Fraction(c) * q ** (k + 1) / (k + 1) for (k,), c in coeffs)
        bound = sum(abs(Fraction(c)) * abs(q) ** (k + 1) / (k + 1) for (k,), c in coeffs)
        assert abs(Fraction(float(got)) - exact) <= 2 * (deg + 2) * sys.float_info.epsilon * bound
        assert float(G(float(p))) == got  # scalar and array inputs agree


# weights past e^500 balance their mass only below w = -500
_decades = st.one_of(st.floats(-300.0, 300.0), st.floats(220.0, 300.0))


@st.composite
def _weight_at_any_scale(draw):
    """(g, pmin, pmax): every weight kind, exp_affine at beta = 0 included,
    on a random rational interval, from tiny to huge scales, so that shots
    near the balancing base value may fall below w = -500."""
    pmin, pmax = float(-draw(_end)), float(draw(_end))
    kind = draw(st.sampled_from(["constant", "affine", "exp_affine", "exp_flat", "polynomial"]))
    if kind == "polynomial":
        return t.WeightFunction.polynomial(draw(_positive_poly())), pmin, pmax
    if kind == "constant":
        return t.WeightFunction.constant(10.0 ** draw(_decades)), pmin, pmax
    if kind == "affine":
        a0 = 10.0 ** draw(st.floats(-150, 150))
        beta = draw(st.sampled_from([-0.9, 0.9])) * draw(_tiny_or_moderate) * a0 / max(-pmin, pmax)
        return t.WeightFunction.affine(a0, (beta,)), pmin, pmax
    a0 = draw(st.one_of(st.floats(-600.0, 600.0), st.floats(500.0, 600.0)))
    beta = 0.0 if kind == "exp_flat" else draw(st.sampled_from([-1.0, 1.0])) * draw(
        st.one_of(_tiny_or_moderate, st.floats(1.0, 30.0))
    )
    return t.WeightFunction.exp_affine(a0, (beta,)), pmin, pmax


def _bits(slopes, defect):
    return [float(x).hex() for x in slopes], float(defect).hex()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    _weight_at_any_scale(),
    st.integers(8, 300),
    st.floats(1.0, 20.0),
    st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=3),
    st.floats(-505.0, -480.0),
    st.floats(-700.0, 700.0),
)
def test_shot_loops_match_the_generic_loop_bit_for_bit(weight, n, R, offsets, low, anywhere):
    # the per-kind loops of _weight_1d against one generic loop over G^{-1};
    # base values near the balance of mass, in the band where shots of large
    # weights stop below w = -500, and anywhere
    g, pmin, pmax = weight
    G = _weight_1d(g, pmin, pmax)[0]
    y_lo, y_hi = float(G(pmin)), float(G(pmax))
    h = 2.0 * R / n
    mass = y_hi - y_lo
    balance = -math.log(mass / (2.0 * R)) if 0.0 < mass < math.inf else 0.0
    a0 = float(g.a0) if g.kind != "exp_affine" else math.exp(float(g.a0))
    for w0 in [balance + d for d in offsets] + [low, anywhere]:
        # fresh kernels for both sides: the polynomial Newton inverse keeps
        # its last root as the next warm start
        shoot = _weight_1d(g, pmin, pmax)[3]
        want = shoot_reference(_weight_1d(g, pmin, pmax)[2], w0, h, n, y_lo, y_hi)
        got = shoot(w0, h, n, y_lo, y_hi)
        assert _bits(*got) == _bits(*want), (g, w0)
        flat = g.kind == "constant" or (g.kind == "exp_affine" and float(g.b[0]) == 0.0)
        if flat and sys.float_info.min <= a0 * a0 < math.inf:
            # y / a0 is the closed-form affine inverse at beta = 0
            old = shoot_reference(affine_inverse(a0, 0.0), w0, h, n, y_lo, y_hi)
            assert _bits(*got) == _bits(*old), (g, w0)


@pytest.mark.parametrize("g", [
    t.WeightFunction.constant(1e250),
    t.WeightFunction.exp_affine(600, (0.5,)),
    t.WeightFunction.exp_affine(600, (0,)),
], ids=["constant", "exp_affine", "exp_flat"])
def test_shots_that_stop_below_w_minus_500_match_the_generic_loop(g):
    # masses near e^500 balance only below w = -500: the affine kind cannot
    # get there, since a0^2 overflows first
    G, _, Ginv, shoot = _weight_1d(g, -1.0, 1.0)
    y_lo, y_hi = float(G(-1.0)), float(G(1.0))
    h, n = 0.012, 2000
    stopped = 0
    for w0 in (-560.0, -520.0, -501.0, -499.0, -480.0, -450.0):
        got = shoot(w0, h, n, y_lo, y_hi)
        assert _bits(*got) == _bits(*shoot_reference(Ginv, w0, h, n, y_lo, y_hi))
        stopped += 0 < len(got[0]) < n
    assert stopped  # at least one shot stops part-way


def _nudged(x: float, ulps: int) -> float:
    """x moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


def _slopes_near_a_threshold(pmin, pmax, case, ulps, m):
    """Edge slopes that pass or fail one check of ``validate`` by an ulp or two.

    "interior": a dip of _CONVEX_TOL between two zero slopes; "ghost": a
    first slope _CONVEX_TOL below p_min; "range": a ramp from p_min down to
    _SLOPE_TOL below it in steps under _CONVEX_TOL, which only the gradient
    check can reject.  The right-hand cases are mirror images.
    """
    rise = list(np.linspace(pmin / 2, pmax / 2, m))
    if case == "interior":
        return list(np.linspace(pmin / 2, 0.0, m)) + [_nudged(-mafunc._CONVEX_TOL, ulps)] + list(
            np.linspace(0.0, pmax / 2, m)
        )
    if case == "ghost":
        return [_nudged(pmin - mafunc._CONVEX_TOL, ulps)] + rise
    steps = 1100  # each under _CONVEX_TOL
    ramp = [pmin - mafunc._SLOPE_TOL * k / steps for k in range(steps)]
    return ramp + [_nudged(pmin - mafunc._SLOPE_TOL, ulps)] + rise


def _with_edge_slopes(P, e):
    N = len(e) + 1
    return DiscretePotential(
        grid=t.Grid1D(R=4.0, N=N), P=P, values=np.zeros(N), ref_values=np.zeros(N),
        edge_slopes=e, ref_slopes=e,
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    _end,
    _end,
    st.sampled_from(["interior", "ghost", "range"]),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(8, 16),
)
def test_validate_matches_the_half_slope_checks(lo, hi, case, mirror, ulps, m):
    # accept/reject and the message agree with the checks on the full row of
    # half-slopes, within a few ulps of _CONVEX_TOL and of _SLOPE_TOL
    P = t.from_vertices([(-lo,), (hi,)])
    pmin, pmax = mafunc._endpoint_slopes(P)
    if mirror:
        e = -np.array(_slopes_near_a_threshold(-pmax, -pmin, case, ulps, m)[::-1])
    else:
        e = np.array(_slopes_near_a_threshold(pmin, pmax, case, ulps, m))
    u = _with_edge_slopes(P, e)
    want = half_slope_verdict(u, mafunc._CONVEX_TOL, mafunc._SLOPE_TOL)
    try:
        u.validate()
        got = None
    except NonConvexInput as exc:
        got = str(exc)
    assert got == want


def test_validate_threshold_cases_reach_both_verdicts():
    # the cases of the property above do straddle each threshold
    P = t.builtin("p1")
    for case in ("interior", "ghost", "range"):
        verdicts = set()
        for ulps in (-3, 3):
            e = np.array(_slopes_near_a_threshold(-1.0, 1.0, case, ulps, 8))
            u = _with_edge_slopes(P, e)
            verdicts.add(half_slope_verdict(u, mafunc._CONVEX_TOL, mafunc._SLOPE_TOL))
        assert None in verdicts and len(verdicts) == 2, (case, verdicts)
    assert "gradient leaves the closure of the polytope" in verdicts


def test_pushforward_moments_match_weight_moments(p1, ma_solution_p1):
    g3 = t.WeightFunction.exp_affine(0, (0.3,))
    for g, out in ((t.WeightFunction.constant(1), ma_solution_p1), (g3, t.solve_ma(p1, g3))):
        report = t.pushforward_moments(out, g)
        moments = t.moments(p1, g, 2)
        assert set(report) == {0, 1, 2}
        for j in (0, 1, 2):
            entry = report[j]
            assert set(entry) == {"discrete", "continuous", "abs_diff"}
            assert entry["abs_diff"] < 1e-5
            assert_close(
                entry["continuous"], moments[(j,)], 1e-12, f"moment {j}"
            )


def test_solver_polynomial_weight_pushforward_matches_exact_moments(p1):
    g = t.WeightFunction.polynomial(
        [((0,), 1), ((1,), Fraction(1, 4)), ((2,), Fraction(1, 8))]
    )
    u = t.solve_ma(p1, g, grid=t.Grid1D(N=1001))
    assert u.residual < 1e-10
    exact = quadrature.moments(p1, g, 2)
    for j, entry in t.pushforward_moments(u, g).items():
        assert_close(entry["discrete"], exact[(j,)], 1e-5, f"moment {j}")


def test_pushforward_requires_solver_output(p1):
    u = t.random_potential(p1, seed=0)
    with pytest.raises(ValidationError):
        t.pushforward_moments(u, t.WeightFunction.constant(1))


# ---------------------------------------------------------------------------
# functional suite
# ---------------------------------------------------------------------------


def test_functionals_identity_case(p1, g_one, g_exp_x):
    u0 = t.reference_potential(p1)
    for g in (g_one, g_exp_x):
        F = t.functionals(u0, g)
        for name in ("E_g", "Lambda_g", "I_g", "J_g", "L", "D"):
            assert abs(getattr(F, name)) < 1e-14, name
        assert F.underflow_count == 0
        assert F.M >= F.D - 1e-12  # Jensen holds at the base point too


def test_functionals_constant_shift(p1, g_one, g_exp_x):
    u0 = t.reference_potential(p1)
    for g in (g_one, g_exp_x):
        for kappa in (1.0, -1.0, 5.0, -5.0):
            F = t.functionals(u0.shifted(kappa), g)
            assert_close(F.E_g, kappa, 1e-12, "E shift")
            assert_close(F.Lambda_g, kappa, 1e-12, "Lambda shift")
            assert abs(F.I_g) < 1e-12
            assert abs(F.J_g) < 1e-12
            assert abs(F.D) < 1e-10  # D(u0 + kappa) = D(u0) = 0


def test_d_translation_invariance_on_random_potentials(p1, g_one, g_exp_x):
    u = t.random_potential(p1, seed=17)
    for g in (g_one, g_exp_x):
        D0 = t.functionals(u, g).D
        for kappa in (1.0, -1.0, 5.0, -5.0):
            assert abs(t.functionals(u.shifted(kappa), g).D - D0) < 1e-10


def test_energy_cocycle_identity(p1, g_one, g_exp_x):
    u1 = t.random_potential(p1, seed=11)
    u2 = t.random_potential(p1, seed=22)
    for g in (g_one, g_exp_x):
        E01 = t.functionals(u1, g).E_g
        E02 = t.functionals(u2, g).E_g
        E12 = t.functionals(u2, g, u0_values=u1.values).E_g
        assert abs((E02 - E01) - E12) < 1e-8


def test_energy_concavity_along_affine_paths(p1, g_one, g_exp_x):
    u = t.random_potential(p1, seed=3)
    ts = [0.2 * k for k in range(6)]
    for g in (g_one, g_exp_x):
        E = [t.functionals(u.along(s), g).E_g for s in ts]
        quotients = [(E[i + 1] - E[i]) / 0.2 for i in range(5)]
        for a, b in zip(quotients, quotients[1:]):
            assert b <= a + 1e-10


def test_mabuchi_dominates_ding_on_random_potentials(p1, g_one, g_exp_x):
    for g in (g_one, g_exp_x):
        for i in range(20):
            u = t.random_potential(p1, seed=[7, i])
            F = t.functionals(u, g)
            assert F.M >= F.D - 1e-12, (g.kind, i)


def test_jensen_equality_at_solved_soliton(p1, ma_solution_p1):
    F = t.functionals(ma_solution_p1, t.WeightFunction.constant(1))
    assert abs(F.M - F.D) < 1e-6
    g3 = t.WeightFunction.exp_affine(0, (0.3,))
    F3 = t.functionals(t.solve_ma(p1, g3), g3)
    assert abs(F3.M - F3.D) < 1e-6


def test_ding_minimality_under_perturbations(p1, ma_solution_p1, g_one):
    # blend toward 50 random convex potentials: u + eps (v - u) stays convex
    # with gradient inside P, and D may only go up from the minimizer
    us = ma_solution_p1
    D_star = t.functionals(us, g_one).D
    eps = 0.05
    for i in range(50):
        v = t.random_potential(p1, us.grid, seed=[100, i])
        blended = DiscretePotential(
            grid=us.grid,
            P=p1,
            values=us.values + eps * (v.values - us.values),
            ref_values=us.ref_values,
        )
        assert t.functionals(blended, g_one).D >= D_star - 1e-12, i


_WEIGHTS_1D = [
    t.WeightFunction.constant(1),
    t.WeightFunction.affine(1, (Fraction(1, 4),)),
    t.WeightFunction.exp_affine(0, (0.5,)),
    t.WeightFunction.polynomial([((0,), 1), ((1,), Fraction(1, 4)), ((2,), Fraction(1, 8))]),
]


@pytest.mark.parametrize("g", _WEIGHTS_1D, ids=lambda g: g.kind)
@pytest.mark.parametrize("verts", [[(-1,), (1,)], [(Fraction(-3, 4),), (Fraction(5, 4),)]])
def test_functionals_match_the_per_node_loop(g, verts):
    # one batched flux evaluation against one evaluation per quadrature node;
    # E_g, Lambda_g, I_g and J_g are means of phi = u - u0, so their rounding
    # is relative to max |phi| even where the value itself cancels to ~0
    P = t.from_vertices(verts)
    for i in range(12):
        u = t.random_potential(P, seed=[31, i])
        base = None if i % 4 else t.random_potential(P, seed=[32, i]).values
        phi = float(np.max(np.abs(u.values - (u.ref_values if base is None else base))))
        got = t.functionals(u, g, u0_values=base).to_dict()
        for name, want in loop_functionals(u, g, u0_values=base).items():
            assert abs(got[name] - want) <= 1e-13 * max(abs(want), phi), (name, got[name], want)


def _exact_energy(P, gc, values, base, h):
    """E_g of ``values`` over ``base`` by sympy: the path integral of
    <phi, MA(base + r phi)> / Vg over r in [0, 1], symbolic in r, for the
    weight sum gc[k] p^k with rational gc."""
    import sympy

    r = sympy.Symbol("r")

    def G(p):
        return sum(c * p ** (k + 1) / (k + 1) for k, c in enumerate(gc))

    pmin, pmax = (sympy.Rational(v) for v in P.interval())
    phi = [v - b for v, b in zip(values, base)]
    path = [b + r * f for b, f in zip(base, phi)]
    s = [pmin] + [(q - p) / h for p, q in zip(path, path[1:])] + [pmax]
    form = sum(f * (G(s[k + 1]) - G(s[k])) for k, f in enumerate(phi))
    return sympy.integrate(sympy.expand(form), (r, 0, 1)) / (G(pmax) - G(pmin))


_RATIONAL_WEIGHTS = {
    "constant": (t.WeightFunction.constant(Fraction(3, 2)), [Fraction(3, 2)]),
    "affine": (t.WeightFunction.affine(1, (Fraction(1, 4),)), [1, Fraction(1, 4)]),
    "polynomial": (
        t.WeightFunction.polynomial(
            [((0,), 2), ((1,), Fraction(1, 3)), ((2,), Fraction(-1, 5)), ((3,), Fraction(1, 7))]
        ),
        [2, Fraction(1, 3), Fraction(-1, 5), Fraction(1, 7)],
    ),
}


@pytest.mark.parametrize("kind", sorted(_RATIONAL_WEIGHTS))
@pytest.mark.parametrize("verts", [[(-1,), (1,)], [(Fraction(-3, 4),), (Fraction(5, 4),)]])
def test_energy_matches_the_exact_path_integral(kind, verts):
    # dyadic node values on h = 1/2: the float slopes are exact, so only the
    # closed form itself rounds
    import sympy

    g, gc = _RATIONAL_WEIGHTS[kind]
    gc = [sympy.Rational(c) for c in gc]
    P = t.from_vertices(verts)
    grid = t.Grid1D(R=2.0, N=9)
    half = sympy.Rational(1, 2)

    def from_slopes(v0, slopes):
        out = [sympy.Rational(v0)]
        for s in slopes:
            out.append(out[-1] + half * sympy.Rational(s))
        return out

    values = from_slopes("3/8", ["-3/4", "-5/8", "-1/2", "-1/4", "0", "1/8", "1/2", "3/4"])
    base = from_slopes("-1/4", ["-1/2", "-1/2", "-3/8", "-1/8", "1/4", "1/4", "5/8", "1"])
    u = DiscretePotential(
        grid=grid,
        P=P,
        values=np.array([float(v) for v in values]),
        ref_values=np.array([float(v) for v in base]),
    )
    want = float(_exact_energy(P, gc, values, base, half))
    assert abs(t.functionals(u, g).E_g - want) <= 1e-14 * max(1.0, abs(want)), want


def _mp_mean_of_exp_antiderivative(a0, beta, a, b):
    """int_0^1 G(b + r (a - b)) dr for G = e^{a0} expm1(beta p) / beta, G(0) = 0,
    by mpmath quadrature at 40 digits."""
    with mpmath.workdps(40):
        a0, beta, a, b = (mpmath.mpf(v) for v in (a0, beta, a, b))
        return mpmath.quad(
            lambda r: mpmath.exp(a0) * mpmath.expm1(beta * (b + r * (a - b))) / beta, [0, 1]
        )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.floats(-2.0, 2.0),
    st.one_of(st.floats(1e-300, 1e-12), st.floats(1e-12, 50.0)),
    st.sampled_from([-1.0, 1.0]),
    st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    st.one_of(st.just(0.0), st.floats(1e-300, 1e-12), st.floats(1e-12, 50.0)),
    st.sampled_from([-1.0, 1.0]),
)
def test_exp_edge_mean_matches_mpmath(a0, beta, beta_sign, b, z, z_sign):
    # |beta| from 1e-300 to 50 and z = beta (a - b) from 0 through 1e-300 up
    # to 50, with |a - b| <= 1e6 so that the mean stays in float range; the
    # exponent reaches about 150, whose rounding alone moves the mean by
    # 150 eps ~ 3.3e-14
    z = min(z, 1e6 * beta)
    beta *= beta_sign
    a = b + z_sign * z / beta
    g = t.WeightFunction.exp_affine(a0, (beta,))
    G, mean, _, _ = _weight_1d(g, -1.0, 1.0)
    A, B = np.array([a]), np.array([b])
    got = float(mean(A, B, G(A), G(B))[0])
    want = _mp_mean_of_exp_antiderivative(a0, beta, a, b)
    assert abs(got - want) <= 1e-13 * abs(want), (a, b, got, want)


def test_inequality_suite_validates_every_segment_potential(p1, g_exp_x):
    # per sample: random_potential, functionals for g and for g = 1, then
    # one validate for each of the ten segment potentials u_t
    calls = []
    real = DiscretePotential.validate

    def counting(self):
        calls.append(self)
        return real(self)

    with mock.patch.object(DiscretePotential, "validate", counting):
        t.inequality_suite(p1, g_exp_x, samples=2, seed=5, grid=t.Grid1D(N=201))
    assert len(calls) == 2 * 13


def test_functionals_load_no_numpy_polynomial():
    probe = (
        "import sys, toricgs as t; P = t.builtin('p1'); "
        "t.functionals(t.random_potential(P), t.WeightFunction.exp_affine(0, (1,))); "
        "print('numpy.polynomial' in sys.modules)"
    )
    cp = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "False"


def test_functional_record_serialization(p1, ma_solution_p1, g_one):
    F = t.functionals(ma_solution_p1, g_one)
    d = F.to_dict()
    assert set(d) == {
        "E_g",
        "Lambda_g",
        "I_g",
        "J_g",
        "L",
        "D",
        "H_g",
        "M",
        "mass_g",
        "underflow_count",
    }
    assert_close(d["mass_g"], 2.0, 1e-14, "mass_g")
    assert d["underflow_count"] == 0


# ---------------------------------------------------------------------------
# inequality harness
# ---------------------------------------------------------------------------


def test_inequality_suite_clean_run(p1, g_exp_x):
    report = t.inequality_suite(p1, g_exp_x, samples=20, seed=7)
    assert report["samples"] == 20 and report["seed"] == 7
    assert report["violations"] == {"a": 0, "b": 0, "c": 0, "d": 0}
    assert report["first_violation"] is None
    for key in ("a_lower_margin", "a_upper_margin", "b_margin", "c_margin", "d_margin"):
        assert report["worst_margins"][key] >= -1e-10, key
    consts = report["constants"]
    assert_close(consts["rho"], math.exp(-1.0), 1e-12, "rho")
    assert_close(consts["Rg"], math.e, 1e-12, "Rg")
    assert_close(consts["V1"], 2.0, 1e-14, "V1")
    assert_close(consts["Vg"], math.e - 1.0 / math.e, 1e-12, "Vg")
    assert_close(consts["C"], 2.0 * math.exp(2.0), 1e-9, "C")
    assert report["sharper_exponent"]["exponent"] == 1.0 + 1.0 / consts["C"]


def test_inequality_band_a_collapses_for_unit_weight(p1, g_one):
    # g = 1 makes both ends of band (a) equal I - J, so the margins vanish
    report = t.inequality_suite(p1, g_one, samples=10, seed=3)
    assert report["violations"] == {"a": 0, "b": 0, "c": 0, "d": 0}
    assert abs(report["worst_margins"]["a_lower_margin"]) < 1e-12
    assert abs(report["worst_margins"]["a_upper_margin"]) < 1e-12


# ---------------------------------------------------------------------------
# destabilizing ray diagnostic
# ---------------------------------------------------------------------------


def test_ding_ray_flags_skew_weight(p1):
    g = t.WeightFunction.exp_affine(0, (0.5,))
    diag = ding_ray_diagnostic(p1, g)
    assert diag["ding_ray_decreasing"] is True
    assert diag["na_slope"] < 0
    # the ray slope tracks the valuation invariant A - S_g = -<a, b_g>
    assert abs(diag["ray_slope"] - diag["na_slope"]) < 5e-3
    b = t.weighted_barycenter(p1, g)[0]
    assert_close(diag["na_slope"], -abs(b), 1e-10, "slope vs barycenter")


def test_ding_ray_flat_for_unit_weight(p1, g_one):
    diag = ding_ray_diagnostic(p1, g_one)
    assert diag["ding_ray_decreasing"] is False
    assert diag["na_slope"] == 0.0
    assert abs(diag["ray_slope"]) < 5e-3  # window truncation noise only


def test_ding_ray_runs_below_solved_potential(p1):
    # the c-normalized solution exists for a skew weight, but its Ding energy
    # exceeds what the destabilizing ray reaches once the window lets the ray
    # run: D has no minimizer
    g = t.WeightFunction.exp_affine(0, (0.5,))
    u_star = t.solve_ma(p1, g)
    D_star = t.functionals(u_star, g).D
    wide = t.Grid1D(R=24.0, N=4001)
    diag = ding_ray_diagnostic(
        p1, g, s_values=(0.0, 4.0, 8.0, 12.0, 16.0, 20.0), grid=wide
    )
    assert diag["ding_ray_decreasing"] is True
    ray_values = [float(v) for v in diag["D_values"]]
    assert all(b < a for a, b in zip(ray_values, ray_values[1:]))
    assert min(ray_values) < D_star - 0.5


_RAY_INTERVALS = [
    [(-1,), (1,)],
    [(-1,), (Fraction(1, 2),)],
    [(Fraction(-7, 4),), (Fraction(7, 4),)],
]


@pytest.mark.parametrize("verts", _RAY_INTERVALS)
def test_ray_potentials_are_translations_of_the_reference(verts):
    P = t.from_vertices(verts)
    lo, hi = (float(v) for v in P.interval())
    grid = t.Grid1D()
    ref = t.reference_potential(P, grid)
    for a in (1.0, -1.0):
        for s in (0.0, 2.0, 4.0, 8.0):
            y = grid.nodes + s * a
            exact = np.logaddexp(lo * y, hi * y) - s * max(a * lo, a * hi)
            # the node values are running sums of N - 1 slopes
            bound = grid.N * np.finfo(float).eps * float(np.max(np.abs(exact)))
            got = mafunc._ray_potential(ref, a, s).values
            assert float(np.max(np.abs(got - exact))) <= bound, (a, s)


def _blocked_conjugate(x, u, p, rows=1024):
    """``dense_conjugate`` over blocks of ``rows`` slopes, to bound its memory."""
    return np.concatenate([dense_conjugate(x, u, p[i : i + rows]) for i in range(0, len(p), rows)])


@pytest.mark.parametrize("verts", _RAY_INTERVALS)
def test_dense_double_conjugates_approach_the_ray(verts):
    # the sampled form of the ray: conjugate u0 over M slope samples of P,
    # add s times the support gap max_P <a, .> - <a, .>, conjugate back; its
    # sampling error shrinks towards the translation as M grows
    P = t.from_vertices(verts)
    lo, hi = (float(v) for v in P.interval())
    grid = t.Grid1D()
    ref = t.reference_potential(P, grid)
    x = grid.nodes
    for s in (0.0, 4.0, 8.0):
        ray = mafunc._ray_potential(ref, 1.0, s).values
        gaps = []
        for M in (4001, 16001):
            p = np.linspace(lo, hi, M)
            phi_star = _blocked_conjugate(x, ref.values, p)
            u_s = _blocked_conjugate(p, phi_star + s * (hi - p), x)
            gaps.append(float(np.max(np.abs(u_s - ray))))
        assert gaps[1] < gaps[0], (s, gaps)


# ---------------------------------------------------------------------------
# convex by construction
# ---------------------------------------------------------------------------


_WIDE_INTERVALS = [
    [(Fraction(-7, 4),), (Fraction(7, 4),)],
    [(-2,), (Fraction(1, 2),)],
    [(Fraction(-1, 2),), (2,)],
    [(-2,), (2,)],
]


def test_functionals_of_the_reference_on_a_wide_interval(g_one, g_exp_x):
    # slopes rebuilt from the node values put a second difference of
    # -1.036e-12 into u0 itself on [-7/4, 7/4], past the convexity check
    P = t.from_vertices(_WIDE_INTERVALS[0])
    for g in (g_one, g_exp_x):
        F = t.functionals(t.reference_potential(P), g)
        for name in ("E_g", "Lambda_g", "I_g", "J_g", "L", "D"):
            assert abs(getattr(F, name)) < 1e-14, name


@pytest.mark.parametrize("verts", _WIDE_INTERVALS)
def test_inequality_suite_runs_on_wide_intervals(verts, g_one):
    report = t.inequality_suite(t.from_vertices(verts), g_one, samples=24)
    assert report["violations"] == {"a": 0, "b": 0, "c": 0, "d": 0}


_ENDS = st.fractions(Fraction(1, 4), 4, max_denominator=12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_ENDS, _ENDS, st.integers(0, 2**32 - 1))
def test_package_built_potentials_are_convex_by_construction(a, b, seed):
    P = t.from_vertices([(-a,), (b,)])
    ref = t.reference_potential(P)
    pots = [ref]
    for i in range(3):
        u = t.random_potential(P, seed=[seed, i])
        pots += [u, u.along(0.3), u.along(0.9)]
    for direction in (1.0, -1.0):
        pots += [mafunc._ray_potential(ref, direction, s) for s in (2.0, 8.0)]
    for u in pots:
        u.validate()
