"""Valuative stability data and the filtration machinery on a polytope.

Toric valuations are indexed by nonzero directions a; the log discrepancy
is A(a) = -min_P <a, x> under the monotone normalization (so every facet
normal has A = 1), and the weighted expected vanishing order is
S_g(a) = integral (<a,x> - min) g / integral g.  Test configurations are
encoded as normalized piecewise-linear convex functions on the polytope,
with lattice-point filtration samples as the finite-m counterpart of the
continuous functionals.  Those functionals are exact: the pieces cut the
polytope into linearity cells, enumerated exactly in any dimension, and
each cell is integrated with the moment kernel.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce

from . import _exact, invariants, quadrature
from ._exact import np
from .polytope import (
    LabelledPolytope,
    _as_point,
    _double_description,
    _incidence,
    fan_triangulation,
)
from .quadrature import WeightFunction, encode_number

# ---------------------------------------------------------------------------
# A, S_g, and the finite-m lattice counterpart
# ---------------------------------------------------------------------------


def log_discrepancy(P: LabelledPolytope, a) -> float:
    """A(a) = -min_P <a, x>; equals 1 on every inward ray -nu_i.

    Degree-1 homogeneous with A(0) = 0.  (On the facet normals themselves
    the value is -min <nu_i, x>, which exceeds 1 whenever the polytope is
    not centrally symmetric.)
    """
    return float(-P.support_min(_exact.vector(a, P.dim)))


def s_g(P: LabelledPolytope, g: WeightFunction, a) -> float:
    """S_g(a) = integral_P (<a,x> - min_P <a,.>) g dx / integral_P g dx.

    Exact until the final conversion when a and the weight data are rational.
    """
    av = _exact.direction(a, P.dim)
    mass, first = invariants._first_moments(P, g)
    acc = sum(ai * f for ai, f in zip(av, first) if ai != 0)
    return float(acc / mass - P.support_min(av))


def s_g_lattice(P: LabelledPolytope, g: WeightFunction, a, m: int) -> float:
    """Finite-m value of S_g from the lattice points of mP.

    Sum of g(u/m) (<a,u>/m - min_P <a,.>) over u in mP, normalized by the
    total weight; converges to s_g at rate O(1/m).  The sums run over the
    columns of mP (``LabelledPolytope._columns``), not its points: along a
    column only u_n moves, over an integer interval, so each column sum is
    a closed form in the interval's ends, vectorised over the columns.  For
    polynomial kinds it is a combination of power sums of u_n
    (``_power_sums``), for exp weights of geometric sums
    (``_geometric_sums``).  The cost grows with the number of columns.
    """
    av = _exact.direction(a, P.dim)
    if m < 1:
        raise ValueError("m must be >= 1")
    quadrature._check_dim(P, g)
    heads, lo, hi = P._columns(m)
    af = [float(v) for v in av]
    x = heads / m
    # <a, u/m> - min_P <a,.> is base + slope u_n / m on a column
    base = x @ af[:-1] - float(P.support_min(av))
    slope = af[-1]
    if g.kind == "exp_affine":
        mass, first = _exp_columns([float(v) for v in g.b], x, lo, hi, m, base, slope)
    else:
        mass, first = _poly_columns(g.as_poly(P.dim), x, lo, hi, m, base, slope)
    return float(np.sum(first) / np.sum(mass))


def _exp_columns(b: list, x, lo, hi, m: int, base, slope):
    """Per column, the sums of g(u/m) and of g(u/m) (base + slope u_n / m)
    for g = exp(a0 + <b, x>), up to one factor common to all columns.

    On a column the exponent moves by c = b_n / m per step of u_n, so from
    the end with the larger exponent the weights fall geometrically, by
    e^-|c| <= 1 a step (``_geometric_sums``).  The weight at that end is
    taken relative to the largest over all columns; a0 and that maximum
    cancel in S, and no column overflows.
    """
    c = b[-1] / m
    end, step = (hi, -1) if c > 0 else (lo, 1)  # u_n = end + step j
    top = x @ b[:-1] + c * end
    w = np.exp(top - top.max())
    G0, G1 = _geometric_sums(abs(c), hi - lo + 1)
    at_end = base + slope * end / m
    return w * G0, w * (at_end * G0 + step * slope / m * G1)


#: below this s n, ``_geometric_sums`` takes the first moment from series
_SERIES_CUT = 0.25
#: terms of those series: the first one left out is below 1e-20 of the sum
_SERIES_LEN = 14


def _geometric_sums(s: float, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(G0, G1) = (sum of r^j, sum of j r^j) over 0 <= j < n, r = e^-s, s >= 0.

    With u = s n and phi1(z) = (e^z - 1)/z (1 at z = 0, from ``expm1``):
    G0 = n phi1(-u) / phi1(-s), and G1 = (r G0 - n r^n) / (1 - r), whose
    difference cancels as u -> 0.  Below ``_SERIES_CUT`` G1 is
    n (n chi(u) - e^-u phi2(s)) / (phi1(s) phi1(-s)) instead, with
    phi2(z) = (e^z - 1 - z)/z^2 and chi(u) = e^-u phi2(u) from their power
    series; since u >= s, the subtracted term is at most 1/n of the first.
    """
    n = n.astype(float)
    u = s * n
    phi1_neg, phi1_pos = (math.expm1(-s) / -s, math.expm1(s) / s) if s else (1.0, 1.0)
    G0 = n * np.divide(np.expm1(-u), -u, out=np.ones_like(u), where=u > 0) / phi1_neg
    G1 = np.empty_like(u)
    near = u < _SERIES_CUT
    far = ~near
    if far.any():
        G1[far] = (math.exp(-s) * G0[far] - n[far] * np.exp(-u[far])) / -math.expm1(-s)
    if near.any():
        un, nn = u[near], n[near]
        chi = 0.0
        phi2 = 0.0
        for i in reversed(range(_SERIES_LEN)):
            chi = (i + 1) / math.factorial(i + 2) - un * chi
            phi2 = 1 / math.factorial(i + 2) + s * phi2
        G1[near] = nn * (nn * chi - np.exp(-un) * phi2) / (phi1_pos * phi1_neg)
    return G0, G1


def _poly_columns(poly: dict, x, lo, hi, m: int, base, slope):
    """Per column, the sums of g(u/m) and of g(u/m) (base + slope u_n / m)
    for the polynomial g = sum of c x^gamma: with A_p the coefficient of
    x_n^p on the column (a polynomial in its head x), these are
    sum_p A_p X_p and sum_p A_p (base X_p + slope X_{p+1}), for X_p the
    column sum of (u_n / m)^p."""
    top = max(powers[-1] for powers in poly)
    coef = [0.0] * (top + 1)
    for powers, c in poly.items():
        term = float(c)
        for j, p in enumerate(powers[:-1]):
            if p:
                term = term * x[:, j] ** p
        coef[powers[-1]] = coef[powers[-1]] + term
    X = _power_sums(lo, hi, m, top + 1)
    mass = sum(c * X[p] for p, c in enumerate(coef))
    first = sum(c * (base * X[p] + slope * X[p + 1]) for p, c in enumerate(coef))
    return mass, first


def _power_sums(lo, hi, m: int, top: int) -> list:
    """[sum of (k/m)^p over the integers lo <= k <= hi, for p = 0..top].

    Each interval is split at zero into k = s + j, j < N, with s >= 0, and
    its mirror image k = -(s + j), s >= 1.  On each part
    sum_j ((s + j)/m)^p = sum_i C(p, i) (s/m)^(p-i) Y_i(N), and
    Y_i(N) = sum_{j<N} (j/m)^i = sum_l S(i, l) l! C(N, l+1) / m^i, with
    S the Stirling numbers of the second kind (Graham, Knuth and Patashnik,
    Concrete Mathematics, 6.1): every term is nonnegative, so nothing
    cancels but the odd powers across zero, as in the sum itself.  The
    falling factorials are taken over powers of m, so no term overflows
    where the sum is finite.
    """
    s = np.concatenate([np.maximum(lo, 0), np.maximum(-hi, 1)])
    n = np.maximum(np.concatenate([hi + 1, 1 - lo]) - s, 0).astype(float)
    # l! C(N, l+1) / m^l = N E_l / (l+1), E_l = (N-1)...(N-l) / m^l
    E = [1.0]
    for l in range(1, top + 1):
        E.append(E[-1] * (n - l) / m)
    stirling = [1]  # S(i, l) for l = 0..i
    Y = []
    for i in range(top + 1):
        if i:
            stirling = [l * a + b for l, (a, b) in enumerate(zip(stirling + [0], [0] + stirling))]
        Y.append(n * sum(k / (l + 1) * E[l] * float(m) ** (l - i)
                         for l, k in enumerate(stirling) if k))
    t = s / m
    half = len(lo)
    sums = []
    for p in range(top + 1):
        U = sum(math.comb(p, i) * t ** (p - i) * Y[i] for i in range(p + 1))
        sums.append(U[:half] + (-1) ** p * U[half:])
    return sums


# ---------------------------------------------------------------------------
# piecewise-linear convex functions (test configurations)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PLConvexFunction:
    """f(x) = max_j (<a_j, x> + c_j) on a polytope, normalized min_P f = 0.

    Pieces are exact rationals.  Construction cuts the domain into the
    linearity cells of the pieces (exact vertex enumeration, any dimension)
    and shifts the intercepts so that the exact minimum over the domain,
    attained at a cell vertex, is zero.  The shift leaves the cells as they
    are, so they are kept for the energies.
    """

    domain: LabelledPolytope
    pieces: tuple  # ((a_j, c_j), ...) with rational entries
    _cells: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self):
        pieces = []
        seen = set()
        for a, c in self.pieces:
            key = (_as_point(a), _exact.frac(c))
            if key not in seen:
                seen.add(key)
                pieces.append(key)
        if not pieces:
            raise ValueError("need at least one affine piece")
        # piece j times L is the int row values[j]: <values[j], (x, 1)> = L f_j(x)
        L, values = _exact._scaled([(*a, c) for a, c in pieces])
        cells, rays = _cells(self.domain, values)
        shift = _pl_min(values, cells, rays) / L
        pieces = tuple((a, c - shift) for a, c in pieces)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "_cells", cells)

    @cached_property
    def cell_simplices(self) -> tuple:
        """(piece index j, simplices) per linearity cell; f is piece j there.

        The cells tile the domain up to measure zero.  A one-piece function
        has the domain as its only cell and reuses its triangulation.
        """
        if len(self.pieces) == 1:
            return ((0, self.domain.triangulation),)
        return tuple(
            (j, tuple(fan_triangulation(verts, tight))) for j, verts, tight in self._cells
        )

    @cached_property
    def _moment_cache(self) -> dict:
        """What ``quadrature`` and ``e_g_na`` keep on f: the cell simplices
        and the per-weight results; it is freed with f."""
        return {}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(P: LabelledPolytope) -> "PLConvexFunction":
        return PLConvexFunction(P, (((Fraction(0),) * P.dim, Fraction(0)),))

    @staticmethod
    def valuation_type(P: LabelledPolytope, a) -> "PLConvexFunction":
        """f_a(x) = <a,x> - min_P <a,.> for a rational direction a."""
        av = _exact.direction(a, P.dim)
        if not all(isinstance(x, Fraction) for x in av):
            raise ValueError("valuation-type data needs a rational direction")
        return PLConvexFunction(P, ((av, Fraction(0)),))

    # -- evaluation ---------------------------------------------------------

    @cached_property
    def _slopes_f(self) -> np.ndarray:
        return np.array([[float(x) for x in a] for a, _ in self.pieces])

    @cached_property
    def _intercepts_f(self) -> np.ndarray:
        return np.array([float(c) for _, c in self.pieces])

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.max(x @ self._slopes_f.T + self._intercepts_f, axis=-1)

    def value_exact(self, point) -> Fraction:
        p = _as_point(point)
        return max(_exact.dot(a, p) + c for a, c in self.pieces)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "pieces": [
                {"a": [encode_number(x) for x in a], "c": encode_number(c)}
                for a, c in self.pieces
            ]
        }


def twist(f: PLConvexFunction, xi) -> PLConvexFunction:
    """Shift every piece slope by xi and renormalize to min zero."""
    xv = _exact.vector(xi, f.domain.dim)
    if not all(isinstance(x, Fraction) for x in xv):
        raise ValueError("twist direction must be rational")
    pieces = tuple(
        (tuple(ai + xi_i for ai, xi_i in zip(a, xv)), c) for a, c in f.pieces
    )
    return PLConvexFunction(f.domain, pieces)


# -- linearity cells and the exact PL minimum --------------------------------


def _cells(P: LabelledPolytope, values) -> tuple[tuple, tuple]:
    """The full-dimensional linearity cells of the pieces with int value rows
    ``values``: (j, vertices, tight sets) per cell, and per cell its vertices
    as (ray, zero mask) pairs.

    The cell of piece j is P cut by f_j >= f_k for every k != j, the cone
    row values[j] - values[k].  One double description run per piece starts
    from P's vertex rays and their facet zero sets (``P._rays``) and adds
    only those cuts; a cut with zero slope difference that f_j loses drops
    every ray, so that cell is empty.  The zero sets give the vertices on
    each facet and cut.  A cell is dropped when it is empty or one row holds
    all of its vertices (it lies in that row's hyperplane): the
    full-dimensional cells already cover P.
    """
    if len(values) == 1:
        return ((0, P.vertices, P._tight),), (P._rays,)
    facets = P._cone_rows
    cuts = range(len(facets), len(facets) + len(values) - 1)
    cells, rays = [], []
    for j, vj in enumerate(values):
        rows = facets + [
            tuple(x - y for x, y in zip(vj, vk)) for k, vk in enumerate(values) if k != j
        ]
        out = _double_description(rows, P._rays, cuts)
        if out and not reduce(operator.and_, (z for _, z in out)):
            cells.append((j, *_incidence(out, len(rows))))
            rays.append(out)
    return tuple(cells), tuple(rays)


def _pl_min(values, cells, rays) -> Fraction:
    """Exact min over P of max_j <values[j], (x, 1)>.

    The function is affine on each cell, where it equals the cell's piece,
    so the minimum is attained at a cell vertex num / den, where piece j
    reads <values[j], (num, den)> / den.
    """
    return min(
        Fraction(sum(p * q for p, q in zip(values[j], y)), y[-1])
        for (j, _, _), cell in zip(cells, rays)
        for y, _ in cell
    )


# ---------------------------------------------------------------------------
# filtration samples (finite m)
# ---------------------------------------------------------------------------

# int64 numerators and denominators up to 2^53 convert to float exactly, so a
# float division of the two rounds once, like the Fraction it replaces
_EXACT_INT = 2**53


def _quotient(k: np.ndarray, d: int) -> np.ndarray:
    """k / d rounded once to float: exact int64 operands, or Python ints."""
    return np.asarray(k / d, dtype=float)


class _Entries(Sequence):
    """The (u, lambda_u, g(u/m)) triples of a sample, built on access."""

    def __init__(self, sample: "FiltrationSample"):
        self._sample = sample

    def __len__(self) -> int:
        return len(self._sample.points)

    def __getitem__(self, i):
        s = self._sample
        return tuple(int(x) for x in s.points[i]), float(s._lambdas[i]), float(s.weights[i])


@dataclass(eq=False)
class FiltrationSample:
    """Lattice sample of a PL filtration at level m.

    Row i of ``points`` is a lattice point u of mP, with weight g(u/m) in
    ``weights`` and lambda_u = m f(u/m) = m k / D exactly, for k the integer
    ``numerators[i]`` and D the integer ``denominator``.  The measure nu_m
    places mass (n!/m^n) g(u/m) at lambda_u / m = k / D, and f_m is the
    complementary cumulative weight function.  ``entries`` views the rows as
    (u, lambda_u, g(u/m)) tuples.
    """

    m: int
    dim: int
    points: np.ndarray
    numerators: np.ndarray  # int64, or Python ints (object) past 2^53
    denominator: int
    weights: np.ndarray

    @property
    def entries(self) -> _Entries:
        return _Entries(self)

    @cached_property
    def _scale(self) -> float:
        return math.factorial(self.dim) / self.m**self.dim

    @cached_property
    def _lambdas(self) -> np.ndarray:
        return _quotient(self.numerators, self.denominator // self.m)

    def f_m(self, lam: float) -> float:
        """(n!/m^n) * sum of g(u/m) over points with lambda_u >= m*lam."""
        return self._scale * math.fsum(self.weights[self._lambdas >= self.m * lam])

    @cached_property
    def nu_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct atom positions of nu_m and their masses."""
        atoms, inverse = np.unique(self.numerators, return_inverse=True)
        # bincount adds the weights of an atom in lattice order
        masses = self._scale * np.bincount(inverse, weights=self.weights)
        return _quotient(atoms, self.denominator), masses

    @cached_property
    def _weight_sum(self) -> float:
        # fsum reads a list faster than an array, to the same rounded sum
        return math.fsum(self.weights.tolist())

    @cached_property
    def total_mass(self) -> float:
        return self._scale * self._weight_sum

    @cached_property
    def mean(self) -> float:
        """Barycenter of nu_m normalized to a probability measure."""
        positions = _quotient(self.numerators, self.denominator)
        return math.fsum((positions * self.weights).tolist()) / self._weight_sum


def dh_g_filtration(
    P: LabelledPolytope, g: WeightFunction, f: PLConvexFunction, m: int
) -> FiltrationSample:
    """Sample the filtration encoded by f on the lattice points of mP.

    With L the common denominator of the pieces, L m f(u/m) is the integer
    max_j (<L a_j, u> + L m c_j), so every value is one row of an integer
    matrix product over the lattice points: in int64 when an a-priori bound
    keeps its entries and L m within 2^53, else in Python ints.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    U = P.lattice_points(m)
    weights = g.value(U.astype(float) / m)
    L, rows = _exact._scaled([(*a, c) for a, c in f.pieces])
    A = [r[:-1] for r in rows]
    C = [r[-1] * m for r in rows]
    umax = np.abs(U).max(axis=0).tolist()
    bound = max(abs(c) + sum(abs(x) * b for x, b in zip(a, umax)) for a, c in zip(A, C))
    dtype = np.int64 if max(bound, L * m) <= _EXACT_INT else object
    k = (U.astype(dtype) @ np.array(A, dtype=dtype).T + np.array(C, dtype=dtype)).max(axis=1)
    return FiltrationSample(m, P.dim, U, k, L * m, weights)


# ---------------------------------------------------------------------------
# continuous non-Archimedean functionals
# ---------------------------------------------------------------------------


def e_g_na(P: LabelledPolytope, g: WeightFunction, f: PLConvexFunction) -> float:
    """E^NA-type energy: integral_P f g dx / integral_P g dx.

    Exact linearity-cell decomposition in every dimension: on the cell of
    piece j, f = <a_j, x> + c_j, so each simplex of the cell contributes
    c_j M_0 + <a_j, M_1> from the moment kernel, and the mass is the sum of
    the M_0.  Rational polynomial-kind data gives the float of an exact
    Fraction.  The value is kept per (f, g) while both live, as the
    moments are (see ``quadrature``).
    """
    quadrature._check_dim(P, g)
    memo = quadrature._memo(f, g)
    if "e_g_na" in memo:
        return memo["e_g_na"]
    n = P.dim
    alphas = [(0,) * n] + quadrature._units(n)
    num = mass = 0
    for j, simplices in _cell_moment_simplices(f):
        a, c = f.pieces[j]
        for simplex in simplices:
            m0, *m1 = quadrature.simplex_moments(simplex, g, alphas)
            num += c * m0 + sum(ai * v for ai, v in zip(a, m1) if ai != 0)
            mass += m0
    memo["e_g_na"] = value = float(num / mass)
    return value


def _cell_moment_simplices(f: PLConvexFunction) -> tuple:
    """(piece index j, the ``quadrature._Simplex`` of each simplex) per cell
    of f, built once per f, so a second weight builds none; a one-piece f
    shares its domain's (``quadrature._simplices``)."""
    cache = f._moment_cache
    if "cells" not in cache:
        if len(f.pieces) == 1:
            cache["cells"] = ((0, quadrature._simplices(f.domain)),)
        else:
            cache["cells"] = tuple(
                (j, tuple(map(quadrature._Simplex, simplices)))
                for j, simplices in f.cell_simplices
            )
    return cache["cells"]


def lambda_na(f: PLConvexFunction) -> float:
    """Sup of f over its domain; attained at a vertex by convexity."""
    return float(max(f.value_exact(v) for v in f.domain.vertices))


def j_g_na(P: LabelledPolytope, g: WeightFunction, f: PLConvexFunction) -> float:
    """J_g^NA = lambda_na(f) - e_g_na(f) >= 0, zero only for constant f."""
    return lambda_na(f) - e_g_na(P, g, f)


# ---------------------------------------------------------------------------
# Ding invariants and the toric delta
# ---------------------------------------------------------------------------


def ding_na_valuation(P: LabelledPolytope, g: WeightFunction, a) -> float:
    """Ding slope A(a) - S_g(a); negative values certify instability."""
    return log_discrepancy(P, a) - s_g(P, g, a)


def _dual_vertices(P: LabelledPolytope):
    """Vertices of the polytope {a : A(a) <= 1} = {a : <a, -v> <= 1 for all v}.

    It is minus the polar of P, so these are the distinct -nu_i, sorted.
    """
    return tuple(sorted({tuple(-x for x in nu) for nu in P.normals}))


def delta_toric(P: LabelledPolytope, g: WeightFunction, with_direction: bool = False):
    """inf over directions of A(a) / S_g(a) (degree-0 homogeneous).

    Using S_g(a) = A(a) + <a, b_g>, the infimum equals
    1 / (1 + max <a, b_g> over {A(a) <= 1}) = 1 / (1 - min_i <nu_i, b_g>),
    as that dual polytope is minus the polar of P.  The normals positively
    span, so delta < 1 iff b_g is nonzero; delta = 1 means g-Ding
    semistability on toric valuations.  Exact when b_g is: the pairings
    run in b_g's own type, Fractions or floats.
    """
    g.check_positive(P)
    mass, first = invariants._first_moments(P, g)
    b = [x / mass for x in first]
    duals = _dual_vertices(P)
    pairings = [_exact.dot(w, b) for w in duals]
    # the first largest pairing
    i = max(range(len(duals)), key=pairings.__getitem__)
    # directions with <a, b_g> <= 0 have ratio >= 1, so delta caps at 1
    delta = float(1 / (1 + pairings[i])) if pairings[i] > 0 else 1.0
    if with_direction:
        best_w = [float(x) for x in duals[i]]
        norm = invariants._norm(best_w)
        return delta, tuple(x / norm for x in best_w)
    return delta


def g_uniform_check(P: LabelledPolytope, g: WeightFunction, tol: float = 1e-8) -> dict:
    """Is b_g = 0?  Decided exactly where b_g is exact, else by norm < tol."""
    b, stable, rule = invariants._zero_barycenter(P, g, tol)
    return {
        "stable_modulo_torus": stable,
        "barycenter_norm": invariants._norm(b),
        "decided_by": rule,
    }
