"""Valuative stability data and the filtration machinery on a polytope.

Toric valuations are indexed by nonzero directions a; the log discrepancy
is A(a) = -min_P <a, x> under the monotone normalization (so every facet
normal has A = 1), and the weighted expected vanishing order is
S_g(a) = integral (<a,x> - min) g / integral g.  Test configurations are
encoded as normalized piecewise-linear convex functions on the polytope,
with lattice-point filtration samples as the finite-m counterpart of the
continuous functionals.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _exact, quadrature
from .errors import ZeroVector
from .polytope import LabelledPolytope, from_facets
from .quadrature import WeightFunction, encode_number

# ---------------------------------------------------------------------------
# directions
# ---------------------------------------------------------------------------


def _direction(a, allow_zero: bool = False):
    """Coerce a direction to a tuple, rational entries kept exact."""
    if np.isscalar(a):
        a = (a,)
    out = []
    exact = True
    for x in a:
        if isinstance(x, (int, Fraction)):
            out.append(Fraction(x))
        elif isinstance(x, str):
            out.append(Fraction(x))
        else:
            out.append(float(x))
            exact = False
    if not allow_zero and all(x == 0 for x in out):
        raise ZeroVector("direction must be nonzero")
    return tuple(out), exact


# ---------------------------------------------------------------------------
# A, S_g, and the finite-m lattice counterpart
# ---------------------------------------------------------------------------


def log_discrepancy(P: LabelledPolytope, a) -> float:
    """A(a) = -min_P <a, x>; equals 1 on every inward ray -nu_i.

    Degree-1 homogeneous with A(0) = 0.  (On the facet normals themselves
    the value is -min <nu_i, x>, which exceeds 1 whenever the polytope is
    not centrally symmetric.)
    """
    av, _ = _direction(a, allow_zero=True)
    return float(-P.support_min(av))


def s_g(P: LabelledPolytope, g: WeightFunction, a) -> float:
    """S_g(a) = integral_P (<a,x> - min_P <a,.>) g dx / integral_P g dx.

    Exact until the final conversion when a and the weight data are rational.
    """
    av, _ = _direction(a)
    M = quadrature.moments(P, g, 1)
    acc = sum(ai * M[e] for ai, e in zip(av, quadrature._units(P.dim)) if ai != 0)
    return float(acc / M[(0,) * P.dim] - P.support_min(av))


def s_g_lattice(P: LabelledPolytope, g: WeightFunction, a, m: int) -> float:
    """Finite-m value of S_g from the lattice points of mP.

    Sum of g(u/m) (<a,u>/m - min_P <a,.>) over u in mP, normalized by the
    total weight; converges to s_g at rate O(1/m).
    """
    av, _ = _direction(a)
    if m < 1:
        raise ValueError("m must be >= 1")
    U = P.lattice_points(m)
    X = U.astype(float) / m
    w = g.value(X)
    af = np.array([float(x) for x in av])
    vals = X @ af - float(P.support_min(av))
    return float(np.sum(w * vals) / np.sum(w))


@dataclass(frozen=True, eq=False)
class ToricValuation:
    """A toric divisorial valuation wt_a with its cached stability data."""

    P: LabelledPolytope
    g: WeightFunction
    a: tuple

    def __post_init__(self):
        av, _ = _direction(self.a)
        object.__setattr__(self, "a", av)

    @cached_property
    def support_min(self):
        return self.P.support_min(self.a)

    @cached_property
    def log_discrepancy(self) -> float:
        return float(-self.support_min)

    @cached_property
    def s_g(self) -> float:
        return s_g(self.P, self.g, self.a)

    @property
    def ding(self) -> float:
        return self.log_discrepancy - self.s_g


# ---------------------------------------------------------------------------
# piecewise-linear convex functions (test configurations)
# ---------------------------------------------------------------------------


def _frac_point(p):
    return tuple(_exact.frac(x) for x in p)


@dataclass(frozen=True, eq=False)
class PLConvexFunction:
    """f(x) = max_j (<a_j, x> + c_j) on a polytope, normalized min_P f = 0.

    Pieces are exact rationals; construction shifts the intercepts so the
    exact minimum over the domain is zero (arrangement enumeration in
    dimensions <= 2, linear programming above).
    """

    domain: LabelledPolytope
    pieces: tuple  # ((a_j, c_j), ...) with rational entries

    def __post_init__(self):
        pieces = []
        seen = set()
        for a, c in self.pieces:
            key = (_frac_point(a), _exact.frac(c))
            if key not in seen:
                seen.add(key)
                pieces.append(key)
        if not pieces:
            raise ValueError("need at least one affine piece")
        shift = _pl_min(self.domain, tuple(pieces))
        pieces = tuple((a, c - shift) for a, c in pieces)
        object.__setattr__(self, "pieces", pieces)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(P: LabelledPolytope) -> "PLConvexFunction":
        return PLConvexFunction(P, (((Fraction(0),) * P.dim, Fraction(0)),))

    @staticmethod
    def valuation_type(P: LabelledPolytope, a) -> "PLConvexFunction":
        """f_a(x) = <a,x> - min_P <a,.> for a rational direction a."""
        av, exact = _direction(a)
        if not exact:
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
        p = _frac_point(point)
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
    xv, exact = _direction(xi, allow_zero=True)
    if not exact:
        raise ValueError("twist direction must be rational")
    pieces = tuple(
        (tuple(ai + xi_i for ai, xi_i in zip(a, xv)), c) for a, c in f.pieces
    )
    return PLConvexFunction(f.domain, pieces)


# -- exact PL minimum -------------------------------------------------------


def _pl_min(P: LabelledPolytope, pieces) -> Fraction:
    """Exact min over P of max_j (<a_j,x> + c_j).

    The minimum of a convex PL function on a polytope is attained at a cell
    vertex of the arrangement restricted to P; for n <= 2 those are polytope
    vertices, kink-line intersections with the boundary, and kink-kink
    crossings, all enumerable in exact arithmetic.
    """
    n = P.dim
    value = lambda p: max(_exact.dot(a, p) + c for a, c in pieces)  # noqa: E731
    best = min(value(v) for v in P.vertices)
    if len(pieces) == 1:
        return best
    if n == 1:
        lo, hi = P.interval()
        for (a1, c1), (a2, c2) in itertools.combinations(pieces, 2):
            da = a1[0] - a2[0]
            if da == 0:
                continue
            x = (c2 - c1) / da
            if lo <= x <= hi:
                best = min(best, value((x,)))
        return best
    if n == 2:
        lines = []
        for (a1, c1), (a2, c2) in itertools.combinations(pieces, 2):
            nvec = (a1[0] - a2[0], a1[1] - a2[1])
            if nvec == (Fraction(0), Fraction(0)):
                continue
            lines.append((nvec, c2 - c1))  # <nvec, x> = rhs
        edges = [
            (P.facet_vertices(i)) for i in range(len(P.normals))
        ]
        for nvec, rhs in lines:
            for ev in edges:
                if len(ev) != 2:
                    continue
                pt = _segment_line_intersection(ev[0], ev[1], nvec, rhs)
                if pt is not None:
                    best = min(best, value(pt))
        for (n1, r1), (n2, r2) in itertools.combinations(lines, 2):
            sol = _exact.solve([list(n1), list(n2)], [r1, r2])
            if sol is None:
                continue
            pt = tuple(sol)
            if _contains_exact(P, pt):
                best = min(best, value(pt))
        return best
    return _pl_min_lp(P, pieces)


def _segment_line_intersection(p, q, nvec, rhs):
    dp = _exact.dot(nvec, p) - rhs
    dq = _exact.dot(nvec, q) - rhs
    if dp == dq:
        return tuple(p) if dp == 0 else None
    if (dp > 0 and dq > 0) or (dp < 0 and dq < 0):
        return None
    t = dp / (dp - dq)
    return tuple(a + t * (b - a) for a, b in zip(p, q))


def _contains_exact(P: LabelledPolytope, point) -> bool:
    return all(_exact.dot(nu, point) <= 1 for nu in P.normals)


def _pl_min_lp(P: LabelledPolytope, pieces) -> Fraction:
    # minimize t subject to t >= <a_j,x> + c_j on P (float LP, then snapped
    # by re-evaluating the active piece set exactly at the rounded optimum)
    from scipy.optimize import linprog

    n = P.dim
    A_ub = []
    b_ub = []
    for a, c in pieces:
        A_ub.append([float(x) for x in a] + [-1.0])
        b_ub.append(-float(c))
    for nu in P.normals:
        A_ub.append([float(x) for x in nu] + [0.0])
        b_ub.append(1.0)
    cost = [0.0] * n + [1.0]
    res = linprog(
        cost,
        A_ub=np.array(A_ub),
        b_ub=np.array(b_ub),
        bounds=[(None, None)] * (n + 1),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"PL normalization LP failed: {res.message}")
    x = [Fraction(v).limit_denominator(10**9) for v in res.x[:n]]
    val = max(_exact.dot(a, x) + c for a, c in pieces)
    return min(val, _exact.frac(float(res.fun)))


# ---------------------------------------------------------------------------
# filtration samples (finite m)
# ---------------------------------------------------------------------------


@dataclass
class FiltrationSample:
    """Lattice sample of a PL filtration at level m.

    ``entries`` holds (u, lambda_u, g(u/m)) per lattice point u of mP with
    lambda_u = m f(u/m); the measure nu_m places mass (n!/m^n) g(u/m) at
    lambda_u / m, and f_m is the complementary cumulative weight function.
    """

    m: int
    dim: int
    entries: list
    _positions_exact: list  # Fraction positions lambda_u / m, same order

    @cached_property
    def _scale(self) -> float:
        return math.factorial(self.dim) / self.m**self.dim

    def f_m(self, lam: float) -> float:
        """(n!/m^n) * sum of g(u/m) over entries with lambda_u >= m*lam."""
        thr = self.m * lam
        return self._scale * math.fsum(
            w for _, l, w in self.entries if l >= thr
        )

    @cached_property
    def nu_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct atom positions of nu_m and their masses."""
        agg: dict[Fraction, float] = {}
        for (_, _, w), pos in zip(self.entries, self._positions_exact):
            agg[pos] = agg.get(pos, 0.0) + w
        pos_sorted = sorted(agg)
        masses = np.array([self._scale * agg[p] for p in pos_sorted])
        return np.array([float(p) for p in pos_sorted]), masses

    @cached_property
    def total_mass(self) -> float:
        return self._scale * math.fsum(w for _, _, w in self.entries)

    @cached_property
    def mean(self) -> float:
        """Barycenter of nu_m normalized to a probability measure."""
        num = math.fsum(
            float(p) * w for (_, _, w), p in zip(self.entries, self._positions_exact)
        )
        den = math.fsum(w for _, _, w in self.entries)
        return num / den


def dh_g_filtration(
    P: LabelledPolytope, g: WeightFunction, f: PLConvexFunction, m: int
) -> FiltrationSample:
    """Sample the filtration encoded by f on the lattice points of mP."""
    if m < 1:
        raise ValueError("m must be >= 1")
    U = P.lattice_points(m)
    X = U.astype(float) / m
    weights = g.value(X)
    entries = []
    positions = []
    for u, w in zip(U, weights):
        pos = f.value_exact(tuple(Fraction(int(x), m) for x in u))
        positions.append(pos)
        entries.append((tuple(int(x) for x in u), float(m * pos), float(w)))
    return FiltrationSample(m=m, dim=P.dim, entries=entries, _positions_exact=positions)


# ---------------------------------------------------------------------------
# continuous non-Archimedean functionals
# ---------------------------------------------------------------------------


def e_g_na(P: LabelledPolytope, g: WeightFunction, f: PLConvexFunction) -> float:
    """E^NA-type energy: integral_P f g dx / integral_P g dx.

    Exact linearity-region decomposition in dimensions <= 2 (the regions
    are clipped in rational arithmetic, then each affine piece integrates
    in closed form); adaptive simplex quadrature above.
    """
    n = P.dim
    if n <= 2:
        num = 0.0
        for piece_idx, cell in _linearity_cells(f):
            a, c = f.pieces[piece_idx]
            num += _integral_affine_times_g(cell, a, c, g, n)
        mass = quadrature.integrate(P, g)[0]
        return num / mass
    fn = lambda x: f.value(x) * g.value(x)  # noqa: E731
    num = 0.0
    for simplex in P.triangulation:
        num += _adaptive_gm(
            np.array([[float(v) for v in p] for p in simplex]), fn, 1e-9
        )
    mass = quadrature.integrate(P, g)[0]
    return num / mass


def lambda_na(f: PLConvexFunction) -> float:
    """Sup of f over its domain; attained at a vertex by convexity."""
    return float(max(f.value_exact(v) for v in f.domain.vertices))


def j_g_na(P: LabelledPolytope, g: WeightFunction, f: PLConvexFunction) -> float:
    """J_g^NA = lambda_na(f) - e_g_na(f) >= 0, zero only for constant f."""
    return lambda_na(f) - e_g_na(P, g, f)


def _cyclic_order(points):
    """Counterclockwise ordering of polygon vertices around the origin.

    Exact comparator: split by half-plane, then by cross-product sign.
    (The origin is interior for our polytopes, so angles are well-defined.)
    """

    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def cmp(u, v):
        hu, hv = half(u), half(v)
        if hu != hv:
            return -1 if hu < hv else 1
        cross = u[0] * v[1] - u[1] * v[0]
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return sorted(points, key=functools.cmp_to_key(cmp))


def _clip_polygon(poly, nvec, rhs):
    """Keep the part of a CCW polygon with <nvec, x> >= rhs (exact)."""
    out = []
    k = len(poly)
    for i in range(k):
        s, e = poly[i], poly[(i + 1) % k]
        ds = _exact.dot(nvec, s) - rhs
        de = _exact.dot(nvec, e) - rhs
        if ds >= 0:
            out.append(s)
        if (ds > 0 and de < 0) or (ds < 0 and de > 0):
            t = ds / (ds - de)
            out.append(tuple(a + t * (b - a) for a, b in zip(s, e)))
    # dedupe consecutive equal points
    dedup = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _polygon_area(poly) -> Fraction:
    acc = Fraction(0)
    k = len(poly)
    for i in range(k):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % k]
        acc += x1 * y2 - x2 * y1
    return acc / 2


def _linearity_cells(f: PLConvexFunction):
    """Yield (piece index, region) pairs covering the domain up to measure 0.

    For n=2 regions are CCW polygons (lists of exact points); for n=1 they
    are (lo, hi) intervals.
    """
    P = f.domain
    n = P.dim
    if n == 1:
        lo, hi = P.interval()
        cuts = {lo, hi}
        for (a1, c1), (a2, c2) in itertools.combinations(f.pieces, 2):
            da = a1[0] - a2[0]
            if da == 0:
                continue
            x = (c2 - c1) / da
            if lo < x < hi:
                cuts.add(x)
        xs = sorted(cuts)
        for x0, x1 in zip(xs, xs[1:]):
            mid = ((x0 + x1) / 2,)
            vals = [_exact.dot(a, mid) + c for a, c in f.pieces]
            j = vals.index(max(vals))
            yield j, (x0, x1)
        return
    if n != 2:
        raise ValueError("linearity cells implemented for n <= 2")
    base = _cyclic_order(list(P.vertices))
    for j, (aj, cj) in enumerate(f.pieces):
        poly = base
        for k, (ak, ck) in enumerate(f.pieces):
            if k == j:
                continue
            nvec = (aj[0] - ak[0], aj[1] - ak[1])
            rhs = ck - cj
            if nvec == (Fraction(0), Fraction(0)):
                continue
            poly = _clip_polygon(poly, nvec, rhs)
            if len(poly) < 3:
                break
        if len(poly) >= 3 and _polygon_area(poly) > 0:
            yield j, poly


def _integral_affine_times_g(cell, a, c, g: WeightFunction, n: int) -> float:
    """Integral over the cell of (<a,x> + c) * g(x), exact where possible."""
    if n == 1:
        x0, x1 = cell
        simplices = [((x0,), (x1,))]
    else:
        simplices = [
            (cell[0], cell[i], cell[i + 1]) for i in range(1, len(cell) - 1)
        ]
    alphas = [(0,) * n] + quadrature._units(n)
    total = 0
    for s in simplices:
        vals, _ = quadrature.simplex_moments(s, g, alphas)
        val = c * vals[0]
        for ai, v in zip(a, vals[1:]):
            if ai != 0:
                val += ai * v
        total += val
    return float(total)


def _adaptive_gm(verts: np.ndarray, fn, tol: float, depth: int = 0) -> float:
    try:
        val, _ = quadrature.gm_integrate(verts, fn, tol_simplex=tol)
        return val
    except quadrature.QuadratureNotConverged:
        if depth >= 8:
            return quadrature.gm_integrate(verts, fn, tol_simplex=None)[0]
        return sum(
            _adaptive_gm(child, fn, tol / 2, depth + 1)
            for child in quadrature._split_simplex(verts)
        )


# ---------------------------------------------------------------------------
# Ding invariants and the toric delta
# ---------------------------------------------------------------------------


def ding_na_valuation(P: LabelledPolytope, g: WeightFunction, a) -> float:
    """Ding slope A(a) - S_g(a); negative values certify instability."""
    return log_discrepancy(P, a) - s_g(P, g, a)


def _dual_vertices(P: LabelledPolytope):
    """Vertices of the polytope {a : A(a) <= 1} = {a : <a, -v> <= 1 for all v}.

    Bounded because the origin is interior to P (so also to -P); its
    vertices realize every extreme ratio direction of A-homogeneous
    objectives.
    """
    Q = from_facets([tuple(-x for x in v) for v in P.vertices], [1] * len(P.vertices))
    return Q.vertices


def delta_toric(P: LabelledPolytope, g: WeightFunction, with_direction: bool = False):
    """inf over directions of A(a) / S_g(a) (degree-0 homogeneous).

    Using S_g(a) = A(a) + <a, b_g>, the infimum equals
    1 / (1 + max <a, b_g> over {A(a) <= 1}), and the maximum of a linear
    functional over that dual polytope is attained at one of its vertices,
    which we enumerate exactly.  delta < 1 iff the weighted barycenter b_g
    is nonzero; delta = 1 means g-Ding semistability on toric valuations.
    """
    from .invariants import weighted_barycenter

    b = weighted_barycenter(P, g)
    best_pair = -math.inf
    best_w = None
    for w in _dual_vertices(P):
        wf = np.array([float(x) for x in w])
        pairing = float(np.dot(wf, b))
        if pairing > best_pair:
            best_pair = pairing
            best_w = wf
    # directions with <a, b_g> <= 0 have ratio >= 1, so delta caps at 1
    delta = 1.0 / (1.0 + best_pair) if best_pair > 0 else 1.0
    if with_direction:
        direction = best_w / np.linalg.norm(best_w)
        return delta, direction
    return delta


def g_uniform_check(P: LabelledPolytope, g: WeightFunction, tol: float = 1e-8) -> dict:
    """Torus-equivariant uniform stability check via the barycenter norm."""
    from .invariants import weighted_barycenter

    b = weighted_barycenter(P, g)
    norm = float(np.linalg.norm(b))
    return {"stable_modulo_torus": bool(norm < tol), "barycenter_norm": norm}
