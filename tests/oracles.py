"""Self-contained reference computations used to cross-check the package.

Everything here is implemented from first principles (shoelace/fan moment
formulas, rational series, midpoint grids) so the tests compare the library
against independent arithmetic rather than against itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import mpmath
import numpy as np


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    return Fraction(x).limit_denominator(10**12)


# ---------------------------------------------------------------------------
# exact polygon moments (2D) via fan decomposition from the origin
# ---------------------------------------------------------------------------

# integral over the unit triangle {s,t >= 0, s+t <= 1} of s^p t^q
def _unit_triangle_power(p: int, q: int) -> Fraction:
    return Fraction(math.factorial(p) * math.factorial(q), math.factorial(p + q + 2))


def triangle_monomial_integral(a, b, c, i: int, j: int) -> Fraction:
    """Integral of x^i y^j over the triangle (a, b, c), exact.

    Parameterize x = a + s(b-a) + t(c-a) over the unit triangle and expand
    the monomial with the binomial theorem; each s^p t^q term integrates to
    p! q! / (p+q+2)!.
    """
    ax, ay = frac(a[0]), frac(a[1])
    ux, uy = frac(b[0]) - ax, frac(b[1]) - ay
    vx, vy = frac(c[0]) - ax, frac(c[1]) - ay
    det = ux * vy - uy * vx
    total = Fraction(0)
    for p1 in range(i + 1):
        for p2 in range(i - p1 + 1):
            p3 = i - p1 - p2
            cx = (
                Fraction(math.factorial(i), math.factorial(p1) * math.factorial(p2) * math.factorial(p3))
                * ax**p1
                * ux**p2
                * vx**p3
            )
            for q1 in range(j + 1):
                for q2 in range(j - q1 + 1):
                    q3 = j - q1 - q2
                    cy = (
                        Fraction(
                            math.factorial(j),
                            math.factorial(q1) * math.factorial(q2) * math.factorial(q3),
                        )
                        * ay**q1
                        * uy**q2
                        * vy**q3
                    )
                    total += cx * cy * _unit_triangle_power(p2 + q2, p3 + q3)
    return det * total  # signed


def cyclic_ccw(vertices):
    """Vertices sorted counterclockwise by angle around the origin."""
    vs = [tuple(frac(x) for x in v) for v in vertices]
    return sorted(vs, key=lambda v: math.atan2(float(v[1]), float(v[0])))


def polygon_monomial_integral(vertices, i: int, j: int) -> Fraction:
    """Integral of x^i y^j over the convex polygon spanned by ``vertices``.

    The polygon is fanned from its first counterclockwise vertex; signed
    triangle contributions make the decomposition exact for any convex hull
    containing the origin or not.
    """
    vs = cyclic_ccw(vertices)
    total = Fraction(0)
    for k in range(1, len(vs) - 1):
        total += triangle_monomial_integral(vs[0], vs[k], vs[k + 1], i, j)
    return total


def interval_monomial_integral(lo, hi, i: int) -> Fraction:
    lo, hi = frac(lo), frac(hi)
    return (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)


# ---------------------------------------------------------------------------
# divided differences of exp, exact rational series
# ---------------------------------------------------------------------------


def dd_exp_series(nodes, rel_tol: Fraction = Fraction(1, 10**28)):
    """Divided difference of exp at the given rational nodes.

    Hermite-Genocchi series: dd[x_0..x_k] = sum_j h_j(x) / (k + j)!, where
    h_j is the complete homogeneous symmetric polynomial, computed by the
    standard one-variable-at-a-time DP in exact arithmetic.  Exact rational
    partial sums mean there is no cancellation; the only approximation is
    the final truncation, bounded by the tolerance.
    """
    xs = [frac(x) for x in nodes]
    k = len(xs) - 1
    total = Fraction(0)
    h_prev = None  # h_{j-1} over prefixes
    fact = Fraction(math.factorial(k))
    j = 0
    small = 0
    while True:
        if j == 0:
            h_cur = [Fraction(1)] * (k + 1)
        else:
            h_cur = []
            for i, x in enumerate(xs):
                prev_prefix = h_cur[i - 1] if i > 0 else Fraction(0)
                h_cur.append(prev_prefix + x * h_prev[i])
        term = h_cur[k] / fact
        total += term
        if total != 0 and abs(term) < rel_tol * abs(total):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
        if j > 400:
            raise RuntimeError("series did not settle")
        h_prev = h_cur
        fact *= k + j + 1
        j += 1


def exp_dd_series_120(y, N: int) -> float:
    """``quadrature._exp_dd_series`` with a fixed table of 120 terms.

    The same float operations and stop test as the library's series, whose
    table length is instead derived from its spread bound: the two must
    agree bit for bit on every node set within that bound.
    """
    terms = 120
    h = [1.0] + [0.0] * terms
    for v in y:
        if v == 0.0:
            continue
        for j in range(1, terms + 1):
            h[j] += v * h[j - 1]
    total = 0.0
    fact = math.factorial(N)
    small = 0
    for j in range(terms + 1):
        term = h[j] / fact
        total += term
        fact *= N + j + 1
        if j > 4 and abs(term) < 1e-22 * abs(total):
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    return total


def exp_simplex_moments(simplex, a0, b, alphas, basis) -> list[float]:
    """Integrals of x^alpha e^{a0 + <b, x>} over a rational simplex, with the
    per-simplex basis routine ``basis(c, kappas)`` -> {kappa: divided
    difference of exp at 0 and each c_i repeated kappa_i + 1 times}: the
    reference for the exp branch of ``quadrature.simplex_moments``, bit for
    bit.

    Every call expands x = s0 + sum_i t_i e_i and each x^alpha anew, takes
    c_i = <b, e_i> and <b, s0> as Fraction-started sums (a float entry of b
    turns the sum into float sums), asks ``basis`` once for every t^kappa
    of the expansions and recombines the terms in the order of the
    expansion, with no float copies and no kept tables.
    """
    n = len(simplex) - 1
    s0 = simplex[0]
    edges = [tuple(x - y for x, y in zip(p, s0)) for p in simplex[1:]]
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    lines = []
    for j in range(n):
        line = {(0,) * n: _int_if_integral(s0[j])}
        for i, key in enumerate(units):
            if edges[i][j] != 0:
                line[key] = _int_if_integral(edges[i][j])
        lines.append(line)

    def power(beta):
        if not any(beta):
            return {(0,) * n: 1}
        j = max(i for i, x in enumerate(beta) if x)
        prev = power(beta[:j] + (beta[j] - 1,) + beta[j + 1:])
        out: dict = {}
        for ka, ca in prev.items():
            for kb, cb in lines[j].items():
                key = tuple(x + y for x, y in zip(ka, kb))
                out[key] = out.get(key, 0) + ca * cb
        return {k: v for k, v in out.items() if v != 0}

    def dot(u, v):
        return sum((x * y for x, y in zip(u, v)), Fraction(0))

    c = [float(dot(b, e)) for e in edges]
    pref = float(abs(_det_exact(edges))) * math.exp(float(a0) + float(dot(b, s0)))
    expansions = [power(tuple(alpha)) for alpha in alphas]
    values_of = basis(c, list(dict.fromkeys(k for e in expansions for k in e)))
    values = []
    for expansion in expansions:
        total = 0.0
        for kappa, coeff in expansion.items():
            total += float(coeff) * math.prod(math.factorial(k) for k in kappa) * values_of[kappa]
        values.append(pref * total)
    return values


def poly_simplex_moments(simplex, poly, alphas) -> list:
    """Integrals of x^alpha * sum_beta c_beta x^beta over a rational simplex,
    for the monomial dict ``poly`` = {beta: c_beta}: the reference for the
    polynomial branch of ``quadrature.simplex_moments``, bit for bit.

    Every call expands x = s0 + sum_i t_i e_i and each x^(alpha + beta) in
    Fractions, integrates each t^kappa over the standard simplex as
    kappa! / (n + |kappa|)!, and recombines in the kernel's order: per
    alpha, 0 + c_beta I_(alpha + beta) summed over ``poly`` in its order,
    times |det E| from ``_det_exact``.  A float c_beta makes the sum a
    float sum, as in the kernel.
    """
    n = len(simplex) - 1
    s0 = [Fraction(x) for x in simplex[0]]
    edges = [[Fraction(x) - y for x, y in zip(p, s0)] for p in simplex[1:]]

    def power(gamma):
        out = {(0,) * n: Fraction(1)}
        for j, k in enumerate(gamma):
            for _ in range(k):
                nxt: dict = {}
                for kappa, c in out.items():
                    nxt[kappa] = nxt.get(kappa, 0) + c * s0[j]
                    for i in range(n):
                        key = tuple(x + (i == m) for m, x in enumerate(kappa))
                        nxt[key] = nxt.get(key, 0) + c * edges[i][j]
                out = nxt
        return out

    def integral(gamma):
        return sum(
            (c * Fraction(math.prod(math.factorial(k) for k in kappa),
                          math.factorial(n + sum(kappa)))
             for kappa, c in power(gamma).items()),
            Fraction(0),
        )

    det = abs(_det_exact(edges))
    values = []
    for alpha in alphas:
        total = 0
        for beta, c in poly.items():
            total = total + c * integral(tuple(x + y for x, y in zip(alpha, beta)))
        values.append(det * total)
    return values


def _int_if_integral(x):
    return int(x) if isinstance(x, Fraction) and x.denominator == 1 else x


def _det_exact(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for col in range(len(a)):
        piv = next((r for r in range(col, len(a)) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, len(a)):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def unit_triangle_exp_moment(a0, b, i: int, j: int, dps: int = 40):
    """Integral of x^i y^j exp(a0 + b0 x + b1 y) over the unit triangle.

    mpmath tanh-sinh quadrature at ``dps`` digits over the unit square, with
    y = (1 - x) s; floats in a0 and b are taken at their exact binary value.
    """
    with mpmath.workdps(dps):
        a0, b0, b1 = (mpmath.mpf(v) for v in (a0, *b))

        def f(x, s):
            y = (1 - x) * s
            return x**i * y**j * mpmath.exp(a0 + b0 * x + b1 * y) * (1 - x)

        return mpmath.quad(f, [0, 1], [0, 1])


# ---------------------------------------------------------------------------
# brute-force Grundmann-Moller sums on subdivided simplices
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _gm_rule(n: int, s: int):
    """Grundmann-Moller rule of degree 2s+1 on the standard n-simplex.

    Returns (barycentric point matrix, weight vector); the weights sum to
    1/n!, the volume of the standard simplex.
    """
    d = 2 * s + 1
    pts = []
    wts = []
    for i in range(s + 1):
        denom = d + n - 2 * i
        w = Fraction((-1) ** i * denom**d, 4**s * math.factorial(i) * math.factorial(d + n - i))
        for part in _compositions(s - i, n + 1):
            pts.append([Fraction(2 * k + 1, denom) for k in part])
            wts.append(w)
    P = np.array([[float(x) for x in row] for row in pts], dtype=float)
    W = np.array([float(w) for w in wts], dtype=float)
    return P, W


def _split_triangle(verts: np.ndarray) -> list[np.ndarray]:
    """The four midpoint triangles of a triangle."""
    v0, v1, v2 = verts
    m01, m02, m12 = (v0 + v1) / 2, (v0 + v2) / 2, (v1 + v2) / 2
    return [
        np.array([v0, m01, m02]),
        np.array([v1, m01, m12]),
        np.array([v2, m02, m12]),
        np.array([m01, m12, m02]),
    ]


def _gm_apply(verts: np.ndarray, f, s: int):
    bary, w = _gm_rule(verts.shape[1], s)
    detE = abs(np.linalg.det((verts[1:] - verts[0]).T))
    return detE * (w @ f(bary @ verts))


def brute_gm(P, f, levels: int = 2, s: int = 6) -> float:
    """Grundmann-Moller at degree 2s+1 on each triangle of a polygon's
    triangulation, split 4**levels ways; ``f`` maps (k, 2) points to (k,)."""
    total = 0.0
    for simplex in P.triangulation:
        pieces = [np.array([[float(x) for x in p] for p in simplex])]
        for _ in range(levels):
            pieces = [c for piece in pieces for c in _split_triangle(piece)]
        total += sum(_gm_apply(c, f, s) for c in pieces)
    return total


# ---------------------------------------------------------------------------
# exact PL minimum by vertex enumeration in (x, t)-space
# ---------------------------------------------------------------------------


def _solve_exact(rows, rhs):
    """Gaussian elimination over Fractions; None when the matrix is singular."""
    a = [[Fraction(x) for x in r] + [Fraction(y)] for r, y in zip(rows, rhs)]
    k = len(a)
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][k] / a[i][i] for i in range(k)]


def polyhedron_vertices(constraints) -> list:
    """The sorted vertices of {x : <a, x> <= b}: every feasible point where
    n constraints with a nonsingular matrix hold with equality (Fractions)."""
    n = len(constraints[0][0])
    out = set()
    for combo in combinations(constraints, n):
        sol = _solve_exact([a for a, _ in combo], [b for _, b in combo])
        if sol is not None and all(
            sum(frac(x) * y for x, y in zip(a, sol)) <= frac(b) for a, b in constraints
        ):
            out.add(tuple(sol))
    return sorted(out)


def pl_minimum(P, pieces) -> Fraction:
    """Exact min over P of max_j (<a_j, x> + c_j).

    The epigraph {(x, t) : t >= <a_j, x> + c_j, <nu_i, x> <= 1} is a pointed
    polyhedron on which t is bounded below, so its minimum is attained at a
    vertex: a feasible point where n + 1 of the constraints are tight.
    """
    n = P.dim
    cons = [(tuple(frac(x) for x in a) + (Fraction(-1),), -frac(c)) for a, c in pieces]
    cons += [(tuple(nu) + (Fraction(0),), Fraction(1)) for nu in P.normals]
    best = None
    for combo in combinations(cons, n + 1):
        sol = _solve_exact([r for r, _ in combo], [b for _, b in combo])
        if sol is None:
            continue
        if all(sum(x * y for x, y in zip(r, sol)) <= b for r, b in cons):
            best = sol[n] if best is None else min(best, sol[n])
    return best


# ---------------------------------------------------------------------------
# finite-m filtration, one Fraction evaluation per lattice point
# ---------------------------------------------------------------------------


class LoopFiltration:
    """nu_m of a PL function f on the lattice points of mP, point by point.

    Each position f(u/m) is an exact Fraction; atoms are aggregated in a
    dict keyed by position, adding the weights in lattice order.
    """

    def __init__(self, P, g, f, m: int):
        U = P.lattice_points(m)
        weights = g.value(U.astype(float) / m)
        self.m = m
        self.scale = math.factorial(P.dim) / m**P.dim
        self.entries = []
        self.positions = []
        for u, w in zip(U, weights):
            x = [Fraction(int(v), m) for v in u]
            pos = max(sum(a_i * x_i for a_i, x_i in zip(a, x)) + c for a, c in f.pieces)
            self.positions.append(pos)
            self.entries.append((tuple(int(v) for v in u), float(m * pos), float(w)))

    def f_m(self, lam: float) -> float:
        thr = self.m * lam
        return self.scale * math.fsum(w for _, l, w in self.entries if l >= thr)

    @property
    def nu_atoms(self):
        agg = {}
        for (_, _, w), pos in zip(self.entries, self.positions):
            agg[pos] = agg.get(pos, 0.0) + w
        order = sorted(agg)
        return (np.array([float(p) for p in order]),
                np.array([self.scale * agg[p] for p in order]))

    @property
    def total_mass(self) -> float:
        return self.scale * math.fsum(w for _, _, w in self.entries)

    @property
    def mean(self) -> float:
        num = math.fsum(float(p) * w for (_, _, w), p in zip(self.entries, self.positions))
        return num / math.fsum(w for _, _, w in self.entries)


# ---------------------------------------------------------------------------
# the finite-m expected vanishing order, point by point
# ---------------------------------------------------------------------------


def s_g_lattice_points(P, g, a, m: int) -> float:
    """S_m(a) summed point by point over ``P.lattice_points(m)``:
    sum of g(u/m) (<a,u>/m - min_P <a,.>) over the sum of g(u/m), in floats.

    The reference for ``stability.s_g_lattice``, which sums the same terms
    column by column in closed form.
    """
    av = [Fraction(x) if isinstance(x, (int, Fraction)) else float(x) for x in a]
    X = P.lattice_points(m).astype(float) / m
    w = g.value(X)
    low = min(sum(x * y for x, y in zip(av, v)) for v in P.vertices)
    vals = X @ np.array([float(x) for x in av]) - float(low)
    return float(np.sum(w * vals) / np.sum(w))


def s_g_lattice_exact(P, g, a, m: int) -> Fraction:
    """S_m(a) in Fractions over ``brute_lattice_points`` for rational
    polynomial-kind g and a rational direction a."""
    av = [Fraction(x) for x in a]
    poly = g.as_poly(P.dim)
    low = min(sum(x * y for x, y in zip(av, v)) for v in P.vertices)
    num = den = Fraction(0)
    for u in brute_lattice_points(P, m):
        x = [Fraction(v, m) for v in u]
        w = sum(c * math.prod(xi**p for xi, p in zip(x, powers)) for powers, c in poly.items())
        num += w * (sum(ai * xi for ai, xi in zip(av, x)) - low)
        den += w
    return num / den


# ---------------------------------------------------------------------------
# brute-force membership grids
# ---------------------------------------------------------------------------


def grid_points(P, m: int):
    """Midpoint grid over the bounding box, filtered to the polytope."""
    verts = np.array([[float(x) for x in v] for v in P.vertices])
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    axes = [lo[d] + (hi[d] - lo[d]) * (np.arange(m) + 0.5) / m for d in range(P.dim)]
    pts = np.array(list(product(*axes)))
    normals = np.array([[float(x) for x in nu] for nu in P.normals])
    inside = np.all(pts @ normals.T <= 1.0 + 1e-12, axis=1)
    cell = float(np.prod((hi - lo) / m))
    return pts[inside], cell


def grid_integral(P, fn, m: int) -> float:
    pts, cell = grid_points(P, m)
    return float(np.sum(fn(pts)) * cell)


def brute_lattice_points(P, m: int) -> list[tuple[int, ...]]:
    """Integer points of mP in lexicographic order: every point of the exact
    bounding box, kept when <nu, u> <= m holds in Fractions for every facet
    normal nu."""
    box = [
        range(math.ceil(m * min(v[j] for v in P.vertices)),
              math.floor(m * max(v[j] for v in P.vertices)) + 1)
        for j in range(P.dim)
    ]
    return [
        u for u in product(*box)
        if all(sum(Fraction(a) * x for a, x in zip(nu, u)) <= m for nu in P.normals)
    ]


# ---------------------------------------------------------------------------
# brute-force minimization of the exponential energy W(xi) = int_P e^<xi,x>
# ---------------------------------------------------------------------------


def _dd1_exp_vec(a, b):
    """(e^a - e^b)/(a - b) elementwise, stable through coincident entries."""
    d = a - b
    safe = np.where(d != 0.0, d, 1.0)
    ratio = np.where(d != 0.0, np.expm1(d) / safe, 1.0)
    return np.exp(b) * ratio


def _dd2_exp_vec(a, b, c):
    """Second divided difference of exp on three value arrays.

    Sorted triples with a noticeable spread use the Newton quotient of two
    first divided differences; nearly coincident triples switch to the
    mean-centered series 1/2 - e2/4! + e3/5! + e2^2/6! (elementary-symmetric
    e_k of the centered values), whose truncation error is far below 1e-15
    at the 1e-3 crossover.
    """
    v = np.sort(np.stack([a, b, c]), axis=0)
    lo, mid, hi = v[0], v[1], v[2]
    wide = (hi - lo) > 1e-3
    den = np.where(wide, hi - lo, 1.0)
    out_wide = (_dd1_exp_vec(hi, mid) - _dd1_exp_vec(lo, mid)) / den
    mu = (lo + mid + hi) / 3.0
    x0, x1, x2 = lo - mu, mid - mu, hi - mu
    e2 = x0 * x1 + x0 * x2 + x1 * x2
    e3 = x0 * x1 * x2
    out_narrow = np.exp(mu) * (0.5 - e2 / 24.0 + e3 / 120.0 + e2 * e2 / 720.0)
    return np.where(wide, out_wide, out_narrow)


def exp_energy_on_grid(P, xi) -> float:
    """W(xi) = integral of e^<xi, x> over a 2D polytope, per-triangle exact."""
    total = 0.0
    for tri in P.triangulation:
        V = np.array([[float(c) for c in v] for v in tri])
        area = 0.5 * abs(
            (V[1, 0] - V[0, 0]) * (V[2, 1] - V[0, 1])
            - (V[2, 0] - V[0, 0]) * (V[1, 1] - V[0, 1])
        )
        vals = [np.array([xi[0] * V[k, 0] + xi[1] * V[k, 1]]) for k in range(3)]
        total += 2.0 * area * float(_dd2_exp_vec(*vals)[0])
    return total


def exp_energy_grid_argmin(P, lo=-2.0, hi=2.0, n=4001, block=64):
    """Argmin of W over the n x n grid on [lo, hi]^2, evaluated in row blocks."""
    tri_data = []
    for tri in P.triangulation:
        V = np.array([[float(c) for c in v] for v in tri])
        area = 0.5 * abs(
            (V[1, 0] - V[0, 0]) * (V[2, 1] - V[0, 1])
            - (V[2, 0] - V[0, 0]) * (V[1, 1] - V[0, 1])
        )
        tri_data.append((V, area))
    xs = np.linspace(lo, hi, n)
    best_val = math.inf
    best_xy = (math.nan, math.nan)
    for start in range(0, n, block):
        X = xs[start : start + block][:, None]
        Y = xs[None, :]
        W = np.zeros((X.shape[0], n))
        for V, area in tri_data:
            A = [X * V[k, 0] + Y * V[k, 1] for k in range(3)]
            W += (2.0 * area) * _dd2_exp_vec(A[0], A[1], A[2])
        k = int(np.argmin(W))
        i, j = divmod(k, n)
        if W[i, j] < best_val:
            best_val = float(W[i, j])
            best_xy = (float(X[i, 0]), float(xs[j]))
    return best_xy, best_val


# ---------------------------------------------------------------------------
# convex hull facets by brute-force hyperplane search (sympy)
# ---------------------------------------------------------------------------


def _primitive_ints(v) -> tuple[int, ...]:
    scale = math.lcm(*(x.denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def affine_rank(points) -> int:
    """Dimension of the affine hull of rational points (sympy rank)."""
    import sympy

    pts = [tuple(frac(x) for x in p) for p in points]
    rat = lambda x: sympy.Rational(x.numerator, x.denominator)  # noqa: E731
    diffs = [[rat(x - b) for x, b in zip(p, pts[0])] for p in pts[1:]]
    return sympy.Matrix(len(diffs), len(pts[0]), sum(diffs, [])).rank() if diffs else 0


def hull_normals(points):
    """Label-1 facet normals of conv(points), sorted by primitive normal.

    Every n points whose differences have a one-dimensional sympy nullspace
    span a hyperplane; it is a facet when all points lie on one side.  The
    normal nu is scaled so <nu, p> = 1 on the facet.  Returns None unless
    the hull is full-dimensional with the origin strictly inside.
    """
    import sympy

    pts = sorted({tuple(frac(x) for x in p) for p in points})
    n = len(pts[0])
    rat = lambda x: sympy.Rational(x.numerator, x.denominator)  # noqa: E731
    if affine_rank(pts) < n:
        return None
    normals = set()
    for combo in combinations(pts, n):
        rows = [rat(x - b) for p in combo[1:] for x, b in zip(p, combo[0])]
        ns = sympy.Matrix(n - 1, n, rows).nullspace()
        if len(ns) != 1:
            continue
        w = [Fraction(int(x.p), int(x.q)) for x in ns[0]]
        sides = [sum(a * b for a, b in zip(w, p)) for p in pts]
        c = sum(a * b for a, b in zip(w, combo[0]))
        if all(s >= c for s in sides):
            w, c = [-a for a in w], -c
        elif not all(s <= c for s in sides):
            continue
        if c <= 0:
            return None
        normals.add(tuple(a / c for a in w))
    return sorted(normals, key=_primitive_ints)


def tight_sets(vertices, constraints) -> tuple[frozenset, ...]:
    """For each constraint <a, x> <= b, the indices of the vertices where it
    holds with equality, by exact Fraction dot products."""
    return tuple(
        frozenset(
            j for j, v in enumerate(vertices)
            if sum(frac(x) * frac(y) for x, y in zip(a, v)) == frac(b)
        )
        for a, b in constraints
    )


def hull_vertices(points, normals) -> list:
    """The sorted vertices of conv(points) = {<nu, x> <= 1 for nu in normals}:
    the points whose tight normals have rank n (sympy)."""
    import sympy

    pts = sorted({tuple(frac(x) for x in p) for p in points})
    n = len(pts[0])
    rat = lambda x: sympy.Rational(x.numerator, x.denominator)  # noqa: E731
    out = []
    for p in pts:
        rows = [nu for nu in normals if sum(a * b for a, b in zip(nu, p)) == 1]
        if rows and sympy.Matrix(len(rows), n, [rat(x) for r in rows for x in r]).rank() == n:
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# 1D Monge-Ampère: the dense Legendre transform and the per-node functionals
# ---------------------------------------------------------------------------


def dense_conjugate(x, u, p):
    """max_i (x_i p_j - u_i) for every p_j, over one dense (M, N) array."""
    return np.max(x[None, :] * p[:, None] - u[None, :], axis=1)


def _weight_antiderivative(g):
    """A G with G' = g for a 1D weight, polynomials summed term by term."""
    if g.kind == "constant":
        return lambda p: float(g.a0) * p
    if g.kind == "affine":
        a0, b = float(g.a0), float(g.b[0])
        return lambda p: a0 * p + 0.5 * b * p**2
    if g.kind == "exp_affine":
        a0, b = float(g.a0), float(g.b[0])
        if b == 0.0:
            return lambda p: math.exp(a0) * p
        return lambda p: np.exp(a0 + b * p) / b
    terms = [(int(e[0]), float(c)) for e, c in g.coeffs]
    return lambda p: sum(c * p ** (k + 1) / (k + 1) for k, c in terms)


def loop_functionals(u, g, u0_values=None) -> dict:
    """E_g, Lambda_g, I_g, J_g, L, D, H_g, M with one flux evaluation per
    Gauss-Legendre node of the energy path, as a plain loop.  The edge
    slopes are those the potential carries; ``u0_values`` gets the slopes
    of its node values."""
    G = _weight_antiderivative(g)
    pmin, pmax = (float(v) for v in u.P.interval())
    h = u.grid.h

    def flux(slopes):
        s = np.concatenate(([pmin], slopes, [pmax]))
        return np.diff(G(s))

    if u0_values is None:
        base, base_slopes = u.ref_values, u.ref_slopes
    else:
        base = np.asarray(u0_values, float)
        base_slopes = np.diff(base) / h
    phi = u.values - base
    dphi = u.edge_slopes - base_slopes
    Vg = float(G(pmax) - G(pmin))
    tq, wq = np.polynomial.legendre.leggauss(16)
    E = 0.0
    for t, w in zip(0.5 * (tq + 1.0), 0.5 * wq):
        E += w * float(np.dot(phi, flux(base_slopes + t * dphi))) / Vg
    ma0, ma1 = flux(base_slopes), flux(u.edge_slopes)
    Lam = float(np.dot(phi, ma0)) / Vg
    Ival = float(np.dot(phi, ma0 - ma1)) / Vg
    J = Lam - E
    m_hat = np.exp(-base) / float(np.sum(np.exp(-base)))
    top = float(np.max(-phi))
    L = -(top + math.log(float(np.sum(m_hat * np.exp(-phi - top)))))
    nu = ma1 / Vg
    pos = nu > 0
    H = float(np.sum(nu[pos] * (np.log(nu[pos]) - np.log(m_hat[pos]))))
    return {"E_g": E, "Lambda_g": Lam, "I_g": Ival, "J_g": J, "L": L,
            "D": L - E, "H_g": H, "M": H + J - Ival}


# ---------------------------------------------------------------------------
# 1D Monge-Ampère: the generic shot loop and the half-slope validate
# ---------------------------------------------------------------------------


def shoot_reference(Ginv, w0, h, n, y_lo, y_hi):
    """One shot of the c = 1 flux system as a generic loop over a scalar G^{-1}.

    From base value w0, n steps y += h e^{-w}, s = G^{-1}(y), w += h s from
    the running mass y_lo; returns the slopes and the closing defect
    (y + h e^{-w}) - y_hi, or the slopes so far and 1e300 once w < -500.
    """
    slopes = []
    wk, y = w0, y_lo
    for _ in range(n):
        if wk < -500.0:
            return slopes, 1e300
        y += h * math.exp(-wk)
        sk = Ginv(y)
        wk += h * sk
        slopes.append(sk)
    return slopes, (y + h * math.exp(-wk)) - y_hi


def affine_inverse(a0: float, beta: float):
    """G^{-1}(y) = 2y / (a0 + sqrt(a0^2 + 2 beta y)) of G = p (a0 + beta p / 2)."""
    a2, b2 = a0 * a0, 2.0 * beta

    def inv(y):
        d = a2 + b2 * y
        return (y + y) / (a0 + math.sqrt(d if d > 0.0 else 0.0))

    return inv


def half_slope_verdict(u, convex_tol: float, slope_tol: float) -> str | None:
    """The convexity and gradient checks of a potential on its full row of
    half-slopes, ghosts included: None if it passes, or the message of the
    failed check."""
    pmin, pmax = u.slopes
    s = np.concatenate(([pmin], u.edge_slopes, [pmax]))
    if np.any(np.diff(s) < -convex_tol):
        return f"second differences reach {float(np.min(np.diff(s))):.3e}"
    if np.min(s) < pmin - slope_tol or np.max(s) > pmax + slope_tol:
        return "gradient leaves the closure of the polytope"
    return None
