"""Weighted volumes, barycenters, Futaki invariants, and soliton solvers.

The weighted volume convention is V_g = n! * integral_P g dx, so that for
g = 1 it matches the degree-style normalization rather than the bare
Euclidean volume.  The generalized Futaki invariant on the torus directions
reduces to minus the weighted barycenter pairing, so "Futaki vanishes"
and "weighted barycenter = 0" are the same criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import _exact, quadrature
from ._exact import np
from .errors import MaxIterations, SingularMomentMatrix
from .polytope import LabelledPolytope, _integral_row
from .quadrature import WeightFunction, encode_number

#: Newton stopping rule of ``solve_kr_soliton``: |grad W| / W below _KR_TOL
#: within _KR_MAX_ITER steps
_KR_TOL = 1e-12
_KR_MAX_ITER = 200

# ---------------------------------------------------------------------------
# volumes, marginals, barycenters, Futaki
# ---------------------------------------------------------------------------


def weighted_volume(P: LabelledPolytope, g: WeightFunction) -> float:
    """V_g = n! * integral_P g dx."""
    g.check_positive(P)
    return math.factorial(P.dim) * float(quadrature.moments(P, g, 0)[(0,) * P.dim])


def weighted_volume_exact(P: LabelledPolytope, g: WeightFunction) -> Fraction:
    """Exact rational V_g for polynomial-kind weights with rational data."""
    mass = quadrature.moments(P, g, 0)[(0,) * P.dim]
    if not isinstance(mass, Fraction):
        raise ValueError("the weight data has no exact moments")
    return math.factorial(P.dim) * mass


def dh_marginal(P: LabelledPolytope, a, t: float) -> float:
    """Density at t of the pushforward of Lebesgue measure under <a, .>.

    Piecewise polynomial of degree <= n-1 in t, supported on
    [support_min, support_max] of the direction, integrating to vol(P).
    For a unit direction this is the (n-1)-volume of the slice
    P intersect {<a,x> = t}.  Computed as a sum of normalized B-splines,
    one per triangulation simplex, with knots <a, v> at its vertices and
    the volume |det E| / n! that the moment kernel keeps for it.
    """
    a = _exact.direction(a, P.dim)
    t = float(t)
    total = 0.0
    for volume, knots in _marginal_splines(P, a):
        total += volume * _mspline(knots, t, P.dim)
    return total


def _marginal_splines(P: LabelledPolytope, a) -> list:
    """(|det E| / n!, sorted knots <a, v>) of each simplex of P.triangulation
    with |det E| > 0, for the direction ``a``.

    They depend on P and a alone, so P keeps those of the latest direction,
    one entry, which a scan over t reads.  The key holds the entry types: a
    float and a Fraction direction with equal values have different knots.
    """
    key = tuple((type(x), x) for x in a)
    kept = P._moment_cache.get("marginal")
    if kept is None or kept[0] != key:
        n = P.dim
        splines = [
            (float(S.det / math.factorial(n)), sorted(float(_exact.dot(a, v)) for v in simplex))
            for simplex, S in zip(P.triangulation, quadrature._simplices(P))
            if S.det
        ]
        P._moment_cache["marginal"] = kept = (key, splines)
    return kept[1]


def _mspline(z, t: float, n: int) -> float:
    """M(t | z) = n * dd[(x - t)_+^{n-1}] over the n + 1 sorted knots z.

    The Cox-de Boor recurrence on the half-open spans (z_i, z_{i+1}]: its
    weights lie in [0, 1], and a B-spline over a zero span is zero, so tied
    or nearly tied knots need no special case.
    """
    b = [1.0 if z[i] < t <= z[i + 1] else 0.0 for i in range(n)]
    for k in range(1, n):
        b = [
            _ramp(t - z[i], z[i + k] - z[i], b[i])
            + _ramp(z[i + k + 1] - t, z[i + k + 1] - z[i + 1], b[i + 1])
            for i in range(n - k)
        ]
    return n * b[0] / (z[n] - z[0])


def _ramp(rise: float, span: float, b: float) -> float:
    """rise / span * b, or 0 where b = 0: only there can the span be empty."""
    return rise / span * b if b else 0.0


def _first_moments(P: LabelledPolytope, g: WeightFunction):
    """(integral_P g, [integral_P x_i g for each i]).

    Fractions for polynomial-kind weights with rational data, else floats:
    their type says whether a result built from them is exact.
    """
    M = quadrature.moments(P, g, 1)
    return M[(0,) * P.dim], [M[e] for e in quadrature._units(P.dim)]


def weighted_barycenter(P: LabelledPolytope, g: WeightFunction) -> np.ndarray:
    """b_g with components integral(x_i g) / integral(g) over P."""
    return np.array(_zero_barycenter(P, g, 0.0)[0])


def _zero_barycenter(P: LabelledPolytope, g: WeightFunction, tol: float):
    """(b_g as a tuple of floats, whether b_g = 0, the rule that decided it).

    The rule is "exact" where the moments are, else "tol": |b_g| < tol.
    """
    g.check_positive(P)
    mass, first = _first_moments(P, g)
    b = tuple(float(x) / float(mass) for x in first)
    if isinstance(mass, Fraction):
        return b, not any(first), "exact"
    return b, _norm(b) < tol, "tol"


def _dot(x, y) -> float:
    """<x, y> of two float sequences, summed left to right."""
    return sum(a * b for a, b in zip(x, y, strict=True))


def _norm(x) -> float:
    """Euclidean norm of a float sequence."""
    return math.sqrt(_dot(x, x))


def futaki(P: LabelledPolytope, g: WeightFunction, xi) -> float:
    """Generalized Futaki invariant of the torus direction xi.

    Fut_g(xi) = -(n!/V_g) * integral_P <xi,x> g dx, which equals
    -<xi, weighted_barycenter(P, g)>; it vanishes for all xi exactly when
    the weighted barycenter does.
    """
    g.check_positive(P)
    xi = _exact.vector(xi, P.dim)
    mass, first = _first_moments(P, g)
    return -sum(x * float(f) for x, f in zip(xi, first) if x != 0) / float(mass)


# ---------------------------------------------------------------------------
# soliton solvers
# ---------------------------------------------------------------------------


@dataclass
class SolitonSolution:
    """Result of a soliton solve.

    ``xi`` is the vector field parameter (Kähler–Ricci case, a tuple of
    floats), ``b`` the affine slope (Mabuchi case, a tuple of Fractions);
    ``weight`` is the induced weight function, ``residual`` the sup-norm of
    its weighted barycenter, and ``feasible`` records positivity of the
    weight on the polytope (exact at vertices).
    """

    kind: str
    weight: WeightFunction
    residual: float
    feasible: bool
    xi: tuple | None = None
    b: tuple | None = None
    iterations: int = 0
    history: list = field(default_factory=list)

    def to_dict(self) -> dict:
        d: dict = {
            "kind": self.kind,
            "residual": self.residual,
            "feasible": self.feasible,
            "iterations": self.iterations,
            "weight": self.weight.to_dict(),
        }
        if self.xi is not None:
            d["xi"] = [float(x) for x in self.xi]
        if self.b is not None:
            d["b"] = [encode_number(x) for x in self.b]
        return d


def _first_and_second(M: dict, n: int):
    """First moments and the second moment matrix from a degree-2 moments dict."""
    units = quadrature._units(n)
    first = [M[e] for e in units]
    second = [[M[tuple(a + b for a, b in zip(ei, ej))] for ej in units] for ei in units]
    return first, second


def _exp_moments(P: LabelledPolytope, g: WeightFunction):
    """W, grad W, Hess W at xi, for W(xi) = integral_P g and g = e^{<xi,x>}."""
    M = quadrature.moments(P, g, 2)
    grad, hess = _first_and_second(M, P.dim)
    return M[(0,) * P.dim], grad, hess


def _solve(a: list[list[float]], rhs: list[float]) -> list[float]:
    """x with a x = rhs, by Gaussian elimination with partial pivoting.

    Raises SingularMomentMatrix on a zero pivot.
    """
    n = len(rhs)
    rows = [list(r) + [y] for r, y in zip(a, rhs)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        if rows[p][k] == 0:
            raise SingularMomentMatrix("exponential moment Hessian is singular")
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        for r in rows[k + 1 :]:
            f = r[k] / pivot[k]
            for j in range(k + 1, n + 1):
                r[j] -= f * pivot[j]
    x = [0.0] * n
    for k in reversed(range(n)):
        r = rows[k]
        x[k] = (r[n] - sum(r[j] * x[j] for j in range(k + 1, n))) / r[k]
    return x


def _moved(xi: tuple, t: float, step: list) -> tuple:
    """xi + t * step, entrywise."""
    return tuple(x + t * s for x, s in zip(xi, step))


def solve_kr_soliton(P: LabelledPolytope) -> SolitonSolution:
    """Minimize W(xi) = integral_P e^{<xi,x>} dx by damped Newton.

    W is smooth, strictly convex, and proper because 0 is interior to P, so
    the minimizer exists and is unique; at it the weighted barycenter of
    e^{<xi,x>} vanishes.  Convergence criterion: |grad W| / W < _KR_TOL.
    """
    n = P.dim
    xi = (0.0,) * n
    weight = WeightFunction.exp_affine(0.0, xi)
    W, grad, hess = _exp_moments(P, weight)
    history = [_norm(grad) / W]
    for _ in range(_KR_MAX_ITER):
        if history[-1] < _KR_TOL:
            break
        step = _solve(hess, [-x for x in grad])
        slope = _dot(grad, step)
        t = 1.0
        for _ in range(60):
            weight = WeightFunction.exp_affine(0.0, _moved(xi, t, step))
            W_new = quadrature.moments(P, weight, 0)[(0,) * n]
            # W is known only to rounding, so near the minimum a decrease
            # below that level is accepted instead of being halved away
            if W_new <= W + 1e-4 * t * slope + 1e-14 * W or t < 1e-18:
                break
            t *= 0.5
        else:
            # t was halved after the last trial
            weight = WeightFunction.exp_affine(0.0, _moved(xi, t, step))
        xi = _moved(xi, t, step)
        # an accepted trial weight serves its kept degree-0 moment here
        W, grad, hess = _exp_moments(P, weight)
        history.append(_norm(grad) / W)
    else:
        raise MaxIterations(
            f"Newton did not reach |grad W|/W < {_KR_TOL} in {_KR_MAX_ITER} iterations"
        )
    # the weight of the last Newton step, whose kept moments give b_g
    residual = max(map(abs, _zero_barycenter(P, weight, 0.0)[0]))
    return SolitonSolution(
        kind="kr",
        weight=weight,
        residual=residual,
        feasible=True,
        xi=xi,
        iterations=len(history) - 1,
        history=history,
    )


def solve_mabuchi_soliton(P: LabelledPolytope) -> SolitonSolution:
    """Solve the affine moment system for the Mabuchi weight g = 1 + <b,x>.

    The linear system M b = -beta (M the second moment matrix, beta the
    first moments) is solved exactly, each equation scaled to integers, so
    the defining equations integral_P x_i (1 + <b,x>) dx = 0 hold
    identically and the reported residual is exactly zero.  Feasibility
    (g > 0 on P) is decided exactly at the vertices.
    """
    n = P.dim
    beta, M = _first_and_second(quadrature.moments(P, WeightFunction.constant(1), 2), n)
    rows = [_integral_row(M[i], -beta[i]) for i in range(n)]
    sol = _exact.int_solve([a for a, _ in rows], [r for _, r in rows])
    if sol is None:
        raise SingularMomentMatrix("second moment matrix is singular")
    b = [Fraction(x, sol[1]) for x in sol[0]]
    weight = WeightFunction.affine(Fraction(1), b)
    margins = [1 + _exact.dot(b, v) for v in P.vertices]
    feasible = min(margins) > 0
    # defining equations hold identically in rational arithmetic
    residual_terms = [
        beta[i] + sum(M[i][j] * b[j] for j in range(n)) for i in range(n)
    ]
    residual = float(max(abs(r) for r in residual_terms)) if n else 0.0
    return SolitonSolution(
        kind="mabuchi",
        weight=weight,
        residual=residual,
        feasible=bool(feasible),
        b=tuple(b),
        iterations=0,
    )
