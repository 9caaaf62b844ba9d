"""1D real Monge-Ampère solver and the Archimedean functional suite.

The potential u lives on a uniform grid over [-R, R] in the log-toric
coordinate, extended by affine tails whose slopes are exactly the endpoint
values of the 1D polytope.  A potential is its edge slopes
s_{k+1/2} = (u_{k+1} - u_k)/h and one base value, with the node values as
their running sum; the solver keeps the slopes it shoots, and the
reference, random and ray potentials take theirs as closed-form secants,
so they are convex by construction.  The discrete Monge-Ampère operator is
in flux form: with G an antiderivative of the weight g, the cell mass is

    MA_k(u) = G(s_{k+1/2}) - G(s_{k-1/2}),

with the ghost slopes s_{-1/2} = p_min and s_{N-1/2} = p_max held fixed.
This discretization is second-order equivalent to g(u')u'' dx and has two
structural properties the functional suite leans on: the total mass
telescopes to the constant integral of g over P for every potential, and
the energy 1-form sum(phi_k MA_k(u_t)) is exactly closed, so energy path
integrals are path-independent at the discrete level (cocycle, translation
invariance, and the monotonicity inequalities hold to float rounding, not
to grid resolution).

Every weight reaches this module through one kernel, ``_weight_1d``: G with
G(0) = 0, its mean along an edge and its inverse, free of cancellation.
``functionals`` integrates the energy along the affine path in closed form.
Every edge slope moves linearly along that path, so after summation by
parts the path integral is a sum of means of G along the edges, and it
needs the slopes of the two ends only.  The destabilizing ray of
``ding_ray_diagnostic`` is a translation of the reference potential.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from functools import cached_property

from . import quadrature
from ._exact import lazy, np
from .errors import (
    NewtonDiverged,
    NonConvexInput,
    NumericalFailure,
    SchemaViolation,
    ValidationError,
    WindowTooSmall,
)
from .polytope import LabelledPolytope
from .quadrature import WeightFunction, decode_number

# only ``ding_ray_diagnostic`` calls them
invariants = lazy(f"{__package__}.invariants")
stability = lazy(f"{__package__}.stability")

#: ``DiscretePotential.validate`` tolerances: how far the half-slopes may
#: decrease (second differences) and leave [p_min, p_max]
_CONVEX_TOL = 1e-12
_SLOPE_TOL = 1e-9

#: orders j of the moments integral p^j compared by ``pushforward_moments``
_PUSHFORWARD_ORDERS = (0, 1, 2)

# ---------------------------------------------------------------------------
# grid and potentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid1D:
    """Uniform nodes on [-R, R]."""

    R: float = 12.0
    N: int = 2001

    def __post_init__(self):
        if self.N < 9:
            raise ValidationError("grid needs at least 9 nodes")
        if self.R <= 0:
            raise ValidationError("window radius must be positive")

    @property
    def h(self) -> float:
        return 2.0 * self.R / (self.N - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(-self.R, self.R, self.N)

    @property
    def mid_index(self) -> int:
        return (self.N - 1) // 2

    def to_dict(self) -> dict:
        return {"R": self.R, "N": self.N}

    @staticmethod
    def from_dict(d, pointer: str) -> "Grid1D":
        """The grid of ``{"R": radius, "N": nodes}``; errors point under ``pointer``."""
        if not isinstance(d, dict) or "R" not in d or "N" not in d:
            raise SchemaViolation("grid needs 'R' and 'N'", pointer)
        R = decode_number(d["R"], f"{pointer}/R")
        N = decode_number(d["N"], f"{pointer}/N")
        if N != int(N):
            raise SchemaViolation(f"N must be an integer, got {d['N']!r}", f"{pointer}/N")
        try:
            return Grid1D(R=float(R), N=int(N))
        except ValidationError as exc:
            raise SchemaViolation(str(exc), pointer)


def _endpoint_slopes(P: LabelledPolytope) -> tuple[float, float]:
    if P.dim != 1:
        raise ValidationError("the Monge-Ampère machinery is one-dimensional")
    # the vertices of a 1D polytope are its two endpoints, sorted
    (lo,), (hi,) = P.vertices_f.tolist()
    return lo, hi


@dataclass
class DiscretePotential:
    """Grid potential with affine tails at the exact polytope slopes.

    A potential is its value u_0 at the left node and its N - 1 edge slopes
    ``edge_slopes`` s_{k+1/2} = (u_{k+1} - u_k)/h; ``values`` holds the
    cumulative sum u_k.  Potentials the package builds carry slopes from a
    closed form or from the solver (``with_slopes``); a potential given as
    values (a file, a test) derives its slopes here, once.  The tails extend
    affinely with slopes p_min (left) and p_max (right), so the gradient
    image is the closed polytope interval.  ``ref_values`` and ``ref_slopes``
    are the values and slopes of the reference potential u0; ``c`` is the
    Monge-Ampère normalization constant when the potential came out of the
    solver.
    """

    grid: Grid1D
    P: LabelledPolytope
    values: np.ndarray
    ref_values: np.ndarray
    c: float | None = None
    residual: float | None = None
    # solve_ma runs no iterations; the solve-ma report and the tracer read
    # iterations (0) and history ([residual]) all the same
    iterations: int = 0
    tail_gap: float = math.nan
    history: list = field(default_factory=list)
    edge_slopes: np.ndarray | None = None
    ref_slopes: np.ndarray | None = None

    def __post_init__(self):
        if self.edge_slopes is None:
            self.edge_slopes = np.diff(self.values) / self.grid.h
        if self.ref_slopes is None:
            self.ref_slopes = np.diff(self.ref_values) / self.grid.h

    def with_slopes(self, base: float, slopes: np.ndarray, **kw) -> "DiscretePotential":
        """The potential with u_0 = ``base`` and edge slopes ``slopes``, over this reference.

        Its values are the running sums u_{k+1} = u_k + h s_{k+1/2}, in the
        order of the solver's shot.
        """
        return DiscretePotential(
            grid=self.grid,
            P=self.P,
            values=np.cumsum(np.concatenate(([base], self.grid.h * slopes))),
            ref_values=self.ref_values,
            edge_slopes=slopes,
            ref_slopes=self.ref_slopes,
            **kw,
        )

    @property
    def slopes(self) -> tuple[float, float]:
        return _endpoint_slopes(self.P)

    def half_slopes(self) -> np.ndarray:
        """One-sided slopes s_{-1/2}, ..., s_{N-1/2} with pinned ghosts."""
        return _ghosted(self.edge_slopes, *self.slopes)

    def validate(self) -> None:
        """Raise NonConvexInput unless the half-slopes (the edge slopes
        between the ghosts p_min and p_max) increase to within
        ``_CONVEX_TOL`` and stay within ``_SLOPE_TOL`` of [p_min, p_max].

        The ghost half-slopes are p_min and p_max themselves, so the tests
        read the edge slopes and the two ghost differences only.
        """
        e = self.edge_slopes
        pmin, pmax = self.slopes
        if (
            e[0] - pmin < -_CONVEX_TOL
            or pmax - e[-1] < -_CONVEX_TOL
            or (e[1:] - e[:-1] < -_CONVEX_TOL).any()
        ):
            worst = float(np.min(np.diff(self.half_slopes())))
            raise NonConvexInput(f"second differences reach {worst:.3e}")
        if e.min() < pmin - _SLOPE_TOL or e.max() > pmax + _SLOPE_TOL:
            raise NonConvexInput("gradient leaves the closure of the polytope")

    def shifted(self, kappa: float) -> "DiscretePotential":
        return self.with_slopes(float(self.values[0]) + kappa, self.edge_slopes, c=self.c)

    def along(self, t: float) -> "DiscretePotential":
        """The segment potential u0 + t (u - u0)."""
        r0 = float(self.ref_values[0])
        return self.with_slopes(
            r0 + t * (float(self.values[0]) - r0),
            self.ref_slopes + t * (self.edge_slopes - self.ref_slopes),
        )

    def to_dict(self) -> dict:
        d = {
            "grid": self.grid.to_dict(),
            "values": [float(v) for v in self.values],
        }
        if self.c is not None:
            d["c"] = self.c
        return d

    @staticmethod
    def from_dict(d: dict, P: LabelledPolytope) -> "DiscretePotential":
        if not isinstance(d, dict) or "grid" not in d or "values" not in d:
            raise SchemaViolation("potential needs 'grid' and 'values'", "/potential")
        grid = Grid1D.from_dict(d["grid"], "/potential/grid")
        raw = d["values"]
        if not isinstance(raw, list) or len(raw) != grid.N:
            raise SchemaViolation(f"expected a list of {grid.N} values", "/potential/values")
        values = np.array(
            [float(decode_number(v, f"/potential/values/{i}")) for i, v in enumerate(raw)]
        )
        c = float(decode_number(d["c"], "/potential/c")) if "c" in d else None
        ref = reference_potential(P, grid)
        return DiscretePotential(
            grid=grid, P=P, values=values, ref_values=ref.values, c=c, ref_slopes=ref.edge_slopes
        )


def _ghosted(e: np.ndarray, pmin: float, pmax: float) -> np.ndarray:
    """The edge slopes ``e`` between the ghost half-slopes p_min and p_max."""
    s = np.empty(len(e) + 2)
    s[1:-1] = e
    s[0] = pmin
    s[-1] = pmax
    return s


def _softplus_step(z: np.ndarray, d: float) -> np.ndarray:
    """softplus(z + d) - softplus(z), softplus = log(1 + e^z), free of cancellation.

    Below |d| = 1 it is log1p(expm1(d) sigmoid(z)), accurate relative to the
    result however small d is; above, softplus(z) = max(z, 0) +
    softplus(-|z|) splits off the part of each term that the difference
    would cancel.
    """
    if abs(d) < 1.0:
        with np.errstate(over="ignore"):  # e^{-z} = inf gives sigmoid 0
            return np.log1p(math.expm1(d) / (1.0 + np.exp(-z)))
    zd = z + d
    return (np.maximum(zd, 0.0) - np.maximum(z, 0.0)) + (
        _softplus(-np.abs(zd)) - _softplus(-np.abs(z))
    )


def _softplus(z):
    return np.logaddexp(0.0, z)


def _u0_translate(grid: Grid1D, pmin: float, pmax: float, shift: float):
    """u0(x_0 + shift) and the secant slopes of u0 over [x_k + shift, x_k + shift + h].

    u0(y) = log(e^{p_min y} + e^{p_max y}) = p_min y + softplus((p_max - p_min) y),
    so each secant is p_min plus a softplus step over h.
    """
    y = grid.nodes[:-1] + shift
    w = pmax - pmin
    base = float(np.logaddexp(pmin * y[0], pmax * y[0]))
    return base, pmin + _softplus_step(w * y, w * grid.h) / grid.h


def reference_potential(P: LabelledPolytope, grid: Grid1D | None = None) -> DiscretePotential:
    """u0(x) = log(e^{p_min x} + e^{p_max x}) on the grid, from its secant slopes.

    Strictly convex, with gradient filling the open polytope interval and
    the exact endpoint slopes at infinity; u0(0) = log 2.
    """
    grid = grid or Grid1D()
    base, slopes = _u0_translate(grid, *_endpoint_slopes(P), 0.0)
    vals = np.cumsum(np.concatenate(([base], grid.h * slopes)))
    return DiscretePotential(
        grid=grid, P=P, values=vals, ref_values=vals.copy(), edge_slopes=slopes, ref_slopes=slopes
    )


def random_potential(
    P: LabelledPolytope, grid: Grid1D | None = None, seed=0
) -> DiscretePotential:
    """A random convex potential with gradient strictly inside P.

    Construction: (1 - tau) u0 plus at most five softplus bumps whose total
    slope budget is capped at tau times the endpoint slopes, plus a random
    constant.  The slopes are the bumps' secants in closed form, so
    convexity (monotone slopes) and the gradient constraint hold by
    construction.
    """
    return _random_potential(reference_potential(P, grid), seed)


def _random_potential(ref: DiscretePotential, seed) -> DiscretePotential:
    """``random_potential`` over the reference potential ``ref``, its grid and polytope."""
    pmin, pmax = ref.slopes
    rng = np.random.default_rng(seed)
    tau = 0.3
    base = (1.0 - tau) * float(ref.values[0])
    slopes = (1.0 - tau) * ref.edge_slopes
    x, h = ref.grid.nodes[:-1], ref.grid.h
    nb = int(rng.integers(1, 6))
    raw = rng.uniform(0.2, 1.0, size=nb)
    signs = rng.choice([-1.0, 1.0], size=nb)
    centers = rng.uniform(-4.0, 4.0, size=nb)
    rates = rng.uniform(0.5, 3.0, size=nb)
    pos_total = float(np.sum(raw[signs > 0])) or 1.0
    neg_total = float(np.sum(raw[signs < 0])) or 1.0
    pos_budget = 0.9 * tau * pmax
    neg_budget = 0.9 * tau * (-pmin)
    for i in range(nb):
        # the bump s softplus(r (x - c)) / rate, with r = -rate if it opens left
        if signs[i] > 0:
            s, r = raw[i] / pos_total * pos_budget, rates[i]
        else:
            s, r = raw[i] / neg_total * neg_budget, -rates[i]
        z = r * (x - centers[i])
        base += s * float(_softplus(z[0])) / rates[i]
        slopes = slopes + s / rates[i] * (_softplus_step(z, r * h) / h)
    base += rng.uniform(-1.0, 1.0)
    out = ref.with_slopes(base, slopes)
    out.validate()
    return out


# ---------------------------------------------------------------------------
# the 1D weight kernel: G (G' = g, G(0) = 0), its edge mean and its inverse
# ---------------------------------------------------------------------------


#: F(d) = (expm1(-d) + d) / d^2 of the exp edge mean comes from its series
#: sum_k (-d)^k / (k + 2)! below d = 1/4, where 11 terms reach 4e-17
_F_SERIES_CUT = 0.25
_F_SERIES = [(-1.0) ** k / math.factorial(k + 2) for k in range(11)][::-1]


def _weight_1d(g: WeightFunction, pmin: float, pmax: float):
    """(G, mean, Ginv, shoot) of a 1D weight; the only reader of ``g.kind`` here.

    G' = g with G(0) = 0, so the flux masses diff(G(s)) carry no offset.  G
    and the edge mean (a, b, G(a), G(b)) -> int_0^1 G(b + r (a - b)) dr take
    arrays and cancel nothing as a -> b or as the slope beta -> 0.  Ginv is
    scalar and monotone-extended past [pmin, pmax], which only trial shots
    whose running mass overshoots the target reach.  The forms:

    * constant, and exp_affine at beta = 0 (the constant e^{a0}): G = a0 p
      and Ginv(y) = y / a0, where a0 = g(0) > 0 since the origin is interior;
    * affine: G = p (a0 + beta p / 2) and
      Ginv(y) = 2y / (a0 + sqrt(a0^2 + 2 beta y));
    * exp_affine: G = e^{a0} expm1(beta p) / beta, taken as
      p e^{a0 + max(z, 0)} E(|z|) with z = beta p and E(d) = -expm1(-d) / d,
      so that no factor overflows and a tiny z loses nothing; the mean
      is G(top) E(d) + e^{a0} (bot - top) F(d), d = |beta (a - b)|, at the
      end ``top`` with the larger exponent; Ginv(y) = log1p(beta y e^{-a0}) / beta;
    * polynomial: Horner for G; the mean of p^j is h_j(a, b) / (j + 1) with
      h_j = a h_{j-1} + b^j, h_0 = 1; Ginv is Newton inside a sign bracket.

    ``shoot(w0, h, n, y_lo, y_hi)`` is the shot loop of ``solve_ma`` for the
    kind: from base value w0 it takes n steps y += h e^{-w}, s = Ginv(y),
    w += h s from the running mass y_lo = G(pmin), and returns the slopes
    and the closing defect (y + h e^{-w}) - y_hi.  A shot stops once w falls
    below -500, where its mass is far past the target, and returns its
    slopes so far with the defect 1e300 (its sign only).  The closed forms
    run Ginv inline in the same float operations as ``Ginv``, and the
    polynomial kind calls its Newton ``Ginv``.
    """
    if g.dim not in (None, 1):
        raise ValidationError("weight must be one-dimensional")
    if g.kind == "polynomial":
        gc, Gc = _poly_coeffs(g)
        Gl = Gc[::-1]  # lowest degree first, Gl[0] = G(0) = 0

        def G_poly(p):
            return _horner(Gc, np.asarray(p, dtype=float))

        def mean_poly(a, b, *_):
            hj = bj = 1.0
            acc = Gl[0]
            for j in range(1, len(Gl)):
                bj = bj * b
                hj = a * hj + bj
                acc = acc + Gl[j] / (j + 1) * hj
            return acc

        glo, ghi = _horner(gc, pmin), _horner(gc, pmax)
        Glo, Ghi = _horner(Gc, pmin), _horner(Gc, pmax)
        last = pmin  # warm start: along a shot the slopes increase

        def inv_poly(y: float) -> float:
            """Newton on G(p) - y, kept inside the shrinking sign bracket."""
            nonlocal last
            if y <= Glo:
                return pmin + (y - Glo) / glo
            if y >= Ghi:
                return pmax + (y - Ghi) / ghi
            a, b = pmin, pmax
            p = last
            for _ in range(200):
                f = _horner(Gc, p) - y
                if f < 0.0:
                    a = p
                elif f > 0.0:
                    b = p
                else:
                    break
                q = p - f / _horner(gc, p)
                if not a < q < b:
                    q = 0.5 * (a + b)
                done = abs(q - p) <= 1e-15 + _RTOL * abs(q)
                p = q
                if done:
                    break
            last = p
            return p

        def shoot_poly(w0, h, n, y_lo, y_hi):
            slopes = []
            append, exp = slopes.append, math.exp
            wk, y = w0, y_lo
            for _ in range(n):
                if wk < -500.0:
                    return slopes, 1e300
                y += h * exp(-wk)
                sk = inv_poly(y)
                wk += h * sk
                append(sk)
            return slopes, (y + h * exp(-wk)) - y_hi

        return G_poly, mean_poly, inv_poly, shoot_poly
    a0 = float(g.a0)
    beta = float(g.b[0]) if g.b else 0.0
    exp = g.kind == "exp_affine"
    if exp and beta == 0.0:  # the constant e^{a0}
        exp, a0 = False, math.exp(a0)
    if exp:
        ea0 = math.exp(a0)
        top_of = np.maximum if beta > 0 else np.minimum  # G(top), as G increases

        def G_exp(p):
            z = beta * np.asarray(p, float)
            nd = np.minimum(-np.abs(z), -1e-300)  # E(|z|) is 1 below 1e-300
            return p * np.exp(a0 + np.maximum(z, 0.0)) * (np.expm1(nd) / nd)

        def mean_exp(a, b, Ga, Gb):
            delta = np.abs(a - b)
            d = abs(beta) * delta
            x = np.minimum(d, _F_SERIES_CUT)
            F = x * _F_SERIES[0] + _F_SERIES[1]
            for c in _F_SERIES[2:]:  # Horner, in place
                F *= x
                F += c
            E = 1.0 - d * F  # cancels nothing below the cut
            big = d >= _F_SERIES_CUT
            if big.any():
                db = d[big]
                em = np.expm1(-db)
                F[big], E[big] = (em + db) / (db * db), -em / db
            return top_of(Ga, Gb) * E - math.copysign(ea0, beta) * delta * F

        scale = beta / ea0
        over = pmin - 64.0 if beta > 0 else pmax + 64.0

        def inv_exp(y: float) -> float:
            t = y * scale
            if t <= -1.0:
                # only reachable on bracket overshoot; answer far past range
                return over
            return math.log1p(t) / beta

        def shoot_exp(w0, h, n, y_lo, y_hi):
            slopes = []
            append, exp, log1p = slopes.append, math.exp, math.log1p
            wk, y = w0, y_lo
            for _ in range(n):
                if wk < -500.0:
                    return slopes, 1e300
                y += h * exp(-wk)
                t = y * scale
                sk = over if t <= -1.0 else log1p(t) / beta
                wk += h * sk
                append(sk)
            return slopes, (y + h * exp(-wk)) - y_hi

        return G_exp, mean_exp, inv_exp, shoot_exp

    def G_affine(p):
        return p * (a0 + 0.5 * beta * p)

    def mean_affine(a, b, *_):
        s = a + b
        return 0.5 * a0 * s + beta / 6.0 * (s * s - a * b)

    if beta == 0.0:
        # y / a0 is the affine inverse at beta = 0 bit for bit wherever a0^2
        # is a normal float, and it squares nothing
        def inv_constant(y: float) -> float:
            return y / a0

        def shoot_constant(w0, h, n, y_lo, y_hi):
            slopes = []
            append, exp = slopes.append, math.exp
            wk, y = w0, y_lo
            for _ in range(n):
                if wk < -500.0:
                    return slopes, 1e300
                y += h * exp(-wk)
                sk = y / a0
                wk += h * sk
                append(sk)
            return slopes, (y + h * exp(-wk)) - y_hi

        return G_affine, mean_affine, inv_constant, shoot_constant

    a2, b2 = a0 * a0, 2.0 * beta

    def inv_affine(y: float) -> float:
        d = a2 + b2 * y
        return (y + y) / (a0 + math.sqrt(d if d > 0.0 else 0.0))

    def shoot_affine(w0, h, n, y_lo, y_hi):
        slopes = []
        append, exp, sqrt = slopes.append, math.exp, math.sqrt
        wk, y = w0, y_lo
        for _ in range(n):
            if wk < -500.0:
                return slopes, 1e300
            y += h * exp(-wk)
            d = a2 + b2 * y
            sk = (y + y) / (a0 + sqrt(d if d > 0.0 else 0.0))
            wk += h * sk
            append(sk)
        return slopes, (y + h * exp(-wk)) - y_hi

    return G_affine, mean_affine, inv_affine, shoot_affine


def _poly_coeffs(g: WeightFunction) -> tuple[list[float], list[float]]:
    """Coefficients of g and of G = int_0^p g, highest degree first."""
    gc = [0.0] * (1 + max(int(p[0]) for p, _ in g.coeffs))
    for p, c in g.coeffs:
        gc[int(p[0])] += float(c)
    Gc = [c / (k + 1) for k, c in enumerate(gc)][::-1] + [0.0]
    return gc[::-1], Gc


def _horner(cs, p):
    """The polynomial with coefficients ``cs`` (highest first) at p (float or array)."""
    acc = 0.0
    for c in cs:
        acc = acc * p + c
    return acc


_RTOL = 4.0 * sys.float_info.epsilon


def _checked(x: float, v: float) -> float:
    if math.isnan(v):
        raise NewtonDiverged(f"root finder met NaN at x={x!r}")
    return v


def _secant_root(f, xa: float, fa: float, xb: float, fb: float, xtol: float, ftol: float = 0.0):
    """(x, slope): a root x of f in [xa, xb], given fa = f(xa) and fb = f(xb),
    by the Anderson-Bjorck secant (BIT 13, 1973), bisecting where the bracket
    has not halved in two steps.  It stops where |f| <= ftol, or <= xtol
    |slope| / 2 near zero, or once the bracket is below xtol + 4 eps |x|, at
    its end of smaller |f|: x is always a point f was called at.  slope is
    the secant of the latest two points whose values differ by more than
    1024 ftol, well above rounding.
    """
    _checked(xa, fa), _checked(xb, fb)
    slope = (fb - fa) / (xb - xa)
    if abs(fa) <= ftol or abs(fb) <= ftol:
        return (xa if abs(fa) <= ftol else xb), slope
    if (fa < 0.0) == (fb < 0.0):
        raise NewtonDiverged(f"root finder needs a sign change on [{xa!r}, {xb!r}]")
    a, sa, b = xa, fa, xb  # b is the latest point, sa the scaled value at a
    widths, near = [math.inf] * 2, 1024.0 * ftol
    for _ in range(200):
        width, delta = abs(b - a), (xtol + _RTOL * abs(b)) / 2
        if width <= 2 * delta:
            return (a if abs(fa) < abs(fb) else b), slope
        x, s = 0.5 * (a + b), b - fb * (b - a) / (fb - sa)
        if width <= widths[-2] / 2 and s == s:  # s is NaN where a value is infinite
            x = min(max(s, min(a, b) + delta), max(a, b) - delta)
        fx = _checked(x, f(x))
        if abs(fx - fb) > near:
            slope = (fx - fb) / (x - b)
        if abs(fx) <= ftol or abs(fx) <= min(near, 0.5 * xtol * abs(slope)):
            return x, slope
        widths.append(width)
        if (fx < 0.0) != (fb < 0.0):
            a, fa, sa = b, fb, fb
        else:
            sa *= m if (m := 1.0 - fx / fb) > 0.0 else 0.5
        b, fb = x, fx
    raise NewtonDiverged(f"root finder did not converge after 200 steps, x={b!r}")


def weight_mass(P: LabelledPolytope, g: WeightFunction) -> float:
    """integral of g over the 1D polytope = total flux mass (exact telescope)."""
    pmin, pmax = _endpoint_slopes(P)
    G = _weight_1d(g, pmin, pmax)[0]
    return float(G(pmax) - G(pmin))


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def _level_root(psi, w0: float, slope: float, ftol: float):
    """(root, closing slope) of a grid's decreasing defect psi from the coarser
    grid's: shots at w0 + d, 2d, 4d, ... (|d| <= 512, first |psi(w0)/slope| or
    8, signed as the defect) until its sign changes, then ``_secant_root``."""
    x1, f1 = w0, _checked(w0, psi(w0))
    d = abs(f1 / slope) if slope < 0.0 else 0.0
    d = math.copysign(d if 0.0 < d < math.inf else 8.0, f1)
    while abs(f1) > ftol:
        if abs(d) > 512.0:
            raise NewtonDiverged("shooting bracket failed for the base value")
        x0, f0, x1 = x1, f1, w0 + d
        f1 = _checked(x1, psi(x1))
        if (f1 > 0.0) != (f0 > 0.0):
            return _secant_root(psi, x0, f0, x1, f1, 1e-13, ftol)
        d *= 2.0
    return x1, slope


# Largest gap between the boundary slopes and the polytope ends, beyond the
# intrinsic layer, that solve_ma accepts before raising WindowTooSmall.
_TAIL_TOL = 1e-4


def solve_ma(
    P: LabelledPolytope,
    g: WeightFunction,
    grid: Grid1D | None = None,
    tol: float = 1e-10,
) -> DiscretePotential:
    """Shooting solve of g(u')u'' = c e^{-u} on the grid window.

    The translation family (u + kappa, c e^kappa) lets the c = 1 system be
    solved first, after which the shift kappa that pins the center value to
    the reference determines c = e^{-kappa}.  The c = 1 system collapses to
    one unknown: given the base value w_0, each flux equation determines the
    next half-slope from the running mass (through G^{-1}), and the closing
    defect is h * sum(e^{-w_k}) minus the integral of g, decreasing in w_0.
    Its root is found on grids of the same window with (n - 1)//8 + 1 nodes
    below n, down to 17 or more: the coarsest starts at the reference's
    base value, each finer one at the coarser root (or, if that grid failed,
    at the base value).  A defect within eps * mass is zero; its slope in
    w_0 is about e^{-R}, so w_0 is fixed only to about rounding / e^{-R}.
    The finest root's shot is the solution, as shot.  It must reach the last
    node (a shot stops once w falls below -500, past the target mass), and
    its max-norm flux residual must then be at most ``tol``; either failure
    raises NewtonDiverged.  The residual reads the shot's own slopes
    G^{-1}(y_k), so it measures the rounding of G(G^{-1}(y)) and of the
    running sums; it stays near 1e-12 as N grows.
    Summing the flux-form equations shows c * sum(e^{-u_k}) h equals the
    integral of g over P automatically, so c carries the mass normalization.
    Raises WindowTooSmall if the boundary slopes end up farther than
    ``_TAIL_TOL`` from the polytope endpoints beyond the intrinsic layer.
    That gap is an O(h) boundary layer, so the step h = 2R/(N - 1) must
    shrink: raise N, or raise R and N together (a larger R alone widens h).
    """
    grid = grid or Grid1D()
    g.check_positive(P)
    pmin, pmax = _endpoint_slopes(P)
    ref = reference_potential(P, grid)
    h = grid.h
    mid = grid.mid_index
    G, _, Ginv, shoot = _weight_1d(g, pmin, pmax)
    y_lo, y_hi = float(G(pmin)), float(G(pmax))
    N = grid.N

    levels = [N]
    while (levels[-1] - 1) // 8 + 1 >= 17:
        levels.append((levels[-1] - 1) // 8 + 1)
    ftol = sys.float_info.epsilon * (y_hi - y_lo)
    base = float(ref.values[0])
    w0, slope = base, math.nan

    def psi(w0: float) -> float:  # a shot on the current grid, kept by base value
        shots[w0], defect = shoot(w0, hn, n - 1, y_lo, y_hi)
        return defect

    for n in reversed(levels):
        hn, shots = Grid1D(grid.R, n).h, {}
        try:
            w0, slope = _level_root(psi, w0, slope, ftol)
        except NewtonDiverged:
            if n == N:
                raise
            w0, slope = base, math.nan
    slopes = shots[w0]
    if len(slopes) < N - 1:
        k = len(slopes)
        raise NewtonDiverged(
            f"the shot from base value {w0!r} stopped at node {k} of {N} "
            f"(x = {float(grid.nodes[k]):.6g}), where w fell below -500"
        )
    shot = ref.with_slopes(w0, np.array(slopes))
    w, s = shot.values, shot.half_slopes()
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.max(np.abs(np.diff(G(s)) / h - np.exp(-w))))
    if residual > tol:
        raise NewtonDiverged(
            f"shooting residual {residual:.3e} exceeds tol {tol:.1e}",
            history=[residual],
        )
    # shift back to the gauged representative; residuals are shift-invariant
    kappa = float(w[mid] - ref.values[mid])
    c = math.exp(-kappa)
    # Boundary diagnostic.  The window solution pins u' to the endpoint
    # slopes of P at the boundary, and a nonzero weighted first moment
    # B = int_P p g dp forces boundary cell masses approaching max(0, +-B),
    # i.e. an intrinsic O(h) first-slope layer that no window enlargement
    # removes.  Only the excess beyond that layer measures truncation error.
    B = float(quadrature.moments(P, g, 1)[(1,)])
    p_layer_lo = Ginv(y_lo + h * max(0.0, B))
    p_layer_hi = Ginv(y_hi - h * max(0.0, -B))
    gap = max(float(s[1]) - p_layer_lo, p_layer_hi - float(s[-2]), 0.0)
    if gap > _TAIL_TOL:
        raise WindowTooSmall(
            f"boundary slope gap {gap:.3e} exceeds {_TAIL_TOL:.1e}; "
            f"the step h = 2R/(N - 1) must shrink: raise N, or raise R and N together"
        )
    out = ref.with_slopes(
        w0 - kappa,
        shot.edge_slopes,
        c=float(c),
        residual=residual,
        tail_gap=float(gap),
        history=[residual],
    )
    out.validate()
    return out


# ---------------------------------------------------------------------------
# functional suite
# ---------------------------------------------------------------------------


class _BaseRow:
    """The base potential of an energy path, with one weight's kernel.

    It holds the base's values, its half-slopes s_b, G(s_b), its flux
    masses diff(G(s_b)), Vg = G(p_max) - G(p_min) at the ghosts, and the
    reference probability measure e^{-base} / sum(e^{-base}) with the log
    of its normalizer.  None of these depends on the potential measured
    over the base, so ``inequality_suite`` and ``ding_ray_diagnostic``
    build one row per weight and hand it to every ``_energies`` and
    ``_functionals`` call.  G is elementwise, so the row holds the values a
    per-call evaluation would give.
    """

    def __init__(self, g: WeightFunction, P: LabelledPolytope, values, slopes):
        pmin, pmax = _endpoint_slopes(P)
        self.G, self.mean = _weight_1d(g, pmin, pmax)[:2]
        self.values = values
        self.s = _ghosted(slopes, pmin, pmax)
        self.Gs = self.G(self.s)
        self.ma = np.diff(self.Gs)
        self.Vg = float(self.Gs[-1] - self.Gs[0])
        w0 = np.exp(-values)
        self.m_hat = w0 / float(np.sum(w0))
        # log sum e^{-base}: e^{-base} underflows to 0 on wide windows
        self.log_mass = _log_mean_exp(-values, 1.0)


def _energies(u: DiscretePotential, row: _BaseRow) -> tuple[float, float, np.ndarray]:
    """E_g and Lambda_g of u over the base of ``row``, and the flux masses of u.

    Validates u first.  With phi = u - base, the half-slopes of
    base + r phi are s_b + r (s_u - s_b), so summation by parts turns the
    path integral of sum(phi_k MA_k(base + r phi)) over r in [0, 1] into

        Vg E_g = phi_{N-1} G(p_max) - phi_0 G(p_min)
                 - sum_k (phi_{k+1} - phi_k) int_0^1 G(s_b + r (s_u - s_b)) dr,

    exactly, with G and the edge means from ``_weight_1d``.
    """
    u.validate()
    phi = u.values - row.values
    su = u.half_slopes()
    Gu = row.G(su)
    sb, Gb = row.s, row.Gs
    means = row.mean(su[1:-1], sb[1:-1], Gu[1:-1], Gb[1:-1])
    # the differences of np.diff, without its per-call overhead
    E = phi[-1] * Gb[-1] - phi[0] * Gb[0] - float(np.dot(phi[1:] - phi[:-1], means))
    return float(E) / row.Vg, float(np.dot(phi, row.ma)) / row.Vg, Gu[1:] - Gu[:-1]


@dataclass
class FunctionalValues:
    """The Archimedean functionals of a potential relative to its reference."""

    E_g: float
    Lambda_g: float
    I_g: float
    J_g: float
    L: float
    D: float
    H_g: float
    M: float
    mass_g: float
    underflow_count: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def functionals(
    u: DiscretePotential,
    g: WeightFunction,
    P: LabelledPolytope | None = None,
    u0_values: np.ndarray | None = None,
) -> FunctionalValues:
    """E_g, Lambda_g, I_g, J_g, L, D, H_g, M of u relative to its reference.

    All measures are the discrete flux-form Monge-Ampère masses normalized
    by their (exactly constant) total, and the reference measure is
    c0 e^{-u0} dx restricted to the window and normalized discretely.  With
    these conventions D is translation-invariant and M >= D (Jensen /
    Gibbs) hold exactly in the discrete model, with equality at the solved
    soliton.  ``u0_values`` overrides the base potential of the energy path
    (used by the cocycle identity E_{g,u0}(u2) - E_{g,u0}(u1) = E_{g,u1}(u2)).
    E_g integrates along the straight path in closed form (``_energies``):
    one divided difference of the second antiderivative of g per edge.
    """
    P = P or u.P
    if u0_values is None:
        return _functionals(u, _BaseRow(g, P, u.ref_values, u.ref_slopes))
    base = np.asarray(u0_values, float)
    return _functionals(u, _BaseRow(g, P, base, np.diff(base) / u.grid.h))


def _functionals(u: DiscretePotential, row: _BaseRow) -> FunctionalValues:
    """``functionals`` of u over the base of ``row``."""
    E, Lam, ma1 = _energies(u, row)
    base, ma0, Vg = row.values, row.ma, row.Vg
    phi = u.values - base
    Ival = float(np.dot(phi, ma0 - ma1)) / Vg
    J = Lam - E

    # L = -log integral e^{-phi} d(mu0-hat), computed in log space
    L = -float(_log_mean_exp(-phi, row.m_hat))
    D = -E + L

    nu = ma1 / Vg
    underflow = int(np.sum((nu > 0) & (nu < 1e-300)))
    pos = nu > 0
    log_m_hat = -base[pos] - row.log_mass
    H = float(np.sum(nu[pos] * (np.log(np.maximum(nu[pos], 1e-300)) - log_m_hat)))
    M = H + J - Ival
    return FunctionalValues(
        E_g=E,
        Lambda_g=Lam,
        I_g=Ival,
        J_g=J,
        L=L,
        D=D,
        H_g=H,
        M=M,
        mass_g=Vg,
        underflow_count=underflow,
    )


def _log_mean_exp(a: np.ndarray, weights: np.ndarray) -> float:
    """log sum(weights e^a), shifted by max(a) so that no term overflows.

    Raises NumericalFailure when every weighted term underflows to 0: on a
    window or a polytope so wide that the weights vanish wherever a is near
    its maximum.
    """
    m = float(np.max(a))
    total = float(np.sum(weights * np.exp(a - m)))
    if total == 0.0:
        raise NumericalFailure(
            "a weighted mean of exponentials underflows to 0; "
            "the window or the polytope is too wide for float range"
        )
    return m + math.log(total)


# ---------------------------------------------------------------------------
# pushforward moment check
# ---------------------------------------------------------------------------


def pushforward_moments(u: DiscretePotential, g: WeightFunction) -> dict:
    """Moments of the pushforward of c e^{-u} dx under u' versus g dx on P.

    The discrete measure places mass c e^{-u_k} h at the midpoint slope of
    each cell plus the exact analytic tail atoms at the polytope endpoints;
    a third-order midpoint correction in the slope variable keeps the
    comparison well inside 1e-5 of the exact moments of g.
    """
    if u.c is None:
        raise ValidationError("pushforward check needs a solver potential (c set)")
    P = u.P
    h = u.grid.h
    s = u.half_slopes()
    mids = 0.5 * (s[:-1] + s[1:])
    widths = s[1:] - s[:-1]
    # each cell pushes mass c e^{-u_k} h onto the slope interval
    # [s_{k-1/2}, s_{k+1/2}]; the ghost closure pins the union of those
    # intervals to exactly [p_min, p_max], tails included
    cell_mass = u.c * np.exp(-u.values) * h
    gm = g.value(mids[:, None])
    dgm = g.grad(mids[:, None])[:, 0]
    exact = quadrature.moments(P, g, max(_PUSHFORWARD_ORDERS))
    out = {}
    for j in _PUSHFORWARD_ORDERS:
        disc = float(np.sum(mids**j * cell_mass))
        # placing the cell mass at the midpoint slope underestimates
        # integral p^j g over the slope interval by
        # [j m^{j-1} g'(m) + j(j-1)/2 m^{j-2} g(m)] width^3 / 12 + O(width^5)
        if j >= 1:
            term = j * mids ** (j - 1) * dgm
            if j >= 2:
                term = term + (j * (j - 1) / 2.0) * mids ** (j - 2) * gm
            disc += float(np.sum(term * widths**3 / 12.0))
        cont = float(exact[(j,)])
        out[j] = {"discrete": disc, "continuous": cont, "abs_diff": abs(disc - cont)}
    return out


# ---------------------------------------------------------------------------
# inequality harness
# ---------------------------------------------------------------------------


def inequality_suite(
    P: LabelledPolytope,
    g: WeightFunction,
    samples: int = 100,
    seed: int = 0,
    grid: Grid1D | None = None,
) -> dict:
    """Random-potential inequality report.

    Per sample u the harness checks, with rho = min_P g, Rg = max_P g,
    V1 the unweighted and Vg the weighted volume:
      (a) (rho V1/Vg)(I - J) <= I_g - J_g <= (Rg V1/Vg)(I - J),
      (b) I_g - J_g >= 0 and J_g >= 0,
      (c) M >= D (Jensen),
      (d) J_g(u_t) <= t J_g(u) for t in (0, 1]; the sharper exponent
          t^(1+1/C) with C = (Rg/rho)(n+1) is measured and reported only.
    Violations are counted, never raised; the first violating sample (if
    any) is serialized into the report.
    """
    grid = grid or Grid1D()
    g.check_positive(P)
    g1 = WeightFunction.constant(1)
    rho, Rg = g.range_on(P)
    V1 = weight_mass(P, g1)
    Vg = weight_mass(P, g)
    # every sample and every segment potential has the reference as its base
    ref = reference_potential(P, grid)
    row_g, row_1 = (_BaseRow(w, P, ref.values, ref.edge_slopes) for w in (g, g1))
    Cexp = Rg / rho * 2.0  # (n+1) with n = 1
    t_grid = [0.1 * k for k in range(1, 11)]
    slack = 1e-10

    counts = {"a": 0, "b": 0, "c": 0, "d": 0}
    worst = {
        "a_lower_margin": math.inf,
        "a_upper_margin": math.inf,
        "b_margin": math.inf,
        "c_margin": math.inf,
        "d_margin": math.inf,
        "sharper_margin": math.inf,
    }
    first_violation = None
    sharper_holds = True

    for i in range(samples):
        u = _random_potential(ref, [seed, i])
        Fg = _functionals(u, row_g)
        F1 = _functionals(u, row_1)
        IJg = Fg.I_g - Fg.J_g
        IJ1 = F1.I_g - F1.J_g
        lo = rho * V1 / Vg * IJ1
        hi = Rg * V1 / Vg * IJ1
        a_low = IJg - lo
        a_up = hi - IJg
        worst["a_lower_margin"] = min(worst["a_lower_margin"], a_low)
        worst["a_upper_margin"] = min(worst["a_upper_margin"], a_up)
        ok_a = a_low >= -slack and a_up >= -slack
        b_m = min(IJg, Fg.J_g)
        worst["b_margin"] = min(worst["b_margin"], b_m)
        ok_b = b_m >= -slack
        c_m = Fg.M - Fg.D
        worst["c_margin"] = min(worst["c_margin"], c_m)
        ok_c = c_m >= -slack
        ok_d = True
        for t in t_grid:
            E_t, Lam_t, _ = _energies(u.along(t), row_g)
            Jt = Lam_t - E_t
            d_m = t * Fg.J_g - Jt
            worst["d_margin"] = min(worst["d_margin"], d_m)
            if d_m < -slack:
                ok_d = False
            sharper_bound = t ** (1.0 + 1.0 / Cexp) * Fg.J_g
            s_m = sharper_bound - Jt
            worst["sharper_margin"] = min(worst["sharper_margin"], s_m)
            if s_m < -slack:
                sharper_holds = False
        for key, ok in zip("abcd", (ok_a, ok_b, ok_c, ok_d)):
            if not ok:
                counts[key] += 1
                if first_violation is None:
                    first_violation = {
                        "sample_index": i,
                        "band": key,
                        "potential": u.to_dict(),
                    }
    return {
        "samples": samples,
        "seed": seed,
        "constants": {"rho": rho, "Rg": Rg, "V1": V1, "Vg": Vg, "C": Cexp},
        "violations": counts,
        "worst_margins": worst,
        "sharper_exponent": {
            "exponent": 1.0 + 1.0 / Cexp,
            "holds_on_samples": sharper_holds,
        },
        "first_violation": first_violation,
    }


# ---------------------------------------------------------------------------
# destabilizing ray diagnostic
# ---------------------------------------------------------------------------


def _ray_potential(ref: DiscretePotential, a: float, s: float) -> DiscretePotential:
    """u_s(x) = u0(x + s a) - s max_P <a, .>, the ray of the direction a at time s.

    In log-toric coordinates the geodesic ray of a toric valuation is this
    translation; its slopes are the secants of u0 over [x_k + s a, x_k + s a + h].
    """
    pmin, pmax = ref.slopes
    base, slopes = _u0_translate(ref.grid, pmin, pmax, s * a)
    return ref.with_slopes(base - s * max(a * pmin, a * pmax), slopes)


def ding_ray_diagnostic(
    P: LabelledPolytope,
    g: WeightFunction,
    s_values=(0.0, 2.0, 4.0, 8.0),
    grid: Grid1D | None = None,
) -> dict:
    """Ding energy along the geodesic ray of the worst toric direction.

    Shifting the reference potential's Legendre transform by s times the
    support gap max_P <a, .> - <a, .> of the destabilizing direction a gives,
    in log-toric coordinates, the translation
    u_s(x) = u_0(x + s a) - s max_P <a, .> (``_ray_potential``), whose Ding
    slope is exactly -<a, b_g>.  Each ray potential carries the closed-form
    secants of u_0, so it is convex with slopes in P by construction.  The
    large-s slope of D along the ray matches the non-Archimedean invariant
    A(a) - S_g(a); a decreasing ray flags instability (nonzero weighted
    barycenter).
    """
    grid = grid or Grid1D()
    b = float(invariants.weighted_barycenter(P, g)[0])
    a = 1.0 if b > 0 else -1.0
    ref = reference_potential(P, grid)
    row = _BaseRow(g, P, ref.values, ref.edge_slopes)
    Ds = [_functionals(_ray_potential(ref, a, s), row).D for s in s_values]
    slope = (Ds[-1] - Ds[0]) / (s_values[-1] - s_values[0]) if len(Ds) > 1 else 0.0
    na = stability.ding_na_valuation(P, g, (a,))
    return {
        "direction": a,
        "s_values": list(s_values),
        "D_values": Ds,
        "ray_slope": slope,
        "na_slope": na,
        "ding_ray_decreasing": bool(slope < -1e-8),
    }
