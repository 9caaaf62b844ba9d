"""Weight functions on a polytope and their exact/closed-form integration.

Supported weight kinds: constant, affine a0 + <b,x>, exponential-affine
exp(a0 + <b,x>), and polynomial.  Every integral over a polytope is a
moment of g, and all of them go through one kernel (``moments``, built on
``simplex_moments``): per triangulation simplex, polynomial integrands are
integrated exactly through the Dirichlet moment formula in barycentric
coordinates; exponential-affine integrands use the closed-form
divided-difference representation of the simplex exponential integral,
every divided difference of one simplex from one series table centred at
its distinct nodes (``exp_dd_basis``; past the series spread, one
``exp_divided_difference`` each).  There is no quadrature rule: every
value is a closed form.

Repeated work is kept on the domain object, in its ``_moment_cache``, and
freed with it: per polytope the weight-independent data of each
triangulation simplex (``_Simplex``, in ints: |det E|, the lines, each
power x^gamma as a t-polynomial with its Dirichlet integral, and for exp
weights float copies of |det E|, s0 and the edges and each x^alpha's
recombination terms as floats), and per (polytope or PL function,
weight) the moments computed so far, the positivity certificate and
``e_g_na``.  Weights are held weakly, so an entry also dies with its weight,
and keyed by identity, so equal weights with differently typed data
(Fraction 1 and 1.0) never share results.
"""

from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from . import _exact
from ._exact import np
from .errors import OverflowGuard, PositivityViolated, SchemaViolation
from .polytope import LabelledPolytope, _int_simplex

# ---------------------------------------------------------------------------
# number <-> JSON helpers shared by the serialization layer
# ---------------------------------------------------------------------------


def encode_number(x):
    """Encode a number for JSON: rationals as "p/q" strings, floats as-is."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, (int, float)):
        return x
    raise TypeError(f"cannot encode {type(x).__name__}")


def decode_number(x, pointer: str = ""):
    """Decode a JSON number: ints and "p/q"/decimal strings become exact."""
    if isinstance(x, bool):
        raise SchemaViolation("expected a number, got a boolean", pointer)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise SchemaViolation(f"expected a finite number, got {x!r}", pointer)
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaViolation(f"invalid number string {x!r}: {exc}", pointer)
    raise SchemaViolation(f"expected a number, got {type(x).__name__}", pointer)


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------

_KINDS = ("constant", "affine", "exp_affine", "polynomial")


@dataclass(frozen=True, eq=False)
class WeightFunction:
    """A positive weight g on a polytope.

    ``a0``/``b`` hold the constant and linear parts for the affine and
    exponential-affine kinds; ``coeffs`` holds (powers, coefficient) pairs
    for the polynomial kind.  Parameters may be exact rationals, in which
    case the polynomial-kind integration paths stay exact end to end.
    """

    kind: str
    a0: Fraction | float = Fraction(0)
    b: tuple = ()
    coeffs: tuple = ()

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c) -> "WeightFunction":
        return WeightFunction("constant", a0=_exact.num(c))

    @staticmethod
    def affine(a0, b) -> "WeightFunction":
        return WeightFunction("affine", a0=_exact.num(a0), b=tuple(map(_exact.num, b)))

    @staticmethod
    def exp_affine(a0, b) -> "WeightFunction":
        return WeightFunction("exp_affine", a0=_exact.num(a0), b=tuple(map(_exact.num, b)))

    @staticmethod
    def polynomial(coeffs) -> "WeightFunction":
        cc = tuple(
            (tuple(int(p) for p in powers), _exact.num(c)) for powers, c in coeffs
        )
        if not cc:
            raise SchemaViolation("polynomial weight needs at least one term")
        return WeightFunction("polynomial", coeffs=cc)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SchemaViolation(f"unknown weight kind {self.kind!r}")

    # -- structure ----------------------------------------------------------

    @property
    def dim(self) -> int | None:
        """Ambient dimension implied by the parameters (None = any)."""
        if self.kind in ("affine", "exp_affine"):
            return len(self.b)
        if self.kind == "polynomial":
            return len(self.coeffs[0][0])
        return None

    @property
    def is_polynomial_kind(self) -> bool:
        return self.kind in ("constant", "affine", "polynomial")

    def as_poly(self, n: int) -> dict[tuple[int, ...], Fraction | float]:
        """The weight as a sparse monomial dict (polynomial kinds only)."""
        zero = (0,) * n
        if self.kind == "constant":
            return {zero: self.a0}
        if self.kind == "affine":
            poly = {zero: self.a0}
            for i, bi in enumerate(self.b):
                if bi != 0:
                    key = tuple(int(i == j) for j in range(n))
                    poly[key] = poly.get(key, 0) + bi
            return poly
        if self.kind == "polynomial":
            poly: dict = {}
            for powers, c in self.coeffs:
                poly[powers] = poly.get(powers, 0) + c
            return poly
        raise ValueError("exponential-affine weight has no polynomial form")

    # -- evaluation ---------------------------------------------------------

    @cached_property
    def _bf(self) -> np.ndarray:
        return np.array([float(x) for x in self.b], dtype=float)

    def value(self, x) -> np.ndarray:
        """Evaluate on points of shape (..., n)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full(x.shape[:-1], float(self.a0))
        if self.kind == "affine":
            return float(self.a0) + x @ self._bf
        if self.kind == "exp_affine":
            return np.exp(float(self.a0) + x @ self._bf)
        out = np.zeros(x.shape[:-1])
        for powers, c in self.coeffs:
            term = np.full(x.shape[:-1], float(c))
            for j, p in enumerate(powers):
                if p:
                    term = term * x[..., j] ** p
            out += term
        return out

    def grad(self, x) -> np.ndarray:
        """Gradient on points of shape (..., n), returned with shape (..., n)."""
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        if self.kind == "constant":
            return np.zeros(x.shape)
        if self.kind == "affine":
            return np.broadcast_to(self._bf, x.shape).copy()
        if self.kind == "exp_affine":
            return self.value(x)[..., None] * self._bf
        out = np.zeros(x.shape)
        for powers, c in self.coeffs:
            for j, p in enumerate(powers):
                if not p:
                    continue
                term = np.full(x.shape[:-1], float(c) * p)
                for k, q in enumerate(powers):
                    e = q - 1 if k == j else q
                    if e:
                        term = term * x[..., k] ** e
                out[..., j] += term
        return out

    # -- bounds and positivity ---------------------------------------------

    def range_on(self, P: LabelledPolytope) -> tuple[float, float]:
        """(min_P g, max_P g); exact at vertices for the affine-based kinds."""
        if self.kind == "constant":
            c = float(self.a0)
            return c, c
        if self.kind in ("affine", "exp_affine"):
            vals = [self.a0 + _exact.dot(self.b, v) for v in P.vertices]
            lo, hi = min(vals), max(vals)
            if self.kind == "exp_affine":
                return math.exp(float(lo)), math.exp(float(hi))
            return float(lo), float(hi)
        samples = _positivity_samples(P)
        vals = self.value(samples)
        return float(np.min(vals)), float(np.max(vals))

    def check_positive(self, P: LabelledPolytope) -> None:
        """Certify g > 0 on P; exact for affine-based kinds.

        Polynomial weights get a dense-sample certificate: the sampled
        minimum must clear a small relative margin, otherwise the weight is
        rejected rather than silently trusted.  A certificate is made once
        per (P, g) and kept while both live (see the module docstring); a
        rejection is not kept, so it raises again on every call.
        """
        memo = _memo(P, self)
        if "positive" not in memo:
            self._certify_positive(P)
            memo["positive"] = True

    def _certify_positive(self, P: LabelledPolytope) -> None:
        if self.kind == "constant":
            if self.a0 <= 0:
                raise PositivityViolated(f"constant weight {self.a0} is not positive")
            return
        if self.kind == "exp_affine":
            return
        if self.kind == "affine":
            if min(self.a0 + _exact.dot(self.b, v) for v in P.vertices) <= 0:
                raise PositivityViolated(
                    "affine weight is non-positive at a vertex (exact check)"
                )
            return
        samples = _positivity_samples(P)
        vals = self.value(samples)
        lo = float(np.min(vals))
        hi = float(np.max(vals))
        if lo <= 1e-9 * max(1.0, abs(hi)):
            raise PositivityViolated(
                f"polynomial weight fails the dense positivity certificate "
                f"(sampled min {lo:.3e})"
            )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind in ("constant", "affine", "exp_affine"):
            d["a0"] = encode_number(self.a0)
        if self.kind in ("affine", "exp_affine"):
            d["b"] = [encode_number(x) for x in self.b]
        if self.kind == "polynomial":
            d["coeffs"] = [
                {"powers": list(p), "c": encode_number(c)} for p, c in self.coeffs
            ]
        return d

    @staticmethod
    def from_dict(d: dict, pointer: str = "/g") -> "WeightFunction":
        if not isinstance(d, dict):
            raise SchemaViolation("weight must be an object", pointer)
        kind = d.get("kind")
        if kind not in _KINDS:
            raise SchemaViolation(
                f"weight kind must be one of {_KINDS}, got {kind!r}", f"{pointer}/kind"
            )
        if kind == "constant":
            return WeightFunction.constant(decode_number(d.get("a0", 1), f"{pointer}/a0"))
        if kind in ("affine", "exp_affine"):
            if "b" not in d or not isinstance(d["b"], list):
                raise SchemaViolation("affine weight needs a list 'b'", f"{pointer}/b")
            a0 = decode_number(d.get("a0", 0), f"{pointer}/a0")
            b = [decode_number(x, f"{pointer}/b/{i}") for i, x in enumerate(d["b"])]
            ctor = WeightFunction.affine if kind == "affine" else WeightFunction.exp_affine
            return ctor(a0, b)
        terms = d.get("coeffs")
        if not isinstance(terms, list) or not terms:
            raise SchemaViolation(
                "polynomial weight needs a non-empty list 'coeffs'", f"{pointer}/coeffs"
            )
        coeffs = []
        for i, t in enumerate(terms):
            at = f"{pointer}/coeffs/{i}"
            if not isinstance(t, dict) or "powers" not in t or "c" not in t:
                raise SchemaViolation("each coefficient needs 'powers' and 'c'", at)
            powers = t["powers"]
            if not isinstance(powers, list) or not all(type(p) is int and p >= 0 for p in powers):
                raise SchemaViolation("powers must be non-negative integers", f"{at}/powers")
            if len(powers) != len(coeffs[0][0] if coeffs else powers):
                raise SchemaViolation("every term needs the same number of powers", f"{at}/powers")
            coeffs.append((powers, decode_number(t["c"], f"{at}/c")))
        return WeightFunction.polynomial(coeffs)


def _positivity_samples(P: LabelledPolytope) -> np.ndarray:
    """Vertices plus a dense interior grid used by sampling certificates."""
    pieces = [P.vertices_f]
    m = 24
    try:
        pieces.append(P.lattice_points(m).astype(float) / m)
    except OverflowGuard:
        pass
    return np.concatenate(pieces, axis=0)


# ---------------------------------------------------------------------------
# sparse polynomial helpers (multi-index dicts)
# ---------------------------------------------------------------------------


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def _units(n: int) -> list[tuple[int, ...]]:
    """The multi-indices e_1, ..., e_n of the first moments."""
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def _barycentric_lines(s0, edges, n: int) -> list[dict]:
    """x_j = s0_j + sum_i t_i e_ij as t-polynomials, one per coordinate."""
    lines = []
    for j in range(n):
        line = {(0,) * n: s0[j]}
        for i, key in enumerate(_units(n)):
            if edges[i][j] != 0:
                line[key] = edges[i][j]
        lines.append(line)
    return lines


def _x_power(beta, lines, cache: dict) -> dict:
    """x^beta as a t-polynomial, built as x^(beta - e_j) * line_j and cached."""
    if beta not in cache:
        j = max(i for i, b in enumerate(beta) if b)
        prev = beta[:j] + (beta[j] - 1,) + beta[j + 1 :]
        cache[beta] = _poly_mul(_x_power(prev, lines, cache), lines[j])
    return cache[beta]


def _kappa_factorial(kappa) -> int:
    return math.prod(math.factorial(k) for k in kappa)


# ---------------------------------------------------------------------------
# divided differences of exp (confluent-capable, numerically stable)
# ---------------------------------------------------------------------------

_SERIES_SPREAD = 3.0


def _series_terms(sigma: float) -> int:
    """A term count by which the stop test of ``_exp_dd_series`` has fired
    on every node set with |y_i| <= sigma.

    With N + 1 nodes, |h_j| <= C(j + N, N) sigma^j, so the term
    t_j = h_j / (N + j)! is at most r_j / N! with r_j = sigma^j / j!.  The
    full sum is the divided difference of exp at the nodes, e^xi / N! for
    some xi in [-sigma, sigma], so the partial sum T_j is at least
    (e^-sigma - R_j) / N! with R_j = sum_{i>j} r_i.  Let J - 1 be the first
    j > 4 with j >= 2 sigma and r_j <= 1e-22 e^-sigma / 4.  From there on
    r_{i+1} / r_i = sigma / (i + 1) <= 1/2, so r_j falls and R_j <= r_j,
    and for j = J - 1 and j = J: |t_j| <= 1e-22 e^-sigma / (4 N!), which
    is below 1e-22 |T_j| / 3.9.  These are two consecutive negligible terms
    with a factor of almost 4 to spare for rounding, so the loop breaks at
    some j <= J, and J + 1 terms give the bits of any longer series.
    """
    j, r, limit = 0, 1.0, 2.5e-23 * math.exp(-sigma)
    while j <= 4 or j < 2 * sigma or r > limit:
        j += 1
        r *= sigma / j
    return j + 1


# term counts for spreads k/8, k = 0..24, and every finite float factorial
# (171! overflows): a float over an int rounds the int first, so dividing by
# the float table gives the same bits
_SERIES_TERMS = [_series_terms(k / 8) for k in range(int(8 * _SERIES_SPREAD) + 1)]
_FACTORIALS = [float(f) for f in accumulate(range(1, 171), operator.mul, initial=1)]


def exp_divided_difference(nodes) -> float:
    """Divided difference of exp over a node multiset (repeats allowed).

    Equals the integral of exp(<y, t>) over the standard simplex with the
    nodes (minus the first) as exponent coefficients, which is how the
    simplex exponential integrals below consume it.  Centered power-series
    evaluation keeps clustered nodes exact (no cancellation); well-spread
    nodes use the confluent Newton table.
    """
    nodes = [float(x) for x in nodes]
    N = len(nodes) - 1
    if N < 0:
        raise ValueError("need at least one node")
    if N == 0:
        return math.exp(nodes[0])
    m = math.fsum(nodes) / (N + 1)
    if max(abs(x - m) for x in nodes) <= _SERIES_SPREAD:
        return _exp_dd_centered(nodes, m)
    return _exp_dd_table(sorted(nodes))


def _exp_dd_centered(nodes, m: float) -> float:
    return math.exp(m) * _exp_dd_series([x - m for x in nodes], len(nodes) - 1)


def _exp_dd_series(y, N: int) -> float:
    # sum_j h_j(y) / (N+j)! with h_j the complete homogeneous symmetric
    # polynomials; h recursion is cancellation-free in absolute scale sigma^j.
    # The stop test fires within _series_terms(sigma) terms for the spread
    # sigma = ceil(8 max|y|) / 8 >= max|y| (8 max|y| and its ceiling are exact)
    h = [1.0] + [0.0] * _terms_for(max(map(abs, y)))
    for v in y:
        if v != 0.0:
            _h_step(h, v)
    return _h_sum(h, N)


def _terms_for(spread: float) -> int:
    """``_series_terms`` at the spread rounded up to the next multiple of 1/8."""
    k = math.ceil(8 * spread)
    return _SERIES_TERMS[k] if k < len(_SERIES_TERMS) else _series_terms(k / 8)


def _h_step(h: list, v: float) -> None:
    """Extend the node list of the table h_0, h_1, ... by the node v, in
    place: h_j <- h_j + v h_{j-1}, with h_{j-1} already the new value."""
    acc = 1.0
    for j in range(1, len(h)):
        h[j] = acc = h[j] + v * acc


def _h_sum(h: list, N: int) -> float:
    """sum_j h_j / (N + j)!, stopped after two consecutive negligible terms."""
    total = 0.0
    small = 0
    for j, hj in enumerate(h):
        term = hj / _FACTORIALS[N + j]
        total += term
        # centered node sets can zero out isolated (e.g. odd-degree) terms,
        # so stop only after two consecutive negligible terms
        if j > 4 and abs(term) < 1e-22 * abs(total):
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    return total


def exp_dd_basis(c, kappas) -> dict:
    """The basis of the exp moment kernel on one simplex: for each kappa, the
    divided difference of exp at 0 and each c_i repeated kappa_i + 1 times.

    Every node list shares its distinct nodes 0, c_1, ..., c_n, so all of
    them are centred once, at the mean m of those n + 1 nodes, and share
    one table of h_j: the recursion runs over the centred distinct nodes
    once, and the table of kappa is that of kappa - e_i (i the last index
    with kappa_i > 0) extended by the node c_i - m.  Each value is then
    e^m times the stop-tested sum of its table: e^m times
    ``_exp_dd_series`` of the centred node list 0, c_1, ..., c_n followed
    by each c_i repeated kappa_i times, in index order.  A spread
    max |x - m| beyond ``_SERIES_SPREAD`` takes ``exp_divided_difference``
    of each node list instead.
    """
    nodes = [0.0, *c]
    m = math.fsum(nodes) / len(nodes)
    y = [x - m for x in nodes]
    spread = max(map(abs, y))
    if not spread <= _SERIES_SPREAD:  # a NaN spread too, as in exp_divided_difference
        basis = {}
        for kappa in kappas:
            nodes = [0.0] + [ci for ci, k in zip(c, kappa) for _ in range(k + 1)]
            basis[kappa] = exp_divided_difference(nodes)
        return basis
    h = [1.0] + [0.0] * _terms_for(spread)
    for v in y:
        if v != 0.0:
            _h_step(h, v)
    tables = {(0,) * len(c): h}
    scale = math.exp(m)
    return {kappa: scale * _h_sum(_h_table(kappa, tables, y), len(y) - 1 + sum(kappa))
            for kappa in kappas}


def _h_table(kappa, tables: dict, y) -> list:
    """The table of kappa in ``exp_dd_basis``, from that of kappa - e_i."""
    if kappa not in tables:
        i = max(j for j, k in enumerate(kappa) if k)
        h = _h_table(kappa[:i] + (kappa[i] - 1,) + kappa[i + 1:], tables, y)
        if y[i + 1] != 0.0:
            h = h.copy()
            _h_step(h, y[i + 1])
        tables[kappa] = h
    return tables[kappa]


def _exp_dd_table(z) -> float:
    # confluent Newton table over sorted nodes.  The recurrence divides by
    # the span z[i+j] - z[i]; a small span would amplify the rounding of the
    # entries it differences (clustered nodes inside a wide set), so entries
    # spanning at most _SERIES_SPREAD come from the centered series, and
    # exact ties from the derivative value
    col = [math.exp(v) for v in z]
    n1 = len(z)
    for j in range(1, n1):
        fj = math.factorial(j)
        nxt = []
        for i in range(n1 - j):
            span = z[i + j] - z[i]
            if span == 0:
                nxt.append(math.exp(z[i]) / fj)
            elif span <= _SERIES_SPREAD:
                sub = z[i : i + j + 1]
                nxt.append(_exp_dd_centered(sub, math.fsum(sub) / (j + 1)))
            else:
                nxt.append((col[i + 1] - col[i]) / span)
        col = nxt
    return col[0]


# ---------------------------------------------------------------------------
# the moment kernel on one simplex
# ---------------------------------------------------------------------------


class _Simplex:
    """The weight-independent data of the moment kernel on one simplex.

    It is kept in ints (``polytope._int_simplex``): s0 and the edges e_i
    times the common denominator D of its points (D = 1 for lattice
    points), so the lines D x_j = s0_j + sum_i t_i e_ij and each D^|gamma|
    x^gamma as a t-polynomial have int coefficients.  A value divides by
    its power of D once, as it leaves: |det E| / D^n and each Dirichlet
    integral as Fractions, a float copy by int true division, which rounds
    once, as float(Fraction) does.  Kept as moments are asked for: the
    t-polynomials, their integrals (polynomial kinds), and for exp weights
    float copies of |det E|, s0 and the edges and each x^alpha as its
    (kappa, coefficient * kappa!) terms.
    """

    def __init__(self, simplex):
        n = len(simplex) - 1
        self.scale, self.s0, self.edges, self.scaled_det = _int_simplex(simplex)
        self.lines = _barycentric_lines(self.s0, self.edges, n)
        self.powers: dict = {(0,) * n: {(0,) * n: 1}}
        self.integrals: dict = {}
        self._exp_terms: dict = {}

    @cached_property
    def det(self) -> Fraction:
        """|det E| = |det| of the scaled edges / D^n."""
        return Fraction(self.scaled_det, self.scale ** len(self.edges))

    @cached_property
    def floats(self) -> tuple[float, tuple, list]:
        """|det E|, s0 and the edges as floats."""
        D = self.scale
        return (self.scaled_det / D ** len(self.edges), tuple(x / D for x in self.s0),
                [tuple(x / D for x in e) for e in self.edges])

    def exp_terms(self, alpha) -> list:
        """The (kappa, float(coeff) * kappa!) of each term coeff * t^kappa of x^alpha."""
        if alpha not in self._exp_terms:
            tpoly = _x_power(alpha, self.lines, self.powers)
            scale = self.scale ** sum(alpha)
            self._exp_terms[alpha] = [(k, c / scale * _kappa_factorial(k)) for k, c in tpoly.items()]
        return self._exp_terms[alpha]


def simplex_moments(simplex, g: WeightFunction, alphas):
    """Integrals of x^alpha * g(x) over a rational simplex, one per alpha.

    ``simplex`` is its n + 1 points, or a ``_Simplex`` that keeps the
    weight-independent work in ints (the determinant, the substitution
    x = s0 + sum_i t_i e_i, each power x^gamma as a t-polynomial and its
    integral or float terms) for the next call.  The monomials t^kappa
    of a t-polynomial are integrated once each (the basis integrals) and
    then recombined (Baldoni, Berline, De Loera, Koppe and Vergne, Math.
    Comp. 80, 2011).

    Polynomial kinds expand g into its monomials, and the basis integral
    over the standard simplex is the Dirichlet value kappa! / (n + |kappa|)!,
    so rational data gives exact Fractions.  For g = exp(a0 + <b,x>) the
    basis integral of t^kappa e^{<c,t>} is kappa! times the confluent
    divided difference of exp at 0 and each c_i repeated kappa_i + 1 times;
    ``exp_dd_basis`` gives those of every kappa the alphas need from one
    shared-centre series table (past the series spread, from
    ``exp_divided_difference`` per kappa, stable for any node geometry).
    A float b meets the float copies of the geometry in the operations
    ``_exact.dot`` would take (a float product makes every later sum a
    float sum); a b with a rational entry takes ``_exact.dot`` with the
    Fractions s0 / D and e_i / D.
    """
    S = simplex if isinstance(simplex, _Simplex) else _Simplex(simplex)
    n = len(S.lines)
    if g.is_polynomial_kind:
        gx = g.as_poly(n)
        integrals = S.integrals  # x^gamma -> its integral over the standard simplex
        values = []
        for alpha in alphas:
            total = 0
            for beta, coeff in gx.items():
                gamma = tuple(x + y for x, y in zip(alpha, beta))
                if gamma not in integrals:
                    tpoly = _x_power(gamma, S.lines, S.powers)
                    integrals[gamma] = _dirichlet_integral(tpoly, n, sum(gamma), S.scale)
                total = total + coeff * integrals[gamma]
            values.append(S.det * total)
        return values

    det, s0, edges = S.floats
    if all(type(x) is float for x in g.b):
        c = [_float_dot(g.b, e) for e in edges]
        shift = _float_dot(g.b, s0)
    else:
        D = S.scale
        shift, *c = [float(_exact.dot(g.b, [Fraction(x, D) for x in v])) for v in (S.s0, *S.edges)]
    pref = det * math.exp(float(g.a0) + shift)
    terms = [S.exp_terms(tuple(alpha)) for alpha in alphas]
    # t^kappa -> its divided difference of exp, for every kappa at once
    basis = exp_dd_basis(c, dict.fromkeys(kappa for ts in terms for kappa, _ in ts))
    values = []
    for ts in terms:
        total = 0.0
        for kappa, w in ts:
            total += w * basis[kappa]
        values.append(pref * total)
    return values


def _float_dot(a, b) -> float:
    """``_exact.dot`` of float vectors, in its order: 0.0 + a_0 b_0 + ...

    An explicit loop, since ``sum`` of floats may compensate.
    """
    acc = 0.0
    for x, y in zip(a, b):
        acc += x * y
    return acc


def _dirichlet_integral(tpoly: dict, n: int, degree: int, scale: int) -> Fraction:
    """Integral of a t-polynomial of the given degree over the standard
    simplex, over scale^degree.

    Each t^kappa contributes kappa! / (n + |kappa|)!; the int sum is taken
    over the common denominator (n + degree)! scale^degree.
    """
    top = math.factorial(n + degree)
    acc = sum(
        coeff * (_kappa_factorial(kappa) * (top // math.factorial(n + sum(kappa))))
        for kappa, coeff in tpoly.items()
    )
    return Fraction(acc, top * scale**degree)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# public integration API
# ---------------------------------------------------------------------------


def moments(P: LabelledPolytope, g: WeightFunction, degree: int) -> dict:
    """Every moment integral_P x^alpha g dx with |alpha| <= degree.

    Returns a new {alpha: value}.  Polynomial-kind weights with rational
    data give exact Fractions; other data gives floats.  Each moment is
    computed once per (P, g) and kept while both live (see the module
    docstring): a repeat call, or one of lower degree, is served from the
    kept values, and a higher degree computes only the moments it adds.
    A moment does not depend on which others are asked for, so the values
    are those of a fresh computation, bit for bit.
    """
    _check_dim(P, g)
    alphas = [a for d in range(degree + 1) for a in _compositions(d, P.dim)]
    known = _memo(P, g).setdefault("moments", {})
    todo = [a for a in alphas if a not in known]
    if todo:
        totals = [0] * len(todo)
        for simplex in _simplices(P):
            totals = [t + v for t, v in zip(totals, simplex_moments(simplex, g, todo))]
        known.update(zip(todo, totals))
    return {a: known[a] for a in alphas}


def _simplices(P: LabelledPolytope) -> tuple:
    """The ``_Simplex`` of each simplex of P.triangulation, built once per P."""
    cache = P._moment_cache
    if "simplices" not in cache:
        cache["simplices"] = tuple(_Simplex(s) for s in P.triangulation)
    return cache["simplices"]


def _memo(domain, g: WeightFunction) -> dict:
    """The results kept for weight g on a domain (a polytope or PL function)."""
    cache = domain._moment_cache
    if "weights" not in cache:
        cache["weights"] = weakref.WeakKeyDictionary()
    return cache["weights"].setdefault(g, {})


def _check_dim(P: LabelledPolytope, g: WeightFunction) -> None:
    if g.dim is not None and g.dim != P.dim:
        raise SchemaViolation(
            f"weight dimension {g.dim} does not match polytope dimension {P.dim}"
        )
