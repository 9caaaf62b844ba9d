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
value is a closed form.  Nor is there a sample: a polynomial weight is
proved positive by simplicial Bernstein certificates in ints
(``_certify_polynomial``), and its range on an interval is taken at the
exact critical points (``_poly_range_1d``).

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
from .errors import PositivityViolated, SchemaViolation, ValidationError
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
        for x in (self.a0, *self.b, *(c for _, c in self.coeffs)):
            if isinstance(x, float) and not math.isfinite(x):
                raise ValidationError(f"weight coefficients must be finite, got {x!r}")

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
        """(min_P g, max_P g) as floats of the exact extrema.

        The affine-based kinds take them at the vertices.  A polynomial
        weight on an interval takes them at the endpoints and at the real
        roots of g' (``_poly_range_1d``); for a polynomial weight in
        dimension > 1 there is no exact range, and it raises
        ValidationError.
        """
        if self.kind == "constant":
            c = float(self.a0)
            return c, c
        if self.kind in ("affine", "exp_affine"):
            vals = [self.a0 + _exact.dot(self.b, v) for v in P.vertices]
            lo, hi = min(vals), max(vals)
            if self.kind == "exp_affine":
                return math.exp(float(lo)), math.exp(float(hi))
            return float(lo), float(hi)
        _check_dim(P, self)
        if P.dim != 1:
            raise ValidationError(
                f"the range of a polynomial weight is exact in 1D only, not in dimension {P.dim}"
            )
        return _poly_range_1d(P, self)

    def check_positive(self, P: LabelledPolytope) -> None:
        """Certify g > 0 on P exactly, or raise PositivityViolated.

        Constant and affine weights are checked at the vertices, and an
        exp-affine weight is positive.  A polynomial weight gets a
        simplicial Bernstein certificate on each simplex of
        P.triangulation (``_certify_polynomial``): it is accepted only
        when it is proved positive, rejected at a point of P where it is
        <= 0, and rejected as "undecided" when the subdivision reaches its
        cap first (as for a weight >= 0 whose zeros are irrational).  A
        certificate is made once per (P, g) and kept while both live (see
        the module docstring); a rejection is not kept, so it raises again
        on every call.
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
        _check_dim(P, self)
        _certify_polynomial(P, self)

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
# exact positivity and range of polynomial weights
# ---------------------------------------------------------------------------

# a certificate halves at most _MAX_DEPTH edges along one path, and makes at
# most _MAX_PIECES pieces in all, before it calls a weight undecided
_MAX_DEPTH = 64
_MAX_PIECES = 4096


def _certify_polynomial(P: LabelledPolytope, g: WeightFunction) -> None:
    """Prove g > 0 on P in ints, one simplex of P.triangulation at a time.

    Let L be the common denominator of g's coefficients and d its degree.
    A simplex of ``_simplices(P)`` has int vertices w_0 = s0 and
    w_i = s0 + e_i (times D), and its kept t-polynomials D^|beta| x^beta
    (shared with the moment kernel) give L D^d g(x) as an int polynomial in
    t.  With lam_i = t_i and lam_0 = 1 - sum t, each t^iota of degree
    < d is made homogeneous by (lam_0 + ... + lam_n)^(d - |iota|), so
    L D^d g(x) = G(lam) with G homogeneous of degree d.  Its coefficients
    are the Bernstein coefficients times the positive d! / kappa!, and that
    of lam_k^d is L D^d g(w_k / D).  On each piece:

    * a coefficient of some lam_k^d that is <= 0 is a point of P where
      g <= 0, and g is rejected;
    * when every coefficient is >= 0, G >= sum_k G(e_k) lam_k^d > 0, and
      the piece is proved;
    * otherwise its longest edge is halved (``_halve``) and both halves
      are tested; the midpoint is a vertex of each.

    A path that reaches ``_MAX_DEPTH`` halvings, or a certificate that
    reaches ``_MAX_PIECES`` pieces, leaves g "undecided" and rejects it.
    (Leroy, "Certificates of positivity in the simplicial Bernstein
    basis", 2008; Farouki, CAGD 29, 2012.)
    """
    n = P.dim
    exact = [(a, Fraction(c)) for a, c in g.as_poly(n).items() if c]
    if not exact:
        raise PositivityViolated("polynomial weight is identically zero")
    L = math.lcm(*(c.denominator for _, c in exact))
    terms = [(a, c.numerator * (L // c.denominator)) for a, c in exact]
    d = max(sum(a) for a, _ in terms)
    # (lam_0 + ... + lam_n)^m for m = 0..d, by the multinomial theorem
    sums = [{k: math.factorial(m) // _kappa_factorial(k) for k in _compositions(m, n + 1)}
            for m in range(d + 1)]
    corners = [tuple(d * int(i == k) for i in range(n + 1)) for k in range(n + 1)]
    pieces = 0
    for S in _simplices(P):
        tpoly: dict = {}
        for beta, c in terms:
            c *= S.scale ** (d - sum(beta))
            for iota, v in _x_power(beta, S.lines, S.powers).items():
                tpoly[iota] = tpoly.get(iota, 0) + c * v
        G: dict = {}
        for iota, c in tpoly.items():
            for kappa, v in sums[d - sum(iota)].items():
                key = (kappa[0], *(x + y for x, y in zip(kappa[1:], iota)))
                G[key] = G.get(key, 0) + c * v
        verts = [S.s0] + [tuple(x + y for x, y in zip(S.s0, e)) for e in S.edges]
        stack = [(G, verts, S.scale, 0)]
        while stack:
            G, verts, scale, depth = stack.pop()
            for k, corner in enumerate(corners):
                if G.get(corner, 0) <= 0:
                    x = ", ".join(str(Fraction(y, scale)) for y in verts[k])
                    value = Fraction(G.get(corner, 0), L * scale**d)
                    raise PositivityViolated(
                        f"polynomial weight is not positive on the polytope: g({x}) = {value}"
                    )
            if min(G.values()) >= 0:
                continue
            if depth == _MAX_DEPTH or pieces >= _MAX_PIECES:
                raise PositivityViolated(
                    f"polynomial weight positivity undecided: no Bernstein certificate "
                    f"within {depth} halvings and {pieces} pieces"
                )
            i, j = max(
                ((i, j) for i in range(n + 1) for j in range(i + 1, n + 1)),
                key=lambda e: sum((x - y) ** 2 for x, y in zip(verts[e[0]], verts[e[1]])),
            )
            mid = tuple(x + y for x, y in zip(verts[i], verts[j]))
            for moved, kept in ((i, j), (j, i)):
                half = [tuple(2 * x for x in w) for w in verts]
                half[moved] = mid
                stack.append((_halve(G, moved, kept, d), half, 2 * scale, depth + 1))
            pieces += 2


def _halve(G: dict, i: int, j: int, d: int) -> dict:
    """2^d G on the half of the simplex whose vertex i moves to the midpoint
    of the edge (i, j), in that half's barycentric coordinates mu.

    There lam_i = mu_i / 2, lam_j = mu_j + mu_i / 2 and lam_k = mu_k
    otherwise, so 2^d G(lam) = G(2 lam) with 2 lam_i = mu_i,
    2 lam_j = 2 mu_j + mu_i and 2 lam_k = 2 mu_k: int coefficients again.
    """
    out: dict = {}
    for kappa, c in G.items():
        ki, kj = kappa[i], kappa[j]
        c <<= d - ki - kj
        key = list(kappa)
        for r in range(kj + 1):
            key[i], key[j] = ki + kj - r, r
            k = tuple(key)
            out[k] = out.get(k, 0) + (c * math.comb(kj, r) << r)
    return out


# a root of g' is isolated to an interval this many halvings below that of P
_ROOT_BITS = 64


def _poly_range_1d(P: LabelledPolytope, g: WeightFunction) -> tuple[float, float]:
    """(min, max) of a polynomial weight on an interval.

    The extrema lie at the endpoints or at real roots of g' between them
    (``_real_roots``).  g is evaluated there in Fractions and rounded
    once.  A root that is not exact is within w = (hi - lo) / 2^64 of the
    point used; since g' vanishes at it, g there is off by at most
    w max|g'| over that interval, far below a float's rounding for any g
    whose extremum is not within about w of zero relative to its size.
    """
    lo, hi = sorted(v[0] for v in P.vertices)
    poly = g.as_poly(1)
    p = [Fraction(poly.get((k,), 0)) for k in range(1 + max(k for (k,) in poly))]
    points = [lo, hi, *_real_roots(_derivative(p), lo, hi)]
    values = [_horner(p, x) for x in points]
    return float(min(values)), float(max(values))


def _real_roots(p: list, lo: Fraction, hi: Fraction) -> list:
    """The distinct real roots of p (Fraction coefficients, lowest first)
    in the open interval (lo, hi).

    A Sturm sequence of the square-free part q of p counts the roots of q
    in any (a, b]; bisection isolates each to width (hi - lo) / 2^64 and
    takes the interval's right end when q vanishes there, else its
    midpoint.  A q of degree 1 gives its root exactly.
    """
    p = _trim(p)
    if len(p) < 2:
        return []
    q = _poly_divmod(p, _poly_gcd(p, _derivative(p)))[0]
    if len(q) == 2:
        r = -q[0] / q[1]
        return [r] if lo < r < hi else []
    seq = [q, _derivative(q)]
    while len(seq[-1]) > 1:
        seq.append([-c for c in _poly_divmod(seq[-2], seq[-1])[1]])

    def changes(x) -> int:
        signs = [v > 0 for v in (_horner(s, x) for s in seq) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    width = (hi - lo) / 2**_ROOT_BITS
    roots = []
    stack = [(lo, hi, changes(lo), changes(hi))]
    while stack:
        a, b, va, vb = stack.pop()
        if va == vb:
            continue
        if va - vb == 1 and b - a <= width:
            roots.append(b if _horner(q, b) == 0 else (a + b) / 2)
            continue
        m = (a + b) / 2
        vm = changes(m)
        stack += [(a, m, va, vm), (m, b, vm, vb)]
    return [r for r in roots if lo < r < hi]


def _trim(p: list) -> list:
    """p without its zero leading coefficients."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _derivative(p: list) -> list:
    return [k * c for k, c in enumerate(p)][1:]


def _horner(p: list, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_divmod(a: list, b: list) -> tuple[list, list]:
    """(quotient, remainder) of Fraction polynomials, b nonzero."""
    a = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        f = a[k + len(b) - 1] / b[-1]
        quot[k] = f
        for i, c in enumerate(b):
            a[k + i] -= f * c
    return _trim(quot), _trim(a[: len(b) - 1])


def _poly_gcd(a: list, b: list) -> list:
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return a


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
