"""Seeded input generator for the four workloads.

``stream(workload, seed)`` yields the same endless sequence of plain-data
job descriptions for the same arguments; ``jobs`` takes its first ``count``.  Categorical choices (job type,
dimension, piece count, weight kind, size stratum) follow a fixed cycle per
job type, shuffled in blocks by the seed, so every category keeps its
natural share in every run; geometry and coefficients are drawn at random.
Nothing here imports ``toricgs``: the program receives only these inputs.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import geom

WORKLOADS = ("cli_mix", "toric_invariants", "lattice_filtration", "ma_1d")
WEIGHT_KINDS = ("constant", "affine", "exp_affine", "polynomial")


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"toricgs-bench:{workload}:{seed}")


class Cycle:
    """Round-robin over a fixed list of categories."""

    def __init__(self, items):
        self.items = list(items)
        self.i = 0

    def next(self):
        item = self.items[self.i % len(self.items)]
        self.i += 1
        return item


def _blocks(rng: random.Random, block):
    """Endless repeated seeded shuffles of ``block``."""
    while True:
        b = list(block)
        rng.shuffle(b)
        yield from b


# ---------------------------------------------------------------------------
# random geometry and weights
# ---------------------------------------------------------------------------


def polytope_points(rng: random.Random, dim: int, k: int | None = None):
    """Integer points whose hull has the origin strictly inside.

    2D: 3-8 points in [-3,3]^2; 3D: 4-8 points in [-2,2]^3.  ``k`` fixes
    the number of points drawn (the hull may keep fewer).
    """
    lo, hi, kmin = (-3, 3, 3) if dim == 2 else (-2, 2, 4)
    while True:
        n = k or rng.randint(kmin, 8)
        pts = sorted({tuple(rng.randint(lo, hi) for _ in range(dim)) for _ in range(n)})
        facets = geom.hull_facets(pts) if len(pts) > dim else None
        if facets and all(r > 0 for _, r in facets):
            return geom.vertices(pts, facets)


def polytope_with_vertices(rng: random.Random, dim: int, nv: int):
    """``polytope_points`` redrawn until the hull has exactly ``nv`` vertices."""
    while True:
        verts = polytope_points(rng, dim, rng.randint(nv, nv + 4))
        if len(verts) == nv:
            return verts


# The 16 reflexive polygons up to GL(2, Z), where the Kahler-Ricci soliton
# problem is posed (moment polytopes of the toric Fano surfaces and their
# Gorenstein degenerations); 3 to 9 boundary lattice points.
REFLEXIVE_2D = [
    [(0, -1), (1, 0), (-1, 1)],
    [(-1, -1), (1, 0), (-1, 1)],
    [(-1, -1), (1, -1), (1, 2)],
    [(0, -1), (2, 1), (-2, 1)],
    [(1, -2), (1, 1), (-2, 1)],
    [(0, -1), (1, -1), (1, 0), (-1, 1)],
    [(-1, -1), (0, -1), (1, 0), (-1, 1)],
    [(-1, -1), (-1, -2), (2, 1), (0, 1)],
    [(-1, -1), (1, 0), (1, 1), (-1, 0)],
    [(-1, -1), (1, -1), (1, 1), (-1, 0)],
    [(-1, -2), (2, 1), (0, 1), (-1, 0)],
    [(-1, -1), (1, -1), (1, 1), (-1, 1)],
    [(1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0)],
    [(-1, -1), (1, -1), (1, 0), (0, 1), (-1, 1)],
    [(-1, -1), (0, -1), (1, 0), (0, 1), (-1, 1)],
    [(0, -1), (1, -2), (1, -1), (0, 1), (-1, 2), (-1, 1)],
]


def reflexive_polygon(rng: random.Random, cls: int):
    """Reflexive polygon ``cls`` under a random symmetry of the square (axes
    swapped or negated).  Sheared copies are left out: on some of them the
    program's KR solve stops at MaxIterations."""
    swap = rng.random() < 0.5
    sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
    return sorted((sx * x, sy * y) for x, y in ((v[::-1] if swap else v) for v in REFLEXIVE_2D[cls]))


def interval(rng: random.Random, p1: bool | None = None, top: int = 8):
    """p1 when ``p1`` is true, else [-a, b] with a, b in [1/2, top/4]; by
    default p1 half of the time."""
    if p1 if p1 is not None else rng.random() < 0.5:
        return [(-1,), (1,)]
    a = Fraction(rng.randint(2, top), 4)
    b = Fraction(rng.randint(2, top), 4)
    return [(-a,), (b,)]


def _small(rng: random.Random, lim: int, den: int) -> Fraction:
    return Fraction(rng.randint(-lim, lim), den)


def weight(rng: random.Random, kind: str, verts):
    """A weight description ``(kind, a0, b)``; positive on conv(verts).

    polynomial means 1 + (a0 + <b,x>)^2; exp_affine has |b_i| <= 1, or 1/2
    in 3D, and in 2D and 3D distinct exponents at the origin and vertices.
    """
    dim = len(verts[0])
    if kind == "constant":
        return ("constant", Fraction(rng.randint(1, 8), 4), ())
    if kind == "exp_affine":
        # the program's exp quadrature can stop at QuadratureNotConverged on
        # steeper weights in 3D, and on exponents <b, x> that coincide at two
        # of the origin and the vertices, so those are redrawn
        steep = 10 if dim < 3 else 5
        while True:
            b = tuple(_small(rng, steep, 10) for _ in range(dim))
            values = [sum(bi * vi for bi, vi in zip(b, v)) for v in verts]
            if dim == 1 or len(set(values + [0])) == len(values) + 1:
                return ("exp_affine", _small(rng, 4, 4), b)
    if kind == "polynomial":
        return ("polynomial", _small(rng, 4, 4), tuple(_small(rng, 4, 8) for _ in range(dim)))
    reach = max(abs(x) for v in verts for x in v)
    while True:
        b = tuple(Fraction(rng.randint(-4, 4), 5) / reach for _ in range(dim))
        if all(1 + sum(bi * vi for bi, vi in zip(b, v)) > 0 for v in verts):
            return ("affine", Fraction(1), b)


def solve_weight(rng: random.Random, kind: str, verts):
    """A weight on an interval where the 1D MA solver converges: constant;
    affine 1 + bx with |b| max|x| <= 2/5; exp(a0 + bx) with a0 <= 1/2 and
    |b| <= 2/5 (steeper or larger exp weights stop at NewtonDiverged or
    WindowTooSmall)."""
    if kind == "constant":
        return weight(rng, kind, verts)
    reach = max(abs(v[0]) for v in verts)
    if kind == "affine":
        return ("affine", Fraction(1), (Fraction(rng.randint(-2, 2), 5) / reach,))
    return ("exp_affine", Fraction(rng.randint(-4, 2), 4), (Fraction(rng.randint(-4, 4), 10),))


def poly_coeffs(a0, b):
    """Monomial terms ``[(powers, coeff)]`` of 1 + (a0 + <b,x>)^2."""
    n = len(b)
    unit = lambda *idx: tuple(sum(1 for i in idx if i == k) for k in range(n))  # noqa: E731
    coeffs = {unit(): 1 + a0 * a0}
    for i in range(n):
        coeffs[unit(i)] = coeffs.get(unit(i), 0) + 2 * a0 * b[i]
        for j in range(n):
            coeffs[unit(i, j)] = coeffs.get(unit(i, j), 0) + b[i] * b[j]
    return sorted(coeffs.items())


def pl_pieces(rng: random.Random, dim: int, k: int):
    pieces = []
    for _ in range(k):
        a = tuple(_small(rng, 4, 2) for _ in range(dim))
        pieces.append((a, _small(rng, 4, 4)))
    return pieces


def direction(rng: random.Random, dim: int):
    while True:
        a = tuple(rng.randint(-2, 2) for _ in range(dim))
        if any(a):
            return a


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# one block of (job type[, dimension]) categories; the job list is a run of
# seeded shuffles of its workload's block, 3D in a quarter of the non-KR
# slots.  The weights put the median inside one dense job class, which keeps
# it steady from seed to seed: KR in toric_invariants, the dense ding-ray
# transforms in ma_1d, the per-point filtration in lattice_filtration.
#
# Every input lies in the domain where the program answers, so no job fails
# (``defects.py`` runs the rest of each input family); besides the exp
# weights of ``weight``:
# * KR solitons on the 16 reflexive polygons, each once per block;
# * Mabuchi solitons where the Mabuchi weight is positive, without which the
#   soliton does not exist;
# * 3D PL energies of one affine piece without an exp weight, and 3D dh
#   filtrations of one affine piece;
# * 1D MA solves with the weights of ``solve_weight``; 1D MA solves and
#   inequality suites on [-a, b] with a, b <= 5/4.
BLOCKS = {
    "toric_invariants": [("kr", 2)] * len(REFLEXIVE_2D)
    + [(t, d) for t in ("moments", "mabuchi", "delta", "pl") for d in (2, 2, 2, 3)],
    "lattice_filtration": [(t, d) for t in ("dh", "dh", "dh", "sg_lattice") for d in (2, 2, 2, 3)],
    "ma_1d": ["solve", "ray", "ray", "ray", "ineq"],
}
SOLVE_KINDS = ("constant", "affine", "exp_affine")


def _toric_invariants(rng: random.Random):
    # 3D delta leaves out polynomial weights, by far the slowest 3D jobs, so
    # the tail sits in the dense class of the other 3D jobs; 3D PL leaves out
    # exp weights, on which the program stalls
    kinds = {(t, d): Cycle(WEIGHT_KINDS) for t in ("moments", "delta", "pl") for d in (2, 3)}
    kinds["delta", 3] = Cycle(("constant", "affine", "exp_affine"))
    kinds["pl", 3] = Cycle(("constant", "affine", "polynomial"))
    pieces = Cycle((1, 2, 3, 4))
    classes = list(range(len(REFLEXIVE_2D)))
    rng.shuffle(classes)
    reflexive = Cycle(classes)
    # sizes cycle per category, since solve cost grows with the facet count:
    # 2D draws 3-8 points; a 3D hull has exactly 6, 7 or 8 vertices
    sizes = {}
    for jtype, dim in _blocks(rng, BLOCKS["toric_invariants"]):
        if jtype == "kr":
            yield {"type": "kr", "dim": 2, "points": reflexive_polygon(rng, reflexive.next())}
            continue
        size = sizes.setdefault((jtype, dim), Cycle(range(3, 9) if dim == 2 else (6, 7, 8))).next()
        while True:
            pts = polytope_points(rng, dim, size) if dim == 2 else polytope_with_vertices(rng, dim, size)
            if jtype != "mabuchi" or geom.mabuchi_positive(pts):
                break
        job = {"type": jtype, "dim": dim, "points": pts}
        if jtype in ("moments", "delta"):
            job["weight"] = weight(rng, kinds[jtype, dim].next(), pts)
        if jtype == "delta":
            job["directions"] = [direction(rng, dim) for _ in range(3)]
        elif jtype == "pl":
            job["weight"] = weight(rng, kinds["pl", dim].next(), pts)
            job["pieces"] = pl_pieces(rng, dim, pieces.next() if dim == 2 else 1)
        yield job


def _lattice_filtration(rng: random.Random):
    kinds = Cycle(WEIGHT_KINDS)
    pieces = Cycle((1, 2, 3, 4))
    # dh: target lattice-point counts; sg_lattice: target box candidates
    strata = {"dh": Cycle((1000, 1500, 2000, 2500)),
              "sg_lattice": Cycle((100_000, 150_000, 200_000, 250_000))}
    for jtype, dim in _blocks(rng, BLOCKS["lattice_filtration"]):
        pts = polytope_points(rng, dim)
        target = strata[jtype].next()
        if jtype == "dh":
            vol = float(geom.volume(pts))
            m = round((target / vol) ** (1 / dim))
            m = max(10, min(60, m)) if dim == 2 else max(2, min(12, m))
        else:
            box = 1
            for j in range(dim):
                box *= max(v[j] for v in pts) - min(v[j] for v in pts)
            m = max(60 if dim == 2 else 12, int((target / box) ** (1 / dim)))
        job = {
            "type": jtype,
            "dim": dim,
            "points": pts,
            "m": m,
            "weight": weight(rng, kinds.next(), pts),
        }
        if jtype == "dh":
            job["pieces"] = pl_pieces(rng, dim, pieces.next() if dim == 2 else 1)
        else:
            job["direction"] = direction(rng, dim)
        yield job


def _ma_1d(rng: random.Random):
    # every (weight kind, p1 or not) pair in turn per job type: the solve
    # cost depends on both
    kinds = {t: Cycle((kind, p1) for kind in (SOLVE_KINDS if t == "solve" else WEIGHT_KINDS)
                      for p1 in (True, False))
             for t in ("solve", "ray", "ineq")}
    for jtype in _blocks(rng, BLOCKS["ma_1d"]):
        kind, p1 = kinds[jtype].next()
        verts = interval(rng, p1, top=8 if jtype == "ray" else 5)
        job = {"type": jtype, "points": verts,
               "weight": (solve_weight if jtype == "solve" else weight)(rng, kind, verts)}
        if jtype == "ineq":
            job["seed"] = rng.randint(0, 10**6)
        yield job


_GENERATORS = {
    "toric_invariants": _toric_invariants,
    "lattice_filtration": _lattice_filtration,
    "ma_1d": _ma_1d,
}


_BL1P2 = [(-1, 0), (0, -1), (2, -1), (-1, 2)]
_CUBE = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
# bounding box [-2,2]^3 and 12 facets, the most a generated 3D polytope can
# have: its polynomial positivity samples are the largest lattice enumeration
# of toric_invariants, so peak RSS does not depend on what a seed draws
_BIPYRAMID = [(2, 0, 0), (0, 2, 0), (-2, 2, 0), (-2, 0, 0), (0, -2, 0), (2, -2, 0), (0, 0, 2), (0, 0, -2)]
# two pieces, one dominating: the 3D normalisation runs, the energy stays cheap
_FLAT = [((0, 0, 0), 0), ((0, 0, 0), -5)]


def warmup_jobs(workload: str):
    """Fixed small jobs, one per job type, run before timing starts."""
    one = ("constant", Fraction(1), ())
    if workload == "toric_invariants":
        return [
            {"type": "moments", "dim": 2, "points": _BL1P2, "weight": one},
            {"type": "kr", "dim": 2, "points": _BL1P2},
            {"type": "mabuchi", "dim": 2, "points": _BL1P2},
            {"type": "delta", "dim": 2, "points": _BL1P2, "weight": one, "directions": [(1, 0)]},
            {"type": "pl", "dim": 3, "points": _CUBE, "weight": one, "pieces": _FLAT},
            {"type": "moments", "dim": 3, "points": _BIPYRAMID,
             "weight": ("polynomial", Fraction(1, 4), (Fraction(1, 8), Fraction(-1, 8), Fraction(1, 8)))},
        ]
    if workload == "lattice_filtration":
        return [
            {"type": "dh", "dim": 3, "points": _CUBE, "m": 2, "weight": one, "pieces": _FLAT},
            {"type": "sg_lattice", "dim": 2, "points": _BL1P2, "m": 60, "weight": one,
             "direction": (1, 0)},
        ]
    p1 = [(-1,), (1,)]
    return [{"type": t, "points": p1, "weight": one, "seed": 0} for t in ("solve", "ray", "ineq")]


def stream(workload: str, seed: int):
    """The endless job sequence of an in-process workload."""
    return _GENERATORS[workload](rng_for(workload, seed))


def jobs(workload: str, seed: int, count: int):
    """The first ``count`` jobs of an in-process workload."""
    return list(itertools.islice(stream(workload, seed), count))
