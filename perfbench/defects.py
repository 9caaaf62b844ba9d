"""Known-defect census: inputs the timed workloads leave out, and how the
program fails on them.

The timed workloads of ``run.py`` keep to inputs where the program answers
(see ``gen.BLOCKS``), so that two runs of one seed agree on what failed.
This script runs the rest of each input family, the part where the program
is known to raise or stall, and tables the outcomes by probe and exception
class, so that a fix shows as a falling failure count.  From the repository
root::

    python3 perfbench/defects.py --seeds 1-2 --per-probe 12 --out perfbench/baseline_failures.json

Jobs run one at a time in this process under the workloads' CPU-time
deadlines; nothing here is timed for the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import gen, run  # noqa: E402

_SHEARS = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((1, -1), (0, 1)), ((1, 0), (-1, 1)))


def _sheared(rng: random.Random):
    """A reflexive polygon under one or two shears, coordinates in [-3, 3]."""
    while True:
        verts = gen.REFLEXIVE_2D[rng.randrange(len(gen.REFLEXIVE_2D))]
        for _ in range(rng.randint(1, 2)):
            (a, b), (c, d) = rng.choice(_SHEARS)
            verts = [(a * x + b * y, c * x + d * y) for x, y in verts]
        if max(abs(x) for v in verts for x in v) <= 3:
            return sorted(verts)


def _steep_exp(rng: random.Random, dim: int):
    return ("exp_affine", gen._small(rng, 4, 4), tuple(gen._small(rng, 10, 10) for _ in range(dim)))


def _coincident_exp(rng: random.Random):
    """A 2D exp weight whose exponent <b, x> takes one value at two of the
    origin and the vertices."""
    while True:
        pts = gen.polytope_points(rng, 2)
        b = tuple(gen._small(rng, 10, 10) for _ in range(2))
        values = [b[0] * x + b[1] * y for x, y in pts]
        if len(set(values + [0])) < len(values) + 1:
            return {"type": "moments", "dim": 2, "points": pts, "weight": ("exp_affine", gen._small(rng, 4, 4), b)}


def _wide(rng: random.Random):
    """[-a, b] with a, b in [1/2, 2] and max(a, b) > 5/4."""
    while True:
        verts = gen.interval(rng, p1=False)
        if max(abs(v[0]) for v in verts) > 1.25:
            return verts


def _pl3(rng, pieces, kind):
    pts = gen.polytope_with_vertices(rng, 3, rng.choice((6, 7, 8)))
    return {"type": "pl", "dim": 3, "points": pts, "weight": gen.weight(rng, kind, pts),
            "pieces": gen.pl_pieces(rng, 3, pieces)}


def _moments3(rng):
    pts = gen.polytope_with_vertices(rng, 3, rng.choice((6, 7, 8)))
    return {"type": "moments", "dim": 3, "points": pts, "weight": _steep_exp(rng, 3)}


def _dh3(rng):
    pts = gen.polytope_points(rng, 3)
    return {"type": "dh", "dim": 3, "points": pts, "m": rng.randint(4, 10),
            "weight": gen.weight(rng, rng.choice(gen.WEIGHT_KINDS), pts),
            "pieces": gen.pl_pieces(rng, 3, rng.randint(2, 4))}


def _ma(rng, jtype, verts, kind):
    """A 1D job; "steep" solve weights are the ``gen.weight`` ones, which
    reach twice the tilt of ``gen.solve_weight``."""
    job = {"type": jtype, "points": verts, "weight": gen.weight(rng, kind, verts)}
    if jtype == "ineq":
        job["seed"] = rng.randint(0, 10**6)
    return job


# probe name -> (workload, input maker); each maker draws one job
PROBES = {
    "kr_random_2d": ("toric_invariants", lambda r: {"type": "kr", "dim": 2, "points": gen.polytope_points(r, 2)}),
    "kr_sheared_reflexive": ("toric_invariants", lambda r: {"type": "kr", "dim": 2, "points": _sheared(r)}),
    "kr_3d": ("toric_invariants",
              lambda r: {"type": "kr", "dim": 3, "points": gen.polytope_with_vertices(r, 3, r.choice((6, 7, 8)))}),
    "e_g_na_3d_pieces": ("toric_invariants", lambda r: _pl3(r, r.randint(2, 4), r.choice(gen.WEIGHT_KINDS))),
    "e_g_na_3d_exp": ("toric_invariants", lambda r: _pl3(r, 1, "exp_affine")),
    "moments_3d_steep_exp": ("toric_invariants", _moments3),
    "moments_2d_coincident_exp": ("toric_invariants", _coincident_exp),
    "dh_3d_pieces": ("lattice_filtration", _dh3),
    "solve_ma_polynomial": ("ma_1d", lambda r: _ma(r, "solve", gen.interval(r), "polynomial")),
    "solve_ma_wide": ("ma_1d", lambda r: _ma(r, "solve", _wide(r), r.choice(gen.SOLVE_KINDS))),
    "solve_ma_steep": ("ma_1d", lambda r: _ma(r, "solve", gen.interval(r, top=5), r.choice(("affine", "exp_affine")))),
    "inequality_suite_wide": ("ma_1d", lambda r: _ma(r, "ineq", _wide(r), r.choice(gen.WEIGHT_KINDS))),
}


def census(seeds, per_probe: int) -> dict:
    t = run.import_package()
    signal.signal(signal.SIGPROF, run._raise_deadline)
    attempted, failures = {}, {}
    for name, (workload, make) in PROBES.items():
        for seed in seeds:
            rng = gen.rng_for(f"defects:{name}", seed)
            for _ in range(per_probe):
                job = run.run_checked(t, workload, make(rng))
                attempted[name] = attempted.get(name, 0) + 1
                if job.error:
                    key = f"{name}|{job.error}"
                    failures[key] = failures.get(key, 0) + 1
        print(name, attempted[name], {k: v for k, v in failures.items() if k.startswith(name + "|")},
              file=sys.stderr, flush=True)
    return {"env": run.env_record(), "seeds": seeds, "attempted": attempted,
            "failures": dict(sorted(failures.items()))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seeds", default="1-2", help="first-last")
    ap.add_argument("--per-probe", type=int, default=12, help="jobs per probe and seed")
    ap.add_argument("--out", help="write the table here as JSON")
    args = ap.parse_args(argv)
    for var in run.BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    lo, _, hi = args.seeds.partition("-")
    table = census(list(range(int(lo), int(hi or lo) + 1)), args.per_probe)
    text = json.dumps(table, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
