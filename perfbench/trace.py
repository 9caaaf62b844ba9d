"""External span tracer: wraps the package's public functions from outside.

``Tracer.install(pkg)`` replaces every public module-level function of the
traced modules (and a few methods) with a recorder, and rebinds the name in
every ``toricgs`` module that imported it, so ``from .polytope import
from_facets`` inside ``stability`` is traced too.  Spans are kept in memory
as ``[name, start, end, parent, job, info, error]`` lists.  ``layer_metrics``
turns them into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from functools import cached_property

MODULES = ("cli", "polytope", "_exact", "quadrature", "invariants", "stability", "mafunc")

# scalar leaf helpers called per coordinate; wrapping them would measure the
# wrapper, and no per-layer metric needs them
SKIP = {"_exact.frac", "_exact.dot", "_exact.primitive", "quadrature.encode_number",
        "quadrature.decode_number", "cli.thread_cap"}

NAME, START, END, PARENT, JOB, INFO, ERROR = range(7)


def _candidates(P, m: int) -> int:
    """Bounding-box candidate count of mP, as ``lattice_points`` enumerates."""
    count = 1
    for j in range(P.dim):
        coords = [v[j] * m for v in P.vertices]
        count *= max(0, math.floor(max(coords)) - math.ceil(min(coords)) + 1)
    return count


def _info_for(name: str):
    """Extra per-span data recorded from a call's arguments and result."""
    if name == "polytope.triangulation":
        return lambda args, kwargs, result: {"simplices": len(result)}
    if name == "polytope.lattice_points":
        return lambda args, kwargs, result: {
            "points": len(result), "candidates": _candidates(args[0], args[1])}
    if name == "stability.dh_g_filtration":
        return lambda args, kwargs, result: {"points": len(result.entries)}
    if name in ("invariants.solve_kr_soliton", "mafunc.solve_ma"):
        return lambda args, kwargs, result: {"iterations": result.iterations}
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.job = None
        self.undo: list = []

    def wrap(self, name: str, fn):
        spans, stack, info = self.spans, self.stack, _info_for(name)
        exact_flag = name == "quadrature.integrate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.job, None, None]
            if exact_flag:
                rec[INFO] = {"exact": args[1].is_polynomial_kind}
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    rec[INFO] = info(args, kwargs, result)
                return result
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()

        return traced

    def start_job(self, job) -> None:
        """Attribute the next spans to ``job``.  A deadline can interrupt a
        wrapper between its bookkeeping steps and leave a stale entry on the
        stack, so each job starts from an empty one."""
        self.job = job
        self.stack.clear()

    def _set(self, owner, attr, value) -> None:
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self.undo:
            owner, attr, value = self.undo.pop()
            setattr(owner, attr, value)

    def install(self, pkg) -> None:
        mods = {name: importlib.import_module(f"{pkg.__name__}.{name}") for name in MODULES}
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                full = f"{short}.{attr}"
                if (attr.startswith("_") or full in SKIP or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                replaced[id(obj)] = self.wrap(full, obj)
        # rebind every alias in the package, including the top-level namespace
        for mod in [pkg] + list(mods.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    self._set(mod, attr, replaced[id(obj)])
        poly, stab = mods["polytope"], mods["stability"]
        cls = poly.LabelledPolytope
        self._set(cls, "lattice_points", self.wrap("polytope.lattice_points", cls.lattice_points))
        pl = stab.PLConvexFunction
        self._set(pl, "__post_init__", self.wrap("stability.PLConvexFunction", pl.__post_init__))
        # the filtration's aggregates are lazy and run inside the job
        for attr in ("nu_atoms", "total_mass", "mean"):
            prop = stab.FiltrationSample.__dict__[attr]
            self._set(stab.FiltrationSample, attr, self._cached(f"stability.FiltrationSample.{attr}", prop))
        self._set(cls, "triangulation", self._cached("polytope.triangulation", cls.__dict__["triangulation"]))

    def _cached(self, name, prop):
        new = cached_property(self.wrap(name, prop.func))
        new.attrname = prop.attrname
        return new


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------

# span names reported with .calls and .ms
CALLS_MS = [
    "polytope.from_vertices", "polytope.from_facets", "polytope.lattice_points",
    "_exact.solve", "_exact.det",
    "quadrature.integrate", "quadrature.simplex_poly_integral",
    "quadrature.simplex_exp_integral", "quadrature.exp_divided_difference",
    "quadrature.gm_integrate",
    "invariants.weighted_volume", "invariants.weighted_barycenter", "invariants.futaki",
    "invariants.solve_kr_soliton", "invariants.solve_mabuchi_soliton",
    "stability.s_g", "stability.delta_toric", "stability.PLConvexFunction",
    "stability.e_g_na", "stability.j_g_na", "stability.dh_g_filtration",
    "stability.s_g_lattice",
    "mafunc.solve_ma", "mafunc.ding_ray_diagnostic", "mafunc.functionals",
    "mafunc.inequality_suite", "mafunc.pushforward_moments", "mafunc.random_potential",
]
SELF_MS = ["polytope.from_vertices", "polytope.from_facets", "quadrature.integrate", "mafunc.solve_ma"]
CALLS_ONLY = ["_exact.rank", "_exact.nullspace"]
CLI_MS = ["cli.main", "cli.parse_polytope", "cli.parse_weight", "cli.run_command", "cli.render_report"]
IMPORT = ["import.interpreter_ms", "import.numpy_ms", "import.toricgs_ms"]


def _metric(span: str) -> str:
    """Metric prefix of a span name; metric names must start alphanumeric,
    so the ``_exact`` module reports as ``exact``."""
    return span.lstrip("_")


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = [(n, "ms") for n in IMPORT]
    out += [(f"{n}.ms", "ms") for n in CLI_MS]
    for n in CALLS_MS:
        out += [(f"{_metric(n)}.calls", "count"), (f"{_metric(n)}.ms", "ms")]
        if n in SELF_MS:
            out.append((f"{_metric(n)}.self_ms", "ms"))
    out += [(f"{_metric(n)}.calls", "count") for n in CALLS_ONLY]
    out += [
        ("polytope.triangulation.ms", "ms"), ("polytope.triangulation.simplices", "count"),
        ("polytope.lattice_points.points", "count"), ("polytope.lattice_points.candidates", "count"),
        ("polytope.lattice_points.kept_ratio", "1"),
        ("quadrature.integrate.exact.calls", "count"), ("quadrature.integrate.exact.ms", "ms"),
        ("quadrature.integrate.exp.calls", "count"), ("quadrature.integrate.exp.ms", "ms"),
        ("quadrature.gm_fallback_ratio", "1"),
        ("invariants.solve_kr_soliton.iterations", "count"),
        ("invariants.solve_kr_soliton.integrals_per_iter", "1"),
        ("stability.dh_g_filtration.points", "count"),
        ("stability.dh_g_filtration.us_per_point", "us"),
        ("mafunc.solve_ma.iterations", "count"),
        ("trace.overhead_ratio", "1"), ("trace.coverage", "1"),
    ]
    return out


def keep_spans(spans, cut_jobs):
    """Indices of the spans that repeat exactly across runs.

    A job cut by its deadline stops at a timing-dependent point, so of its
    spans only the top-level ones are kept; every other job keeps all.
    """
    return [i for i, s in enumerate(spans) if s[JOB] not in cut_jobs or s[PARENT] is None]


def _has_ancestor(spans, s, name) -> bool:
    p = s[PARENT]
    while p is not None:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans, kept, extra):
    """Per-layer metrics from the kept span indices plus run-level ``extra``."""
    kept_set = set(kept)
    child = {}
    for i in kept:
        p = spans[i][PARENT]
        if p is not None:
            child[p] = child.get(p, 0.0) + spans[i][END] - spans[i][START]
    calls, ms, self_ms, by_name = {}, {}, {}, {}
    for i in kept:
        s = spans[i]
        name, dur = s[NAME], s[END] - s[START]
        by_name.setdefault(name, []).append(s)
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + 1000 * (dur - child.get(i, 0.0))
        if not _has_ancestor(spans, s, name):
            ms[name] = ms.get(name, 0.0) + 1000 * dur

    def total(name, key):
        return sum(s[INFO][key] for s in by_name.get(name, ()) if s[INFO] and key in s[INFO])

    out = {n: extra[n] for n in IMPORT}
    for n in CLI_MS:
        out[f"{n}.ms"] = ms.get(n, 0.0)
    for n in CALLS_MS:
        out[f"{_metric(n)}.calls"] = calls.get(n, 0)
        out[f"{_metric(n)}.ms"] = ms.get(n, 0.0)
        if n in SELF_MS:
            out[f"{_metric(n)}.self_ms"] = self_ms.get(n, 0.0)
    for n in CALLS_ONLY:
        out[f"{_metric(n)}.calls"] = calls.get(n, 0)
    out["polytope.triangulation.ms"] = ms.get("polytope.triangulation", 0.0)
    out["polytope.triangulation.simplices"] = total("polytope.triangulation", "simplices")
    points = total("polytope.lattice_points", "points")
    cands = total("polytope.lattice_points", "candidates")
    out["polytope.lattice_points.points"] = points
    out["polytope.lattice_points.candidates"] = cands
    out["polytope.lattice_points.kept_ratio"] = points / cands if cands else 0.0
    for kind, exact in (("exact", True), ("exp", False)):
        sel = [s for s in by_name.get("quadrature.integrate", ()) if s[INFO]["exact"] is exact]
        out[f"quadrature.integrate.{kind}.calls"] = len(sel)
        out[f"quadrature.integrate.{kind}.ms"] = sum(1000 * (s[END] - s[START]) for s in sel)
    sei = calls.get("quadrature.simplex_exp_integral", 0)
    fallback = sum(1 for s in by_name.get("quadrature.gm_integrate", ())
                   if s[PARENT] in kept_set and spans[s[PARENT]][NAME] == "quadrature.simplex_exp_integral")
    out["quadrature.gm_fallback_ratio"] = fallback / sei if sei else 0.0
    kr = "invariants.solve_kr_soliton"
    iters = total(kr, "iterations")
    under_kr = sum(1 for s in by_name.get("quadrature.integrate", ()) if _has_ancestor(spans, s, kr))
    out[f"{kr}.iterations"] = iters
    out[f"{kr}.integrals_per_iter"] = under_kr / iters if iters else 0.0
    dh = "stability.dh_g_filtration"
    dh_points = total(dh, "points")
    out[f"{dh}.points"] = dh_points
    out[f"{dh}.us_per_point"] = 1000 * ms.get(dh, 0.0) / dh_points if dh_points else 0.0
    out["mafunc.solve_ma.iterations"] = total("mafunc.solve_ma", "iterations")
    for n in ("trace.overhead_ratio", "trace.coverage"):
        out[n] = extra[n]
    return out


def top_level_seconds(spans, kept, job) -> float:
    return sum(spans[i][END] - spans[i][START] for i in kept
               if spans[i][JOB] == job and spans[i][PARENT] is None)
