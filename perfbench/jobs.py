"""Job runners and correctness checks for the in-process workloads.

``RUNNERS[workload](t, job)`` executes one job against the ``toricgs``
package ``t`` and returns its outputs; this is the timed part.  The
matching ``CHECKS[workload](t, job, out)`` runs outside the timed interval
and raises :class:`CheckFailed` on a wrong answer.  Checks use the
benchmark's own exact geometry (``geom``) wherever that is cheap.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import gen, geom


class CheckFailed(Exception):
    """A job returned a wrong answer; ``check`` names the violated property."""

    def __init__(self, check: str, detail: str = ""):
        super().__init__(f"{check}: {detail}" if detail else check)
        self.check = check


def _require(ok: bool, check: str, detail: str = "") -> None:
    if not ok:
        raise CheckFailed(check, detail)


def build_weight(t, spec):
    """WeightFunction from a generator description ``(kind, a0, b)``."""
    kind, a0, b = spec
    W = t.WeightFunction
    if kind == "constant":
        return W.constant(a0)
    if kind == "affine":
        return W.affine(a0, b)
    if kind == "exp_affine":
        return W.exp_affine(a0, b)
    return W.polynomial(gen.poly_coeffs(a0, b))


# ---------------------------------------------------------------------------
# toric_invariants
# ---------------------------------------------------------------------------


def _unit(n, i):
    return [1.0 if j == i else 0.0 for j in range(n)]


def run_toric(t, job):
    P = t.from_vertices(job["points"])
    n = P.dim
    jtype = job["type"]
    if jtype == "moments":
        g = build_weight(t, job["weight"])
        out = {
            "P": P,
            "volume": t.weighted_volume(P, g),
            "barycenter": [float(x) for x in t.weighted_barycenter(P, g)],
            "futaki": [t.futaki(P, g, _unit(n, i)) for i in range(n)],
        }
        if job["weight"][0] == "constant":
            out["volume_exact"] = t.invariants.weighted_volume_exact(P, g)
        return out
    if jtype == "kr":
        return {"P": P, "sol": t.solve_kr_soliton(P)}
    if jtype == "mabuchi":
        return {"P": P, "sol": t.solve_mabuchi_soliton(P)}
    if jtype == "delta":
        g = build_weight(t, job["weight"])
        return {
            "P": P,
            "delta": t.delta_toric(P, g),
            "s_g": [t.s_g(P, g, a) for a in job["directions"]],
        }
    g = build_weight(t, job["weight"])
    f = t.PLConvexFunction(P, tuple(job["pieces"]))
    return {"P": P, "f": f, "e": t.e_g_na(P, g, f), "j": t.j_g_na(P, g, f)}


def _check_pl_min(job, f) -> None:
    """The program's pieces are the input pieces shifted by one constant, and
    their exact minimum over P is zero."""
    given = {(tuple(Fraction(x) for x in a), Fraction(c)) for a, c in job["pieces"]}
    shift = Fraction(job["pieces"][0][1]) - f.pieces[0][1]
    _require({(a, c - shift) for a, c in given} == set(f.pieces), "pl_pieces_shifted",
             f"{f.pieces} is not a shift of {job['pieces']}")
    low = geom.pl_minimum(job["points"], f.pieces)
    _require(low == 0, "pl_min_zero", f"exact minimum {low}")


def check_toric(t, job, out) -> None:
    P, pts, n = out["P"], job["points"], len(job["points"][0])
    jtype = job["type"]
    if jtype == "moments":
        vol = geom.volume(pts)
        _require(P.volume == vol, "volume_exact", f"{P.volume} != {vol}")
        scale = max(1.0, max(abs(x) for x in out["barycenter"]))
        dev = max(abs(f + b) for f, b in zip(out["futaki"], out["barycenter"]))
        _require(dev <= 1e-12 * scale, "futaki_identity", f"{dev:.3e}")
        if "volume_exact" in out:
            want = math.factorial(n) * job["weight"][1] * vol
            _require(out["volume_exact"] == want, "constant_volume", f"{out['volume_exact']} != {want}")
    elif jtype == "kr":
        b = t.weighted_barycenter(P, out["sol"].weight)
        dev = max(abs(float(x)) for x in b)
        _require(dev <= 1e-9, "kr_barycenter", f"{dev:.3e}")
    elif jtype == "mabuchi":
        first, second = geom.linear_moments(pts)
        b = out["sol"].b
        for i in range(n):
            r = first[i] + sum(second[i][j] * b[j] for j in range(n))
            _require(r == 0, "mabuchi_moment", f"row {i}: {r}")
    elif jtype == "delta":
        for a, s in zip(job["directions"], out["s_g"]):
            A = -min(sum(x * y for x, y in zip(a, v)) for v in pts)
            _require(s > 0 and out["delta"] <= A / s + 1e-12, "delta_bound", f"delta {out['delta']} vs A/S {A}/{s}")
    else:
        _check_pl_min(job, out["f"])


# ---------------------------------------------------------------------------
# lattice_filtration
# ---------------------------------------------------------------------------


def run_lattice(t, job):
    P = t.from_vertices(job["points"])
    g = build_weight(t, job["weight"])
    if job["type"] == "dh":
        f = t.PLConvexFunction(P, tuple(job["pieces"]))
        sample = t.dh_g_filtration(P, g, f, job["m"])
        positions, masses = sample.nu_atoms
        return {"f": f, "positions": positions, "masses": masses,
                "mass": sample.total_mass, "mean": sample.mean}
    return {"value": t.s_g_lattice(P, g, job["direction"], job["m"])}


def _close(got, want, rel=1e-9) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * max(1.0, abs(want))


def check_lattice(t, job, out) -> None:
    """Recompute each answer from the bench's own lattice points of mP."""
    pts, m = job["points"], job["m"]
    U = geom.lattice_points(pts, m)
    X = U / m
    w = geom.weight_values(job["weight"], X)
    if job["type"] == "dh":
        _check_pl_min(job, out["f"])
        low = float(min(out["positions"]))
        _require(low >= 0, "dh_atoms_nonnegative", f"min position {low}")
        mass = math.factorial(len(pts[0])) / m ** len(pts[0]) * math.fsum(w)
        _require(_close(out["mass"], mass), "dh_mass", f"{out['mass']} != {mass}")
        _require(_close(math.fsum(out["masses"]), mass), "dh_atom_masses", f"{math.fsum(out['masses'])} != {mass}")
        pieces = out["f"].pieces  # checked above against the input pieces
        slopes = np.array([[float(x) for x in a] for a, _ in pieces])
        values = np.max(X @ slopes.T + np.array([float(c) for _, c in pieces]), axis=1)
        mean = math.fsum(values * w) / math.fsum(w)
        _require(_close(out["mean"], mean), "dh_mean", f"{out['mean']} != {mean}")
    else:
        a = job["direction"]
        low = min(sum(x * y for x, y in zip(a, v)) for v in pts)
        want = math.fsum(w * (X @ np.array(a, dtype=float) - low)) / math.fsum(w)
        _require(_close(out["value"], want), "sg_lattice_sum", f"{out['value']} != {want}")


# ---------------------------------------------------------------------------
# ma_1d
# ---------------------------------------------------------------------------


def run_ma(t, job):
    P = t.from_vertices(job["points"])
    g = build_weight(t, job["weight"])
    if job["type"] == "solve":
        u = t.solve_ma(P, g, grid=t.Grid1D(N=2001))
        return {"u": u, "moments": t.pushforward_moments(u, g), "functionals": t.functionals(u, g, P)}
    if job["type"] == "ray":
        return {"ray": t.mafunc.ding_ray_diagnostic(P, g)}
    return {"suite": t.inequality_suite(P, g, samples=10, seed=job["seed"])}


def check_ma(t, job, out) -> None:
    if job["type"] == "solve":
        res = out["u"].residual
        _require(res < 1e-8, "ma_residual", f"{res:.3e}")
        worst = max(m["abs_diff"] for m in out["moments"].values())
        _require(worst < 1e-5, "pushforward_moments", f"{worst:.3e}")
    elif job["type"] == "ray":
        ray = out["ray"]
        vals = list(ray["D_values"]) + [ray["ray_slope"], ray["na_slope"]]
        _require(all(math.isfinite(v) for v in vals), "ray_finite", f"{vals}")
    else:
        bad = {k: v for k, v in out["suite"]["violations"].items() if v}
        _require(not bad, "inequality_bands", f"{bad}")


RUNNERS = {"toric_invariants": run_toric, "lattice_filtration": run_lattice, "ma_1d": run_ma}
CHECKS = {"toric_invariants": check_toric, "lattice_filtration": check_lattice, "ma_1d": check_ma}
