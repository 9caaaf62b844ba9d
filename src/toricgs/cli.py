"""Command-line front end: parsing, dispatch, deterministic reports.

Every run produces a canonical report {command, inputs, results,
diagnostics, version[, seed]} whose inputs block is self-contained (the
polytope and weight are embedded in canonical form), so a saved report can
be re-rendered or re-executed by the ``report`` subcommand.  Output is
deterministic: identical inputs and seed give byte-identical JSON.

Exit codes: 0 success, 2 validation error (structured JSON on stderr),
1 numerical failure, a float overflow or division by zero included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from fractions import Fraction

from . import __version__, polytope
from ._exact import lazy, np
from .errors import (
    NumericalFailure,
    PolytopeError,
    SchemaViolation,
    ToricGSError,
    UnknownCommand,
    ValidationError,
)
from .polytope import LabelledPolytope
from .quadrature import WeightFunction, decode_number, encode_number

# loaded by the first subcommand that runs them
invariants = lazy(f"{__package__}.invariants")
stability = lazy(f"{__package__}.stability")
mafunc = lazy(f"{__package__}.mafunc")

_COMMANDS = (
    "check-futaki",
    "solve-soliton",
    "sg",
    "delta",
    "ding-na",
    "dh",
    "solve-ma",
    "functionals",
    "inequalities",
    "report",
)


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def _load_json(path: str, pointer: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaViolation(f"file not found: {path}", pointer)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaViolation(f"invalid JSON in {path}: {exc}", pointer)


def parse_polytope(spec: str) -> LabelledPolytope:
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        try:
            return polytope.builtin(name)
        except PolytopeError:
            raise SchemaViolation(
                f"unknown builtin polytope {name!r}; choices: "
                f"{', '.join(polytope.builtin_names())}",
                "/polytope",
            )
    return polytope_from_dict(_load_json(spec, "/polytope"))


def _list(x, pointer: str) -> list:
    if not isinstance(x, list):
        raise SchemaViolation(f"expected a list, got {type(x).__name__}", pointer)
    return x


def _numbers(x, pointer: str) -> list:
    return [decode_number(v, pointer) for v in _list(x, pointer)]


def _int(x, pointer: str) -> int:
    value = decode_number(x, pointer)
    if value != int(value):
        raise SchemaViolation(f"expected an integer, got {x!r}", pointer)
    return int(value)


def polytope_from_dict(d: dict) -> LabelledPolytope:
    if not isinstance(d, dict):
        raise SchemaViolation("polytope must be an object", "/polytope")
    if "facets" in d:
        facets = d["facets"]
        if not isinstance(facets, list) or not facets:
            raise SchemaViolation("facets must be a non-empty list", "/polytope/facets")
        normals = []
        labels = []
        for i, f in enumerate(facets):
            if not isinstance(f, dict) or "normal" not in f:
                raise SchemaViolation(
                    "each facet needs a 'normal'", f"/polytope/facets/{i}"
                )
            normals.append(_numbers(f["normal"], f"/polytope/facets/{i}/normal"))
            labels.append(decode_number(f.get("label", 1), f"/polytope/facets/{i}/label"))
        return polytope.from_facets(normals, labels)
    if "normals" in d:
        normals = [
            _numbers(row, f"/polytope/normals/{i}")
            for i, row in enumerate(_list(d["normals"], "/polytope/normals"))
        ]
        labels = _numbers(d.get("labels", [1] * len(normals)), "/polytope/labels")
        return polytope.from_facets(normals, labels)
    if "vertices" in d:
        verts = [
            _numbers(row, f"/polytope/vertices/{i}")
            for i, row in enumerate(_list(d["vertices"], "/polytope/vertices"))
        ]
        return polytope.from_vertices(verts)
    raise SchemaViolation(
        "polytope object needs 'facets', 'normals', or 'vertices'", "/polytope"
    )


def parse_weight(spec: str) -> WeightFunction:
    if ":" in spec and not os.path.sep in spec.split(":", 1)[0]:
        kind, _, rest = spec.partition(":")
        if kind == "constant":
            return WeightFunction.constant(decode_number(rest, "/g"))
        if kind in ("affine", "exp_affine"):
            parts = [p for p in rest.split(",") if p != ""]
            if not parts:
                raise SchemaViolation(f"{kind} weight needs a0,b1,...", "/g")
            nums = [decode_number(p, "/g") for p in parts]
            ctor = WeightFunction.affine if kind == "affine" else WeightFunction.exp_affine
            return ctor(nums[0], nums[1:])
        if kind == "polynomial":
            if not rest.startswith("@"):
                raise SchemaViolation("polynomial weight takes @file", "/g")
            return WeightFunction.from_dict(_load_json(rest[1:], "/g"))
        if os.path.exists(spec):
            return WeightFunction.from_dict(_load_json(spec, "/g"))
        raise SchemaViolation(
            f"unknown weight kind {kind!r}; use constant/affine/exp_affine/polynomial",
            "/g",
        )
    return WeightFunction.from_dict(_load_json(spec, "/g"))


def _finite_float(text: str) -> float:
    """argparse type for float flags: finite values only."""
    return float(decode_number(text, "/argv"))


def parse_direction(text: str):
    parts = [p for p in text.split(",") if p != ""]
    if not parts:
        raise SchemaViolation("direction must be x[,y,...]", "/a")
    return tuple(decode_number(p, "/a") for p in parts)


def _encode_vec(v) -> list:
    return [encode_number(x) for x in v]


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _json_default(o):
    if isinstance(o, Fraction):
        return encode_number(o)
    # a numpy object means numpy is loaded: only then is ``np`` touched
    if not type(o).__module__.startswith("numpy"):
        raise TypeError(f"not JSON serializable: {type(o).__name__}")
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return [float(x) for x in o]
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def render_report(report: dict, fmt: str) -> str:
    """Canonical JSON (or Markdown around it); RFC 8259 has no NaN or Infinity."""
    try:
        payload = json.dumps(
            report, sort_keys=True, indent=2, default=_json_default, allow_nan=False
        )
    except ValueError as exc:
        raise NumericalFailure(f"report holds a non-finite number: {exc}")
    if fmt == "json":
        return payload + "\n"
    lines = [
        f"# Report: {report.get('command', '?')}",
        "",
        f"- version: {report.get('version', '?')}",
    ]
    if "seed" in report:
        lines.append(f"- seed: {report['seed']}")
    lines += [
        "",
        "Numeric payload (canonical JSON):",
        "",
        "```json",
        payload,
        "```",
        "",
    ]
    return "\n".join(lines)


def _emit_error(exc: ToricGSError) -> None:
    body = {"error": type(exc).__name__, "message": str(exc)}
    pointer = getattr(exc, "pointer", None)
    if pointer:
        body["pointer"] = pointer
    history = getattr(exc, "history", None)
    if history:
        body["history_tail"] = [float(h) for h in history[-5:]]
    sys.stderr.write(json.dumps(body, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# command runners: inputs dict -> (results, diagnostics)
# ---------------------------------------------------------------------------


def _field(inputs: dict, key: str):
    if key not in inputs:
        raise SchemaViolation(f"inputs need {key!r}", f"/{key}")
    return inputs[key]


def _decode_polytope(inputs: dict) -> LabelledPolytope:
    return polytope_from_dict(_field(inputs, "polytope"))


def _decode_weight(inputs: dict, P: LabelledPolytope) -> WeightFunction:
    """The weight, certified positive on P (every command needs g > 0)."""
    g = WeightFunction.from_dict(_field(inputs, "g"))
    if g.dim not in (None, P.dim):
        raise SchemaViolation(f"weight needs dimension {P.dim}, got {g.dim}", "/g")
    g.check_positive(P)
    return g


def _slope(x, P: LabelledPolytope, pointer: str) -> tuple:
    a = tuple(_numbers(x, pointer))
    if len(a) != P.dim:
        raise SchemaViolation(f"slope needs {P.dim} entries, got {len(a)}", pointer)
    return a


def _decode_direction(inputs: dict, P: LabelledPolytope):
    return _slope(_field(inputs, "a"), P, "/a")


def _int_input(inputs: dict, key: str, default: int, least: int = 1) -> int:
    value = _int(inputs.get(key, default), f"/{key}")
    if value < least:
        raise SchemaViolation(f"{key} must be >= {least}, got {value}", f"/{key}")
    return value


def _tol(inputs: dict, default: float) -> float:
    return float(decode_number(inputs.get("tol", default), "/tol"))


def _run_check_futaki(inputs: dict):
    P = _decode_polytope(inputs)
    g = _decode_weight(inputs, P)
    tol = _tol(inputs, 1e-10)
    b, vanishes, rule = invariants._zero_barycenter(P, g, tol)
    norm = invariants._norm(b)
    basis = []
    for i in range(P.dim):
        xi = [0.0] * P.dim
        xi[i] = 1.0
        basis.append(invariants.futaki(P, g, xi))
    results = {
        "barycenter": [float(x) for x in b],
        "barycenter_norm": norm,
        "futaki_basis": basis,
        "futaki_vanishes": vanishes,
        "V_g": invariants.weighted_volume(P, g),
    }
    diagnostics = {
        "tol": tol,
        "decided_by": rule,
        "identity_max_dev": max(abs(basis[i] + float(b[i])) for i in range(P.dim)),
    }
    return results, diagnostics


def _run_solve_soliton(inputs: dict):
    P = _decode_polytope(inputs)
    kind = inputs.get("kind", "kr")
    if kind == "kr":
        sol = invariants.solve_kr_soliton(P)
    elif kind == "mabuchi":
        sol = invariants.solve_mabuchi_soliton(P)
    else:
        raise SchemaViolation(f"unknown soliton kind {kind!r}", "/kind")
    b = invariants._zero_barycenter(P, sol.weight, 0.0)[0]
    results = sol.to_dict()
    results["barycenter"] = [float(x) for x in b]
    results["V_g"] = invariants.weighted_volume(P, sol.weight)
    diagnostics = {
        "iterations": sol.iterations,
        "residual": sol.residual,
        "gradient_history": [float(h) for h in sol.history],
    }
    return results, diagnostics


def _run_sg(inputs: dict):
    P = _decode_polytope(inputs)
    g = _decode_weight(inputs, P)
    a = _decode_direction(inputs, P)
    A = stability.log_discrepancy(P, a)
    S = stability.s_g(P, g, a)
    results = {"A": A, "S_g": S, "ratio": A / S, "ding": A - S}
    diagnostics = {}
    if "m" in inputs:
        m = _int_input(inputs, "m", 1)
        lat = stability.s_g_lattice(P, g, a, m)
        results["S_g_lattice"] = lat
        diagnostics["lattice_m"] = m
        diagnostics["lattice_abs_dev"] = abs(lat - S)
    return results, diagnostics


def _run_delta(inputs: dict):
    P = _decode_polytope(inputs)
    g = _decode_weight(inputs, P)
    tol = _tol(inputs, 1e-8)
    delta, direction = stability.delta_toric(P, g, with_direction=True)
    check = stability.g_uniform_check(P, g, tol=tol)
    results = {
        "delta": float(delta),
        "minimizing_direction": [float(x) for x in direction],
        "stable_modulo_torus": check["stable_modulo_torus"],
        "barycenter_norm": check["barycenter_norm"],
    }
    return results, {"tol": tol, "decided_by": check["decided_by"]}


def _run_ding_na(inputs: dict):
    P = _decode_polytope(inputs)
    g = _decode_weight(inputs, P)
    a = _decode_direction(inputs, P)
    A = stability.log_discrepancy(P, a)
    S = stability.s_g(P, g, a)
    return {"A": A, "S_g": S, "ding": A - S}, {}


def _decode_pl(inputs: dict, P: LabelledPolytope) -> stability.PLConvexFunction:
    if "pl" in inputs:
        d = inputs["pl"]
        if not isinstance(d, dict) or not _list(d.get("pieces"), "/pl/pieces"):
            raise SchemaViolation("PL function needs non-empty 'pieces'", "/pl")
        pieces = []
        for i, p in enumerate(d["pieces"]):
            if not isinstance(p, dict) or "a" not in p:
                raise SchemaViolation("each piece needs 'a'", f"/pl/pieces/{i}")
            a = _slope(p["a"], P, f"/pl/pieces/{i}/a")
            c = decode_number(p.get("c", 0), f"/pl/pieces/{i}/c")
            pieces.append((a, c))
        return stability.PLConvexFunction(P, tuple(pieces))
    if "a" in inputs:
        a = _decode_direction(inputs, P)
        if not all(isinstance(x, Fraction) for x in a):
            raise SchemaViolation("dh needs a rational direction", "/a")
        return stability.PLConvexFunction.valuation_type(P, a)
    raise SchemaViolation("dh needs --pl-file or --a", "/pl")


def _run_dh(inputs: dict):
    P = _decode_polytope(inputs)
    g = _decode_weight(inputs, P)
    f = _decode_pl(inputs, P)
    m = _int_input(inputs, "m", 20)
    sample = stability.dh_g_filtration(P, g, f, m)
    positions, masses = sample.nu_atoms
    atoms_full = len(positions)
    cap = 200
    atoms = [
        {"position": float(p), "mass": float(w)}
        for p, w in zip(positions[:cap], masses[:cap])
    ]
    results = {
        "m": m,
        "lattice_points": len(sample.points),
        "total_mass": sample.total_mass,
        "mean": sample.mean,
        "atoms": atoms,
        "atoms_truncated": bool(atoms_full > cap),
        "e_g_na": stability.e_g_na(P, g, f),
        "lambda_na": stability.lambda_na(f),
        "j_g_na": stability.j_g_na(P, g, f),
    }
    Vg = invariants.weighted_volume(P, g)
    diagnostics = {
        "V_g": Vg,
        "mass_rel_dev": abs(sample.total_mass - Vg) / Vg,
        "mean_vs_e_g_na": abs(sample.mean - results["e_g_na"]),
    }
    return results, diagnostics


def _grid_from_inputs(inputs: dict) -> mafunc.Grid1D:
    if "grid" in inputs:
        return mafunc.Grid1D.from_dict(inputs["grid"], "/grid")
    return mafunc.Grid1D()


def _run_solve_ma(inputs: dict):
    P = _decode_polytope(inputs)
    g = _decode_weight(inputs, P)
    grid = _grid_from_inputs(inputs)
    tol = _tol(inputs, 1e-10)
    u = mafunc.solve_ma(P, g, grid=grid, tol=tol)
    moments = mafunc.pushforward_moments(u, g)
    results = {
        "c": u.c,
        "residual": u.residual,
        "iterations": u.iterations,
        "tail_gap": u.tail_gap,
        "potential": u.to_dict(),
        "pushforward_moments": {
            str(k): v for k, v in moments.items()
        },
    }
    diagnostics = {
        "tol": tol,
        "residual_history": [float(h) for h in u.history],
    }
    if inputs.get("ding_ray"):
        results["ding_ray"] = mafunc.ding_ray_diagnostic(P, g, grid=grid)
    return results, diagnostics


def _run_functionals(inputs: dict):
    P = _decode_polytope(inputs)
    g = _decode_weight(inputs, P)
    if "potential" not in inputs:
        raise SchemaViolation("functionals needs --u with a potential file", "/potential")
    u = mafunc.DiscretePotential.from_dict(inputs["potential"], P)
    vals = mafunc.functionals(u, g, P)
    return vals.to_dict(), {"grid": u.grid.to_dict()}


def _run_inequalities(inputs: dict):
    P = _decode_polytope(inputs)
    g = _decode_weight(inputs, P)
    samples = _int_input(inputs, "samples", 100)
    seed = _int_input(inputs, "seed", 0, least=0)
    grid = _grid_from_inputs(inputs)
    rep = mafunc.inequality_suite(P, g, samples=samples, seed=seed, grid=grid)
    diagnostics = {"grid": grid.to_dict()}
    return rep, diagnostics


_RUNNERS = {
    "check-futaki": _run_check_futaki,
    "solve-soliton": _run_solve_soliton,
    "sg": _run_sg,
    "delta": _run_delta,
    "ding-na": _run_ding_na,
    "dh": _run_dh,
    "solve-ma": _run_solve_ma,
    "functionals": _run_functionals,
    "inequalities": _run_inequalities,
}


def run_command(command: str, inputs: dict) -> dict:
    """Execute a command from its canonical inputs and build the report."""
    if not isinstance(command, str) or command not in _RUNNERS:
        raise UnknownCommand(f"unknown command {command!r}")
    # numpy's float warnings would break the one-JSON-object stderr of a
    # failure; a non-finite result still fails in render_report
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        results, diagnostics = _RUNNERS[command](inputs)
    report = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "diagnostics": diagnostics,
        "version": __version__,
    }
    if "seed" in inputs:
        report["seed"] = _int(inputs["seed"], "/seed")
    return report


# ---------------------------------------------------------------------------
# argv -> canonical inputs
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SchemaViolation(message, "/argv")


def _build_parser() -> _Parser:
    parser = _Parser(prog="toricgs", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--format", choices=("json", "md"), default="json")
        return p

    def add_pg(p, weight_default=None):
        p.add_argument("--polytope", required=True)
        if weight_default is None:
            p.add_argument("--g", required=True)
        else:
            p.add_argument("--g", default=weight_default)

    p = add("check-futaki")
    add_pg(p)
    p.add_argument("--tol", type=_finite_float)

    p = add("solve-soliton")
    p.add_argument("--polytope", required=True)
    p.add_argument("--kind", choices=("kr", "mabuchi"), default="kr")

    p = add("sg")
    add_pg(p)
    p.add_argument("--a", required=True)
    p.add_argument("--m", type=int)

    p = add("delta")
    add_pg(p)
    p.add_argument("--tol", type=_finite_float)

    p = add("ding-na")
    add_pg(p)
    p.add_argument("--a", required=True)

    p = add("dh")
    add_pg(p)
    p.add_argument("--a")
    p.add_argument("--pl-file")
    p.add_argument("--m", type=int, default=20)

    p = add("solve-ma")
    add_pg(p, weight_default="constant:1")
    p.add_argument("--tol", type=_finite_float)
    p.add_argument("--grid-r", type=_finite_float, default=12.0)
    p.add_argument("--grid-n", type=int, default=2001)
    p.add_argument("--ding-ray", action="store_true")
    p.add_argument("--out")

    p = add("functionals")
    add_pg(p, weight_default="constant:1")
    p.add_argument("--u", required=True)

    p = add("inequalities")
    add_pg(p, weight_default="constant:1")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-r", type=_finite_float, default=12.0)
    p.add_argument("--grid-n", type=int, default=2001)

    p = add("report")
    p.add_argument("--input", required=True)
    p.add_argument("--rerun", action="store_true")
    return parser


def _inputs_from_args(args) -> dict:
    """Canonicalize parsed flags into the self-contained inputs block."""
    inputs: dict = {}
    if getattr(args, "polytope", None) is not None:
        inputs["polytope"] = parse_polytope(args.polytope).to_dict()
    if getattr(args, "g", None) is not None:
        inputs["g"] = parse_weight(args.g).to_dict()
    if getattr(args, "a", None) is not None:
        inputs["a"] = _encode_vec(parse_direction(args.a))
    if getattr(args, "pl_file", None) is not None:
        d = _load_json(args.pl_file, "/pl")
        P = polytope_from_dict(inputs["polytope"])
        f = _decode_pl({"pl": d}, P)
        inputs["pl"] = f.to_dict()
    if getattr(args, "kind", None) is not None:
        inputs["kind"] = args.kind
    if getattr(args, "m", None) is not None:
        inputs["m"] = int(args.m)
    if getattr(args, "tol", None) is not None:
        inputs["tol"] = float(args.tol)
    if getattr(args, "samples", None) is not None:
        inputs["samples"] = int(args.samples)
    if getattr(args, "seed", None) is not None:
        inputs["seed"] = int(args.seed)
    if getattr(args, "grid_r", None) is not None:
        inputs["grid"] = {"R": float(args.grid_r), "N": int(args.grid_n)}
    if getattr(args, "ding_ray", False):
        inputs["ding_ray"] = True
    if getattr(args, "u", None) is not None:
        d = _load_json(args.u, "/potential")
        if "results" in d and isinstance(d["results"], dict) and "potential" in d["results"]:
            d = d["results"]["potential"]
        inputs["potential"] = d
    return inputs


def _run_report_command(args) -> tuple[dict, str]:
    saved = _load_json(args.input, "/input")
    if not isinstance(saved, dict) or "command" not in saved or "inputs" not in saved:
        raise SchemaViolation("input is not a toricgs report", "/input")
    command = saved["command"]
    if command == "report":
        raise SchemaViolation("cannot re-run a report of a report", "/input/command")
    if args.rerun:
        if not isinstance(saved["inputs"], dict):
            raise SchemaViolation("inputs must be an object", "/input/inputs")
        try:
            fresh = run_command(command, saved["inputs"])
        except SchemaViolation as exc:
            raise SchemaViolation(str(exc), "/input/inputs" + exc.pointer)
        # a key the saved report lacks is a mismatch, not an error
        match = json.dumps(fresh, sort_keys=True, default=_json_default) == json.dumps(
            {k: saved[k] for k in fresh if k in saved}, sort_keys=True, default=_json_default
        )
        report = {
            "command": "report",
            "inputs": {"source_command": command, "rerun": True},
            "results": {"match": bool(match), "fresh": fresh},
            "diagnostics": {},
            "version": __version__,
        }
        return report, args.format
    return saved, args.format


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UnknownCommand(
                "missing command; choose one of: " + ", ".join(_COMMANDS)
            )
        if args.command == "report":
            report, fmt = _run_report_command(args)
            sys.stdout.write(render_report(report, fmt))
            return 0
        inputs = _inputs_from_args(args)
        report = run_command(args.command, inputs)
        out = getattr(args, "out", None)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(render_report(report, "json"))
        sys.stdout.write(render_report(report, args.format))
        return 0
    except ValidationError as exc:
        _emit_error(exc)
        return 2
    except NumericalFailure as exc:
        _emit_error(exc)
        return 1
    except (OverflowError, ZeroDivisionError) as exc:
        # a float that left its range: the result would not be finite
        _emit_error(NumericalFailure(f"floating-point range exceeded: {type(exc).__name__}: {exc}"))
        return 1


if __name__ == "__main__":
    sys.exit(main())
