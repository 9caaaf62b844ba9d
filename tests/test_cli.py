"""Command-line front end: parsing, reports, determinism, exit codes."""

import json
import math
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toricgs as t
from conftest import assert_close, golden_payload, run_cli, run_main


# ---------------------------------------------------------------------------
# report envelope and pinned example outputs
# ---------------------------------------------------------------------------


def test_every_golden_has_the_report_envelope(golden_runs):
    for gid, raw in golden_runs.items():
        text = raw.decode("utf-8")
        assert text.endswith("\n"), gid
        d = json.loads(text)
        assert set(d) >= {"command", "inputs", "results", "diagnostics", "version"}, gid
        assert d["version"] == t.__version__


def test_futaki_example_output(golden_runs):
    d = golden_payload(golden_runs, "futaki_p1")
    assert d["results"]["barycenter"] == [0.0]
    assert d["results"]["futaki_vanishes"] is True
    b = golden_payload(golden_runs, "futaki_bl1p2")
    assert b["results"]["futaki_vanishes"] is False
    assert b["results"]["barycenter_norm"] > 0.05


def test_sg_example_output(golden_runs):
    d = golden_payload(golden_runs, "sg_p1_unit")["results"]
    assert d["A"] == 1.0 and d["S_g"] == 1.0 and d["ratio"] == 1.0
    e = golden_payload(golden_runs, "sg_p1_exp")["results"]
    assert_close(e["S_g"], 1.0 / math.tanh(1.0), 1e-9, "S_g anchor")
    assert_close(e["ratio"], math.tanh(1.0), 1e-9, "ratio")
    assert abs(e["S_g_lattice"] - e["S_g"]) <= 5.0 / 40.0


def test_solve_soliton_example_output(golden_runs):
    d = golden_payload(golden_runs, "kr_p1xp1")["results"]
    assert d["residual"] < 1e-10
    assert max(abs(x) for x in d["xi"]) < 1e-12
    k = golden_payload(golden_runs, "kr_bl1p2")["results"]
    assert k["residual"] < 1e-12
    assert_close(k["xi"][0], k["xi"][1], 1e-10, "diagonal soliton")
    m = golden_payload(golden_runs, "mabuchi_bl1p2")["results"]
    assert m["feasible"] is True
    # the rational path serializes exact values as p/q strings
    assert m["b"] == ["-1/2", "-1/2"]


def test_delta_and_ding_na_outputs(golden_runs):
    d = golden_payload(golden_runs, "delta_p1_unit")["results"]
    assert_close(d["delta"], 1.0, 1e-6, "delta p1")
    assert d["stable_modulo_torus"] is True
    e = golden_payload(golden_runs, "delta_p1_exp")["results"]
    assert_close(e["delta"], math.tanh(1.0), 1e-9, "delta e^x")
    assert e["stable_modulo_torus"] is False
    n = golden_payload(golden_runs, "ding_na_p2")["results"]
    assert n["A"] == 1.0 and n["S_g"] == 1.0 and n["ding"] == 0.0


def test_dh_output(golden_runs):
    d = golden_payload(golden_runs, "dh_square")
    r = d["results"]
    assert r["m"] == 20 and r["lattice_points"] == 41**2
    # f_(1,0) is valuation-type on the square: mean = e = S_g = 1
    assert_close(r["e_g_na"], 1.0, 1e-12, "e_g_na")
    assert_close(r["mean"], 1.0, 0.02, "lattice mean")
    assert abs(d["diagnostics"]["mass_rel_dev"]) < 3.0 / 20.0


def test_solve_ma_output(golden_runs):
    r = golden_payload(golden_runs, "ma_p1")["results"]
    assert r["residual"] < 1e-8
    assert r["tail_gap"] < 1e-4
    assert abs(r["c"] - 1.0) < 1e-3
    pf = r["pushforward_moments"]
    assert set(pf) == {"0", "1", "2"}
    for entry in pf.values():
        assert entry["abs_diff"] < 1e-5
    pot = r["potential"]
    assert pot["grid"] == {"R": 12.0, "N": 501}
    assert len(pot["values"]) == 501


def test_solve_ma_ding_ray_flagged(golden_runs):
    r = golden_payload(golden_runs, "ma_ding_ray")["results"]
    ray = r["ding_ray"]
    assert ray["ding_ray_decreasing"] is True
    assert ray["na_slope"] < -0.1
    assert abs(ray["ray_slope"] - ray["na_slope"]) < 5e-3
    values = ray["D_values"]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_inequalities_output(golden_runs):
    r = golden_payload(golden_runs, "ineq_p1")["results"]
    assert r["samples"] == 10 and r["seed"] == 42
    assert r["violations"] == {"a": 0, "b": 0, "c": 0, "d": 0}
    assert r["first_violation"] is None


def test_inequalities_on_a_wide_window(p1):
    # at R = 900, e^{-u0} underflows to 0 on 346 of the 2001 nodes; the
    # entropy term must stay finite there
    assert np.count_nonzero(np.exp(-t.reference_potential(p1, t.Grid1D(R=900.0)).values) == 0.0) == 346
    cp = run_cli(["inequalities", "--polytope", "builtin:p1", "--g", "constant:1",
                  "--samples", "2", "--grid-r", "900"])
    assert cp.returncode == 0, cp.stderr.decode()
    r = json.loads(cp.stdout)["results"]
    assert r["violations"] == {"a": 0, "b": 0, "c": 0, "d": 0}
    assert r["worst_margins"]["c_margin"] > 0


def test_functionals_from_saved_potential(golden_runs):
    d = golden_payload(golden_runs, "functionals_p1")
    r = d["results"]
    for key in ("E_g", "Lambda_g", "I_g", "J_g", "L", "D", "H_g", "M", "mass_g"):
        assert key in r, key
    # the saved potential is the solved soliton: Jensen is tight there
    assert abs(r["M"] - r["D"]) < 1e-6
    assert r["underflow_count"] == 0


def test_report_rerun_matches(golden_runs):
    d = golden_payload(golden_runs, "report_rerun")
    assert d["command"] == "report"
    assert d["results"]["match"] is True
    fresh = d["results"]["fresh"]
    assert fresh["command"] == "check-futaki"
    assert fresh["results"]["futaki_vanishes"] is False


# ---------------------------------------------------------------------------
# determinism and format equivalence
# ---------------------------------------------------------------------------


def test_repeat_run_is_byte_identical(golden_commands, golden_runs):
    gid, argv = golden_commands[3]  # sg with lattice sampling
    again = run_cli(argv, threads=1)
    assert again.returncode == 0
    assert again.stdout == golden_runs[gid]


def test_md_format_embeds_identical_payload(golden_commands, golden_runs):
    for gid, argv in golden_commands:
        if gid != "sg_p1_exp":
            continue
        md = run_cli([*argv, "--format", "md"], threads=1)
        assert md.returncode == 0
        text = md.stdout.decode("utf-8")
        assert text.startswith("# Report: sg")
        fenced = text.split("```json\n", 1)[1].split("\n```", 1)[0]
        assert fenced + "\n" == golden_runs[gid].decode("utf-8")


def test_out_file_matches_stdout(tmp_path):
    out = tmp_path / "run.json"
    cp = run_cli(
        [
            "solve-ma",
            "--polytope",
            "builtin:p1",
            "--grid-n",
            "501",
            "--out",
            str(out),
        ],
        threads=1,
    )
    assert cp.returncode == 0
    assert out.read_bytes() == cp.stdout


def test_report_without_rerun_echoes_saved_payload(tmp_path, golden_runs):
    saved = tmp_path / "saved.json"
    saved.write_bytes(golden_runs["sg_p1_unit"])
    cp = run_cli(["report", "--input", str(saved)], threads=1)
    assert cp.returncode == 0
    assert json.loads(cp.stdout) == json.loads(golden_runs["sg_p1_unit"])


def test_dh_accepts_pl_file(tmp_path):
    pl = tmp_path / "absx.json"
    pl.write_text(json.dumps({"pieces": [{"a": [1], "c": 0}, {"a": [-1], "c": 0}]}))
    cp = run_cli(
        [
            "dh",
            "--polytope",
            "builtin:p1",
            "--g",
            "constant:1",
            "--pl-file",
            str(pl),
            "--m",
            "200",
        ],
        threads=1,
    )
    assert cp.returncode == 0
    r = json.loads(cp.stdout)["results"]
    assert_close(r["e_g_na"], 0.5, 1e-9, "e_g_na |x|")
    assert abs(r["mean"] - 0.5) < 0.02


# ---------------------------------------------------------------------------
# exit codes and structured errors
# ---------------------------------------------------------------------------


def _error_body(cp):
    return json.loads(cp.stderr.decode("utf-8"))


def test_missing_command_is_a_validation_error():
    cp = run_cli([])
    assert cp.returncode == 2
    assert _error_body(cp)["error"] == "UnknownCommand"


def test_unknown_subcommand_is_a_validation_error():
    cp = run_cli(["frobnicate"])
    assert cp.returncode == 2
    assert _error_body(cp)["error"] == "SchemaViolation"


def test_unknown_builtin_is_a_validation_error():
    cp = run_cli(["check-futaki", "--polytope", "builtin:nope", "--g", "constant:1"])
    assert cp.returncode == 2
    body = _error_body(cp)
    assert body["error"] == "SchemaViolation"
    assert body["pointer"] == "/polytope"
    assert "nope" in body["message"]


def test_bad_direction_reports_json_pointer():
    cp = run_cli(["sg", "--polytope", "builtin:p1", "--g", "constant:1", "--a", ","])
    assert cp.returncode == 2
    body = _error_body(cp)
    assert body["error"] == "SchemaViolation"
    assert body["pointer"] == "/a"


def test_a_negative_direction_needs_the_equals_form():
    argv = ["ding-na", "--polytope", "builtin:bl1p2", "--g", "constant:1"]
    # argparse reads "-1,2" after a space as a flag, not as the value of --a
    cp = run_cli([*argv, "--a", "-1,2"])
    assert cp.returncode == 2
    body = _error_body(cp)
    assert body["error"] == "SchemaViolation"
    assert body["pointer"] == "/argv"
    cp = run_cli([*argv, "--a=-1,2"])
    assert cp.returncode == 0, cp.stderr.decode()
    assert json.loads(cp.stdout)["inputs"]["a"] == [-1, 2]


_P1 = ["--polytope", "builtin:p1"]


@pytest.mark.parametrize(
    "argv, pointer",
    [
        (["dh", *_P1, "--g", "constant:1", "--a", "1", "--m", "0"], "/m"),
        (["sg", *_P1, "--g", "constant:1", "--a", "1", "--m", "0"], "/m"),
        (["sg", *_P1, "--g", "constant:1", "--a", "1,0"], "/a"),
        (["sg", *_P1, "--g", "constant:1", "--a", "nan"], "/a"),
        (["sg", *_P1, "--g", "exp_affine:0,inf", "--a", "1"], "/g"),
        (["inequalities", *_P1, "--samples", "0"], "/samples"),
        (["check-futaki", *_P1, "--g", "constant:1", "--tol", "nan"], "/argv"),
        (["inequalities", *_P1, "--samples", "1", "--seed", "-1"], "/seed"),
        (["check-futaki", *_P1, "--g", "affine:1,1,1"], "/g"),
    ],
    ids=["dh_m0", "sg_m0", "sg_a_length", "sg_a_nan", "g_inf", "samples0", "tol_nan", "seed_negative",
         "g_length"],
)
def test_input_errors_report_json_pointer(argv, pointer):
    cp = run_cli(argv)
    assert cp.returncode == 2, cp.stderr.decode()
    body = _error_body(cp)
    assert body["error"] == "SchemaViolation"
    assert body["pointer"] == pointer


def test_pl_slope_of_wrong_length_reports_json_pointer(tmp_path):
    pl = tmp_path / "pl.json"
    pl.write_text(json.dumps({"pieces": [{"a": [1, 0], "c": 0}]}))
    cp = run_cli(["dh", *_P1, "--g", "constant:1", "--pl-file", str(pl)])
    assert cp.returncode == 2
    body = _error_body(cp)
    assert body["error"] == "SchemaViolation"
    assert body["pointer"] == "/pl/pieces/0/a"


@pytest.mark.parametrize(
    "body, pointer",
    [
        ({"normals": 5}, "/polytope/normals"),
        ({"vertices": 5}, "/polytope/vertices"),
        ({"vertices": [1, 2]}, "/polytope/vertices/0"),
        ({"facets": [{"normal": 5}]}, "/polytope/facets/0/normal"),
        ({"normals": [[1], [-1]], "labels": 3}, "/polytope/labels"),
    ],
    ids=["normals", "vertices", "vertex_row", "facet_normal", "labels"],
)
def test_malformed_polytope_json_reports_json_pointer(tmp_path, body, pointer):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(body))
    cp = run_cli(["check-futaki", "--polytope", str(path), "--g", "constant:1"])
    assert cp.returncode == 2, cp.stderr.decode()
    err = _error_body(cp)
    assert err["error"] == "SchemaViolation"
    assert err["pointer"] == pointer


_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-3, 3),
    st.sampled_from(["1/2", "-1", "x", "1/0"]),
)
_json_keys = st.sampled_from(["facets", "normals", "labels", "vertices", "normal", "label"])
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_json_keys, inner, max_size=3),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_json_values)
def test_polytope_from_dict_returns_or_raises_a_validation_error(value):
    from toricgs import cli, errors

    try:
        P = cli.polytope_from_dict(value)
    except errors.ValidationError:
        return
    assert isinstance(P, t.LabelledPolytope)


def test_repeated_facet_normal_exits_two(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"normals": [[2], [1], [-1]], "labels": [2, 1, 1]}))
    cp = run_cli(["check-futaki", "--polytope", str(path), "--g", "constant:1"])
    assert cp.returncode == 2, cp.stderr.decode()
    assert _error_body(cp)["error"] == "DegenerateFacet"


def test_facet_system_beyond_int64_exits_two(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({
        "normals": [[1, 0], [-1, 0], [0, 1], [0, -1]],
        "labels": ["100000000000000000000001/100000000000000000000000", 1, 1, 1],
    }))
    cp = run_cli(["sg", "--polytope", str(path), "--g", "constant:1", "--a", "1,0", "--m", "2"])
    assert cp.returncode == 2, cp.stderr.decode()
    assert _error_body(cp)["error"] == "OverflowGuard"


def test_barycenter_verdicts_are_exact_for_rational_weights():
    # b_g = (1/(3*10^11), 0): tiny, but not zero
    def report(command, poly, g):
        return json.loads(run_cli([command, "--polytope", f"builtin:{poly}", "--g", g]).stdout)

    d = report("delta", "p1xp1", "affine:1,1/100000000000,0")
    assert d["results"]["stable_modulo_torus"] is False
    assert d["results"]["delta"] < 1
    assert d["diagnostics"]["decided_by"] == "exact"
    f = report("check-futaki", "p1", "affine:1,1/100000000000")
    assert f["results"]["futaki_vanishes"] is False
    assert f["diagnostics"]["decided_by"] == "exact"
    assert report("check-futaki", "p1", "exp_affine:0,1")["diagnostics"]["decided_by"] == "tol"


def test_non_finite_report_is_never_rendered():
    from toricgs import cli, errors

    with pytest.raises(errors.NumericalFailure):
        cli.render_report({"results": {"x": math.nan}}, "json")
    assert cli.render_report({"results": {"x": 1.5}}, "json") == (
        '{\n  "results": {\n    "x": 1.5\n  }\n}\n'
    )


def test_numerical_failure_exits_one():
    cp = run_cli(["solve-ma", "--polytope", "builtin:p1", "--g", "exp_affine:0,1"])
    assert cp.returncode == 1
    body = _error_body(cp)
    assert body["error"] == "WindowTooSmall"


def test_small_slope_weight_solves():
    # G^{-1} in the form 2y / (a0 + sqrt(a0^2 + 2by)) cancels nothing as b -> 0
    cp = run_cli(["solve-ma", *_P1, "--g", "affine:1,0.0001"])
    assert cp.returncode == 0, cp.stderr.decode()


def test_tiny_constant_weight_solves_like_the_unit_weight():
    # a0^2 = 1e-400 underflows to 0, so an inverse 2y / (a0 + sqrt(a0^2))
    # would double every slope; y / a0 squares nothing
    rc, out, err = run_main(["solve-ma", *_P1, "--g", "constant:1e-200"])
    assert rc == 0, err
    rc1, out1, err1 = run_main(["solve-ma", *_P1, "--g", "constant:1"])
    assert rc1 == 0, err1
    tiny, unit = json.loads(out)["results"], json.loads(out1)["results"]
    assert abs(tiny["c"] / (1e-200 * unit["c"]) - 1.0) < 1e-8
    values, unit_values = tiny["potential"]["values"], unit["potential"]["values"]
    assert len(values) == len(unit_values)
    assert max(abs(a - b) for a, b in zip(values, unit_values)) < 1e-8


def test_flat_shooting_defect_solves():
    # the shooting defect is about 1e-113 wherever the search goes, far
    # below any fixed tolerance: the root finder works on its sign and on
    # defects relative to the mass
    rc, out, err = run_main(["solve-ma", *_P1, "--g", "exp_affine:-250,0.5"])
    assert rc == 0, err
    report = json.loads(out)
    assert 0 < report["results"]["c"] < 1e-110
    assert report["diagnostics"]["residual_history"][-1] <= report["diagnostics"]["tol"]


def test_a_truncated_shot_is_no_solution():
    # the root's shot falls below w = -500 two nodes before the end: a
    # residual over its shorter profile would read 1.8e306
    cp = run_cli(["solve-ma", *_P1, "--g", "exp_affine:700,0.5"])
    assert cp.returncode == 1, cp.stderr.decode()
    assert cp.stdout == b""
    body = _error_body(cp)
    assert body["error"] == "NewtonDiverged"
    assert "stopped at node 1999 of 2001" in body["message"]
    assert "residual" not in body["message"] and "history_tail" not in body


def test_window_too_wide_for_float_range_exits_one():
    # at R = 1e10 the reference measure e^{-u0} underflows to 0 at every node
    # but x = 0, and e^{-phi} underflows there against its maximum, so the
    # weighted mean of e^{-phi} in L reads 0
    cp = run_cli(["inequalities", "--polytope", "builtin:p1", "--samples", "1",
                  "--grid-r", "1e10", "--grid-n", "101"])
    assert cp.returncode == 1, cp.stderr.decode()
    body = _error_body(cp)
    assert body["error"] == "NumericalFailure"
    assert "underflows" in body["message"]


def test_shooting_residual_failure_reports_one_history_entry():
    # the residual here is about 3e-13, the rounding of G(G^{-1}(y))
    cp = run_cli(["solve-ma", "--polytope", "builtin:p1", "--g", "exp_affine:0,1/2",
                  "--grid-n", "4001", "--tol", "1e-14"])
    assert cp.returncode == 1
    body = _error_body(cp)
    assert body["error"] == "NewtonDiverged"
    assert len(body["history_tail"]) == 1 and body["history_tail"][0] > 1e-14


@pytest.mark.parametrize("weight, n", [("exp_affine:0,0.3", "4001"), ("constant:1", "8001")])
def test_fine_grids_solve_at_the_default_tol(weight, n):
    # the residual reads the shot's own slopes, so raising N meets no floor
    rc, out, err = run_main(["solve-ma", *_P1, "--g", weight, "--grid-n", n])
    assert rc == 0, err
    report = json.loads(out)
    assert report["diagnostics"]["residual_history"] == [report["results"]["residual"]]
    assert report["results"]["residual"] <= report["diagnostics"]["tol"] == 1e-10


def test_report_of_report_is_rejected(tmp_path, golden_runs):
    saved = tmp_path / "meta.json"
    saved.write_bytes(golden_runs["report_rerun"])
    cp = run_cli(["report", "--input", str(saved), "--rerun"])
    assert cp.returncode == 2
    assert _error_body(cp)["error"] == "SchemaViolation"


def test_cli_import_loads_no_scipy():
    probe = "import sys, toricgs.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    cp = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "[]"


# runs the CLI and reports on stderr what it loaded.  A lazy binding leaves
# a stub in sys.modules until its first attribute access, so numpy counts as
# loaded when numpy._core is there, and a package module when it is no stub
_LOAD_PROBE = """
import json, sys, types
{preload}
from toricgs import cli
rc = cli.main(sys.argv[1:])
modules = [m for m, v in sys.modules.items() if m.startswith("toricgs.") and type(v) is types.ModuleType]
loaded = {{"numpy": "numpy._core" in sys.modules, "modules": sorted(m[8:] for m in modules)}}
sys.stderr.write("loaded: " + json.dumps(loaded))
sys.exit(rc)
"""

_EXACT_COMMANDS = {
    "futaki_constant": ["check-futaki", "--polytope", "builtin:bl1p2", "--g", "constant:1"],
    "futaki_exp": ["check-futaki", "--polytope", "builtin:bl1p2", "--g", "exp_affine:0,1,1"],
    "kr": ["solve-soliton", "--kind", "kr", "--polytope", "builtin:bl1p2"],
    "mabuchi": ["solve-soliton", "--kind", "mabuchi", "--polytope", "builtin:bl1p2"],
    "sg": ["sg", "--polytope", "builtin:p2", "--g", "affine:1,1/4,-1/5", "--a=0.3,-0.7"],
    "delta": ["delta", "--polytope", "builtin:bl3p2", "--g", "exp_affine:0,0.3,-0.2"],
    "ding_na": ["ding-na", "--polytope", "builtin:p2", "--g", "constant:1", "--a", "1,0"],
    "report_rerun": ["report", "--input", "{saved}", "--rerun"],
    "futaki_poly": ["check-futaki", "--polytope", "builtin:bl1p2", "--g", "{poly}"],
    "delta_poly": ["delta", "--polytope", "builtin:bl3p2", "--g", "{poly}"],
    "ding_na_poly": ["ding-na", "--polytope", "builtin:p2", "--g", "{poly}", "--a", "1,0"],
    "sg_poly": ["sg", "--polytope", "builtin:p2", "--g", "{poly}", "--a=0.3,-0.7"],
}

# 1 + x^2/4 - xy/8 on a polygon
_POLY_2D = {"kind": "polynomial", "coeffs": [
    {"powers": [0, 0], "c": 1}, {"powers": [2, 0], "c": "1/4"}, {"powers": [1, 1], "c": "-1/8"}]}

_ARRAY_COMMANDS = {
    "dh": ["dh", "--polytope", "builtin:p1xp1", "--g", "exp_affine:0,0.5,0.25", "--a", "1,0", "--m", "20"],
    "solve_ma": ["solve-ma", "--polytope", "builtin:p1", "--grid-n", "501"],
    "sg_lattice": ["sg", "--polytope", "builtin:p1", "--g", "exp_affine:0,1", "--a", "1", "--m", "40"],
}

_COMMANDS = {
    **_EXACT_COMMANDS,
    **_ARRAY_COMMANDS,
    "ding_ray": ["solve-ma", "--polytope", "builtin:p1", "--grid-n", "501", "--ding-ray"],
    "functionals": ["functionals", "--polytope", "builtin:p1", "--u", "{potential}"],
    "inequalities": ["inequalities", "--polytope", "builtin:p1", "--samples", "3", "--grid-n", "201"],
}

_PKG_MODULES = sorted(p.stem for p in pathlib.Path(t.__file__).parent.glob("*.py") if p.stem != "__init__")


def _probe(argv, preload=""):
    code = _LOAD_PROBE.format(preload=preload)
    cp = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    body, _, loaded = cp.stderr.rpartition("loaded: ")
    assert cp.returncode == 0, body
    return cp.stdout, json.loads(loaded)


def _argv(name, tmp_path):
    """The argv of ``_COMMANDS[name]`` with its input files written."""
    files = {"{saved}": tmp_path / "futaki.json", "{potential}": tmp_path / "u.json"}
    argv = _COMMANDS[name]
    if "{poly}" in argv:
        weight = tmp_path / "g.json"
        weight.write_text(json.dumps(_POLY_2D))
        files["{poly}"] = f"polynomial:@{weight}"
    if "{saved}" in argv:
        files["{saved}"].write_text(_probe(_COMMANDS["futaki_constant"])[0])
    if "{potential}" in argv:
        files["{potential}"].write_text(_probe(_COMMANDS["solve_ma"])[0])
    return [str(files[a]) if a in files else a for a in argv]


def test_import_loads_no_numpy():
    probe = "import sys, toricgs; print('numpy._core' in sys.modules)"
    cp = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "False"


@pytest.mark.parametrize(
    "name, loads", [(k, False) for k in _EXACT_COMMANDS] + [(k, True) for k in _ARRAY_COMMANDS]
)
def test_numpy_loads_only_for_array_commands(tmp_path, name, loads):
    argv = _argv(name, tmp_path)
    out, loaded = _probe(argv)
    assert loaded["numpy"] == loads
    # numpy imported before the package, as the package once did itself
    out_pre, loaded_pre = _probe(argv, preload="import numpy")
    assert (out_pre, loaded_pre["numpy"]) == (out, True)


# every call loads the parse layer; past it, only the modules its subcommand runs
_PARSE_LAYER = ["_exact", "cli", "errors", "polytope", "quadrature"]
_STABILITY = ["invariants", "stability"]  # stability imports invariants


@pytest.mark.parametrize("name, modules", [
    ("futaki_constant", ["invariants"]),
    ("kr", ["invariants"]),
    ("mabuchi", ["invariants"]),
    ("sg", _STABILITY),
    ("sg_lattice", _STABILITY),
    ("delta", _STABILITY),
    ("ding_na", _STABILITY),
    ("dh", _STABILITY),
    ("report_rerun", ["invariants"]),
    ("solve_ma", ["mafunc"]),
    ("functionals", ["mafunc"]),
    ("inequalities", ["mafunc"]),
    ("ding_ray", ["invariants", "mafunc", "stability"]),
])
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, name, modules):
    argv = _argv(name, tmp_path)
    out, loaded = _probe(argv)
    assert loaded["modules"] == sorted(_PARSE_LAYER + modules)
    # the same bytes as a run with every module of the package loaded first
    preload = "import " + ", ".join(f"toricgs.{m}" for m in _PKG_MODULES)
    out_pre, loaded_pre = _probe(argv, preload=preload)
    assert loaded_pre["modules"] == _PKG_MODULES
    assert out_pre == out


@pytest.mark.parametrize("argv", [
    ["sg", "--g", "affine:1,-2", "--a", "1", "--m", "5"],
    ["ding-na", "--g", "affine:1,-2", "--a", "1"],
    ["sg", "--g", "affine:0,1", "--a", "1"],
], ids=["sg_lattice", "ding_na", "sg_zero_at_vertex"])
def test_weight_not_positive_exits_two_in_every_command(argv):
    cp = run_cli([argv[0], "--polytope", "builtin:p1", *argv[1:]])
    assert cp.returncode == 2, cp.stderr.decode()
    assert _error_body(cp)["error"] == "PositivityViolated"


def test_weight_negative_inside_a_large_cube_exits_two(tmp_path):
    # x^2 + y^2 + z^2 - 1/100 is -1/100 at the origin of the cube (+-9)^3
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps({"vertices": [[x, y, z] for x in (-9, 9) for y in (-9, 9) for z in (-9, 9)]}))
    weight = tmp_path / "g.json"
    weight.write_text(json.dumps({"kind": "polynomial", "coeffs": [
        {"powers": [2, 0, 0], "c": 1}, {"powers": [0, 2, 0], "c": 1},
        {"powers": [0, 0, 2], "c": 1}, {"powers": [0, 0, 0], "c": "-1/100"}]}))
    rc, out, err = run_main(["check-futaki", "--polytope", str(cube), "--g", f"polynomial:@{weight}"])
    assert (rc, out) == (2, ""), err
    assert json.loads(err)["error"] == "PositivityViolated"


@pytest.mark.parametrize("argv", [
    ["check-futaki", "--g", "exp_affine:0,800"],
    ["delta", "--g", "exp_affine:0,800"],
    ["sg", "--g", "exp_affine:0,800", "--a", "1"],
    ["dh", "--g", "exp_affine:0,800", "--a", "1"],
    ["sg", "--g", "exp_affine:-800,0", "--a", "1"],
    ["dh", "--g", "exp_affine:-800,0", "--a", "1"],
    ["delta", "--g", "exp_affine:-800,0"],
    ["dh", "--g", "exp_affine:709,0", "--a", "1"],
], ids=lambda argv: f"{argv[0]}:{argv[2]}")
def test_float_range_error_is_a_numerical_failure(argv):
    cp = run_cli([argv[0], "--polytope", "builtin:p1", *argv[1:]])
    assert cp.returncode == 1, cp.stderr.decode()
    assert _error_body(cp)["error"] == "NumericalFailure"


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(["check-futaki", "delta", "sg", "ding-na", "dh"]))
    name = draw(st.sampled_from(["p1", "p2", "p1xp1", "bl1p2"]))
    n = 1 if name == "p1" else 2
    kind = draw(st.sampled_from(["constant", "affine", "exp_affine"]))
    coeff = st.integers(-3, 3)
    if kind == "exp_affine":
        coeff |= st.integers(-900, 900)
    coeffs = draw(st.lists(coeff, min_size=1 if kind == "constant" else n + 1,
                           max_size=1 if kind == "constant" else n + 1))
    argv = [command, "--polytope", f"builtin:{name}", "--g", f"{kind}:" + ",".join(map(str, coeffs))]
    if command in ("sg", "ding-na", "dh"):
        a = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        argv.append("--a=" + ",".join(map(str, a)))
    if command in ("sg", "dh"):
        argv += ["--m", str(draw(st.integers(1, 6)))]
    return argv


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_fuzz_argv())
def test_cli_argv_fuzz_exits_cleanly(argv):
    rc, out, err = run_main(argv)
    assert rc in (0, 1, 2)
    if rc:
        body = json.loads(err)
        assert isinstance(body, dict) and "error" in body
    else:
        assert json.loads(out)["command"] == argv[0]


# ---------------------------------------------------------------------------
# input files: --u, --pl-file and saved reports
# ---------------------------------------------------------------------------


def _potential(**changes):
    d = {"grid": {"R": 12, "N": 9}, "values": [1] * 9}
    for key, value in changes.items():
        if key in ("R", "N"):
            d["grid"][key] = value
        elif key == "value0":
            d["values"][0] = value
        else:
            d[key] = value
    return d


@pytest.mark.parametrize("changes, pointer", [
    ({"value0": "a"}, "/potential/values/0"),
    ({"value0": "nan"}, "/potential/values/0"),
    ({"value0": True}, "/potential/values/0"),
    ({"R": "x"}, "/potential/grid/R"),
    ({"N": 9.5}, "/potential/grid/N"),
    ({"N": 5}, "/potential/grid"),
    ({"c": "q"}, "/potential/c"),
    ({"values": {"0": 1}}, "/potential/values"),
], ids=["value_text", "value_nan", "value_bool", "R_text", "N_fraction", "N_small", "c_text", "values_object"])
def test_potential_file_numbers_are_validated(tmp_path, changes, pointer):
    path = tmp_path / "u.json"
    path.write_text(json.dumps(_potential(**changes)))
    rc, _, err = run_main(["functionals", *_P1, "--u", str(path)])
    assert rc == 2, err
    body = json.loads(err)
    assert body["error"] == "SchemaViolation" and body["pointer"] == pointer


@pytest.mark.parametrize("polytope, slope", [
    ("builtin:p1", 1),
    ("builtin:p1xp1", "12"),
    ("builtin:p1xp1", {"0": 1, "1": 2}),
], ids=["int", "string", "object"])
def test_pl_slope_that_is_not_a_list_exits_two(tmp_path, polytope, slope):
    pl = tmp_path / "pl.json"
    pl.write_text(json.dumps({"pieces": [{"a": slope, "c": 0}]}))
    rc, _, err = run_main(["dh", "--polytope", polytope, "--g", "constant:1", "--pl-file", str(pl)])
    assert rc == 2, err
    body = json.loads(err)
    assert body["error"] == "SchemaViolation" and body["pointer"] == "/pl/pieces/0/a"


_SAVED_ARGV = {
    "check-futaki": ["check-futaki", *_P1, "--g", "affine:1,1/3"],
    "sg": ["sg", *_P1, "--g", "constant:1", "--a", "1", "--m", "3"],
    "dh": ["dh", *_P1, "--g", "exp_affine:0,1/2", "--a", "1", "--m", "3"],
    "delta": ["delta", "--polytope", "builtin:bl1p2", "--g", "constant:1", "--tol", "1e-6"],
    "solve-soliton": ["solve-soliton", "--polytope", "builtin:p1xp1", "--kind", "mabuchi"],
    "solve-ma": ["solve-ma", *_P1, "--grid-n", "501"],
    "functionals": ["functionals", *_P1],  # --u: the solve-ma report
    "inequalities": ["inequalities", *_P1, "--samples", "1", "--grid-n", "501"],
}
_saved_cache: dict = {}


def _saved(command):
    """The report of one fixed run of ``command``, made once."""
    if command not in _saved_cache:
        with tempfile.TemporaryDirectory() as tmp:
            argv = _SAVED_ARGV[command]
            if command == "functionals":
                with open(f"{tmp}/u.json", "w", encoding="utf-8") as fh:
                    json.dump(_saved("solve-ma"), fh)
                argv = [*argv, "--u", f"{tmp}/u.json"]
            rc, out, err = run_main(argv)
        assert rc == 0, err
        _saved_cache[command] = out
    return json.loads(_saved_cache[command])


def _rerun(report):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/saved.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return run_main(["report", "--input", path, "--rerun"])


_DELETE = object()


def _mutate(report, path, value):
    """A copy of the report with the value at ``path`` replaced, or deleted."""
    node = report = json.loads(json.dumps(report))
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return report


def _dict_paths(d, prefix):
    for key, value in d.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _dict_paths(value, prefix + (key,))


_junk = st.sampled_from([_DELETE, None, True, "abc", "nan", "1/0", 9.5, -1, 0, [], [1], {}, {"R": 1}])


@st.composite
def _report_mutation(draw):
    command = draw(st.sampled_from(sorted(_SAVED_ARGV)))
    paths = [("command",), ("results",), *_dict_paths(_saved(command)["inputs"], ("inputs",))]
    return command, draw(st.sampled_from(paths)), draw(_junk)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_report_mutation())
@example(("check-futaki", ("inputs", "polytope"), _DELETE))
@example(("sg", ("inputs", "m"), "abc"))
@example(("sg", ("inputs",), []))
@example(("solve-ma", ("inputs", "grid"), [1]))
@example(("delta", ("results",), _DELETE))
def test_report_rerun_fuzz_exits_cleanly(mutation):
    command, path, value = mutation
    rc, out, err = _rerun(_mutate(_saved(command), path, value))
    assert rc in (0, 1, 2)
    if rc == 0:
        assert isinstance(json.loads(out)["results"]["match"], bool)
    else:
        body = json.loads(err)
        assert isinstance(body, dict) and "error" in body
        if body["error"] == "SchemaViolation":
            assert body["pointer"].startswith("/input"), body


@pytest.mark.parametrize("command, path, value, pointer", [
    ("check-futaki", ("inputs", "polytope"), _DELETE, "/input/inputs/polytope"),
    ("sg", ("inputs", "m"), "abc", "/input/inputs/m"),
    ("sg", ("inputs",), [], "/input/inputs"),
    ("solve-ma", ("inputs", "grid"), [1], "/input/inputs/grid"),
    ("functionals", ("inputs", "potential", "grid", "N"), 9.5, "/input/inputs/potential/grid/N"),
    ("dh", ("inputs", "a"), [0.5], "/input/inputs/a"),
], ids=["no_polytope", "m_text", "inputs_list", "grid_list", "potential_N", "dh_float_direction"])
def test_malformed_saved_report_exits_two_with_a_pointer(command, path, value, pointer):
    rc, _, err = _rerun(_mutate(_saved(command), path, value))
    assert rc == 2, err
    body = json.loads(err)
    assert body["error"] == "SchemaViolation" and body["pointer"] == pointer


def test_saved_report_without_a_key_of_the_fresh_one_does_not_match():
    saved = _saved("delta")
    rc, out, _ = _rerun(saved)
    assert rc == 0 and json.loads(out)["results"]["match"] is True
    for key in ("results", "diagnostics", "version"):
        rc, out, err = _rerun(_mutate(saved, (key,), _DELETE))
        assert rc == 0, err
        assert json.loads(out)["results"]["match"] is False
