import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import toricgs as t


@pytest.fixture(scope="session")
def p1():
    return t.builtin("p1")


@pytest.fixture(scope="session")
def p2():
    return t.builtin("p2")


@pytest.fixture(scope="session")
def p1xp1():
    return t.builtin("p1xp1")


@pytest.fixture(scope="session")
def bl1p2():
    return t.builtin("bl1p2")


@pytest.fixture(scope="session")
def g_one():
    return t.WeightFunction.constant(1)


@pytest.fixture(scope="session")
def g_exp_x():
    return t.WeightFunction.exp_affine(0, [1])


@pytest.fixture(scope="session")
def abs_x(p1):
    return t.PLConvexFunction(p1, (((1,), 0), ((-1,), 0)))


# one line of the final report per acceptance criterion
_ACCEPTANCE_TITLES = {
    1: "barycenter/Futaki criterion on the builtins",
    2: "exponential-weight soliton solver vs brute-force grid",
    3: "affine-weight soliton exact rational solve",
    4: "valuative S_g: lattice convergence and closed-form anchors",
    5: "toric delta values and direction-grid lower bound",
    6: "filtration measure mass convergence and |x| energy",
    7: "Monge-Ampere solver residual, symmetry, pushforward moments",
    8: "functional suite identities and inequality bands",
    9: "CLI reports byte-identical across runs and thread counts",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            num = int(nodeid.split("test_criterion_")[1].split("_")[0].split("[")[0])
            verdict = "PASS" if outcome == "passed" else "FAIL"
            lines[num] = f"ACCEPTANCE {num}: {verdict} - {_ACCEPTANCE_TITLES[num]}"
    if lines:
        terminalreporter.section("acceptance criteria")
        for num in sorted(lines):
            terminalreporter.write_line(lines[num])


@pytest.fixture(scope="session")
def solved_kr_bl1p2(bl1p2):
    return t.solve_kr_soliton(bl1p2)


@pytest.fixture(scope="session")
def ma_solution_p1(p1, g_one):
    return t.solve_ma(p1, g_one)


def assert_close(a, b, tol, label=""):
    a, b = float(a), float(b)
    assert abs(a - b) <= tol, f"{label}: {a!r} vs {b!r} (|diff|={abs(a-b):.3e} > {tol:.1e})"


def exact_barycenter(P, g):
    """b_g in Fractions, from the moments of rational polynomial-kind data."""
    M = t.moments(P, g, 1)
    mass = M[(0,) * P.dim]
    assert isinstance(mass, Fraction)
    units = [tuple(int(i == j) for j in range(P.dim)) for i in range(P.dim)]
    return tuple(M[e] / mass for e in units)


def norm_inf(v):
    return float(np.max(np.abs(np.asarray(v, dtype=float))))


# ---------------------------------------------------------------------------
# CLI golden registry (shared by the CLI tests and the determinism criterion)
# ---------------------------------------------------------------------------


def run_main(argv):
    """Run the CLI in process: (exit code, stdout, stderr)."""
    from toricgs import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_cli(argv, threads=None):
    """Run the CLI in a subprocess, pinning the BLAS thread count if given."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(var, None)
        if threads is not None:
            env[var] = str(threads)
    return subprocess.run(
        [sys.executable, "-m", "toricgs.cli", *argv],
        capture_output=True,
        env=env,
    )


_GOLDEN_SPECS = [
    ("futaki_p1", ["check-futaki", "--polytope", "builtin:p1", "--g", "constant:1"]),
    ("futaki_bl1p2", ["check-futaki", "--polytope", "builtin:bl1p2", "--g", "constant:1"]),
    ("sg_p1_unit", ["sg", "--polytope", "builtin:p1", "--g", "constant:1", "--a", "1"]),
    ("sg_p1_exp", ["sg", "--polytope", "builtin:p1", "--g", "exp_affine:0,1", "--a", "1", "--m", "40"]),
    ("delta_p1_unit", ["delta", "--polytope", "builtin:p1", "--g", "constant:1"]),
    ("delta_p1_exp", ["delta", "--polytope", "builtin:p1", "--g", "exp_affine:0,1"]),
    ("ding_na_p2", ["ding-na", "--polytope", "builtin:p2", "--g", "constant:1", "--a", "1,0"]),
    ("dh_square", ["dh", "--polytope", "builtin:p1xp1", "--g", "constant:1", "--a", "1,0", "--m", "20"]),
    ("kr_p1xp1", ["solve-soliton", "--kind", "kr", "--polytope", "builtin:p1xp1"]),
    ("kr_bl1p2", ["solve-soliton", "--kind", "kr", "--polytope", "builtin:bl1p2"]),
    ("mabuchi_bl1p2", ["solve-soliton", "--kind", "mabuchi", "--polytope", "builtin:bl1p2"]),
    ("ma_p1", ["solve-ma", "--polytope", "builtin:p1", "--grid-n", "501"]),
    ("ma_ding_ray", ["solve-ma", "--polytope", "builtin:p1", "--g", "exp_affine:0,0.5", "--ding-ray"]),
    ("ineq_p1", ["inequalities", "--polytope", "builtin:p1", "--g", "exp_affine:0,1", "--samples", "10", "--seed", "42", "--grid-n", "501"]),
    ("functionals_p1", ["functionals", "--polytope", "builtin:p1", "--u", "{pot}"]),
    ("report_rerun", ["report", "--input", "{saved}", "--rerun"]),
]


@pytest.fixture(scope="session")
def golden_commands(tmp_path_factory):
    """Materialized golden argv lists: file placeholders written to disk."""
    root = tmp_path_factory.mktemp("golden")
    pot = root / "potential.json"
    made = run_cli(
        ["solve-ma", "--polytope", "builtin:p1", "--grid-n", "501", "--out", str(pot)],
        threads=1,
    )
    assert made.returncode == 0, made.stderr.decode()
    saved = root / "futaki_bl1p2.json"
    base = run_cli(_GOLDEN_SPECS[1][1], threads=1)
    assert base.returncode == 0, base.stderr.decode()
    saved.write_bytes(base.stdout)
    subs = {"{pot}": str(pot), "{saved}": str(saved)}
    return [
        (gid, [subs.get(a, a) for a in argv]) for gid, argv in _GOLDEN_SPECS
    ]


@pytest.fixture(scope="session")
def golden_runs(golden_commands):
    """First-run stdout bytes of every golden command (thread cap 1)."""
    out = {}
    for gid, argv in golden_commands:
        cp = run_cli(argv, threads=1)
        assert cp.returncode == 0, (gid, cp.stderr.decode())
        out[gid] = cp.stdout
    return out


def golden_payload(golden_runs, gid) -> dict:
    return json.loads(golden_runs[gid].decode("utf-8"))
