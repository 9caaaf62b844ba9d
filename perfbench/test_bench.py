"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the root.

They are not part of the package's test suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import toricgs as t  # noqa: E402

from perfbench import climix, defects, gen, geom, jobs, run  # noqa: E402

BL1P2 = [(-1, 0), (0, -1), (2, -1), (-1, 2)]
ONE = ("constant", Fraction(1), ())


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["toric_invariants", "lattice_filtration", "ma_1d"])
def test_generator_is_deterministic_per_seed(workload):
    assert gen.jobs(workload, 5, 40) == gen.jobs(workload, 5, 40)
    assert gen.jobs(workload, 5, 40) != gen.jobs(workload, 6, 40)


def _pool_files(seed, workdir):
    os.makedirs(workdir)
    pool = climix.build_pool(seed, workdir, "saved.json")
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), encoding="utf-8") as fh:
            files[name] = fh.read()
    return [(label, [a.replace(workdir, "W") for a in argv]) for label, argv in pool], files


def test_cli_pool_is_deterministic_per_seed(tmp_path):
    a = _pool_files(3, str(tmp_path / "a"))
    b = _pool_files(3, str(tmp_path / "b"))
    c = _pool_files(4, str(tmp_path / "c"))
    assert a == b
    assert a != c
    labels = {label for label, _ in a[0]}
    assert {argv[0] for _, argv in a[0]} == {
        "check-futaki", "solve-soliton", "sg", "delta", "ding-na", "dh", "solve-ma",
        "functionals", "inequalities", "report"}
    assert "solve-ma-ray" in labels


def test_generated_polytopes_have_the_origin_inside():
    for job in gen.jobs("toric_invariants", 1, 40):
        assert geom.origin_interior(job["points"])
        assert geom.volume(job["points"]) == t.from_vertices(job["points"]).volume


def test_defect_probes_are_deterministic_per_seed():
    for name, (workload, make) in defects.PROBES.items():
        draw = [make(gen.rng_for(f"defects:{name}", seed)) for seed in (1, 1, 2)]
        assert draw[0] == draw[1] != draw[2], name
        assert workload in jobs.RUNNERS


def test_reflexive_table_has_the_sixteen_polygons():
    assert all(geom.reflexive(v) for v in gen.REFLEXIVE_2D)
    # 3 to 9 boundary lattice points, 1 + 3 + 2 + 4 + 2 + 3 + 1 classes
    boundary = sorted(len(geom.lattice_points(v, 1)) - 1 for v in gen.REFLEXIVE_2D)
    assert boundary == [3, 4, 4, 4, 5, 5, 6, 6, 6, 6, 7, 7, 8, 8, 8, 9]


def test_generated_inputs_stay_in_the_domain():
    for job in gen.jobs("toric_invariants", 2, 96):
        if job["type"] == "kr":
            assert geom.reflexive(job["points"])
        if job["type"] == "mabuchi":
            assert geom.mabuchi_positive(job["points"])
        if job["type"] == "pl" and job["dim"] == 3:
            assert len(job["pieces"]) == 1 and job["weight"][0] != "exp_affine"
    for job in gen.jobs("lattice_filtration", 2, 64):
        assert job["type"] != "dh" or job["dim"] == 2 or len(job["pieces"]) == 1
    for job in gen.jobs("ma_1d", 2, 64):
        if job["type"] != "ray":
            assert max(abs(v[0]) for v in job["points"]) <= Fraction(5, 4)
        if job["type"] == "solve":
            assert job["weight"][0] in gen.SOLVE_KINDS


# ---------------------------------------------------------------------------
# each correctness check passes on the real answer and fires on a planted one
# ---------------------------------------------------------------------------


def _fires(check, workload, job, out):
    with pytest.raises(jobs.CheckFailed) as info:
        jobs.CHECKS[workload](t, job, out)
    assert info.value.check == check


def _real(workload, job):
    out = jobs.RUNNERS[workload](t, job)
    jobs.CHECKS[workload](t, job, out)
    return out


def test_moment_checks_fire():
    job = {"type": "moments", "dim": 2, "points": BL1P2, "weight": ONE}
    out = _real("toric_invariants", job)
    _fires("volume_exact", "toric_invariants", job, dict(out, P=SimpleNamespace(volume=Fraction(1))))
    bad = [x + 1e-6 for x in out["futaki"]]
    _fires("futaki_identity", "toric_invariants", job, dict(out, futaki=bad))
    _fires("constant_volume", "toric_invariants", job, dict(out, volume_exact=out["volume_exact"] + Fraction(1, 7)))


def test_soliton_checks_fire():
    job = {"type": "kr", "dim": 2, "points": BL1P2}
    out = _real("toric_invariants", job)
    sol = SimpleNamespace(weight=t.WeightFunction.exp_affine(0, (0.0, 0.0)))
    _fires("kr_barycenter", "toric_invariants", job, dict(out, sol=sol))
    job = {"type": "mabuchi", "dim": 2, "points": BL1P2}
    out = _real("toric_invariants", job)
    b = tuple(x + Fraction(1, 1000) for x in out["sol"].b)
    _fires("mabuchi_moment", "toric_invariants", job, dict(out, sol=SimpleNamespace(b=b)))


def test_delta_and_pl_checks_fire():
    job = {"type": "delta", "dim": 2, "points": BL1P2,
           "weight": ("exp_affine", Fraction(0), (Fraction(1, 2), Fraction(0))), "directions": [(1, 0), (0, 1)]}
    out = _real("toric_invariants", job)
    _fires("delta_bound", "toric_invariants", job, dict(out, delta=out["delta"] + 1))
    job = {"type": "pl", "dim": 2, "points": BL1P2, "weight": ONE,
           "pieces": [((1, 0), 0), ((-1, 1), Fraction(1, 2))]}
    out = _real("toric_invariants", job)
    shifted = SimpleNamespace(pieces=tuple((a, c + Fraction(1, 3)) for a, c in out["f"].pieces))
    _fires("pl_min_zero", "toric_invariants", job, dict(out, f=shifted))
    tilted = SimpleNamespace(pieces=((out["f"].pieces[0][0], out["f"].pieces[0][1]),
                                     ((Fraction(-1), Fraction(2)), out["f"].pieces[1][1])))
    _fires("pl_pieces_shifted", "toric_invariants", job, dict(out, f=tilted))


def test_pl_minimum_in_3d_matches_a_hand_value():
    cube = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    # max(x, -x) + 0 on the cube has minimum 0 on the plane x = 0
    assert geom.pl_minimum(cube, [((1, 0, 0), 0), ((-1, 0, 0), 0)]) == 0
    assert geom.pl_minimum(cube, [((1, 1, 1), Fraction(1, 2))]) == Fraction(-5, 2)


@pytest.mark.parametrize("points", [BL1P2, [(-3, -1), (2, -2), (1, 3), (-2, 2)],
                                    [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
                                    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)]])
def test_lattice_points_match_the_program(points):
    for m in (1, 3, 7):
        mine = sorted(map(tuple, geom.lattice_points(points, m).tolist()))
        assert mine == sorted(map(tuple, t.from_vertices(points).lattice_points(m).tolist()))


def test_lattice_checks_fire():
    exp = ("exp_affine", Fraction(1, 4), (Fraction(1, 2), Fraction(-3, 10)))
    job = {"type": "dh", "dim": 2, "points": BL1P2, "m": 10, "weight": exp,
           "pieces": [((1, 0), 0), ((0, 1), 0)]}
    out = _real("lattice_filtration", job)
    _fires("dh_atoms_nonnegative", "lattice_filtration", job,
           dict(out, positions=list(out["positions"]) + [-0.1]))
    _fires("dh_mass", "lattice_filtration", job, dict(out, mass=out["mass"] * (1 + 1e-6)))
    _fires("dh_atom_masses", "lattice_filtration", job, dict(out, masses=list(out["masses"]) + [1e-3]))
    _fires("dh_mean", "lattice_filtration", job, dict(out, mean=out["mean"] + 1e-6))
    job = {"type": "sg_lattice", "dim": 3, "points": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)], "m": 9,
           "weight": ("polynomial", Fraction(1, 4), (Fraction(1, 8), Fraction(0), Fraction(-1, 8))),
           "direction": (1, -1, 2)}
    out = _real("lattice_filtration", job)
    _fires("sg_lattice_sum", "lattice_filtration", job, {"value": out["value"] * (1 + 1e-6)})


def test_ma_checks_fire():
    p1 = [(-1,), (1,)]
    job = {"type": "solve", "points": p1, "weight": ONE}
    out = _real("ma_1d", job)
    _fires("ma_residual", "ma_1d", job, dict(out, u=SimpleNamespace(residual=1e-6)))
    moments = {k: dict(v, abs_diff=1e-4) for k, v in out["moments"].items()}
    _fires("pushforward_moments", "ma_1d", job, dict(out, moments=moments))
    job = {"type": "ray", "points": p1, "weight": ONE}
    out = _real("ma_1d", job)
    ray = dict(out["ray"], D_values=[math.nan] + list(out["ray"]["D_values"]))
    _fires("ray_finite", "ma_1d", job, {"ray": ray})
    job = {"type": "ineq", "points": p1, "weight": ONE, "seed": 0}
    out = _real("ma_1d", job)
    suite = dict(out["suite"], violations={"a": 1, "b": 0, "c": 0, "d": 0})
    _fires("inequality_bands", "ma_1d", job, {"suite": suite})


def _cli(stdout: bytes, rc=0):
    return climix.CliResult(rc, stdout, b"", 0.5, 0.4, 1000, False)


def test_cli_checks_fire():
    ok = json.dumps({"results": {"match": True}}).encode()
    assert run._cli_job("report", _cli(ok), {}, ("a",)).error is None
    assert run._cli_job("sg", _cli(b'{"x": NaN}'), {}, ("a",)).error == "check:cli_json"
    assert run._cli_job("sg", _cli(b'{"x": 1} trailing'), {}, ("a",)).error == "check:cli_json"
    bad = json.dumps({"results": {"match": False}}).encode()
    assert run._cli_job("report", _cli(bad), {}, ("a",)).error == "check:report_match"
    first = {}
    assert run._cli_job("sg", _cli(b'{"x": 1}'), first, ("a",)).error is None
    job = run._cli_job("sg", _cli(b'{"x": 2}'), first, ("a",))
    assert (job.error, job.wrong) == ("check:cli_repeat_identical", True)
    assert run._cli_job("sg", _cli(b"", rc=1), {}, ("a",)).wrong is False


def test_failed_jobs_are_charged_their_deadline_and_wrong_answers_are_incorrect():
    ok = run.Job("kr", 0.05, 0.05)
    assert run.charged("toric_invariants", ok) == 0.05
    stalled = run.Job("kr", 2.0, 2.0, "Deadline")
    assert run.charged("toric_invariants", stalled) == run.CONFIG["toric_invariants"]["deadline"]["kr"]
    assert run.charged("cli_mix", run.Job("sg", 0.3, 0.3, "exit1:Boom")) == run.CONFIG["cli_mix"]["deadline"]
    assert run.wrong_answers([ok, stalled]) == []
    assert run.wrong_answers([ok, run.Job("kr", 0.05, 0.05, "check:kr_barycenter", True)])


# ---------------------------------------------------------------------------
# traced runs and the command contract
# ---------------------------------------------------------------------------


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _last_json(cp):
    assert cp.returncode == 0, cp.stderr
    return json.loads(cp.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,jobs_n", [("ma_1d", 9), ("toric_invariants", 20)])
def test_traced_counts_repeat_for_a_seed(workload, jobs_n):
    args = ["--workload", workload, "--seed", "7", "--trace", "1", "--jobs", str(jobs_n)]
    first, second = _last_json(_bench(*args)), _last_json(_bench(*args))
    for result in (first, second):
        assert result["correct"] is True
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    counts = {k for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts
    for k in counts:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    cp = _bench("--workload", "ma_1d", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert cp.returncode != 0
    assert '"correct"' not in cp.stdout
