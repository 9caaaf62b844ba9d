"""The ``cli_mix`` workload: one ``python -m toricgs.cli`` subprocess per job.

``build_pool`` writes the seeded input files (polytopes, weights, PL
functions, a potential) and returns one argv per entry of the mix, covering
all ten subcommands at the sizes of the golden specs.  ``run_cli`` runs one
call with a timeout and returns its exit code, output, and the child's CPU
time and peak RSS (from ``os.wait4``).  ``check_output`` is the per-job check.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction

from . import gen, geom


def _num(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _write(workdir: str, name: str, payload) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
    return path


def _weight_arg(workdir: str, tag: str, spec) -> str:
    kind, a0, b = spec
    if kind == "constant":
        return f"constant:{_num(a0)}"
    if kind in ("affine", "exp_affine"):
        return f"{kind}:" + ",".join(_num(x) for x in (a0,) + tuple(b))
    coeffs = [{"powers": list(p), "c": _num(c)} for p, c in gen.poly_coeffs(a0, b)]
    return "polynomial:@" + _write(workdir, f"g_{tag}.json", {"kind": "polynomial", "coeffs": coeffs})


def _polytope_arg(workdir: str, tag: str, verts) -> str:
    rows = [[_num(x) for x in v] for v in verts]
    return _write(workdir, f"P_{tag}.json", {"vertices": rows})


def _potential(workdir: str, name: str, rng, verts) -> str:
    """A smoothed max of the endpoint slopes on the default window, N=501."""
    pmin, pmax = float(verts[0][0]), float(verts[1][0])
    temp = rng.uniform(0.5, 2.0)
    shift = rng.uniform(-1.0, 1.0)
    n, R = 501, 12.0
    values = []
    for k in range(n):
        x = -R + 2 * R * k / (n - 1)
        a, b = pmin * x / temp, pmax * x / temp
        hi = max(a, b)
        values.append(temp * (hi + math.log(math.exp(a - hi) + math.exp(b - hi))) + shift)
    return _write(workdir, name, {"grid": {"R": R, "N": n}, "values": values})


# golden-spec argvs on the builtins; "{pot}" and "{saved}" name files
GOLDEN = [
    ("check-futaki", ["check-futaki", "--polytope", "builtin:bl1p2", "--g", "constant:1"]),
    ("solve-soliton", ["solve-soliton", "--kind", "kr", "--polytope", "builtin:bl1p2"]),
    ("sg", ["sg", "--polytope", "builtin:p1", "--g", "exp_affine:0,1", "--a", "1", "--m", "40"]),
    ("delta", ["delta", "--polytope", "builtin:p1", "--g", "exp_affine:0,1"]),
    ("ding-na", ["ding-na", "--polytope", "builtin:p2", "--g", "constant:1", "--a", "1,0"]),
    ("dh", ["dh", "--polytope", "builtin:p1xp1", "--g", "constant:1", "--a", "1,0", "--m", "20"]),
    ("solve-ma", ["solve-ma", "--polytope", "builtin:p1", "--grid-n", "501"]),
    ("solve-ma-ray", ["solve-ma", "--polytope", "builtin:p1", "--g", "exp_affine:0,0.5", "--ding-ray"]),
    ("inequalities", ["inequalities", "--polytope", "builtin:p1", "--g", "exp_affine:0,1",
                      "--samples", "10", "--seed", "42", "--grid-n", "501"]),
    ("functionals", ["functionals", "--polytope", "builtin:p1", "--u", "{pot}"]),
    ("report", ["report", "--input", "{saved}", "--rerun"]),
]
# set-up runs this call once; its report is the one "report" re-runs
WARMUP_ARGV = GOLDEN[0][1]


def build_pool(seed: int, workdir: str, saved_report: str):
    """The seeded mix: ``[(subcommand label, argv)]``, one entry per slot.

    Every subcommand appears once on the golden builtin inputs and once on
    generated files (polytope, weight, PL function, potential), except
    ``report``, which re-runs a saved report.
    """
    rng = gen.rng_for("cli_mix", seed)
    # the 2D entries rotate through the weight kinds from a seeded offset;
    # the two MA solves through the kinds the solver converges on, the other
    # two 1D entries through all four (``gen.solve_weight``)
    kinds = gen.Cycle(gen.WEIGHT_KINDS[rng.randrange(4):] + gen.WEIGHT_KINDS)
    kinds_1d = gen.Cycle(gen.WEIGHT_KINDS[rng.randrange(4):] + gen.WEIGHT_KINDS)
    kinds_solve = gen.Cycle(gen.SOLVE_KINDS[rng.randrange(3):] + gen.SOLVE_KINDS)

    def poly2(tag, verts=None):
        verts = verts or gen.polytope_points(rng, 2)
        return _polytope_arg(workdir, tag, verts), verts

    def poly1(tag, top=8):
        verts = gen.interval(rng, top=top)
        if verts == [(-1,), (1,)]:
            return "builtin:p1", verts
        return _polytope_arg(workdir, tag, verts), verts

    def weight(tag, verts):
        spec = gen.weight(rng, (kinds if len(verts[0]) == 2 else kinds_1d).next(), verts)
        return _weight_arg(workdir, tag, spec)

    def solve_weight(tag, verts):
        return _weight_arg(workdir, tag, gen.solve_weight(rng, kinds_solve.next(), verts))

    def direction(dim):
        return "--a=" + ",".join(str(x) for x in gen.direction(rng, dim))

    pool = []
    p, v = poly2("futaki")
    pool.append(("check-futaki", ["check-futaki", "--polytope", p, "--g", weight("futaki", v)]))
    # KR on a reflexive polygon, Mabuchi where its weight is positive (see
    # gen.BLOCKS)
    if rng.random() < 0.5:
        p, v = poly2("soliton", gen.reflexive_polygon(rng, rng.randrange(len(gen.REFLEXIVE_2D))))
        pool.append(("solve-soliton", ["solve-soliton", "--kind", "kr", "--polytope", p]))
    else:
        while not geom.mabuchi_positive(v := gen.polytope_points(rng, 2)):
            pass
        p, v = poly2("soliton", v)
        pool.append(("solve-soliton", ["solve-soliton", "--kind", "mabuchi", "--polytope", p]))
    p, v = poly2("sg")
    argv = ["sg", "--polytope", p, "--g", weight("sg", v), direction(2)]
    pool.append(("sg", argv + (["--m", "40"] if rng.random() < 0.5 else [])))
    p, v = poly2("delta")
    pool.append(("delta", ["delta", "--polytope", p, "--g", weight("delta", v)]))
    p, v = poly2("ding")
    pool.append(("ding-na", ["ding-na", "--polytope", p, "--g", weight("ding", v), direction(2)]))
    p, v = poly2("dh")
    argv = ["dh", "--polytope", p, "--g", weight("dh", v), "--m", "20"]
    if rng.random() < 0.5:
        argv.append(direction(2))
    else:
        pieces = gen.pl_pieces(rng, 2, rng.randint(1, 4))
        pl = {"pieces": [{"a": [_num(x) for x in a], "c": _num(c)} for a, c in pieces]}
        argv += ["--pl-file", _write(workdir, "pl_dh.json", pl)]
    pool.append(("dh", argv))
    # the default N=2001 here, N=501 on the golden p1 entry: at N=501 the
    # solver's boundary check rejects most generated inputs (WindowTooSmall)
    p, v = poly1("ma", top=5)
    pool.append(("solve-ma", ["solve-ma", "--polytope", p, "--g", solve_weight("ma", v)]))
    p, v = poly1("ray", top=5)
    pool.append(("solve-ma-ray", ["solve-ma", "--polytope", p, "--g", solve_weight("ray", v),
                                  "--ding-ray"]))
    p, v = poly1("fun")
    pool.append(("functionals", ["functionals", "--polytope", p, "--g", weight("fun", v),
                                 "--u", _potential(workdir, "potential.json", rng, v)]))
    p, v = poly1("ineq", top=5)
    pool.append(("inequalities", ["inequalities", "--polytope", p, "--g", weight("ineq", v),
                                  "--samples", "10", "--seed", str(rng.randint(0, 10**6)),
                                  "--grid-n", "501"]))
    files = {"{pot}": _potential(workdir, "potential_p1.json", rng, [(-1,), (1,)]),
             "{saved}": saved_report}
    pool += [(label, [files.get(a, a) for a in argv]) for label, argv in GOLDEN]
    rng.shuffle(pool)
    return pool


@dataclass
class CliResult:
    rc: int
    stdout: bytes
    stderr: bytes
    seconds: float
    cpu_seconds: float
    peak_rss_kb: int
    timed_out: bool


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(cmd, env, timeout: float, cwd: str) -> CliResult:
    """Run ``cmd`` to completion or until ``timeout`` (wall clock); reap it
    with wait4, whose usage covers the child and the children it reaped."""
    with tempfile.TemporaryFile(dir=cwd) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
        timed_out = False

        def kill(*_):
            nonlocal timed_out
            timed_out = True
            proc.kill()

        old = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            proc.stdout.close()
            if proc.returncode is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        seconds = time.perf_counter() - t0
        err.seek(0)
        cpu = usage.ru_utime + usage.ru_stime
        return CliResult(proc.returncode, out, err.read(), seconds, cpu, usage.ru_maxrss, timed_out)


def cli_command(argv):
    return [sys.executable, "-m", "toricgs.cli", *argv]


def failure_class(res: CliResult) -> str:
    """Exception class of a failed call: the JSON error name or traceback tail."""
    if res.timed_out:
        return "Deadline"
    text = res.stderr.decode("utf-8", "replace").strip()
    try:
        return f"exit{res.rc}:{json.loads(text.splitlines()[-1])['error']}"
    except (ValueError, KeyError, IndexError, TypeError):
        last = text.splitlines()[-1] if text else ""
        return f"exit{res.rc}:{last.split(':', 1)[0] or 'no-stderr'}"


def _reject_constant(name):
    raise ValueError(f"non-RFC-8259 number {name}")


def check_output(stdout: bytes) -> str | None:
    """None when stdout is one RFC 8259 JSON document, else the reason."""
    try:
        json.loads(stdout.decode("utf-8"), parse_constant=_reject_constant)
    except (UnicodeDecodeError, ValueError) as exc:
        return f"cli_json: {exc}"
    return None
