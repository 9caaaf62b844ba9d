"""toricgs benchmark: one closed-loop client in one process per workload.

Run from the repository root::

    python3 perfbench/run.py --workload toric_invariants --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen): ``cli_mix``
starts one ``python -m toricgs.cli`` subprocess at a time; the other three
call the package in this process.  Inputs come from ``--seed`` only.

``--trace 0`` measures for ``--seconds`` and prints the end-to-end metrics.
A job's time is the CPU time (user + system) spent on it: by this process's
one thread for in-process jobs, by the CLI child (from ``wait4``) for
``cli_mix``.  On an idle host it equals the wall time; unlike wall time it
does not count time the job waited while other processes held the CPU.

The speed of a shared host drifts by 20% and more within seconds, so every
time is reported at a reference host speed: a fixed probe (``calibrate``)
is timed between consecutive jobs, and a job's time is scaled by the
probe's reference time ``CAL_REF_S`` over the mean of the two probe times
around it.  The probe is a pure-Python loop, except on ``ma_1d``, whose
dense transforms are bound by memory bandwidth and slow down with it: there
it is a pass over two arrays larger than the caches.  The program never runs
the probe, so it scales a parent and a change alike.

* ``setup_s``: median calibrated CPU time of three fresh interpreters that
  each import the package and warm up (one job per type; for ``cli_mix``,
  write the input files and make one CLI call).
* ``jobs_per_s``: attempted jobs / their summed time.
* ``job_ms_p50``, ``job_ms_tail``: median and the highest percentile with at
  least ten jobs beyond it (the percentile is printed above the result line;
  with fewer than 20 jobs the median is reported).
* ``peak_rss_mb``: peak RSS of this process (the checks and the memory
  probe included), or for ``cli_mix`` the largest peak RSS among the CLI
  children.

Every generated input lies where the program answers (see ``gen.BLOCKS``),
so no job is expected to fail; ``defects.py`` runs the rest of each input
family and tables the known failures.  A job fails when it raises, returns a wrong
answer, or overruns its deadline (a CPU-time ``SIGPROF`` timer in process,
a wall-clock subprocess timeout for ``cli_mix``); a failed job is charged
its deadline, as missing any latency limit.  Failures are counted in
``failed`` and tabled above the result line.  ``correct`` is false when a
job returns a wrong answer or the traced CLI output differs from the
untraced output.  Inputs are generated and answers checked outside the
timed intervals.

In-process runs stop only at the end of a block of the job sequence (see
``gen.BLOCKS``), and ``cli_mix`` only at the end of a pass over its pool
(one pass of 21 calls at ``--seconds 20``), so every job category keeps its
exact share.

``--trace 1`` runs a fixed number of jobs (``--jobs``, default per
workload), each once untraced and once with the external tracer of
``trace.py`` installed, and prints the per-layer metrics; counts in it
repeat exactly for a seed.  Every process started here is waited for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import climix, gen, jobs, trace  # noqa: E402

# per-job deadlines in CPU seconds (five times the slowest job seen of each
# type or more), the host-speed probe whose times track the jobs' best, and
# jobs in a traced run
CONFIG = {
    "cli_mix": {"deadline": 8.0, "probe": "loop", "trace_jobs": 21},
    "toric_invariants": {"deadline": {"moments": 5.0, "kr": 2.0, "mabuchi": 1.0, "delta": 2.0, "pl": 1.0},
                         "probe": "loop", "trace_jobs": 64},
    "lattice_filtration": {"deadline": {"dh": 3.0, "sg_lattice": 2.0}, "probe": "loop", "trace_jobs": 32},
    "ma_1d": {"deadline": {"solve": 1.0, "ray": 2.0, "ineq": 3.0}, "probe": "memory", "trace_jobs": 48},
}
SETUP_PROBES = 3
# the probes' sizes (the memory probe's two arrays take 16 MB, well above
# the caches), and their median times on the 2 vCPU Intel Xeon where the
# benchmark was written
CAL_LOOPS = 20_000
CAL_FLOATS = 1_000_000
CAL_REF_S = {"loop": 0.0013, "memory": 0.0027}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = [("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_ms_p50", "ms"),
              ("job_ms_tail", "ms"), ("peak_rss_mb", "MB")]


class DeadlineExceeded(BaseException):
    """Raised by the SIGPROF handler; a BaseException so no library
    ``except Exception`` swallows it."""


def _raise_deadline(*_):
    raise DeadlineExceeded()


class Job:
    """Outcome of one job: CPU and wall seconds; ``error`` is None on
    success, else its class; ``scale`` is the host-speed factor."""

    __slots__ = ("kind", "seconds", "wall", "error", "wrong", "scale")

    def __init__(self, kind, seconds, wall, error=None, wrong=False):
        self.kind, self.seconds, self.wall, self.error, self.wrong = kind, seconds, wall, error, wrong
        self.scale = 1.0


def calibrate(probe: str, arrays=None) -> float:
    """CPU seconds on this thread of a fixed pure-Python loop, or of two
    passes over ``arrays`` for the memory probe."""
    c0 = time.thread_time()
    if probe == "loop":
        acc = 0
        for i in range(CAL_LOOPS):
            acc += i * i % 7
    else:
        a, b = arrays
        for _ in range(2):
            np.multiply(a, 1.0000001, out=b)
            np.add(b, a, out=b)
    return time.thread_time() - c0


class Calibrated:
    """Sets each job's ``scale`` from the probe times before and after it."""

    def __init__(self, probe: str = "loop"):
        self.probe = probe
        self.arrays = (np.ones(CAL_FLOATS), np.empty(CAL_FLOATS)) if probe == "memory" else None
        self.before = calibrate(probe, self.arrays)
        self.loops = [self.before]

    def after(self, job: Job) -> Job:
        after = calibrate(self.probe, self.arrays)
        job.scale = 2 * CAL_REF_S[self.probe] / (self.before + after)
        self.before = after
        self.loops.append(after)
        return job


# ---------------------------------------------------------------------------
# environment and bookkeeping
# ---------------------------------------------------------------------------


def env_record() -> dict:
    from importlib import metadata

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": commit,
    }


def attempted_by_type(workload: str, done) -> dict:
    counts = {}
    for j in done:
        key = f"{workload}|{j.kind}"
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def wrong_answers(done) -> list:
    return [f"wrong answer: {e}" for e in sorted({j.error for j in done if j.wrong})]


def failure_table(workload: str, done) -> dict:
    table = {}
    for j in done:
        if j.error:
            key = f"{workload}|{j.kind}|{j.error}"
            table[key] = table.get(key, 0) + 1
    return dict(sorted(table.items()))


def tail(values):
    """(value, percentile) of the highest percentile with >= 10 values beyond it.

    With fewer than 20 values that percentile is below the median, and the
    median is reported instead.
    """
    v = sorted(values)
    n = len(v)
    if n < 20:
        return statistics.median(v), 50.0
    return v[n - 11], 100.0 * (n - 10) / n


def import_package():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import toricgs

    return toricgs


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def run_job(t, job, deadline, runner):
    """Run one job under its deadline; returns (Job, outputs or None)."""
    out = None
    error = None
    # the thread's clock: while a profiling timer is armed, the process-wide
    # CPU clock advances only at scheduler ticks
    c0, t0 = time.thread_time(), time.perf_counter()
    signal.setitimer(signal.ITIMER_PROF, deadline[job["type"]])
    try:
        out = runner(t, job)
        signal.setitimer(signal.ITIMER_PROF, 0)
    except DeadlineExceeded:
        error = "Deadline"
    except Exception as exc:  # the job's failure is the measurement
        error = type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
    return Job(job["type"], time.thread_time() - c0, time.perf_counter() - t0, error), out


def check_job(t, job, rec: Job, out, checker) -> Job:
    """Run the correctness check (untimed) on a job that did not raise."""
    if rec.error is None:
        try:
            checker(t, job, out)
        except jobs.CheckFailed as exc:
            rec.error, rec.wrong = f"check:{exc.check}", True
    return rec


def run_checked(t, workload, job):
    rec, out = run_job(t, job, CONFIG[workload]["deadline"], jobs.RUNNERS[workload])
    return check_job(t, job, rec, out, jobs.CHECKS[workload])


def setup_inprocess(workload):
    """Import and warm up; returns the package."""
    t = import_package()
    signal.signal(signal.SIGPROF, _raise_deadline)
    for job in gen.warmup_jobs(workload):
        run_checked(t, workload, job)
    return t


def measure_inprocess(workload, seed, seconds):
    t = setup_inprocess(workload)
    stream = gen.stream(workload, seed)
    block = len(gen.BLOCKS[workload])
    done = []
    cal = Calibrated(CONFIG[workload]["probe"])
    stop = time.perf_counter() + seconds
    # stop only at block ends, so every category keeps its exact share; each
    # input is new and is generated outside the timed interval
    while time.perf_counter() < stop:
        for _ in range(block):
            done.append(cal.after(run_checked(t, workload, next(stream))))
    return done, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, cal


def trace_inprocess(workload, seed, n_jobs):
    """Each job runs untraced, then again with the tracer installed."""
    t = setup_inprocess(workload)
    pool = gen.jobs(workload, seed, n_jobs)
    runner, checker = jobs.RUNNERS[workload], jobs.CHECKS[workload]
    deadline = CONFIG[workload]["deadline"]
    tracer = trace.Tracer()
    plain, traced = [], []
    for idx, job in enumerate(pool):
        plain.append(run_checked(t, workload, job))
        tracer.install(t)
        tracer.start_job(idx)
        try:
            rec, out = run_job(t, job, deadline, runner)
        finally:
            tracer.uninstall()
        traced.append(check_job(t, job, rec, out, checker))
    return plain, traced, tracer.spans, import_probes(), []


# ---------------------------------------------------------------------------
# cli_mix
# ---------------------------------------------------------------------------


def setup_cli(seed):
    """Write the seeded input files and make the saved report by a warm-up call."""
    workdir = os.path.join(WORK, f"cli-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = climix.child_env(ROOT)
    warm = climix.run_cli(climix.cli_command(climix.WARMUP_ARGV), env, CONFIG["cli_mix"]["deadline"], workdir)
    if warm.rc != 0:
        raise RuntimeError(f"warm-up CLI call failed: {warm.stderr.decode(errors='replace')}")
    saved = os.path.join(workdir, "saved_report.json")
    with open(saved, "wb") as fh:
        fh.write(warm.stdout)
    return workdir, env, climix.build_pool(seed, workdir, saved)


def _cli_job(label, res, first_output: dict, key) -> Job:
    error, wrong = None, False
    if res.timed_out or res.rc != 0:
        error = climix.failure_class(res)
    else:
        reason = climix.check_output(res.stdout)
        if reason is None and label == "report" and not json.loads(res.stdout)["results"]["match"]:
            reason = "report_match"
        if reason is None and first_output.setdefault(key, res.stdout) != res.stdout:
            reason = "cli_repeat_identical"
        if reason is not None:
            error, wrong = f"check:{reason.split(':')[0]}", True
    return Job(label, res.cpu_seconds, res.seconds, error, wrong)


def measure_cli(seed, seconds):
    workdir, env, pool = setup_cli(seed)
    deadline = CONFIG["cli_mix"]["deadline"]
    done, first, peak_kb = [], {}, 0
    cal = Calibrated()
    try:
        stop = time.perf_counter() + seconds
        # whole passes over the pool, so every entry runs equally often; a
        # further pass starts only if one more like the last ends by ``stop``
        while True:
            started = time.perf_counter()
            for label, argv in pool:
                res = climix.run_cli(climix.cli_command(argv), env, deadline, workdir)
                peak_kb = max(peak_kb, res.peak_rss_kb)
                done.append(cal.after(_cli_job(label, res, first, tuple(argv))))
            if 2 * time.perf_counter() - started > stop:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return done, peak_kb / 1024, cal


def trace_cli(seed, n_jobs):
    """Each call runs plain, then under traced_cli.py; stdout must match."""
    workdir, env, pool = setup_cli(seed)
    deadline = CONFIG["cli_mix"]["deadline"]
    traced_cli = os.path.join(HERE, "traced_cli.py")
    plain, traced, spans, imports, problems = [], [], [], [], []
    first = {}
    try:
        for idx in range(n_jobs):
            label, argv = pool[idx % len(pool)]
            res = climix.run_cli(climix.cli_command(argv), env, deadline, workdir)
            plain.append(_cli_job(label, res, first, tuple(argv)))
            span_file = os.path.join(workdir, f"spans-{idx}.json")
            env_t = dict(env, PERFBENCH_SPAWN_T=repr(time.time()))
            res_t = climix.run_cli([sys.executable, traced_cli, span_file, *argv], env_t, deadline, workdir)
            ended = time.time()
            traced.append(_cli_job(label, res_t, {}, tuple(argv)))
            if res_t.stdout != res.stdout:
                problems.append(f"traced stdout differs for {label}")
            if os.path.exists(span_file):
                with open(span_file, encoding="utf-8") as fh:
                    rec = json.load(fh)
                imports.append(rec["import"])
                base = len(spans)
                for s in rec["spans"]:
                    s[trace.JOB] = idx
                    if s[trace.PARENT] is not None:
                        s[trace.PARENT] += base
                    spans.append(s)
                spans.extend(phase_spans(rec, ended, idx))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return plain, traced, spans, _median_imports(imports), problems


def phase_spans(rec: dict, ended: float, job):
    """Top-level pseudo-spans for the traced CLI process outside ``cli.main``:
    interpreter start, the two imports, tracer install, and exit (stdout
    write, span dump and interpreter teardown, until the parent reaped it)."""
    walls = rec["walls"]
    phases = [(name, rec["import"][name] / 1000) for name in trace.IMPORT]
    phases += [("trace.install", walls["main"] - walls["install"]), ("process.exit", ended - walls["returned"])]
    return [[name, 0.0, seconds, None, job, None, None] for name, seconds in phases]


def _median_imports(records):
    return {k: statistics.median(r[k] for r in records) if records else 0.0 for k in trace.IMPORT}


def import_probes(count=3):
    """Import timings from fresh interpreters running traced_cli.py --import-only."""
    env = climix.child_env(ROOT)
    traced_cli = os.path.join(HERE, "traced_cli.py")
    out = []
    for _ in range(count):
        env_t = dict(env, PERFBENCH_SPAWN_T=repr(time.time()))
        cp = subprocess.run([sys.executable, traced_cli, "--import-only"], env=env_t, cwd=ROOT,
                            capture_output=True, timeout=120, check=True)
        out.append(json.loads(cp.stdout))
    return _median_imports(out)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def setup_seconds(workload, seed) -> float:
    """Median calibrated CPU time of fresh interpreters doing this
    workload's set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    os.makedirs(WORK, exist_ok=True)
    times = []
    cal = Calibrated()
    for _ in range(SETUP_PROBES):
        res = climix.run_cli(cmd, dict(os.environ), 170, WORK)
        if res.rc != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.decode(errors='replace')}")
        probe = cal.after(Job("setup", res.cpu_seconds, res.seconds))
        times.append(probe.seconds * probe.scale)
    return statistics.median(times)


def charged(workload, job: Job) -> float:
    """A job's calibrated time, or its deadline when it failed."""
    if job.error is None:
        return job.seconds * job.scale
    deadline = CONFIG[workload]["deadline"]
    return deadline if workload == "cli_mix" else deadline[job.kind]


def end_to_end(workload, seed, seconds):
    setup = setup_seconds(workload, seed)
    if workload == "cli_mix":
        done, peak_mb, cal = measure_cli(seed, seconds)
    else:
        done, peak_mb, cal = measure_inprocess(workload, seed, seconds)
    times = [charged(workload, j) for j in done]
    tail_s, pct = tail(times)
    metrics = {
        "setup_s": setup,
        "jobs_per_s": len(times) / sum(times),
        "job_ms_p50": 1000 * statistics.median(times),
        "job_ms_tail": 1000 * tail_s,
        "peak_rss_mb": peak_mb,
    }
    info = {"jobs": len(times), "tail_percentile": round(pct, 1),
            "calibration_ms": round(1000 * statistics.median(cal.loops), 4)}
    return done, [(n, u, metrics[n]) for n, u in END_TO_END], info, []


def per_layer(workload, seed, n_jobs):
    if workload == "cli_mix":
        plain, traced, spans, imports, problems = trace_cli(seed, n_jobs)
    else:
        plain, traced, spans, imports, problems = trace_inprocess(workload, seed, n_jobs)
    cut = {i for i, j in enumerate(traced) if j.error == "Deadline"}
    kept = trace.keep_spans(spans, cut)
    both = [i for i, (a, b) in enumerate(zip(plain, traced)) if a.error != "Deadline" and i not in cut]
    untraced_s = sum(plain[i].wall for i in both)
    covered = sum(trace.top_level_seconds(spans, kept, i) for i in range(len(traced)))
    extra = dict(imports)
    extra["trace.overhead_ratio"] = (sum(traced[i].wall for i in both) / untraced_s - 1) if untraced_s else 0.0
    extra["trace.coverage"] = covered / sum(j.wall for j in traced)
    values = trace.layer_metrics(spans, kept, extra)
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"spans-{workload}-{seed}.jsonl"), "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
    metrics = [(n, u, values[n]) for n, u in trace.metric_names()]
    return traced, metrics, {"jobs": len(traced), "spans": len(kept)}, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, help="jobs in a traced run (default per workload)")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # one client on one core: keep BLAS from starting a thread pool (the
    # values, set or inherited, are printed in the environment record)
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not os.path.isfile(os.path.join(SRC, "toricgs", "__init__.py")):
        print(f"error: no toricgs sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.probe_setup:
        if args.workload == "cli_mix":
            shutil.rmtree(setup_cli(args.seed)[0], ignore_errors=True)
        else:
            setup_inprocess(args.workload)
        return 0
    if args.trace:
        n_jobs = args.jobs or CONFIG[args.workload]["trace_jobs"]
        done, metrics, info, problems = per_layer(args.workload, args.seed, n_jobs)
    else:
        done, metrics, info, problems = end_to_end(args.workload, args.seed, args.seconds)
    problems += wrong_answers(done)
    print(json.dumps({"env": env_record()}, sort_keys=True))
    print(json.dumps({"attempted": attempted_by_type(args.workload, done),
                      "failures": failure_table(args.workload, done)}, sort_keys=True))
    print(json.dumps({"run": info, "problems": problems}, sort_keys=True))
    for name, unit, value in metrics:
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(done),
        "failed": sum(1 for j in done if j.error),
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
