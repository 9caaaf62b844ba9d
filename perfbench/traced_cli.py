"""Traced CLI call in a fresh interpreter.

Usage: ``traced_cli.py SPAN_FILE ARGV...`` or ``traced_cli.py --import-only``.
Times interpreter start (from ``PERFBENCH_SPAWN_T``, the parent's
``time.time()`` at spawn), ``import numpy`` and ``import toricgs.cli``; then
installs the external tracer, runs ``cli.main(argv)`` with stdout captured,
writes the captured bytes to stdout unchanged and the spans to SPAN_FILE,
with the wall-clock times at which tracing started and ``main`` returned,
so the parent can name the remaining phases (tracer install, exit).
"""

import time

_T_START = time.time()

import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    imports = {"import.interpreter_ms": 1000 * (_T_START - float(os.environ["PERFBENCH_SPAWN_T"]))}
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import toricgs.cli

    t2 = time.perf_counter()
    imports["import.numpy_ms"] = 1000 * (t1 - t0)
    imports["import.toricgs_ms"] = 1000 * (t2 - t1)
    if sys.argv[1] == "--import-only":
        print(json.dumps(imports))
        return 0
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench.trace import Tracer

    install_wall = time.time()
    tracer = Tracer()
    tracer.install(toricgs)
    tracer.start_job(0)
    main_wall = time.time()
    captured = io.StringIO()
    real, sys.stdout = sys.stdout, captured
    try:
        rc = toricgs.cli.main(sys.argv[2:])
    except Exception:  # an uncaught library error: exit like the interpreter does
        traceback.print_exc()
        rc = 1
    finally:
        sys.stdout = real
    walls = {"install": install_wall, "main": main_wall, "returned": time.time()}
    sys.stdout.buffer.write(captured.getvalue().encode("utf-8"))
    sys.stdout.flush()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"import": imports, "walls": walls, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
