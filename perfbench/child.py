"""One timed pass in a fresh interpreter.

Usage: python3 -I perfbench/child.py ROOT WORKLOAD SEED WORKDIR MODE

MODE is ``run`` (time every cell), ``trace`` (time every cell with the
layer wrappers installed) or ``setup`` (stop once the cells are built).
Each cell goes to ``planegraphs.cli.main`` in turn, one caller, one
process.  The last line of stdout is a JSON report; the cells' own output
is captured per cell.

Before each cell, and nine times once the cells are built, the child also
times ``reference``: fixed pure-Python work of the kinds the package does
(small-int arithmetic, tuples, dicts, sets, calls).  Its duration tracks
how fast the host runs the interpreter at that moment; the runner uses it
to take the host's speed changes out of the timings.
"""

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout


def _mod(a, b):
    return (a * b) % 97


def reference(clock=time.perf_counter) -> float:
    """Seconds one round of the reference work takes now."""
    t0 = clock()
    d, seen, s = {}, set(), 0
    for i in range(800):
        t = (i % 7, i % 11, i % 13)
        d[t] = d.get(t, 0) + 1
        seen.add(t[0] * 16 + t[1])
        s += _mod(i, i + 3)
    return clock() - t0


root, workload, seed, workdir, mode = sys.argv[1:6]
seed = int(seed)
src = os.path.join(root, "src")
sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]

import planegraphs.cli  # noqa: E402

import cells  # noqa: E402

if not os.path.abspath(planegraphs.cli.__file__).startswith(src + os.sep):
    sys.exit(f"planegraphs imported from {planegraphs.cli.__file__}, not from {src}")

todo = cells.ordered(cells.workload_cells(workload), seed)
ready = time.monotonic()
report = {"ready": ready, "cells": len(todo), "setup_ref_s": sorted(reference() for _ in range(9))[4]}

if mode != "setup":
    tracer = None
    if mode == "trace":
        import layertrace

        fields_before = planegraphs.gf.make_field.cache_info().misses
        make_field = planegraphs.gf.make_field
        inner, outer = layertrace.calibrate()
        report["wrapper_ns"] = (inner + outer) * 1e9
        tracer = layertrace.Tracer(inner_s=inner, outer_s=outer)
        layertrace.add_observers(tracer)
        layertrace.install(tracer)
    main = planegraphs.cli.main

    results = []
    clock = time.perf_counter
    start = clock()
    for i, argv in enumerate(todo):
        out = os.path.join(workdir, f"{i}.out")
        buf, err = io.StringIO(), io.StringIO()
        ref = reference(clock)
        t0 = clock()
        try:
            with redirect_stdout(buf), redirect_stderr(err):
                rc = main(cells.bind(argv, out))
            error = None
        except SystemExit as e:
            rc, error = e.code, f"exit {e.code}"
        except Exception as e:  # a crashing cell is a failed cell, not a crashed pass
            rc, error = None, f"{type(e).__name__}: {e}"
        t1 = clock()
        results.append({
            "key": cells.cell_key(argv), "out": out, "rc": rc, "error": error,
            "stdout": buf.getvalue().replace(out, cells.OUT), "stderr": err.getvalue()[-2000:], "s": t1 - t0, "ref_s": ref,
        })
    # first cell start to last cell end, less the reference rounds between cells
    wall = clock() - start - sum(r["ref_s"] for r in results)
    report.update(results=results, wall_s=wall,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        fields = make_field.cache_info().misses - fields_before
        report["layers"] = layertrace.layer_metrics(tracer, len(todo), fields)
        report["unattributed_s"] = wall - sum(tracer.self_s.values())
        with open(os.path.join(workdir, "spans.jsonl"), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
        report["spans"] = len(tracer.spans)

print(json.dumps(report, separators=(",", ":")))
