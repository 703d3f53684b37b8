"""Record the expected outcome of every cell, from the current source tree.

Usage, from the root of a checkout:  python3 perfbench/record.py

Writes perfbench/expected/<workload>.json.  Run it only on a commit whose
outputs are known to be right; the benchmark compares every later run
against these files.  Every artifact must re-verify before it is recorded.
"""

import json
import os
import shutil
import sys

import cells
import gate
import run


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(os.path.join(run.HERE, "expected"), exist_ok=True)
    commit = run.git_commit(root)
    for workload in cells.WORKLOADS + ("smoke",):
        work = os.path.join(root, run.WORK, f"record-{workload}")
        try:
            report = run.run_pass(root, workload, 0, work, "run")
            recorded = {}
            for r in report["results"]:
                if r["rc"] != 0 or r["error"]:
                    raise SystemExit(f"{r['key']}: {r['error'] or r['rc']}")
                if os.path.exists(r["out"]) and r["key"].split()[0] != "hypj":
                    why = gate.reverify(r["key"], r["out"])
                    if why:
                        raise SystemExit(f"{r['key']}: {why}")
                recorded[r["key"]] = gate.outcome(r["key"], r["rc"], r["stdout"], r["out"])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        compact = {"separators": (",", ":"), "sort_keys": True}
        rows = ",\n".join(f"{json.dumps(k)}:{json.dumps(v, **compact)}" for k, v in sorted(recorded.items()))
        with open(os.path.join(run.HERE, "expected", f"{workload}.json"), "w") as fh:
            fh.write(f'{{"source_commit":{json.dumps(commit)},"python":"{sys.version.split()[0]}","cells":{{\n{rows}\n}}}}\n')
        print(f"{workload}: {len(recorded)} cells recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
