"""planegraphs benchmark: cold CLI runs over fixed cell lists.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass starts a fresh interpreter (perfbench/child.py) that imports
the package from ``src/`` of the checkout and hands every cell of the
workload, in an order fixed by the seed, to ``planegraphs.cli.main``: one
closed-loop caller in one process, so the package's caches start empty
and fill as they would for a user.  With ``--trace 0`` passes repeat until
``--seconds`` have passed, and at least three times; the end-to-end
metrics are medians over them.  With ``--trace 1`` one plain pass is
followed by one pass with every layer wrapped (perfbench/layertrace.py),
and the per-layer metrics come from that one.

After the timed passes, every cell of every pass is checked outside the
timed region against the outcomes recorded in perfbench/expected/ and
every artifact of the first pass is re-verified; artifacts must also be
byte-identical across passes and across runs of the same source tree.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cells  # noqa: E402
import gate  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 9
# Reported times are scaled to a host on which one round of
# child.reference takes this long.  The host this was tuned on (two shared
# vCPUs) changes speed by up to a quarter within minutes; the reference,
# timed next to every cell, changes with it, and the scaling takes about
# half of that spread out of the figures.
REF_NOMINAL_S = 350e-6
# reference rounds on each side of a cell that give its local speed
REF_WINDOW = 15
CHILD_TIMEOUT_S = 150
WORK = ".perfbench_work"


def src_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:20]


def git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        res = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return res.stdout.strip() or None


def run_pass(root: str, workload: str, seed: int, passdir: str, mode: str) -> dict:
    """One child interpreter; ``setup_s`` runs from its launch until its cells are built."""
    os.makedirs(passdir, exist_ok=True)
    argv = [sys.executable, "-I", os.path.join(HERE, "child.py"), root, workload, str(seed), passdir, mode]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["raw_setup_s"] = report["ready"] - t0
    report["setup_s"] = report["raw_setup_s"] * REF_NOMINAL_S / report["setup_ref_s"]
    return report


def scaled_cells(report: dict) -> list:
    """Each cell's time at the reference speed, from the reference rounds around it."""
    refs = [r["ref_s"] for r in report["results"]]
    return [
        r["s"] * REF_NOMINAL_S / statistics.median(refs[max(0, i - REF_WINDOW) : i + REF_WINDOW + 1])
        for i, r in enumerate(report["results"])
    ]


class Checker:
    """Counts cell executions and failed ones, with a note for each failure."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.bytes_of = {}
        self.first_of = {}

    def check_pass(self, report: dict, first: bool) -> None:
        keys = [r["key"] for r in report["results"]]
        if sorted(keys) != sorted(self.expected):
            self.notes.append("the pass ran another cell set than the recorded one")
        for r in report["results"]:
            self.attempted += 1
            why = self._check_cell(r, first)
            if why:
                self.failed += 1
                self.notes.append(f"{r['key']}: {why}")

    def _check_cell(self, r: dict, first: bool):
        key = r["key"]
        if r["error"] or r["rc"] != 0:
            return r["error"] or f"exit code {r['rc']}: {r['stderr'].strip()[-300:]}"
        has_file = os.path.exists(r["out"])
        try:
            seen = self.first_of.get(key)
            if seen is not None:
                # a later pass: same stdout and same artifact bytes as the first
                if r["stdout"] != seen["stdout"]:
                    return "stdout differs between passes"
                if has_file and gate.file_digest(r["out"]) != self.bytes_of.get(key):
                    return "artifact bytes differ between passes"
                return None
            got = gate.outcome(key, r["rc"], r["stdout"], r["out"])
            why = gate.reverify(key, r["out"]) if first and has_file and key.split()[0] != "hypj" else None
            if has_file:
                self.bytes_of[key] = gate.file_digest(r["out"])
        except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
            return f"unreadable result: {type(e).__name__}: {e}"
        self.first_of[key] = r
        if why:
            return why
        if got != self.expected.get(key):
            return f"outcome {got} != recorded {self.expected.get(key)}"
        return None

    def check_history(self, path: str) -> None:
        """Artifact digests must match every earlier run of the same source tree."""
        before = {}
        if os.path.exists(path):
            with open(path) as fh:
                before = json.load(fh)
        for key, d in self.bytes_of.items():
            if before.get(key, d) != d:
                self.failed += 1
                self.notes.append(f"{key}: artifact bytes differ from an earlier run of this source")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump({**before, **self.bytes_of}, fh, sort_keys=True)
        os.replace(tmp, path)


def measure(root: str, workload: str, seed: int, seconds: float, trace: bool, work: str) -> tuple:
    """Runs the passes; returns (timed pass reports, traced pass report or None, setup samples)."""
    if trace:
        plain = run_pass(root, workload, seed, os.path.join(work, "pass0"), "run")
        return [plain], run_pass(root, workload, seed, os.path.join(work, "traced"), "trace"), []
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        passes.append(run_pass(root, workload, seed, os.path.join(work, f"pass{len(passes)}"), "run"))
    # set-up is short and noisy: sample it more often than the passes run
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(root, workload, seed, os.path.join(work, "setup"), "setup")["setup_s"])
    return passes, None, setups


def end_to_end(passes: list, setups: list, ok_frac: float) -> dict:
    per_pass = [scaled_cells(p) for p in passes]
    durs = [d for cells_s in per_pass for d in cells_s]
    return {
        "wall_s": {"value": statistics.median(sum(d) for d in per_pass), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "cell_p50_ms": {"value": statistics.median(durs) * 1e3, "unit": "ms"},
        "cell_p90_ms": {"value": statistics.quantiles(durs, n=10, method="inclusive")[8] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
        "ok_frac": {"value": ok_frac, "unit": "ratio"},
    }


# unit by name suffix, first match wins; anything else is a count
LAYER_UNITS = (("_per_s", "1/s"), ("_ns", "ns"), ("_s", "s"), ("_ratio", "ratio"), ("_bytes", "bytes"))


def per_layer(plain: dict, traced: dict) -> dict:
    m = dict(traced["layers"])
    m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    m["trace.unattributed_s"] = traced["unattributed_s"]
    m["trace.wrapper_ns"] = traced["wrapper_ns"]
    out = {}
    for name, value in m.items():
        unit = next((u for suffix, u in LAYER_UNITS if name.endswith(suffix)), "count")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=cells.WORKLOADS + ("smoke",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "planegraphs", "__init__.py")):
        print(f"error: no planegraphs package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import planegraphs

    if not os.path.abspath(planegraphs.__file__).startswith(src + os.sep):
        print(f"error: planegraphs resolves to {planegraphs.__file__}, not to {src}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected", f"{args.workload}.json")) as fh:
        expected = json.load(fh)["cells"]

    tree = src_digest(src)
    work = os.path.join(root, WORK, f"run-{os.getpid()}")
    try:
        passes, traced, setups = measure(root, args.workload, args.seed, args.seconds, bool(args.trace), work)
        checker = Checker(expected)
        for i, p in enumerate(passes + ([traced] if traced else [])):
            checker.check_pass(p, first=i == 0)
        checker.check_history(os.path.join(root, WORK, "digests", tree, f"{args.workload}.json"))
        if traced is not None:
            shutil.copy(os.path.join(work, "traced", "spans.jsonl"),
                        os.path.join(root, WORK, f"spans-{args.workload}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = checker.attempted, min(checker.failed, checker.attempted)
    for note in checker.notes[:20]:
        print(f"FAIL {note}", file=sys.stderr)
    if traced is not None:
        metrics = per_layer(passes[0], traced)
    else:
        metrics = end_to_end(passes, setups, 1 - failed / attempted)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "package_version": planegraphs.__version__,
        "src_digest": tree,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_host_speed": [REF_NOMINAL_S / statistics.median(r["ref_s"] for r in p["results"]) for p in passes],
        "raw_setup_s": statistics.median(p["raw_setup_s"] for p in passes),
        "setup_samples": len(setups),
    }
    print(json.dumps({"provenance": provenance}, separators=(",", ":")))
    print(json.dumps({"correct": not checker.notes, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
