"""Self-tests of the benchmark harness.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

1. A synthetic nested-call case on a fake clock pins the self-time
   arithmetic of the tracer, with and without the wrapper-cost correction.
2. The correctness gate passes the smoke cells and fails them once an
   artifact is tampered with.
3. Smoke mode: ``run.py --workload smoke`` runs one small cell of each
   workload, plain and traced; every metric it emits, with its unit, must
   be declared in BENCHMARK.json, and every declared metric emitted.
"""

import json
import os
import shutil
import subprocess
import sys

import layertrace
import run


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def work(self, seconds):
        self.t += seconds


def nested_case(inner_s=0.0, outer_s=0.0):
    clock = FakeClock()
    t = layertrace.Tracer(clock=clock, inner_s=inner_s, outer_s=outer_s)

    def c_leaf():
        clock.work(0.5)

    def b_mid():
        clock.work(3)
        leaf()
        clock.work(1)

    def a_inner():
        clock.work(4)

    def a_outer():
        clock.work(1)
        mid()
        clock.work(2)
        inner()  # same layer: counted, not timed apart from a_outer

    leaf = t.wrap(c_leaf, "c", "c.leaf", leaf=True)
    mid = t.wrap(b_mid, "b", "b.mid", leaf=False)
    inner = t.wrap(a_inner, "a", "a.inner", leaf=False)
    outer = t.wrap(a_outer, "a", "a.outer", leaf=False)
    outer()
    return t, clock


def test_self_time():
    t, clock = nested_case()
    assert clock.t == 11.5
    assert dict(t.self_s) == {"a": 7.0, "b": 4.0, "c": 0.5}, t.self_s
    assert sum(t.self_s.values()) == clock.t
    assert [t.count(n) for n in ("a.outer", "a.inner", "b.mid", "c.leaf")] == [1, 1, 1, 1]
    # spans only for timed non-leaf calls: a.outer and b.mid, b.mid inside a.outer
    assert t.spans == [("a.outer", "a", 0.0, 11.5, -1), ("b.mid", "b", 1.0, 5.5, 0)], t.spans

    # each timed frame loses the inner cost, and the outer cost once per timed child
    t, _ = nested_case(inner_s=0.125, outer_s=0.25)
    assert dict(t.self_s) == {"a": 7 - 0.125 - 0.25, "b": 4 - 0.125 - 0.25, "c": 0.5 - 0.125}, t.self_s


def test_group_time():
    clock = FakeClock()
    t = layertrace.Tracer(clock=clock)

    def singer_difference_set():
        clock.work(2)

    def singer_cycle():
        clock.work(1)
        sds()

    sds = t.wrap(singer_difference_set, "cycles", "cycles.singer_difference_set", leaf=False)
    sc = t.wrap(singer_cycle, "cycles", "cycles.singer_cycle", leaf=False)
    sc()
    sds()
    # nested group calls count once; same-layer nesting keeps the layer total
    assert t.group_s["cycles.singer_s"] == 5.0, t.group_s
    assert t.self_s["cycles"] == 5.0, t.self_s


def test_gate(root):
    with open(os.path.join(run.HERE, "expected", "smoke.json")) as fh:
        expected = json.load(fh)["cells"]
    work = os.path.join(root, run.WORK, "selftest")
    try:
        report = run.run_pass(root, "smoke", 0, work, "run")
        ok = run.Checker(expected)
        ok.check_pass(report, first=True)
        assert ok.failed == 0 and not ok.notes, ok.notes
        r = next(r for r in report["results"] if r["key"].startswith("cycle"))
        with open(r["out"]) as fh:
            doc = json.load(fh)
        doc["vertices"][0][1], doc["vertices"][1][1] = doc["vertices"][1][1], doc["vertices"][0][1]
        with open(r["out"], "w") as fh:
            json.dump(doc, fh)
        bad = run.Checker(expected)
        bad.check_pass(report, first=True)
        assert bad.failed == 1, bad.notes
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_smoke(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[section]}
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "smoke",
             "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, cwd=root,
        )
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
        assert res["correct"] and res["failed"] == 0, proc.stderr
        emitted = {name: m["unit"] for name, m in res["metrics"].items()}
        assert emitted == declared, (
            f"trace {trace}: undeclared {sorted(set(emitted) - set(declared))}, "
            f"missing {sorted(set(declared) - set(emitted))}, "
            f"units {[(n, u, declared.get(n)) for n, u in emitted.items() if declared.get(n) not in (None, u)]}"
        )


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    test_self_time()
    test_group_time()
    test_gate(root)
    test_smoke(root)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
