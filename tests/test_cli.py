"""End-to-end command line checks, run in process through main()."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import planegraphs
from planegraphs.cli import main
from planegraphs.gf import MAX_ORDER
from planegraphs.cycles import ag_cycle
from planegraphs.graphs import embedding_to_json


SRC = str(Path(planegraphs.__file__).parents[1])


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_field_info(capsys):
    rc, out, _ = run(capsys, "field", "info", "--q", "9")
    assert rc == 0
    doc = json.loads(out)
    assert doc["q"] == 9 and doc["p"] == 3 and doc["a"] == 2
    assert doc["modulus"] == [1, 0, 1]


def test_field_rejects_non_prime_power(capsys):
    rc, _, err = run(capsys, "field", "info", "--q", "6")
    assert rc == 2
    assert "prime power" in err


def test_plane_round_trip_and_tamper(tmp_path, capsys):
    f = tmp_path / "pg4.json"
    rc, _, _ = run(capsys, "plane", "export", "--q", "4", "--out", str(f))
    assert rc == 0
    rc, out, _ = run(capsys, "plane", "check", str(f))
    assert rc == 0

    g = tmp_path / "pg4b.json"
    rc, _, _ = run(capsys, "plane", "export", "--q", "4", "--out", str(g))
    assert rc == 0
    assert f.read_bytes() == g.read_bytes()

    doc = json.loads(f.read_text())
    doc["lines"][0][0] = doc["lines"][0][1]
    f.write_text(json.dumps(doc))
    rc, _, _ = run(capsys, "plane", "check", str(f))
    assert rc == 1


def test_cycle_single_and_verify(tmp_path, capsys):
    f = tmp_path / "c7.json"
    rc, out, _ = run(capsys, "cycle", "--q", "4", "--k", "7", "--out", str(f))
    assert rc == 0 and "verified" in out
    rc, out, _ = run(capsys, "verify", str(f))
    assert rc == 0 and out.startswith("pass:")


def test_cycle_singer_rung(tmp_path, capsys):
    f = tmp_path / "c13.json"
    rc, _, _ = run(capsys, "cycle", "--q", "3", "--k", "13", "--plane", "pg", "--out", str(f))
    assert rc == 0
    assert json.loads(f.read_text())["plane"]["model"] == "CYCLIC"
    rc, out, _ = run(capsys, "verify", str(f))
    assert rc == 0 and out.startswith("pass:")


def test_cycle_sweep(tmp_path, capsys):
    d = tmp_path / "sweep"
    rc, out, _ = run(capsys, "cycle", "sweep", "--q", "2", "--plane", "ag",
                     "--out-dir", str(d))
    assert rc == 0
    assert (d / "c3.json").exists() and (d / "c4.json").exists()
    assert "2 cycles" in out


def test_cycle_sweep_derives_each_line_once(tmp_path, capsys, monkeypatch):
    # the shared plane memoises its lines: one derivation per unordered pair
    from collections import Counter

    import planegraphs.plane as plane_mod

    monkeypatch.setattr(plane_mod, "_line_memo", {})  # no lines from earlier tests
    pairs = Counter()
    real = plane_mod.line_through

    def spy(spec, P, Q):
        pairs[frozenset((P, Q))] += 1
        return real(spec, P, Q)

    monkeypatch.setattr(plane_mod, "line_through", spy)
    rc, out, _ = run(capsys, "cycle", "sweep", "--q", "16", "--plane", "pg",
                     "--out-dir", str(tmp_path))
    assert rc == 0 and "271 cycles" in out
    assert pairs and max(pairs.values()) == 1
    assert len(plane_mod._line_memo) == len(pairs)  # each derived line is remembered


def test_cycle_bad_range(capsys):
    rc, _, _ = run(capsys, "cycle", "--q", "4", "--k", "100")
    assert rc == 2


def test_wheel_artifact(tmp_path, capsys):
    f = tmp_path / "w.json"
    rc, out, _ = run(capsys, "wheel", "--q", "5", "--n", "4", "--out", str(f))
    assert rc == 0 and "ARC" in out
    rc, out, _ = run(capsys, "verify", str(f))
    assert rc == 0 and out.startswith("pass:")
    g = tmp_path / "w2.json"
    rc, _, _ = run(capsys, "wheel", "--q", "5", "--n", "4", "--out", str(g))
    assert rc == 0
    assert f.read_bytes() == g.read_bytes()


def test_wheel_exit_codes(capsys):
    rc, _, err = run(capsys, "wheel", "--q", "3", "--n", "4")
    assert rc == 1 and err.startswith("fail:")
    rc, _, _ = run(capsys, "wheel", "--q", "4", "--n", "6")
    assert rc == 2
    rc, _, _ = run(capsys, "wheel", "--q", "6", "--n", "3")
    assert rc == 2


def test_gear_artifact_and_sweep(tmp_path, capsys):
    f = tmp_path / "g.json"
    rc, out, _ = run(capsys, "gear", "--q", "5", "--n", "3", "--out", str(f))
    assert rc == 0 and "FROM_WHEEL" in out
    rc, out, _ = run(capsys, "verify", str(f))
    assert rc == 0 and out.startswith("pass:")
    rc, out, _ = run(capsys, "gear", "sweep", "--q-max", "7")
    assert rc == 0
    assert "FROM_WHEEL" in out and "ORACLE" in out


def test_gear_exit_codes(capsys):
    rc, _, _ = run(capsys, "gear", "--q", "2", "--n", "3")
    assert rc == 1
    rc, _, _ = run(capsys, "gear", "--q", "5", "--n", "7")
    assert rc == 2


@pytest.mark.parametrize("argv,name,last", [
    ("cycle --q 4 --k 5", "cycle_ag_q4_k5.json", "C_5 in ag:4 verified -> cycle_ag_q4_k5.json"),
    ("cycle --q 4 --k 5 --plane pg", "cycle_pg_q4_k5.json",
     "C_5 in pg:4 verified -> cycle_pg_q4_k5.json"),
    ("wheel --q 5 --n 4", "wheel_q5_n4.json", "W_4 in pg:5 via ARC -> wheel_q5_n4.json"),
    ("gear --q 5 --n 3", "gear_q5_n3.json", "G_3 in pg:5 via FROM_WHEEL -> gear_q5_n3.json"),
    ("cycle sweep --q 2", "cycle_sweep_ag_q2", "2 cycles -> cycle_sweep_ag_q2"),
    ("oracle --graph cycle:3 --plane pg:2", "oracle_embedding.json",
     '{"status":"found","expansions":3,"out":"oracle_embedding.json"}'),
])
def test_default_output_names(argv, name, last, tmp_path, monkeypatch, capsys):
    # with no --out or --out-dir, each command names its artifact itself
    monkeypatch.chdir(tmp_path)
    rc, out, _ = run(capsys, *argv.split())
    assert rc == 0 and out.splitlines()[-1] == last
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_wheel_has_no_sweep_mode(capsys):
    with pytest.raises(SystemExit) as e:
        main(["wheel", "sweep", "--q", "5", "--n", "3"])
    assert e.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: sweep\n")


def test_oracle_statuses(tmp_path, capsys):
    f = tmp_path / "g4.json"
    rc, out, _ = run(capsys, "oracle", "--graph", "gear:4", "--plane", "pg:3",
                     "--out", str(f))
    assert rc == 0
    assert json.loads(out)["status"] == "found"
    rc, out, _ = run(capsys, "verify", str(f))
    assert rc == 0 and out.startswith("pass:")

    rc, out, _ = run(capsys, "oracle", "--graph", "wheel:4", "--plane", "pg:3")
    assert rc == 0
    assert json.loads(out)["status"] == "notfound"

    rc, out, _ = run(capsys, "oracle", "--graph", "cycle:13", "--plane", "pg:3",
                     "--budget", "5")
    assert rc == 0
    assert json.loads(out)["status"] == "budget"


def test_oracle_cyclic_remap(tmp_path, capsys):
    f = tmp_path / "c7.json"
    rc, out, _ = run(capsys, "oracle", "--graph", "cycle:7", "--plane", "cyclic:2",
                     "--out", str(f))
    assert rc == 0
    assert json.loads(out)["status"] == "found"
    assert json.loads(f.read_text())["plane"]["model"] == "CYCLIC"
    rc, out, _ = run(capsys, "verify", str(f))
    assert rc == 0 and out.startswith("pass:")


def test_oracle_generic_plane_file(tmp_path, capsys):
    plane_file = tmp_path / "pg2.json"
    rc, _, _ = run(capsys, "plane", "export", "--q", "2", "--out", str(plane_file))
    assert rc == 0
    f = tmp_path / "c3.json"
    rc, out, _ = run(capsys, "oracle", "--graph", "cycle:3", "--plane", str(plane_file),
                     "--out", str(f))
    assert rc == 0
    assert json.loads(out)["status"] == "found"
    rc, _, _ = run(capsys, "verify", str(f))
    assert rc == 2  # generic model requires the plane file
    rc, out, _ = run(capsys, "verify", str(f), "--plane", str(plane_file))
    assert rc == 0 and out.startswith("pass:")


def test_malformed_files_exit_two(tmp_path, capsys):
    f = tmp_path / "c5.json"
    assert run(capsys, "cycle", "--q", "5", "--k", "5", "--out", str(f))[0] == 0
    good = json.loads(f.read_text())
    damaged = {
        "vertices": dict(good, vertices=[1, 2, 3]),
        "k": dict(good, graph={"kind": "CYCLE", "k": "x"}),
        "plane": dict(good, plane="PG"),
        "image": dict(good, vertices=[[0, [1, 2]]] + good["vertices"][1:]),
    }
    # JSON true and 1.0 equal the id 1 in Python, but no id is anything but an integer
    v, e = good["vertices"], good["edges"]
    for one in (True, 1.0):
        damaged[f"vertex_{one}"] = dict(good, vertices=[v[0], [one, v[1][1]]] + v[2:])
        damaged[f"endpoint_{one}"] = dict(good, edges=[[[0, one], e[0][1]]] + e[1:])
    for name, doc in damaged.items():
        bad = tmp_path / f"bad_{name}.json"
        bad.write_text(json.dumps(doc))
        rc, _, err = run(capsys, "verify", str(bad))
        assert rc == 2 and "cannot read embedding" in err, name

    p = tmp_path / "pg3.json"
    assert run(capsys, "plane", "export", "--q", "3", "--out", str(p))[0] == 0
    text = p.read_text()
    doc = json.loads(text)
    doc["lines"][0][0] = "x"
    for name, body in (("truncated", text[: len(text) // 2]), ("nonint", json.dumps(doc))):
        bad = tmp_path / f"plane_{name}.json"
        bad.write_text(body)
        rc, _, err = run(capsys, "plane", "check", str(bad))
        assert rc == 2 and "cannot read plane" in err, name

    # the same rule for graph files: 1.5 is no index, -1 would index the last
    # vertex (a false notfound), and true would pass as vertex 1
    for edges in ([[0, 1.5]], [[0, -1], [-1, 2], [0, 2]], [[0, True], [True, 2], [0, 2]]):
        g = tmp_path / "graph.json"
        g.write_text(json.dumps({"kind": "EDGE_LIST", "edges": edges}))
        rc, _, err = run(capsys, "oracle", "--graph", str(g), "--plane", "pg:2",
                         "--out", str(tmp_path / "o.json"))
        assert rc == 2 and "is not an integer >= 0" in err, edges

    bad = tmp_path / "bad_order.json"
    bad.write_text(json.dumps(dict(good, plane={"model": "AG", "q": 6})))
    rc, _, err = run(capsys, "verify", str(bad))
    assert rc == 2 and "cannot read plane" in err

    # lines that name points past "points": listed by plane check, refused
    # by the commands that hand the plane to the search or the verifier
    bad = tmp_path / "plane_range.json"
    bad.write_text(json.dumps(dict(json.loads(text), points=5)))
    rc, out, _ = run(capsys, "plane", "check", str(bad))
    assert rc == 1 and "references point 5 outside 0..4" in out
    rc, _, err = run(capsys, "oracle", "--graph", "cycle:4", "--plane", str(bad))
    assert rc == 2 and "outside 0..4" in err
    c3 = tmp_path / "c3.json"
    assert run(capsys, "oracle", "--graph", "cycle:3", "--plane", str(p), "--out", str(c3))[0] == 0
    assert [img for _, img in json.loads(c3.read_text())["vertices"]] == [0, 1, 4]
    rc, _, err = run(capsys, "verify", str(c3), "--plane", str(bad))
    assert rc == 2 and "cannot read plane" in err

    # two points on two lines, here a repeated line: listed by plane check,
    # refused by the search and the verifier; an affine plane file, which
    # fails the projective axioms but has one line per pair, is still searched
    bad = tmp_path / "plane_dup.json"
    lines = json.loads(text)["lines"]
    bad.write_text(json.dumps(dict(json.loads(text), lines=[lines[0]] + lines[:1] + lines[2:])))
    rc, out, _ = run(capsys, "plane", "check", str(bad))
    assert rc == 1 and "line 1 duplicates line 0" in out
    rc, _, err = run(capsys, "oracle", "--graph", "cycle:4", "--plane", str(bad))
    assert rc == 2 and "on two lines" in err
    rc, _, err = run(capsys, "verify", str(c3), "--plane", str(bad))
    assert rc == 2 and "on two lines" in err

    # a JSON boolean is no point id; a line that names a point twice is
    # listed by plane check, without a false pair, and refused by the others
    pg2 = tmp_path / "pg2.json"
    assert run(capsys, "plane", "export", "--q", "2", "--out", str(pg2))[0] == 0
    for first, rc_check, why in (([True, 1, 2], 2, "not a list of point ids"),
                                 ([0, 1, 2, 0], 1, "repeats point 0")):
        doc = json.loads(pg2.read_text())
        doc["lines"][0] = first
        bad = tmp_path / "plane_first.json"
        bad.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "plane", "check", str(bad))
        assert rc == rc_check and why in out + err and "common lines" not in out, first
        rc, _, err = run(capsys, "oracle", "--graph", "wheel:3", "--plane", str(bad))
        assert rc == 2 and why in err, first
        rc, _, err = run(capsys, "verify", str(c3), "--plane", str(bad))
        assert rc == 2 and why in err, first
    ag3 = tmp_path / "ag3.json"
    assert run(capsys, "plane", "export", "--q", "3", "--model", "ag", "--out", str(ag3))[0] == 0
    assert run(capsys, "plane", "check", str(ag3))[0] == 1
    rc, out, _ = run(capsys, "oracle", "--graph", "cycle:9", "--plane", str(ag3),
                     "--out", str(tmp_path / "c9.json"))
    assert rc == 0 and json.loads(out)["status"] == "found"

    # a plane order that is not an integer >= 2, the rule embedding files follow
    for q in ("x", 1, 2.0, None):
        bad = tmp_path / "plane_order.json"
        bad.write_text(json.dumps(dict(json.loads(text), q=q)))
        rc, _, err = run(capsys, "plane", "check", str(bad))
        assert rc == 2 and "bad plane order" in err, q
        rc, _, err = run(capsys, "oracle", "--graph", "cycle:3", "--plane", str(bad))
        assert rc == 2 and "bad plane order" in err, q
        rc, _, err = run(capsys, "verify", str(c3), "--plane", str(bad))
        assert rc == 2 and "bad plane order" in err, q


def test_plane_file_declaring_more_points_than_it_lists_exits_two(tmp_path, capsys):
    # refused before anything is built per point, so that memory stays
    # bounded by the file's size
    pg2 = tmp_path / "pg2.json"
    assert run(capsys, "plane", "export", "--q", "2", "--out", str(pg2))[0] == 0
    c3 = tmp_path / "c3.json"
    assert run(capsys, "oracle", "--graph", "cycle:3", "--plane", str(pg2),
               "--out", str(c3))[0] == 0
    bad = tmp_path / "plane_points.json"
    bad.write_text(json.dumps(dict(json.loads(pg2.read_text()), points=200_000)))
    why = "points 200000 exceeds the 21 point ids the lines list"
    for argv in (["plane", "check", str(bad)],
                 ["oracle", "--graph", "cycle:3", "--plane", str(bad)],
                 ["verify", str(c3), "--plane", str(bad)]):
        rc, _, err = run(capsys, *argv)
        assert rc == 2 and why in err, argv


_C6_AG4 = json.loads(embedding_to_json(ag_cycle(4, 6)))

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)


def _slots(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _slots(child, path + (key,))


@given(data=st.data())
def test_damaged_embedding_never_crashes_verify(tmp_path_factory, data):
    doc = json.loads(json.dumps(_C6_AG4))
    path = data.draw(st.sampled_from(list(_slots(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(_JSON)
    f = tmp_path_factory.mktemp("damage") / "e.json"
    f.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(["verify", str(f)])
    assert rc in (0, 1, 2)


def test_verify_catches_tampering(tmp_path, capsys):
    f = tmp_path / "w.json"
    rc, _, _ = run(capsys, "wheel", "--q", "4", "--n", "3", "--out", str(f))
    assert rc == 0
    doc = json.loads(f.read_text())
    doc["vertices"][1][1] = doc["vertices"][2][1]
    f.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "verify", str(f))
    assert rc in (1, 2)


def test_verify_refuses_a_point_off_the_plane(tmp_path, capsys):
    # a point at infinity is no point of AG(2,3): refused as a non-embedding
    f = tmp_path / "c.json"
    rc, _, _ = run(capsys, "cycle", "--q", "3", "--k", "5", "--out", str(f))
    assert rc == 0
    doc = json.loads(f.read_text())
    doc["vertices"][0][1] = [0, 1, 0]
    f.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "verify", str(f))
    assert (rc, out) == (1, "")
    assert err.startswith("fail: not an embedding in this plane")


def test_hypj_single_lines(capsys):
    rc, out, _ = run(capsys, "hypj", "--q", "5")
    assert rc == 0
    assert out.strip() == '{"q":5,"route":"ODD_GAMMA","alpha":2,"gamma":3,"ord":4}'
    rc, out, _ = run(capsys, "hypj", "--q", "3")
    assert rc == 0
    assert out.strip() == '{"q":3,"route":"NOT_FOUND"}'
    rc, _, _ = run(capsys, "hypj", "--q", "6")
    assert rc == 2


def test_hypj_sweep_jobs_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    rc, out, _ = run(capsys, "hypj", "sweep", "--min", "4", "--max", "200",
                     "--jobs", "1", "--out", str(a))
    assert rc == 0 and "not found: none" in out
    rc, _, _ = run(capsys, "hypj", "sweep", "--min", "4", "--max", "200",
                   "--jobs", "2", "--out", str(b))
    assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) == 58  # prime powers in [4, 200]
    assert lines[0].startswith('{"q":4,')


def test_hypj_sweep_caps_its_pool(monkeypatch, capsys):
    # the pool forks all its workers at once, so it gets no more than the
    # cores or the 64-order chunks; one chunk runs serially, without a pool
    import concurrent.futures

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    def sweep(top, jobs):
        rc, out, _ = run(capsys, "hypj", "sweep", "--min", "4", "--max", str(top),
                         "--jobs", str(jobs))
        assert rc == 0
        return out

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    serial = {top: sweep(top, 1) for top in (200, 400, 1000)}  # 58, 95, 191 orders
    assert sizes == []
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    for top in (200, 400, 1000):
        assert sweep(top, 100000) == serial[top]
    assert sizes == [2, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert sweep(1000, 100000) == serial[1000]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert sweep(1000, 100000) == serial[1000]
    assert sizes == [2, 3, 2]


def test_hypj_sweep_pool_matches_serial(tmp_path, capsys):
    # two chunks, so that --jobs 2 runs a real pool where there are two cores
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for jobs, out in (("1", a), ("2", b)):
        rc, _, _ = run(capsys, "hypj", "sweep", "--min", "4", "--max", "400",
                       "--jobs", jobs, "--out", str(out))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 95


def test_hypj_sweep_includes_q3_not_found(capsys):
    rc, out, _ = run(capsys, "hypj", "sweep", "--min", "3", "--max", "10")
    assert rc == 0
    assert '{"q":3,"route":"NOT_FOUND"}' in out
    assert "not found: [3]" in out


def test_hypj_sweep_primes_only(tmp_path, capsys):
    # the prime orders of the window, each row as the unfiltered sweep writes it
    full, primes = tmp_path / "full.txt", tmp_path / "primes.txt"
    rc, _, _ = run(capsys, "hypj", "sweep", "--min", "3", "--max", "400", "--out", str(full))
    assert rc == 0
    rc, out, _ = run(capsys, "hypj", "sweep", "--min", "3", "--max", "400",
                     "--primes-only", "--out", str(primes))
    assert rc == 0
    want = [q for q in range(3, 401) if all(q % d for d in range(2, q))]
    rows = primes.read_text().splitlines()
    assert [json.loads(r)["q"] for r in rows] == want
    every = full.read_text().splitlines()
    assert len(every) > len(rows)
    assert rows == [r for r in every if json.loads(r)["q"] in want]
    assert out == f"{len(want)} prime powers, {len(want) - 1} certificates, not found: [3]\n"


def test_negative_budget_exits_two(capsys):
    rc, out, err = run(capsys, "oracle", "--graph", "cycle:3", "--plane", "pg:2", "--budget", "-3")
    assert rc == 2 and out == "" and "--budget -3" in err
    rc, out, _ = run(capsys, "oracle", "--graph", "cycle:3", "--plane", "pg:2", "--budget", "0")
    assert rc == 0 and json.loads(out) == {"status": "budget", "expansions": 0}


def test_hypj_sweep_jobs_below_one_exits_two(tmp_path, capsys):
    # refused before --out is opened, like a negative budget
    out = tmp_path / "certs.txt"
    for jobs in ("0", "-2"):
        rc, stdout, err = run(capsys, "hypj", "sweep", "--max", "20", "--jobs", jobs, "--out", str(out))
        assert rc == 2 and stdout == "" and err == f"error: --jobs {jobs} is below 1\n"
    assert not out.exists()


def test_gear_sweep_bound_exits_two(capsys):
    # refused before any work: above the bound, the sweep's prime sieve alone
    # would allocate q_max bytes
    rc, out, err = run(capsys, "gear", "sweep", "--q-max", str(MAX_ORDER + 1))
    assert rc == 2 and out == ""
    assert "exceeds supported bound" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["field", "info", "--q", "1000000000000000003"],
        ["oracle", "--graph", "cycle:3", "--plane", "pg:1000000000000000003"],
    ],
    ids=["field", "oracle"],
)
def test_huge_order_refused_at_once(argv, tmp_path):
    # a huge prime order is compared with the bound, not factorised
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "planegraphs.cli", *argv],
        capture_output=True, text=True, timeout=10, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2
    assert "exceeds supported bound" in proc.stderr


@pytest.mark.parametrize("ref", ["cycle", "wheel", "gear"])
def test_oracle_builds_no_graph_larger_than_the_plane(ref, tmp_path):
    # far beyond any buildable size; the child's address space is capped, so
    # a graph built anyway fails this test instead of exhausting memory
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "planegraphs.cli", "oracle", "--graph", f"{ref}:{10**15}",
         "--plane", "pg:2"],
        capture_output=True, text=True, timeout=10, cwd=tmp_path, preexec_fn=cap,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stdout) == (0, '{"status":"notfound","expansions":0}\n')


def test_unknown_graph_ref(capsys):
    rc, _, _ = run(capsys, "oracle", "--graph", "torus:4", "--plane", "pg:2")
    assert rc == 2


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_unrecognized_argument_is_the_commands_usage_error(capsys):
    # a command's argv goes to its own parser, so the error is in its words
    with pytest.raises(SystemExit) as e:
        main(["cycle", "--q", "4", "--k", "5", "--bogus"])
    err = capsys.readouterr().err
    assert e.value.code == 2
    assert err.startswith("usage: planegraphs cycle ")
    assert err.endswith("planegraphs cycle: error: unrecognized arguments: --bogus\n")


def test_one_process_builds_one_parser(monkeypatch, capsys):
    import argparse

    built = []
    real = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(1) or real(self, *a, **kw))
    counts = []
    for _ in range(2):
        del built[:]
        assert run(capsys, "field", "info", "--q", "9")[0] == 0
        counts.append(len(built))
    assert counts[1] == 0


# one cell of each command, and each way main ends: by its return code, by
# argparse's usage error (SystemExit 2) and by --help (SystemExit 0)
MIXED_CELLS = [
    ["cycle", "--q", "3", "--k", "5", "--out", "c.json"],
    ["wheel", "--q", "4", "--n", "5", "--out", "w.json"],
    ["gear", "--q", "5", "--n", "4", "--out", "g.json"],
    ["oracle", "--graph", "cycle:5", "--plane", "pg:2", "--out", "o.json"],
    ["hypj", "sweep", "--max", "30", "--out", "h.jsonl"],
    ["verify", "c.json"],
    ["wheel", "--q", "3"],
    ["--help"],
    ["cycle", "--q", "6", "--k", "3"],
    ["wheel", "--q", "3", "--n", "4"],
]


def test_main_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    # the same cells twice in one process, each round in its own directory
    rounds = []
    for r in range(2):
        (tmp_path / str(r)).mkdir()
        monkeypatch.chdir(tmp_path / str(r))
        seen = []
        for argv in MIXED_CELLS:
            try:
                rc = main(argv)
            except SystemExit as e:
                rc = f"exit {e.code}"
            out = capsys.readouterr()
            seen.append((rc, out.out, out.err))
        files = {p.name: p.read_bytes() for p in sorted(Path().iterdir())}
        rounds.append((seen, files))
    assert rounds[0] == rounds[1]
    seen, files = rounds[0]
    assert [rc for rc, _, _ in seen] == [0, 0, 0, 0, 0, 0, "exit 2", "exit 0", 2, 1]
    assert sorted(files) == ["c.json", "g.json", "h.jsonl", "o.json", "w.json"]


@pytest.mark.parametrize("argv,work", [
    (["gear", "sweep", "--q-max", "3", "--out", "nod/x.txt"], "gear_plan"),
    (["hypj", "sweep", "--max", "100", "--out", "nod/x.txt"], "hypothesis_j_search"),
])
def test_sweep_opens_its_out_file_first(argv, work, tmp_path, monkeypatch, capsys):
    # an unusable output path is refused before any cell of the sweep runs
    import planegraphs.cli as cli

    calls = []
    real = getattr(cli, work)
    monkeypatch.setattr(cli, work, lambda *a: calls.append(a) or real(*a))
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv)
    assert (rc, out, calls) == (2, "", [])
    assert err.startswith("error: [Errno 2] ")


def _run_capped(argv, cwd, timeout=10):
    # the child's address space is capped, so that a graph or vertex range
    # built anyway fails the calling test instead of exhausting memory
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "planegraphs.cli", *argv], capture_output=True, text=True,
        timeout=timeout, cwd=cwd, preexec_fn=cap, env={**os.environ, "PYTHONPATH": path},
    )


_HUGE_GRAPHS = {
    "cycle": {"kind": "CYCLE", "k": 10**15},
    "wheel": {"kind": "WHEEL", "n": 10**15},
    "gear": {"kind": "GEAR", "n": 10**15},
    "edge_list": {"kind": "EDGE_LIST", "vertices": 10**15, "edges": []},
}


@pytest.mark.parametrize("name", sorted(_HUGE_GRAPHS))
def test_declared_size_is_checked_before_the_graph_is_built(name, tmp_path):
    # graph files far beyond any buildable size
    doc = _HUGE_GRAPHS[name]
    (tmp_path / "g.json").write_text(json.dumps(doc))
    emb = {"plane": {"model": "PG", "q": 2}, "graph": doc, "vertices": [], "edges": []}
    (tmp_path / "e.json").write_text(json.dumps(emb))
    proc = _run_capped(["oracle", "--graph", "g.json", "--plane", "pg:2"], tmp_path)
    assert (proc.returncode, proc.stdout) == (0, '{"status":"notfound","expansions":0}\n')
    proc = _run_capped(["verify", "e.json"], tmp_path)
    assert (proc.returncode, proc.stderr) == (
        2, "error: cannot read embedding: vertex list must cover 0..n-1 exactly once\n")


def test_plane_check_decides_a_large_near_pencil_at_once(tmp_path):
    # point 0 off a line through the other 999: the quadrangle rule reads
    # line sizes, where a search of 4-subsets from point 0 takes minutes
    n = 1000
    lines = [list(range(1, n))] + [[0, p] for p in range(1, n)]
    (tmp_path / "np.json").write_text(json.dumps({"q": 2, "points": n, "lines": lines}))
    proc = _run_capped(["plane", "check", "np.json"], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "  no quadrangle: every 4-point subset has 3 collinear points\n" in proc.stdout


def test_plane_check_passes_pg_64_in_seconds(tmp_path):
    # 4,161 points and lines: the check scans each line's points and pencils
    # once, where a pass over every point pair and line pair takes seconds more
    from planegraphs.plane import pg_from_field, save_plane

    save_plane(pg_from_field(64).to_generic(), tmp_path / "pg64.json")
    proc = _run_capped(["plane", "check", "pg64.json"], tmp_path, timeout=6)
    assert (proc.returncode, proc.stdout) == (
        0, "pass: 4161 points, 4161 lines, line size 65, 0 violations\n"), proc.stderr


@pytest.mark.parametrize("plane", ["pg:256", "ag:1024", "cyclic:101"])
def test_search_refuses_a_large_coordinate_plane_before_building_it(plane, tmp_path):
    # the id view and incidence index of PG(2,256) took minutes to build, the
    # index of the cyclic model of PG(2,101) over 2 s and 178 MB on 2 vCPUs
    proc = _run_capped(["oracle", "--graph", "cycle:3", "--plane", plane], tmp_path)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error: exhaustive search refuses "), proc.stderr


def test_pg_sweep_refuses_its_top_rung_before_making_its_directory(tmp_path):
    # C_N of PG(2,103) needs GF(103^3), past the field bound: the sweep must
    # refuse before it writes any of C_3..C_{N-1}, about 2 GB of files
    proc = _run_capped(["cycle", "sweep", "--q", "103", "--plane", "pg"], tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: field order {103 ** 3} exceeds supported bound {MAX_ORDER}\n"
    assert list(tmp_path.iterdir()) == []
