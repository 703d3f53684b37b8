"""Exhaustive search verdicts on small planes.

The found/notfound verdicts below are regression pins: each was confirmed
by an independent brute-force enumeration outside this package before
being frozen here.
"""

import hashlib
import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracle_reference import plain_search
from planegraphs.cycles import ag_cycle, cyclic_plane, pg_cycle
from planegraphs.graphs import (
    ImpossibleDegree,
    cycle_graph,
    edge_list_graph,
    gear_graph,
    verify_embedding,
    wheel_graph,
)
from planegraphs.oracle import DEFAULT_BUDGET, _search, exists_embedding, pancyclicity_table
from planegraphs.plane import GenericPlane, ag_from_field, pg_from_field
from planegraphs.wheelgear import ConstructionFailed, gear_plan, wheel_plan


def _pg(q):
    return pg_from_field(q).to_generic()


def test_no_gear_in_order_two():
    plane = _pg(2)
    res = exists_embedding(gear_graph(3), plane)
    assert res.status == "notfound"
    assert res.expansions == 0  # 7 vertices need 9 distinct lines; only 7 exist
    for n in (4, 5):
        assert exists_embedding(gear_graph(n), plane).status == "notfound"


def test_small_gears_found():
    assert exists_embedding(gear_graph(3), _pg(3)).status == "found"
    plane4 = _pg(4)
    for n in (3, 4, 5):
        assert exists_embedding(gear_graph(n), plane4).status == "found"


def test_gear_four_in_order_three_exists():
    # an exhaustive check disproves the folklore that G_4 needs order >= 4:
    # nine points and twelve distinct joining lines fit inside PG(2,3)
    plane = _pg(3)
    res = exists_embedding(gear_graph(4), plane)
    assert res.status == "found"
    rep = verify_embedding(gear_graph(4), res.embedding, plane)
    assert rep.ok, rep.violations


def test_wheel_four_in_order_three_impossible():
    # the tight odd case fails at q=3: W_4 has no room in PG(2,3)
    res = exists_embedding(wheel_graph(4), _pg(3))
    assert res.status == "notfound"


def test_found_embeddings_verify():
    plane = _pg(3)
    for graph in (cycle_graph(9), cycle_graph(13), wheel_graph(3), gear_graph(3)):
        res = exists_embedding(graph, plane)
        assert res.status == "found"
        assert verify_embedding(graph, res.embedding, plane).ok


def test_returned_embedding_is_the_one_verified(monkeypatch):
    # the coordinate embedding that ``oracle --out`` writes passes emit itself
    import planegraphs.oracle as oracle

    seen = []
    real_emit = oracle.emit

    def spy(graph, images, plane):
        emb = real_emit(graph, images, plane)
        seen.append((emb, plane))
        return emb

    monkeypatch.setattr(oracle, "emit", spy)
    plane = pg_from_field(3)
    res = exists_embedding(cycle_graph(9), plane)
    assert res.status == "found"
    assert len(seen) == 1
    assert seen[0][0] is res.embedding and seen[0][1] is plane


def test_static_prunes_cost_nothing():
    plane = _pg(2)
    # more vertices than points
    res = exists_embedding(cycle_graph(8), plane)
    assert (res.status, res.expansions) == ("notfound", 0)
    # center degree exceeds the pencil
    res = exists_embedding(wheel_graph(4), plane)
    assert (res.status, res.expansions) == ("notfound", 0)


def test_budget_exhaustion():
    res = exists_embedding(cycle_graph(13), _pg(3), budget=5)
    assert res.status == "budget"
    assert res.expansions == 5  # only the candidates actually examined
    assert res.embedding is None
    # a search that needs exactly its budget still finishes
    full = exists_embedding(cycle_graph(13), _pg(3))
    assert exists_embedding(cycle_graph(13), _pg(3), budget=full.expansions) == full


@pytest.fixture
def shallow_stack():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    yield
    sys.setrecursionlimit(limit)


def test_deep_graph_needs_no_recursion(shallow_stack):
    # 150 vertices, one search level each: far deeper than the stack allows
    graph = cycle_graph(150)
    plane = cyclic_plane(13)
    res = exists_embedding(graph, plane, budget=10_000)
    assert (res.status, res.expansions) == ("found", 151)
    assert verify_embedding(graph, res.embedding, plane).ok


def test_pancyclicity_tables():
    table = pancyclicity_table(_pg(2))
    assert sorted(table) == list(range(3, 8))
    assert all(r.status == "found" for r in table.values())

    ag3 = ag_from_field(3).to_generic()
    table = pancyclicity_table(ag3)
    assert sorted(table) == list(range(3, 10))
    assert all(r.status == "found" for r in table.values())

    table = pancyclicity_table(_pg(3))
    assert sorted(table) == list(range(3, 14))
    assert all(r.status == "found" for r in table.values())

    # a coordinate plane gives the same verdicts, its embeddings in coordinates
    coord = pancyclicity_table(ag_from_field(3))
    assert [(r.status, r.expansions) for r in coord.values()] == [
        (r.status, r.expansions) for r in pancyclicity_table(ag3).values()
    ]
    assert all(r.embedding.model == "AG" for r in coord.values())


def test_pancyclicity_guard():
    for plane in (_pg(7), pg_from_field(7)):
        with pytest.raises(ValueError):
            pancyclicity_table(plane)


@pytest.mark.parametrize("plane", [pg_from_field(5), cyclic_plane(5)], ids=["pg:5", "cyclic:5"])
def test_order_five_pancyclic(plane):
    # the counting prune puts the 31-point planes within the default budget
    table = pancyclicity_table(plane, budget=DEFAULT_BUDGET)
    assert sorted(table) == list(range(3, 32))
    assert all(r.status == "found" for r in table.values())
    if plane.model == "PG":
        # the Hamiltonian cycle: 190,976 expansions without the starved-point refusal
        assert table[31].expansions == 12_878


def test_constructions_agree_with_search_at_order_five():
    # criterion 8's agreement, one order further: every wheel, gear and
    # cycle the constructions emit or refuse for q = 5 gets the same verdict
    # from exhaustive search
    q, mismatches = 5, []
    view, agv = _pg(q), ag_from_field(q).to_generic()
    for n in range(3, q + 3):
        for name, build, graph in (("wheel", wheel_plan, wheel_graph(n)), ("gear", gear_plan, gear_graph(n))):
            try:
                build(q, n)
                emitted = True
            except (ConstructionFailed, ImpossibleDegree):
                emitted = False
            if emitted != (exists_embedding(graph, view).status == "found"):
                mismatches.append((name, n, emitted))
    for k in range(3, q * q + 1):
        ag_cycle(q, k)
        if exists_embedding(cycle_graph(k), agv).status != "found":
            mismatches.append(("ag-cycle", k))
    for k in range(3, q * q + q + 2):
        pg_cycle(q, k)
        if exists_embedding(cycle_graph(k), view).status != "found":
            mismatches.append(("pg-cycle", k))
    assert not mismatches, mismatches


# (status, expansions, plain DFS count, sha256 prefix of the vertex
# images) of every cycle, wheel and gear question on four tiny planes, the
# notfound proofs included, and of the top four cycles on four planes of
# orders 4 and 5.  They pin the search's candidate order: increasing point
# id, point 0 pinned for the first vertex on a transitive plane, and one
# expansion per candidate examined.  The plain DFS count is what
# ``oracle_reference.plain_search`` examines; the prunes may only lower a
# count.
FROZEN_SEARCHES = {
    ("pg:2", "cycle:3"): ("found", 3, 3, '13ef2c0ad127178e'),
    ("pg:2", "cycle:4"): ("found", 5, 5, '29709191e000fab8'),
    ("pg:2", "cycle:5"): ("found", 5, 5, '0740db65e3a48940'),
    ("pg:2", "cycle:6"): ("found", 10, 10, '4acaf14c4146573f'),
    ("pg:2", "cycle:7"): ("found", 8, 9, 'ebc6f43b12aba5d3'),
    ("pg:2", "wheel:3"): ("found", 4, 4, '85ec5c922b84b966'),
    ("pg:2", "gear:3"): ("notfound", 0, 0, None),
    ("pg:2", "gear:4"): ("notfound", 0, 0, None),
    ("pg:2", "gear:5"): ("notfound", 0, 0, None),
    ("pg:3", "cycle:3"): ("found", 3, 3, '55041da107f27f77'),
    ("pg:3", "cycle:4"): ("found", 5, 5, '876e0d8d9be657ee'),
    ("pg:3", "cycle:5"): ("found", 5, 5, '1709f3a5a41417c5'),
    ("pg:3", "cycle:6"): ("found", 6, 6, '7bc889c3131352e2'),
    ("pg:3", "cycle:7"): ("found", 7, 7, '39fd810babf5bfb7'),
    ("pg:3", "cycle:8"): ("found", 9, 9, '0fb3e21dc8365e78'),
    ("pg:3", "cycle:9"): ("found", 9, 9, '18880baa219ed29e'),
    ("pg:3", "cycle:10"): ("found", 16, 16, 'c6ede8fe31c094e2'),
    ("pg:3", "cycle:11"): ("found", 11, 11, '54eb1c6b809913da'),
    ("pg:3", "cycle:12"): ("found", 13, 13, 'eaec1de0a6b7cceb'),
    ("pg:3", "cycle:13"): ("found", 15, 20, 'db319155741675db'),
    ("pg:3", "wheel:3"): ("found", 4, 4, '7039ec2e0d89d827'),
    ("pg:3", "gear:3"): ("found", 7, 7, '746d0c36e1337198'),
    ("pg:3", "wheel:4"): ("notfound", 985, 985, None),
    ("pg:3", "gear:4"): ("found", 9, 9, 'b6d718a6494159ec'),
    ("ag:3", "cycle:3"): ("found", 3, 3, '13ef2c0ad127178e'),
    ("ag:3", "cycle:4"): ("found", 4, 4, 'b5bf0085d528b5e6'),
    ("ag:3", "cycle:5"): ("found", 5, 5, '0740db65e3a48940'),
    ("ag:3", "cycle:6"): ("found", 7, 7, 'cd8f018e43ce73be'),
    ("ag:3", "cycle:7"): ("found", 7, 7, 'bdd874816b445f47'),
    ("ag:3", "cycle:8"): ("found", 8, 8, 'db045e0254195e6f'),
    ("ag:3", "cycle:9"): ("found", 9, 9, '20df772c025081c9'),
    ("ag:3", "wheel:3"): ("found", 4, 4, '35e05619af3a3f44'),
    ("ag:3", "gear:3"): ("found", 15, 15, '03f27e772d8c3881'),
    ("ag:3", "wheel:4"): ("notfound", 297, 297, None),
    ("ag:3", "gear:4"): ("notfound", 537, 2313, None),
    ("cyclic:3", "cycle:3"): ("found", 3, 3, '1d226b8db3e15d55'),
    ("cyclic:3", "cycle:4"): ("found", 5, 5, '32198cb590aacff3'),
    ("cyclic:3", "cycle:5"): ("found", 5, 5, 'e57ecfbcc67f5a35'),
    ("cyclic:3", "cycle:6"): ("found", 7, 7, 'f30f877721ca5fb1'),
    ("cyclic:3", "cycle:7"): ("found", 7, 7, '3c40279ab8b5bb97'),
    ("cyclic:3", "cycle:8"): ("found", 9, 9, 'e72de14596fac459'),
    ("cyclic:3", "cycle:9"): ("found", 9, 9, '6ba097a9f79c26c5'),
    ("cyclic:3", "cycle:10"): ("found", 11, 11, '628b50e4d9c3f13e'),
    ("cyclic:3", "cycle:11"): ("found", 11, 11, '9dd6e6a29f591ef9'),
    ("cyclic:3", "cycle:12"): ("found", 14, 14, '55bf031be11da506'),
    ("cyclic:3", "cycle:13"): ("found", 13, 13, '19736541e9edbb36'),
    ("cyclic:3", "wheel:3"): ("found", 4, 4, '74ec44f943d69077'),
    ("cyclic:3", "gear:3"): ("found", 8, 8, '5c13add34818e12e'),
    ("cyclic:3", "wheel:4"): ("notfound", 985, 985, None),
    ("cyclic:3", "gear:4"): ("found", 23, 23, 'd53b25c42df8f5e0'),
    ("pg:4", "cycle:18"): ("found", 62, 72, '3e544ed11618ff5a'),
    ("pg:4", "cycle:19"): ("found", 30, 54, '05dee06bafaac88e'),
    ("pg:4", "cycle:20"): ("found", 39, 125, '7a537c0dd5ea4f01'),
    ("pg:4", "cycle:21"): ("found", 51, 719_900, '6cc5ed69da399aa9'),
    ("cyclic:4", "cycle:18"): ("found", 48, 94, 'ddd529a39769e016'),
    ("cyclic:4", "cycle:19"): ("found", 182, 2341, 'ceddfe62601731e4'),
    ("cyclic:4", "cycle:20"): ("found", 35, 33_901, 'f3b57be996dff905'),
    ("cyclic:4", "cycle:21"): ("found", 75, 308_512, '4de07efa7ba4188b'),
    ("ag:4", "cycle:13"): ("found", 14, 14, '4af70789f881a516'),
    ("ag:4", "cycle:14"): ("found", 14, 14, 'bd5b69e81156a1fc'),
    ("ag:4", "cycle:15"): ("found", 15, 15, '3330caf21c8eec80'),
    ("ag:4", "cycle:16"): ("found", 21, 33, 'd27db6cee6631166'),
    ("ag:5", "cycle:22"): ("found", 22, 22, '249f6203b9ed0713'),
    ("ag:5", "cycle:23"): ("found", 41, 45, '3c349d3e2aae2554'),
    ("ag:5", "cycle:24"): ("found", 30, 42, '412d39f251a10279'),
    ("ag:5", "cycle:25"): ("found", 64, 216, '98937a2322b799d6'),
}


def _plane_ref(ref):
    model, q = ref.split(":")
    if model == "cyclic":
        return cyclic_plane(int(q))
    return {"pg": pg_from_field, "ag": ag_from_field}[model](int(q)).to_generic()


def _graph_ref(ref):
    kind, n = ref.split(":")
    return {"cycle": cycle_graph, "wheel": wheel_graph, "gear": gear_graph}[kind](int(n))


def _digest(emb):
    if emb is None:
        return None
    return hashlib.sha256(json.dumps(emb.vertex_images).encode()).hexdigest()[:16]


@pytest.mark.parametrize("plane_ref,graph_ref", sorted(FROZEN_SEARCHES))
def test_search_frozen(plane_ref, graph_ref):
    res = exists_embedding(_graph_ref(graph_ref), _plane_ref(plane_ref))
    status, expansions, _, digest = FROZEN_SEARCHES[(plane_ref, graph_ref)]
    assert (res.status, res.expansions, _digest(res.embedding)) == (status, expansions, digest)


@lru_cache(maxsize=None)
def _plain(plane_ref, graph_ref):
    # the unpruned reference, run once per question and shared by the tests
    return plain_search(_graph_ref(graph_ref), _plane_ref(plane_ref), DEFAULT_BUDGET)


@pytest.mark.parametrize("plane_ref,graph_ref", sorted(FROZEN_SEARCHES))
def test_frozen_plain_counts_are_measured(plane_ref, graph_ref):
    status, _, plain, _ = FROZEN_SEARCHES[(plane_ref, graph_ref)]
    got, _, count = _plain(plane_ref, graph_ref)
    assert (got, count) == (status, plain)


def test_frozen_counts_never_rise():
    assert all(new <= old for _, new, old, _ in FROZEN_SEARCHES.values())


# every cycle length up to zero slack, where the plane has no spare point
# and the starved-point refusal fires most
_ZERO_SLACK = [
    (ref, f"cycle:{k}")
    for ref in ("pg:2", "pg:3", "ag:3", "cyclic:3", "ag:4")
    for k in range(3, _plane_ref(ref).n_points + 1)
] + [("cyclic:4", "cycle:20"), ("cyclic:4", "cycle:21")]


@pytest.mark.parametrize("plane_ref,graph_ref", _ZERO_SLACK)
def test_cycles_agree_with_plain_dfs(plane_ref, graph_ref):
    status, img, count = _plain(plane_ref, graph_ref)
    got = _search(_graph_ref(graph_ref), _plane_ref(plane_ref), DEFAULT_BUDGET)
    assert got[:2] == (status, img)
    assert got[2] <= count


_UNDER_O = """
import hashlib, json
from planegraphs.graphs import cycle_graph
from planegraphs.oracle import exists_embedding
from planegraphs.plane import pg_from_field
res = exists_embedding(cycle_graph(21), pg_from_field(4).to_generic())
digest = hashlib.sha256(json.dumps(res.embedding.vertex_images).encode()).hexdigest()[:16]
print(json.dumps([res.status, res.expansions, digest]))
"""


def test_search_under_python_O():
    # the prunes hold nothing that -O strips: same verdict, count and images
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    res = exists_embedding(cycle_graph(21), _plane_ref("pg:4"))
    status, expansions, _, digest = FROZEN_SEARCHES[("pg:4", "cycle:21")]
    here = [res.status, res.expansions, _digest(res.embedding)]
    assert json.loads(out.stdout) == here == [status, expansions, digest]


def test_frozen_searches_cover_every_question():
    for ref in ("pg:2", "pg:3", "ag:3", "cyclic:3"):
        plane = _plane_ref(ref)
        asked = {g for r, g in FROZEN_SEARCHES if r == ref}
        cycles = {f"cycle:{k}" for k in range(3, plane.n_points + 1)}
        spoked = {f"{kind}:{n}" for kind in ("wheel", "gear") for n in range(3, plane.q + 2)}
        assert cycles | spoked <= asked


def test_searches_share_one_index(monkeypatch):
    # the plane's incidence index is built by the first search and reused
    view = pg_from_field(3).to_generic()
    plane = GenericPlane(q=3, n_points=view.n_points, lines=view.lines, transitive=True)
    seen, incidence = [], GenericPlane.incidence
    monkeypatch.setattr(GenericPlane, "incidence", lambda p: seen.append(incidence(p)) or seen[-1])
    assert exists_embedding(cycle_graph(5), plane).status == "found"
    assert exists_embedding(gear_graph(4), plane).status == "found"
    assert len(seen) >= 2 and all(index is seen[0] for index in seen)



def _capped(n, pairs):
    # an edge list on n vertices from random pairs, dropping loops and any
    # pair that would push a degree past 4, the largest pencil searched
    deg, keep = [0] * n, []
    for u, v in pairs:
        if u != v and deg[u] < 4 and deg[v] < 4:
            deg[u] += 1
            deg[v] += 1
            keep.append((u, v))
    return n, keep


def _edge_lists(top):
    # up to `top` vertices, disconnected graphs and isolated vertices included
    return st.integers(1, top).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=n, max_size=2 * n + 4
        ).map(lambda pairs: _capped(n, pairs))
    )


# a plane, and an edge list on up to as many vertices as it has points
_EDGE_LISTS = st.sampled_from(["pg:2", "pg:3", "ag:3", "cyclic:3"]).flatmap(
    lambda ref: st.tuples(st.just(ref), _edge_lists(_plane_ref(ref).n_points))
)


@settings(max_examples=150)
@given(case=_EDGE_LISTS)
def test_search_agrees_with_plain_dfs(case):
    # pruning may only skip candidates: a plain DFS in the same candidate
    # order reaches the same verdict and the same vertex images, and
    # examines at least as many candidates
    plane_ref, (n, edges) = case
    g, plane, budget = edge_list_graph(edges, n), _plane_ref(plane_ref), 20_000
    status, img, count = plain_search(g, plane, budget)
    got = _search(g, plane, budget)
    assert got[2] <= count
    if status != "budget":
        assert got[:2] == (status, img)
