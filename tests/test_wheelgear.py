"""Wheel and gear constructions: routes, invariants, refusals."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from planegraphs.cycles import SlopeLabeling, labeling_for
from planegraphs.gf import field_for, prime_powers_in
from planegraphs.graphs import (
    ImpossibleDegree,
    embedding_to_json,
    gear_graph,
    verify_embedding,
    wheel_graph,
)
from planegraphs.oracle import oracle
from planegraphs.plane import ag_from_field, incident, line_through, pg_from_field
from planegraphs.wheelgear import (
    ConstructionFailed,
    _gear_max,
    _gear_paths_even,
    _gear_paths_odd,
    arc_points,
    gear_plan,
    wheel_plan,
)


def test_arc_sizes():
    assert len(arc_points(5)) == 6
    assert len(arc_points(9)) == 10
    assert len(arc_points(4)) == 6  # nucleus joins in even characteristic
    assert len(arc_points(8)) == 10


@pytest.mark.parametrize("q", prime_powers_in(2, 16))
def test_arc_no_three_collinear(q):
    # the conic plus its nucleus (q even) is an arc; wheel_plan relies on it
    spec = pg_from_field(q).spec
    arc = arc_points(q)
    for i in range(len(arc)):
        for j in range(i + 1, len(arc)):
            l = line_through(spec, arc[i], arc[j])
            hits = sum(1 for p in arc if incident(spec, p, l))
            assert hits == 2, (arc[i], arc[j])


WHEEL_ROUTES = {
    (2, 3): "ARC",
    (4, 5): "ARC",
    (5, 4): "ARC",
    (8, 9): "ARC",
    (5, 6): "EXPLICIT",
    (7, 8): "EXPLICIT",
    (9, 10): "EXPLICIT",
}


@pytest.mark.parametrize("q,n", sorted(WHEEL_ROUTES))
def test_wheel_route_selection(q, n):
    plan = wheel_plan(q, n)
    assert plan.route == WHEEL_ROUTES[(q, n)]


@pytest.mark.parametrize("q", [2, 4, 5, 7, 8, 9])
def test_wheels_embed_and_verify(q):
    plane = pg_from_field(q)
    for n in sorted({3, max(3, (q + 3) // 2), q + 1}):
        plan = wheel_plan(q, n)
        emb = plan.embedding
        rep = verify_embedding(wheel_graph(n), emb, plane)
        assert rep.ok, (q, n, rep.violations)
        center = emb.vertex_images[0]
        spokes = _spokes(emb)
        assert len(spokes) == n
        for l in spokes:
            assert incident(plane.spec, center, l)


def _spokes(emb):
    # the edge images of the edges (0, i), center to rim
    return [l for (u, _), l in zip(emb.graph.edges, emb.edge_images) if u == 0]


def _collinear_arc(q):
    # arc point 2 moved onto the line through points 0 and 1, so the spokes
    # to rim vertices 1 and 2 of a wheel built on it share a line
    pts = arc_points(q)
    plane = pg_from_field(q)
    l = line_through(plane.spec, pts[0], pts[1])
    pts[2] = next(P for P in plane.points() if incident(plane.spec, P, l) and P not in pts[:2])
    return pts


def test_verifier_failure_raises(monkeypatch):
    monkeypatch.setattr("planegraphs.wheelgear.arc_points", _collinear_arc)
    with pytest.raises(ConstructionFailed, match="edge lines collide"):
        wheel_plan(5, 4)


_UNDER_O = """
import os
import planegraphs.wheelgear as wg
from test_wheelgear import _collinear_arc
wg.arc_points = _collinear_arc
try:
    wg.wheel_plan(5, 4)
except wg.ConstructionFailed as e:
    print("ConstructionFailed:", e)
from planegraphs.cli import main
print("exit code", main(["wheel", "--q", "5", "--n", "4", "--out", os.devnull]))
"""


def test_verifier_failure_raises_under_python_O():
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(
        filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("ConstructionFailed:"), out.stdout
    assert "edge lines collide" in out.stdout
    assert out.stdout.endswith("exit code 1\n"), out.stdout


def test_wheel_four_needs_order_four():
    # the rim-4 wheel exists from order four up but not at three
    with pytest.raises(ConstructionFailed):
        wheel_plan(3, 4)
    assert wheel_plan(3, 3).route == "ARC"
    assert wheel_plan(4, 4).route == "ARC"


def test_degree_guard():
    with pytest.raises(ImpossibleDegree):
        wheel_plan(4, 6)
    with pytest.raises(ImpossibleDegree):
        wheel_plan(5, 7)
    with pytest.raises(ImpossibleDegree):
        gear_plan(5, 7)
    with pytest.raises(ImpossibleDegree):
        gear_plan(2, 4)


def test_bad_parameters():
    with pytest.raises(ValueError):
        wheel_plan(6, 3)
    with pytest.raises(ValueError):
        gear_plan(6, 3)
    with pytest.raises(ValueError):
        wheel_plan(5, 2)
    with pytest.raises(ValueError):
        gear_plan(5, 2)


GEAR_ROUTES = {
    (3, 3): "ORACLE",
    (4, 4): "ORACLE",
    (5, 4): "ORACLE",
    (5, 5): "ORACLE",  # path exhaustion falls back below eight
    (5, 3): "FROM_WHEEL",
    (9, 5): "FROM_WHEEL",
    (13, 7): "FROM_WHEEL",
    (7, 6): "PATHS_EVEN",
    (9, 6): "PATHS_EVEN",
    (8, 8): "PATHS_EVEN",
    (7, 5): "PATHS_ODD",
    (9, 7): "PATHS_ODD",
    (11, 9): "PATHS_ODD",
    (8, 9): "MAX_EVEN",
    (16, 17): "MAX_EVEN",
    (5, 6): "MAX_ODD",
    (7, 8): "MAX_ODD",
    (9, 10): "MAX_ODD",
}


@pytest.mark.parametrize("q,n", sorted(GEAR_ROUTES))
def test_gear_route_selection(q, n):
    assert gear_plan(q, n).route == GEAR_ROUTES[(q, n)]


@pytest.mark.parametrize("q,n", [(5, 3), (7, 5), (7, 6), (7, 8), (8, 9), (9, 7)])
def test_gear_invariants(q, n):
    plane = pg_from_field(q)
    plan = gear_plan(q, n)
    emb = plan.embedding
    graph = gear_graph(n)
    rep = verify_embedding(graph, emb, plane)
    assert rep.ok, rep.violations
    center, rim = emb.vertex_images[0], emb.vertex_images[1:]
    assert all(p != center for p in rim)
    assert len(set(rim)) == 2 * n
    # exactly the n spokes may pass through the center
    through = sum(1 for l in set(emb.edge_images) if incident(plane.spec, center, l))
    assert through == n
    spokes = _spokes(emb)
    assert len(spokes) == n
    for l in spokes:
        assert incident(plane.spec, center, l)


def test_gear_reuses_wheel_vertices():
    assert gear_plan(9, 4).embedding.vertex_images == wheel_plan(9, 8).embedding.vertex_images
    assert gear_plan(13, 5).embedding.vertex_images == wheel_plan(13, 10).embedding.vertex_images


def test_smallest_plane_has_no_gear():
    with pytest.raises(ConstructionFailed):
        gear_plan(2, 3)


def test_generic_plane_routes():
    gp = pg_from_field(5).to_generic()
    wplan = wheel_plan(0, 4, plane=gp)
    rep = verify_embedding(wheel_graph(4), wplan.embedding, gp)
    assert rep.ok, rep.violations
    gplan = gear_plan(0, 3, plane=gp)
    rep = verify_embedding(gear_graph(3), gplan.embedding, gp)
    assert rep.ok, rep.violations
    assert gplan.route in ("FROM_WHEEL", "ORACLE")
    with pytest.raises(ImpossibleDegree):
        gear_plan(0, 7, plane=gp)


@pytest.mark.parametrize("build", [wheel_plan, gear_plan])
@pytest.mark.parametrize(
    "plane", [ag_from_field(5), pg_from_field(5), "pg:5"], ids=["AG(2,5)", "PG(2,5)", "str"]
)
def test_plane_that_is_not_generic_is_refused(build, plane):
    # a plane that is passed is the one built in, so one that is not a
    # GenericPlane is refused rather than replaced by PG(2,q)
    with pytest.raises(ValueError, match="GenericPlane"):
        build(5, 4, plane=plane)


def test_oracle_route_verifies_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return verify_embedding(*args)

    monkeypatch.setattr("planegraphs.graphs.verify_embedding", counting)
    plan = gear_plan(4, 3)
    assert plan.route == "ORACLE"
    assert len(calls) == 1


def _plans_digest(cells) -> str:
    """One digest over the (function, q, n, plane) cells: each plan's route and
    the sha256 of its embedding file, or a refused cell's exception and message."""
    rows = []
    for build, q, n, plane in cells:
        try:
            plan = build(q, n, plane)
        except (ValueError, ConstructionFailed) as e:
            rows.append(f"{build.__name__} {n} {type(e).__name__}: {e}")
            continue
        emb = hashlib.sha256(embedding_to_json(plan.embedding).encode()).hexdigest()
        rows.append(f"{build.__name__} {n} {plan.route} {emb}")
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def _frozen_cells(kind, q):
    if kind == "MAX":
        return [(gear_plan, q, q + 1, None)]
    plane = pg_from_field(q).to_generic() if kind == "GENERIC" else None
    return [(b, q, n, plane) for b in (wheel_plan, gear_plan) for n in range(3, q + 3)]


# every wheel and gear cell 3 <= n <= q+2 in PG(2,q) and in its generic view,
# and the maximum gear past q = 32, as the routes built them when frozen
FROZEN_PLANS = {
    ('PG', 2): 'e05d61bd9a2cfdcb',
    ('PG', 3): '7f90d451ed1aa207',
    ('PG', 4): 'ca1ccb0cf1deaad4',
    ('PG', 5): '5ddc013ba7510441',
    ('PG', 7): '1273ce8d235f220a',
    ('PG', 8): '5a61f2194f4a140a',
    ('PG', 9): '0e0c7e353e413b72',
    ('PG', 11): '789fcd5d09139fa6',
    ('PG', 13): '4a66a78a7184b0a7',
    ('PG', 16): 'f0968d41f8773e0b',
    ('PG', 17): 'd5b22e162301d0ae',
    ('PG', 19): '714cdf30474d3aec',
    ('PG', 23): '53040aa16ee32dc3',
    ('PG', 25): 'dc943281a9441774',
    ('PG', 27): '3cae96e6b7ec8206',
    ('PG', 29): 'da3d8098ad53c387',
    ('PG', 31): '300515716ed67f6c',
    ('PG', 32): '6c0dd75ed18b228b',
    ('GENERIC', 2): '614b172452dff2a5',
    ('GENERIC', 3): '7db720ffef090ad3',
    ('GENERIC', 4): 'a1452341652c3909',
    ('GENERIC', 5): '7fda85d1f552991c',
    ('GENERIC', 7): '092a98bd86ff8f3b',
    ('MAX', 37): 'c542e9d1d993fc95',
    ('MAX', 41): '92dfbcf55e77ea33',
    ('MAX', 43): '58365d6bca8692d1',
    ('MAX', 47): 'cd36756c1d499f9a',
    ('MAX', 49): '578814a57dfd4592',
    ('MAX', 53): 'c2a5cca60b4ea0bf',
    ('MAX', 59): 'f37465a706bc659f',
    ('MAX', 61): '604dd45621e99d6e',
    ('MAX', 64): '61673c8fe297bd5f',
    ('MAX', 67): 'dea300745400cfb4',
    ('MAX', 71): '31bf5d47f3f59210',
    ('MAX', 73): '87b9cf22235461ab',
    ('MAX', 79): '1f935f8ee7ba6ebb',
    ('MAX', 81): '3792c7167cb56cb5',
}


@pytest.mark.parametrize("kind,q", sorted(FROZEN_PLANS))
def test_plans_frozen(kind, q):
    assert _plans_digest(_frozen_cells(kind, q)) == FROZEN_PLANS[kind, q]


def test_gear_path_candidates_frozen():
    # every candidate of the path routes, not only the first that passes,
    # for every (q+1)/2 < n <= q and prime power 5 <= q <= 17
    h, count = hashlib.sha256(), 0
    for q in prime_powers_in(5, 17):
        for n in range((q + 1) // 2 + 1, q + 1):
            paths = _gear_paths_even if n % 2 == 0 else _gear_paths_odd
            for images, route in paths(n, labeling_for(q)):
                h.update(f"{q} {n} {route} {list(images)}\n".encode())
                count += 1
    assert (count, h.hexdigest()) == (
        6967, "6240746d0ed2a0b90024baa9381fa438eef1675b98e96e3cbccbf4cdb3cee97a")


def test_wheel_derives_each_edge_line_once(monkeypatch):
    # the verifier's derivation is the only one: from an empty memo, one
    # line_through per edge, each remembered
    import planegraphs.plane as plane_mod

    monkeypatch.setattr(plane_mod, "_line_memo", {})
    calls = []
    real = plane_mod.line_through

    def counting(spec, P, Q):
        calls.append((P, Q))
        return real(spec, P, Q)

    monkeypatch.setattr(plane_mod, "line_through", counting)
    plan = wheel_plan(7, 5)
    assert plan.route == "ARC"
    assert len(calls) == len(plan.embedding.graph.edges) == 10
    assert sorted(plane_mod._line_memo.values()) == sorted(plan.embedding.edge_images)


def _no_oracle(graph, plane):
    pytest.fail(f"the oracle was asked for {graph.kind} in {plane}")


def _coincident_arc(q):
    # rim images 2 and 3 of a gear built on this arc coincide; the arc keeps
    # its length, so it still serves
    pts = arc_points(q)
    pts[3] = pts[2]
    return pts


def _bad_max(lab, pgp):
    # the maximum gear's rim with images 1 and 2 coinciding
    rim = _gear_max(lab, pgp)
    rim[2] = rim[1]
    return rim


@pytest.mark.parametrize(
    "q,n,name,patch",
    [(7, 3, "arc_points", _coincident_arc), (7, 8, "_gear_max", _bad_max),
     (8, 9, "_gear_max", _bad_max)],
)
def test_pg_gear_routes_without_fallback_keep_none(q, n, name, patch, monkeypatch):
    # in PG(2,q) FROM_WHEEL on the arc and MAX have no fallback: a failed
    # candidate is refused, not handed to the oracle
    monkeypatch.setattr("planegraphs.wheelgear.oracle", _no_oracle)
    monkeypatch.setattr(f"planegraphs.wheelgear.{name}", patch)
    with pytest.raises(ConstructionFailed, match="vertex images collide"):
        gear_plan(q, n)


def _no_paths(n, lab):
    pytest.fail(f"the path route was asked for G_{n} at q={lab.q}")


def test_pg_gear_5_at_order_5_goes_to_the_oracle_alone(monkeypatch):
    # G_5 in PG(2,5) lies outside the paper's routes, as G_4 does
    calls = []

    def counting(graph, plane):
        calls.append(graph.kind)
        return oracle(graph, plane)

    monkeypatch.setattr("planegraphs.wheelgear.oracle", counting)
    monkeypatch.setattr("planegraphs.wheelgear._gear_paths_odd", _no_paths)
    assert gear_plan(5, 5).route == "ORACLE"
    assert calls == ["GEAR"]


def _colliding_paths_odd(n, lab):
    # one path candidate, with rim images 1 and 2 coinciding
    images, route = next(_gear_paths_odd(n, lab))
    images[2] = images[1]
    yield images, route


def test_pg_path_gear_has_no_fallback(monkeypatch):
    # from q = 7, where the path route starts, spent candidates are refused
    monkeypatch.setattr("planegraphs.wheelgear.oracle", _no_oracle)
    monkeypatch.setattr("planegraphs.wheelgear._gear_paths_odd", _colliding_paths_odd)
    with pytest.raises(ConstructionFailed, match="^path route exhausted for G_5 at q=7$"):
        gear_plan(7, 5)


@pytest.mark.parametrize("n,route", [(None, None), (256, "PATHS_EVEN"), (257, "PATHS_ODD"), (509, "PATHS_ODD")])
def test_base_paths_and_path_gears_stay_linear(n, route, monkeypatch):
    # a base path or one PATHS cell scales only the paths it reads: at
    # q = 509 all q - 1 base paths hold 259,080 points (over 20 MB traced),
    # one of them 510; the labeling is new, so nothing was scaled before
    q = 509
    lab = SlopeLabeling.make(field_for(q), labeling_for(q).kind, labeling_for(q).alpha)
    monkeypatch.setattr("planegraphs.wheelgear.labeling_for", lambda q: lab)
    tracemalloc.start()
    try:
        if n is None:
            assert len(lab.path(2)) == q + 1
        else:
            assert gear_plan(q, n).route == route
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
