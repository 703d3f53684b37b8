"""Target graphs, embedding records, serialization, verifier behavior."""

import pytest

from planegraphs.graphs import (
    Embedding,
    FormatError,
    _norm_edges,
    cycle_graph,
    edge_list_graph,
    emit,
    gear_graph,
    graph_from_json,
    read_embedding,
    verify_embedding,
    wheel_graph,
    write_embedding,
)
from planegraphs.plane import pg_from_field


def test_cycle_graph_shape():
    g = cycle_graph(5)
    assert g.n_vertices == 5 and len(g.edges) == 5
    assert all(g.degree(v) == 2 for v in range(5))
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_cycle_graph_edges_are_the_normalised_cycle():
    for k in range(3, 301):
        assert cycle_graph(k).edges == _norm_edges((i, (i + 1) % k) for i in range(k)), k


def test_wheel_graph_shape():
    g = wheel_graph(6)
    assert g.n_vertices == 7 and len(g.edges) == 12
    assert g.degree(0) == 6
    assert all(g.degree(v) == 3 for v in range(1, 7))
    assert g.max_degree == 6


def test_gear_graph_shape():
    g = gear_graph(4)
    assert g.n_vertices == 9 and len(g.edges) == 12
    assert g.degree(0) == 4
    # rim alternates spoked/unspoked starting at vertex 1
    assert [g.degree(v) for v in range(1, 9)] == [3, 2, 3, 2, 3, 2, 3, 2]
    assert {v for u, v in g.edges if u == 0} == {1, 3, 5, 7}


def test_edge_list_graph():
    g = edge_list_graph([(0, 1), (1, 2), (2, 0)])
    assert g.n_vertices == 3 and len(g.edges) == 3
    with pytest.raises(ValueError):
        edge_list_graph([(0, 0)])
    # duplicate edges collapse rather than raise
    assert edge_list_graph([(0, 1), (1, 0)]).edges == ((0, 1),)


def test_graph_json_round_trip():
    for g in (cycle_graph(4), wheel_graph(3), gear_graph(5), edge_list_graph([(0, 2), (1, 2)])):
        h = graph_from_json(g.json_dict())
        assert h == g


def _unchecked(graph, imgs, plane):
    # vertex images alone, as emit receives them; the verifier derives the lines
    return Embedding(plane.model, plane.q, graph, tuple(imgs), None)


def _triangle_embedding(q=3):
    pgp = pg_from_field(q)
    graph = cycle_graph(3)
    return pgp, graph, emit(graph, [(0, 0, 1), (1, 0, 1), (0, 1, 1)], pgp)


def test_verify_passes_triangle():
    pgp, graph, emb = _triangle_embedding()
    rep = verify_embedding(graph, _unchecked(graph, emb.vertex_images, pgp), pgp)
    assert rep.ok
    assert rep.violations == []
    assert rep.lines == emb.edge_images and len(set(rep.lines)) == 3


def test_verify_flags_duplicate_vertices():
    pgp = pg_from_field(3)
    graph = cycle_graph(3)
    emb = _unchecked(graph, [(0, 0, 1), (0, 0, 1), (0, 1, 1)], pgp)
    rep = verify_embedding(graph, emb, pgp)
    # coincident images: the joining line is undefined, and the images collide
    assert not rep.ok
    assert rep.violations == [
        "edge (0, 1) endpoints map to one point", "vertex images collide", "edge lines collide",
    ]
    assert rep.lines[0] is None


def test_verify_flags_tampered_edge_line():
    pgp, graph, emb = _triangle_embedding()
    bad_lines = list(emb.edge_images)
    bad_lines[0], bad_lines[1] = bad_lines[1], bad_lines[0]
    bad = Embedding(emb.model, emb.q, graph, emb.vertex_images, tuple(bad_lines))
    rep = verify_embedding(graph, bad, pgp)
    assert not rep.ok
    assert any("stores line" in v for v in rep.violations)


def test_verify_flags_line_reuse():
    # two edges sharing a line: 4-cycle with all images collinear pairs on one line
    pgp = pg_from_field(3)
    graph = cycle_graph(4)
    imgs = [(0, 0, 1), (0, 1, 1), (0, 1, 2), (1, 0, 1)]  # first three collinear
    emb = _unchecked(graph, imgs, pgp)
    rep = verify_embedding(graph, emb, pgp)
    assert not rep.ok
    assert "edge lines collide" in rep.violations


def test_verify_degree_bound():
    # W_4 needs center degree 4 > 3 available in PG(2,2)
    pgp = pg_from_field(2)
    graph = wheel_graph(4)
    imgs = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1), (0, 1, 0)]
    emb = _unchecked(graph, imgs, pgp)
    rep = verify_embedding(graph, emb, pgp)
    assert not rep.ok
    assert "max degree 4 exceeds pencil size 3" in rep.violations


def test_every_constructor_returns_a_verified_embedding():
    # the embedding emit returned is the one result type, with its edge lines
    from planegraphs import (
        ag_cycle, cycle_q2, exists_embedding, gear, gear_plan, long_cycle, pg_cycle,
        plane_for, singer_cycle, wheel, wheel_plan,
    )

    built = {
        "ag_cycle": ag_cycle(5, 10),
        "pg_cycle": pg_cycle(5, 28),
        "long_cycle": long_cycle(5),
        "cycle_q2": cycle_q2(5),
        "singer_cycle": singer_cycle(4),
        "wheel": wheel(5, 6),
        "gear": gear(7, 5),
        "wheel_plan": wheel_plan(7, 8).embedding,
        "gear_plan": gear_plan(8, 9).embedding,
        "exists_embedding": exists_embedding(cycle_graph(5), pg_from_field(3)).embedding,
    }
    for name, emb in built.items():
        assert type(emb) is Embedding, name
        assert emb.edge_images is not None, name
        assert len(emb.edge_images) == len(emb.graph.edges), name
        assert verify_embedding(emb.graph, emb, plane_for(emb.model, emb.q)).ok, name


def test_emit_refuses_images_of_the_other_plane_kind():
    from planegraphs.cycles import cyclic_plane
    from planegraphs.graphs import ConstructionFailed, emit

    graph = cycle_graph(3)
    for plane, imgs in (
        (pg_from_field(3), (0, 1, 3)),
        (cyclic_plane(3), ((0, 0, 1), (1, 0, 1), (0, 1, 1))),
        (cyclic_plane(3), (0, True, 2)),  # a bool is no point id either
    ):
        with pytest.raises(ConstructionFailed, match="is not a point of"):
            emit(graph, imgs, plane)


def test_embedding_file_round_trip(tmp_path):
    pgp, graph, emb = _triangle_embedding()
    path = tmp_path / "tri.json"
    write_embedding(emb, path)
    again = read_embedding(path)
    assert again == emb
    write_embedding(again, tmp_path / "tri2.json")
    assert (tmp_path / "tri.json").read_bytes() == (tmp_path / "tri2.json").read_bytes()


def test_read_embedding_rejects_damage(tmp_path):
    pgp, graph, emb = _triangle_embedding()
    path = tmp_path / "tri.json"
    write_embedding(emb, path)
    import json

    doc = json.loads(path.read_text())
    doc["vertices"] = doc["vertices"][:-1]  # drop a vertex image
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        read_embedding(bad)

    # damage that would otherwise surface as a TypeError or AttributeError
    damage = {"vertices": [1, 2, 3], "graph": {"kind": "CYCLE", "k": "x"}, "plane": "PG"}
    for key, value in damage.items():
        doc = json.loads(path.read_text())
        doc[key] = value
        bad.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            read_embedding(bad)
    bad.write_text(path.read_text()[:-10])  # truncated JSON
    with pytest.raises(FormatError):
        read_embedding(bad)


def test_embedding_takes_model_and_order_from_its_plane(tmp_path):
    from planegraphs.cycles import cyclic_plane
    from planegraphs.plane import ag_from_field, load_plane, save_plane

    graph = cycle_graph(3)
    tri = [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
    save_plane(pg_from_field(3).to_generic(), tmp_path / "pg3.json")
    loaded = load_plane(tmp_path / "pg3.json")
    for plane, imgs, model, q in (
        (pg_from_field(3), tri, "PG", 3),
        (ag_from_field(4), tri, "AG", 4),
        (cyclic_plane(5), [0, 1, 3], "CYCLIC", 5),
        (loaded, [0, 1, 4], "GENERIC", 3),
    ):
        emb = emit(graph, imgs, plane)
        assert (emb.model, emb.q) == (model, q)
        assert verify_embedding(graph, emb, plane).ok


def _parity_cases():
    from planegraphs.cycles import ag_cycle
    from planegraphs.graphs import ConstructionFailed
    from planegraphs.plane import ag_from_field
    from planegraphs.wheelgear import gear_plan, wheel_plan

    for q in (3, 4, 5):
        pgp = pg_from_field(q)
        for build in (wheel_plan, gear_plan):
            for n in range(3, q + 2):
                try:
                    yield pgp, build(q, n).embedding
                except ConstructionFailed:  # W_4 in PG(2,3) does not exist
                    pass
    for q in (4, 5):
        agp = ag_from_field(q)
        for k in range(3, q * q + 1):
            yield agp, ag_cycle(q, k)


def _in_point_ids(emb, coord):
    index = {P: i for i, P in enumerate(coord.points())}
    ids = tuple(index[P] for P in emb.vertex_images)
    lines = tuple(coord.to_generic().line_between(ids[u], ids[v]) for u, v in emb.graph.edges)
    return Embedding("GENERIC", emb.q, emb.graph, ids, lines)


def _damaged(emb):
    """The embedding as built, with one edge image replaced by another edge's,
    and with vertex 1 sent onto vertex 0's image."""
    yield emb
    edges = list(emb.edge_images)
    edges[0] = edges[1]
    yield Embedding(emb.model, emb.q, emb.graph, emb.vertex_images, tuple(edges))
    verts = list(emb.vertex_images)
    verts[1] = verts[0]
    yield Embedding(emb.model, emb.q, emb.graph, tuple(verts), emb.edge_images)


def test_verifier_agrees_on_both_plane_kinds():
    seen = 0
    for coord, emb in _parity_cases():
        view = coord.to_generic()
        ids = _in_point_ids(emb, coord)
        for i, (a, b) in enumerate(zip(_damaged(emb), _damaged(ids))):
            ra = verify_embedding(emb.graph, a, coord)
            rb = verify_embedding(emb.graph, b, view)
            assert (ra.ok, len(ra.violations)) == (rb.ok, len(rb.violations)), (coord, emb.graph)
            assert ra.ok == (i == 0), (coord, emb.graph, i, ra.violations)
        seen += 1
    assert seen == 2 * (2 + 3 + 4) - 1 + 14 + 23


def test_package_holds_no_assert_statement():
    # checks are raised, so that ``python -O`` cannot switch one off
    import ast
    from pathlib import Path

    import planegraphs

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(planegraphs.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_public_api_has_no_private_parameters():
    # a parameter a caller must not pass is no part of a public signature
    import ast
    from pathlib import Path

    import planegraphs

    def public_defs(body):
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield from public_defs(node.body)
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield node

    found = []
    for path in sorted(Path(planegraphs.__file__).parent.glob("*.py")):
        for fn in public_defs(ast.parse(path.read_text()).body):
            a = fn.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            found += [f"{path.name}:{fn.name}({p.arg})" for p in params if p and p.arg.startswith("_")]
    assert found == []


PUBLIC_NAMES = """
ConjectureViolation ConstructionFailed CoordPlane DEFAULT_BUDGET DegenerateAlpha
Embedding FieldSpec FormatError GenericPlane Graph
HypothesisJCertificate ImpossibleDegree NoCertificate OracleResult Plan
PlaneReport SlopeLabeling VerifyReport ag_cycle ag_from_field arc_points
base_path check_plane_axioms consecutive_primitive_pair cycle_graph cycle_q2
cyclic_plane edge_list_graph element_order emit exists_embedding field_for
first_primitive gamma_map gamma_prime_map gear gear_graph gear_plan
hypothesis_j_search is_primitive labeling_for load_plane long_cycle make_field
pancyclicity_table path_closed_form pg_cycle pg_from_field plane_for
prime_power prime_powers_in primitive_iter read_embedding save_plane
singer_cycle singer_difference_set verify_embedding wheel wheel_graph
wheel_plan write_embedding
""".split()


def test_public_names_pinned():
    # what the package exports, its submodules aside; adding or removing a
    # name is an API change and edits this list on purpose.  ``dir`` lists
    # the names whether or not a submodule has been loaded yet
    import types

    import planegraphs

    names = sorted(
        name for name in dir(planegraphs)
        if not name.startswith("_") and not isinstance(getattr(planegraphs, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_package_loads_each_submodule_on_first_use(tmp_path):
    # a fresh interpreter, so that no earlier test has loaded a submodule
    import json
    import subprocess
    import sys
    from pathlib import Path

    import planegraphs

    script = tmp_path / "probe.py"
    script.write_text(f"""
import importlib, json, sys
sys.path.insert(0, {str(Path(planegraphs.__file__).parents[1])!r})
import planegraphs
loaded = sorted(m for m in sys.modules if m.startswith("planegraphs."))
same = {{}}
for name in {PUBLIC_NAMES!r}:
    value = getattr(planegraphs, name)
    home = importlib.import_module(getattr(value, "__module__", None) or "planegraphs.oracle")
    same[name] = getattr(home, name) is value
gf_ok = planegraphs.gf is sys.modules["planegraphs.gf"]
try:
    planegraphs.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
star = {{}}
exec("from planegraphs import *", star)
print(json.dumps([loaded, same, gf_ok, unknown, sorted(set(star) - {{"__builtins__"}})]))
""")
    res = subprocess.run([sys.executable, "-I", str(script)], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    loaded, same, gf_ok, unknown, star = json.loads(res.stdout)
    assert loaded == []
    assert same == {name: True for name in PUBLIC_NAMES}  # DEFAULT_BUDGET, an int, is oracle's
    assert (gf_ok, unknown) == (True, "AttributeError")
    assert star == PUBLIC_NAMES


def test_package_imports_no_unused_name():
    # a name a module imports and never reads is a stale import
    import ast
    from pathlib import Path

    import planegraphs

    found = []
    for path in sorted(Path(planegraphs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_only_graphs_builds_embeddings():
    # every construction hands vertex images to ``emit``, whose verifier
    # derives the edge lines once; so no other module makes an embedding
    import ast
    from pathlib import Path

    import planegraphs

    found = []
    for path in sorted(Path(planegraphs.__file__).parent.glob("*.py")):
        if path.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                if getattr(f, "id", getattr(f, "attr", None)) == "Embedding":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
