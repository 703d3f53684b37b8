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
    assert all(g.degrees[v] == 2 for v in range(5))
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_cycle_graph_edges_are_the_normalised_cycle():
    for k in range(3, 301):
        assert cycle_graph(k).edges == _norm_edges((i, (i + 1) % k) for i in range(k)), k


def test_wheel_graph_shape():
    g = wheel_graph(6)
    assert g.n_vertices == 7 and len(g.edges) == 12
    assert g.degrees[0] == 6
    assert all(g.degrees[v] == 3 for v in range(1, 7))
    assert g.max_degree == 6


def test_gear_graph_shape():
    g = gear_graph(4)
    assert g.n_vertices == 9 and len(g.edges) == 12
    assert g.degrees[0] == 4
    # rim alternates spoked/unspoked starting at vertex 1
    assert [g.degrees[v] for v in range(1, 9)] == [3, 2, 3, 2, 3, 2, 3, 2]
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
        ag_cycle, exists_embedding, gear_plan, pg_cycle, plane_for, singer_cycle, wheel_plan,
    )

    built = {
        "ag_cycle": ag_cycle(5, 10),
        "pg_cycle": pg_cycle(5, 28),
        "ag_cycle_long": ag_cycle(5, 24),
        "ag_cycle_through_o": ag_cycle(5, 25),
        "singer_cycle": singer_cycle(4),
        "wheel_plan_q5": wheel_plan(5, 6).embedding,
        "gear_plan_q7": gear_plan(7, 5).embedding,
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


def _every_small_embedding():
    # every cycle of AG(2,q) and PG(2,q) and every wheel and gear of PG(2,q)
    # that the package builds, q <= 9 (the Singer rung in the cyclic model),
    # and a wheel and a gear of the Hall plane of order 9
    from planegraphs.cycles import ag_cycle, pg_cycle, plane_for
    from planegraphs.gf import prime_powers_in
    from planegraphs.graphs import ConstructionFailed
    from planegraphs.wheelgear import gear_plan, wheel_plan
    from test_hall_plane import HALL

    for q in prime_powers_in(2, 9):
        for k in range(3, q * q + 1):
            yield plane_for("AG", q), ag_cycle(q, k)
        for k in range(3, q * q + q + 2):
            emb = pg_cycle(q, k)
            yield plane_for(emb.model, q), emb
        for build in (wheel_plan, gear_plan):
            for n in range(3, q + 2):
                try:
                    yield pg_from_field(q), build(q, n).embedding
                except (ConstructionFailed, ValueError):  # no such wheel or gear
                    pass
    for build in (wheel_plan, gear_plan):
        yield HALL, build(9, 5, plane=HALL).embedding


def _seeded_faults(plane, emb):
    # the embedding as built, then with one fault each: vertex 1 on vertex
    # 0's image, edge 0 storing edge 1's line, and vertex 2's image replaced
    # by one that is no point, or is not in a PG(2,q) either: a coordinate
    # true (though the plane has just checked the equal int triple), floats,
    # a list, a triple off canon, the point (1 : 0 : 0) at infinity, an id
    # out of range
    yield emb
    verts, edges = emb.vertex_images, emb.edge_images
    yield emb._replace(vertex_images=(verts[0], verts[0], *verts[2:]))
    yield emb._replace(edge_images=(edges[1], *edges[1:]))
    P = verts[2]
    if type(P) is int:
        bad = [P == 1, float(P), plane.n_points, -1]
    else:
        bad = [tuple(True if c == 1 else c for c in P), tuple(map(float, P)), list(P),
               tuple(2 if c == 1 else c for c in P), (1, 0, 0)]
    for image in bad:
        yield emb._replace(vertex_images=(*verts[:2], image, *verts[3:]))


def _verdict(verify, emb, plane):
    try:
        return verify(emb.graph, emb, plane)
    except ValueError as e:
        return str(e)


def test_verifier_matches_the_per_edge_reference():
    from verify_reference import reference_verify

    seen = verdicts = 0
    for plane, emb in _every_small_embedding():
        for case in _seeded_faults(plane, emb):
            want = _verdict(reference_verify, case, plane)
            assert _verdict(verify_embedding, case, plane) == want, (plane, case)
            verdicts += type(want) is str
        seen += 1
    # 234 AG and 279 PG cycles, 60 PG wheels and gears, 2 in the Hall plane
    assert seen == 234 + 279 + 60 + 2 and verdicts > seen


def test_writer_matches_json(monkeypatch):
    # byte for byte, also when the memo of texts is cleared every few items
    import planegraphs.graphs as graphs_mod
    import planegraphs.plane as plane_mod
    from planegraphs.graphs import embedding_to_json
    from verify_reference import reference_json

    cases = [case for plane, emb in _every_small_embedding() for case in _seeded_faults(plane, emb)]
    for case in cases:
        assert embedding_to_json(case) == reference_json(case), case
    monkeypatch.setattr(plane_mod, "LINE_MEMO_BOUND", 7)
    monkeypatch.setattr(graphs_mod, "_texts", {})
    for case in cases:
        assert embedding_to_json(case) == reference_json(case), case
        assert len(graphs_mod._texts) <= 7


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
check_plane_axioms consecutive_primitive_pair cycle_graph cyclic_plane
edge_list_graph element_order emit exists_embedding field_for first_primitive
gamma_map gamma_prime_map gear_graph gear_plan hypothesis_j_search
is_primitive labeling_for load_plane make_field pancyclicity_table
path_closed_form pg_cycle pg_from_field plane_for prime_power prime_powers_in
primitive_iter read_embedding save_plane singer_cycle singer_difference_set
verify_embedding wheel_graph wheel_plan write_embedding
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


def test_readme_quick_start_runs(capsys):
    # the README's one python block, run as written: an API change that
    # leaves the docs behind fails here
    from pathlib import Path

    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = text.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```")[0], "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["AG 9 57", "PATHS_ODD"], out


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


def test_cli_imports_no_dataclasses_inspect_or_typing():
    # every command starts cold, so what ``import planegraphs.cli`` pulls in
    # is paid on each run: dataclasses alone (inspect, ast, dis, tokenize)
    # cost more than the package.  -S keeps what site imports out of it
    import subprocess
    import sys
    from pathlib import Path

    import planegraphs

    src = str(Path(planegraphs.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import planegraphs.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_records_keep_their_contract(tmp_path, capsys):
    # the records are namedtuples and plain classes: value equality and
    # hashing, fields that refuse assignment, and the plane repr that
    # refusal messages carry are what callers see of them
    from planegraphs.cli import main
    from planegraphs.cycles import SlopeLabeling, labeling_for
    from planegraphs.gf import FieldSpec, field_for, hypothesis_j_search
    from planegraphs.oracle import exists_embedding
    from planegraphs.plane import save_plane
    from planegraphs.wheelgear import Plan, wheel_plan

    def twins(make):
        a, b = make(), make()
        assert a is not b and a == b and not a != b and hash(a) == hash(b), a
        return a

    plane = pg_from_field(3).to_generic()
    graph = twins(lambda: cycle_graph(5))
    assert graph != cycle_graph(6)
    found = twins(lambda: exists_embedding(cycle_graph(3), plane))
    emb = twins(lambda: emit(found.embedding.graph, found.embedding.vertex_images, plane))
    plan = wheel_plan(5, 4)
    twins(lambda: Plan(plan.route, plan.embedding))
    cert = twins(lambda: hypothesis_j_search(7))
    # a spec is its order and modulus; the factors of q - 1 follow from them
    spec = field_for(9)
    assert FieldSpec(spec.p, spec.a, spec.q, spec.modulus, ()) == spec
    assert not FieldSpec(spec.p, spec.a, spec.q, spec.modulus, ()) != spec
    assert hash(FieldSpec(spec.p, spec.a, spec.q, spec.modulus, ())) == hash(spec)
    assert FieldSpec(spec.p, spec.a, spec.q, (2, 1, 1), spec.factors) != spec
    lab = twins(lambda: SlopeLabeling.make(field_for(7), "A", labeling_for(7).alpha))
    # the process shares one spec, plane and labeling per order: none may change
    for record, name in [
        (spec, "factors"), (cert, "alpha"), (plane, "lines"), (graph, "edges"),
        (emb, "vertex_images"), (labeling_for(7), "alpha"), (plan, "route"),
        (cert, "extra"), (plan, "extra"), (labeling_for(7), "extra"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert labeling_for(7) == lab and field_for(9).factors == (2,)
    assert repr(plane) == "GenericPlane(q=3, n_points=13, model='GENERIC', transitive=True)"
    # a refusal that names a generic plane keeps its bytes
    save_plane(pg_from_field(2).to_generic(), tmp_path / "p2.json")
    write_embedding(found.embedding, tmp_path / "c3.json")
    assert main(["verify", str(tmp_path / "c3.json"), "--plane", str(tmp_path / "p2.json")]) == 1
    assert capsys.readouterr().err == (
        "fail: not an embedding in this plane: embedding targets GENERIC(2,3), "
        "got GenericPlane(q=2, n_points=7, model='GENERIC', transitive=False)\n"
    )
