"""Target graphs, embedding records, serialization, verifier behavior."""

import pytest

from planegraphs.graphs import (
    Embedding,
    FormatError,
    cycle_graph,
    edge_list_graph,
    gear_graph,
    graph_from_json,
    make_embedding,
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
    assert set(g.neighbors(0)) == {1, 3, 5, 7}


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


def _triangle_embedding(q=3):
    pgp = pg_from_field(q)
    graph = cycle_graph(3)
    imgs = [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
    return pgp, graph, make_embedding("PG", q, graph, imgs, plane=pgp)


def test_verify_passes_triangle():
    pgp, graph, emb = _triangle_embedding()
    rep = verify_embedding(graph, emb, pgp)
    assert rep.ok
    assert rep.vertices_injective and rep.edges_injective and rep.degree_bound_ok


def test_verify_flags_duplicate_vertices():
    pgp = pg_from_field(3)
    graph = cycle_graph(3)
    with pytest.raises(ValueError):
        # coincident images never even build: the joining line is undefined
        make_embedding("PG", 3, graph, [(0, 0, 1), (0, 0, 1), (0, 1, 1)], plane=pgp)


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
    emb = make_embedding("PG", 3, graph, imgs, plane=pgp)
    rep = verify_embedding(graph, emb, pgp)
    assert not rep.ok
    assert not rep.edges_injective


def test_verify_degree_bound():
    # W_4 needs center degree 4 > 3 available in PG(2,2)
    pgp = pg_from_field(2)
    graph = wheel_graph(4)
    imgs = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1), (0, 1, 0)]
    emb = make_embedding("PG", 2, graph, imgs, plane=pgp)
    rep = verify_embedding(graph, emb, pgp)
    assert not rep.ok
    assert not rep.degree_bound_ok


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


def test_make_embedding_needs_plane():
    graph = cycle_graph(3)
    with pytest.raises(ValueError):
        make_embedding("PG", 3, graph, [(0, 0, 1), (1, 0, 1), (0, 1, 1)])
