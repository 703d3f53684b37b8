"""Graphs, plane embeddings of graphs, and the embedding file format.

An embedding maps vertices to distinct plane points and edges to distinct
plane lines, each edge's line passing through both endpoint images.  Since
two points span one line, the edge map is determined by the vertex map:
a construction hands ``emit`` vertex images alone, and the edge images of
the embedding it returns are the lines the verifier derives, once each,
from the point ids the plane gives the images (``point_ids``, then
``edge_lines``).  Stored edge images, as in an embedding file, are compared
with those.  The writer joins a file from the JSON text of each vertex id,
image and edge, into the bytes ``json`` writes; it remembers the text of
each item of the tuples the graph builders, the verifier and ``emit`` make
(``_Exact``), whose items are ints, tuples of ints or None.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cached_property

from .plane import FormatError, format_errors, remember


class ImpossibleDegree(ValueError):
    """A vertex needs more lines through its image than the plane has."""


class ConstructionFailed(RuntimeError):
    """No verifier-passing embedding came out of the attempted routes."""


class Graph(namedtuple("Graph", "kind n_vertices edges param", defaults=(None,))):
    """A graph: its edges are sorted (u, v) pairs, u < v; param is the k
    of a cycle or the n of a wheel or gear, None for an edge list."""

    @cached_property
    def degrees(self) -> tuple:
        """Each vertex's degree, counted once per graph; kept outside the
        fields, so equality, hashing and ``json_dict`` ignore it."""
        deg = [0] * self.n_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @cached_property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    def json_dict(self) -> dict:
        if self.kind == "CYCLE":
            return {"kind": "CYCLE", "k": self.param}
        if self.kind in ("WHEEL", "GEAR"):
            return {"kind": self.kind, "n": self.param}
        return {"kind": "EDGE_LIST", "vertices": self.n_vertices, "edges": self.edges}


class _Exact(tuple):
    # items that are ints, tuples of ints or None, as the graph builders and
    # the verifier make them, so the writer need not check their types
    __slots__ = ()


def _check_ids(*ids) -> None:
    # the one rule for vertex ids, from files too: JSON true and 1.0 are none
    for v in ids:
        if type(v) is not int or v < 0:
            raise FormatError(f"vertex id {v!r} is not an integer >= 0")


def _norm_edges(edges) -> tuple:
    out = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop edge at {u}")
        out.add((u, v) if u < v else (v, u))
    return _Exact(sorted(out))  # of the ids its callers have checked or made


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    # in sorted order, as Graph.edges requires
    edges = _Exact(((0, 1), (0, k - 1)) + tuple(zip(range(1, k - 1), range(2, k))))
    return Graph("CYCLE", k, edges, param=k)


def wheel_graph(n: int) -> Graph:
    # center 0, rim 1..n
    if n < 3:
        raise ValueError("wheel needs rim length at least 3")
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    edges += [(0, i) for i in range(1, n + 1)]
    return Graph("WHEEL", n + 1, _norm_edges(edges), param=n)


def gear_graph(n: int) -> Graph:
    # center 0, rim 1..2n; odd rim ids carry the spokes, so vertex 1 has degree 3
    if n < 3:
        raise ValueError("gear needs at least 3 spokes")
    rim = [(i, i % (2 * n) + 1) for i in range(1, 2 * n + 1)]
    spokes = [(0, i) for i in range(1, 2 * n + 1, 2)]
    return Graph("GEAR", 2 * n + 1, _norm_edges(rim + spokes), param=n)


def edge_list_graph(edges, n_vertices: int | None = None) -> Graph:
    edges = list(edges)
    _check_ids(*(v for pair in edges for v in pair))
    e = _norm_edges(edges)
    top = max((v for pair in e for v in pair), default=-1) + 1
    n = top if n_vertices is None else n_vertices
    if type(n) is not int or n < top:
        raise FormatError(f"vertex count {n!r} is not an integer above every vertex id")
    return Graph("EDGE_LIST", n, e)


def graph_from_json(doc: dict) -> Graph:
    with format_errors("graph"):
        kind = doc.get("kind")
        if kind == "CYCLE":
            return cycle_graph(doc["k"])
        if kind == "WHEEL":
            return wheel_graph(doc["n"])
        if kind == "GEAR":
            return gear_graph(doc["n"])
        if kind == "EDGE_LIST":
            return edge_list_graph([tuple(e) for e in doc["edges"]], doc.get("vertices"))
        raise FormatError(f"unknown graph kind {kind!r}")


def declared_size(doc) -> int | None:
    """The vertex count a CYCLE, WHEEL or GEAR document declares, read
    without building the graph, when its parameter is an integer >= 3 (so
    the build cannot fail); None for any other document."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    p = doc.get("k" if kind == "CYCLE" else "n") if kind in ("CYCLE", "WHEEL", "GEAR") else None
    if type(p) is int and p >= 3:  # else the build fails, or costs no more than the file
        return {"CYCLE": p, "WHEEL": p + 1, "GEAR": 2 * p + 1}[kind]
    return None


# ---------------------------------------------------------------------------


# model is PG, AG, CYCLIC or GENERIC; vertex_images are indexed by vertex
# id, triples or int ids; edge_images are aligned with graph.edges, None
# until derived
Embedding = namedtuple("Embedding", "model q graph vertex_images edge_images")


class VerifyReport(namedtuple("VerifyReport", "violations lines")):
    """A verifier's verdict: violations is empty exactly when the embedding
    passes, and lines holds each edge's derived line, None where no line
    joins its ends."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_embedding(graph: Graph, emb: Embedding, plane) -> VerifyReport:
    """Check an embedding against the plane it claims to live in, a
    coordinate plane or a generic one.

    Each edge's line is derived once, from the point ids of its endpoint
    images, and handed back as ``lines``; stored edge images, where the
    embedding has them, are compared with the derived ones.  Structural
    mismatches (wrong plane, image outside the plane) raise; mathematical
    failures are collected into the report.
    """
    if emb.graph.edges != graph.edges or emb.graph.n_vertices != graph.n_vertices:
        raise ValueError("embedding was built for a different graph")
    if len(emb.vertex_images) != graph.n_vertices:
        raise ValueError("one image per vertex required")
    stored = emb.edge_images
    if stored is not None and len(stored) != len(graph.edges):
        raise ValueError("one image per edge required")
    if emb.model != plane.model or emb.q != plane.q:
        raise ValueError(f"embedding targets {emb.model}(2,{emb.q}), got {plane}")
    images = emb.vertex_images
    ids = plane.point_ids(images)
    if type(ids) is int:
        raise ValueError(f"vertex {ids} image {images[ids]!r} is not a point of {plane}")

    violations, lines = [], _Exact(plane.edge_lines(ids, graph.edges))
    failing = None in lines or stored is not None and tuple(stored) != lines
    for i, (u, v) in enumerate(graph.edges if failing else ()):  # in order, once one fails
        P, Q, line = images[u], images[v], lines[i]
        if line is None:
            why = " endpoints map to one point" if P == Q else f": no line joins points {P},{Q}"
            violations.append(f"edge {(u, v)}{why}")
        elif stored is not None and stored[i] != line:
            violations.append(f"edge {(u, v)} stores line {stored[i]}, its endpoints span {line}")

    if len(set(ids)) != graph.n_vertices:
        violations.append("vertex images collide")
    if len(set(lines) - {None}) != len(lines) - lines.count(None):
        violations.append("edge lines collide")
    if graph.max_degree > plane.max_pencil:
        violations.append(f"max degree {graph.max_degree} exceeds pencil size {plane.max_pencil}")
    return VerifyReport(violations, lines)


def emit(graph: Graph, vertex_images, plane) -> Embedding:
    """The embedding of ``graph`` in ``plane`` with these vertex images,
    returned once it passes the verifier; its edge images are the lines the
    verifier derived, and its model and order are the plane's.

    This is the one check between a construction and its caller, so it
    raises instead of asserting: it holds under ``python -O`` too.  A
    failed verification, or images that do not even fit the graph or the
    plane, raises ConstructionFailed.
    """
    # the images are _Exact once the verifier passes them, and returned only then
    emb = Embedding(plane.model, plane.q, graph, _Exact(vertex_images), None)
    try:
        rep = verify_embedding(graph, emb, plane)
    except ValueError as e:
        raise ConstructionFailed(f"{graph.kind} in {plane}: {e}") from e
    if not rep.ok:
        raise ConstructionFailed(
            f"{graph.kind} in {plane} fails verification: " + "; ".join(rep.violations)
        )
    return emb._replace(edge_images=rep.lines)


# ---------------------------------------------------------------------------
# embedding files


# one encoder for every document; a document is a tree, with no container
# cycle to check for
_JSON = json.JSONEncoder(separators=(",", ":"), check_circular=False)


# the JSON text of each item of an _Exact tuple written, by value; items of
# other tuples are encoded afresh, since (0, 0, True) would find (0, 0, 1)
_texts = {}


def _json_texts(items) -> list:
    if type(items) is not _Exact:
        return list(map(_JSON.encode, items))
    texts = list(map(_texts.get, items))
    if not all(texts):
        texts = [t or remember(_texts, x, _JSON.encode(x)) for t, x in zip(texts, items)]
    return texts


def embedding_to_json(emb: Embedding) -> str:
    """The bytes ``json`` writes for the document, from remembered texts."""
    head = _JSON.encode({"plane": dict(model=emb.model, q=emb.q), "graph": emb.graph.json_dict()})
    lists = []  # the bodies of [vertex, image] and of [edge, image] pairs
    ids = _Exact(range(len(emb.vertex_images)))
    for heads, tails in (ids, emb.vertex_images), (emb.graph.edges, emb.edge_images):
        heads, tails = _json_texts(heads), _json_texts(tails)
        n = min(len(heads), len(tails))  # as zip pairs them
        parts = ["[", None, ",", None, "],"] * n
        parts[1::5], parts[3::5] = heads[:n], tails[:n]
        lists.append("".join(parts)[:-1])
    return f'{head[:-1]},"vertices":[{lists[0]}],"edges":[{lists[1]}]}}\n'


def _img_load(raw, model: str):
    # coordinate models store integer triples, the others integer ids
    if model in ("PG", "AG"):
        if isinstance(raw, list) and len(raw) == 3 and all(type(c) is int for c in raw):
            return tuple(raw)
    elif type(raw) is int:
        return raw
    raise FormatError(f"{raw!r} is not an image in a {model} embedding")


def write_embedding(emb: Embedding, path) -> None:
    with open(path, "w") as fh:
        fh.write(embedding_to_json(emb))


def read_embedding(path) -> Embedding:
    """Load an embedding file; a malformed document raises FormatError."""
    with open(path) as fh, format_errors(f"embedding file {path}"):
        doc = json.load(fh)
        plane = doc.get("plane", {})
        model, q = plane.get("model"), plane.get("q")
        if model not in ("PG", "AG", "CYCLIC", "GENERIC"):
            raise FormatError(f"unknown plane model {model!r}")
        if not isinstance(q, int) or q < 2:
            raise FormatError(f"bad plane order {q!r}")
        # a CYCLE, WHEEL or GEAR graph is built only once the vertex list fits it
        size = declared_size(doc["graph"])
        graph = graph_from_json(doc["graph"]) if size is None else None
        vimg: dict = {}
        for item in doc["vertices"]:
            v, raw = item
            _check_ids(v)
            if v in vimg:
                raise FormatError(f"vertex {v} listed twice")
            vimg[v] = _img_load(raw, model)
        n = graph.n_vertices if graph else size
        if len(vimg) != n or sorted(vimg) != list(range(n)):
            raise FormatError("vertex list must cover 0..n-1 exactly once")
        graph = graph or graph_from_json(doc["graph"])
        edges = set(graph.edges)
        eimg = {}
        for item in doc["edges"]:
            (u, v), raw = item
            _check_ids(u, v)
            e = (u, v) if u < v else (v, u)
            if e not in edges:
                raise FormatError(f"edge {e} is not in the graph")
            if e in eimg:
                raise FormatError(f"edge {e} listed twice")
            eimg[e] = _img_load(raw, model)
        if set(eimg) != edges:
            raise FormatError("edge list must cover every graph edge")
    return Embedding(
        model=model,
        q=q,
        graph=graph,
        vertex_images=tuple(vimg[v] for v in range(graph.n_vertices)),
        edge_images=tuple(eimg[e] for e in graph.edges),
    )

