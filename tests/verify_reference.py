"""A plain per-edge reference for ``planegraphs.graphs.verify_embedding``
and ``embedding_to_json``.

The verifier walks the vertices and then the edges one at a time, with no
point ids and no memo: a coordinate plane's containment rule is spelled out
here and each edge's line is derived by ``line_through``; a generic plane's
lines come from ``reference_joins``, scanned from ``plane.lines``.  The
writer hands the whole document to ``json``.  The package's verifier and
writer must agree with these on every embedding, faulty ones included.
"""

import json

from oracle_reference import reference_joins
from planegraphs.graphs import VerifyReport
from planegraphs.plane import CoordPlane, line_through


def reference_contains(plane, P) -> bool:
    if not isinstance(plane, CoordPlane):
        return type(P) is int and 0 <= P < plane.n_points
    if type(P) is not tuple or len(P) != 3 or any(type(c) is not int for c in P):
        return False
    x, y, z = P
    return (x or y or z) == 1 and all(0 <= c < plane.q for c in P) and (z != 0 or plane.model == "PG")


def reference_verify(graph, emb, plane) -> VerifyReport:
    if emb.graph.edges != graph.edges or emb.graph.n_vertices != graph.n_vertices:
        raise ValueError("embedding was built for a different graph")
    if len(emb.vertex_images) != graph.n_vertices:
        raise ValueError("one image per vertex required")
    stored = emb.edge_images
    if stored is not None and len(stored) != len(graph.edges):
        raise ValueError("one image per edge required")
    if emb.model != plane.model or emb.q != plane.q:
        raise ValueError(f"embedding targets {emb.model}(2,{emb.q}), got {plane}")
    for v, P in enumerate(emb.vertex_images):
        if not reference_contains(plane, P):
            raise ValueError(f"vertex {v} image {P!r} is not a point of {plane}")

    coord = isinstance(plane, CoordPlane)
    joins = None if coord else reference_joins(plane)
    violations, lines = [], []
    for i, (u, v) in enumerate(graph.edges):
        P, Q = emb.vertex_images[u], emb.vertex_images[v]
        line = None if P == Q else line_through(plane.spec, P, Q) if coord else joins.get((P, Q))
        lines.append(line)
        if line is None:
            why = " endpoints map to one point" if P == Q else f": no line joins points {P},{Q}"
            violations.append(f"edge {(u, v)}{why}")
        elif stored is not None and stored[i] != line:
            violations.append(f"edge {(u, v)} stores line {stored[i]}, its endpoints span {line}")

    if len(set(emb.vertex_images)) != graph.n_vertices:
        violations.append("vertex images collide")
    defined = [l for l in lines if l is not None]
    if len(set(defined)) != len(defined):
        violations.append("edge lines collide")
    if graph.max_degree > plane.max_pencil:
        violations.append(f"max degree {graph.max_degree} exceeds pencil size {plane.max_pencil}")
    return VerifyReport(violations, tuple(lines))


def reference_json(emb) -> str:
    doc = {
        "plane": {"model": emb.model, "q": emb.q},
        "graph": emb.graph.json_dict(),
        "vertices": list(enumerate(emb.vertex_images)),
        "edges": list(zip(emb.graph.edges, emb.edge_images)),
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"
