"""Exhaustive embedding search over generic planes.

The oracle answers the ground-truth question: does this graph embed in
this plane at all?  It is deliberately model-free (point ids only) and is
used both as a fallback constructor for tiny planes and as the referee
that constructive routes are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Embedding, Graph, emit, make_embedding
from .plane import CoordPlane, GenericPlane

DEFAULT_BUDGET = 10**8

STATUS_FOUND = "found"
STATUS_NOTFOUND = "notfound"
STATUS_BUDGET = "budget"


@dataclass
class OracleResult:
    status: str
    embedding: Optional[Embedding]
    expansions: int


class _Budget(Exception):
    pass


def _vertex_order(graph: Graph) -> list:
    # max-degree vertex first, then BFS; repeats per component
    deg = [0] * graph.n_vertices
    adj = [[] for _ in range(graph.n_vertices)]
    for u, v in graph.edges:
        deg[u] += 1
        deg[v] += 1
        adj[u].append(v)
        adj[v].append(u)
    for a in adj:
        a.sort()
    order, seen = [], set()
    seeds = sorted(range(graph.n_vertices), key=lambda v: (-deg[v], v))
    for s in seeds:
        if s in seen:
            continue
        queue = [s]
        seen.add(s)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return order


def exists_embedding(
    graph: Graph, plane: GenericPlane, budget: int = DEFAULT_BUDGET
) -> OracleResult:
    """Depth-first search for an embedding; deterministic candidate order."""
    if graph.n_vertices > plane.n_points or len(graph.edges) > len(plane.lines):
        return OracleResult(STATUS_NOTFOUND, None, 0)
    if graph.max_degree > plane.max_pencil:
        return OracleResult(STATUS_NOTFOUND, None, 0)

    order = _vertex_order(graph)
    pos = {v: i for i, v in enumerate(order)}
    adj = [[] for _ in range(graph.n_vertices)]
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    # neighbors already placed when a vertex comes up
    back = [sorted(w for w in adj[v] if pos[w] < pos[v]) for v in order]

    img = [-1] * graph.n_vertices
    used_pts: set = set()
    used_lines: set = set()
    count = [0]

    def candidates(i: int) -> list:
        v = order[i]
        anchors = back[i]
        if not anchors:
            if i == 0 and plane.transitive:
                return [0]
            return [p for p in range(plane.n_points) if p not in used_pts]
        pool = None
        for u in anchors:
            reach = set()
            for li in plane.lines_through(img[u]):
                if li not in used_lines:
                    reach.update(plane.lines[li])
            pool = reach if pool is None else pool & reach
            if not pool:
                return []
        return sorted(p for p in pool if p not in used_pts)

    def place(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for p in candidates(i):
            count[0] += 1
            if count[0] > budget:
                raise _Budget
            lines_here = []
            ok = True
            for u in back[i]:
                li = plane.line_between(img[u], p)
                if li is None or li in used_lines or li in lines_here:
                    ok = False
                    break
                lines_here.append(li)
            if not ok:
                continue
            img[v] = p
            used_pts.add(p)
            used_lines.update(lines_here)
            if place(i + 1):
                return True
            img[v] = -1
            used_pts.discard(p)
            used_lines.difference_update(lines_here)
        return False

    try:
        found = place(0)
    except _Budget:
        return OracleResult(STATUS_BUDGET, None, count[0])
    if not found:
        return OracleResult(STATUS_NOTFOUND, None, count[0])
    emb = emit(graph, make_embedding("GENERIC", plane.q, graph, tuple(img), plane=plane), plane)
    return OracleResult(STATUS_FOUND, emb, count[0])


def exists_in_coords(
    graph: Graph, coord: CoordPlane, budget: int = DEFAULT_BUDGET
) -> OracleResult:
    """Search a coordinate plane through its generic view.

    A found embedding comes back in coordinates: the search's verified
    result with its point ids mapped to triples.  The coordinate copy is
    not verified again here; constructors hand it to ``graphs.emit``.
    """
    view = coord.to_generic()
    res = exists_embedding(graph, view.plane, budget)
    if res.embedding is None:
        return res
    imgs = [view.point_triples[i] for i in res.embedding.vertex_images]
    emb = make_embedding(coord.model, coord.q, graph, imgs, plane=coord)
    return OracleResult(res.status, emb, res.expansions)


def pancyclicity_table(
    plane: GenericPlane, budget: int = DEFAULT_BUDGET
) -> dict:
    """Oracle verdict for every cycle length 3..N; tiny planes only."""
    from .graphs import cycle_graph

    if plane.n_points > 21:
        raise ValueError("oracle table is exhaustive; refuse planes beyond 21 points")
    out = {}
    for k in range(3, plane.n_points + 1):
        out[k] = exists_embedding(cycle_graph(k), plane, budget=budget)
    return out
