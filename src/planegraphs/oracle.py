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


def _placement(graph: Graph) -> tuple:
    """The order vertices are placed in (max-degree vertex first, then BFS;
    repeats per component) and, for each, its neighbours placed before it."""
    adj = [[] for _ in range(graph.n_vertices)]
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    for a in adj:
        a.sort()
    order, seen = [], set()
    for s in sorted(range(graph.n_vertices), key=lambda v: (-len(adj[v]), v)):
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
    pos = {v: i for i, v in enumerate(order)}
    return order, [[w for w in adj[v] if pos[w] < pos[v]] for v in order]


def _search(graph: Graph, plane: GenericPlane, budget: int) -> OracleResult:
    """Depth-first search with an explicit stack over int bitmasks.

    A vertex's candidates are the unused points that an unused line joins
    to each placed neighbour, tried by increasing point id; the first vertex
    of a transitive plane is pinned to point 0.  Each candidate tried is one
    expansion.  A found embedding is not verified here.
    """
    if graph.n_vertices > plane.n_points or len(graph.edges) > len(plane.lines):
        return OracleResult(STATUS_NOTFOUND, None, 0)
    if graph.max_degree > plane.max_pencil:
        return OracleResult(STATUS_NOTFOUND, None, 0)

    n, (order, back) = plane.n_points, _placement(graph)
    masks = [sum(1 << p for p in set(line)) for line in plane.lines]
    # each point's lines as (line bit, point mask) pairs
    pencil = [[(1 << li, masks[li]) for li in plane.lines_through(p)] for p in range(n)]
    joins, m = plane.joins(), len(order)

    img = [-1] * graph.n_vertices
    pools, taken = [0] * m, [0] * m  # per depth: untried candidates, lines claimed
    used_pts = used_lines = depth = count = 0
    while depth < m:
        if not back[depth]:
            pool = 1 if depth == 0 and plane.transitive else ~used_pts & ((1 << n) - 1)
        else:
            pool = ~used_pts
            for u in back[depth]:
                reach = 0
                for bit, mask in pencil[img[u]]:
                    if not used_lines & bit:
                        reach |= mask
                pool &= reach
        while True:
            if not pool:  # back up a level
                depth -= 1
                if depth < 0:
                    return OracleResult(STATUS_NOTFOUND, None, count)
                used_pts ^= 1 << img[order[depth]]
                used_lines ^= taken[depth]
                pool = pools[depth]
                continue
            if count >= budget:
                return OracleResult(STATUS_BUDGET, None, count)
            count += 1
            low = pool & -pool
            pool ^= low
            p, here = low.bit_length() - 1, 0
            for u in back[depth]:
                li = joins[img[u] * n + p]
                if li is None or (used_lines | here) >> li & 1:
                    break
                here |= 1 << li
            else:
                img[order[depth]] = p
                used_pts |= low
                used_lines |= here
                pools[depth], taken[depth] = pool, here
                depth += 1
                break
    emb = make_embedding("GENERIC", plane.q, graph, tuple(img), plane=plane)
    return OracleResult(STATUS_FOUND, emb, count)


def exists_embedding(
    graph: Graph, plane: GenericPlane, budget: int = DEFAULT_BUDGET
) -> OracleResult:
    """Depth-first search for an embedding; a found one is verified once."""
    res = _search(graph, plane, budget)
    if res.embedding is not None:
        emit(graph, res.embedding, plane)
    return res


def exists_in_coords(
    graph: Graph, coord: CoordPlane, budget: int = DEFAULT_BUDGET
) -> OracleResult:
    """Search a coordinate plane through its generic view.

    A found embedding comes back in coordinates: the search's verified
    result with its point ids mapped to triples, not verified again.
    """
    return _in_coords(exists_embedding, graph, coord, budget)


def search_unverified(graph: Graph, plane, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """The search on a generic or coordinate plane, its result unverified:
    for constructors, which hand it to ``graphs.emit``."""
    if isinstance(plane, CoordPlane):
        return _in_coords(_search, graph, plane, budget)
    return _search(graph, plane, budget)


def _in_coords(search, graph: Graph, coord: CoordPlane, budget: int) -> OracleResult:
    view = coord.to_generic()
    res = search(graph, view.plane, budget)
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
