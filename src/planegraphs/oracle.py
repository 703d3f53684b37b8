"""Exhaustive embedding search over generic and coordinate planes.

The oracle answers the ground-truth question: does this graph embed in
this plane at all?  It searches in point ids only, a coordinate plane
through ``to_generic``, and is used both as a fallback constructor for
tiny planes (``oracle``) and as the referee that constructive routes are
tested against (``exists_embedding``).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from .graphs import ConstructionFailed, Graph, cycle_graph, emit
from .plane import CoordPlane, GenericPlane

DEFAULT_BUDGET = 10**8
# the id view and index grow as the points squared: on 2 vCPUs PG(2,89)
# (8,011 points) sets up in about 1 s, PG(2,128) in 10 s and 300 MB
MAX_COORD_POINTS = 1 << 13

STATUS_FOUND = "found"
STATUS_NOTFOUND = "notfound"
STATUS_BUDGET = "budget"


# status is found, notfound or budget; embedding is None unless found
OracleResult = namedtuple("OracleResult", "status embedding expansions")


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


def _search(graph: Graph, plane: GenericPlane, budget: int) -> tuple:
    """Depth-first search with an explicit stack over int bitmasks.

    A vertex's candidates are the unused points that an unused line joins
    to each placed neighbour, tried by increasing point id; the first vertex
    of a transitive plane is pinned to point 0.  Each candidate tried is one
    expansion.  Returns (status, vertex images in point ids or None,
    expansions).  Masks, pencils and joins come from the plane's index.

    A candidate is also refused when too few lines are left for the edges
    not yet placed.  Each such edge needs its own unused line holding a free
    point and two points that are free or the image of an *active* vertex
    (placed, with a neighbour unplaced); every other line is *dead*, and a
    dead line stays dead down the branch.  So the refusal cuts only
    subtrees without an embedding, and the candidate order is unchanged.
    A dead unused line holds at least s - 1 placed points (s the smallest
    line), so after d placements at most d*r // (s - 1) of them exist
    (r the largest pencil): the count runs only while edges are left and
    that bound exceeds the spare lines, ``len(lines) - len(edges)``.

    While it runs, a candidate is also refused when more free points are
    *starved* than spare, ``n_points - m`` (m the vertices).  A free point is
    starved when fewer of its lines are neither used nor dead than the
    smallest degree among the vertices not yet placed.  Sound: a vertex of
    degree d placed later at x needs d distinct unused lines through x, none
    dead, and distinct vertices need distinct points; a starved point stays
    starved down the branch, since blocked lines stay blocked and that
    smallest degree never falls.  Only the points of the lines used or dead
    at a step are tested again, so the mask may miss a point, never add one.
    """
    if graph.n_vertices > plane.n_points or len(graph.edges) > len(plane.lines):
        return STATUS_NOTFOUND, None, 0
    if graph.max_degree > plane.max_pencil:
        return STATUS_NOTFOUND, None, 0

    n, (order, back) = plane.n_points, _placement(graph)
    masks, lines_at, pencil = plane.incidence()  # built once per plane
    r, s, m = plane.max_pencil, min(map(int.bit_count, masks), default=0), len(order)
    spare, left, cap = len(masks) - len(graph.edges), len(graph.edges), []
    for d in range(m + 1):  # per number placed: the most dead lines allowed
        cap.append(len(masks) - left if left and d * r >= (spare + 1) * (s - 1) else len(masks))
        left -= len(back[d]) if d < m else 0
    track = min(cap) < len(masks)  # whether any depth counts
    last, ends = [0] * graph.n_vertices, [[] for _ in range(m)]
    if track:  # per vertex, the depth that ends its activity; per depth, those vertices
        for t, v in enumerate(order):
            for u in (v, *back[t]):
                last[u] = t
        for v in order:
            ends[last[v]].append(v)
    # per number placed: the smallest degree among the vertices still to place
    least = [*accumulate(reversed([graph.degrees[v] for v in order]), min)][::-1] + [0]

    img = [-1] * graph.n_vertices
    pools, taken = [0] * m, [0] * m  # per depth: untried candidates, lines claimed
    dead, idle = [0] * (m + 1), [0] * (m + 1)  # per depth: dead lines, inactive images
    starved = [0] * (m + 1)  # per depth: free points with too few open lines
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
                    return STATUS_NOTFOUND, None, count
                used_pts ^= 1 << img[order[depth]]
                used_lines ^= taken[depth]
                pool = pools[depth]
                continue
            if count >= budget:
                return STATUS_BUDGET, None, count
            count += 1
            low = pool & -pool
            pool ^= low
            p, here = low.bit_length() - 1, 0
            for u in back[depth]:
                bit = lines_at[img[u]] & lines_at[p]
                bit &= -bit  # the smallest line through both
                if not bit or (used_lines | here) & bit:
                    break
                here |= bit
            else:
                img[order[depth]] = p
                if track:
                    # only lines through p or through a vertex that ends here die
                    idl, dl, free = idle[depth], dead[depth] | here, ~(used_pts | low)
                    for w in ends[depth]:
                        idl |= 1 << img[w]
                    hit, used = 0, here  # hit: the points of the lines dead or used here
                    for w in (order[depth], *ends[depth]):
                        for bit, mask in pencil[img[w]]:
                            if not dl & bit and (
                                not mask & free or not (live := mask & ~idl) & (live - 1)
                            ):
                                dl |= bit
                                hit |= mask
                    if dl.bit_count() > cap[depth + 1]:
                        continue  # too few lines left for the edges left
                    while used:
                        bit = used & -used
                        used ^= bit
                        hit |= masks[bit.bit_length() - 1]
                    st, need, open_ = starved[depth] & free, least[depth + 1], ~dl
                    hit &= free & ~st
                    while hit:
                        x = hit & -hit
                        hit ^= x
                        if (lines_at[x.bit_length() - 1] & open_).bit_count() < need:
                            st |= x
                    if st.bit_count() > n - m:
                        continue  # too few points left for the vertices left
                    dead[depth + 1], idle[depth + 1], starved[depth + 1] = dl, idl, st
                used_pts |= low
                used_lines |= here
                pools[depth], taken[depth] = pool, here
                depth += 1
                break
    return STATUS_FOUND, img, count


def exists_embedding(graph: Graph, plane, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Depth-first search for an embedding in a generic or coordinate plane.

    A found embedding comes back in the plane's own points (coordinates
    for a coordinate plane), as ``graphs.emit`` returns it: verified once,
    in that plane.
    """
    status, img, count = _search_in(graph, plane, budget)
    return OracleResult(status, None if img is None else emit(graph, img, plane), count)


def oracle(graph: Graph, plane) -> list:
    """The search as a constructor: the vertex images it found, in the
    plane's own points and unverified, for the caller to hand to
    ``graphs.emit``.  ConstructionFailed when it finds none."""
    status, img, _ = _search_in(graph, plane, DEFAULT_BUDGET)
    if img is None:
        raise ConstructionFailed(f"{graph.kind.lower()} search ended with {status}")
    return img


def _search_in(graph: Graph, plane, budget: int) -> tuple:
    # the search in point ids; a coordinate plane's images become its points.
    # A loaded plane is bounded by the size of its file, a plane a model
    # builds (coordinates or the cyclic model) by MAX_COORD_POINTS
    if plane.model != "GENERIC" and plane.n_points > MAX_COORD_POINTS:
        raise ValueError(f"exhaustive search refuses {plane.model}(2,{plane.q}): "
                         f"{plane.n_points} points exceed {MAX_COORD_POINTS}")
    if not isinstance(plane, CoordPlane):
        return _search(graph, plane, budget)
    status, img, count = _search(graph, plane.to_generic(), budget)
    pts = plane.points()
    return status, None if img is None else [pts[i] for i in img], count


def pancyclicity_table(plane, budget: int = DEFAULT_BUDGET) -> dict:
    """Oracle verdict for every cycle length 3..N, in a generic or
    coordinate plane; tiny planes only."""
    n = plane.n_points
    if n > 31:
        raise ValueError("oracle table is exhaustive; refuse planes beyond 31 points")
    out = {}
    for k in range(3, n + 1):
        out[k] = exists_embedding(cycle_graph(k), plane, budget=budget)
    return out
