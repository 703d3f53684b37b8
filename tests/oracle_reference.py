"""A plain depth-first reference for ``planegraphs.oracle._search``.

The same explicit-stack loop over bitmasks, in the same candidate order,
with no pruning beyond the static size checks: the search the oracle's
pruned loop must agree with on every verdict and every found embedding,
while never examining more candidates.  It reads only ``plane.lines`` and
``plane.n_points``, never the plane's own incidence index.
"""

from planegraphs.oracle import STATUS_BUDGET, STATUS_FOUND, STATUS_NOTFOUND, _placement


def reference_joins(plane) -> dict:
    """{(u, v): the smallest id of a line holding both u != v}, scanned
    from ``plane.lines``; ids outside 0..n_points-1 make no pair."""
    n, joins = plane.n_points, {}
    for li, line in enumerate(plane.lines):
        pts = [p for p in line if 0 <= p < n]
        for u in pts:
            for v in pts:
                if u != v:
                    joins.setdefault((u, v), li)
    return joins


def plain_search(graph, plane, budget: int) -> tuple:
    """(status, vertex images in point ids or None, expansions)."""
    n, lines = plane.n_points, plane.lines
    through = [[li for li, line in enumerate(lines) if p in line] for p in range(n)]
    if graph.n_vertices > n or len(graph.edges) > len(lines):
        return STATUS_NOTFOUND, None, 0
    if graph.max_degree > max(map(len, through), default=0):
        return STATUS_NOTFOUND, None, 0

    order, back = _placement(graph)
    masks = [sum(1 << p for p in set(line)) for line in lines]
    pencil = [[(1 << li, masks[li]) for li in t] for t in through]
    joins, m = reference_joins(plane), len(order)

    img = [-1] * graph.n_vertices
    pools, taken = [0] * m, [0] * m
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
            if not pool:
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
                li = joins.get((img[u], p))
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
    return STATUS_FOUND, img, count
