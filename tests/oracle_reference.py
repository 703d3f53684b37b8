"""A plain depth-first reference for ``planegraphs.oracle._search``.

The same explicit-stack loop over bitmasks, in the same candidate order,
with no pruning beyond the static size checks: the search the oracle's
pruned loop must agree with on every verdict and every found embedding,
while never examining more candidates.
"""

from planegraphs.oracle import STATUS_BUDGET, STATUS_FOUND, STATUS_NOTFOUND, _placement


def plain_search(graph, plane, budget: int) -> tuple:
    """(status, vertex images in point ids or None, expansions)."""
    if graph.n_vertices > plane.n_points or len(graph.edges) > len(plane.lines):
        return STATUS_NOTFOUND, None, 0
    if graph.max_degree > plane.max_pencil:
        return STATUS_NOTFOUND, None, 0

    n, (order, back) = plane.n_points, _placement(graph)
    masks = [sum(1 << p for p in set(line)) for line in plane.lines]
    pencil = [[(1 << li, masks[li]) for li in plane.lines_through(p)] for p in range(n)]
    joins, m = plane.joins(), len(order)

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
    return STATUS_FOUND, img, count
