"""Wheel and gear embeddings in projective planes.

Wheels ride on arcs (parabola plus the conic's infinite point, plus the
nucleus in even characteristic) except for the tight odd-order case
W_{q+1}, which uses the spoke-pencil construction with a searched closing
vertex.  Gears split by size: small ones are wheels with alternate spokes
removed, mid-range ones braid two disjoint base paths through infinite
points, and the maximum gear alternates directions with affine points
chosen greedily.  Every route hands its embedding to ``graphs.emit``,
which verifies it once and returns it in a ``Plan`` or raises
ConstructionFailed; no route returns an unchecked embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .cycles import base_path, labeling_for
from .gf import make_field, prime_power
from .graphs import (
    ConstructionFailed,
    Embedding,
    Graph,
    ImpossibleDegree,
    emit,
    gear_graph,
    make_embedding,
    wheel_graph,
)
from .oracle import search_unverified
from .plane import (
    CoordPlane,
    GenericPlane,
    affine_triple,
    canon,
    incident,
    intersect,
    is_affine,
    line_through,
    parabola_points,
    pg_from_field,
)


ROUTE_ARC = "ARC"
ROUTE_EXPLICIT = "EXPLICIT"
ROUTE_FROM_WHEEL = "FROM_WHEEL"
ROUTE_PATHS_EVEN = "PATHS_EVEN"
ROUTE_PATHS_ODD = "PATHS_ODD"
ROUTE_MAX_EVEN = "MAX_EVEN"
ROUTE_MAX_ODD = "MAX_ODD"
ROUTE_ORACLE = "ORACLE"


@dataclass(frozen=True)
class Plan:
    """A verified wheel or gear embedding with the route that built it."""

    center: object
    rim: tuple
    spokes: tuple
    route: str
    embedding: Embedding


def _plan(graph: Graph, emb: Embedding, plane, route: str) -> Plan:
    emb = emit(graph, emb, plane)
    return Plan(
        center=emb.vertex_images[0],
        rim=emb.vertex_images[1:],
        spokes=tuple(img for (u, v), img in zip(graph.edges, emb.edge_images) if u == 0),
        route=route,
        embedding=emb,
    )


def _first_plan(graph: Graph, candidates, plane) -> Plan:
    """The plan of the first (embedding, route) candidate that passes ``emit``.

    Each candidate is verified once, the winner included.  When every
    candidate fails, the last failure is raised.
    """
    failure = ConstructionFailed(f"no {graph.kind.lower()} candidate in {plane}")
    for emb, route in candidates:
        try:
            return _plan(graph, emb, plane, route)
        except ConstructionFailed as e:
            failure = e
    raise failure


def _sized_graph(kind: str, n: int, q: int) -> Graph:
    # the degree bound comes first, so an absurd n builds no graph
    if n > q + 1:
        raise ImpossibleDegree(f"{kind} center degree {n} exceeds the pencil size {q + 1}")
    return wheel_graph(n) if kind == "wheel" else gear_graph(n)  # ValueError for n < 3


def _searched(graph: Graph, plane) -> Embedding:
    """The exhaustive oracle's embedding, in coordinates for a CoordPlane;
    unverified, since ``_plan`` verifies it."""
    res = search_unverified(graph, plane)
    if res.status != "found":
        raise ConstructionFailed(f"{graph.kind.lower()} search ended with {res.status}")
    return res.embedding


# ---------------------------------------------------------------------------
# arcs


def arc_points(q: int) -> list:
    """A largest easy arc of PG(2,q): the parabola with its infinite point,
    and the nucleus when the characteristic is two."""
    pp = prime_power(q)
    if pp is None:
        raise ValueError(f"q={q} is not a prime power")
    pts = parabola_points(make_field(*pp), q)
    pts.append((0, 1, 0))
    if q % 2 == 0:
        pts.append((1, 0, 0))
    return pts


# ---------------------------------------------------------------------------
# wheels


def wheel(q: int, n: int, plane=None) -> Embedding:
    return wheel_plan(q, n, plane).embedding


def wheel_plan(q: int, n: int, plane=None) -> Plan:
    """Embed the wheel W_n (center 0, rim 1..n) in PG(2,q), or in a loaded
    generic plane when one is passed.

    In PG(2,q) the route is the arc for most cells; for odd q and n = q+1
    it is the explicit pencil-and-transversal construction.  In a generic
    plane it is a greedy arc.  The exhaustive oracle is the fallback in
    both.  The returned embedding has passed the verifier.

    Raises ValueError when q is not a prime power or n < 3, and
    ImpossibleDegree when n > q+1 (the center needs n lines of one pencil).
    Raises ConstructionFailed when no route gives a verified embedding and
    the oracle finds none, that is, when no embedding exists (or the
    oracle's budget runs out first).  For 2 <= q <= 16 that happens only at
    (q, n) = (3, 4): the five vertices of W_4 must form a 5-arc, since any
    three of them span two edges at one vertex, which would share a line
    if the three were collinear; and PG(2,3) has no 5-arc (an arc of
    PG(2,q), q odd, has at most q+1 points).
    """
    if isinstance(plane, GenericPlane):
        return _wheel_generic(plane, n)
    if prime_power(q) is None:
        raise ValueError(f"q={q} is not a prime power")
    graph = _sized_graph("wheel", n, q)
    pgp = pg_from_field(q)
    if _arc_serves(q, n):
        emb = make_embedding(graph, arc_points(q)[: n + 1], pgp)
        return _plan(graph, emb, pgp, ROUTE_ARC)
    return _first_plan(graph, _wheel_explicit(q, pgp, graph), pgp)


def _arc_serves(q: int, n: int) -> bool:
    # the arc has q+1 points (q+2 for even q) and serves n <= q (n <= q+1 for even q)
    return q % 2 == 0 or n <= q


def _wheel_explicit(q: int, pgp: CoordPlane, graph) -> Iterator[tuple]:
    # odd q, n = q+1: rim points alternate between a fixed line's pencil
    # cut and a transversal m, closed off by a searched vertex T; the
    # oracle is the last candidate
    spec = pgp.spec
    O = (0, 0, 1)
    P = sorted(t for t in pgp.points() if not is_affine(t))  # points of the infinite line
    ells = [line_through(spec, O, t) for t in P]
    for c in range(1, q):
        m = canon(spec, (1, 0, spec.eneg(c)))  # x = c, through P[0]
        Qs = {i: intersect(spec, ells[i], m) for i in range(1, q + 1, 2)}
        zig = []
        for i in range(0, q, 2):
            zig.append(P[i])  # P_1, P_3, ... in 1-based speech
            if i + 1 <= q - 1:
                zig.append(Qs[i + 1])
        # zig = [P_1, Q_2, P_3, ..., Q_{q-1}, P_q]; close through T on ell_{q+1}
        t_line = ells[q]
        for T in sorted(t for t in pgp.points() if incident(spec, t, t_line)):
            if T == O or T == P[q] or T in zig:
                continue
            rim = zig + [T]
            yield make_embedding(graph, [O] + rim, pgp), ROUTE_EXPLICIT
    yield _searched(graph, pgp), ROUTE_ORACLE


def _wheel_generic(plane: GenericPlane, n: int) -> Plan:
    graph = _sized_graph("wheel", n, plane.q)
    arc = []
    for p in range(plane.n_points):
        ok = True
        for i in range(len(arc)):
            for j in range(i + 1, len(arc)):
                li = plane.line_between(arc[i], arc[j])
                if li is not None and p in plane.lines[li]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            arc.append(p)
        if len(arc) == n + 1:
            break
    if len(arc) == n + 1:
        try:
            emb = make_embedding(graph, arc, plane)
            return _plan(graph, emb, plane, ROUTE_ARC)
        except (ConstructionFailed, ValueError):
            pass
    return _plan(graph, _searched(graph, plane), plane, ROUTE_ORACLE)


# ---------------------------------------------------------------------------
# gears


def gear(q: int, n: int, plane=None) -> Embedding:
    return gear_plan(q, n, plane).embedding


def gear_plan(q: int, n: int, plane=None) -> Plan:
    if isinstance(plane, GenericPlane):
        return _gear_generic(plane, n)
    if prime_power(q) is None:
        raise ValueError(f"q={q} is not a prime power")
    graph = _sized_graph("gear", n, q)
    pgp = pg_from_field(q)
    if q <= 4 or (q, n) == (5, 4):
        emb, route = _searched(graph, pgp), ROUTE_ORACLE
    elif n <= (q + 1) // 2:
        # same vertex numbering; the gear simply forgets the even-rim spokes.
        # The arc needs no check as a wheel, the explicit wheel's candidates do.
        if _arc_serves(q, 2 * n):
            images = arc_points(q)[: 2 * n + 1]
        else:
            images = wheel_plan(q, 2 * n).embedding.vertex_images
        emb = make_embedding(graph, images, pgp)
        route = ROUTE_FROM_WHEEL
    elif n <= q:
        return _first_plan(graph, _gear_paths(q, n, pgp, graph), pgp)
    else:
        lab = labeling_for(q)
        if q % 2 == 0:
            emb, route = _gear_max_even(q, lab, pgp, graph), ROUTE_MAX_EVEN
        else:
            emb, route = _gear_max_odd(q, lab, pgp, graph), ROUTE_MAX_ODD
    return _plan(graph, emb, pgp, route)


def _gear_paths(q, n, pgp, graph) -> Iterator[tuple]:
    # the braided base paths, then the oracle below q = 8
    paths = _gear_paths_even if n % 2 == 0 else _gear_paths_odd
    yield from paths(q, n, labeling_for(q), pgp, graph)
    if q >= 8:
        raise ConstructionFailed(f"path route exhausted for G_{n} at q={q}")
    yield _searched(graph, pgp), ROUTE_ORACLE


def _gear_paths_even(q, n, lab, pgp, graph) -> Iterator[tuple]:
    spec = lab.spec
    O = (0, 0, 1)
    d0, d1 = lab.direction_point(0), lab.direction_point(1)
    for bp in range(1, q):
        P = [t.triple() for t in base_path(q, lab, bp).points]
        open_line = lab.class_line_through(1, P[0])  # joins (1) to P_0
        close_vert = lab.class_line_through(0, P[n - 2])  # joins P_{n-2} to (0)
        for bq in range(1, q):
            if bq == bp:
                continue
            Q = [t.triple() for t in base_path(q, lab, bq).points]
            if incident(spec, Q[n - 1], open_line):
                continue  # closing class-1 line would repeat the opening one
            if incident(spec, Q[1], close_vert):
                continue  # the two vertical connectors would coincide
            rim = P[: n - 1] + [d0] + Q[1:n] + [d1]
            yield make_embedding(graph, [O] + rim, pgp), ROUTE_PATHS_EVEN


def _gear_paths_odd(q, n, lab, pgp, graph) -> Iterator[tuple]:
    spec = lab.spec
    O = (0, 0, 1)
    d0 = lab.direction_point(0)
    ln = lab.through_o_line(n)
    s = lab.slopes[n]
    t_cands = [lab.direction_point(n)]
    t_cands += sorted(
        affine_triple(spec, x, spec.emul(s, x)) for x in range(1, q)
    )
    for bp in range(1, q):
        P = [t.triple() for t in base_path(q, lab, bp).points]
        for k in (1, n):
            back = lab.class_line_through(k, P[0])
            X = intersect(spec, back, lab.through_o_line(n - 3))
            if X == P[n - 3]:
                continue  # the rejoin point must land on the other path
            Q = [None] * (n - 2)
            Q[n - 3] = X
            for i in range(n - 3, 0, -1):
                link = lab.class_line_through(i + 1, Q[i])
                Q[i - 1] = intersect(spec, link, lab.through_o_line(i - 1))
            for T in t_cands:
                rim = P[:n] + [d0, T] + Q
                if T in P or T in Q:
                    continue
                try:
                    emb = make_embedding(graph, [O] + rim, pgp)
                except ValueError:
                    continue
                yield emb, ROUTE_PATHS_ODD


def _affine_points_sorted(pgp: CoordPlane) -> list:
    return [t for t in pgp.points() if is_affine(t)]


def _gear_max_even(q, lab, pgp, graph) -> Embedding:
    spec = lab.spec
    n2 = q + 1
    cand = _affine_points_sorted(pgp)
    O = (0, 0, 1)
    A = []
    used = set()
    for i in range(n2):
        li = lab.through_o_line(i)
        lo = lab.through_o_line((i + 1) % n2)
        prev = lab.class_line_through(i, A[i - 1]) if i >= 1 else None
        wrap = lab.class_line_through(0, A[0]) if i == q else None
        for pt in cand:
            if pt == O or pt in used:
                continue
            if incident(spec, pt, li) or incident(spec, pt, lo):
                continue
            if prev is not None and incident(spec, pt, prev):
                continue
            if wrap is not None and incident(spec, pt, wrap):
                continue
            A.append(pt)
            used.add(pt)
            break
        else:
            raise ConstructionFailed(f"greedy rim choice exhausted PG(2,{q})")
    rim = []
    for i in range(n2):
        rim += [lab.direction_point(i), A[i]]
    return make_embedding(graph, [O] + rim, pgp)


def _gear_max_odd(q, lab, pgp, graph) -> Embedding:
    spec = lab.spec
    n2 = q + 1
    cand = _affine_points_sorted(pgp)
    O = (0, 0, 1)
    A = {}
    used = set()
    for i in range(1, n2):
        li = lab.through_o_line(i)
        lo = lab.through_o_line((i + 1) % n2)
        prev = lab.class_line_through(i, A[i - 1]) if i >= 2 else None
        for pt in cand:
            if pt == O or pt in used:
                continue
            if incident(spec, pt, li) or incident(spec, pt, lo):
                continue
            if prev is not None and incident(spec, pt, prev):
                continue
            A[i] = pt
            used.add(pt)
            break
        else:
            raise ConstructionFailed(f"greedy rim choice exhausted PG(2,{q})")
    # the class-0/class-1 corner vertex goes last, when its avoidances are known
    l0, l1 = lab.through_o_line(0), lab.through_o_line(1)
    av0 = lab.class_line_through(0, A[q])
    av1 = lab.class_line_through(1, A[1])
    for pt in cand:
        if pt == O or pt in used:
            continue
        if incident(spec, pt, l0) or incident(spec, pt, l1):
            continue
        if incident(spec, pt, av0) or incident(spec, pt, av1):
            continue
        A[0] = pt
        break
    else:
        raise ConstructionFailed(f"no corner vertex available in PG(2,{q})")
    rim = []
    for i in range(n2):
        rim += [lab.direction_point(i), A[i]]
    return make_embedding(graph, [O] + rim, pgp)


def _gear_generic(plane: GenericPlane, n: int) -> Plan:
    graph = _sized_graph("gear", n, plane.q)
    if 2 * n <= plane.q + 1:
        try:
            big = wheel_plan(plane.q, 2 * n, plane).embedding
            emb = make_embedding(graph, big.vertex_images, plane)
            return _plan(graph, emb, plane, ROUTE_FROM_WHEEL)
        except (ConstructionFailed, ValueError):
            pass
    return _plan(graph, _searched(graph, plane), plane, ROUTE_ORACLE)
