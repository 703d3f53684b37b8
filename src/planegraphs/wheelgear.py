"""Wheel and gear embeddings in projective planes.

Wheels ride on arcs (parabola plus the conic's infinite point, plus the
nucleus in even characteristic) except for the tight odd-order case
W_{q+1}, which uses the spoke-pencil construction with a searched closing
vertex.  Gears split by size: small ones are wheels with alternate spokes
removed, mid-range ones braid two disjoint base paths, scaled from the
labeling's walk, through infinite points, and the maximum gear alternates
directions with affine points chosen greedily.  In a loaded generic plane
the arc is a greedy one, the path and maximum gears wait for a labeling,
and the oracle comes last.

Wheels and gears each have one list of routes for both kinds of plane,
a generator of (vertex images, route) candidates; ``_arc`` gives the arc
of either plane, and the ``paper`` predicate gates the path and maximum
gears, which fall back on nothing in PG(2,q).  One loop, ``_plan``, hands
each candidate's images to ``graphs.emit``, which verifies them once and
derives the edge lines, and returns the first that passes as a ``Plan``:
the route's tag and the ``Embedding`` that ``emit`` returned.  No route
returns an unchecked embedding.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator

from .cycles import labeling_for
from .gf import field_for
from .graphs import (
    ConstructionFailed,
    Embedding,
    Graph,
    ImpossibleDegree,
    emit,
    gear_graph,
    wheel_graph,
)
from .oracle import oracle
from .plane import (
    ORIGIN,
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
    """A verified wheel or gear embedding with the route that built it.
    In the embedding the center is vertex 0's image, the rim the rest, in
    rim order, and the spokes are the edge images of the edges (0, i)."""

    route: str
    embedding: Embedding


def _plan(kind: str, q: int, n: int, plane, routes) -> Plan:
    """The first (vertex images, route) candidate of ``routes(plane, graph,
    n)`` that passes ``emit``, as a Plan, for the graph W_n or G_n by
    ``kind`` in ``plane`` (a GenericPlane) or, with no plane, PG(2,q).  Each
    candidate is verified once; a refused one is skipped, and when all fail
    the last refusal is raised.  A route that raises while yielding ends
    the loop.  The degree bound comes first, so an absurd n builds no graph.
    """
    if plane is None:
        plane = pg_from_field(q)
    elif not isinstance(plane, GenericPlane):
        raise ValueError(f"{kind} plane must be a GenericPlane, not {plane!r}")
    if n > plane.q + 1:
        raise ImpossibleDegree(f"{kind} center degree {n} exceeds the pencil size {plane.q + 1}")
    graph = wheel_graph(n) if kind == "wheel" else gear_graph(n)  # ValueError for n < 3
    failure = ConstructionFailed(f"no {kind} candidate in {plane}")
    for images, route in routes(plane, graph, n):
        try:
            emb = emit(graph, images, plane)
        except ConstructionFailed as e:
            failure = e
            continue
        return Plan(route, emb)
    raise failure


# ---------------------------------------------------------------------------
# arcs


def arc_points(q: int) -> list:
    """A largest easy arc of PG(2,q): the parabola with its infinite point,
    and the nucleus when the characteristic is two."""
    pts = parabola_points(field_for(q), q)
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

    One list of routes serves both kinds of plane.  ARC takes the first n+1
    points of the plane's arc, ``arc_points(q)`` in PG(2,q) and a greedy
    arc in a generic plane, when it has that many (in PG(2,q): n <= q, and
    every n when q is even).  Otherwise PG(2,q) tries EXPLICIT, the
    pencil-and-transversal construction (odd q, n = q+1).  ORACLE comes
    last: in PG(2,q) ARC has no fallback and EXPLICIT falls back to ORACLE;
    in a generic plane ORACLE follows ARC.  The returned embedding has
    passed the verifier.

    Raises ValueError when no plane is passed and ``gf.field_for`` refuses
    q (with a plane, q is not read and q below is the plane's order), when
    n < 3 or when a plane is passed that is not a GenericPlane, and
    ImpossibleDegree when n > q+1 (the center needs n lines of one
    pencil).  Raises ConstructionFailed when every route fails, the oracle
    included where it is the fallback: no embedding exists (or the
    oracle's budget runs out first).  For 2 <= q <= 32 that happens only
    at (q, n) = (3, 4): the five vertices of W_4 must form a 5-arc, since
    any three of them span two edges at one vertex, which would share a
    line if the three were collinear; and PG(2,3) has no 5-arc (an arc of
    PG(2,q), q odd, has at most q+1 points).
    """
    return _plan("wheel", q, n, plane, _wheel_routes)


def _wheel_routes(plane, graph: Graph, n: int) -> Iterator[tuple]:
    coord, arc = isinstance(plane, CoordPlane), _arc(plane, n + 1)
    if len(arc) == n + 1:
        yield arc, ROUTE_ARC
        if coord:
            return  # PG(2,q)'s arc has no fallback
    elif coord:
        yield from _wheel_explicit(plane)
    yield oracle(graph, plane), ROUTE_ORACLE


def _arc(plane, size: int) -> list:
    # up to ``size`` arc points: a prefix of ``arc_points`` in PG(2,q), else
    # each the first id on no line through two earlier ones
    if isinstance(plane, CoordPlane):
        return arc_points(plane.q)[:size]
    arc = []
    for p in range(plane.n_points):
        if len(arc) == size:
            break
        joins = (plane.line_between(a, b) for i, a in enumerate(arc) for b in arc[i + 1 :])
        if not any(li is not None and p in plane.lines[li] for li in joins):
            arc.append(p)
    return arc


def _wheel_explicit(pgp: CoordPlane) -> Iterator[tuple]:
    # odd q, n = q+1: rim points alternate between a fixed line's pencil
    # cut and a transversal m, closed off by a searched vertex T
    spec, q = pgp.spec, pgp.q
    P = [t for t in pgp.points() if not is_affine(t)]  # points of the infinite line
    ells = [line_through(spec, ORIGIN, t) for t in P]
    for c in range(1, q):
        m = canon(spec, (1, 0, spec.eneg(c)))  # x = c, through P[0]
        # zig = [P_1, Q_2, P_3, ..., Q_{q-1}, P_q] in 1-based speech, Q_i on
        # ell_i and m; close through T on ell_{q+1}
        zig = [x for i in range(0, q, 2) for x in (P[i], intersect(spec, ells[i + 1], m))][:-1]
        t_line = ells[q]
        for T in pgp.points():
            if T == ORIGIN or T == P[q] or T in zig or not incident(spec, T, t_line):
                continue
            yield [ORIGIN] + zig + [T], ROUTE_EXPLICIT


# ---------------------------------------------------------------------------
# gears


def gear(q: int, n: int, plane=None) -> Embedding:
    return gear_plan(q, n, plane).embedding


def gear_plan(q: int, n: int, plane=None) -> Plan:
    """Embed the gear G_n (center 0, rim 1..2n, spokes to the odd rim
    vertices) in PG(2,q), or in a loaded generic plane when one is passed.

    One list of routes serves both kinds of plane.  FROM_WHEEL, for
    n <= (q+1)/2, takes the images of W_{2n}'s routes (ARC, EXPLICIT, ORACLE,
    as in ``wheel_plan``), verified once as G_n, which forgets the even-rim
    spokes.  The paper's routes need PG(2,q) with q > 4 and (q, n) neither
    (5, 4) nor (5, 5): PATHS_EVEN or PATHS_ODD (by n's parity), two braided
    base paths, for (q+1)/2 < n <= q, which leaves them q >= 7, and MAX_EVEN
    or MAX_ODD (by q's parity), direction points alternating with greedy
    affine points, for n = q+1.  ORACLE comes last: in PG(2,q) FROM_WHEEL,
    PATHS and MAX have no fallback, and ORACLE alone serves the cells
    outside the paper's routes; in a generic plane ORACLE follows
    FROM_WHEEL, also when W_{2n} has no embedding, and serves every larger n
    alone.  The returned embedding has passed the verifier.

    Raises ValueError when no plane is passed and ``gf.field_for`` refuses
    q (with a plane, q is not read and q below is the plane's order), when
    n < 3 or when a plane is passed that is not a GenericPlane, and
    ImpossibleDegree when n > q+1.  Raises ConstructionFailed when every
    route fails, the oracle included where it is the fallback; running out
    of path candidates raises "path route exhausted".  For
    2 <= q <= 32 the only refused cell is G_3 in PG(2,2), which the oracle
    proves empty.
    """
    return _plan("gear", q, n, plane, _gear_routes)


def _gear_routes(plane, graph: Graph, n: int) -> Iterator[tuple]:
    q = plane.q
    paper = isinstance(plane, CoordPlane) and q > 4 and (q, n) not in ((5, 4), (5, 5))
    if 2 * n <= q + 1:
        # W_2n's candidates less the even-rim spokes, each verified once as
        # G_n: every candidate puts its rim on distinct lines through the
        # center and no rim line through it, so G_n and W_2n agree on it
        try:
            for images, _ in _wheel_routes(plane, wheel_graph(2 * n), 2 * n):
                yield images, ROUTE_FROM_WHEEL
        except ConstructionFailed:
            if paper:
                raise
        if paper:
            return
    elif paper and n <= q:
        paths = _gear_paths_even if n % 2 == 0 else _gear_paths_odd
        yield from paths(n, labeling_for(q))
        raise ConstructionFailed(f"path route exhausted for G_{n} at q={q}")
    elif paper:
        yield _gear_max(labeling_for(q), plane), ROUTE_MAX_EVEN if q % 2 == 0 else ROUTE_MAX_ODD
        return
    yield oracle(graph, plane), ROUTE_ORACLE


def _gear_paths_even(n, lab) -> Iterator[tuple]:
    spec, path = lab.spec, cache(lab.path)  # each beta scaled once per call, when first asked
    d0, d1 = lab.direction_point(0), lab.direction_point(1)
    for P in map(path, range(1, lab.q)):
        open_line = lab.class_line_through(1, P[0])  # joins (1) to P_0
        close_vert = lab.class_line_through(0, P[n - 2])  # joins P_{n-2} to (0)
        for Q in map(path, range(1, lab.q)):
            if Q is P:
                continue
            if incident(spec, Q[n - 1], open_line):
                continue  # closing class-1 line would repeat the opening one
            if incident(spec, Q[1], close_vert):
                continue  # the two vertical connectors would coincide
            yield [ORIGIN, *P[: n - 1], d0, *Q[1:n], d1], ROUTE_PATHS_EVEN


def _gear_paths_odd(n, lab) -> Iterator[tuple]:
    spec, q = lab.spec, lab.q
    d0, s = lab.direction_point(0), lab.slopes[n]
    t_cands = [lab.direction_point(n)]
    t_cands += sorted(affine_triple(spec, x, spec.emul(s, x)) for x in range(1, q))
    for P in map(lab.path, range(1, q)):
        for k in (1, n):
            back = lab.class_line_through(k, P[0])
            X = intersect(spec, back, lab.o_lines[n - 3])
            if X == P[n - 3]:
                continue  # the rejoin point must land on the other path
            # X is affine on l_{n-3}: beta scales the walk's P_{n-3} to X
            beta = spec.emul(lab.walk[0][n - 3][2], spec.einv(X[2]))
            Q = lab.path(beta)[: n - 2]  # Q_0..Q_{n-3} = X
            for T in t_cands:
                if T not in P and T not in Q:
                    yield [ORIGIN, *P[:n], d0, T, *Q], ROUTE_PATHS_ODD


def _gear_max(lab, pgp: CoordPlane) -> list:
    # G_{q+1}: the rim alternates the direction points (i) with affine
    # points A_i.  Each A_i is the first affine point off l_i, l_{i+1} and
    # the class-i and class-(i+1) lines through A_{i-1} and A_{i+1}, of
    # those two neighbours the ones already placed.  Odd q places the
    # corner A_0 last, once both its neighbours are known.
    spec, q = lab.spec, lab.q
    cand = [t for t in pgp.points() if is_affine(t) and t != ORIGIN]
    A, used = {}, set()
    for i in range(q + 1) if q % 2 == 0 else [*range(1, q + 1), 0]:
        prev, nxt = (i - 1) % (q + 1), (i + 1) % (q + 1)
        avoid = [lab.o_lines[i], lab.o_lines[nxt]]
        if prev in A:
            avoid.append(lab.class_line_through(i, A[prev]))
        if nxt in A:
            avoid.append(lab.class_line_through(nxt, A[nxt]))
        for pt in cand:
            if pt not in used and not any(incident(spec, pt, l) for l in avoid):
                break
        else:
            raise ConstructionFailed(f"greedy rim choice exhausted PG(2,{q})")
        A[i] = pt
        used.add(pt)
    return [ORIGIN] + [x for i in range(q + 1) for x in (lab.direction_point(i), A[i])]
