"""Cycle embeddings in AG(2,q) and PG(2,q) built from slope labelings.

The engine is a labeled pencil of lines through the origin O.  A labeling
is its slopes: class 0 is vertical, the remaining classes are slopes drawn
from powers of a primitive element, and class i has the direction point
(i) at infinity.  Every construction line is a join with a direction
point: the class-i line through P joins P to (i), and l_i, the class-i
line through O, joins O to (i).  Walking parallels of consecutive classes
produces a base path of q+1 points whose return to the vertical axis is
multiplication by a constant m; when m generates GF(q)*, glued paths sweep
the whole affine plane.  Everything longer or shorter is surgery on that
chain.  A labeling walks its path from (0, 1) once and keeps the chain;
a base path is ``path(beta)``, which scales that walk by beta on each call
and keeps nothing, so it costs O(q) at any order; ``labeling_for`` keeps
one labeling per order and kind.

Every chain is a walk of points in traversal order; its lines are never
kept by hand.  ``ag_cycle`` and ``pg_cycle`` share one rung dispatcher,
``_cycle``: the oracle for q <= 3, the parabola, the ellipse, PG's Singer
cycle, or ``_chain_rung``, which cuts every other rung from the full-orbit
chain of the labeling it is handed: surgery, the chain itself (the long
cycle, k = q^2-1), the chain through O (k = q^2), the ladder.
Each public constructor hands its walk to ``graphs.emit`` once and
returns the verified ``Embedding`` of C_k that comes back: its vertex
images are the walk, vertex i adjacent to i+1 mod k, its edge images the
lines the verifier derived, and its model and order name the plane
(``plane_for``).  Unreturned walks are not verified on their own.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .gf import (
    DegenerateAlpha,
    FieldSpec,
    element_order,
    field_for,
    first_primitive,
    hypothesis_j_search,
    make_field,
)
from .graphs import ConstructionFailed, Embedding, cycle_graph, emit
from .oracle import oracle
from .plane import (
    ORIGIN,
    GenericPlane,
    affine_coords,
    affine_triple,
    ag_from_field,
    incident,
    intersect,
    line_through,
    parabola_points,
    pg_from_field,
)


class NoCertificate(RuntimeError):
    """No primitive-pair certificate is known for this field order."""


# ---------------------------------------------------------------------------
# slope labelings of the pencil through O


class SlopeLabeling:
    """Assignment of the q+1 parallel classes to slopes; None is vertical.
    A labeling refuses every assignment.  Its fields, spec, kind, alpha and
    slopes (index = class; entry None or a slope encoding), give equality
    and hashing; the walks it caches sit beside them in its __dict__."""

    def __init__(self, spec: FieldSpec, kind: str, alpha: int, slopes: tuple):
        self.__dict__.update(spec=spec, kind=kind, alpha=alpha, slopes=slopes)

    def __setattr__(self, name, *value):
        raise AttributeError(f"SlopeLabeling is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return self.spec, self.kind, self.alpha, self.slopes

    def __eq__(self, other):
        return type(other) is SlopeLabeling and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "SlopeLabeling(spec={!r}, kind={!r}, alpha={!r}, slopes={!r})".format(*self._key())

    @classmethod
    def make(cls, spec: FieldSpec, kind: str, alpha: int) -> "SlopeLabeling":
        spec.decode(alpha)  # ValueError unless 0 <= alpha < q
        q = spec.q
        if kind == "A":
            slopes = [None] + [spec.epow(alpha, i) for i in range(1, q)] + [0]
        elif kind == "B":
            slopes = [None] + [spec.epow(alpha, i) for i in range(1, q - 1)] + [0, 1]
        else:
            raise ValueError(f"unknown labeling kind {kind!r}")
        body = [s for s in slopes if s is not None]
        if len(set(body)) != q:
            raise ValueError(f"alpha {alpha} does not generate distinct slopes in GF({q})")
        return cls(spec, kind, alpha, tuple(slopes))

    @property
    def q(self) -> int:
        return self.spec.q

    def direction_point(self, i: int):
        s = self.slopes[i]
        return (0, 1, 0) if s is None else (1, s, 0)

    def class_line_through(self, i: int, P):
        # the join of P with the direction point (i); P is affine
        return line_through(self.spec, self.direction_point(i), P)

    @cached_property
    def o_lines(self) -> tuple:  # every l_i, joined once per labeling
        return tuple(self.class_line_through(i, ORIGIN) for i in range(len(self.slopes)))

    @cached_property
    def walk(self) -> tuple:
        """The base path from (0, 1), walked once: P_0..P_q, P_{j+1} where
        the class-(j+2) line through P_j meets l_{j+1}, and the multiplier m,
        where the class-1 line through P_q meets l_0 at (0, m)."""
        spec, n, lines = self.spec, len(self.slopes), self.o_lines
        pts = [affine_triple(spec, 0, 1)]
        for j in range(self.q):
            link = self.class_line_through((j + 2) % n, pts[-1])
            pts.append(intersect(spec, link, lines[j + 1]))
            if pts[-1] == ORIGIN:
                raise ValueError("path degenerated into the origin")
        q0 = intersect(spec, self.class_line_through(1, pts[-1]), lines[0])
        # the long chain and the gear routes rely on P_i lying on l_i
        if len(set(pts)) != n or not all(incident(spec, P, lines[i]) for i, P in enumerate(pts)):
            raise ConstructionFailed("base path from beta=1 leaves its pencil")
        return tuple(pts), affine_coords(spec, q0)[1]

    def path(self, beta: int) -> tuple:
        """The base path P_0..P_q from (0, beta), P_i on l_i, scaled anew on
        each call: the walk under the homothety (X : Y : Z) -> (X : Y :
        Z/beta), which keeps class lines parallel and, as no path meets O,
        triples canonical.  Its return line, the class-1 line through P_q,
        meets l_0 at (0, m*beta), m = ``walk[1]``."""
        self.spec.decode(beta)  # ValueError unless 0 <= beta < q
        if beta == 0:
            raise ValueError("base path must start off the origin")
        spec, s = self.spec, self.spec.einv(beta)
        return tuple((X, Y, spec.emul(Z, s)) for X, Y, Z in self.walk[0])

    @cached_property
    def chain(self) -> tuple:
        """The unverified long chain: the base paths from (0, beta) for
        beta = 1, m, m^2, ..., each returning to the next along class 1."""
        spec, m = self.spec, self.walk[1]
        betas = [spec.epow(m, e) for e in range(element_order(spec, m))]
        return tuple(P for b in betas for P in self.path(b))


def labeling_for(q: int, kind: str | None = None) -> SlopeLabeling:
    """Default labeling: certificate alpha, kind A for odd q and B for even.
    The process keeps one labeling per order and kind."""
    return _certified_labeling(q, ("A" if q % 2 else "B") if kind is None else kind)


@lru_cache(maxsize=None)
def _certified_labeling(q: int, kind: str) -> SlopeLabeling:
    spec = field_for(q)
    cert = hypothesis_j_search(q)
    if cert is None:
        raise NoCertificate(f"no primitive-pair certificate for q={q}")
    return SlopeLabeling.make(spec, kind, cert.alpha)


# ---------------------------------------------------------------------------
# base paths in closed form


def path_closed_form(q: int, alpha: int, beta: int, i: int) -> tuple:
    """Algebraic positions along the kind-A path, as canonical triples:
    index i maps to the far endpoint of link i (P_{i+1}; i=q gives the
    return point)."""
    spec = field_for(q)
    spec.decode(alpha)  # ValueError unless 0 <= alpha < q
    spec.decode(beta)
    if not 0 <= i <= q:
        raise ValueError(f"index {i} outside 0..{q}")
    add, sub, mul, inv, pw = spec.eadd, spec.esub, spec.emul, spec.einv, spec.epow
    try:
        if i <= q - 3:
            num = mul(beta, pw(add(1, alpha), i))
            x = mul(num, inv(mul(pw(alpha, i + 1), sub(1, alpha))))
            return affine_triple(spec, x, mul(num, inv(sub(1, alpha))))
        c = mul(mul(beta, pw(add(1, alpha), q - 3)), inv(sub(1, alpha)))
        if i == q - 2:
            return affine_triple(spec, c, c)
        if i == q - 1:
            return affine_triple(spec, c, 0)
        return affine_triple(spec, 0, spec.eneg(mul(alpha, c)))
    except ZeroDivisionError:
        raise DegenerateAlpha(f"closed form undefined at alpha={alpha} in GF({q})")


# ---------------------------------------------------------------------------
# arcs for the short cycles


def _ellipse_points(q: int, spec: FieldSpec) -> list:
    # first irreducible x^2 + bx + c by (b, c) order, then its unit circle
    add, mul = spec.eadd, spec.emul
    for b in range(q):
        for c in range(q):
            if all(add(add(mul(t, t), mul(b, t)), c) for t in range(q)):
                pts = [
                    affine_triple(spec, x, y)
                    for x in range(q)
                    for y in range(q)
                    if add(add(mul(x, x), mul(mul(b, x), y)), mul(mul(c, y), y)) == 1
                ]
                if len(pts) != q + 1:
                    raise ConstructionFailed(f"norm-one circle over GF({q}) has {len(pts)} points")
                return pts
    raise ConstructionFailed(f"no irreducible quadratic over GF({q})")


# ---------------------------------------------------------------------------
# pancyclicity constructors


def ag_cycle(q: int, k: int) -> Embedding:
    """A k-cycle in AG(2,q) for any feasible k (3 <= k <= q^2)."""
    return _cycle(ag_from_field(q), k)


def pg_cycle(q: int, k: int) -> Embedding:
    """A k-cycle in PG(2,q) for any feasible k (3 <= k <= q^2+q+1)."""
    return _cycle(pg_from_field(q), k)


def _cycle(plane, k: int) -> Embedding:
    # the plane is built first, so that a refused order is refused before k
    q, top = plane.q, plane.n_points
    if not 3 <= k <= top:
        raise ValueError(f"k={k} outside 3..{top}")
    if k == q * q + q + 1:
        return singer_cycle(q)  # the top of PG(2,q)
    if q <= 3:
        points = oracle(cycle_graph(k), plane)
    elif k <= q:
        points = parabola_points(plane.spec, k)
    elif k == q + 1:
        points = _ellipse_points(q, plane.spec)
    else:
        points = _chain_rung(labeling_for(q), k)
    return emit(cycle_graph(k), points, plane)


def _chain_rung(lab: SlopeLabeling, k: int) -> tuple:
    """The walk of C_k, q+2 <= k <= q^2+q, cut from the labeling's chain,
    which must be the full orbit: the chain opened after k-1 points and
    closed through O along l_((k-1) mod (q+1)), or one period ahead when
    that is the opening line l_1; the chain itself; at k = q^2 the chain
    with its edge P_0(beta=1) -- P_1 run through O instead; or the ladder."""
    q, chain = lab.q, lab.chain
    N, n = q * q - 1, q + 1
    if len(chain) != N:
        raise ValueError("rerouting needs the full-orbit long cycle")
    if k > q * q:
        return _ladder_chain(lab, k)
    if k == q * q:
        return (ORIGIN,) + chain[1:] + (chain[0],)
    if k == N:
        return chain
    if (k - 1) % n >= 2:
        return (ORIGIN,) + chain[1:k]
    return (ORIGIN,) + chain[1 : k - 2] + (chain[(k - 3 + n) % N], chain[(k - 2 + n) % N])


def _ladder_chain(lab: SlopeLabeling, k: int) -> tuple:
    """The q^2+1 .. q^2+q rungs: splice infinite points into the long chain."""
    q, ch, d = lab.q, lab.chain, [lab.direction_point(i) for i in range(lab.q + 1)]
    m = q * q - q - 2  # first index of the final glued path

    def Q(c):
        # class-c point of the final glued path
        return ch[m + c]

    def tail(t0):
        return tuple(p for t in range(t0, q + 1) for p in (d[t], Q(t)))

    seg = ch[1 : m + 2]  # P_1 .. P_{q^2-q-1}, whose link leads into Q(2)
    delta = q * q + q - k
    if delta == 0:
        # all points but one, every line but one chain link: ch[m-1] rides
        # the glue line into the final path on to d[1]
        return ch[:m] + (d[1], ORIGIN, d[2], Q(1), Q(2), Q(3), d[3]) + tail(4) + (d[0],)
    if delta == 1:
        return seg + (Q(2), d[2], d[3], Q(3)) + tail(4) + (ch[0], ORIGIN)
    if delta == 2:
        return seg + (Q(2), d[2], d[3], Q(3)) + tail(4) + (ch[0],)
    if delta == 3:
        return seg + (Q(2), ORIGIN, Q(3)) + tail(4) + (ch[0],)
    if delta == 4:
        return seg + (d[3], Q(3)) + tail(4) + (ch[0],)
    if delta % 2 == 1:
        i = (delta + 3) // 2  # skip the loop back through classes 4..i
        return seg + (d[3], ORIGIN, Q(i)) + tail(i + 1) + (ch[0],)
    i = (delta + 4) // 2
    return seg + (d[3], d[2], ORIGIN, Q(i)) + tail(i + 1) + (ch[0],)


# ---------------------------------------------------------------------------
# Singer difference sets and the Hamiltonian cycle of PG(2,q)


@lru_cache(maxsize=None)
def singer_difference_set(q: int) -> tuple:
    """Residues i mod q^2+q+1 with g^i in the plane spanned by {1, g} over
    the subfield copy of GF(q) inside GF(q^3)."""
    spec = field_for(q)
    big = make_field(spec.p, 3 * spec.a)
    add, mul = big.eadd, big.emul
    g = first_primitive(big)
    n = q * q + q + 1
    gn = big.epow(g, n)
    sub = [0]
    x = 1
    for _ in range(q - 1):
        sub.append(x)
        x = mul(x, gn)
    span = {add(u, mul(v, g)) for u in sub for v in sub}
    D = []
    x = 1
    for i in range(n):
        if x in span:
            D.append(i)
        x = mul(x, g)
    # cyclic_plane takes the translates of D as the lines of PG(2,q)
    if len(set(sub)) != q or len(span) != q * q or len(D) != q + 1:
        raise ConstructionFailed(f"no planar difference set came out of GF({q}^3)")
    return tuple(D)


@lru_cache(maxsize=None)
def cyclic_plane(q: int) -> GenericPlane:
    """PG(2,q) as difference-set translates on the residues mod q^2+q+1."""
    D = singer_difference_set(q)
    n = q * q + q + 1
    lines = sorted(tuple(sorted((d + t) % n for d in D)) for t in range(n))
    return GenericPlane(q=q, n_points=n, lines=tuple(lines), model="CYCLIC", transitive=True)


def plane_for(model: str, q: int):
    """The plane a model name and an order stand for: PG(2,q), AG(2,q), or
    PG(2,q) as the cyclic model."""
    builder = {"PG": pg_from_field, "AG": ag_from_field, "CYCLIC": cyclic_plane}.get(model)
    if builder is None:
        raise ValueError(f"unknown plane model {model!r}")
    return builder(q)


def singer_cycle(q: int) -> Embedding:
    """The Hamiltonian cycle 0,1,...,n-1 of the cyclic plane model."""
    plane = cyclic_plane(q)
    return emit(cycle_graph(plane.n_points), range(plane.n_points), plane)
