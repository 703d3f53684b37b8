"""Projective and affine planes over GF(q), plus a generic incidence model.

Coordinatized points and lines are homogeneous triples of element
encodings, canonicalized so the first nonzero coordinate is 1.  A triple
(x : y : z) is a point; (a : b : c) is the line ax + by + cz = 0.  The
line at infinity is [0 : 0 : 1] and a point is affine exactly when its
last coordinate is nonzero.

GenericPlane forgets coordinates: points are 0..N-1 and lines are sorted
id tuples.  It is what the search oracle and the file format speak, and
its one incidence index, built once per plane, serves the search,
``line_between`` (the cyclic model joins points by its difference set) and
``line_faults``, the one scan of a plane file's lines that ``plane check``
and the CLI's plane loader both read.  ``plane_from_ring`` builds the plane
of a planar ternary ring; ``CoordPlane.to_generic`` is that of x*m + b.

Both kinds of plane give what the verifier and the embedding builder ask
of a plane: ``model``, ``q``, ``n_points``, ``contains``, ``line_between``
(None when the points coincide or no line joins them), ``max_pencil``, and
in batch ``point_ids`` (a GenericPlane's ids are its points, a CoordPlane's
id of (x : y : z) is (x*q + y)*q + z) and ``edge_lines`` from those ids.
Each order has one shared CoordPlane per model, which remembers the points
it checked.  A process keeps one memo of the lines CoordPlanes derived,
keyed by order and id pair, up to a bound; AG(2,q) and PG(2,q) share it,
since the line through two affine points is the same triple in both.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter, namedtuple
from contextlib import contextmanager
from functools import cached_property, lru_cache
from itertools import chain

from .gf import FieldSpec, field_for

Triple = tuple

LINE_INF: Triple = (0, 0, 1)
ORIGIN: Triple = (0, 0, 1)  # the affine point (0, 0)
DIR_VERTICAL: Triple = (0, 1, 0)

# CoordPlane's memo of derived lines, by (q, a, b) with a < b the ids of
# two points (an order names one field)
_line_memo = {}
LINE_MEMO_BOUND = 1 << 16


def remember(memo: dict, key, value):
    # every memo here is cleared whole once it holds LINE_MEMO_BOUND entries
    if len(memo) >= LINE_MEMO_BOUND:
        memo.clear()
    memo[key] = value
    return value


def canon(spec: FieldSpec, t) -> Triple:
    """Scale a homogeneous triple so its first nonzero entry is 1."""
    for v in t:
        if v:
            if v == 1:
                return tuple(t)
            inv = spec.einv(v)
            return tuple(spec.emul(inv, u) for u in t)
    raise ValueError("zero triple is not projective")


def _cross(spec: FieldSpec, s, t) -> Triple:
    m, sub = spec.emul, spec.esub
    return (
        sub(m(s[1], t[2]), m(s[2], t[1])),
        sub(m(s[2], t[0]), m(s[0], t[2])),
        sub(m(s[0], t[1]), m(s[1], t[0])),
    )


def line_through(spec: FieldSpec, P: Triple, Q: Triple) -> Triple:
    L = _cross(spec, P, Q)
    if not any(L):
        raise ValueError(f"points {P} and {Q} coincide")
    return canon(spec, L)


def intersect(spec: FieldSpec, l: Triple, m: Triple) -> Triple:
    P = _cross(spec, l, m)
    if not any(P):
        raise ValueError(f"lines {l} and {m} coincide")
    return canon(spec, P)


def incident(spec: FieldSpec, P: Triple, l: Triple) -> bool:
    s = 0
    for a, b in zip(P, l):
        s = spec.eadd(s, spec.emul(a, b))
    return s == 0


def is_affine(P: Triple) -> bool:
    return P[2] != 0


def affine_triple(spec: FieldSpec, x: int, y: int) -> Triple:
    return canon(spec, (x, y, 1))


def parabola_points(spec: FieldSpec, k: int) -> list:
    """The points (t, t^2) of the parabola y = x^2 for t = 0..k-1."""
    return [affine_triple(spec, t, spec.emul(t, t)) for t in range(k)]


def affine_coords(spec: FieldSpec, P: Triple) -> tuple:
    """Recover (x, y) encodings from a canonical affine triple."""
    if P[2] == 0:
        raise ValueError(f"{P} lies on the infinite line")
    inv = spec.einv(P[2])
    return spec.emul(P[0], inv), spec.emul(P[1], inv)


# ---------------------------------------------------------------------------


Incidence = namedtuple("Incidence", "masks pencil_masks pencils")


class GenericPlane(namedtuple("GenericPlane", "q n_points lines model transitive",
                              defaults=("GENERIC", False))):
    """Pure incidence structure: N points, lines as sorted point-id tuples.
    The model is GENERIC or CYCLIC, the translates of a difference set.
    Its repr leaves the lines out."""

    def __repr__(self):
        return (f"GenericPlane(q={self.q!r}, n_points={self.n_points!r}, "
                f"model={self.model!r}, transitive={self.transitive!r})")

    def incidence(self) -> Incidence:
        """The plane's incidence as int bitmasks, built once: ``masks[li]``
        has the bits of line li's points, ``pencil_masks[p]`` the bits of
        the ids of the lines through point p, and ``pencils[p]`` those lines
        as (line bit, point mask) pairs.  Ids outside 0..n_points-1 are left
        out."""
        return self._incidence

    @cached_property
    def _incidence(self) -> Incidence:
        n, masks = self.n_points, []
        through = [[] for _ in range(n)]
        for li, line in enumerate(self.lines):
            pts = {p for p in line if 0 <= p < n}  # a damaged file may stray
            masks.append(sum(1 << p for p in pts))
            for p in pts:
                through[p].append(li)
        bits = [1 << li for li in range(len(masks))]  # shared by the pencils
        return Incidence(
            masks,
            [sum(bits[li] for li in t) for t in through],
            [[(bits[li], masks[li]) for li in t] for t in through],
        )

    def contains(self, p) -> bool:
        return type(p) is int and 0 <= p < self.n_points  # True is no point id

    def point_ids(self, images):  # a point is its own id
        return next((i for i, p in enumerate(images) if not self.contains(p)), images)

    def edge_lines(self, ids, edges) -> list:
        return [self.line_between(ids[u], ids[v]) for u, v in edges]

    def line_between(self, u: int, v: int) -> int | None:
        n = self.n_points
        if u == v or not (0 <= u < n and 0 <= v < n):
            return None
        if self.model != "CYCLIC":
            # the smallest id among the lines through both
            pm = self.incidence().pencil_masks
            both = pm[u] & pm[v]
            return (both & -both).bit_length() - 1 if both else None
        first, line_of = self._differences
        return line_of[(u - first[(u - v) % n]) % n]

    @cached_property
    def _differences(self) -> tuple:
        # the lines are the translates of a planar difference set D (any
        # one of them will do), so the line through u and v is D + (u - d)
        # for the one d in D with d - d' = u - v, d' in D: two tables of n
        # entries, not n^2
        D, n = self.lines[0], self.n_points
        first = [0] * n
        for d in D:
            for e in D:
                first[(d - e) % n] = d
        index = {line: li for li, line in enumerate(self.lines)}
        return first, [index[tuple(sorted((d + t) % n for d in D))] for t in range(n)]

    @cached_property
    def max_pencil(self) -> int:
        # the most distinct lines through one point
        n, counts = self.n_points, Counter(chain.from_iterable(map(set, self.lines)))
        return max((c for p, c in counts.items() if 0 <= p < n), default=0)


class CoordPlane:
    """PG(2,q) or its affine part AG(2,q), with arithmetic incidence tests."""

    def __init__(self, model: str, spec: FieldSpec):
        if model not in ("PG", "AG"):
            raise ValueError(f"unknown plane model {model!r}")
        self.model = model
        self.spec = spec
        self.q = spec.q
        self._points = None
        self._generic = None
        self._ids = {}  # the id of each point point_ids has checked

    def __repr__(self):
        return f"{self.model}(2,{self.q})"

    @property
    def n_points(self) -> int:
        return self.q * self.q + (self.q + 1 if self.model == "PG" else 0)

    def points(self) -> tuple:
        """Every point in sorted order, built once per plane."""
        if self._points is None:
            sp, q = self.spec, self.q
            pts = [affine_triple(sp, x, y) for x in range(q) for y in range(q)]
            if self.model == "PG":
                pts.append(DIR_VERTICAL)
                pts.extend((1, s, 0) for s in range(q))
            self._points = tuple(sorted(pts))
        return self._points

    def point_ids(self, images):
        """Each image's point id, or the index of the first that is no point:
        3 ints (no JSON true or 1.0) in 0..q-1, the first nonzero 1, z = 0
        only in PG(2,q)."""
        known, q, pg, ids = self._ids, self.q, self.model == "PG", []
        for P in images:
            if type(P) is not tuple or len(P) != 3:
                return len(ids)
            x, y, z = P
            if not type(x) is type(y) is type(z) is int:  # (0, 0, True) would find (0, 0, 1)
                return len(ids)
            p = known.get(P)
            if p is None:
                if (x or y or z) != 1 or min(P) < 0 or max(P) >= q or not (z or pg):
                    return len(ids)
                p = remember(known, P, (x * q + y) * q + z)
            ids.append(p)
        return ids

    def contains(self, P: Triple) -> bool:
        return type(self.point_ids((P,))) is list

    def edge_lines(self, ids, edges) -> list:
        # each edge's line, from the ids of its ends; None where they coincide
        memo, q, lines = _line_memo, self.q, []
        for u, v in edges:
            a, b = ids[u], ids[v]
            key = (q, a, b) if a < b else (q, b, a)
            line = memo.get(key)
            if line is None and a != b:
                P, Q = ((i // q // q, i // q % q, i % q) for i in key[1:])
                line = remember(memo, key, line_through(self.spec, P, Q))
            lines.append(line)
        return lines

    def line_between(self, P: Triple, Q: Triple) -> Triple | None:
        ids = self.point_ids((P, Q))
        return None if type(ids) is int else self.edge_lines(ids, ((0, 1),))[0]

    @property
    def max_pencil(self) -> int:
        return self.q + 1

    def to_generic(self) -> GenericPlane:
        """The plane in point ids, built once per plane: point i is
        ``points()[i]``.  It is ``plane_from_ring`` of the field's ring
        T(x, m, b) = x*m + b, relabelled; AG(2,q) leaves out the points at
        infinity and the line they fill."""
        if self._generic is None:
            spec, q, pts = self.spec, self.q, self.points()
            index = {P: i for i, P in enumerate(pts)}
            ids = [index[affine_triple(spec, x, y)] for x in range(q) for y in range(q)]
            if self.model == "PG":
                ids += [index[(1, m, 0)] for m in range(q)] + [index[DIR_VERTICAL]]
            add, mul, n = spec.eadd, spec.emul, len(pts)
            field_plane = plane_from_ring(q, lambda x, m, b: add(mul(x, m), b))
            lines = (tuple(sorted(ids[p] for p in l if p < n)) for l in field_plane.lines)
            self._generic = GenericPlane(q, n, tuple(sorted(filter(None, lines))), transitive=True)
        return self._generic


def plane_from_ring(q: int, ring) -> GenericPlane:
    """The projective plane of a ternary ring T on 0..q-1 (M. Hall, 1943).
    Point (x, y) is id x*q + y, the slope point (m) is q^2 + m and (inf) is
    q^2 + q; the lines are y = T(x, m, b) with (m), x = c with (inf), and the
    line at infinity.  The ring is not checked: ``check_plane_axioms`` says
    whether the result is a plane."""
    qq, xs = q * q, range(q)
    lines = [[x * q + ring(x, m, b) for x in xs] + [qq + m] for m in xs for b in xs]
    lines += [[c * q + y for y in xs] + [qq + q] for c in xs]
    lines.append(range(qq, qq + q + 1))
    return GenericPlane(q, qq + q + 1, tuple(sorted(tuple(sorted(l)) for l in lines)))


@lru_cache(maxsize=None)
def pg_from_field(q: int) -> CoordPlane:
    return CoordPlane("PG", field_for(q))


@lru_cache(maxsize=None)
def ag_from_field(q: int) -> CoordPlane:
    return CoordPlane("AG", field_for(q))


# ---------------------------------------------------------------------------
# axiom checking and file io for generic planes


class FormatError(ValueError):
    """A plane or embedding document is malformed."""


@contextmanager
def format_errors(what: str):
    """Report any error a malformed document provokes as one FormatError."""
    try:
        yield
    except FormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise FormatError(f"malformed {what}: {e}") from e


_MAX_VIOLATIONS = 50


PlaneReport = namedtuple("PlaneReport", "ok points lines line_size violations")


def line_faults(plane: GenericPlane):
    """Scan a generic plane's lines once, in order, and yield as data what
    keeps it from having one line per pair of points: ``(i, "stray", p)``
    for each id p outside 0..n_points-1, ``(i, "repeat", p)`` for each point
    line i names twice, and ``(i, "pair", pairs)`` when line i joins points
    a < b that an earlier line joins already, pairs listing each such (a, b).
    A stray id makes no pair."""
    n = plane.n_points
    joined = [0] * n  # per point, the points that earlier lines join it to
    for i, (line, mask) in enumerate(zip(plane.lines, plane.incidence().masks)):
        if mask.bit_count() != len(line):  # a stray or a repeat is left out of the mask
            yield from ((i, "stray", p) for p in line if not 0 <= p < n)
            yield from ((i, "repeat", p) for p in sorted({p for p in line if line.count(p) > 1}))
            line = {p for p in line if 0 <= p < n}  # its points
        pairs = []
        for p in line:
            if twice := joined[p] & mask:
                pairs += ((p, b) for b in line if b > p and twice >> b & 1)
            joined[p] |= mask ^ (1 << p)
        if pairs:
            yield i, "pair", pairs


def check_plane_axioms(plane: GenericPlane) -> PlaneReport:
    """Projective-plane sanity report; violations are listed, not raised."""
    v, n, lines = [], plane.n_points, plane.lines
    masks, pm, _ = plane.incidence()

    def note(msg):
        if len(v) < _MAX_VIOLATIONS:
            v.append(msg)

    sizes = {len(l) for l in lines}
    line_size = sizes.pop() if len(sizes) == 1 else None
    if line_size is None:
        note("lines are not all the same size")

    # per line, a repeat of an earlier line is listed first; a pair of points
    # on c lines is refound on c - 1 of them
    seen, doubled, refound = {}, set(), 0
    twins = ((i, "twin", seen[l]) for i, l in enumerate(lines) if seen.setdefault(l, i) != i)
    for i, kind, x in heapq.merge(twins, line_faults(plane), key=lambda f: f[0]):
        if kind == "twin":
            note(f"line {i} duplicates line {x}")
        elif kind == "stray":
            note(f"line {i} references point {x} outside 0..{n - 1}")
        elif kind == "repeat":
            note(f"line {i} repeats point {x}")
        else:
            doubled.update(x)
            refound += len(x)

    # each point pair on exactly one line, listed by the first line holding it
    def first_line(pair):
        both = pm[pair[0]] & pm[pair[1]]
        return (both & -both).bit_length(), pair

    for a, b in heapq.nsmallest(_MAX_VIOLATIONS, doubled, key=first_line):
        note(f"points {a},{b} lie on {(pm[a] & pm[b]).bit_count()} common lines")
    expected = n * (n - 1) // 2
    covered = sum(m.bit_count() * (m.bit_count() - 1) // 2 for m in masks) - refound
    if covered < expected:
        note(f"{expected - covered} point pairs lie on no line")

    # each line pair meets exactly once: line i meets once the lines its points
    # reach once, so j > i are compared only if some j is not (a stray meets none)
    for i, line in enumerate(lines):
        once = more = 0
        for p in {p for p in line if 0 <= p < n}:
            more, once = more | once & pm[p], once | pm[p]
        if ((once & ~more) >> i + 1).bit_count() < len(masks) - i - 1:
            for j in range(i + 1, len(masks)):
                if (m := (masks[i] & masks[j]).bit_count()) != 1:
                    note(f"lines {i},{j} meet in {m} points")
            if len(v) >= _MAX_VIOLATIONS:
                break

    # in a linear space (each pair of points 0..n-1 on exactly one line) a
    # quadrangle exists exactly when two points lie off a longest line; the
    # others are single lines and near-pencils (de Bruijn and Erdős, 1948)
    if not doubled and covered == expected:
        if n - max((m.bit_count() for m in masks), default=0) < 2:
            note("no quadrangle: every 4-point subset has 3 collinear points")

    return PlaneReport(ok=not v, points=n, lines=len(lines), line_size=line_size, violations=v)


def save_plane(plane: GenericPlane, path) -> None:
    doc = {
        "q": plane.q,
        "points": plane.n_points,
        "lines": [list(l) for l in plane.lines],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


def load_plane(path) -> GenericPlane:
    """Load a plane file; a malformed document raises FormatError."""
    with open(path) as fh, format_errors(f"plane file {path}"):
        doc = json.load(fh)
        if not isinstance(doc, dict) or not {"q", "points", "lines"} <= set(doc):
            raise FormatError("plane file needs keys q, points, lines")
        q, n = doc["q"], doc["points"]
        if type(q) is not int or q < 2:  # JSON true is no number here
            raise FormatError(f"bad plane order {q!r}")
        if type(n) is not int or n < 1:
            raise FormatError("points must be a positive integer")
        lines = []
        for i, l in enumerate(doc["lines"]):
            if not isinstance(l, list) or not all(type(p) is int for p in l):
                raise FormatError(f"line {i} is not a list of point ids")
            lines.append(tuple(sorted(l)))
        # so that what is built per point is bounded by the file's size
        if n > (ids := sum(map(len, lines))):
            raise FormatError(f"points {n} exceeds the {ids} point ids the lines list")
    return GenericPlane(q=q, n_points=n, lines=tuple(lines))
