"""Coordinate planes, canonical triples, axiom checks, plane files."""

import hashlib
import json
import random
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from oracle_reference import reference_joins
from planegraphs.cycles import ag_cycle, cyclic_plane, labeling_for, pg_cycle
from planegraphs.gf import field_for, make_field, prime_power, prime_powers_in
from planegraphs.graphs import cycle_graph, emit
from planegraphs.plane import (
    LINE_INF,
    CoordPlane,
    GenericPlane,
    affine_coords,
    affine_triple,
    ag_from_field,
    canon,
    check_plane_axioms,
    incident,
    intersect,
    is_affine,
    line_faults,
    line_through,
    load_plane,
    pg_from_field,
    save_plane,
)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_pg_counts_and_axioms(q):
    view = pg_from_field(q).to_generic()
    n = q * q + q + 1
    assert view.n_points == n
    assert len(view.lines) == n
    rep = check_plane_axioms(view)
    assert rep.ok, rep.violations
    assert rep.line_size == q + 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_ag_counts_and_structure(q):
    # the axiom report is projective by contract; affine planes are checked
    # structurally: uniform line size and every point pair on exactly one line
    view = ag_from_field(q).to_generic()
    assert view.n_points == q * q
    assert len(view.lines) == q * q + q
    assert all(len(l) == q for l in view.lines)
    rep = check_plane_axioms(view)
    assert all("meet in 0 points" in v for v in rep.violations), rep.violations


def test_canon_first_nonzero_is_one():
    spec = make_field(5)
    assert canon(spec, (0, 3, 0)) == (0, 1, 0)
    assert canon(spec, (2, 4, 1)) == (1, 2, 3)  # scaled by 1/2 = 3
    assert canon(spec, (0, 0, 4)) == (0, 0, 1)
    with pytest.raises(ValueError):
        canon(spec, (0, 0, 0))


def test_origin_is_point_zero():
    for q in (3, 4, 5):
        assert pg_from_field(q).points()[0] == (0, 0, 1)
        assert ag_from_field(q).points()[0] == (0, 0, 1)


def test_join_meet_duality():
    spec = make_field(7)
    P, Q = (1, 2, 1), (1, 5, 1)
    l = line_through(spec, P, Q)
    assert incident(spec, P, l) and incident(spec, Q, l)
    m = line_through(spec, (0, 1, 1), (1, 0, 0))
    X = intersect(spec, l, m)
    assert incident(spec, X, l) and incident(spec, X, m)
    with pytest.raises(ValueError):
        line_through(spec, P, P)
    with pytest.raises(ValueError):
        intersect(spec, l, l)


def test_affine_round_trip():
    spec = make_field(2, 2)
    for x in range(4):
        for y in range(4):
            t = affine_triple(spec, x, y)
            assert is_affine(t)
            assert affine_coords(spec, t) == (x, y)
    assert not is_affine((0, 1, 0))
    with pytest.raises(ValueError):
        affine_coords(spec, (1, 2, 0))


def test_parallels_partition():
    # the class-i line through P is the join of P with the point at infinity
    # of l_i, the line y = s x of slope s through O (x = 0 for the vertical)
    for q in (4, 5, 7, 8, 9):
        lab = labeling_for(q)
        spec = lab.spec
        for i, s in enumerate(lab.slopes):
            l = (1, 0, 0) if s is None else canon(spec, (s, spec.eneg(1), 0))
            assert lab.o_lines[i] == l
            d = intersect(spec, l, LINE_INF)
            parts = {}
            for x in range(q):
                for y in range(q):
                    P = affine_triple(spec, x, y)
                    m = lab.class_line_through(i, P)
                    assert m == line_through(spec, d, P)
                    parts.setdefault(m, []).append(P)
            # q parallels of q points each: the class-i lines partition AG(2,q)
            assert sorted(map(len, parts.values())) == [q] * q


def test_pencil_size():
    pgp = pg_from_field(4)
    view = pgp.to_generic()
    for pid in range(view.n_points):
        assert len(view.incidence().pencils[pid]) == 5


def test_plane_file_round_trip(tmp_path):
    view = pg_from_field(3).to_generic()
    path = tmp_path / "pg3.json"
    save_plane(view, path)
    again = load_plane(path)
    assert again.n_points == view.n_points
    assert again.lines == view.lines
    save_plane(again, tmp_path / "pg3b.json")
    assert (tmp_path / "pg3.json").read_bytes() == (tmp_path / "pg3b.json").read_bytes()


def test_axiom_check_catches_damage(tmp_path):
    view = pg_from_field(2).to_generic()
    doc = {
        "q": 2,
        "points": view.n_points,
        "lines": [sorted(l) for l in view.lines],
    }
    doc["lines"][0] = sorted(set(doc["lines"][0]) ^ {0, 1})  # corrupt one line
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rep = check_plane_axioms(load_plane(bad))
    assert not rep.ok
    assert rep.violations


def test_axiom_check_stray_id_meets_nothing():
    # PG(2,2) with point 6 cut off: the lines through it are listed as naming
    # a stray id, and as meeting nowhere, since 6 is no point
    lines = pg_from_field(2).to_generic().lines
    rep = check_plane_axioms(GenericPlane(q=2, n_points=6, lines=lines))
    through = [i for i, l in enumerate(lines) if 6 in l]
    assert len(through) == 3
    for i, j in combinations(through, 2):
        assert f"lines {i},{j} meet in 0 points" in rep.violations
    for i in through:
        assert f"line {i} references point 6 outside 0..5" in rep.violations


def test_line_faults_batch_a_lines_pairs():
    # one pair fault per line, its refound pairs in the order the scan meets them
    lines = ((0, 1, 2), (0, 1, 2, 3), (3, 4), (2, 3, 4))
    faults = list(line_faults(GenericPlane(q=2, n_points=5, lines=lines)))
    assert faults == [(1, "pair", [(0, 1), (0, 2), (1, 2)]), (3, "pair", [(2, 3), (3, 4)])]


def test_axiom_check_stray_id_makes_no_pair():
    # an id past "points" is listed, but covers no pair and is no point of one
    lines = pg_from_field(2).to_generic().lines
    assert lines[0] == (0, 1, 2)
    rep = check_plane_axioms(GenericPlane(q=2, n_points=6, lines=lines[1:]))
    assert rep.violations == [
        "line 1 references point 6 outside 0..5",
        "line 3 references point 6 outside 0..5",
        "line 4 references point 6 outside 0..5",
        "3 point pairs lie on no line",
        "lines 1,3 meet in 0 points",
        "lines 1,4 meet in 0 points",
        "lines 3,4 meet in 0 points",
    ]
    lines = ((0, 1, 6), (0, 2, 6), (1, 2, 3), (3, 4, 5))
    rep = check_plane_axioms(GenericPlane(q=2, n_points=6, lines=lines))
    assert rep.violations == [
        "line 0 references point 6 outside 0..5",
        "line 1 references point 6 outside 0..5",
        "7 point pairs lie on no line",
        "lines 0,3 meet in 0 points",
        "lines 1,3 meet in 0 points",
    ]


def _reference_check(plane):
    # the axiom check as a Counter of every point pair and a loop over every
    # line pair, quadratic in the plane's size; (ok, violations)
    v = []
    n = plane.n_points
    lines = plane.lines

    def note(msg):
        if len(v) < 50:
            v.append(msg)

    sizes = {len(l) for l in lines}
    line_size = sizes.pop() if len(sizes) == 1 else None
    if line_size is None:
        note("lines are not all the same size")

    seen = {}
    for i, l in enumerate(lines):
        if l in seen:
            note(f"line {i} duplicates line {seen[l]}")
        else:
            seen[l] = i
        for p in l:
            if not 0 <= p < n:
                note(f"line {i} references point {p} outside 0..{n - 1}")
        for p in sorted({p for p in l if l.count(p) > 1}):
            note(f"line {i} repeats point {p}")

    # each point pair on exactly one line; a repeated point makes no pair
    pair_count = Counter(pair for l in lines for pair in combinations(sorted(set(l)), 2))
    for (a, b), c in pair_count.items():
        if c > 1:
            note(f"points {a},{b} lie on {c} common lines")
    expected = n * (n - 1) // 2
    if len(pair_count) < expected:
        missing = expected - len(pair_count)
        note(f"{missing} point pairs lie on no line")

    # each line pair meets exactly once; a stray id is listed above but is
    # no point, so it meets nothing
    masks = plane.incidence().masks
    for i, j in combinations(range(len(masks)), 2):
        if (m := (masks[i] & masks[j]).bit_count()) != 1:
            note(f"lines {i},{j} meet in {m} points")
            if len(v) >= 50:
                break

    # in a linear space (each pair of points 0..n-1 on exactly one line) a
    # quadrangle exists exactly when two points lie off a longest line; the
    # others are single lines and near-pencils (de Bruijn and Erdős, 1948)
    if sum(c == 1 and a >= 0 and b < n for (a, b), c in pair_count.items()) == expected:
        if n - max((m.bit_count() for m in masks), default=0) < 2:
            note("no quadrangle: every 4-point subset has 3 collinear points")

    return not v, v


def _corrupt(rng, plane):
    # one to four faults: toggle an id (one past either end strays), repeat
    # a line, drop a line, repeat a point, or add a point on no line
    n, lines = plane.n_points, [list(l) for l in plane.lines]
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(5)
        if kind == 4:
            n += 1
        elif not lines:
            continue
        elif kind == 0:
            l, p = rng.choice(lines), rng.randrange(-1, n + 1)
            if p in l:
                l.remove(p)
            else:
                l.append(p)
        elif kind == 1:
            lines.insert(rng.randrange(len(lines) + 1), list(rng.choice(lines)))
        elif kind == 2:
            lines.pop(rng.randrange(len(lines)))
        elif l := rng.choice(lines):
            l.append(rng.choice(l))
    return GenericPlane(q=plane.q, n_points=n, lines=tuple(tuple(sorted(l)) for l in lines))


def test_axiom_check_matches_the_pair_reference():
    # the same report as the quadratic reference wherever no id strays, and
    # the same verdict everywhere
    small = [cyclic_plane(2), cyclic_plane(3), *_linear_spaces()]
    whole = small + [pg_from_field(q).to_generic() for q in (5, 7, 8, 9)]
    whole += [ag_from_field(q).to_generic() for q in (5, 7, 8, 9)]
    whole += [cyclic_plane(q) for q in (4, 5, 7)]
    for plane in whole:
        rep = check_plane_axioms(plane)
        assert (rep.ok, rep.violations) == _reference_check(plane), plane
    rng, clean, stray = random.Random(1), 0, 0
    for plane in small:
        for _ in range(60):
            bad = _corrupt(rng, plane)
            rep, (ok, violations) = check_plane_axioms(bad), _reference_check(bad)
            if any(not 0 <= p < bad.n_points for l in bad.lines for p in l):
                assert rep.ok == ok, bad
                stray += 1
            else:
                assert (rep.ok, rep.violations) == (ok, violations), bad
                clean += 1
    assert clean >= 2000 and stray >= 200, (clean, stray)


def _has_quadrangle_by_subsets(plane):
    # four points of which no three lie on one line, by trying every 4-subset
    collinear = {t for l in plane.lines for t in combinations(sorted(set(l)), 3)}
    return any(
        not any(t in collinear for t in combinations(four, 3))
        for four in combinations(range(plane.n_points), 4)
    )


def _near_pencil(n, off):
    # every point but ``off`` on one line, and ``off`` joined to each of them
    on = [p for p in range(n) if p != off]
    return GenericPlane(q=2, n_points=n, lines=(tuple(on), *(tuple(sorted((p, off))) for p in on)))


def _linear_spaces():
    for q in (2, 3, 4):
        yield pg_from_field(q).to_generic()
        yield ag_from_field(q).to_generic()
    for n in range(1, 13):
        yield GenericPlane(q=2, n_points=n, lines=(tuple(range(n)),))
        if n >= 3:
            yield from (_near_pencil(n, off) for off in (0, n // 2, n - 1))
    for n in range(1, 8):
        yield GenericPlane(q=2, n_points=n, lines=tuple(combinations(range(n), 2)))


def test_quadrangle_rule_matches_brute_force():
    # each pair of points on exactly one line: the rule on line sizes decides
    note = "no quadrangle: every 4-point subset has 3 collinear points"
    for plane in _linear_spaces():
        pairs = Counter(p for l in plane.lines for p in combinations(l, 2))
        assert sorted(pairs) == list(combinations(range(plane.n_points), 2))
        assert set(pairs.values()) <= {1}
        rep = check_plane_axioms(plane)
        assert (note in rep.violations) == (not _has_quadrangle_by_subsets(plane)), plane


@pytest.mark.parametrize("builder", [pg_from_field, ag_from_field])
def test_coord_plane_point_count(builder):
    for q in (2, 3, 4, 5, 7, 8, 9):
        assert builder(q).n_points == len(builder(q).points())


@given(st.integers(0, 12), st.integers(0, 12))
def test_two_points_one_line(i, j):
    view = pg_from_field(3).to_generic()
    if i == j:
        assert view.line_between(i, j) is None
        return
    li = view.line_between(i, j)
    assert li is not None
    assert {i, j} <= set(view.lines[li])
    hits = [k for k, l in enumerate(view.lines) if {i, j} <= set(l)]
    assert hits == [li]


def _incidence_lines(coord):
    # the brute-force view: every point tested against every line
    q = coord.q
    lines = [(1, b, c) for b in range(q) for c in range(q)] + [(0, 1, c) for c in range(q)]
    if coord.model == "PG":
        lines.append(LINE_INF)
    pts = coord.points()
    index = {P: i for i, P in enumerate(pts)}
    return tuple(
        sorted(
            tuple(sorted(index[P] for P in pts if incident(coord.spec, P, l)))
            for l in lines
        )
    )


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("builder", [pg_from_field, ag_from_field])
def test_to_generic_matches_incidence(builder, q):
    coord = builder(q)
    view = coord.to_generic()
    assert view.n_points == len(coord.points())  # point i is coord.points()[i]
    assert view.lines == _incidence_lines(coord)
    # one shared view per plane
    assert builder(q).to_generic() is view


def test_to_generic_is_frozen():
    # every id view of PG(2,q) and AG(2,q), q <= 32, as first frozen; for
    # q <= 64 the digest is 78996cdb5414ae22 (about 2 s)
    h = hashlib.sha256()
    for q in prime_powers_in(2, 32):
        for model in ("PG", "AG"):
            g = CoordPlane(model, field_for(q)).to_generic()
            h.update((json.dumps([model, q, g.n_points, g.transitive, g.lines]) + "\n").encode())
    assert h.hexdigest()[:16] == "ff4a550396b20b8a"


@pytest.mark.parametrize(
    "plane",
    [
        pg_from_field(3).to_generic(),
        ag_from_field(3).to_generic(),
        cyclic_plane(3),
        # damaged: points 0,1 lie on lines 0 and 2, and ids -1 and 5 stray
        GenericPlane(q=2, n_points=5, lines=((0, 1, 5), (-1, 2, 3), (0, 1, 4), (2, 4))),
    ],
    ids=["pg:3", "ag:3", "cyclic:3", "damaged"],
)
def test_line_between_is_the_smallest_joining_line(plane):
    joins = reference_joins(plane)
    n = plane.n_points
    for u in range(-1, n + 1):
        for v in range(-1, n + 1):
            assert plane.line_between(u, v) == joins.get((u, v)), (u, v)


def test_only_plane_touches_the_cache():
    # the incidence index is the one path to a generic plane's incidence,
    # and only line_between reads the cyclic model's difference tables
    import ast
    from pathlib import Path

    import planegraphs

    found = []
    for path in sorted(Path(planegraphs.__file__).parent.glob("*.py")):
        if path.name == "plane.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("_incidence", "_differences"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _reference_contains(plane, P) -> bool:
    # the rule as canon states it: in range, not zero, canon leaves it alone
    if not any(P) or not all(0 <= v < plane.q for v in P) or canon(plane.spec, P) != P:
        return False
    return plane.model == "PG" or is_affine(P)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_contains_is_the_canonical_rule(q):
    # every int triple one step past the range on either side
    for plane in (pg_from_field(q), ag_from_field(q)):
        inside = 0
        for P in product(range(-1, q + 1), repeat=3):
            assert plane.contains(P) == _reference_contains(plane, P), (plane, P)
            inside += plane.contains(P)
        assert inside == plane.n_points


@pytest.mark.parametrize("plane", [pg_from_field(4), ag_from_field(5)], ids=repr)
def test_line_between_is_line_through(plane):
    # every ordered pair, so that each pair is asked twice, once from the memo
    pts = plane.points()
    for P, Q in product(pts, repeat=2):
        want = None if P == Q else line_through(plane.spec, P, Q)
        assert plane.line_between(P, Q) == want, (P, Q)


def test_line_memo_stays_within_its_bound(monkeypatch):
    # line_between and the verifier's edge_lines both write the one memo, and
    # it is cleared whole at the bound, as the plane's memo of checked points
    import planegraphs.plane as plane_mod

    monkeypatch.setattr(plane_mod, "LINE_MEMO_BOUND", 5)
    monkeypatch.setattr(plane_mod, "_line_memo", {})
    plane = CoordPlane("PG", make_field(3))
    pts = plane.points()
    sizes = []
    for P, Q in product(pts, repeat=2):
        want = None if P == Q else line_through(plane.spec, P, Q)
        assert plane.line_between(P, Q) == want, (P, Q)
        sizes.append(len(plane_mod._line_memo))
        assert len(plane._ids) <= 5
    assert max(sizes) == 5 and 1 in sizes[sizes.index(5):]
    images = pg_cycle(3, 12).vertex_images
    emb = emit(cycle_graph(12), images, plane)
    assert 0 < len(plane_mod._line_memo) <= 5 and 0 < len(plane._ids) <= 5
    assert emb.edge_images == tuple(line_through(plane.spec, images[u], images[v]) for u, v in emb.graph.edges)


def test_line_memo_is_shared_by_both_models(monkeypatch):
    # the line through two affine points is one triple in AG(2,q) and PG(2,q),
    # keyed by the same order and id pair
    import planegraphs.plane as plane_mod

    monkeypatch.setattr(plane_mod, "_line_memo", {})
    emb = ag_cycle(7, 20)
    assert emb.edge_images == tuple(plane_mod._line_memo.values())
    derived = []
    real = plane_mod.line_through
    monkeypatch.setattr(
        plane_mod, "line_through", lambda spec, P, Q: derived.append((P, Q)) or real(spec, P, Q)
    )
    again = emit(emb.graph, emb.vertex_images, pg_from_field(7))
    assert again.model == "PG" and again.edge_images == emb.edge_images
    assert derived == [] and len(plane_mod._line_memo) == 20


def test_points_are_built_once():
    plane = pg_from_field(5)
    assert type(plane.points()) is tuple and plane.points() is plane.points()
