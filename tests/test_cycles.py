"""Base paths, closed form, long cycles, pancyclic sweeps, Singer planes."""

import hashlib
import json

import pytest

from oracle_reference import reference_joins
from planegraphs import cycles
from planegraphs.cycles import (
    NoCertificate,
    SlopeLabeling,
    ag_cycle,
    cyclic_plane,
    labeling_for,
    path_closed_form,
    pg_cycle,
    plane_for,
    singer_cycle,
    singer_difference_set,
)
from planegraphs.gf import (
    element_order,
    field_for,
    gamma_map,
    gamma_prime_map,
    hypothesis_j_search,
    make_field,
    prime_power,
    prime_powers_in,
)
from planegraphs.graphs import (
    ConstructionFailed,
    cycle_graph,
    embedding_to_json,
    emit,
    verify_embedding,
)
from planegraphs.plane import (
    ORIGIN,
    affine_triple,
    ag_from_field,
    check_plane_axioms,
    incident,
    intersect,
    line_through,
    pg_from_field,
)


def test_labeling_covers_all_directions():
    for q, kind in ((5, "A"), (7, "A"), (4, "B"), (8, "B"), (9, "A")):
        lab = labeling_for(q, kind=kind)
        assert lab.kind == kind
        assert len(lab.slopes) == q + 1
        assert lab.slopes[0] is None  # the vertical class
        dirs = {lab.direction_point(i) for i in range(q + 1)}
        assert len(dirs) == q + 1


def test_labeling_for_q3_has_no_certificate():
    with pytest.raises(NoCertificate):
        labeling_for(3)


def test_base_path_geometry():
    for q in (5, 7, 9):
        lab = labeling_for(q)
        points, m = lab.path(1), lab.walk[1]
        spec = lab.spec
        assert len(points) == q + 1
        assert len(set(points)) == q + 1
        for i, t in enumerate(points):
            assert incident(spec, t, lab.o_lines[i])
            assert t != (0, 0, 1)
        # the return line closes back to the vertical axis at (0, m)
        assert incident(spec, affine_triple(spec, 0, m), lab.class_line_through(1, points[q]))


@pytest.mark.parametrize("q", [7, 8, 13])
def test_a_labeling_walks_once(q, monkeypatch):
    # a labeling joins its q+1 lines l_i, its walk's q links and the return
    # line once; every base path, its chain and its long cycle scale the walk
    assert labeling_for(q) is labeling_for(q) is labeling_for(q, kind=labeling_for(q).kind)
    lab = SlopeLabeling.make(field_for(q), labeling_for(q).kind, labeling_for(q).alpha)
    joins = []
    real = cycles.line_through
    monkeypatch.setattr(cycles, "line_through", lambda *a: joins.append(a) or real(*a))
    first = lab.path(2)
    assert len(joins) == 2 * q + 2
    assert lab.path(2) == first
    assert len({lab.path(b) for b in range(1, q)}) == q - 1
    long = emit(cycle_graph(len(lab.chain)), lab.chain, ag_from_field(q))
    assert len(lab.chain) == len(long.vertex_images) == q * q - 1
    assert len(joins) == 2 * q + 2  # nothing after the first base path joined a line
    assert lab.o_lines == tuple(lab.class_line_through(i, ORIGIN) for i in range(q + 1))
    # each base path is the labeling's walk scaled on demand; the labeling
    # keeps its lines, its walk and its chain, and no scaled path
    assert lab.path(1) == lab.walk[0]
    assert set(vars(lab)) == {"spec", "kind", "alpha", "slopes", "o_lines", "walk", "chain"}


def test_multiplier_matches_field_maps():
    # kind A returns gamma(alpha); kind B returns gamma'(alpha)
    lab5 = labeling_for(5)
    assert lab5.walk[1] == gamma_map(lab5.spec, lab5.alpha)
    lab8 = labeling_for(8)
    assert lab8.walk[1] == gamma_prime_map(lab8.spec, lab8.alpha)
    # kind B in odd characteristic follows the same law
    spec7 = make_field(7)
    lab7b = SlopeLabeling.make(spec7, "B", 3)
    got = lab7b.walk[1]
    assert got == gamma_prime_map(spec7, 3)
    assert got == 2


def test_base_path_q3_explicit_labeling():
    spec = make_field(3)
    lab = SlopeLabeling.make(spec, "A", 2)  # alpha = -1
    assert lab.walk[1] == 2


@pytest.mark.parametrize("q", [5, 7, 9, 13, 25, 27])
def test_closed_form_matches_geometry(q):
    lab = labeling_for(q)
    alpha = lab.alpha
    for b in range(1, q):
        points = lab.path(b)
        # index i names the far endpoint of link i; i=q is the return point
        for i in range(q):
            want = points[i + 1]
            got = path_closed_form(q, alpha, b, i)
            assert got == want, (q, b, i)
        assert path_closed_form(q, alpha, b, q) == _return_point(lab, points)


def _return_point(lab, points):
    # Q_0 from the geometry: the class-1 line through P_q meets l_0
    return intersect(lab.spec, lab.class_line_through(1, points[-1]), lab.o_lines[0])


def test_return_point_is_gamma_beta():
    for q in (5, 7, 9, 13):
        lab = labeling_for(q)
        spec = lab.spec
        for b in (1, 2, q - 1):
            points, m = lab.path(b), lab.walk[1]
            q0 = _return_point(lab, points)
            assert q0 == affine_triple(spec, 0, spec.emul(m, b))
            assert q0 == path_closed_form(q, lab.alpha, b, q)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_long_cycle_length_law(q):
    lab = labeling_for(q)
    emb = ag_cycle(q, q * q - 1)
    order = element_order(lab.spec, lab.walk[1])
    assert len(emb.vertex_images) == (q + 1) * order == q * q - 1
    assert verify_embedding(emb.graph, emb, plane_for(emb.model, emb.q)).ok
    # no chain line may pass through the origin
    spec = lab.spec
    for l in emb.edge_images:
        assert not incident(spec, (0, 0, 1), l)


def _walk(lab, beta):
    # the reference: the recurrence walked from (0, beta), P_{j+1} the meet
    # of the class-(j+2) line through P_j with l_{j+1}
    spec, n = lab.spec, lab.q + 1
    points = [affine_triple(spec, 0, beta)]
    for j in range(lab.q):
        link = line_through(spec, lab.direction_point((j + 2) % n), points[-1])
        l_next = line_through(spec, lab.direction_point(j + 1), ORIGIN)
        points.append(intersect(spec, link, l_next))
    return tuple(points)


@pytest.mark.parametrize("kind", "AB")
@pytest.mark.parametrize("q", [q for q in prime_powers_in(4, 32) if hypothesis_j_search(q)])
def test_long_chain_is_the_per_beta_walk(q, kind):
    # base paths and the long chain scale one walk; each must equal the
    # recurrence walked afresh from its own (0, beta)
    lab = labeling_for(q, kind=kind)
    walks = {b: _walk(lab, b) for b in range(1, q)}
    assert {b: lab.path(b) for b in range(1, q)} == walks
    m = lab.walk[1]
    chain, b = [], 1
    for _ in range(element_order(lab.spec, m)):
        chain.extend(walks[b])
        b = lab.spec.emul(m, b)
    assert lab.chain == tuple(chain)


def test_plane_for_hands_out_one_plane_per_order():
    for q in (4, 5, 9):
        assert pg_from_field(q) is pg_from_field(q) is plane_for("PG", q)
        assert ag_from_field(q) is ag_from_field(q) is plane_for("AG", q)
        assert pg_from_field(q) is not ag_from_field(q)


@pytest.mark.parametrize("q", [4, 5, 7, 9])
def test_cycle_q2_covers_affine_plane(q):
    emb = ag_cycle(q, q * q)
    assert len(emb.vertex_images) == q * q
    pts = set(emb.vertex_images)
    assert len(pts) == q * q
    assert pts == set(ag_from_field(q).points())
    assert verify_embedding(emb.graph, emb, plane_for(emb.model, emb.q)).ok


def test_chain_rungs_take_any_full_orbit_labeling():
    # every chain rung reads the labeling it is handed, here the kind the
    # default does not take: byte for byte where its chain is the full
    # orbit, and refused at every rung where it is not
    h, count, short = hashlib.sha256(), 0, []
    for q in prime_powers_in(4, 16):
        lab = labeling_for(q, "B" if q % 2 else "A")
        if len(lab.chain) != q * q - 1:
            short.append((q, len(lab.chain)))
            for k in range(q + 2, q * q + q + 1):
                with pytest.raises(ValueError, match="^rerouting needs the full-orbit long cycle$"):
                    cycles._chain_rung(lab, k)
            continue
        for plane, top in ((ag_from_field(q), q * q), (pg_from_field(q), q * q + q)):
            for k in range(q + 2, top + 1):
                emb = emit(cycle_graph(k), cycles._chain_rung(lab, k), plane)
                h.update(embedding_to_json(emb).encode())
                count += 1
    assert short == [(13, 14)]
    assert (count, h.hexdigest()) == (
        1150, "da27c6d69f98cd9c91b00aefccbebb2e33100678b90d54ebf4625871fe14ee79")


def _assert_chain(emb, plane):
    rep = verify_embedding(emb.graph, emb, plane)
    assert rep.ok, rep.violations


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_ag_full_range(q):
    plane = ag_from_field(q)
    for k in range(3, q * q + 1):
        chain = ag_cycle(q, k)
        assert len(chain.vertex_images) == k
        _assert_chain(chain, plane)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_pg_full_range(q):
    plane = pg_from_field(q)
    for k in range(3, q * q + q + 2):
        chain = pg_cycle(q, k)
        assert len(chain.vertex_images) == k
        if chain.model == "CYCLIC":
            continue  # the Singer rung is verified in its own test
        _assert_chain(chain, plane)


def test_ag_spot_checks_larger():
    for q, ks in ((7, (3, 7, 8, 30, 48, 49)), (9, (10, 57, 80, 81))):
        plane = ag_from_field(q)
        for k in ks:
            _assert_chain(ag_cycle(q, k), plane)


def test_pg_spot_checks_larger():
    for q, ks in ((7, (3, 49, 50, 52, 55, 56)), (8, (64, 68, 70, 72))):
        plane = pg_from_field(q)
        for k in ks:
            chain = pg_cycle(q, k)
            if chain.model != "CYCLIC":
                _assert_chain(chain, plane)


def test_cycle_range_errors():
    with pytest.raises(ValueError):
        ag_cycle(5, 2)
    with pytest.raises(ValueError):
        ag_cycle(5, 26)
    with pytest.raises(ValueError):
        pg_cycle(4, 22)
    with pytest.raises(ValueError):
        ag_cycle(6, 5)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_singer_difference_set(q):
    D = singer_difference_set(q)
    n = q * q + q + 1
    assert len(D) == q + 1
    diffs = sorted((a - b) % n for a in D for b in D if a != b)
    assert diffs == sorted(range(1, n))  # perfect difference set


def test_singer_q2_normalized():
    assert singer_difference_set(2) == (0, 1, 3)


# frozen: the difference set each order gets from first_primitive of GF(q^3)
FROZEN_SINGER = {
    2: (0, 1, 3),
    3: (0, 1, 3, 9),
    4: (0, 1, 6, 8, 18),
    5: (0, 1, 4, 10, 12, 17),
    7: (0, 1, 7, 24, 36, 38, 49, 54),
    8: (0, 1, 11, 20, 38, 43, 59, 67, 71),
    9: (0, 1, 6, 10, 23, 26, 34, 41, 53, 55),
    11: (0, 1, 3, 15, 46, 71, 75, 84, 94, 101, 112, 128),
    13: (0, 1, 5, 13, 65, 68, 93, 111, 113, 122, 146, 152, 162, 169),
}


@pytest.mark.parametrize("q,D", sorted(FROZEN_SINGER.items()))
def test_singer_difference_set_frozen(q, D):
    assert singer_difference_set(q) == D


def test_singer_difference_sets_up_to_64_frozen():
    # GF(q^3) for q = 9, 25, 27 and 49 adds in odd composite fields; the
    # digest is sha256 over the lines json.dumps([q, D]), q ascending
    h = hashlib.sha256()
    for q in prime_powers_in(2, 64):
        h.update((json.dumps([q, list(singer_difference_set(q))]) + "\n").encode())
    assert h.hexdigest()[:16] == "6ef8aa61e2f5b22a"


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_cyclic_plane_is_projective(q):
    plane = cyclic_plane(q)
    assert plane.model == "CYCLIC" and plane.transitive
    rep = check_plane_axioms(plane)
    assert rep.ok, rep.violations


def test_failure_message_names_the_plane_briefly():
    # the plane's repr leaves out its lines: 757 of them for q = 27
    plane = cyclic_plane(27)
    graph = cycle_graph(3)
    with pytest.raises(ConstructionFailed) as info:
        emit(graph, (0, 0, 1), plane)
    assert "fails verification" in str(info.value)
    assert len(str(info.value)) < 300


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_cyclic_line_between_agrees_with_joins(q):
    plane = cyclic_plane(q)
    n = plane.n_points
    joins = reference_joins(plane)
    for u in range(n):
        for v in range(n):
            assert plane.line_between(u, v) == joins.get((u, v)), (u, v)


def test_singer_cycle_49_verifies_without_pair_table():
    emb = singer_cycle(49)
    plane = cyclic_plane(49)
    assert verify_embedding(emb.graph, emb, plane).ok
    assert "_incidence" not in vars(plane)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_singer_cycle_full_rung(q):
    emb = singer_cycle(q)
    n = q * q + q + 1
    assert emb.model == "CYCLIC"
    assert len(emb.vertex_images) == n
    assert len(set(emb.vertex_images)) == n
    assert len(set(emb.edge_images)) == n
    assert verify_embedding(emb.graph, emb, cyclic_plane(q)).ok


# one construction per rung of the cycle constructors: (constructor, arguments)
RUNGS = {
    "parabola": (ag_cycle, (5, 4)),
    "ellipse": (ag_cycle, (5, 6)),
    "surgery_close": (ag_cycle, (5, 10)),
    "surgery_skip": (ag_cycle, (5, 13)),
    "long_in_ag": (ag_cycle, (5, 24)),
    "through_origin": (ag_cycle, (5, 25)),
    "pg_from_ag": (pg_cycle, (5, 20)),
    "ladder_1": (pg_cycle, (5, 29)),
    "ladder_2": (pg_cycle, (5, 28)),
    "ladder_3": (pg_cycle, (5, 27)),
    "ladder_4": (pg_cycle, (5, 26)),
    "ladder_odd": (pg_cycle, (7, 51)),
    "ladder_even": (pg_cycle, (7, 50)),
    "full_rung": (pg_cycle, (5, 30)),
    "oracle_ag": (ag_cycle, (3, 5)),
    "oracle_pg": (pg_cycle, (3, 7)),
    "singer_in_pg": (pg_cycle, (4, 21)),
    "singer_cycle": (singer_cycle, (5,)),
}


@pytest.mark.parametrize("rung", sorted(RUNGS))
def test_each_constructor_emits_once(rung, monkeypatch):
    # a constructor returns the embedding emit returned: verified once, never rebuilt
    import planegraphs.cycles as cycles

    seen = []
    real = cycles.emit

    def spy(graph, images, plane):
        emb = real(graph, images, plane)
        seen.append(emb)
        return emb

    monkeypatch.setattr(cycles, "emit", spy)
    build, args = RUNGS[rung]
    emb = build(*args)
    assert len(seen) == 1
    assert emb is seen[0]


def _cycles_digest(builds) -> str:
    """One digest over the embedding files of the built chains, in order; a
    refused build contributes its exception and message."""
    h = hashlib.sha256()
    for build in builds:
        try:
            text = embedding_to_json(build())
        except (ValueError, ConstructionFailed, NoCertificate) as e:
            text = f"{type(e).__name__}: {e}\n"
        h.update(text.encode())
    return h.hexdigest()[:16]


def _frozen_builds(model, q):
    if model == "AG":
        return [lambda k=k: ag_cycle(q, k) for k in range(3, q * q + 1)]
    if model == "PG":
        return [lambda k=k: pg_cycle(q, k) for k in range(3, q * q + q + 2)]
    # LONG: the glued chain and its reroute through O, under both labeling kinds
    def chain(kind):
        lab = labeling_for(q, kind=kind)
        return emit(cycle_graph(len(lab.chain)), lab.chain, ag_from_field(q))

    def through_o(kind):
        lab = labeling_for(q, kind=kind)
        return emit(cycle_graph(q * q), cycles._chain_rung(lab, q * q), ag_from_field(q))

    return [lambda build=build, kind=kind: build(kind) for kind in "AB" for build in (chain, through_o)]


# frozen: every cycle artifact of these orders, byte for byte
FROZEN_CYCLES = {
    ('AG', 2): '1fa07a6bc5906b3d',
    ('AG', 3): 'eae1af28302fe92e',
    ('AG', 4): 'fcd243d450a53cb7',
    ('AG', 5): '5db9033f391ed5d8',
    ('AG', 7): '2c430bc802586c36',
    ('AG', 8): 'c8a20a6c36175eb1',
    ('AG', 9): 'fa36a1bd6a266f09',
    ('AG', 11): '8926f4ef24949c02',
    ('AG', 16): '128f4f86301c9641',
    ('AG', 17): '5e1972f09d0b2e1c',
    ('AG', 19): '99e20388aef73790',
    ('PG', 2): '6eaf746eec636fe5',
    ('PG', 3): 'aa4ab7a10771e8e3',
    ('PG', 4): '0124f32c6e0ce648',
    ('PG', 5): '2ae43eac3fab1983',
    ('PG', 7): 'a2b652ef755f8784',
    ('PG', 8): '43a809f41c91ab25',
    ('PG', 9): '2ad71c449db5a9a8',
    ('PG', 11): 'ca35ba0a66bec57e',
    ('PG', 16): '06954acda662ed23',
    ('PG', 17): 'a7131f568432625f',
    ('PG', 19): '11d3a85a907c70a1',
    ('LONG', 2): 'e93b7747279f384d',
    ('LONG', 3): 'b61602cb086abd4f',
    ('LONG', 4): '8229a23dbf22dfa8',
    ('LONG', 5): '807998302f2f6846',
    ('LONG', 7): 'db65860aa107b013',
    ('LONG', 8): '2f066c2a939a9a25',
    ('LONG', 9): 'e411343d9d94904a',
    ('LONG', 11): '8cc3986f29e2c3e9',
    ('LONG', 16): '4b7cfb1b9c0b39d1',
    ('LONG', 17): 'ce7b7d4664019068',
    ('LONG', 19): 'b6cbacc355186887',
}


@pytest.mark.parametrize("model,q", sorted(FROZEN_CYCLES))
def test_cycles_frozen(model, q):
    assert _cycles_digest(_frozen_builds(model, q)) == FROZEN_CYCLES[(model, q)]
