"""Base paths, closed form, long cycles, pancyclic sweeps, Singer planes."""

import pytest

from oracle_reference import reference_joins
from planegraphs.cycles import (
    NoCertificate,
    SlopeLabeling,
    ag_cycle,
    base_path,
    cycle_q2,
    cyclic_plane,
    labeling_for,
    long_cycle,
    path_closed_form,
    pg_cycle,
    singer_cycle,
    singer_difference_set,
)
from planegraphs.gf import (
    element_order,
    gamma_map,
    gamma_prime_map,
    make_field,
    prime_power,
)
from planegraphs.graphs import ConstructionFailed, Embedding, cycle_graph, emit, verify_embedding
from planegraphs.plane import ag_from_field, check_plane_axioms, incident, pg_from_field


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
        path = base_path(q, lab)
        spec = lab.spec
        assert len(path.points) == q + 1
        assert len(set(path.points)) == q + 1
        for i, pt in enumerate(path.points):
            t = pt.triple()
            assert incident(spec, t, lab.through_o_line(i))
            assert t != (0, 0, 1)
        # the return line closes back to the vertical axis
        assert incident(spec, path.return_point.triple(), lab.through_o_line(0))


def test_multiplier_matches_field_maps():
    # kind A returns gamma(alpha); kind B returns gamma'(alpha)
    lab5 = labeling_for(5)
    assert base_path(5, lab5).multiplier == gamma_map(lab5.alpha)
    lab8 = labeling_for(8)
    assert base_path(8, lab8).multiplier == gamma_prime_map(lab8.alpha)
    # kind B in odd characteristic follows the same law
    spec7 = make_field(7)
    lab7b = SlopeLabeling.make(spec7, "B", spec7.element(3))
    got = base_path(7, lab7b).multiplier
    assert got == gamma_prime_map(spec7.element(3))
    assert got.enc == 2


def test_base_path_q3_explicit_labeling():
    spec = make_field(3)
    lab = SlopeLabeling.make(spec, "A", spec.element(2))  # alpha = -1
    path = base_path(3, lab)
    assert path.multiplier.enc == 2


@pytest.mark.parametrize("q", [5, 7, 9, 13, 25, 27])
def test_closed_form_matches_geometry(q):
    lab = labeling_for(q)
    spec = lab.spec
    alpha = lab.alpha
    for b in range(1, q):
        beta = spec.element(b)
        path = base_path(q, lab, b)
        # index i names the far endpoint of link i; i=q is the return point
        for i in range(q):
            want = path.points[i + 1]
            got = path_closed_form(q, alpha, beta, i)
            assert got == want, (q, b, i)
        assert path_closed_form(q, alpha, beta, q) == path.return_point


def test_return_point_is_gamma_beta():
    for q in (5, 7, 9, 13):
        lab = labeling_for(q)
        spec = lab.spec
        for b in (1, 2, q - 1):
            path = base_path(q, lab, b)
            q0 = path.return_point
            assert q0.x.is_zero
            assert q0.y == path.multiplier * spec.element(b)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_long_cycle_length_law(q):
    lab = labeling_for(q)
    chain = long_cycle(q, lab)
    order = element_order(base_path(q, lab).multiplier)
    assert chain.length == (q + 1) * order == q * q - 1
    emb = chain.to_embedding()
    assert verify_embedding(emb.graph, emb, chain.default_plane()).ok
    # no chain line may pass through the origin
    spec = lab.spec
    for l in chain.lines:
        assert not incident(spec, (0, 0, 1), l)


@pytest.mark.parametrize("q", [4, 5, 7, 9])
def test_cycle_q2_covers_affine_plane(q):
    chain = cycle_q2(q)
    assert chain.length == q * q
    pts = set(chain.points)
    assert len(pts) == q * q
    assert pts == set(ag_from_field(q).points())
    emb = chain.to_embedding()
    assert verify_embedding(emb.graph, emb, chain.default_plane()).ok


def _assert_chain(chain, plane):
    emb = chain.to_embedding()
    rep = verify_embedding(emb.graph, emb, plane)
    assert rep.ok, rep.violations


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_ag_full_range(q):
    plane = ag_from_field(q)
    for k in range(3, q * q + 1):
        chain = ag_cycle(q, k)
        assert chain.length == k
        _assert_chain(chain, plane)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_pg_full_range(q):
    plane = pg_from_field(q)
    for k in range(3, q * q + q + 2):
        chain = pg_cycle(q, k)
        assert chain.length == k
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
    bad = Embedding("CYCLIC", 27, graph, (0, 0, 1), (0, 0, 0))
    with pytest.raises(ConstructionFailed) as info:
        emit(graph, bad, plane)
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
    chain = singer_cycle(49)
    emb = chain.to_embedding()
    plane = cyclic_plane(49)
    assert verify_embedding(emb.graph, emb, plane).ok
    assert "incidence" not in plane._cache


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_singer_cycle_full_rung(q):
    chain = singer_cycle(q)
    n = q * q + q + 1
    assert chain.model == "CYCLIC"
    assert chain.length == n
    assert len(set(chain.points)) == n
    assert len(set(chain.lines)) == n
    emb = chain.to_embedding()
    assert verify_embedding(emb.graph, emb, cyclic_plane(q)).ok
