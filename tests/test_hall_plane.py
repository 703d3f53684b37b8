"""The Hall plane of order 9 and its dual, built by ``plane_from_ring`` from
the nearfield of order 9: the first planes here that are not PG(2,q), and
the first runs of the generic wheel and gear routes on such a plane."""

import hashlib
import json
from itertools import product

import pytest

from planegraphs.gf import field_for
from planegraphs.graphs import verify_embedding
from planegraphs.plane import GenericPlane, check_plane_axioms, plane_from_ring
from planegraphs.wheelgear import gear_plan, wheel_plan

F = field_for(9)
SQUARES = {F.emul(t, t) for t in range(1, 9)}


def nearfield_mul(x, m):
    # x∘m = x·m when m is 0 or a square, x³·m otherwise
    return F.emul(x if m == 0 or m in SQUARES else F.emul(x, F.emul(x, x)), m)


def ring(x, m, b):
    return F.eadd(nearfield_mul(x, m), b)


def dual(plane):
    # points are the line indices; each point's lines through it are a line
    pencils = [[] for _ in range(plane.n_points)]
    for li, line in enumerate(plane.lines):
        for p in line:
            pencils[p].append(li)
    lines = tuple(sorted(map(tuple, pencils)))
    return GenericPlane(q=plane.q, n_points=len(plane.lines), lines=lines)


HALL = plane_from_ring(9, ring)
PLANES = {"hall": HALL, "dual": dual(HALL)}


@pytest.mark.parametrize("name", PLANES)
def test_planes_pass_the_axioms(name):
    rep = check_plane_axioms(PLANES[name])
    assert rep.ok, rep.violations
    assert (rep.points, rep.lines, rep.line_size) == (91, 91, 10)


def test_the_product_is_not_a_field_product():
    # one distributive law fails, so the ring is no field's
    assert any(
        nearfield_mul(x, F.eadd(m, n)) != F.eadd(nearfield_mul(x, m), nearfield_mul(x, n))
        for x, m, n in product(range(9), repeat=3)
    )


def test_the_ring_read_off_the_quadrangle_is_the_nearfield_ring():
    # with (0,0), (1,1), (0) and (inf) as the quadrangle, T(x, m, b) is read
    # off the incidence: the line through (0, b) and (m) meets x = x in
    # (x, T(x, m, b)).  A Desarguesian plane's ring is a field, and this one
    # is not (above), so the Hall plane is not PG(2,9).
    q, lines = 9, [set(l) for l in HALL.lines]
    for m in range(q):
        for b in range(q):
            through = lines[HALL.line_between(b, q * q + m)]
            for x in range(q):
                (p,) = through & lines[HALL.line_between(x * q, q * q + q)]
                assert divmod(p, q) == (x, ring(x, m, b)), (x, m, b)


# sha256 prefix over json.dumps([kind, n, route, vertex_images]) + "\n",
# wheel then gear for each n = 3..10, as the generic routes built them when
# first frozen
FROZEN_CELLS = {"hall": "39b56b31e08db923", "dual": "257ad9df627b7224"}


@pytest.mark.parametrize("name", PLANES)
def test_wheel_and_gear_cells_are_frozen(name):
    plane, h, routes = PLANES[name], hashlib.sha256(), []
    for n in range(3, 11):
        for kind, build in (("wheel", wheel_plan), ("gear", gear_plan)):
            plan = build(9, n, plane)
            routes.append(plan.route)
            row = json.dumps([kind, n, plan.route, plan.embedding.vertex_images])
            h.update((row + "\n").encode())
    wheels = ["ARC"] * 5 + ["ORACLE"] * 3  # W_3..W_7, then W_8..W_10
    gears = ["FROM_WHEEL"] * 3 + ["ORACLE"] * 5  # G_3..G_5, then G_6..G_10
    assert routes == [r for pair in zip(wheels, gears) for r in pair]
    assert h.hexdigest()[:16] == FROZEN_CELLS[name]


@pytest.mark.parametrize("name", PLANES)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_from_wheel_gear_is_verified_once(name, n, monkeypatch):
    # W_2n's images, from the greedy arc or the oracle, go straight to the
    # gear's check; they are not first checked as a wheel
    calls = []

    def counting(*args):
        calls.append(args[0].kind)
        return verify_embedding(*args)

    monkeypatch.setattr("planegraphs.graphs.verify_embedding", counting)
    plan = gear_plan(9, n, PLANES[name])
    assert plan.route == "FROM_WHEEL"
    assert calls == ["GEAR"]
