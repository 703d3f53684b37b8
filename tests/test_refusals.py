"""Orders that name no field the package builds, refused by every entry point.

A library entry point raises ValueError; the command line reports it as a
usage error (exit 2) with the same text, and writes nothing.
"""

import pytest

from planegraphs.cli import main
from planegraphs.cycles import (
    ag_cycle,
    cyclic_plane,
    labeling_for,
    path_closed_form,
    pg_cycle,
    plane_for,
    singer_difference_set,
)
from planegraphs.gf import hypothesis_j_search
from planegraphs.plane import ag_from_field, pg_from_field
from planegraphs.wheelgear import arc_points, gear_plan, wheel_plan

ENTRY_POINTS = {
    "pg_from_field": pg_from_field,
    "ag_from_field": ag_from_field,
    "plane_for_PG": lambda q: plane_for("PG", q),
    "plane_for_AG": lambda q: plane_for("AG", q),
    "plane_for_CYCLIC": lambda q: plane_for("CYCLIC", q),
    "labeling_for": labeling_for,
    "path_closed_form": lambda q: path_closed_form(q, 1, 1, 0),
    "ag_cycle": lambda q: ag_cycle(q, 3),
    "pg_cycle": lambda q: pg_cycle(q, 3),
    "singer_difference_set": singer_difference_set,
    "cyclic_plane": cyclic_plane,
    "wheel_plan": lambda q: wheel_plan(q, 3),
    "gear_plan": lambda q: gear_plan(q, 3),
    "arc_points": arc_points,
    "hypothesis_j_search": hypothesis_j_search,
}

OVER_BOUND = 1 << 21

REFUSED = [(q, "is not a prime power") for q in (0, 1, 6, 12)]
REFUSED.append((OVER_BOUND, "exceeds supported bound"))


@pytest.mark.parametrize("q,text", REFUSED)
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_library_refuses(name, q, text):
    with pytest.raises(ValueError, match=text):
        ENTRY_POINTS[name](q)


def _cli_cells(q):
    return {
        "field": ["field", "info", "--q", str(q)],
        "plane_export": ["plane", "export", "--q", str(q), "--out", "x.json"],
        "cycle": ["cycle", "--q", str(q), "--k", "5"],
        "cycle_sweep": ["cycle", "sweep", "--q", str(q)],
        "wheel": ["wheel", "--q", str(q), "--n", "3"],
        "gear": ["gear", "--q", str(q), "--n", "3"],
        "oracle_pg": ["oracle", "--graph", "cycle:3", "--plane", f"pg:{q}"],
        "oracle_ag": ["oracle", "--graph", "cycle:3", "--plane", f"ag:{q}"],
        "oracle_cyclic": ["oracle", "--graph", "cycle:3", "--plane", f"cyclic:{q}"],
        "hypj": ["hypj", "--q", str(q)],
    }


def _run_in(tmp_path, monkeypatch, capsys, argv):
    # in an empty directory, so that anything the command writes shows
    monkeypatch.chdir(tmp_path)
    rc = main(argv)
    err = capsys.readouterr().err
    return rc, err, sorted(p.name for p in tmp_path.iterdir())


@pytest.mark.parametrize("q", [6, 12])
@pytest.mark.parametrize("cell", sorted(_cli_cells(0)))
def test_cli_refuses_non_prime_power(cell, q, tmp_path, monkeypatch, capsys):
    rc, err, left = _run_in(tmp_path, monkeypatch, capsys, _cli_cells(q)[cell])
    assert rc == 2 and left == []
    if cell == "hypj":
        assert "prime power" in err
    else:
        assert err == f"error: q={q} is not a prime power\n"


def _over_bound_cells():
    q = str(OVER_BOUND)
    return {**_cli_cells(OVER_BOUND), "hypj_sweep": ["hypj", "sweep", "--min", q, "--max", q]}


@pytest.mark.parametrize("cell", sorted(_over_bound_cells()))
def test_cli_refuses_over_bound(cell, tmp_path, monkeypatch, capsys):
    rc, err, left = _run_in(tmp_path, monkeypatch, capsys, _over_bound_cells()[cell])
    assert rc == 2 and left == []
    assert "exceeds supported bound" in err and "Traceback" not in err


def test_only_gf_calls_prime_power():
    # whether q names a field is decided in gf.field_for alone
    import ast
    from pathlib import Path

    import planegraphs

    found = []
    for path in sorted(Path(planegraphs.__file__).parent.glob("*.py")):
        if path.name == "gf.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                if getattr(f, "id", getattr(f, "attr", None)) == "prime_power":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
