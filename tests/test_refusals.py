"""Orders that name no field the package builds, refused by every entry point.

A library entry point raises ValueError; the command line reports it as a
usage error (exit 2) with the same text, and writes nothing.
"""

import pytest

from planegraphs.cli import main
from planegraphs.cycles import (
    SlopeLabeling,
    ag_cycle,
    cyclic_plane,
    labeling_for,
    path_closed_form,
    pg_cycle,
    plane_for,
    singer_difference_set,
)
from planegraphs.gf import field_for, hypothesis_j_search
from planegraphs.graphs import ConstructionFailed, cycle_graph, emit
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


# refused input whose text comes from the library or the reference parser;
# the file fixtures are written into the working directory first
PINNED = {
    "cycle_k_low": (["cycle", "--q", "3", "--k", "2"], "k=2 outside 3..9"),
    "cycle_k_high_pg": (["cycle", "--q", "3", "--k", "14", "--plane", "pg"], "k=14 outside 3..13"),
    "wheel_small": (["wheel", "--q", "3", "--n", "2"], "wheel needs rim length at least 3"),
    "wheel_large": (["wheel", "--q", "3", "--n", "5"],
                    "wheel center degree 5 exceeds the pencil size 4"),
    "gear_small": (["gear", "--q", "3", "--n", "2"], "gear needs at least 3 spokes"),
    "gear_large": (["gear", "--q", "3", "--n", "5"],
                   "gear center degree 5 exceeds the pencil size 4"),
    "oracle_bad_graph_ref": (["oracle", "--graph", "cycle:x", "--plane", "pg:2"],
                             "bad graph reference 'cycle:x' (want kind:n or a .json file)"),
    "oracle_bad_plane_ref": (["oracle", "--graph", "cycle:3", "--plane", "pg"],
                             "bad plane reference 'pg' (want model:q or a .json file)"),
    "oracle_unknown_kind": (["oracle", "--graph", "torus:4", "--plane", "pg:2"],
                            "unknown graph kind 'torus'"),
    "oracle_unknown_model": (["oracle", "--graph", "cycle:3", "--plane", "hg:2"],
                             "unknown plane model 'hg'"),
    "oracle_missing_graph": (["oracle", "--graph", "nope.json", "--plane", "pg:2"],
                             "[Errno 2] No such file or directory: 'nope.json'"),
    "oracle_missing_plane": (["oracle", "--graph", "cycle:3", "--plane", "nope.json"],
                             "[Errno 2] No such file or directory: 'nope.json'"),
    "oracle_graph_no_edges": (["oracle", "--graph", "g.json", "--plane", "pg:2"],
                              "malformed graph: 'edges'"),
    "oracle_graph_truncated": (["oracle", "--graph", "t.json", "--plane", "pg:2"],
                               "Expecting property name enclosed in double quotes: "
                               "line 1 column 2 (char 1)"),
    # both references bad: the graph's refusal comes first
    "oracle_both_bad": (["oracle", "--graph", "cycle:2", "--plane", "hg:2"],
                        "cycle needs at least 3 vertices"),
    "oracle_big_graph_bad_plane": (["oracle", "--graph", "gear:1000", "--plane", "pg:6"],
                                   "q=6 is not a prime power"),
    # a required argument left out
    "plane_export_no_out": (["plane", "export", "--q", "3"], "plane export needs --q and --out"),
    "plane_check_no_file": (["plane", "check"], "plane check needs a file argument"),
    "cycle_no_k": (["cycle", "--q", "5"], "cycle needs --k (or the sweep mode)"),
    "gear_no_n": (["gear", "--q", "5"], "gear needs --q and --n (or the sweep mode)"),
    "hypj_sweep_min_low": (["hypj", "sweep", "--min", "2"], "sweep needs --min >= 3"),
    "hypj_no_q": (["hypj"], "hypj needs --q (or the sweep mode)"),
}


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_cli_refusal_texts(cell, tmp_path, monkeypatch, capsys):
    (tmp_path / "g.json").write_text('{"kind":"EDGE_LIST"}')
    (tmp_path / "t.json").write_text("{")
    argv, text = PINNED[cell]
    rc, err, left = _run_in(tmp_path, monkeypatch, capsys, argv)
    assert (rc, err, left) == (2, f"error: {text}\n", ["g.json", "t.json"])


# every form that writes a file: an unusable output path is a usage error;
# the cycle sweep makes missing parents, so its unusable path lies under a file
UNUSABLE_PATHS = {
    "cycle": ["cycle", "--q", "3", "--k", "5", "--out", "nod/x.json"],
    "cycle_sweep": ["cycle", "sweep", "--q", "2", "--out-dir", "afile/sub"],
    "wheel": ["wheel", "--q", "3", "--n", "3", "--out", "nod/x.json"],
    "gear": ["gear", "--q", "3", "--n", "3", "--out", "nod/x.json"],
    "gear_sweep": ["gear", "sweep", "--q-max", "3", "--out", "nod/x.txt"],
    "plane_export": ["plane", "export", "--q", "2", "--out", "nod/x.json"],
    "oracle": ["oracle", "--graph", "cycle:3", "--plane", "pg:2", "--out", "nod/x.json"],
    "hypj_sweep": ["hypj", "sweep", "--max", "5", "--out", "nod/x.txt"],
}


@pytest.mark.parametrize("cell", sorted(UNUSABLE_PATHS))
def test_cli_refuses_unusable_output_path(cell, tmp_path, monkeypatch, capsys):
    (tmp_path / "afile").write_text("")
    argv = UNUSABLE_PATHS[cell]
    rc, err, left = _run_in(tmp_path, monkeypatch, capsys, argv)
    assert rc == 2 and left == ["afile"]
    assert err.startswith("error: [Errno ") and f"'{argv[-1]}'" in err


def test_only_main_maps_errors_to_usage():
    # the rule "a ValueError or OSError is a usage error" lives in cli.main;
    # a handler elsewhere may add words (a prefix, another exit code), not repeat it
    import ast
    from pathlib import Path

    import planegraphs

    watched = {"ValueError", "OSError", "FormatError", "ImpossibleDegree"}
    found = []
    tree = ast.parse((Path(planegraphs.__file__).parent / "cli.py").read_text())
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name == "main":
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught = {getattr(t, "id", None) for t in types}
                bare = ast.dump(ast.parse(f"return _usage_error(str({node.name}))").body[0])
                if caught & watched and [ast.dump(stmt) for stmt in node.body] == [bare]:
                    found.append(f"cli.py:{node.lineno} in {fn.name}")
    assert found == []


# encodings outside 0..q-1 (and a zero beta, which starts no base path) are
# refused by the entry points that take alpha or beta as a number
ENCODING_REFUSALS = {
    "make_alpha_q": (lambda: SlopeLabeling.make(field_for(7), "A", 7), "encoding 7 out of range for GF(7)"),
    "make_alpha_negative": (lambda: SlopeLabeling.make(field_for(7), "A", -1),
                            "encoding -1 out of range for GF(7)"),
    "base_path_beta_zero": (lambda: labeling_for(7).path(0), "base path must start off the origin"),
    "base_path_beta_q": (lambda: labeling_for(7).path(7), "encoding 7 out of range for GF(7)"),
    "base_path_beta_negative": (lambda: labeling_for(7).path(-1), "encoding -1 out of range for GF(7)"),
    "closed_form_alpha": (lambda: path_closed_form(7, 9, 1, 0), "encoding 9 out of range for GF(7)"),
    "closed_form_beta": (lambda: path_closed_form(7, 3, 7, 0), "encoding 7 out of range for GF(7)"),
    "closed_form_beta_negative": (lambda: path_closed_form(7, 3, -1, 0),
                                  "encoding -1 out of range for GF(7)"),
    "closed_form_composite": (lambda: path_closed_form(9, 9, 1, 0), "encoding 9 out of range for GF(9)"),
}


@pytest.mark.parametrize("cell", sorted(ENCODING_REFUSALS))
def test_out_of_range_encodings_refused(cell):
    call, text = ENCODING_REFUSALS[cell]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == text


# vertex images with a coordinate that is no int, as JSON true or 1.0 in a
# file the reader refuses: emit refuses them too, also once the plane has
# checked the equal int triple
QUADRANGLE = [(0, 0, 1), (1, 0, 0), (1, 1, 1), (0, 1, 0)]
NON_INT_IMAGES = {
    "bool_coordinate": (0, (0, 0, True)),
    "float_coordinates": (2, (1.0, 1.0, 1.0)),
}


@pytest.mark.parametrize("cell", sorted(NON_INT_IMAGES))
def test_non_int_coordinates_refused(cell):
    v, image = NON_INT_IMAGES[cell]
    plane = pg_from_field(5)
    emit(cycle_graph(4), QUADRANGLE, plane)
    with pytest.raises(ConstructionFailed) as info:
        emit(cycle_graph(4), QUADRANGLE[:v] + [image] + QUADRANGLE[v + 1:], plane)
    assert str(info.value) == f"CYCLE in PG(2,5): vertex {v} image {image!r} is not a point of PG(2,5)"
