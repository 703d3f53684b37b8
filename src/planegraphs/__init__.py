"""Graph embeddings in finite affine and projective planes.

Explicit constructions for cycles (pancyclicity of AG(2,q) and PG(2,q)),
wheels, and gears; primitive-pair certificates over GF(q); a brute-force
embedding oracle for small planes; and a verifier every construction
passes, once, in ``graphs.emit`` before it is returned.

``import planegraphs`` loads no submodule: each exported name, and each
submodule named in ``_EXPORTS``, loads its submodule on first use (PEP 562).
"""

# each submodule and the names the package exports from it
_EXPORTS = {
    "gf": """ConjectureViolation DegenerateAlpha FieldSpec HypothesisJCertificate
        consecutive_primitive_pair element_order field_for first_primitive gamma_map
        gamma_prime_map hypothesis_j_search is_primitive make_field prime_power
        prime_powers_in primitive_iter""",
    "plane": """CoordPlane FormatError GenericPlane PlaneReport ag_from_field
        check_plane_axioms load_plane pg_from_field save_plane""",
    "graphs": """ConstructionFailed Embedding Graph ImpossibleDegree VerifyReport
        cycle_graph edge_list_graph emit gear_graph read_embedding verify_embedding
        wheel_graph write_embedding""",
    "oracle": "DEFAULT_BUDGET OracleResult exists_embedding pancyclicity_table",
    "cycles": """NoCertificate SlopeLabeling ag_cycle base_path cycle_q2 cyclic_plane
        labeling_for long_cycle path_closed_form pg_cycle plane_for singer_cycle
        singer_difference_set""",
    "wheelgear": "Plan arc_points gear gear_plan wheel wheel_plan",
}
_OWNER = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_OWNER)


def __getattr__(name):
    """An exported name or a submodule of ``_EXPORTS``, imported now and bound
    in the package, so that later lookups do not come back here."""
    mod = _OWNER.get(name, name)
    if mod not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{mod}")
    if name != mod:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})


__version__ = "0.1.0"
