"""Graph embeddings in finite affine and projective planes.

Explicit constructions for cycles (pancyclicity of AG(2,q) and PG(2,q)),
wheels, and gears; primitive-pair certificates over GF(q); a brute-force
embedding oracle for small planes; and a verifier every construction
passes, once, in ``graphs.emit`` before it is returned.
"""

from .gf import (
    ConjectureViolation,
    DegenerateAlpha,
    FieldSpec,
    HypothesisJCertificate,
    consecutive_primitive_pair,
    element_order,
    field_for,
    first_primitive,
    gamma_map,
    gamma_prime_map,
    hypothesis_j_search,
    is_primitive,
    make_field,
    prime_power,
    prime_powers_in,
    primitive_iter,
)
from .plane import (
    CoordPlane,
    FormatError,
    GenericPlane,
    PlaneReport,
    ag_from_field,
    check_plane_axioms,
    load_plane,
    pg_from_field,
    save_plane,
)
from .graphs import (
    ConstructionFailed,
    Embedding,
    Graph,
    ImpossibleDegree,
    VerifyReport,
    cycle_graph,
    edge_list_graph,
    emit,
    gear_graph,
    read_embedding,
    verify_embedding,
    wheel_graph,
    write_embedding,
)
from .oracle import DEFAULT_BUDGET, OracleResult, exists_embedding, pancyclicity_table
from .cycles import (
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
    plane_for,
    singer_cycle,
    singer_difference_set,
)
from .wheelgear import (
    Plan,
    arc_points,
    gear,
    gear_plan,
    wheel,
    wheel_plan,
)

__version__ = "0.1.0"
