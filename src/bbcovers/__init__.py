"""Bivariate bicycle codes, Tanner-graph covers, and logical operator lifting."""

from .gf2 import BinMatrix, RowReducer, ShapeError
from .rings import (
    ContextMismatch,
    Monomial,
    Poly,
    PolyParseError,
    RingContext,
    parse_poly,
)
from .codes import (
    BBCode,
    Classification,
    InternalConsistencyError,
    LogicalBasis,
    PauliOp,
    Refusal,
    build_code,
    pairing_matrix,
    parse_code_spec,
    parse_pauli,
)
from .distance import DistanceResult, distance_one_side, exact_distance, verify_dx_equals_dz
from .covers import (
    CoverEnumeration,
    CoverRecord,
    CoverRefusal,
    CoverWitness,
    TannerGraph,
    build_derived_graph,
    build_tanner_graph,
    canonical_form,
    check_cover,
    enumerate_covers,
    is_connected,
    verify_cover_isomorphism,
)
from .chainmaps import (
    BoundReport,
    ChainMap,
    ClassifiedOp,
    HomologyMap,
    classical_inherited_check,
    compose_p_tau,
    constant_section,
    distance_bounds,
    induced_homology_map,
    lift_logical,
    lift_poly,
    lifting_map,
    project_logical,
    project_poly,
    projection_map,
    weight_preserving_lift_search,
)
from .autos import (
    CodeAutomorphism,
    DualityAction,
    LogicalAction,
    ZXDuality,
    antipode_zx_duality,
    block_swap_zx_duality,
    compare_base_and_lifted_action,
    compare_base_and_lifted_duality_action,
    duality_action,
    lift_automorphism,
    lift_zx_duality,
    logical_action,
    shift_automorphism,
    tau_lifted_basis,
    verify_automorphism,
    verify_zx_duality,
    y_exponent_swap_automorphism,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
