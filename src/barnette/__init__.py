"""Generation and analysis toolkit for cubic 3-connected planar bipartite graphs."""

from .graphs import (
    BipartiteGraph,
    Cut,
    GraphError,
    bits,
    connected_components,
    is_connected,
    is_k_connected,
    shore_colour_balance,
    vertex_mask,
    with_colouring,
)
from .canon import canonical_form
from .io import from_bgf, from_graph6, to_bgf, to_graph6
from .embedding import (
    C4Site,
    RotationEmbedding,
    embed_planar,
    euler_check,
    face_vertices,
    faces,
    facial_c4_expansion_sites,
)
from .matching import (
    OracleBoundError,
    PerfectMatching,
    enumerate_perfect_matchings,
    has_perfect_matching,
    is_brace,
    is_matching_covered,
)
from .hamiltonicity import (
    HamiltonianCycle,
    HamiltonicityEngine,
    PropertyResult,
    find_hamiltonian_cycle,
    has_h_minus,
    has_h_plus_minus,
    is_hamiltonian,
    is_pk_hamiltonian,
    property_profile,
)
from .tightcut import (
    DecompositionResult,
    DecompositionStep,
    contract,
    cubic_three_connected,
    cut_from_edge_ids,
    family_is_laminar,
    find_nontrivial_tight_cut,
    find_tight_cuts_cubic,
    is_cyclically_4_connected,
    is_tight,
    tight_cut_decomposition,
)
from .constructions import (
    CycleSaturationError,
    K33Bisubdivision,
    Splice,
    braces_pfaffian_consistency,
    conformal_cycles,
    enumerate_simple_cycles,
    find_conformal_k33_bisubdivision,
    find_pfaffian_orientation,
    is_oddly_oriented,
    splice,
    trisum,
)
from .expansion import (
    ExpansionSite,
    TightCutFamily,
    c4_expand,
    cube_expand,
    general_c4_expand,
    update_family_c4,
    update_family_cube,
)
from .catalog import CatalogEntry, CatalogError, catalog, catalog_names
from .generator import GenerationRecord, class_counts, generate, survey, verify_record

__all__ = [name for name in dir() if not name.startswith("_")]
