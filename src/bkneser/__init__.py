"""Bipartite Kneser graphs H(n, k) and computational checks of their
algebraic properties: transitivity, connectivity, automorphism groups, and
the dihedral Cayley structure of H(n, 1)."""

from .autgroup import are_isomorphic, automorphism_group
from .connectivity import (
    local_vertex_connectivity,
    max_flow,
    menger_certificate,
    vertex_connectivity,
)
from .dihedral import (
    ConnectionSet,
    DihedralElement,
    build_cayley_graph,
    dihedral_inverse,
    dihedral_multiply,
    explicit_iso_Hn1,
    left_regular_subgroup,
    reflection_connection_set,
)
from .graphs import Graph
from .kneser import KneserGraph, build_bipartite_kneser, verify_family_counts
from .perms import (
    PermutationGroup,
    commutes,
    complement_automorphism,
    compose,
    element_order,
    group_closure,
    induced_automorphism,
    inverse,
    is_regular_action,
    known_generators,
    orbit,
    orbits_on_ordered_pairs,
    orbits_on_unordered_pairs,
    orbits_on_vertices,
    stabilizer,
    sym_generators,
)
from .subsets import Subset, binomial, rank_subset, unrank_subset
from .symmetry import (
    explore_question1,
    explore_question2,
    find_regular_subgroup,
    is_arc_transitive,
    is_distance_transitive,
    is_edge_transitive,
    is_vertex_transitive,
    transitivity_report,
    verify_direct_product,
)

__version__ = "0.1.0"

__all__ = [
    "ConnectionSet",
    "DihedralElement",
    "Graph",
    "KneserGraph",
    "PermutationGroup",
    "Subset",
    "are_isomorphic",
    "automorphism_group",
    "binomial",
    "build_bipartite_kneser",
    "build_cayley_graph",
    "commutes",
    "complement_automorphism",
    "compose",
    "dihedral_inverse",
    "dihedral_multiply",
    "element_order",
    "explicit_iso_Hn1",
    "explore_question1",
    "explore_question2",
    "find_regular_subgroup",
    "group_closure",
    "induced_automorphism",
    "inverse",
    "is_arc_transitive",
    "is_distance_transitive",
    "is_edge_transitive",
    "is_regular_action",
    "is_vertex_transitive",
    "known_generators",
    "left_regular_subgroup",
    "local_vertex_connectivity",
    "max_flow",
    "menger_certificate",
    "orbit",
    "orbits_on_ordered_pairs",
    "orbits_on_unordered_pairs",
    "orbits_on_vertices",
    "rank_subset",
    "reflection_connection_set",
    "stabilizer",
    "sym_generators",
    "transitivity_report",
    "unrank_subset",
    "verify_direct_product",
    "verify_family_counts",
    "vertex_connectivity",
]
