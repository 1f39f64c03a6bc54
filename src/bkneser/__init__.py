"""Bipartite Kneser graphs H(n, k) and computational checks of their
algebraic properties: transitivity, connectivity, automorphism groups, and
the dihedral Cayley structure of H(n, 1)."""

from .autgroup import automorphism_group
from .connectivity import max_flow, menger_certificate, vertex_connectivity
from .dihedral import (
    build_cayley_graph,
    dihedral_inverse,
    dihedral_label,
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
    known_generators,
    orbit,
    orbits_on_ordered_pairs,
    orbits_on_unordered_pairs,
    orbits_on_vertices,
    stabilizer_generators,
    sym_generators,
)
from .subsets import binomial, format_subset, rank_subset, unrank_subset
from .symmetry import (
    diameter_by_orbits,
    explore_question1,
    explore_question2,
    find_regular_subgroup,
    transitivity_report,
    verify_direct_product,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "KneserGraph",
    "PermutationGroup",
    "automorphism_group",
    "binomial",
    "build_bipartite_kneser",
    "build_cayley_graph",
    "commutes",
    "complement_automorphism",
    "compose",
    "diameter_by_orbits",
    "dihedral_inverse",
    "dihedral_label",
    "dihedral_multiply",
    "element_order",
    "explicit_iso_Hn1",
    "explore_question1",
    "explore_question2",
    "find_regular_subgroup",
    "format_subset",
    "group_closure",
    "induced_automorphism",
    "inverse",
    "known_generators",
    "left_regular_subgroup",
    "max_flow",
    "menger_certificate",
    "orbit",
    "orbits_on_ordered_pairs",
    "orbits_on_unordered_pairs",
    "orbits_on_vertices",
    "rank_subset",
    "reflection_connection_set",
    "stabilizer_generators",
    "sym_generators",
    "transitivity_report",
    "unrank_subset",
    "verify_direct_product",
    "verify_family_counts",
    "vertex_connectivity",
]
