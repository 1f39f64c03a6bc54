"""Transitivity hierarchy, direct-product structure, and the open-question
explorations.

The transitivity report checks each generator as an automorphism, then reads
all four levels off one partition of the ordered pairs into orbits, taking
each orbit's distance from one BFS row per orbit representative; the
single-level predicates check the generators the same way, then count orbits
with the orbit functions of ``perms``.

Every test here takes the acting group as an argument instead of recomputing
it, so the same check can run against both the induced-map generators and the
search engine's output; disagreement between the two is a test failure, not a
silent choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .autgroup import DEFAULT_SIZE_LIMIT, automorphism_group
from .errors import (
    DisconnectedError,
    DomainError,
    OrderCapExceeded,
    SizeLimitError,
    StructureError,
)
from .graphs import Graph
from .kneser import KneserGraph, build_bipartite_kneser
from .perms import (
    DEFAULT_ORDER_CAP,
    PermutationGroup,
    closure_images,
    commutes,
    complement_automorphism,
    element_order,
    group_closure,
    is_graph_automorphism,
    orbit_partition,
    orbits_on_ordered_pairs,
    orbits_on_unordered_pairs,
    orbits_on_vertices,
    sym_generators,
)


def _check_generators(graph: Graph, group: PermutationGroup) -> None:
    """Raise unless every generator is an automorphism of the graph.

    A generator that is not reveals a bad group rather than a wrong answer.
    """
    for g in group.generators:
        if not is_graph_automorphism(graph, g):
            raise StructureError("a generator of the group is not an automorphism")


def is_vertex_transitive(graph: Graph, group: PermutationGroup) -> bool:
    _check_generators(graph, group)
    return len(orbits_on_vertices(group)) == 1


def is_edge_transitive(graph: Graph, group: PermutationGroup) -> bool:
    _check_generators(graph, group)
    edges = graph.edges()
    if not edges:
        return True
    return len(orbits_on_unordered_pairs(group, edges)) == 1


def is_arc_transitive(graph: Graph, group: PermutationGroup) -> bool:
    _check_generators(graph, group)
    arcs = graph.arcs()
    if not arcs:
        return True
    return len(orbits_on_ordered_pairs(group, arcs)) == 1


def is_distance_transitive(graph: Graph, group: PermutationGroup) -> bool:
    """One pair-orbit per distance value; requires a connected graph."""
    return transitivity_report(graph, group).distance_transitive


@dataclass(frozen=True)
class TransitivityReport:
    vertex_transitive: bool
    edge_transitive: bool
    arc_transitive: bool
    distance_transitive: bool
    vertex_orbits: int
    edge_orbits: int
    arc_orbits: int
    pair_orbits: int
    distance_values: int

    def as_dict(self) -> dict:
        return {
            "vertex": self.vertex_transitive,
            "edge": self.edge_transitive,
            "arc": self.arc_transitive,
            "distance": self.distance_transitive,
            "orbits": {
                "vertices": self.vertex_orbits,
                "edges": self.edge_orbits,
                "arcs": self.arc_orbits,
                "ordered_pairs": self.pair_orbits,
            },
            "distance_values": self.distance_values,
        }


def transitivity_report(graph: Graph, group: PermutationGroup) -> TransitivityReport:
    """All four levels from one partition of the ordered pairs, hierarchy asserted.

    Every generator must be an automorphism of the graph, or the report
    raises.  Then the whole group acts by automorphisms, which preserve distance, so each pair
    orbit has one distance: that of its least pair (u, v), read off the BFS
    row of u.  Under a vertex-transitive group every orbit holds a pair
    (0, w), so every least pair starts at vertex 0 and one BFS suffices.
    The counts follow from the pair orbits alone:

    * vertex orbits are the distance-0 orbits, since (v, v) -> v is
      equivariant;
    * arc orbits are the distance-1 orbits;
    * each edge orbit lifts to either one arc orbit holding both orientations
      (self-paired: it contains (v, u) for its representative (u, v)) or to
      two arc orbits that are each other's transpose, so
      edge orbits = (arc orbits + self-paired arc orbits) / 2.
    """
    if not graph.is_connected():
        raise DisconnectedError("transitivity report needs a connected graph")
    _check_generators(graph, group)
    pair_orbs = orbits_on_ordered_pairs(group)
    reps = [orb[0] for orb in pair_orbs]
    rows = {u: graph.bfs_distances(u) for u in {u for u, _ in reps}}
    orbit_distance = [rows[u][v] for u, v in reps]
    arc_orbs = [orb for orb, d in zip(pair_orbs, orbit_distance) if d == 1]
    self_paired = sum((orb[0][1], orb[0][0]) in orb for orb in arc_orbs)
    vertex_orbits = orbit_distance.count(0)
    edge_orbits = (len(arc_orbs) + self_paired) // 2
    distinct = len(set(orbit_distance))

    report = TransitivityReport(
        vertex_transitive=vertex_orbits == 1,
        edge_transitive=edge_orbits <= 1,
        arc_transitive=len(arc_orbs) <= 1,
        distance_transitive=len(pair_orbs) == distinct,
        vertex_orbits=vertex_orbits,
        edge_orbits=edge_orbits,
        arc_orbits=len(arc_orbs),
        pair_orbits=len(pair_orbs),
        distance_values=distinct,
    )
    if graph.edge_count:
        if report.distance_transitive and not report.arc_transitive:
            raise StructureError("hierarchy violated: distance-transitive but not arc")
        if report.arc_transitive and not report.vertex_transitive:
            raise StructureError("hierarchy violated: arc-transitive but not vertex")
        if report.arc_transitive and not report.edge_transitive:
            raise StructureError("hierarchy violated: arc-transitive but not edge")
    return report


@dataclass(frozen=True)
class DirectProductReport:
    n: int
    k: int
    sym_closure_order: int
    product_order: int
    aut_order: int


def verify_direct_product(
    kg: KneserGraph,
    aut_order: int,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> DirectProductReport:
    """Check the four steps behind Aut = Sym([n]) x Z_2 on a concrete graph.

    (a) the induced Sym generators close to a group of order n!;
    (b) complementation lies outside that group;
    (c) complementation commutes with both generators, hence with all of it;
    (d) adjoining it doubles the order to 2 n!, matching the engine's count.
    """
    n = kg.n
    f_swap, f_cycle = sym_generators(kg)
    alpha = complement_automorphism(kg)

    sym_group = group_closure([f_swap, f_cycle], order_cap=order_cap)
    n_factorial = math.factorial(n)
    if sym_group.order != n_factorial:
        raise StructureError(
            f"step (a): induced Sym closure has order {sym_group.order}, "
            f"expected {n_factorial}"
        )
    if alpha in sym_group.elements:
        raise StructureError("step (b): complementation lies inside the Sym image")
    if not (commutes(alpha, f_swap) and commutes(alpha, f_cycle)):
        raise StructureError("step (c): complementation fails to commute with a generator")
    product = group_closure([f_swap, f_cycle, alpha], order_cap=order_cap)
    if product.order != 2 * n_factorial:
        raise StructureError(
            f"step (d): product closure has order {product.order}, expected {2 * n_factorial}"
        )
    if product.order != aut_order:
        raise StructureError(
            f"step (d): engine reports |Aut| = {aut_order}, closure gives {product.order}"
        )
    return DirectProductReport(
        n=n,
        k=kg.k,
        sym_closure_order=sym_group.order,
        product_order=product.order,
        aut_order=aut_order,
    )


SEARCH_SCOPE = "subgroups generated by at most 2 elements"


@dataclass(frozen=True)
class RegularSubgroupSearch:
    subgroup: Optional[PermutationGroup]
    candidates_checked: int

    @property
    def caveat(self) -> str:
        return f"only {SEARCH_SCOPE} were searched; absence here is not a proof"


def find_regular_subgroup(group: PermutationGroup, vertex_count: int) -> RegularSubgroupSearch:
    """Look for a subgroup acting regularly on the vertices.

    Scans the cyclic subgroups of the (fully enumerated) input group, then
    those generated by 2 elements; a hit certifies that the graph is a Cayley
    graph, a miss is only evidence.  Element orders must divide the target
    order, which prunes most pairs before any closure runs.
    """
    if not group.is_enumerated:
        raise DomainError("regular-subgroup search needs a fully enumerated group")

    degree = group.degree
    orders = ((g, element_order(g)) for g in group.elements)
    candidates = [(g, order) for g, order in orders if vertex_count % order == 0]
    checked = 0

    def transitive(gens: list[tuple[int, ...]]) -> bool:
        return len(orbit_partition([0], gens, degree)[0]) == vertex_count

    for g, order in candidates:
        checked += 1
        if order == vertex_count and transitive([g]):
            elements = closure_images([g], degree, order_cap=vertex_count)
            subgroup = PermutationGroup((g,), degree, tuple(sorted(elements)))
            return RegularSubgroupSearch(subgroup, checked)
    images = [g for g, _ in candidates]
    for i, g in enumerate(images):
        for h in images[i + 1:]:
            checked += 1
            try:
                elements = closure_images([g, h], degree, order_cap=vertex_count)
            except OrderCapExceeded:
                continue
            if len(elements) == vertex_count and transitive([g, h]):
                subgroup = PermutationGroup((g, h), degree, tuple(sorted(elements)))
                return RegularSubgroupSearch(subgroup, checked)
    return RegularSubgroupSearch(None, checked)


@dataclass(frozen=True)
class Question2Row:
    n: int
    k: int
    vertices: int
    aut_order: Optional[int]
    doubled_factorial: int
    comparison: str  # "equal" | "not equal" | "skipped"
    skip_reason: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "vertices": self.vertices,
            "aut_order": self.aut_order,
            "two_n_factorial": self.doubled_factorial,
            "comparison": self.comparison,
            "skip_reason": self.skip_reason,
        }


def feasible_parameters(n_max: int, k_max: Optional[int] = None) -> list[tuple[int, int]]:
    """All (n, k) with 3 <= n <= n_max, k >= 1, n >= 2k + 1."""
    out = []
    for n in range(3, n_max + 1):
        for k in range(1, (n - 1) // 2 + 1):
            if k_max is not None and k > k_max:
                break
            out.append((n, k))
    return out


def explore_question2(
    n_max: int,
    k_max: Optional[int] = None,
    size_limit: int = DEFAULT_SIZE_LIMIT,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> list[Question2Row]:
    """Tabulate |Aut(H(n,k))| against 2 n! for every feasible (n, k).

    Rows report "equal" or "not equal" only; equality on the listed instances
    says nothing about unlisted ones.
    """
    rows = []
    for n, k in feasible_parameters(n_max, k_max):
        kg = build_bipartite_kneser(n, k)
        target = 2 * math.factorial(n)
        try:
            aut = automorphism_group(kg.graph, size_limit=size_limit, order_cap=order_cap)
        except (SizeLimitError, OrderCapExceeded) as exc:
            rows.append(
                Question2Row(n, k, kg.vertex_count, None, target, "skipped", str(exc))
            )
            continue
        comparison = "equal" if aut.order == target else "not equal"
        rows.append(Question2Row(n, k, kg.vertex_count, aut.order, target, comparison))
    return rows


def question2_table(rows: list[Question2Row]) -> str:
    header = f"{'n':>3} {'k':>3} {'vertices':>9} {'|Aut|':>10} {'2*n!':>10}  comparison"
    lines = [header, "-" * len(header)]
    for row in rows:
        order = "-" if row.aut_order is None else str(row.aut_order)
        lines.append(
            f"{row.n:>3} {row.k:>3} {row.vertices:>9} {order:>10} "
            f"{row.doubled_factorial:>10}  {row.comparison}"
        )
    lines.append("evidence only: rows beyond this table remain open")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Question1Row:
    n: int
    k: int
    vertices: int
    aut_order: Optional[int]
    regular_subgroup_order: Optional[int]
    verdict: str
    skip_reason: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "vertices": self.vertices,
            "aut_order": self.aut_order,
            "regular_subgroup_order": self.regular_subgroup_order,
            "verdict": self.verdict,
            "skip_reason": self.skip_reason,
        }


def explore_question1(
    n_max: int,
    k_max: Optional[int] = None,
    size_limit: int = DEFAULT_SIZE_LIMIT,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> list[Question1Row]:
    """Bounded Cayley-ness evidence: search Aut(H(n,k)) for a regular subgroup."""
    rows = []
    for n, k in feasible_parameters(n_max, k_max):
        kg = build_bipartite_kneser(n, k)
        try:
            aut = automorphism_group(kg.graph, size_limit=size_limit, order_cap=order_cap)
        except (SizeLimitError, OrderCapExceeded) as exc:
            rows.append(
                Question1Row(n, k, kg.vertex_count, None, None, "skipped", str(exc))
            )
            continue
        search = find_regular_subgroup(aut, kg.vertex_count)
        if search.subgroup is not None:
            verdict = "regular subgroup found: Cayley graph (regular-action criterion)"
            order = search.subgroup.order
        else:
            verdict = (
                f"no regular subgroup among {SEARCH_SCOPE}; consistent with a "
                "non-Cayley graph, not a proof (search not exhaustive)"
            )
            order = None
        rows.append(Question1Row(n, k, kg.vertex_count, aut.order, order, verdict))
    return rows
