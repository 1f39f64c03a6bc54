"""Diameter, transitivity hierarchy, direct-product structure, and the
open-question explorations.

The diameter takes one BFS per vertex orbit of a group of automorphisms, so
one BFS on a vertex-transitive graph.

The transitivity report checks each generator as an automorphism, then reads
each level off its own orbit set: vertex, arc and edge orbits from the orbit
functions of ``perms``, and the distance level from the suborbits of vertex 0
when the group is transitive and refinement certifies them, else from the
partition of all ordered pairs into orbits, taking each orbit's distance from
one BFS row per orbit representative.

Every test here takes the acting group as an argument instead of recomputing
it, so the same check can run against both the induced-map generators and the
search engine's output; disagreement between the two is a test failure, not a
silent choice.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Optional

from .autgroup import automorphism_group, refine
from .errors import (
    DisconnectedError,
    DomainError,
    NeedEnumerationError,
    OrderCapExceeded,
    SizeLimitError,
    StructureError,
)
from .graphs import Graph
from .kneser import KneserGraph, build_bipartite_kneser
from .perms import (
    DEFAULT_ORDER_CAP,
    PermutationGroup,
    check_generators,
    closure_images,
    commutes,
    complement_automorphism,
    group_closure,
    inverse,
    is_semiregular,
    orbit_partition,
    orbits_on_ordered_pairs,
    orbits_on_unordered_pairs,
    orbits_on_vertices,
    sym_generators,
)


class TransitivityReport(NamedTuple):
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


def _suborbit_distances(graph: Graph, group: PermutationGroup) -> Optional[list[int]]:
    """Each suborbit's distance from vertex 0, or None when the suborbits are not certified.

    The certificate is the one ``transitivity_report`` states.
    """
    n = graph.vertex_count
    fixing = [g for g in group.generators if g[0] == 0]
    suborbits = orbit_partition(range(n), fixing)
    cells = refine(graph, [(0,), tuple(range(1, n))] if n > 1 else [(0,)])
    if len(cells) != len(suborbits):
        return None
    row = graph.bfs_distances(0)
    return [row[orb[0]] for orb in suborbits]


def transitivity_report(graph: Graph, group: PermutationGroup) -> TransitivityReport:
    """All four levels, each read off its own orbit set, hierarchy asserted.

    Every generator must be an automorphism of the graph, or the report
    raises.  Then the whole group G acts by automorphisms.  The vertex, arc
    and edge levels count the orbits of G on the vertices, the arcs and the
    edges.  Automorphisms preserve distance, so each orbit of G on the
    ordered pairs has one distance, and G is distance-transitive when there
    are as many pair orbits as distance values.

    When G is transitive the pair orbits are read off the suborbits, the
    orbits of the stabilizer G_0 of vertex 0 (Wielandt, *Finite Permutation
    Groups*, 1964, section 16): every pair orbit holds a pair (0, w), and
    (0, w) and (0, w') share an orbit exactly when some element of G_0 maps w
    to w'.  So the pair orbits correspond one to one with the suborbits, and
    each has the distance of its suborbit's least point in the BFS row of 0.

    The suborbits are certified without generators of G_0.  Let H be
    generated by the generators of G that fix 0, so H <= G_0 <= Aut_0, the
    stabilizer of 0 in Aut(graph), and each group's orbits refine the next
    one's.  Refinement commutes with automorphisms, so the cells of the
    equitable refinement of [{0}, the rest] are unions of Aut_0-orbits.  Hence
    cells <= Aut_0-orbits <= G_0-orbits <= H-orbits in number, and when the
    two ends are equal the H-orbits are the suborbits.  The suborbits at
    distance 1 are then the arc orbits, and a different count raises.

    Otherwise (G is not transitive, or its generators fixing 0 generate too
    little of G_0, or refinement cannot separate the suborbits) the report
    partitions all V^2 ordered pairs and reads each orbit's distance off one
    BFS row per representative.  That path is the oracle for the first.
    """
    if not graph.is_connected():
        raise DisconnectedError("transitivity report needs a connected graph")
    check_generators(graph, group.generators)
    vertex_orbits = len(orbits_on_vertices(group))
    arc_orbits = len(orbits_on_ordered_pairs(group, graph.arcs()))
    edge_orbits = len(orbits_on_unordered_pairs(group, graph.edges()))
    orbit_distance = _suborbit_distances(graph, group) if vertex_orbits == 1 else None
    if orbit_distance is not None:
        if orbit_distance.count(1) != arc_orbits:
            raise StructureError(
                f"{orbit_distance.count(1)} suborbits at distance 1, but {arc_orbits} arc orbits"
            )
    else:
        reps = [orb[0] for orb in orbits_on_ordered_pairs(group)]
        rows = {u: graph.bfs_distances(u) for u in {u for u, _ in reps}}
        orbit_distance = [rows[u][v] for u, v in reps]
    distinct = len(set(orbit_distance))

    report = TransitivityReport(
        vertex_transitive=vertex_orbits == 1,
        edge_transitive=edge_orbits <= 1,
        arc_transitive=arc_orbits <= 1,
        distance_transitive=len(orbit_distance) == distinct,
        vertex_orbits=vertex_orbits,
        edge_orbits=edge_orbits,
        arc_orbits=arc_orbits,
        pair_orbits=len(orbit_distance),
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


def diameter_by_orbits(graph: Graph, group: PermutationGroup) -> int:
    """The diameter, from one BFS per vertex orbit of the group.

    Every generator must be an automorphism of the graph, or this raises.
    Eccentricity is an automorphism invariant: an automorphism g maps the BFS
    layers from v onto the BFS layers from g(v), so every vertex of an orbit
    has the same eccentricity.  The diameter, the largest eccentricity, is
    then the largest over one representative per orbit, and a transitive
    group needs one BFS where ``Graph.diameter``, the oracle, runs V.
    """
    if not graph.is_connected():
        raise DisconnectedError("diameter of a disconnected graph")
    check_generators(graph, group.generators)
    return max(max(graph.bfs_distances(orb[0])) for orb in orbits_on_vertices(group))


class DirectProductReport(NamedTuple):
    n: int
    k: int
    sym_closure_order: int
    product_order: int
    aut_order: int


def verify_direct_product(kg: KneserGraph, aut_order: int) -> DirectProductReport:
    """Check the four steps behind Aut = Sym([n]) x Z_2 on a concrete graph.

    f_(1 2), f_(1 2 ... n) and complementation are first checked to be
    automorphisms; then
    (a) the induced Sym generators close to a group of order n!;
    (b) complementation lies outside that group;
    (c) complementation commutes with both generators, hence with all of it;
    (d) adjoining it doubles the order to 2 n!, matching the engine's count.
    """
    n = kg.n
    f_swap, f_cycle = sym_generators(kg)
    alpha = complement_automorphism(kg)
    check_generators(kg.graph, (f_swap, f_cycle, alpha))

    sym_group = group_closure([f_swap, f_cycle])
    n_factorial = math.factorial(n)
    if sym_group.order != n_factorial:
        raise StructureError(
            f"step (a): induced Sym closure has order {sym_group.order}, "
            f"expected {n_factorial}"
        )
    if alpha in sym_group:
        raise StructureError("step (b): complementation lies inside the Sym image")
    if not (commutes(alpha, f_swap) and commutes(alpha, f_cycle)):
        raise StructureError("step (c): complementation fails to commute with a generator")
    product = group_closure([f_swap, f_cycle, alpha])
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


# find_regular_subgroup scans the subgroups <g, h>, so a miss says nothing
# about subgroups that need more than two generators.
GENERATOR_BOUND = 2
SEARCH_SCOPE = f"subgroups generated by at most {GENERATOR_BOUND} elements"
SEARCH_CAVEAT = (
    f"only {SEARCH_SCOPE} were searched; a miss is not a proof of non-Cayley-ness"
)


class RegularSubgroupSearch(NamedTuple):
    subgroup: Optional[PermutationGroup]
    candidates_checked: int


class _Conjugation:
    """Conjugation g -> x∘g∘x^-1 of image strings by x, as a table for ``orbit_partition``.

    Two ``translate`` calls per product: g∘x^-1, then x after it.
    """

    __slots__ = ("inverse", "table", "pad")

    def __init__(self, x: bytes) -> None:
        self.pad = bytes(256 - len(x))
        self.inverse = bytes(inverse(tuple(x)))
        self.table = x + self.pad

    def __getitem__(self, g: bytes) -> bytes:
        return self.inverse.translate(g + self.pad).translate(self.table)


def find_regular_subgroup(group: PermutationGroup, vertex_count: int) -> RegularSubgroupSearch:
    """Look for a subgroup acting regularly on the vertices.

    The group acts on ``vertex_count`` points, its degree.  Scans the
    subgroups <g, h> for the pairs g <= h of candidate elements of the (fully
    enumerated) input group, row by row in sorted order (a set's own order
    changes with the hash seed); a hit certifies that the graph is a Cayley
    graph, a miss is only evidence.  The identity sorts first, so the first
    row, <identity, h> = <h>, visits every cyclic subgroup, the trivial one
    included, in element order before any other pair.

    The candidates are the semiregular elements, whose cycles all have one
    length.  In a regular group R no element but the identity fixes a point.
    Let g in R have order m and a cycle of length l < m; then g^l is not the
    identity and fixes the points of that cycle, which is impossible in R.  So
    a pair with an element that is not semiregular never generates a regular
    subgroup, and dropping it keeps the surviving pairs in their order: the
    first hit is the pair the unpruned scan finds.  A semiregular element's
    order is its cycle length, which divides the degree.

    Only the rows of elements that are least in their conjugacy class are
    scanned.  Let (g*, h*) be the first pair the full scan accepts.
    Conjugation by x in the group maps a regular subgroup to a regular
    subgroup and a semiregular element to a semiregular one, so if
    x g* x^-1 < g*, the pair {x g* x^-1, x h* x^-1} is accepted in an
    earlier row, which is impossible.  So g* is the least element of its
    class, and skipping the other rows leaves the same first hit, or none;
    only ``candidates_checked`` falls.  The rows are walked in sorted order,
    so a row whose element is not yet seen holds the least element of its
    class: the class, its orbit under conjugation by the generators, is
    marked seen, and the row is scanned.  Every generator must be an
    element, or ``StructureError`` is raised.

    A pair is then tested for transitivity, one orbit BFS, before its
    closure runs: a transitive group has at least ``vertex_count`` elements,
    so a closure capped there that completes is the regular subgroup.
    """
    if group.elements is None:
        raise NeedEnumerationError("regular-subgroup search needs a fully enumerated group")
    degree = group.degree
    if vertex_count != degree:
        raise DomainError(
            f"a group of degree {degree} has no regular action on {vertex_count} vertices"
        )
    generators = [bytes(x) for x in group.generators]
    if not all(x in group.elements for x in generators):
        raise StructureError("a generator of the group is not one of its elements")
    conjugations = [_Conjugation(x) for x in generators]

    candidates = [g for g in sorted(group.elements) if is_semiregular(g)]
    seen: set[bytes] = set()
    checked = 0
    for i, g in enumerate(candidates):
        if g in seen:
            continue
        seen.update(orbit_partition([g], conjugations)[0])
        for h in candidates[i:]:
            checked += 1
            if len(orbit_partition([0], [g, h])[0]) != vertex_count:
                continue
            try:
                elements = closure_images([g, h], degree, order_cap=vertex_count)
            except OrderCapExceeded:
                continue
            if len(elements) == vertex_count:
                subgroup = PermutationGroup((tuple(g), tuple(h)), degree, elements)
                return RegularSubgroupSearch(subgroup, checked)
    return RegularSubgroupSearch(None, checked)


class Question2Row(NamedTuple):
    n: int
    k: int
    vertices: int
    aut_order: Optional[int]
    two_n_factorial: int
    comparison: str  # "equal" | "not equal" | "skipped"
    skip_reason: Optional[str] = None


def feasible_parameters(n_max: int, k_max: Optional[int] = None) -> list[tuple[int, int]]:
    """All (n, k) with 3 <= n <= n_max, k >= 1, n >= 2k + 1."""
    out = []
    for n in range(3, n_max + 1):
        for k in range(1, (n - 1) // 2 + 1):
            if k_max is not None and k > k_max:
                break
            out.append((n, k))
    return out


def _automorphism_groups(
    n_max: int,
    k_max: Optional[int],
    order_cap: int,
) -> Iterator[tuple[KneserGraph, Optional[PermutationGroup], Optional[str]]]:
    """(H(n,k), Aut, None) for every feasible (n, k), or (H(n,k), None, skip reason)."""
    for n, k in feasible_parameters(n_max, k_max):
        kg = build_bipartite_kneser(n, k)
        try:
            aut = automorphism_group(kg.graph, order_cap=order_cap)
        except (SizeLimitError, OrderCapExceeded) as exc:
            yield kg, None, str(exc)
        else:
            yield kg, aut, None


def explore_question2(
    n_max: int,
    k_max: Optional[int] = None,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> list[Question2Row]:
    """Tabulate |Aut(H(n,k))| against 2 n! for every feasible (n, k).

    Rows report "equal" or "not equal" only; equality on the listed instances
    says nothing about unlisted ones.
    """
    rows = []
    for kg, aut, skip in _automorphism_groups(n_max, k_max, order_cap):
        target = 2 * math.factorial(kg.n)
        if aut is None:
            rows.append(Question2Row(kg.n, kg.k, kg.vertex_count, None, target, "skipped", skip))
        else:
            comparison = "equal" if aut.order == target else "not equal"
            rows.append(Question2Row(kg.n, kg.k, kg.vertex_count, aut.order, target, comparison))
    return rows


def question2_table(rows: list[Question2Row]) -> str:
    header = f"{'n':>3} {'k':>3} {'vertices':>9} {'|Aut|':>10} {'2*n!':>10}  comparison"
    lines = [header, "-" * len(header)]
    for row in rows:
        order = "-" if row.aut_order is None else str(row.aut_order)
        lines.append(
            f"{row.n:>3} {row.k:>3} {row.vertices:>9} {order:>10} "
            f"{row.two_n_factorial:>10}  {row.comparison}"
        )
    lines.append("evidence only: rows beyond this table remain open")
    return "\n".join(lines) + "\n"


class Question1Row(NamedTuple):
    n: int
    k: int
    vertices: int
    aut_order: Optional[int]
    regular_subgroup_order: Optional[int]
    verdict: str
    skip_reason: Optional[str] = None


def explore_question1(
    n_max: int,
    k_max: Optional[int] = None,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> list[Question1Row]:
    """Bounded Cayley-ness evidence: search Aut(H(n,k)) for a regular subgroup."""
    rows = []
    for kg, aut, skip in _automorphism_groups(n_max, k_max, order_cap):
        if aut is not None:
            try:
                # the search enumerates Aut first, under the cap
                search = find_regular_subgroup(aut, kg.vertex_count)
            except OrderCapExceeded as exc:
                aut, skip = None, str(exc)
        if aut is None:
            rows.append(Question1Row(kg.n, kg.k, kg.vertex_count, None, None, "skipped", skip))
            continue
        if search.subgroup is not None:
            verdict = "regular subgroup found: Cayley graph (regular-action criterion)"
            order = search.subgroup.order
        else:
            verdict = (
                f"no regular subgroup among {SEARCH_SCOPE}; consistent with a "
                "non-Cayley graph, not a proof (search not exhaustive)"
            )
            order = None
        rows.append(Question1Row(kg.n, kg.k, kg.vertex_count, aut.order, order, verdict))
    return rows
