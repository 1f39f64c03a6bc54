"""Diameter, transitivity hierarchy, direct-product structure, and the
open-question explorations.

The diameter takes one BFS per vertex orbit of a group of automorphisms, so
one BFS on a vertex-transitive graph.

The transitivity report checks each generator as an automorphism and builds
one Schreier vector from vertex 0; the group is transitive when it reaches
every vertex, and only otherwise are the vertex orbits counted.  When the
group is transitive and refinement certifies the suborbits of vertex 0, the
report reads the arc, edge and distance levels off those suborbits and the
Schreier vector; else it walks every arc, every edge and every ordered pair,
taking each pair orbit's distance from one BFS row per orbit representative.

The direct-product check holds the Sym image S as one level of a stabilizer
chain, the orbit of vertex 0 with a Schreier tree and the stabilizer of 0
closed from Schreier generators, so it enumerates k!(n-k)! elements, not n!:
complementation α is shown to lie outside S, to be an involution and to
commute with S's generators, which makes the known generators' group S ∪ αS.
A search engine's group given to it must be S ∪ αS, by order and generators.

Every test here takes the acting group as an argument instead of recomputing
it, so the same check can run against both the induced-map generators and the
search engine's output; disagreement between the two is a test failure, not a
silent choice.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Optional, Sequence

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
    _cap_exceeded,
    _image_string,
    check_generators,
    closure_images,
    commutes,
    complement_automorphism,
    compose,
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


def _check_degree(graph: Graph, group: PermutationGroup) -> None:
    """Raise ``DomainError`` unless the group acts on exactly the graph's vertices."""
    if group.degree != graph.vertex_count:
        raise DomainError(
            f"a group of degree {group.degree} does not act on the "
            f"{graph.vertex_count} vertices of the graph"
        )


def _suborbit_distances(graph: Graph, fixing: list[tuple[int, ...]]) -> Optional[list[int]]:
    """Each suborbit's distance from vertex 0, or None when the suborbits are not certified.

    ``fixing`` lists the generators that fix 0; the certificate is the one
    ``transitivity_report`` states.
    """
    n = graph.vertex_count
    suborbits = orbit_partition(range(n), fixing)
    cells = refine(graph, [(0,), tuple(range(1, n))] if n > 1 else [(0,)])
    if len(cells) != len(suborbits):
        return None
    row = graph.bfs_distances(0)
    return [row[orb[0]] for orb in suborbits]


def _schreier_vector(
    generators: Sequence[tuple[int, ...]], degree: int
) -> tuple[list[int], list[int], list[int]]:
    """The Schreier vector from vertex 0, and the orbit of 0 in BFS order.

    ``generators[via[v]]`` maps ``parent[v]`` to v for each v in the orbit;
    ``parent`` is -1 off it.  Each point of the orbit comes after its parent.
    """
    parent, via = [-1] * degree, [0] * degree
    parent[0] = 0
    queue = [0]
    for u in queue:  # the list is the BFS queue: appends are visited too
        for i, g in enumerate(generators):
            v = g[u]
            if parent[v] < 0:
                parent[v], via[v] = u, i
                queue.append(v)
    return parent, via, queue


def _arc_and_edge_orbits(
    graph: Graph,
    group: PermutationGroup,
    fixing: list[tuple[int, ...]],
    parent: list[int],
    via: list[int],
) -> tuple[int, int]:
    """The arc and edge orbit counts of a transitive group with certified suborbits.

    ``fixing`` lists the generators that fix 0, and ``parent`` and ``via``
    are the Schreier vector from 0; the argument is the one
    ``transitivity_report`` states.  A vector that misses a vertex on a walk
    raises ``StructureError``.
    """
    arcs = orbits_on_ordered_pairs(
        PermutationGroup(fixing, graph.vertex_count), [(0, w) for w in graph.neighbours[0]]
    )
    inverses = [inverse(g) for g in group.generators]
    arc_orbit = {w: i for i, orb in enumerate(arcs) for _, w in orb}
    classes = set()
    for i, orb in enumerate(arcs):
        # h^-1(0) for the h = g_m...g_1 read off the tree path 0 -> w
        w, x = orb[0][1], 0
        while w > 0:  # parent is -1 off the orbit, so a missed vertex stops the walk
            x = inverses[via[w]][x]
            w = parent[w]
        if w < 0:
            raise StructureError(
                f"the Schreier vector from 0 does not reach vertex {orb[0][1]}"
            )
        classes.add(frozenset((i, arc_orbit[x])))
    return len(arcs), len(classes)


def transitivity_report(graph: Graph, group: PermutationGroup) -> TransitivityReport:
    """All four levels, each read off its own orbit set, hierarchy asserted.

    The group's degree must be the vertex count (else ``DomainError``) and
    every generator an automorphism of the graph, or the report raises.  Then the whole group G acts by automorphisms.  The vertex, arc
    and edge levels count the orbits of G on the vertices, the arcs and the
    edges.  Automorphisms preserve distance, so each orbit of G on the
    ordered pairs has one distance, and G is distance-transitive when there
    are as many pair orbits as distance values.  The Schreier vector from 0
    (below) is built first: its BFS visits the orbit of 0, so when it reaches
    every vertex G has one vertex orbit, and only otherwise are the vertex
    orbits counted.

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
    two ends are equal the H-orbits are the suborbits.

    The arcs and edges then follow from the suborbits too (Sims, "Graphs and
    finite permutation groups", Math. Z. 95, 1967).  Every arc orbit holds an
    arc (0, w), so the arc orbits are the orbits of H on the arcs out of 0,
    the suborbits inside N(0); the suborbits at distance 1 must be as many,
    or the report raises.  An edge orbit is an arc orbit joined with the
    orbit of its reverse arcs.  If h in G maps 0 to w, then h^-1 maps the
    reverse arc (w, 0) to (0, h^-1(0)), so the arc orbit of (0, w) is paired
    with the suborbit of h^-1(0), and the edge orbits are the classes of
    this pairing.  One Schreier vector gives each h: a BFS from 0 over the
    generators of G records, for each vertex v, its parent u and a generator
    g with g(u) = v, so the tree path 0 -> w spells h = g_m...g_1, and
    h^-1(0) is one walk up the tree, applying g_m^-1 first.

    Otherwise (G is not transitive, or its generators fixing 0 generate too
    little of G_0, or refinement cannot separate the suborbits) the report
    walks all arcs, all edges and all V^2 ordered pairs, and reads each pair
    orbit's distance off one BFS row per representative.  That path is the
    oracle for the first.
    """
    _check_degree(graph, group)
    if not graph.is_connected():
        raise DisconnectedError("transitivity report needs a connected graph")
    check_generators(graph, group.generators)
    parent, via, orbit0 = _schreier_vector(group.generators, group.degree)
    vertex_orbits = 1 if len(orbit0) == graph.vertex_count else len(orbits_on_vertices(group))
    fixing = [g for g in group.generators if g[0] == 0]
    orbit_distance = _suborbit_distances(graph, fixing) if vertex_orbits == 1 else None
    if orbit_distance is not None:
        arc_orbits, edge_orbits = _arc_and_edge_orbits(graph, group, fixing, parent, via)
        if orbit_distance.count(1) != arc_orbits:
            raise StructureError(
                f"{orbit_distance.count(1)} suborbits at distance 1, but {arc_orbits} arc orbits"
            )
    else:
        arc_orbits = len(orbits_on_ordered_pairs(group, graph.arcs()))
        edge_orbits = len(orbits_on_unordered_pairs(group, graph.edges()))
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

    The group's degree must be the vertex count (else ``DomainError``) and
    every generator an automorphism of the graph, or this raises.
    Eccentricity is an automorphism invariant: an automorphism g maps the BFS
    layers from v onto the BFS layers from g(v), so every vertex of an orbit
    has the same eccentricity.  The diameter, the largest eccentricity, is
    then the largest over one representative per orbit, and a transitive
    group needs one BFS where ``Graph.diameter``, the oracle, runs V.
    """
    _check_degree(graph, group)
    if not graph.is_connected():
        raise DisconnectedError("diameter of a disconnected graph")
    check_generators(graph, group.generators)
    return max(max(graph.bfs_distances(orb[0])) for orb in orbits_on_vertices(group))


class _SymImage:
    """The Sym image S, held as one level of a stabilizer chain at vertex 0.

    The level is the orbit of 0 under S, one representative u_x with
    u_x(0) = x for each orbit point x, and the stabilizer S_0 of 0,
    enumerated from its Schreier generators; ``verify_direct_product`` gives
    the argument.  ``order`` is |orbit|·|S_0|, and ``images in level`` asks
    whether a map lies in S: g does exactly when x = g(0) is in the orbit and
    u_x^-1∘g lies in S_0.
    """

    __slots__ = ("stabilizer", "order", "_inverse_tables")

    def __init__(self, generators: Sequence[tuple[int, ...]], degree: int, order_cap: int) -> None:
        parent, via, orbit0 = _schreier_vector(generators, degree)
        reps = {0: tuple(range(degree))}
        for x in orbit0[1:]:  # BFS order: u_x = g∘u_parent, and the parent came first
            reps[x] = compose(generators[via[x]], reps[parent[x]])
        inverses = {x: inverse(u) for x, u in reps.items()}
        schreier = dict.fromkeys(
            compose(inverses[s[x]], compose(s, u)) for x, u in reps.items() for s in generators
        )
        schreier.pop(reps[0], None)  # the identity generates nothing
        self.stabilizer = group_closure(schreier, order_cap=order_cap, degree=degree)
        self.order = len(orbit0) * self.stabilizer.order
        # a point past the degree maps to 255, which no image string of degree < 256 holds
        pad = bytes([255]) * (256 - degree)
        self._inverse_tables = {x: bytes(u) + pad for x, u in inverses.items()}

    def __contains__(self, images: Sequence[int]) -> bool:
        """True iff the map is an element of S; a map that is no image string is not one."""
        g = _image_string(images)
        if not g or g[0] not in self._inverse_tables:  # g(0) lies outside the orbit of 0
            return False
        return g.translate(self._inverse_tables[g[0]]) in self.stabilizer.elements


class DirectProductReport(NamedTuple):
    n: int
    k: int
    product_order: int
    sym_group: _SymImage
    complement: tuple[int, ...]

    def contains(self, images: Sequence[int]) -> bool:
        """True iff the vertex map lies in <known> = S ∪ αS: it or α∘it is in S.

        α is an involution, so α∘g is in S exactly when g is in αS.  A map
        that is no image string is in neither, as for ``in`` on S.
        """
        g = _image_string(images)
        # α∘g is g read through α's table; an image past the degree maps to 255, as in S
        alpha = bytes(self.complement).ljust(256, b"\xff")
        return g is not None and (g in self.sym_group or g.translate(alpha) in self.sym_group)


def verify_direct_product(
    kg: KneserGraph,
    engine: Optional[PermutationGroup] = None,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> DirectProductReport:
    """Check the four steps behind Aut = Sym([n]) x Z_2 on a concrete graph.

    f_(1 2), f_(1 2 ... n) and complementation α are first checked to be
    automorphisms; then
    (a) the induced Sym generators generate a group S of order n!; only the
        stabilizer of vertex 0 in S is enumerated, under ``order_cap``;
    (b) α lies outside S;
    (c) α is an involution and commutes with both generators, hence with all
        of S;
    (d) the known generators generate S ∪ αS, of order 2 n!, which must be
        the group ``engine`` when one is given: equal orders, and each
        generator of ``engine`` in S ∪ αS.
    An ``engine`` of another degree than the graph's vertex count raises
    ``DomainError`` before any step.

    Steps (a) and (b) hold S as one level of a stabilizer chain (Sims,
    "Computational methods in the study of permutation groups", in
    *Computational Problems in Abstract Algebra*, 1970).  A
    BFS from 0 over the two generators gives the orbit O of 0 and its
    Schreier tree, and the tree path 0 -> x spells a u_x in S with
    u_x(0) = x, u_0 the identity.  By Schreier's lemma S_0, the stabilizer of
    0 in S, is generated by the maps u_{s(x)}^-1∘s∘u_x for x in O and s a
    generator; each fixes 0, and they are closed under the cap.  By the
    orbit-stabilizer theorem |S| = |O|·|S_0|, which step (a) compares with
    n!.  The cosets u_x S_0 are the elements of S mapping 0 to x, so g lies
    in S exactly when g(0) is in O and u_{g(0)}^-1∘g lies in S_0; step (b)
    and ``contains`` test membership so.  On H(n,k), S_0 is the image of
    Sym(k) x Sym(n-k), of k!(n-k)! elements, where S has n!.

    Step (d) needs no second closure.  α centralizes S, so αS = Sα, and
    α∘α = id; hence (αs)(αt) = st, s(αt) = α(st) and (αs)t = α(st), so
    S ∪ αS is closed under composition.  It is a group holding f_(1 2),
    f_(1 2 ... n) and α, and every element of it is a product of them, so it
    is <known>.  By (b) the cosets S and αS are disjoint, so its order is
    2 |S|, and S ∩ <α> = {id} with α central makes it S x <α>.  A map g lies
    in it exactly when g or α∘g lies in S, which ``contains`` tests.

    Nor does the comparison with ``engine``: with every generator of
    ``engine`` in S ∪ αS, <engine> <= S ∪ αS, and equal orders make the two
    equal.  S ∪ αS <= Aut, as its generators are verified automorphisms, so
    when the engine's order is certified, both groups are all of Aut.
    """
    if engine is not None:
        _check_degree(kg.graph, engine)
    f_swap, f_cycle = sym_generators(kg)
    alpha = complement_automorphism(kg)
    check_generators(kg.graph, (f_swap, f_cycle, alpha))

    sym_group = _SymImage((f_swap, f_cycle), kg.vertex_count, order_cap)
    n_factorial = math.factorial(kg.n)
    if sym_group.order != n_factorial:
        raise StructureError(
            f"step (a): induced Sym image has order {sym_group.order}, "
            f"expected {n_factorial}"
        )
    if alpha in sym_group:
        raise StructureError("step (b): complementation lies inside the Sym image")
    if compose(alpha, alpha) != tuple(range(len(alpha))):
        raise StructureError("step (c): complementation is not an involution")
    if not (commutes(alpha, f_swap) and commutes(alpha, f_cycle)):
        raise StructureError("step (c): complementation fails to commute with a generator")
    report = DirectProductReport(kg.n, kg.k, 2 * sym_group.order, sym_group, alpha)
    if engine is not None and (
        engine.order != report.product_order
        or not all(report.contains(g) for g in engine.generators)
    ):
        raise StructureError(
            f"engine group (order {engine.order}) differs from the "
            f"group of the known generators (order {report.product_order})"
        )
    return report


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


def find_regular_subgroup(group: PermutationGroup) -> RegularSubgroupSearch:
    """Look for a subgroup acting regularly on the vertices, the group's ``degree`` points.

    Scans the subgroups <g, h> for the pairs g <= h of candidate elements of
    the (fully enumerated) input group, row by row in sorted order (a set's
    own order changes with the hash seed); a hit certifies that the graph is
    a Cayley graph, a miss is only evidence.  The identity sorts first, so the first
    row, <identity, h> = <h>, visits every cyclic subgroup, the trivial one
    included, in element order before any other pair.

    The candidates are the semiregular elements, whose cycles all have one
    length.  In a regular group R no element but the identity fixes a point.
    Let g in R have order m and a cycle of length l < m; then g^l is not the
    identity and fixes the points of that cycle, which is impossible in R.  So
    a pair with an element that is not semiregular never generates a regular
    subgroup, and dropping it keeps the surviving pairs in their order: the
    first hit is the pair the unpruned scan finds.  A semiregular element's
    order is its cycle length, which divides the degree.  The candidates
    are tested only as far as the scan reads them, so a hit in the first
    row leaves the later elements untested.

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
    closure runs: a transitive group has at least ``degree`` elements,
    so a closure capped there that completes is the regular subgroup.
    """
    if group.elements is None:
        raise NeedEnumerationError("regular-subgroup search needs a fully enumerated group")
    degree = group.degree
    generators = [bytes(x) for x in group.generators]
    if not all(x in group.elements for x in generators):
        raise StructureError("a generator of the group is not one of its elements")
    conjugations = [_Conjugation(x) for x in generators]

    unread = filter(is_semiregular, sorted(group.elements))
    candidates: list[bytes] = []

    def candidates_from(i: int) -> Iterator[bytes]:
        # the list grows from ``unread`` only as far as some row reads it
        while True:
            if i == len(candidates):
                h = next(unread, None)
                if h is None:
                    return
                candidates.append(h)
            yield candidates[i]
            i += 1

    seen: set[bytes] = set()
    checked = 0
    for i, g in enumerate(candidates_from(0)):
        if g in seen:
            continue
        seen.update(orbit_partition([g], conjugations)[0])
        for h in candidates_from(i):
            checked += 1
            if len(orbit_partition([0], [g, h])[0]) != degree:
                continue
            try:
                elements = closure_images([g, h], degree, order_cap=degree)
            except OrderCapExceeded:
                continue
            if len(elements) == degree:
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
    """All (n, k) with 3 <= n <= n_max, k >= 1, n >= 2k + 1.

    Bounds that admit no such (n, k) raise ``DomainError``.
    """
    out = []
    for n in range(3, n_max + 1):
        for k in range(1, (n - 1) // 2 + 1):
            if k_max is not None and k > k_max:
                break
            out.append((n, k))
    if not out:
        raise DomainError(
            f"no feasible (n, k) with n <= {n_max}"
            + ("" if k_max is None else f" and k <= {k_max}")
            + "; feasible means k >= 1 and n >= 2k + 1"
        )
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
    """Bounded Cayley-ness evidence: search Aut(H(n,k)) for a regular subgroup.

    The search reads the elements of Aut, and the engine's group holds its
    order, so Aut is enumerated here from its generators, under
    ``order_cap``.  A row whose order is above the cap is skipped, with that
    order, before any closure runs, and a closure of another size than the
    order raises ``StructureError``.
    """
    rows = []
    for kg, aut, skip in _automorphism_groups(n_max, k_max, order_cap):
        if aut is None or aut.order > order_cap:
            order = None if aut is None else aut.order
            skip = skip or str(_cap_exceeded(order_cap))
            rows.append(Question1Row(kg.n, kg.k, kg.vertex_count, order, None, "skipped", skip))
            continue
        enumerated = group_closure(aut.generators, order_cap, aut.degree)
        if enumerated.order != aut.order:
            raise StructureError(
                f"the engine's generators close to {enumerated.order} elements, "
                f"but its order is {aut.order}"
            )
        search = find_regular_subgroup(enumerated)
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
