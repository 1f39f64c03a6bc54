"""Independent oracles for cross-checking the package's main code paths.

Distances come from a dictionary BFS, connectivity from exhaustive cut
enumeration, isomorphism from a direct scan over all bijections,
automorphism counts from a scan over all vertex permutations, and group
elements from a dictionary BFS by right multiplication; none of these
shares logic with the implementation under test.  The isomorphism test runs
the engine's search on the disjoint union of the two graphs with an apex
joined to each, and checks the H(n,1) isomorphism and the dihedral Cayley
graphs independently of the maps that build them; nothing in the package
calls it.  The other oracles are earlier versions of the code, kept to
check what replaced them.  The mask-and-append builder finds each
k-subset's (n-k)-supersets by adding bits to its mask and appends every
edge to both rows; the writers' oracles build
the whole text at once, JSON through ``json.dumps``, DOT with each label's
backslashes and then its double quotes escaped by ``str.replace``.  The
all-pairs connectivity loop solves a flow for every non-adjacent pair and
checks the pair selection, not the flow.  The full-round refinement keys every vertex
by its neighbour count in every cell, on every round, and checks the cells
of the splitter-queue refinement, not their order.  The breadth-first
closure multiplies each new element on the left by every generator and
checks the coset closure, cap included.  The regular-subgroup scans are the
two-phase search (cyclic subgroups first, then pairs), kept to pin the order
in which the single pair scan finds its subgroup, and the pair scan over
every row, kept to check that scanning only the least element of each
conjugacy class finds the same subgroup.  The stabilizer filters every
element of a fully enumerated group, and checks the one level of a
stabilizer chain that ``verify_direct_product`` closes from Schreier
generators.  The local connectivity is one max-flow, after checking that
the pair is not adjacent; an adjacent pair raises ``AdjacencyError``, a
``DomainError`` that only this oracle uses.
"""

import json
from collections import deque
from itertools import combinations, permutations

from bkneser.autgroup import _search
from bkneser.connectivity import max_flow
from bkneser.dihedral import dihedral_label, dihedral_multiply
from bkneser.errors import (
    DomainError,
    IsomorphismError,
    NeedEnumerationError,
    OrderCapExceeded,
    SizeLimitError,
)
from bkneser.graphs import Graph
from bkneser.perms import (
    DEFAULT_ORDER_CAP,
    PermutationGroup,
    _check_point,
    closure_images,
    element_order,
    inverse,
    is_graph_automorphism,
    is_isomorphism,
    is_semiregular,
    orbit,
    orbit_partition,
)


def edge_dict(graph):
    adj = {v: set() for v in range(graph.vertex_count)}
    for u, v in graph.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def plain_bfs_distances(graph, start):
    adj = edge_dict(graph)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def plain_diameter(graph):
    n = graph.vertex_count
    best = 0
    for v in range(n):
        dist = plain_bfs_distances(graph, v)
        assert len(dist) == n, "oracle diameter needs a connected graph"
        best = max(best, max(dist.values()))
    return best


def _connected_after_removal(adj, removed, n):
    alive = [v for v in range(n) if v not in removed]
    if not alive:
        return True
    seen = {alive[0]}
    queue = deque([alive[0]])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in removed and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(alive)


def brute_vertex_connectivity(graph):
    """Smallest vertex set whose removal disconnects; n-1 when none exists."""
    n = graph.vertex_count
    if n < 2:
        return 0
    adj = edge_dict(graph)
    for size in range(n - 1):
        for cut in combinations(range(n), size):
            if not _connected_after_removal(adj, set(cut), n):
                return size
    return n - 1


class AdjacencyError(DomainError):
    """Local vertex connectivity was requested across an edge."""


def local_vertex_connectivity(graph, u, v):
    """Minimum number of other vertices whose removal separates u from v."""
    value = max_flow(graph, u, v).value  # validates the pair first
    if graph.has_edge(u, v):
        raise AdjacencyError(
            f"vertices {u} and {v} are adjacent; no vertex cut separates them"
        )
    return value


def all_pairs_vertex_connectivity(graph):
    """kappa(G): 0 when disconnected, m-1 for K_m, else the min over all
    non-adjacent pairs of the local connectivity."""
    n = graph.vertex_count
    if n < 2:
        return 0
    if not graph.is_connected():
        return 0
    best = None
    for u in range(n):
        for v in range(u + 1, n):
            if graph.has_edge(u, v):
                continue
            value = local_vertex_connectivity(graph, u, v)
            if best is None or value < best:
                best = value
                if best == 0:
                    return 0
    if best is None:
        return n - 1  # complete graph convention
    return best


def brute_isomorphism(g1, g2):
    """Scan all bijections; returns one adjacency-preserving map or None."""
    if g1.vertex_count != g2.vertex_count:
        return None
    edges1 = g1.edges()
    for p in permutations(range(g2.vertex_count)):
        if all(g2.has_edge(p[u], p[v]) for u, v in edges1):
            if g1.edge_count == g2.edge_count:
                return p
    return None


def are_isomorphic(g1, g2):
    """An adjacency-preserving bijection V(G1) -> V(G2), or None.

    Runs the automorphism search on the disjoint union extended by two apex
    vertices (one joined to each side), with the two-cell initial partition
    {graph vertices}, {apexes}.  The graphs are isomorphic exactly when some
    automorphism swaps the apexes, and its restriction to the first side is
    the bijection.  The apexes keep the reduction valid for disconnected
    inputs as well.
    """
    if g1.vertex_count != g2.vertex_count:
        return None
    if g1.edge_count != g2.edge_count:
        return None
    if sorted(g1.degree_sequence()) != sorted(g2.degree_sequence()):
        return None

    m = g1.vertex_count
    a1, a2 = 2 * m, 2 * m + 1
    edges = g1.edges() + [(u + m, v + m) for u, v in g2.edges()]
    edges += [(v, a1) for v in range(m)] + [(v + m, a2) for v in range(m)]
    union = Graph.from_edges(2 * m + 2, edges)
    gens, _, _ = _search(union, [tuple(range(2 * m)), (a1, a2)])
    # Every generator keeps the apex cell {a1, a2}, so the apex orbit is
    # {a1, a2} exactly when some generator moves a1; that one is the witness.
    swap = next((g for g in gens if g[a1] != a1), None)
    if swap is None:
        return None
    mapping = tuple(swap[v] - m for v in range(m))
    if not is_isomorphism(g1, g2, mapping):
        raise IsomorphismError("the apex witness does not restrict to an isomorphism")
    return mapping


def brute_force_automorphism_order(graph, limit=8):
    """|Aut(G)| by scanning all |V|! vertex permutations; the engine's oracle.

    Deliberately shares nothing with the search engine: no refinement, no
    pruning, just the definition.
    """
    n = graph.vertex_count
    if n > limit:
        raise SizeLimitError(f"brute force is capped at {limit} vertices")
    edges = graph.edges()
    edge_set = set(edges)
    count = 0
    for p in permutations(range(n)):
        for u, v in edges:
            a, b = p[u], p[v]
            if (a, b) not in edge_set and (b, a) not in edge_set:
                break
        else:
            count += 1
    return count


def dict_closure(generators, degree):
    """Sorted elements of the group generated by ``generators``.

    A dictionary BFS over image tuples that multiplies on the right,
    p -> p∘g, index by index; the package's closure multiplies on the left.
    """
    identity = tuple(range(degree))
    seen = {identity: None}
    queue = deque([identity])
    while queue:
        p = queue.popleft()
        for g in generators:
            q = tuple(p[g[i]] for i in range(degree))
            if q not in seen:
                seen[q] = None
                queue.append(q)
    return tuple(sorted(seen))


def bfs_closure_images(generator_images, degree, order_cap=DEFAULT_ORDER_CAP):
    """The element set of ``closure_images``, by the earlier breadth-first closure.

    A BFS from the identity that multiplies each new element p on the left
    by each generator g, in generator order.  Before an element is added
    beyond ``order_cap`` elements, ``OrderCapExceeded`` is raised.  The
    generators are not checked: they must be permutations of 0..degree-1,
    degree <= 256.
    """
    pad = bytes(256 - degree)
    tables = [bytes(g) + pad for g in generator_images]
    ident = bytes(range(degree))
    elements = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for t in tables:
                q = p.translate(t)
                if q not in elements:
                    if len(elements) >= order_cap:
                        raise OrderCapExceeded(
                            f"group closure exceeded the cap of {order_cap} elements")
                    elements.add(q)
                    nxt.append(q)
        frontier = nxt
    return frozenset(elements)


def every_row_regular_subgroup(group, vertex_count):
    """(element set of the first regular subgroup found, or None, pairs checked).

    The pair scan of ``find_regular_subgroup`` without its conjugacy
    pruning: every pair g <= h of semiregular elements, row by row in sorted
    order, each tested for transitivity and then closed, by the breadth-first
    closure, under a cap of ``vertex_count``.
    """
    degree = group.degree
    candidates = [g for g in sorted(group.elements) if is_semiregular(g)]
    checked = 0
    for i, g in enumerate(candidates):
        for h in candidates[i:]:
            checked += 1
            if len(orbit_partition([0], [g, h])[0]) != vertex_count:
                continue
            try:
                elements = bfs_closure_images([g, h], degree, order_cap=vertex_count)
            except OrderCapExceeded:
                continue
            if len(elements) == vertex_count:
                return elements, checked
    return None, checked


def two_phase_regular_subgroup(group, vertex_count):
    """The element set of the first regular subgroup found, or None.

    Phase 1 tries each cyclic subgroup <g> of order ``vertex_count``; phase 2
    each <g, h> over the pairs of distinct elements, both in sorted element
    order and only over elements whose order divides ``vertex_count``.
    """
    degree = group.degree
    candidates = [g for g in sorted(group.elements) if vertex_count % element_order(g) == 0]

    def transitive(gens):
        return len(orbit_partition([0], gens)[0]) == vertex_count

    for g in candidates:
        if element_order(g) == vertex_count and transitive([g]):
            return closure_images([g], degree, order_cap=vertex_count)
    for i, g in enumerate(candidates):
        for h in candidates[i + 1:]:
            try:
                elements = closure_images([g, h], degree, order_cap=vertex_count)
            except OrderCapExceeded:
                continue
            if len(elements) == vertex_count and transitive([g, h]):
                return elements
    return None


def stabilizer(group, point):
    """The subgroup of elements fixing ``point``, filtered from the full enumeration."""
    point = _check_point(point, group.degree)
    if group.elements is None:
        raise NeedEnumerationError("stabilizer needs a fully enumerated group")
    fixed = sorted(g for g in group.elements if g[point] == point)
    return PermutationGroup(generators=tuple(tuple(g) for g in fixed),
                            degree=group.degree, elements=frozenset(fixed))


def is_regular_action(group, vertex_count):
    """Transitive with |group| = number of points (trivial point stabilizers)."""
    if group.elements is None:
        raise NeedEnumerationError("regularity check needs a fully enumerated group")
    if group.order != vertex_count:
        return False
    return len(orbit(group, 0)) == vertex_count


def translation_left_regular_subgroup(iso):
    """The enumerated group of all 2n left translations x -> g x, transported.

    Each translation is checked as an automorphism of H(n,1); the group's
    generators are the translations by a and b, and its elements are all 2n.
    """
    n = iso.n
    forward = iso.vertex_map
    back = inverse(forward)
    perms = []
    for g in range(2 * n):
        images = tuple(back[dihedral_multiply(g, forward[v], n)] for v in range(2 * n))
        if not is_graph_automorphism(iso.kneser.graph, images):
            raise IsomorphismError(
                f"transported translation by {dihedral_label(g, n)} broke an edge"
            )
        perms.append(images)
    return PermutationGroup(generators=(perms[1], perms[n]), degree=2 * n,
                            elements=frozenset(map(bytes, perms)))


def edge_list_cayley_graph(n, omega):
    """Cay(D_2n, omega) from its edge list; omega must be a connection set."""
    edges = [(x, dihedral_multiply(x, w, n)) for x in range(2 * n) for w in set(omega)]
    return Graph.from_edges(2 * n, edges)


def full_round_refinement(graph, cells):
    """Coarsest equitable refinement; subcells ordered by neighbour-count key.

    Each round keys every vertex by its neighbour count in every cell of the
    round's partition, and splits each cell by key until no cell splits.
    """
    cells = [tuple(cell) for cell in cells]
    while True:
        sets = [set(cell) for cell in cells]
        new_cells = []
        for cell in cells:
            groups = {}
            for v in cell:
                key = tuple(len(s.intersection(graph.neighbours[v])) for s in sets)
                groups.setdefault(key, []).append(v)
            new_cells += [tuple(groups[key]) for key in sorted(groups)]
        if len(new_cells) == len(cells):
            return new_cells
        cells = new_cells


def mask_and_append_kneser(n, k):
    """(neighbours, masks) of H(n, k), n >= 2k, in the package's indexing.

    The earlier builder: when n > 2k, each k-subset A is joined to the
    (n-k)-supersets A | T for T among the (n-2k)-subsets of [n] - A, and
    every edge is appended to both rows; H(2k, k) has no edges.  The masks
    come from ``itertools.combinations``, not from ``unrank_subset``.
    """
    full = (1 << n) - 1
    small = [sum(1 << x for x in c) for c in combinations(range(n), k)]
    side = len(small)
    masks = small + [full ^ m for m in small]
    vertex = {masks[j]: j for j in range(side, 2 * side)}
    rows = [[] for _ in range(2 * side)]
    for i, a in enumerate(small if n > 2 * k else ()):
        outside = [1 << x for x in range(n) if not a >> x & 1]
        for extra in combinations(outside, n - 2 * k):
            j = vertex[a | sum(extra)]
            rows[i].append(j)
            rows[j].append(i)
    return tuple(tuple(sorted(row)) for row in rows), tuple(masks)


def json_text(graph, labels=None):
    """The JSON document of ``Graph.write_json``, built as one dict."""
    data = {"vertex_count": graph.vertex_count, "edges": [[u, v] for u, v in graph.edges()]}
    if labels is not None:
        data["labels"] = list(labels)
    return json.dumps(data, separators=(",", ":")) + "\n"


def dot_text(graph, labels=None):
    """The DOT text of ``Graph.write_dot``, built as one list of lines."""
    lines = ["graph G {"]
    for v in range(graph.vertex_count):
        if labels is not None:
            label = labels[v].replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {v} [label="{label}"];')
        else:
            lines.append(f"  {v};")
    for u, v in graph.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
