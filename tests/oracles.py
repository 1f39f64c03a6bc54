"""Independent oracles for cross-checking the package's main code paths.

Distances come from a dictionary BFS, connectivity from exhaustive cut
enumeration, isomorphism from a direct scan over all bijections,
automorphism counts from a scan over all vertex permutations, and group
elements from a dictionary BFS by right multiplication; none of these
shares logic with the implementation under test.  The other oracles are
earlier versions of the code, kept to check what replaced them.  The
mask-and-append builder finds each k-subset's (n-k)-supersets by adding bits
to its mask and appends every edge to both rows; the writers' oracles build
the whole text at once, JSON through ``json.dumps``.  The all-pairs
connectivity loop solves a flow for every non-adjacent pair and checks the
pair selection, not the flow.  The full-round refinement keys every vertex
by its neighbour count in every cell, on every round, and checks the cells
of the splitter-queue refinement, not their order.  The regular-subgroup
scan is the two-phase search (cyclic subgroups first, then pairs), kept to
pin the order in which the single pair scan finds its subgroup.
"""

import json
from collections import deque
from itertools import combinations, permutations

from bkneser.connectivity import local_vertex_connectivity
from bkneser.errors import OrderCapExceeded, SizeLimitError
from bkneser.perms import closure_images, element_order, orbit_partition


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


def json_text(graph):
    """The JSON document of ``Graph.write_json``, built as one dict."""
    data = {"vertex_count": graph.vertex_count, "edges": [[u, v] for u, v in graph.edges()]}
    if graph.labels is not None:
        data["labels"] = list(graph.labels)
    return json.dumps(data, separators=(",", ":")) + "\n"


def dot_text(graph):
    """The DOT text of ``Graph.write_dot``, built as one list of lines."""
    lines = ["graph G {"]
    for v in range(graph.vertex_count):
        if graph.labels is not None:
            lines.append(f'  {v} [label="{graph.labels[v]}"];')
        else:
            lines.append(f"  {v};")
    for u, v in graph.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
