"""Exact vertex connectivity by BFS augmenting paths on the implicit
vertex-split graph.

Internally disjoint u-v paths are unit flows once every vertex w is split
into w_in = 2w and w_out = 2w + 1, joined by a unit-capacity arc, and every
edge xy becomes the uncapacitated arcs x_out -> y_in and y_out -> x_in
(Even & Tarjan, SIAM J. Comput. 1975).  The split graph is never built: the
search reads the neighbour tuples directly.  Global connectivity solves the
flows of the Esfahanian-Hakimi pair selection (Networks 14, 1984) around one
vertex of minimum degree, one flow per orbit of a verified group of
automorphisms that fixes it.  Every solve reads a minimum cut off its last,
failed search and checks it against the flow value.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import DomainError, VerificationError
from .graphs import Graph, _check_vertex
from .perms import is_graph_automorphism, orbit_partition


class MaxFlowResult(NamedTuple):
    value: int
    cut_capacity: int
    paths: list[list[int]]  # one internally disjoint u .. v path per unit of flow


def max_flow(graph: Graph, u: int, v: int) -> MaxFlowResult:
    """Most internally disjoint u-v paths, not counting a direct u-v edge.

    Each round is a BFS over the split states from u_out to v_in in the
    residual graph.  The flow is held as prv[w] = x: the unit through the
    interior vertex w enters it from x.  The vertices whose in-state the last,
    failed BFS reached but whose out-state it did not form a minimum cut.
    """
    n = graph.vertex_count
    u, v = _check_vertex(u, n), _check_vertex(v, n)
    if u == v:
        raise DomainError("max-flow needs two distinct vertices")
    rows = graph.neighbours
    source, sink = 2 * u + 1, 2 * v
    prv = [-1] * n
    ends: list[int] = []  # the last interior vertex of each path
    while True:
        parent = [-1] * (2 * n)
        parent[source] = source
        seen_in = bytearray(n)
        seen_in[u] = 1  # no path re-enters u
        queue = [source]
        for state in queue:
            w = state >> 1
            if state & 1:
                row = rows[w]
                if w != u and v in row:  # from u, the direct edge is not an interior path
                    parent[sink] = state
                    break
                for y in row:
                    if not seen_in[y] and y != v:
                        seen_in[y] = 1
                        parent[2 * y] = state
                        queue.append(2 * y)
                if prv[w] >= 0 and not seen_in[w]:  # w's unit can run back to w_in
                    seen_in[w] = 1
                    parent[2 * w] = state
                    queue.append(2 * w)
            else:
                # a free vertex passes on to its out-state; a used one only
                # back along the edge its unit came in by
                nxt = 2 * w + 1 if prv[w] < 0 else 2 * prv[w] + 1
                if parent[nxt] < 0:
                    parent[nxt] = state
                    queue.append(nxt)
        else:
            break
        b = sink
        while b != source:
            a = parent[b]
            if a & 1 and not b & 1:  # an arc into an in-state
                x, y = a >> 1, b >> 1
                if x == y:
                    prv[y] = -1  # the path cancels the unit through y
                elif y == v:
                    ends.append(x)
                else:
                    prv[y] = x
            b = a

    cut = sum(1 for w in range(n) if seen_in[w] and parent[2 * w + 1] < 0)
    if cut != len(ends):
        raise VerificationError(
            f"max-flow {len(ends)} does not match extracted min-cut {cut}"
        )
    paths = []
    for x in ends:
        path = [v]
        while x != u:
            path.append(x)
            x = prv[x]
        path.append(u)
        paths.append(path[::-1])
    return MaxFlowResult(value=len(ends), cut_capacity=cut, paths=paths)


def vertex_connectivity(graph: Graph, stabilizer: Sequence[Sequence[int]] = ()) -> int:
    """kappa(G): 0 when disconnected, m-1 for K_m, else the least number of
    vertices whose removal disconnects the graph.

    Fix v, the least vertex of minimum degree, and take a minimum separator
    S of a graph that is not complete.  If v is not in S, some non-neighbour
    w of v lies in another component of G - S, so kappa = kappa(v, w).  If v
    is in S, it has a neighbour in each component (else S - v would
    separate), so kappa = kappa(x, y) for two non-adjacent neighbours x, y.
    kappa is therefore the least of kappa(v, w) over the non-neighbours w and
    kappa(x, y) over the non-adjacent pairs of N(v).  A disconnected graph
    is the case S = {} and needs no test of its own.

    ``stabilizer`` lists vertex maps; each must be an automorphism that fixes
    v, or ``DomainError`` is raised.  The group they generate permutes both
    sets of pairs and preserves local connectivity, so one pair per orbit
    suffices: the least non-neighbour of each orbit, and the least pair of
    each orbit on the unordered non-adjacent pairs of N(v), which are encoded
    over N(v) alone as i*d + j with d = deg(v).  With no maps every pair is
    its own orbit.
    """
    n = graph.vertex_count
    rows = graph.neighbours
    degree = min(map(len, rows))
    v = next(u for u in range(n) if len(rows[u]) == degree)
    for i, g in enumerate(stabilizer):
        if not is_graph_automorphism(graph, g):
            raise DomainError(f"stabilizer map {i} is not an automorphism of the graph")
        if g[v] != v:
            raise DomainError(f"stabilizer map {i} moves vertex {v} to {g[v]}")
    if degree == n - 1:
        return n - 1  # complete graph convention, 0 for K_1
    around = rows[v]
    adjacent = set(around)
    best = n - 1
    others = [w for w in range(n) if w != v and w not in adjacent]
    for orb in orbit_partition(others, stabilizer):
        best = min(best, max_flow(graph, v, orb[0]).value)
    index = {x: i for i, x in enumerate(around)}
    local = [[index[g[x]] for x in around] for g in stabilizer]
    tables = [[a * degree + b for a in g for b in g] for g in local]
    tables.append([b * degree + a for a in range(degree) for b in range(degree)])
    pairs = [i * degree + j for i, x in enumerate(around) for j in range(i + 1, degree)
             if around[j] not in rows[x]]
    for orb in orbit_partition(pairs, tables):
        i, j = divmod(orb[0], degree)
        best = min(best, max_flow(graph, around[i], around[j]).value)
    return best


def menger_certificate(graph: Graph, u: int, v: int) -> list[list[int]]:
    """Internally disjoint u-v paths witnessing the local connectivity.

    Non-adjacent pairs get exactly kappa(u, v) paths, the least number of
    other vertices whose removal separates u from v.
    Adjacent pairs get the direct edge first, then the disjoint paths that
    avoid it.  The flow paths are sorted by their first interior vertex.
    Every path is re-verified edge by edge and pairwise interior-disjointness
    is checked.
    """
    paths = sorted(max_flow(graph, u, v).paths)
    if graph.has_edge(u, v):
        paths.insert(0, [u, v])

    interiors: set[int] = set()
    for path in paths:
        if path[0] != u or path[-1] != v:
            raise VerificationError("certificate path has wrong endpoints")
        for a, b in zip(path, path[1:]):
            if not graph.has_edge(a, b):
                raise VerificationError(f"certificate path uses non-edge ({a}, {b})")
        inner = set(path[1:-1])
        if len(inner) != len(path) - 2 or inner & interiors:
            raise VerificationError("certificate paths share interior vertices")
        interiors |= inner
    return paths
