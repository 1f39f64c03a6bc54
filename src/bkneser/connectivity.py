"""Exact vertex connectivity by BFS augmenting paths on the implicit
vertex-split graph.

Internally disjoint u-v paths are unit flows once every vertex w is split
into w_in = 2w and w_out = 2w + 1, joined by a unit-capacity arc, and every
edge xy becomes the uncapacitated arcs x_out -> y_in and y_out -> x_in
(Even & Tarjan, SIAM J. Comput. 1975).  The split graph is never built: the
search reads the adjacency bitsets directly.  Global connectivity minimizes
over every non-adjacent pair; at the few-hundred-vertex sizes this package
targets that is cheap and unconditionally correct.  Every solve reads a
minimum cut off its last, failed search and checks it against the flow value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AdjacencyError, DomainError, VerificationError
from .graphs import Graph, _bits


@dataclass
class MaxFlowResult:
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
    if u == v:
        raise DomainError("max-flow needs two distinct vertices")
    if not (0 <= u < n and 0 <= v < n):
        raise DomainError(f"vertex pair ({u}, {v}) outside range 0..{n - 1}")
    adjacency = graph.adjacency
    source, sink = 2 * u + 1, 2 * v
    prv = [-1] * n
    ends: list[int] = []  # the last interior vertex of each path
    while True:
        parent = [-1] * (2 * n)
        parent[source] = source
        seen_in = 1 << u  # no path re-enters u
        queue = [source]
        for state in queue:
            w = state >> 1
            if state & 1:
                fresh = adjacency[w] & ~seen_in
                if w == u:
                    fresh &= ~(1 << v)  # the direct edge is not an interior path
                if fresh >> v & 1:
                    parent[sink] = state
                    break
                seen_in |= fresh
                for y in _bits(fresh):
                    parent[2 * y] = state
                    queue.append(2 * y)
                if prv[w] >= 0 and not seen_in >> w & 1:  # w's unit can run back to w_in
                    seen_in |= 1 << w
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

    cut = sum(1 for w in _bits(seen_in) if parent[2 * w + 1] < 0)
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


def local_vertex_connectivity(graph: Graph, u: int, v: int) -> int:
    """Minimum number of other vertices whose removal separates u from v."""
    value = max_flow(graph, u, v).value  # validates the pair first
    if graph.has_edge(u, v):
        raise AdjacencyError(
            f"vertices {u} and {v} are adjacent; no vertex cut separates them"
        )
    return value


def vertex_connectivity(graph: Graph) -> int:
    """kappa(G): 0 when disconnected, m-1 for K_m, else the min over all
    non-adjacent pairs of the local connectivity."""
    n = graph.vertex_count
    if n < 2:
        return 0
    if not graph.is_connected():
        return 0
    best: int | None = None
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


def menger_certificate(graph: Graph, u: int, v: int) -> list[list[int]]:
    """Internally disjoint u-v paths witnessing the local connectivity.

    Non-adjacent pairs get exactly local_vertex_connectivity(u, v) paths.
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
