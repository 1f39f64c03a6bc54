"""Independent oracles for cross-checking the package's main code paths.

Nothing here shares logic with the implementation under test: distances come
from a dictionary BFS, connectivity from exhaustive cut enumeration,
isomorphism from a direct scan over all bijections, and automorphism counts
from a scan over all vertex permutations.
"""

from collections import deque
from itertools import combinations, permutations

from bkneser.errors import SizeLimitError


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
