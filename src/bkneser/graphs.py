"""Simple undirected graphs over integer vertex indices.

Adjacency is a per-vertex bitset (a Python int), which keeps adjacency tests,
BFS layers and flow searches to a few big-int operations per vertex at the
few-thousand-vertex scale this package targets.  Construction walks each
row's bits once: that walk checks the rows for symmetry in O(E) and records
``neighbours``, the ascending neighbour tuples that every edge scan
(``edges``, ``arcs``, the isomorphism check, refinement) reads.  Graphs are
treated as immutable after construction; every query is pure.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Optional, Sequence

from .errors import DisconnectedError, DomainError, as_int


class Graph:
    """Simple undirected graph: vertex count, adjacency bitsets, optional labels.

    ``neighbours[v]`` lists v's neighbours in ascending order.
    """

    __slots__ = ("vertex_count", "adjacency", "labels", "neighbours")

    def __init__(
        self,
        vertex_count: int,
        adjacency: Sequence[int],
        labels: Optional[Sequence[str]] = None,
    ):
        vertex_count = _check_count(vertex_count)
        if len(adjacency) != vertex_count:
            raise DomainError("adjacency length does not match vertex count")
        self.vertex_count = vertex_count
        # one int check per mask, not per bit: the loop below walks the bits
        self.adjacency = tuple(as_int(mask, "an adjacency mask") for mask in adjacency)
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != vertex_count:
            raise DomainError("labels length does not match vertex count")
        # rows[w] gathers each v whose mask holds w, in ascending order, so when
        # v is reached rows[v] must be exactly v's neighbours below v.  A row
        # holds the int enumerate yields for each vertex, one object per vertex.
        rows: list = [[] for _ in range(vertex_count)]
        for v, mask in enumerate(self.adjacency):
            if mask < 0 or mask >> vertex_count:
                raise DomainError(f"adjacency of vertex {v} refers outside the vertex set")
            if mask >> v & 1:
                raise DomainError(f"self-loop at vertex {v}")
            walked = list(_bits(mask))
            if walked[:bisect_left(walked, v)] != rows[v]:
                raise DomainError(f"asymmetric adjacency at vertex {v}")
            for w in walked:
                rows[w].append(v)
        for v, row in enumerate(rows):
            rows[v] = tuple(row)
        self.neighbours: tuple[tuple[int, ...], ...] = tuple(rows)

    @classmethod
    def from_edges(
        cls,
        vertex_count: int,
        edges: Iterable[tuple[int, int]],
        labels: Optional[Sequence[str]] = None,
    ) -> "Graph":
        vertex_count = _check_count(vertex_count)
        adjacency = [0] * vertex_count
        for u, v in edges:
            u, v = _check_vertex(u, vertex_count), _check_vertex(v, vertex_count)
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
        return cls(vertex_count, adjacency, labels)

    def has_edge(self, u: int, v: int) -> bool:
        n = self.vertex_count
        return bool(self.adjacency[_check_vertex(u, n)] >> _check_vertex(v, n) & 1)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        return [(u, v) for u, row in enumerate(self.neighbours) for v in row if u < v]

    def arcs(self) -> list[tuple[int, int]]:
        """All ordered adjacent pairs: each edge (u, v) of ``edges``, then (v, u)."""
        return [arc for u, v in self.edges() for arc in ((u, v), (v, u))]

    def _layers(self, start: int):
        """Yield the BFS layers from ``start`` as vertex masks, ``start`` first."""
        seen = frontier = 1 << start
        while frontier:
            yield frontier
            reach = 0
            for v in _bits(frontier):
                reach |= self.adjacency[v]
            frontier = reach & ~seen
            seen |= frontier

    def bfs_distances(self, start: int) -> list[int | float]:
        """Distances from ``start``; math.inf marks unreachable vertices."""
        start = _check_vertex(start, self.vertex_count)
        dist: list[int | float] = [math.inf] * self.vertex_count
        for d, layer in enumerate(self._layers(start)):
            for v in _bits(layer):
                dist[v] = d
        return dist

    def is_connected(self) -> bool:
        # the layers are disjoint masks, so their sum is the reached set
        return sum(self._layers(0)) == (1 << self.vertex_count) - 1

    def diameter(self) -> int:
        """Largest BFS distance over all pairs; requires connectivity."""
        if not self.is_connected():
            raise DisconnectedError("diameter of a disconnected graph")
        return max(sum(1 for _ in self._layers(v)) - 1 for v in range(self.vertex_count))

    def bipartition(self) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Two-coloring as (side 0, side 1), or None on an odd cycle.

        Each component's least vertex goes on side 0 and every other vertex
        on the side of its BFS distance's parity; that coloring is proper
        exactly when the graph is bipartite.
        """
        sides = [0, 0]
        for root in range(self.vertex_count):
            if not (sides[0] | sides[1]) >> root & 1:
                for d, layer in enumerate(self._layers(root)):
                    sides[d & 1] |= layer
        for v, mask in enumerate(self.adjacency):
            if mask & sides[sides[1] >> v & 1]:  # a neighbor on v's own side
                return None
        return tuple(_bits(sides[0])), tuple(_bits(sides[1]))

    def to_json_dict(self) -> dict:
        data: dict = {
            "vertex_count": self.vertex_count,
            "edges": [[u, v] for u, v in self.edges()],
        }
        if self.labels is not None:
            data["labels"] = list(self.labels)
        return data

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for v in range(self.vertex_count):
            if self.labels is not None:
                lines.append(f'  {v} [label="{self.labels[v]}"];')
            else:
                lines.append(f"  {v};")
        for u, v in self.edges():
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"Graph(vertices={self.vertex_count}, edges={self.edge_count})"


def _check_count(vertex_count: int) -> int:
    """The vertex count as a positive int, or ``DomainError``."""
    vertex_count = as_int(vertex_count, "vertex count")
    if vertex_count <= 0:
        raise DomainError(f"vertex count must be positive, got {vertex_count}")
    return vertex_count


def _check_vertex(v: int, vertex_count: int) -> int:
    """The vertex as an int in 0..vertex_count-1, or ``DomainError``."""
    v = as_int(v, "vertex")
    if not 0 <= v < vertex_count:
        raise DomainError(f"vertex {v} outside range 0..{vertex_count - 1}")
    return v


def _bits(mask: int):
    """Yield the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
