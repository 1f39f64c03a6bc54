"""Simple undirected graphs over integer vertex indices.

A graph is its vertex count and ``neighbours``, one ascending tuple of
neighbours per vertex, which every reader (BFS, flows, refinement, the
isomorphism check) walks directly.  The constructor takes the rows from any
iterable, one pass, and checks them once, where they enter, in O(E).  A row
given as an ascending tuple of plain ints is kept as given, so the rows a
builder makes are stored without a second copy.  Graphs are treated as
immutable after construction; every query is pure.  A graph holds no
labels: the two writers take them as an argument, read them into a list
once and check their count before any write.  The writers format each
vertex's edges with one join and write JSON and DOT in blocks of a little
over 64 KB, so a handle that is not buffered makes few system calls and the
whole document is never held; the DOT writer escapes each label's
backslashes and double quotes.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_left
from typing import Iterable, Iterator, Optional, TextIO

from .errors import DisconnectedError, DomainError, as_int


class Graph:
    """Simple undirected graph: vertex count and neighbour tuples.

    ``neighbours[v]`` lists v's neighbours in ascending order.
    """

    __slots__ = ("vertex_count", "neighbours")

    def __init__(self, vertex_count: int, neighbours: Iterable[Iterable[int]]):
        """Check each row: ints in range, no self-loop, no repeat, and symmetric."""
        vertex_count = _check_count(vertex_count)
        try:
            given = iter(neighbours)
        except TypeError:
            raise DomainError("neighbours must be an iterable of rows") from None
        self.vertex_count = vertex_count
        # earlier[w] gathers each v < w whose row holds w, in ascending order,
        # so when w is reached they must be exactly w's neighbours below w
        earlier: list[list[int]] = [[] for _ in range(vertex_count)]
        rows: list[tuple[int, ...]] = []
        for v, given_row in enumerate(given):
            if v == vertex_count:
                raise DomainError("neighbours length does not match vertex count")
            try:
                ordered = sorted(map(operator.index, given_row))
            except TypeError:
                raise DomainError(
                    f"the row of vertex {v} must be an iterable of ints, got {given_row!r}"
                ) from None
            # an ascending tuple of plain ints is kept as given, not copied
            if type(given_row) is tuple and all(map(operator.is_, ordered, given_row)):
                row = given_row
            else:
                row = tuple(ordered)
            if row and (row[0] < 0 or row[-1] >= vertex_count):
                raise DomainError(f"the row of vertex {v} refers outside the vertex set")
            if any(map(operator.eq, row, row[1:])):  # sorted, so a repeat is adjacent
                raise DomainError(f"the row of vertex {v} lists a neighbour twice")
            cut = bisect_left(row, v)
            if row[cut:cut + 1] == (v,):
                raise DomainError(f"self-loop at vertex {v}")
            if list(row[:cut]) != earlier[v]:
                raise DomainError(f"asymmetric adjacency at vertex {v}")
            earlier[v].clear()  # spent; freeing each as we go saves 3 MB on H(16,7)
            for w in row[cut:]:
                earlier[w].append(v)
            rows.append(row)
        if len(rows) != vertex_count:
            raise DomainError("neighbours length does not match vertex count")
        self.neighbours: tuple[tuple[int, ...], ...] = tuple(rows)

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on the given edges; an edge listed twice counts once."""
        vertex_count = _check_count(vertex_count)
        rows: list[set[int]] = [set() for _ in range(vertex_count)]
        for u, v in edges:
            u, v = _check_vertex(u, vertex_count), _check_vertex(v, vertex_count)
            rows[u].add(v)
            rows[v].add(u)
        return cls(vertex_count, rows)

    def has_edge(self, u: int, v: int) -> bool:
        n = self.vertex_count
        return _check_vertex(v, n) in self.neighbours[_check_vertex(u, n)]

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(map(len, self.neighbours))

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.neighbours)) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        return [(u, v) for u, row in enumerate(self.neighbours) for v in row if u < v]

    def arcs(self) -> list[tuple[int, int]]:
        """All ordered adjacent pairs: each edge (u, v) of ``edges``, then (v, u)."""
        return [arc for u, v in self.edges() for arc in ((u, v), (v, u))]

    def _layers(self, start: int):
        """Yield the BFS layers from ``start`` as vertex collections, ``[start]`` first."""
        rows = self.neighbours
        seen = {start}
        layer = [start]
        while layer:
            yield layer
            layer = set().union(*[rows[v] for v in layer]) - seen
            seen |= layer

    def bfs_distances(self, start: int) -> list[int | float]:
        """Distances from ``start``; math.inf marks unreachable vertices."""
        start = _check_vertex(start, self.vertex_count)
        dist: list[int | float] = [math.inf] * self.vertex_count
        for d, layer in enumerate(self._layers(start)):
            for v in layer:
                dist[v] = d
        return dist

    def is_connected(self) -> bool:
        return sum(map(len, self._layers(0))) == self.vertex_count

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
        sides: tuple[set[int], set[int]] = (set(), set())
        for root in range(self.vertex_count):
            if root not in sides[0] and root not in sides[1]:
                for d, layer in enumerate(self._layers(root)):
                    sides[d & 1].update(layer)
        for v, row in enumerate(self.neighbours):
            if not sides[v in sides[1]].isdisjoint(row):  # a neighbour on v's own side
                return None
        return tuple(sorted(sides[0])), tuple(sorted(sides[1]))

    def _edge_rows(self) -> Iterator[tuple[int, Iterator[str]]]:
        """Each vertex u with a neighbour above it, and those neighbours in decimal."""
        names = list(map(str, range(self.vertex_count)))  # each vertex converted once
        for u, row in enumerate(self.neighbours):
            above = row[bisect_left(row, u):]
            if above:
                yield u, map(names.__getitem__, above)

    def _read_labels(self, labels: Optional[Iterable[str]]) -> Optional[list[str]]:
        """The labels as a list, read once; a count other than V raises ``DomainError``."""
        if labels is None:
            return None
        labels = list(labels)
        if len(labels) != self.vertex_count:
            raise DomainError("labels length does not match vertex count")
        return labels

    def write_json(self, handle: TextIO, labels: Optional[Iterable[str]] = None) -> None:
        """Write {"vertex_count", "edges", "labels"} as one compact JSON line.

        The edges are those of ``edges``; "labels" is written only when labels
        are given, one string per vertex.  Each vertex's row of edges is
        formatted by one join, and the rows go to ``handle`` in blocks of a
        little over 64 KB, so the whole document is never held at once.
        """
        _write_blocks(handle, self._json_pieces(self._read_labels(labels)))

    def _json_pieces(self, labels: Optional[list[str]]) -> Iterator[str]:
        yield f'{{"vertex_count":{self.vertex_count},"edges":['
        separator = ""
        for u, above in self._edge_rows():
            yield f"{separator}[{u}," + f"],[{u},".join(above) + "]"
            separator = ","
        yield "]"
        if labels is not None:
            yield ',"labels":' + json.dumps(labels, separators=(",", ":"))
        yield "}\n"

    def write_dot(self, handle: TextIO, labels: Optional[Iterable[str]] = None) -> None:
        """Write the graph in DOT, each vertex with its quoted label if given, then each edge.

        A backslash or a double quote in a label is escaped, so the quoted
        string ends where the label does.  The labels are checked as in
        ``write_json``, and the text goes to ``handle`` in blocks.
        """
        _write_blocks(handle, self._dot_pieces(self._read_labels(labels)))

    def _dot_pieces(self, labels: Optional[list[str]]) -> Iterator[str]:
        yield "graph G {\n"
        if labels is not None:
            for v, label in enumerate(labels):
                yield f'  {v} [label="{label.translate(_DOT_ESCAPES)}"];\n'
        else:
            yield "".join(map("  {};\n".format, range(self.vertex_count)))
        for u, above in self._edge_rows():
            yield f"  {u} -- " + f";\n  {u} -- ".join(above) + ";\n"
        yield "}\n"

    def __repr__(self) -> str:
        return f"Graph(vertices={self.vertex_count}, edges={self.edge_count})"


_DOT_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"'})
_BLOCK = 1 << 16


def _write_blocks(handle: TextIO, pieces: Iterable[str]) -> None:
    """Write the pieces in order, joined into blocks that each pass 64 KB but the last.

    An unbuffered handle makes each write a system call, so a block holds
    many rows; memory stays bounded by one block and the largest piece.
    """
    block: list[str] = []
    size = 0
    for piece in pieces:
        block.append(piece)
        size += len(piece)
        if size > _BLOCK:
            handle.write("".join(block))
            block.clear()
            size = 0
    handle.write("".join(block))


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
