"""Bipartite Kneser graphs H(n, k) with a canonical vertex indexing.

Vertices 0 .. C(n,k)-1 are the k-subsets in lexicographic order; vertex
C(n,k)+r is the (n-k)-subset whose complement has lex rank r.  This pairing
makes complementation the fixed index shift i <-> i + C(n,k), which the
symmetry modules rely on.  ``KneserGraph.masks`` holds the subset of each
vertex as an int mask (see ``subsets``); the induced maps f_theta read it,
and the graph holds only its neighbour tuples.  ``KneserGraph.labels``
formats the "{1,3}" label of each vertex from its mask when it is iterated,
so only a writer (``build``) pays for the labels.

A k-set A lies inside the (n-k)-set [n]-B exactly when A and B are
disjoint, so H(n, k) is the Kneser graph K(n, k) times K_2: vertex r and
vertex C(n,k)+s are adjacent exactly when the k-subsets of ranks r and s
are disjoint.  The builder computes each Kneser row once, as the ascending
tuple of ranks disjoint from r.  Vertex C(n,k)+r takes that tuple as its
row, and vertex r takes it shifted by C(n,k); the shifted entries come from
one list, so every row that names a vertex shares one int object for it.
"""

from __future__ import annotations

from itertools import chain, combinations
from operator import getitem
from typing import Callable, Iterator, NamedTuple, TypeVar

from .errors import CardinalityError, DomainError, FamilyInvariantError, NullGraphError, as_int
from .graphs import Graph
from .subsets import binomial, rank_subset, unrank_subset

_T = TypeVar("_T")


def _byte_tables(n: int, empty: _T, add: Callable[[_T, int], _T]) -> list[list[_T]]:
    """For each byte j of an n-bit mask, one entry per byte value b.

    The entry is ``empty`` with ``add`` applied once for each element x
    (from 0) whose bit is set in byte j of value b, in ascending order.
    """
    tables = []
    for j in range((n + 7) // 8):
        table = [empty]
        for x in range(8 * j, 8 * j + 8):
            table += [add(entry, x) for entry in table]  # the values with bit x - 8j set
        tables.append(table)
    return tables


class KneserGraph(NamedTuple):
    """H(n, k): its graph, and the subset mask of each vertex in the canonical indexing."""

    n: int
    k: int
    graph: Graph
    side_size: int  # C(n, k); vertices i and i + side_size hold complementary subsets
    masks: tuple[int, ...]  # the subset mask of each vertex

    def __repr__(self) -> str:
        return (
            f"KneserGraph(n={self.n!r}, k={self.k!r}, graph={self.graph!r}, "
            f"side_size={self.side_size!r})"
        )

    def subset_of_vertex(self, index: int) -> int:
        """The subset mask of vertex ``index``, 0 <= index < V."""
        index = as_int(index, "vertex index")
        if not 0 <= index < len(self.masks):
            raise DomainError(
                f"vertex {index} outside 0..{len(self.masks) - 1} of H({self.n},{self.k})"
            )
        return self.masks[index]

    def vertex_of_subset(self, mask: int) -> int:
        """Index of the vertex labeled by the subset mask (k-side preferred when n = 2k)."""
        mask = as_int(mask, "subset mask")
        size = mask.bit_count()
        if size == self.k:
            return rank_subset(mask, self.n, self.k)
        if size == self.n - self.k:
            return self.side_size + rank_subset(mask ^ ((1 << self.n) - 1), self.n, self.k)
        raise CardinalityError(
            f"subset of size {size} is not a vertex of H({self.n},{self.k})"
        )

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count

    def labels(self) -> Iterator[str]:
        """The label of each vertex in order, "{1,3}", as ``format_subset`` gives it.

        Each label is joined from the names of its mask's bytes, read off
        per-byte tables, so a label costs one lookup per byte, not per bit.
        """
        tables = _byte_tables(
            self.n, "", lambda names, x: f"{names},{x + 1}" if names else str(x + 1))
        for mask in self.masks:
            names = map(getitem, tables, mask.to_bytes(len(tables), "little"))
            yield "{" + ",".join(filter(None, names)) + "}"


def build_bipartite_kneser(n: int, k: int, allow_null: bool = False) -> KneserGraph:
    """Construct H(n, k); rejects n = 2k unless allow_null, and n < 2k always."""
    n, k = as_int(n, "n"), as_int(k, "k")
    if k < 1 or n <= k:
        raise DomainError(f"H(n, k) needs n > k >= 1, got ({n}, {k})")
    if n < 2 * k:
        raise DomainError(f"H({n},{k}) is H({n},{n - k}) in disguise; require n >= 2k")
    if n == 2 * k and not allow_null:
        raise NullGraphError(f"H({n},{k}) has no edges; pass allow_null to build it anyway")

    side = binomial(n, k)
    full = (1 << n) - 1
    masks = [unrank_subset(r, n, k) for r in range(side)]
    if n == 2 * k:
        rows = [()] * (2 * side)
    else:
        # ranks[r]: the k-subsets disjoint from subset r, from the k-combinations
        # of r's complement bits, which come out in lex order; the bits are
        # read off per-byte tables
        rank_of = {m: r for r, m in enumerate(masks)}
        bits = _byte_tables(n, (), lambda entry, x: entry + (1 << x,))
        ranks = []
        for a in masks:
            outside = chain.from_iterable(
                map(getitem, bits, (full ^ a).to_bytes(len(bits), "little")))
            ranks.append(tuple(map(rank_of.__getitem__, map(sum, combinations(outside, k)))))
        shifted = list(range(side, 2 * side))
        rows = [tuple(map(shifted.__getitem__, row)) for row in ranks] + ranks
    masks = tuple(masks + [full ^ m for m in masks])

    graph = Graph(2 * side, rows)
    return KneserGraph(n=n, k=k, graph=graph, side_size=side, masks=masks)


class FamilyReport(NamedTuple):
    n: int
    k: int
    vertices: int
    edges: int
    degree: int
    part_sizes: tuple[int, int]
    connected: bool


def verify_family_counts(kg: KneserGraph) -> FamilyReport:
    """Check every counting fact about H(n, k): sizes, regularity, parts, connectivity."""
    n, k = kg.n, kg.k
    side = binomial(n, k)
    degree = binomial(n - k, k)
    g = kg.graph

    if g.vertex_count != 2 * side:
        raise FamilyInvariantError(
            f"H({n},{k}): expected {2 * side} vertices, found {g.vertex_count}"
        )
    degrees = set(g.degree_sequence())
    if degrees != {degree}:
        raise FamilyInvariantError(
            f"H({n},{k}): expected all degrees {degree}, found {sorted(degrees)}"
        )
    # Every edge has exactly one endpoint on the k-side.
    expected_edges = side * degree
    if g.edge_count != expected_edges:
        raise FamilyInvariantError(
            f"H({n},{k}): expected {expected_edges} edges, found {g.edge_count}"
        )
    parts = g.bipartition()
    if parts is None:
        raise FamilyInvariantError(f"H({n},{k}): not bipartite")
    sizes = (len(parts[0]), len(parts[1]))
    if sorted(sizes) != [side, side]:
        raise FamilyInvariantError(
            f"H({n},{k}): expected part sizes ({side}, {side}), found {sizes}"
        )
    connected = g.is_connected()
    if not connected:
        raise FamilyInvariantError(f"H({n},{k}): not connected")

    return FamilyReport(
        n=n,
        k=k,
        vertices=g.vertex_count,
        edges=g.edge_count,
        degree=degree,
        part_sizes=sizes,
        connected=connected,
    )
