"""Automorphism groups of small graphs, computed from scratch.

The engine is a classical individualization-refinement search: refine an
ordered partition until equitable, individualize the minimum vertex of the
first largest non-singleton cell, and recurse.  The leftmost leaf acts as the
reference labeling; every other leaf whose labeling preserves adjacency
yields an automorphism.  Two standard prunings keep the tree small: orbit
pruning at nodes on the leftmost path, and early exit from a subtree off the
leftmost path once it produced one automorphism (everything else it contains
is a product of that one with stabilizer elements found earlier).

This engine is the independent check for the group-theoretic claims the rest
of the package makes, so it deliberately shares no code with the induced-map
constructions.  An exhaustive factorial-time counter is kept alongside as the
oracle for the engine itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Optional, Sequence

from .errors import DomainError, IsomorphismError, SizeLimitError, StructureError
from .graphs import Graph
from .perms import (
    DEFAULT_ORDER_CAP,
    PermutationGroup,
    closure_images,
    is_graph_automorphism,
    orbit_partition,
)

DEFAULT_SIZE_LIMIT = 128


@dataclass(frozen=True)
class OrderedPartition:
    """An ordered list of disjoint vertex cells; order is significant."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for cell in self.cells:
            if not cell:
                raise DomainError("empty cell in ordered partition")
            for v in cell:
                if v in seen:
                    raise DomainError(f"vertex {v} appears in two cells")
                seen.add(v)

    @classmethod
    def unit(cls, vertex_count: int) -> "OrderedPartition":
        return cls((tuple(range(vertex_count)),))

    @property
    def is_discrete(self) -> bool:
        return all(len(c) == 1 for c in self.cells)


def _refine(adjacency: Sequence[int], cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Coarsest equitable refinement; subcells ordered by neighbor-count key."""
    while True:
        masks = []
        for cell in cells:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        new_cells: list[tuple[int, ...]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                key = tuple((adjacency[v] & m).bit_count() for m in masks)
                groups.setdefault(key, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(groups):
                    new_cells.append(tuple(groups[key]))
        if not changed:
            return new_cells
        cells = new_cells


def equitable_refinement(graph: Graph, partition: OrderedPartition) -> OrderedPartition:
    """Public wrapper: coarsest equitable refinement of a partition of V(G)."""
    covered = sorted(v for cell in partition.cells for v in cell)
    if covered != list(range(graph.vertex_count)):
        raise DomainError("partition does not cover the vertex set exactly")
    refined = _refine(graph.adjacency, [tuple(sorted(c)) for c in partition.cells])
    return OrderedPartition(tuple(refined))


def _target_cell(cells: list[tuple[int, ...]]) -> Optional[int]:
    """Index of the first largest non-singleton cell, or None when discrete."""
    best = None
    best_size = 1
    for i, cell in enumerate(cells):
        if len(cell) > best_size:
            best = i
            best_size = len(cell)
    return best


class _AutSearch:
    """One automorphism search over a fixed adjacency and initial partition."""

    def __init__(self, adjacency: Sequence[int], vertex_count: int,
                 initial_cells: list[tuple[int, ...]]):
        self.adjacency = adjacency
        self.n = vertex_count
        self.initial_cells = initial_cells
        self.edges = []
        for u in range(vertex_count):
            rest = adjacency[u] >> (u + 1) << (u + 1)
            while rest:
                low = rest & -rest
                self.edges.append((u, low.bit_length() - 1))
                rest ^= low
        self.base_leaf: Optional[tuple[int, ...]] = None
        self.generators: list[tuple[int, ...]] = []

    def run(self) -> list[tuple[int, ...]]:
        root = _refine(self.adjacency, list(self.initial_cells))
        self._node(root, on_base=True)
        return self.generators

    def _node(self, cells: list[tuple[int, ...]], on_base: bool) -> bool:
        """Explore one tree node; True means an automorphism was found below."""
        target = _target_cell(cells)
        if target is None:
            return self._leaf(cells)
        cell = cells[target]
        prefix = cells[:target]
        suffix = cells[target + 1:]
        if on_base:
            gens_before = len(self.generators)
            processed: list[int] = []
            for idx, u in enumerate(cell):
                if idx > 0 and self._in_local_orbit(u, processed, gens_before):
                    continue
                rest = tuple(w for w in cell if w != u)
                child = _refine(self.adjacency, prefix + [(u,), rest] + suffix)
                self._node(child, on_base=(idx == 0))
                processed.append(u)
            return False
        for u in cell:
            rest = tuple(w for w in cell if w != u)
            child = _refine(self.adjacency, prefix + [(u,), rest] + suffix)
            if self._node(child, on_base=False):
                return True
        return False

    def _leaf(self, cells: list[tuple[int, ...]]) -> bool:
        leaf = tuple(c[0] for c in cells)
        if self.base_leaf is None:
            self.base_leaf = leaf
            return False
        images = [0] * self.n
        for a, b in zip(self.base_leaf, leaf):
            images[a] = b
        adjacency = self.adjacency
        for u, v in self.edges:
            if not adjacency[images[u]] >> images[v] & 1:
                return False
        perm = tuple(images)
        self.generators.append(perm)
        return True

    def _in_local_orbit(self, u: int, processed: list[int], gens_before: int) -> bool:
        """Is u reachable from a processed candidate under generators found here?

        Generators appended while this node's candidate loop runs all fix the
        individualized prefix above this node, so they are exactly the ones
        valid for pruning.
        """
        gens = self.generators[gens_before:]
        if not gens:
            return False
        return any(u in orb for orb in orbit_partition(processed, gens, self.n))


def automorphism_group(
    graph: Graph,
    size_limit: int = DEFAULT_SIZE_LIMIT,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> PermutationGroup:
    """Generators and exact order of Aut(G), fully enumerated.

    Dense inputs are searched through their complement (same group); every
    emitted generator is re-verified against the original adjacency.
    """
    n = graph.vertex_count
    if n > size_limit:
        raise SizeLimitError(f"{n} vertices exceeds the engine limit of {size_limit}")
    work = graph
    if n > 2 and graph.edge_count * 2 > n * (n - 1) // 2:
        work = graph.complement_graph()
    search = _AutSearch(work.adjacency, n, [tuple(range(n))])
    gen_images = search.run()
    for images in gen_images:
        if not is_graph_automorphism(graph, images):
            raise StructureError("engine emitted a non-automorphism; this is a bug")
    elements = tuple(sorted(closure_images(gen_images, n, order_cap)))
    return PermutationGroup(generators=tuple(gen_images), degree=n, elements=elements)


def brute_force_automorphism_order(graph: Graph, limit: int = 8) -> int:
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


def are_isomorphic(
    g1: Graph,
    g2: Graph,
    size_limit: int = DEFAULT_SIZE_LIMIT,
) -> Optional[tuple[int, ...]]:
    """An adjacency-preserving bijection V(G1) -> V(G2), or None.

    Runs the automorphism search on the disjoint union extended by two apex
    vertices (one joined to each side), with the two-cell initial partition
    {graph vertices}, {apexes}.  The graphs are isomorphic exactly when some
    automorphism swaps the apexes, and its restriction to the first side is
    the bijection.  The apexes keep the reduction valid for disconnected
    inputs as well.
    """
    if g1.vertex_count > size_limit or g2.vertex_count > size_limit:
        raise SizeLimitError(f"inputs exceed the engine limit of {size_limit}")
    if g1.vertex_count != g2.vertex_count:
        return None
    if g1.edge_count != g2.edge_count:
        return None
    if sorted(g1.degree_sequence()) != sorted(g2.degree_sequence()):
        return None

    m = g1.vertex_count
    a1, a2 = 2 * m, 2 * m + 1
    adjacency = [0] * (2 * m + 2)
    for u, v in g1.edges():
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    for u, v in g2.edges():
        adjacency[u + m] |= 1 << (v + m)
        adjacency[v + m] |= 1 << (u + m)
    for v in range(m):
        adjacency[a1] |= 1 << v
        adjacency[v] |= 1 << a1
        adjacency[a2] |= 1 << (v + m)
        adjacency[v + m] |= 1 << a2

    search = _AutSearch(adjacency, 2 * m + 2, [tuple(range(2 * m)), (a1, a2)])
    gens = search.run()

    # Orbit of the first apex, with a witness permutation per reached vertex.
    # This BFS builds a transversal, not just an orbit, so it is not orbit_partition.
    identity = tuple(range(2 * m + 2))
    witness: dict[int, tuple[int, ...]] = {a1: identity}
    queue = [a1]
    while queue and a2 not in witness:
        x = queue.pop()
        for g in gens:
            y = g[x]
            if y not in witness:
                witness[y] = tuple(g[w] for w in witness[x])
                queue.append(y)
    if a2 not in witness:
        return None

    swap = witness[a2]
    mapping = tuple(swap[v] - m for v in range(m))
    if sorted(mapping) != list(range(m)):
        raise IsomorphismError("apex witness did not restrict to a bijection")
    for u, v in g1.edges():
        if not g2.has_edge(mapping[u], mapping[v]):
            raise IsomorphismError("forward edge check failed on the witness map")
    back = [0] * m
    for v, w in enumerate(mapping):
        back[w] = v
    for u, v in g2.edges():
        if not g1.has_edge(back[u], back[v]):
            raise IsomorphismError("backward edge check failed on the witness map")
    return mapping
