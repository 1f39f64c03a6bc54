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
constructions.  Its own oracle, an exhaustive factorial-time counter, lives
with the tests (``tests/oracles.py``).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import IsomorphismError, SizeLimitError, StructureError
from .graphs import Graph
from .perms import (
    DEFAULT_ORDER_CAP,
    PermutationGroup,
    closure_images,
    is_graph_automorphism,
    is_isomorphism,
    orbit_partition,
)

# ``_node`` recurses once per individualized vertex, so its depth can reach
# the vertex count (the empty graph individualizes every vertex).  This fixed
# limit keeps that depth far below Python's recursion limit; raise it only
# once the search is iterative.
SIZE_LIMIT = 128


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
    """One automorphism search over a fixed graph and initial partition."""

    def __init__(self, graph: Graph, initial_cells: list[tuple[int, ...]]):
        self.adjacency = graph.adjacency
        self.n = graph.vertex_count
        self.initial_cells = initial_cells
        self.edges = graph.edges()
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


def automorphism_group(graph: Graph, order_cap: int = DEFAULT_ORDER_CAP) -> PermutationGroup:
    """Generators and exact order of Aut(G), fully enumerated.

    Graphs above ``SIZE_LIMIT`` vertices are refused; every emitted generator
    is re-verified against the adjacency.
    """
    n = graph.vertex_count
    if n > SIZE_LIMIT:
        raise SizeLimitError(f"{n} vertices exceeds the engine limit of {SIZE_LIMIT}")
    search = _AutSearch(graph, [tuple(range(n))])
    gen_images = search.run()
    for images in gen_images:
        if not is_graph_automorphism(graph, images):
            raise StructureError("engine emitted a non-automorphism; this is a bug")
    elements = closure_images(gen_images, n, order_cap)
    return PermutationGroup(generators=tuple(gen_images), degree=n, elements=elements)


def are_isomorphic(g1: Graph, g2: Graph) -> Optional[tuple[int, ...]]:
    """An adjacency-preserving bijection V(G1) -> V(G2), or None.

    Runs the automorphism search on the disjoint union extended by two apex
    vertices (one joined to each side), with the two-cell initial partition
    {graph vertices}, {apexes}.  The graphs are isomorphic exactly when some
    automorphism swaps the apexes, and its restriction to the first side is
    the bijection.  The apexes keep the reduction valid for disconnected
    inputs as well.
    """
    if g1.vertex_count > SIZE_LIMIT or g2.vertex_count > SIZE_LIMIT:
        raise SizeLimitError(f"inputs exceed the engine limit of {SIZE_LIMIT}")
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
    search = _AutSearch(union, [tuple(range(2 * m)), (a1, a2)])
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
    if not is_isomorphism(g1, g2, mapping):
        raise IsomorphismError("the apex witness does not restrict to an isomorphism")
    return mapping
