"""Automorphism groups of small graphs, computed from scratch.

The engine is a classical individualization-refinement search: refine an
ordered partition until equitable, individualize a vertex of the first
largest non-singleton cell, and refine again, until the partition is
discrete.  The search is two loops and uses no recursion.  The first walks
the leftmost path once, individualizing the least vertex of each target cell
and recording each level; its discrete partition is the base leaf, the
reference labeling.  The second visits the recorded levels deepest first.  At
each level it skips a sibling in the orbit of the siblings already processed
(orbit pruning), and searches each remaining sibling's subtree depth-first,
with an explicit stack, for the first leaf whose labeling preserves
adjacency; a node whose cell sizes differ from those of the base path's node
at the same depth cannot lead to such a leaf, and is dropped with its
subtree.  That one automorphism is enough: everything else the subtree
contains is a product of it with stabilizer elements found earlier.

The order of the group comes from the base path, read as a certificate (the
order formula of McKay and Piperno, "Practical graph isomorphism II", J.
Symbolic Comput. 60, 2014).  Let b_1..b_m be the base points, the least
vertex of each target cell T_i on the leftmost path.  Refinement and
individualization commute with automorphisms: cell keys are neighbour
counts, subcells are sorted by key, and the target cell is chosen by size.
So an automorphism fixing b_1..b_{i-1} fixes the path's partition at level
i, maps b_i into T_i, and the automorphisms fixing every base point fix the
discrete leaf and are the identity.  By the orbit-stabilizer theorem down
the chain of pointwise stabilizers, |Aut| <= prod |T_i|.  For the lower
bound let S_i be the generators that fix b_1..b_{i-1}, checked point by
point: each is a verified automorphism, and the product of the orbit lengths
of b_i under <S_i> is at most |<generators>| <= |Aut|.  When the bounds meet,
the order is proved, and the generators generate all of Aut.  A lower bound
above the upper one is a bug and raises.  When the bounds do not meet (on a
union of cycles of different lengths, refinement cannot tell the cycles
apart and T_i is too large), the group is enumerated by ``closure_images``
under the order cap, which is also the oracle for the certificate.

This engine is the independent check for the group-theoretic claims the rest
of the package makes, so it deliberately shares no code with the induced-map
constructions.  Its own oracle, an exhaustive factorial-time counter, lives
with the tests (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

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

# The search needs no call stack, but its time grows steeply on highly
# symmetric graphs: the empty graph takes 0.05 s at 40 vertices, 0.24 s at 60
# and 1.1 s at 90, and H(60, 1) (120 vertices) 1.1 s (2-core x86_64, Python
# 3.11).  The group's order does not limit the engine, since the base-path
# certificate proves it without enumeration; search time does.
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


def _individualize(
    adjacency: Sequence[int], cells: list[tuple[int, ...]], target: int, u: int
) -> list[tuple[int, ...]]:
    """The refined partition after splitting ``u`` off the front of the target cell."""
    rest = tuple(w for w in cells[target] if w != u)
    return _refine(adjacency, cells[:target] + [(u,), rest] + cells[target + 1:])


def _children(
    adjacency: Sequence[int], cells: list[tuple[int, ...]], target: int
) -> Iterator[list[tuple[int, ...]]]:
    """The children of a tree node, one per vertex of its target cell, in cell order."""
    for u in cells[target]:
        yield _individualize(adjacency, cells, target, u)


def _first_automorphism(
    adjacency: Sequence[int],
    edges: list[tuple[int, int]],
    base_leaf: list[int],
    shapes: Sequence[tuple[int, ...]],
    start: list[tuple[int, ...]],
) -> Optional[tuple[int, ...]]:
    """The first automorphism from the base leaf to a leaf below ``start``, depth-first.

    The stack holds the unvisited children of every node on the current path.
    ``shapes[d]`` is the cell-size tuple of the base path's node at the depth
    of ``start`` plus d; a node of another shape is dropped with its subtree.
    Refinement commutes with automorphisms, so the leaf gamma(base leaf) is
    reached only through the images under gamma of the base path's nodes,
    which have the base shapes: no accepting leaf is cut, and the first one
    found is the same.
    """
    stack: list[Iterator[list[tuple[int, ...]]]] = [iter([start])]
    while stack:
        cells = next(stack[-1], None)
        if cells is None:
            stack.pop()
            continue
        if tuple(map(len, cells)) != shapes[len(stack) - 1]:
            continue
        target = _target_cell(cells)
        if target is not None:
            stack.append(_children(adjacency, cells, target))
            continue
        images = [0] * len(base_leaf)
        for a, cell in zip(base_leaf, cells):
            images[a] = cell[0]
        for u, v in edges:
            if not adjacency[images[u]] >> images[v] & 1:
                break
        else:
            return tuple(images)
    return None


def _search(
    graph: Graph, initial_cells: list[tuple[int, ...]]
) -> tuple[list[tuple[int, ...]], list[int], list[int]]:
    """Generators of the automorphisms of ``graph`` that respect ``initial_cells``.

    Also returns the base path's base points and target-cell sizes, one of
    each per level.
    """
    adjacency = graph.adjacency
    n = graph.vertex_count
    edges = graph.edges()

    levels = []
    cells = _refine(adjacency, list(initial_cells))
    while (target := _target_cell(cells)) is not None:
        levels.append((cells, target))
        cells = _individualize(adjacency, cells, target, cells[target][0])
    base_leaf = [cell[0] for cell in cells]
    shapes = [tuple(map(len, level)) for level, _ in levels] + [(1,) * n]

    # Every generator found so far fixes the base points above the current
    # level, so all of them are valid for orbit pruning there.
    generators: list[tuple[int, ...]] = []
    for depth in reversed(range(len(levels))):
        cells, target = levels[depth]
        first, *siblings = cells[target]
        processed = [first]
        for u in siblings:
            if generators and any(u in orb for orb in orbit_partition(processed, generators, n)):
                continue
            child = _individualize(adjacency, cells, target, u)
            found = _first_automorphism(adjacency, edges, base_leaf, shapes[depth + 1:], child)
            if found is not None:
                generators.append(found)
            processed.append(u)
    base = [cells[target][0] for cells, target in levels]
    return generators, base, [len(cells[target]) for cells, target in levels]


def _lower_bound(generators: Sequence[tuple[int, ...]], base: Sequence[int], n: int) -> int:
    """The product over i of |b_i^<S_i>|, S_i the generators fixing b_1..b_{i-1}."""
    bound = 1
    for i, b in enumerate(base):
        fixing = [g for g in generators if all(g[a] == a for a in base[:i])]
        bound *= len(orbit_partition([b], fixing, n)[0])
    return bound


def automorphism_group(graph: Graph, order_cap: int = DEFAULT_ORDER_CAP) -> PermutationGroup:
    """Generators and exact order of Aut(G).

    Graphs above ``SIZE_LIMIT`` vertices are refused; every emitted generator
    is re-verified against the adjacency.  The order is the base-path
    certificate's when its bounds meet, and the group is then enumerated
    only when its elements are read, under ``order_cap``; otherwise the
    group is enumerated here, under ``order_cap``.
    """
    n = graph.vertex_count
    if n > SIZE_LIMIT:
        raise SizeLimitError(f"{n} vertices exceeds the engine limit of {SIZE_LIMIT}")
    gen_images, base, sizes = _search(graph, [tuple(range(n))])
    for images in gen_images:
        if not is_graph_automorphism(graph, images):
            raise StructureError("engine emitted a non-automorphism; this is a bug")
    lower, upper = _lower_bound(gen_images, base, n), math.prod(sizes)
    if lower > upper:
        raise StructureError(
            f"the base path bounds |Aut| by {upper}, but the generators give at least {lower}; "
            "this is a bug"
        )
    if lower == upper:
        return PermutationGroup(tuple(gen_images), n, order=upper, order_cap=order_cap)
    elements = closure_images(gen_images, n, order_cap)
    return PermutationGroup(tuple(gen_images), n, elements=elements)


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
