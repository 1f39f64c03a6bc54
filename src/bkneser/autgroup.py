"""Automorphism groups of graphs, computed from scratch.

The engine is a classical individualization-refinement search: refine an
ordered partition until equitable, individualize a vertex of the first
largest non-singleton cell, and refine again, until the partition is
discrete.  The search is two loops and uses no recursion.  The first walks
the leftmost path once, individualizing the least vertex of each target cell
and recording each level; its discrete partition is the base leaf, the
reference labeling.  The second visits the recorded levels deepest first.  At
each level it skips a sibling in the orbit of the siblings already processed
(orbit pruning, through a point-to-orbit table rebuilt once per new
generator), and searches each remaining sibling's subtree depth-first,
with an explicit stack, for the first leaf whose labeling preserves
adjacency; a node whose cell sizes differ from those of the base path's node
at the same depth cannot lead to such a leaf, and is dropped with its
subtree.  That one automorphism is enough: everything else the subtree
contains is a product of it with stabilizer elements found earlier.

Refinement runs a splitter queue (McKay, "Practical graph isomorphism",
Congr. Numer. 30, 1981) over one array of vertices in contiguous cells.
Popping a splitter cell counts each vertex's neighbours in it and splits
only the cells it touches, in partition order, into fragments by ascending
count, each keeping its vertices' order.  All fragments of a queued cell are
queued; of any other cell, all but the first largest (Hopcroft's trick: its
counts are the cell's, constant, minus the others').  Individualizing u
queues only {u}, as the parent partition is equitable.  Every choice depends
only on positions in the ordered partition and on neighbour counts, so
relabelling the graph and the input relabels the output cell by cell: in
particular, refinement commutes with automorphisms.

The order of the group comes from the base path, read as a certificate (the
order formula of McKay and Piperno, "Practical graph isomorphism II", J.
Symbolic Comput. 60, 2014).  Let b_1..b_m be the base points, the least
vertex of each target cell T_i on the leftmost path.  Individualization,
whose target cell is chosen by size and position, commutes with
automorphisms as refinement does.  So an automorphism fixing b_1..b_{i-1}
fixes the path's partition at level i, maps b_i into T_i, and the
automorphisms fixing every base point fix the discrete leaf and are the
identity.  By the orbit-stabilizer theorem down the chain of pointwise
stabilizers, |Aut| <= prod |T_i|.  For the lower bound let S_i be the
generators that fix b_1..b_{i-1}, checked point by point: each is a
verified automorphism, and the product of the orbit lengths of b_i under
<S_i> is at most |<generators>| <= |Aut|.  When the bounds meet, the order
is proved, and the generators generate all of Aut.  A lower bound above the
upper one is a bug and raises.  When the bounds do not meet (on a union of
cycles of different lengths, refinement cannot tell the cycles apart and
T_i is too large), the group is enumerated by ``closure_images`` under the
order cap, which is also the oracle for the certificate.

The search is bounded by work, not by graph size: each node refined costs
V + E units, and a search past ``WORK_LIMIT`` units raises
``SizeLimitError``.

This engine is the independent check for the group-theoretic claims the rest
of the package makes, so it deliberately shares no code with the induced-map
constructions.  Its own oracles, an exhaustive factorial-time counter and
the earlier full-round refinement, live with the tests (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial
from itertools import accumulate, groupby
from typing import Iterable, Iterator, Optional, Sequence

from .errors import SizeLimitError, StructureError
from .graphs import Graph
from .perms import (
    DEFAULT_ORDER_CAP,
    PermutationGroup,
    check_generators,
    closure_images,
    orbit_partition,
)

# A unit takes 0.5 to 1.5 us (2-core x86_64, Python 3.11), so a search stops
# within seconds.  H(13,6) takes 0.5 M units (0.8 s), H(14,6) 4.2 M (3.2 s),
# and the empty graph about V^3 / 2, stopping at 300 vertices after 2.8 s.
WORK_LIMIT = 6_000_000


def refine(
    graph: Graph, cells: Sequence[Sequence[int]], splitters: Optional[Iterable[int]] = None
) -> list[tuple[int, ...]]:
    """The coarsest equitable refinement of the ordered partition ``cells``.

    ``splitters`` lists the indices of the cells to queue first, all of them
    by default; the partition must be equitable with respect to every other
    cell.  A split cell keeps its vertices in their order, in fragments by
    ascending neighbour count.
    """
    neighbours = graph.neighbours
    order = [v for cell in cells for v in cell]
    starts = list(accumulate(map(len, cells), initial=0))[:-1]
    cell_of = [0] * len(order)  # the start of each vertex's cell in ``order``
    length = [0] * len(order)  # each cell's length at its start, 0 elsewhere
    for start, cell in zip(starts, cells):
        length[start] = len(cell)
        for v in cell:
            cell_of[v] = start
    queue = deque(starts if splitters is None else [starts[i] for i in splitters])
    queued = set(queue)
    while queue:
        s = queue.popleft()
        queued.remove(s)
        count: dict[int, int] = {}  # vertex -> its neighbours in the splitter, if any
        for v in order[s:s + length[s]]:
            for w in neighbours[v]:
                count[w] = count.get(w, 0) + 1
        hits: dict[int, list[int]] = {}  # non-singleton cell start -> the nonzero counts in it
        for w, k in count.items():
            if length[cell_of[w]] > 1:
                hits.setdefault(cell_of[w], []).append(k)
        for c in sorted(hits):
            size, keys = length[c], hits[c]
            if len(keys) == size and min(keys) == max(keys):
                continue
            members = order[c:c + size]
            order[c:c + size] = [v for v in members if v not in count] + sorted(
                [v for v in members if v in count], key=count.__getitem__
            )
            keys.sort()
            sizes = [len(list(run)) for _, run in groupby(keys)]
            if len(keys) < size:
                sizes.insert(0, size - len(keys))
            fragments = list(accumulate(sizes[:-1], initial=c))
            for pos, f in zip(fragments, sizes):
                length[pos] = f
            for pos, f in zip(fragments[1:], sizes[1:]):  # the first keeps the start c
                for v in order[pos:pos + f]:
                    cell_of[v] = pos
            if c not in queued:
                # Hopcroft: c is not queued, so counts into all of c are constant
                # on every cell once the queue empties; counts into one fragment
                # then follow from those into the others
                fragments.remove(max(fragments, key=length.__getitem__))
            for f in fragments:
                if f not in queued:
                    queued.add(f)
                    queue.append(f)
    return [tuple(order[s:s + size]) for s, size in enumerate(length) if size]


def _target_cell(sizes: tuple[int, ...]) -> Optional[int]:
    """Index of the first largest non-singleton cell from its sizes, or None when discrete."""
    largest = max(sizes)
    return sizes.index(largest) if largest > 1 else None


def _search(
    graph: Graph, initial_cells: list[tuple[int, ...]]
) -> tuple[list[tuple[int, ...]], list[int], list[int]]:
    """Generators of the automorphisms of ``graph`` that respect ``initial_cells``.

    Also returns the base path's base points and target-cell sizes, one of
    each per level, or raises ``SizeLimitError`` past ``WORK_LIMIT``.
    """
    n = graph.vertex_count
    neighbours = graph.neighbours
    edges = graph.edges()
    work = size = n + len(edges)

    def child(cells: list[tuple[int, ...]], target: int, u: int) -> list[tuple[int, ...]]:
        # u split off the front of the target cell; cells is equitable, so {u} is the splitter
        nonlocal work
        work += size
        if work > WORK_LIMIT:
            raise SizeLimitError(
                f"the automorphism search on {n} vertices and {len(edges)} edges "
                f"exceeds the work limit of {WORK_LIMIT}"
            )
        rest = tuple(w for w in cells[target] if w != u)
        return refine(graph, cells[:target] + [(u,), rest] + cells[target + 1:], [target])

    levels = []
    cells = refine(graph, initial_cells)
    while (target := _target_cell(tuple(map(len, cells)))) is not None:
        levels.append((cells, target))
        cells = child(cells, target, cells[target][0])
    base_leaf = [cell[0] for cell in cells]
    shapes = [tuple(map(len, level)) for level, _ in levels] + [(1,) * n]

    def first_automorphism(depth: int, start: list[tuple[int, ...]]) -> Optional[tuple[int, ...]]:
        # The first leaf below ``start``, a node at ``depth``, whose labeling
        # maps the base leaf to an automorphism, depth-first.  The stack holds
        # the unvisited children of every node on the current path.  A node
        # whose cell sizes differ from ``shapes`` at its depth is dropped with
        # its subtree: refinement commutes with automorphisms, so the leaf
        # gamma(base leaf) is reached only through the images under gamma of
        # the base path's nodes, which have the base shapes.  No accepting
        # leaf is cut, and the first one found is the same.
        stack: list[Iterator[list[tuple[int, ...]]]] = [iter([start])]
        while stack:
            cells = next(stack[-1], None)
            if cells is None:
                stack.pop()
                continue
            sizes = tuple(map(len, cells))
            if sizes != shapes[depth + len(stack) - 1]:
                continue
            target = _target_cell(sizes)
            if target is not None:
                stack.append(map(partial(child, cells, target), cells[target]))
                continue
            images = [0] * n
            for a, cell in zip(base_leaf, cells):
                images[a] = cell[0]
            for u, v in edges:
                if images[v] not in neighbours[images[u]]:
                    break
            else:
                return tuple(images)
        return None

    # Every generator found so far fixes the base points above the current
    # level, so all of them are valid for orbit pruning there.
    generators: list[tuple[int, ...]] = []
    ids = {x: x for x in range(n)}  # each point's orbit index under <generators>
    for depth in reversed(range(len(levels))):
        cells, target = levels[depth]
        first, *siblings = cells[target]
        processed = [first]
        seen = {ids[first]}
        for u in siblings:
            if ids[u] in seen:
                continue
            found = first_automorphism(depth + 1, child(cells, target, u))
            if found is not None:
                generators.append(found)
                orbits = orbit_partition(range(n), generators)
                ids = {x: i for i, orb in enumerate(orbits) for x in orb}
                seen = {ids[p] for p in processed}
            processed.append(u)
            seen.add(ids[u])
    base = [cells[target][0] for cells, target in levels]
    return generators, base, [len(cells[target]) for cells, target in levels]


def _lower_bound(generators: Sequence[tuple[int, ...]], base: Sequence[int]) -> int:
    """The product over i of |b_i^<S_i>|, S_i the generators fixing b_1..b_{i-1}."""
    bound = 1
    for i, b in enumerate(base):
        fixing = [g for g in generators if all(g[a] == a for a in base[:i])]
        bound *= len(orbit_partition([b], fixing)[0])
    return bound


def automorphism_group(graph: Graph, order_cap: int = DEFAULT_ORDER_CAP) -> PermutationGroup:
    """Generators and exact order of Aut(G).

    A search past ``WORK_LIMIT`` raises ``SizeLimitError``; the emitted
    generators are re-checked by ``check_generators``.  The order is the base-path
    certificate's when its bounds meet, and the group then carries that
    order and no elements; otherwise the group is enumerated here, under
    ``order_cap``, the only use of the cap.
    """
    n = graph.vertex_count
    gen_images, base, sizes = _search(graph, [tuple(range(n))])
    check_generators(graph, gen_images)
    lower, upper = _lower_bound(gen_images, base), math.prod(sizes)
    if lower > upper:
        raise StructureError(
            f"the base path bounds |Aut| by {upper}, but the generators give at least {lower}; "
            "this is a bug"
        )
    if lower == upper:
        return PermutationGroup(tuple(gen_images), n, order=upper)
    elements = closure_images(gen_images, n, order_cap)
    return PermutationGroup(tuple(gen_images), n, elements=elements)
