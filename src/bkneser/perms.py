"""Permutations of [n], induced vertex maps, and small permutation groups.

Every map is its image tuple: ``images[v]`` is the image of point v.  A
permutation theta of [n] is a tuple over 0..n-1 in which position i stands
for element i+1, that is, for bit i of a subset mask; a vertex map is a tuple
over 0..V-1.  Maps enter through ``PermutationGroup`` (its generators),
``induced_automorphism`` (theta) or ``is_graph_automorphism``, which reject
tuples that are not permutations; products and inverses of checked maps are
not checked again.

Groups are handled the blunt way: breadth-first closure under composition,
with a configurable order cap.  Every group this package cares about has
order at most a few times 7!, where exhaustive enumeration is both fast and
independently trustworthy.

Orbits come from one primitive, ``orbit_partition``: a BFS over generator
image tables on integer points.  Vertex, ordered-pair and unordered-pair
orbits are thin encodings over it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from .errors import DomainError, NeedEnumerationError, OrderCapExceeded
from .graphs import Graph
from .kneser import KneserGraph

DEFAULT_ORDER_CAP = 100_000


def format_cycles(images: Sequence[int]) -> str:
    """Cycle notation over points 0..len-1, fixed points omitted."""
    n = len(images)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        x = images[start]
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = images[x]
        if len(cycle) > 1:
            parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) if parts else "()"


def is_graph_automorphism(graph: Graph, images: Sequence[int]) -> bool:
    """True iff the vertex map is a bijection that preserves adjacency.

    A bijection of a finite graph that maps edges to edges also maps
    non-edges to non-edges, so one direction suffices.
    """
    if sorted(images) != list(range(graph.vertex_count)):
        return False
    for u, v in graph.edges():
        if not graph.has_edge(images[u], images[v]):
            return False
    return True


def induced_automorphism(kg: KneserGraph, theta: Sequence[int]) -> tuple[int, ...]:
    """The vertex map f_theta sending each subset {x1..xt} to {theta(x1)..theta(xt)}.

    theta is an image tuple over 0..n-1, so it moves bit i of a subset mask
    to bit theta[i].  Each k-side mask is mapped and looked up by rank;
    f_theta commutes with complementation, so the (n-k)-side follows as
    f(i + C(n,k)) = f(i) + C(n,k).  Adjacency preservation is verified
    eagerly; a failure would mean a construction bug, not a property of theta.
    """
    n, side = kg.n, kg.side_size
    if sorted(theta) != list(range(n)):
        raise DomainError(f"{tuple(theta)} is not a permutation of 0..{n - 1}; "
                          f"it cannot act on H({n},{kg.k})")
    masks = [kg.subset_of_vertex(i).bits for i in range(side)]
    rank = {mask: i for i, mask in enumerate(masks)}
    half = []
    for mask in masks:
        image = 0
        while mask:
            low = mask & -mask
            image |= 1 << theta[low.bit_length() - 1]
            mask ^= low
        half.append(rank[image])
    images = tuple(half + [i + side for i in half])
    if not is_graph_automorphism(kg.graph, images):
        raise DomainError(f"induced map of {format_cycles(theta)} is not an automorphism")
    return images


def complement_automorphism(kg: KneserGraph) -> tuple[int, ...]:
    """The complementation involution: the index shift i <-> i + C(n, k)."""
    side = kg.side_size
    images = tuple((i + side) % (2 * side) for i in range(2 * side))
    if kg.n != 2 * kg.k and not is_graph_automorphism(kg.graph, images):
        raise DomainError("complementation failed the adjacency check")
    return images


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p after q): v -> p[q[v]]."""
    if len(p) != len(q):
        raise DomainError("cannot compose permutations of different degrees")
    return tuple(p[x] for x in q)


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    images = [0] * len(p)
    for v, w in enumerate(p):
        images[w] = v
    return tuple(images)


def element_order(p: tuple[int, ...]) -> int:
    """The lcm of the cycle lengths."""
    seen = bytearray(len(p))
    order = 1
    for start in range(len(p)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            x = p[x]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


def commutes(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    if len(p) != len(q):
        raise DomainError("cannot compare permutations of different degrees")
    return all(p[q[x]] == q[p[x]] for x in range(len(p)))


@dataclass(frozen=True)
class PermutationGroup:
    """Generators plus (optionally) the full element set of a vertex group.

    Every element is an image tuple of length ``degree``; the generators are
    checked to be permutations of 0..degree-1 here, once, so the orbit
    functions see a group.  ``elements``, when present, is sorted, so membership and
    equality of enumerated groups compare plain tuples.
    """

    generators: tuple[tuple[int, ...], ...]
    degree: int
    elements: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self) -> None:
        points = list(range(self.degree))
        if any(sorted(g) != points for g in self.generators):
            raise DomainError(f"a generator is not a permutation of 0..{self.degree - 1}")

    @property
    def order(self) -> int:
        if self.elements is None:
            raise NeedEnumerationError("group has not been enumerated; use group_closure")
        return len(self.elements)

    @property
    def is_enumerated(self) -> bool:
        return self.elements is not None


def closure_images(
    generator_images: Sequence[tuple[int, ...]],
    degree: int,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> set[tuple[int, ...]]:
    """BFS closure of image tuples under composition; raises past order_cap."""
    ident = tuple(range(degree))
    elements = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generator_images:
                q = tuple(g[x] for x in p)
                if q not in elements:
                    if len(elements) >= order_cap:
                        raise OrderCapExceeded(
                            f"group closure exceeded the cap of {order_cap} elements"
                        )
                    elements.add(q)
                    nxt.append(q)
        frontier = nxt
    return elements


def group_closure(
    generators: Iterable[tuple[int, ...]],
    order_cap: int = DEFAULT_ORDER_CAP,
    degree: Optional[int] = None,
) -> PermutationGroup:
    """Fully enumerate the group generated by the given vertex permutations."""
    gens = tuple(generators)
    if gens:
        degree = len(gens[0])
    elif degree is None:
        raise DomainError("empty generator list needs an explicit degree")
    group = PermutationGroup(generators=gens, degree=degree)  # checks the generators
    elements = closure_images(gens, degree, order_cap)
    return replace(group, elements=tuple(sorted(elements)))


def orbit_partition(
    points: Iterable[int],
    tables: Sequence[Sequence[int]],
    size: int,
) -> list[tuple[int, ...]]:
    """Orbits through ``points`` of the group generated by ``tables``.

    Points are ints in 0..size-1 and each generator is an image table, g[x].
    Each orbit is a sorted tuple, and the orbits are ordered by least point.
    When ``points`` is not a union of orbits, an orbit may include points
    outside it.
    """
    seen = bytearray(size)
    out = []
    for start in points:
        if seen[start]:
            continue
        seen[start] = 1
        members = [start]
        for x in members:  # the list is the BFS queue: appends are visited too
            for g in tables:
                y = g[x]
                if not seen[y]:
                    seen[y] = 1
                    members.append(y)
        members.sort()
        out.append(tuple(members))
    out.sort()
    return out


def orbit(group: PermutationGroup, point: int) -> tuple[int, ...]:
    """Orbit of a vertex under the generated group."""
    return orbit_partition([point], group.generators, group.degree)[0]


def orbits_on_vertices(group: PermutationGroup) -> list[tuple[int, ...]]:
    return orbit_partition(range(group.degree), group.generators, group.degree)


def _pair_tables(group: PermutationGroup) -> list[array]:
    """Each generator lifted to the diagonal action on pairs, (u, v) as u*V+v."""
    n = group.degree
    tables = []
    for g in group.generators:
        table = array("l")
        for gu in g:
            base = gu * n
            table.extend([base + gv for gv in g])
        tables.append(table)
    return tables


def _pair_decoder(n: int) -> list[tuple[int, int]]:
    """The pair (u, v) at index u*n+v: one tuple per pair, shared by all orbits."""
    return [(u, v) for u in range(n) for v in range(n)]


def orbits_on_ordered_pairs(
    group: PermutationGroup,
    pairs: Optional[Iterable[tuple[int, int]]] = None,
) -> list[tuple[tuple[int, int], ...]]:
    """Orbit partition of ordered pairs under the diagonal action g.(u,v) = (gu, gv).

    ``pairs`` defaults to all ordered pairs including the diagonal; pass the
    arc list to get arc orbits.
    """
    n = group.degree
    points = range(n * n) if pairs is None else [u * n + v for u, v in pairs]
    decode = _pair_decoder(n)
    return [
        tuple(decode[x] for x in orb)
        for orb in orbit_partition(points, _pair_tables(group), n * n)
    ]


def orbits_on_unordered_pairs(
    group: PermutationGroup,
    pairs: Iterable[tuple[int, int]],
) -> list[tuple[tuple[int, int], ...]]:
    """Orbit partition of unordered pairs, stored as (min, max).

    Ordered-pair orbits under the group with the transpose (u, v) -> (v, u)
    adjoined hold both orientations of each pair; (min, max) keeps one.
    """
    n = group.degree
    transpose = array("l", [v * n + u for u in range(n) for v in range(n)])
    points = [u * n + v for u, v in pairs]
    decode = _pair_decoder(n)
    return [
        tuple(decode[x] for x in orb if x // n <= x % n)
        for orb in orbit_partition(points, _pair_tables(group) + [transpose], n * n)
    ]


def stabilizer(group: PermutationGroup, point: int) -> PermutationGroup:
    """The subgroup of elements fixing ``point``; needs full enumeration."""
    if not group.is_enumerated:
        raise NeedEnumerationError("stabilizer needs a fully enumerated group")
    fixed = tuple(g for g in group.elements if g[point] == point)
    return PermutationGroup(generators=fixed, degree=group.degree, elements=fixed)


def is_regular_action(group: PermutationGroup, vertex_count: int) -> bool:
    """Transitive with |group| = number of points (trivial point stabilizers)."""
    if not group.is_enumerated:
        raise NeedEnumerationError("regularity check needs a fully enumerated group")
    if group.order != vertex_count:
        return False
    return len(orbit(group, 0)) == vertex_count


def sym_generators(kg: KneserGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """f over the canonical Sym([n]) generators (1 2) and (1 2 ... n)."""
    n = kg.n
    swap = (1, 0, *range(2, n))
    cycle = (*range(1, n), 0)
    return induced_automorphism(kg, swap), induced_automorphism(kg, cycle)


def known_generators(kg: KneserGraph) -> tuple[tuple[int, ...], ...]:
    """The standard generator set: f_(1 2), f_(1 2 ... n), and complementation."""
    f_swap, f_cycle = sym_generators(kg)
    return (f_swap, f_cycle, complement_automorphism(kg))
