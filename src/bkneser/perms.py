"""Permutations of [n], induced vertex maps, and small permutation groups.

A vertex map is its image tuple: ``images[v]`` is the image of vertex v.
Maps enter through ``is_graph_automorphism`` or ``group_closure``, which
reject tuples that are not permutations of 0..V-1; products and inverses of
checked maps are not checked again.

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
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DomainError, NeedEnumerationError, OrderCapExceeded
from .graphs import Graph
from .kneser import KneserGraph

DEFAULT_ORDER_CAP = 100_000


def format_cycles(images: Sequence[int], offset: int = 0) -> str:
    """Cycle notation over points offset..offset+len-1, fixed points omitted."""
    n = len(images)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        x = images[start] - offset
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = images[x] - offset
        if len(cycle) > 1:
            parts.append("(" + " ".join(str(c + offset) for c in cycle) + ")")
    return "".join(parts) if parts else "()"


@dataclass(frozen=True)
class Permutation:
    """A bijection of [n] = {1..n}; images[i-1] = theta(i)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise DomainError(f"not a permutation of [{n}]: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        images = list(range(1, n + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(tuple(images))

    @classmethod
    def from_cycle(cls, n: int, cycle: Sequence[int]) -> "Permutation":
        """The permutation that is the given cycle, fixing everything else."""
        images = list(range(1, n + 1))
        for i, x in enumerate(cycle):
            images[x - 1] = cycle[(i + 1) % len(cycle)]
        return cls(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __str__(self) -> str:
        return format_cycles(self.images, offset=1)


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


def induced_automorphism(kg: KneserGraph, theta: Permutation) -> tuple[int, ...]:
    """The vertex map f_theta sending each subset {x1..xt} to {theta(x1)..theta(xt)}.

    Adjacency preservation is verified eagerly; a failure would mean a
    construction bug, not a property of theta.
    """
    if theta.n != kg.n:
        raise DomainError(f"permutation of [{theta.n}] cannot act on H({kg.n},{kg.k})")
    images = []
    for index in range(kg.vertex_count):
        s = kg.subset_of_vertex(index)
        mapped = type(s).from_elements(kg.n, (theta(x) for x in s.elements()))
        images.append(kg.vertex_of_subset(mapped))
    if not is_graph_automorphism(kg.graph, images):
        raise DomainError(f"induced map of {theta} is not an automorphism")
    return tuple(images)


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

    Every element is an image tuple of length ``degree``; ``elements``, when
    present, is sorted, so membership and equality of enumerated groups
    compare plain tuples.
    """

    generators: tuple[tuple[int, ...], ...]
    degree: int
    elements: Optional[tuple[tuple[int, ...], ...]] = None

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
    points = list(range(degree))
    if any(sorted(g) != points for g in gens):
        raise DomainError(f"a generator is not a permutation of 0..{degree - 1}")
    elements = closure_images(gens, degree, order_cap)
    return PermutationGroup(generators=gens, degree=degree, elements=tuple(sorted(elements)))


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
    swap = Permutation.transposition(n, 1, 2)
    cycle = Permutation.from_cycle(n, tuple(range(1, n + 1)))
    return induced_automorphism(kg, swap), induced_automorphism(kg, cycle)


def known_generators(kg: KneserGraph) -> tuple[tuple[int, ...], ...]:
    """The standard generator set: f_(1 2), f_(1 2 ... n), and complementation."""
    f_swap, f_cycle = sym_generators(kg)
    return (f_swap, f_cycle, complement_automorphism(kg))
