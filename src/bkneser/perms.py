"""Permutations of [n], induced vertex maps, and small permutation groups.

Every map is its image tuple: ``images[v]`` is the image of point v.  A
permutation theta of [n] is a tuple over 0..n-1 in which position i stands
for element i+1, that is, for bit i of a subset mask; a vertex map is a tuple
over 0..V-1.  Maps enter through ``PermutationGroup`` (its generators),
``induced_automorphism`` (theta) or ``is_isomorphism``, which reject tuples
that are not permutations and raise ``DomainError`` on an image that is not
an int; ``format_cycles``, ``element_order`` and ``is_semiregular`` raise
``DomainError`` on a map that is not a permutation.  Products and inverses
of checked maps are not checked again.
``is_isomorphism`` is the one check that a vertex map carries one graph onto
another: ``is_graph_automorphism`` is its case g1 = g2, and the H(n,1)
Cayley map and the engine's isomorphism witnesses go through it too.

A vertex map is checked against the adjacency once, by the code whose result
depends on it being an automorphism, not by the code that builds it.
``induced_automorphism`` and ``complement_automorphism`` build f_theta and
complementation without a check.  Their consumers (the transitivity report,
the orbit diameter, the direct product and ``aut``'s closure) run
``check_generators``, which raises ``StructureError``: a map that fails there
is a wrong construction or a wrong group, so the claim resting on it fails.
``vertex_connectivity`` checks its stabilizer maps itself.

A group holds its generators and, when known, its order or its elements.
An enumerated group comes from a closure under composition, built coset by
coset with an order cap, and is a ``frozenset`` of ``bytes`` image strings,
``bytes(images)``, from the closure to its consumers: the product g∘p is
``p.translate(t_g)``, one C call per product, with ``t_g`` the image string
of g padded to the 256-byte table ``translate`` takes.  So an enumerated
group has at most 256 points; a larger degree raises ``SizeLimitError``
before any work.  The closure is Dimino's method (Butler, *Fundamental
Algorithms for Permutation Groups*, LNCS 559, 1991): each generator that is
not yet an element adds whole left cosets r∘H of the group H closed so far,
so each element costs one ``translate``, and the set is asked only whether
each coset representative is new.  Hashing of ``bytes`` differs from
process to process, so a loop over an element set sorts it first.  Image
strings of one length sort as the tuples of their bytes do, so the identity
comes first.  A group whose order was proved without enumeration, as
``autgroup.automorphism_group`` proves it, carries that order and no
elements; a consumer that needs them calls ``group_closure`` under its own
cap.

Orbits come from one primitive, ``orbit_partition``: a BFS over generator
image tables on integer points.  Vertex, ordered-pair and unordered-pair
orbits are thin encodings over it.  A pair (u, v) of an n-point group is the
point u*n+v; each generator, and the transpose (u, v) -> (v, u), acts on it
through an indexable object that computes each image from two n-entry lists
when it is read, and output pairs decode with ``divmod``, so no n^2 image or
decode table is built, and the BFS keeps its visited points in a set: memory
grows with the pairs in the orbits walked, not with n^2.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DomainError,
    NeedEnumerationError,
    OrderCapExceeded,
    SizeLimitError,
    StructureError,
    as_int,
)
from .graphs import Graph, _check_vertex
from .kneser import KneserGraph

DEFAULT_ORDER_CAP = 100_000


def _not_a_permutation(n: int) -> DomainError:
    return DomainError(f"the map is not a permutation of 0..{n - 1}")


def format_cycles(images: Sequence[int]) -> str:
    """Cycle notation over points 0..len-1, fixed points omitted.

    A map that is not a permutation of 0..len-1 raises ``DomainError``.
    """
    n = len(images)
    if not _is_permutation(images, n):
        raise _not_a_permutation(n)
    seen = bytearray(n)
    parts = []
    for start in range(n):
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = 1
            cycle.append(x)
            x = images[x]
        if len(cycle) > 1:
            parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) if parts else "()"


def is_isomorphism(g1: Graph, g2: Graph, images: Sequence[int]) -> bool:
    """True iff the vertex map is a bijection V(g1) -> V(g2) carrying edges onto edges.

    For a bijection, each u's neighbours mapping exactly onto the neighbours
    of its image means v ~ u iff images[v] ~ images[u], in both directions.
    """
    if g1.vertex_count != g2.vertex_count or not _is_permutation(images, g1.vertex_count):
        return False
    rows = g2.neighbours
    return all(
        tuple(sorted([images[v] for v in row])) == rows[images[u]]
        for u, row in enumerate(g1.neighbours)
    )


def is_graph_automorphism(graph: Graph, images: Sequence[int]) -> bool:
    """True iff the vertex map is a bijection that preserves adjacency."""
    return is_isomorphism(graph, graph, images)


def check_generators(graph: Graph, generators: Iterable[Sequence[int]]) -> None:
    """Raise ``StructureError`` unless every map is an automorphism of the graph.

    A map listed twice is checked once.  A map that fails reveals a bad
    construction or a bad group rather than a wrong answer.
    """
    for g in dict.fromkeys(map(tuple, generators)):
        if not is_graph_automorphism(graph, g):
            raise StructureError("a generator of the group is not an automorphism")


def induced_automorphism(kg: KneserGraph, theta: Sequence[int]) -> tuple[int, ...]:
    """The vertex map f_theta sending each subset {x1..xt} to {theta(x1)..theta(xt)}.

    theta is an image tuple over 0..n-1, so it moves bit i of a subset mask
    to bit theta[i].  Each k-side mask is mapped and looked up by rank;
    f_theta commutes with complementation, so the (n-k)-side follows as
    f(i + C(n,k)) = f(i) + C(n,k).  A theta that is not a permutation of
    0..n-1 raises ``DomainError``; the map is not checked against the
    adjacency here, but by ``check_generators`` where a result rests on it.
    """
    n, side = kg.n, kg.side_size
    if not _is_permutation(theta, n):
        raise DomainError(f"{tuple(theta)} is not a permutation of 0..{n - 1}; "
                          f"it cannot act on H({n},{kg.k})")
    masks = kg.masks[:side]
    rank = {mask: i for i, mask in enumerate(masks)}
    half = []
    for mask in masks:
        image = 0
        while mask:
            low = mask & -mask
            image |= 1 << theta[low.bit_length() - 1]
            mask ^= low
        half.append(rank[image])
    return tuple(half + [i + side for i in half])


def complement_automorphism(kg: KneserGraph) -> tuple[int, ...]:
    """The complementation involution: the index shift i <-> i + C(n, k).

    Not checked against the adjacency here; see ``check_generators``.
    """
    side = kg.side_size
    return tuple((i + side) % (2 * side) for i in range(2 * side))


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


def _cycle_lengths(p: Sequence[int]) -> Iterator[int]:
    """The length of each cycle of p, fixed points included, by least point.

    A walk that leaves 0..len-1 or ends off its start raises ``DomainError``.
    """
    n = len(p)
    seen = bytearray(n)
    try:
        if min(p, default=0) < 0:  # a negative image would index ``seen`` from its end
            raise _not_a_permutation(n)
        for start in range(n):
            length = 0
            x = start
            while not seen[x]:
                seen[x] = 1
                x = p[x]
                length += 1
            if x != start:
                raise _not_a_permutation(n)
            if length:
                yield length
    except (IndexError, TypeError):
        raise _not_a_permutation(n) from None


def element_order(p: tuple[int, ...]) -> int:
    """The lcm of the cycle lengths."""
    return math.lcm(*_cycle_lengths(p))


def is_semiregular(p: Sequence[int]) -> bool:
    """True iff every cycle of p has the same length.

    Then each power of p is the identity or moves every point, so ``<p>``
    acts with trivial point stabilizers.  The identity is semiregular.
    """
    return len(set(_cycle_lengths(p))) <= 1


def commutes(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    return compose(p, q) == compose(q, p)


def _check_degree(degree: int) -> int:
    """The degree as a non-negative int, or ``DomainError``."""
    degree = as_int(degree, "degree")
    if degree < 0:
        raise DomainError(f"degree must be non-negative, got {degree}")
    return degree


def _is_permutation(images: Sequence[int], degree: int) -> bool:
    """True iff the images are 0..degree-1; a non-int image, even 1.0, raises ``DomainError``."""
    try:
        ordered = sorted(map(operator.index, images))
    except TypeError:
        ordered = sorted(as_int(x, "an image") for x in images)  # raises at the first non-int
    return ordered == list(range(degree))


def _image_string(images: Sequence[int]) -> Optional[bytes]:
    """``bytes(images)``, or None for a map that is no image string."""
    try:
        return bytes(tuple(images))  # tuple() first: bytes(5) is five zero bytes
    except (TypeError, ValueError):
        return None


def _check_permutations(maps: Iterable[Sequence[int]], degree: int) -> None:
    if not all(_is_permutation(g, degree) for g in maps):
        raise DomainError(f"a generator is not a permutation of 0..{degree - 1}")


class PermutationGroup:
    """Generators of a vertex group, plus its element set or its proved order.

    Each generator is an image tuple of length ``degree``, checked here, once,
    to be a permutation of 0..degree-1, so the orbit functions see a group.
    ``elements``, when present, is the ``frozenset`` of every element's image
    string, ``bytes(images)``; ``images in group`` asks whether a map is an
    element, and equal enumerated groups have equal ``elements``.

    The group is a plain value: reading ``order``, ``elements`` or ``in``
    never runs a closure.  A group built with ``order`` alone (an order
    proved without enumeration) has no elements, and one built from
    generators alone has neither: ``group_closure`` enumerates either, under
    its caller's cap.  ``in`` needs the elements and ``order`` needs one of
    the two; without it each raises ``NeedEnumerationError``.
    """

    __slots__ = ("generators", "degree", "elements", "_order")

    def __init__(
        self,
        generators: Sequence[Sequence[int]],
        degree: int,
        elements: Optional[frozenset[bytes]] = None,
        order: Optional[int] = None,
    ) -> None:
        self.generators = tuple(generators)
        self.degree = _check_degree(degree)
        _check_permutations(self.generators, self.degree)
        self.elements = elements
        self._order = order

    def _enumerated(self) -> frozenset[bytes]:
        if self.elements is None:
            raise NeedEnumerationError("group has not been enumerated; use group_closure")
        return self.elements

    @property
    def order(self) -> int:
        if self._order is not None:
            return self._order
        return len(self._enumerated())

    def __contains__(self, images: Sequence[int]) -> bool:
        """True iff the map is an element; a map that is no image string is not one."""
        return _image_string(images) in self._enumerated()


def _cap_exceeded(order_cap: int) -> OrderCapExceeded:
    return OrderCapExceeded(f"group closure exceeded the cap of {order_cap} elements")


def closure_images(
    generator_images: Sequence[Sequence[int]],
    degree: int,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> frozenset[bytes]:
    """The group generated by the given image tuples, as a frozenset of image strings.

    Dimino's coset enumeration.  The closure starts from the cyclic group
    of the generator of largest order, the first such; the powers of every
    generator are walked to find it.  Each other generator, in the given
    order, that is not already an element extends the group H closed so far
    to G = <H, g>, a union of left cosets r∘H.  The representatives start
    from the identity, and each one r gives the candidates s∘r for every
    generator s taken so far; a candidate outside the elements is a new
    representative, and its coset {r∘h : h in H} is added whole.  The cosets
    found are closed under left multiplication by every generator of G, so
    their union is G.

    ``OrderCapExceeded`` is raised when a power or a coset would take the
    group past ``order_cap`` elements, which happens exactly when the group
    is larger than the cap.  A degree above 256 raises ``SizeLimitError``
    before any work, and a generator that is not a permutation of
    0..degree-1 raises ``DomainError``.
    """
    degree = _check_degree(degree)
    if degree > 256:  # an image string holds one byte per point
        raise SizeLimitError(
            f"degree {degree} exceeds the limit of 256 points for an enumerated group"
        )
    _check_permutations(generator_images, degree)
    pad = bytes(256 - degree)
    ident = bytes(range(degree))
    gens = list(map(bytes, generator_images))
    elements, tables = [ident], []
    for g in gens:
        table = g + pad
        powers = [ident]
        p = g
        while p != ident:
            if len(powers) >= order_cap:
                raise _cap_exceeded(order_cap)
            powers.append(p)
            p = p.translate(table)
        if len(powers) > len(elements):
            elements, tables = powers, [table]
    members = set(elements)
    for g in gens:
        if g in members:
            continue
        tables.append(g + pad)
        subgroup = elements[:]
        reps = [ident]
        for r in reps:  # the list is the queue: appended representatives are visited too
            for t in tables:
                q = r.translate(t)
                if q not in members:
                    if len(elements) + len(subgroup) > order_cap:
                        raise _cap_exceeded(order_cap)
                    table = q + pad
                    coset = [h.translate(table) for h in subgroup]
                    members.update(coset)
                    elements += coset
                    reps.append(q)
    del members  # freed before the frozenset is built, so the two never coexist
    return frozenset(elements)


def group_closure(
    generators: Iterable[tuple[int, ...]],
    order_cap: int = DEFAULT_ORDER_CAP,
    degree: Optional[int] = None,
) -> PermutationGroup:
    """Fully enumerate the group generated by the given vertex permutations.

    ``degree`` defaults to the first generator's length and is required for
    an empty list; a generator that is not a permutation of 0..degree-1
    raises ``DomainError``.
    """
    gens = tuple(generators)
    if degree is None:
        if not gens:
            raise DomainError("empty generator list needs an explicit degree")
        degree = len(gens[0])
    return PermutationGroup(gens, degree, closure_images(gens, degree, order_cap))


def orbit_partition(
    points: Iterable[int],
    tables: Sequence[Sequence[int]],
) -> list[tuple[int, ...]]:
    """Orbits through ``points`` of the group generated by ``tables``.

    Points are ints and each generator is an image table, g[x].  Each orbit
    is a sorted tuple, and the orbits are ordered by least point.  When
    ``points`` is not a union of orbits, an orbit may include points outside
    it.  The visited points are kept in a set, so memory grows with the
    orbits walked, not with the range the points are drawn from.
    """
    seen: set[int] = set()
    out = []
    for start in points:
        if start in seen:
            continue
        seen.add(start)
        members = [start]
        for x in members:  # the list is the BFS queue: appends are visited too
            for g in tables:
                y = g[x]
                if y not in seen:
                    seen.add(y)
                    members.append(y)
        members.sort()
        out.append(tuple(members))
    out.sort()
    return out


def orbit(group: PermutationGroup, point: int) -> tuple[int, ...]:
    """Orbit of a vertex under the generated group."""
    point = _check_vertex(point, group.degree)
    return orbit_partition([point], group.generators)[0]


def orbits_on_vertices(group: PermutationGroup) -> list[tuple[int, ...]]:
    return orbit_partition(range(group.degree), group.generators)


class _OnPairs:
    """A map on pairs encoded as u*n+v, through two n-entry tables: x -> left[u] + right[v].

    The diagonal action (u, v) -> (g[u], g[v]) takes left[u] = g[u]*n and
    right = g; the transpose (u, v) -> (v, u) takes left[u] = u and
    right[v] = v*n.  Each image is computed when it is read, so no n^2 table
    is built.
    """

    __slots__ = ("left", "right", "n")

    def __init__(self, left: Sequence[int], right: Sequence[int]) -> None:
        self.left, self.right, self.n = left, right, len(right)

    @classmethod
    def diagonal(cls, g: Sequence[int]) -> _OnPairs:
        n = len(g)
        return cls([gu * n for gu in g], g)

    def __getitem__(self, x: int) -> int:
        n = self.n
        u = x // n
        return self.left[u] + self.right[x - u * n]


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
    actions = [_OnPairs.diagonal(g) for g in group.generators]
    return [
        tuple(divmod(x, n) for x in orb)
        for orb in orbit_partition(points, actions)
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
    actions = [_OnPairs.diagonal(g) for g in group.generators]
    actions.append(_OnPairs(range(n), [v * n for v in range(n)]))
    points = [u * n + v for u, v in pairs]
    return [
        tuple(divmod(x, n) for x in orb if x // n <= x % n)
        for orb in orbit_partition(points, actions)
    ]


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


def stabilizer_generators(kg: KneserGraph) -> tuple[tuple[int, ...], ...]:
    """Generators of the stabilizer of vertex 0 = {1..k} in Sym([n])'s image.

    f over a transposition and a full cycle on {1..k} and on {k+1..n}; a part
    of one point adds nothing and a part of two adds its transposition once.
    The maps are not checked here: ``vertex_connectivity`` checks each one,
    and ``transitivity_report`` checks its group's generators.
    """
    n, k = kg.n, kg.k
    thetas = {}
    for lo, hi in ((0, k), (k, n)):
        if hi - lo > 1:
            thetas[(*range(lo), lo + 1, lo, *range(lo + 2, n))] = None
            thetas[(*range(lo), *range(lo + 1, hi), lo, *range(hi, n))] = None
    return tuple(induced_automorphism(kg, theta) for theta in thetas)
