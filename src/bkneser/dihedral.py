"""Dihedral group arithmetic, Cayley graphs, and the H(n,1) isomorphism.

Elements of D_2n are kept in the normal form a^i b^s with 0 <= i < n and
s in {0, 1}; multiplication resolves through the relation b a = a^{-1} b.
Cayley graph vertices are ordered a^0 .. a^{n-1}, a^0 b .. a^{n-1} b, which
turns the explicit isomorphism with H(n, 1) into index arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ConnectionSetError, DomainError, IsomorphismError
from .graphs import Graph
from .kneser import KneserGraph, build_bipartite_kneser
from .perms import PermutationGroup, inverse, is_graph_automorphism, is_isomorphism


@dataclass(frozen=True)
class DihedralElement:
    """a^rot b^ref with the exponent reduced mod n by the constructors."""

    rot: int
    ref: int

    def __post_init__(self) -> None:
        if self.ref not in (0, 1):
            raise DomainError(f"reflection bit must be 0 or 1, got {self.ref}")
        if self.rot < 0:
            raise DomainError("rotation exponent must be reduced to 0..n-1")

    def __str__(self) -> str:
        if self.rot == 0 and self.ref == 0:
            return "e"
        parts = []
        if self.rot == 1:
            parts.append("a")
        elif self.rot > 1:
            parts.append(f"a^{self.rot}")
        if self.ref:
            parts.append("b")
        return " ".join(parts)


DIHEDRAL_IDENTITY = DihedralElement(0, 0)


def dihedral_multiply(x: DihedralElement, y: DihedralElement, n: int) -> DihedralElement:
    """(a^i b^s)(a^j b^t) = a^(i + (-1)^s j) b^(s + t)."""
    if n < 3:
        raise DomainError(f"dihedral group needs n >= 3, got {n}")
    rot = (x.rot + (y.rot if x.ref == 0 else -y.rot)) % n
    return DihedralElement(rot, x.ref ^ y.ref)


def dihedral_inverse(x: DihedralElement, n: int) -> DihedralElement:
    if n < 3:
        raise DomainError(f"dihedral group needs n >= 3, got {n}")
    if x.ref:
        return DihedralElement(x.rot % n, 1)  # reflections are involutions
    return DihedralElement(-x.rot % n, 0)


def dihedral_elements(n: int) -> list[DihedralElement]:
    """All of D_2n in vertex order: a^0..a^{n-1}, then a^0 b..a^{n-1} b."""
    return [DihedralElement(i, s) for s in (0, 1) for i in range(n)]


def dihedral_index(x: DihedralElement, n: int) -> int:
    return x.rot % n + n * x.ref


@dataclass(frozen=True)
class ConnectionSet:
    """An identity-free, inverse-closed subset of D_2n."""

    n: int
    elements: frozenset[DihedralElement]

    def __post_init__(self) -> None:
        for x in self.elements:
            if not 0 <= x.rot < self.n:
                raise ConnectionSetError(f"element {x} not reduced mod {self.n}")
            if x == DIHEDRAL_IDENTITY:
                raise ConnectionSetError("connection set contains the identity")
        for x in self.elements:
            if dihedral_inverse(x, self.n) not in self.elements:
                raise ConnectionSetError(f"connection set not closed under inverse of {x}")


def connection_set(n: int, elements: Iterable[DihedralElement]) -> ConnectionSet:
    return ConnectionSet(n, frozenset(elements))


def reflection_connection_set(n: int) -> ConnectionSet:
    """{ab, a^2 b, ..., a^{n-1} b}: every reflection except b itself."""
    return connection_set(n, (DihedralElement(i, 1) for i in range(1, n)))


def build_cayley_graph(n: int, omega: ConnectionSet) -> Graph:
    """Cay(D_2n, omega): x ~ y iff x^{-1} y in omega; |omega|-regular on 2n vertices."""
    if n < 3:
        raise DomainError(f"dihedral Cayley graph needs n >= 3, got {n}")
    if omega.n != n:
        raise DomainError("connection set built for a different group order")
    elements = dihedral_elements(n)
    adjacency = [0] * (2 * n)
    for x in elements:
        xi = dihedral_index(x, n)
        for w in omega.elements:
            yi = dihedral_index(dihedral_multiply(x, w, n), n)
            adjacency[xi] |= 1 << yi
            adjacency[yi] |= 1 << xi
    return Graph(2 * n, adjacency, labels=[str(x) for x in elements])


@dataclass(frozen=True)
class CayleyIsomorphism:
    """Verified bijection between V(H(n,1)) and D_2n under the reflection set."""

    n: int
    kneser: KneserGraph
    cayley: Graph
    vertex_map: tuple[int, ...]  # H(n,1) index -> Cayley index


def explicit_iso_Hn1(n: int) -> CayleyIsomorphism:
    """The map {i} -> a^i, [n]-{j} -> a^j b, checked with ``perms.is_isomorphism``."""
    if n < 3:
        raise DomainError(f"H(n,1) Cayley isomorphism needs n >= 3, got {n}")
    kg = build_bipartite_kneser(n, 1)
    cay = build_cayley_graph(n, reflection_connection_set(n))

    # H vertex i-1 holds {i}; H vertex n+j-1 holds [n]-{j}.  a^n is the identity.
    vertex_map = [0] * (2 * n)
    for i in range(1, n + 1):
        vertex_map[i - 1] = i % n
        vertex_map[n + i - 1] = n + (i % n)
    mapping = tuple(vertex_map)
    if not is_isomorphism(kg.graph, cay, mapping):
        raise IsomorphismError("the H(n,1) -> Cay(D_2n, omega) map is not an isomorphism")
    return CayleyIsomorphism(n=n, kneser=kg, cayley=cay, vertex_map=mapping)


def left_regular_subgroup(n: int, iso: CayleyIsomorphism) -> PermutationGroup:
    """Left translations x -> g x transported through the isomorphism.

    Yields 2n automorphisms of H(n,1) forming a group that acts regularly on
    the vertex set: the constructive witness that H(n,1) is a Cayley graph.
    """
    forward = iso.vertex_map
    back = inverse(forward)
    elements = dihedral_elements(n)

    perms = []
    for g in elements:
        translation = [0] * (2 * n)
        for x in elements:
            translation[dihedral_index(x, n)] = dihedral_index(dihedral_multiply(g, x, n), n)
        images = tuple(back[translation[forward[v]]] for v in range(2 * n))
        if not is_graph_automorphism(iso.kneser.graph, images):
            raise IsomorphismError(f"transported translation by {g} broke an edge")
        perms.append(images)

    gen_a = perms[dihedral_index(DihedralElement(1, 0), n)]
    gen_b = perms[dihedral_index(DihedralElement(0, 1), n)]
    return PermutationGroup(
        generators=(gen_a, gen_b),
        degree=2 * n,
        elements=tuple(sorted(perms)),
    )
