"""Dihedral group arithmetic, Cayley graphs, and the H(n,1) isomorphism.

An element a^i b^s of D_2n (0 <= i < n, s in {0, 1}) is the int i + n*s,
which is also its vertex in every Cayley graph built here: a^0 .. a^{n-1},
then a^0 b .. a^{n-1} b.  Multiplication resolves through the relation
b a = a^{-1} b.  Each function checks that n and x are ints, n >= 3 and
0 <= x < 2n, where its arguments enter.  With this order the explicit
isomorphism with H(n, 1) is index arithmetic.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import ConnectionSetError, DomainError, IsomorphismError, as_int
from .graphs import Graph
from .kneser import KneserGraph, build_bipartite_kneser
from .perms import PermutationGroup, image_set, inverse, is_graph_automorphism, is_isomorphism


def _check(n: int, *elements: int) -> None:
    if as_int(n, "n") < 3:
        raise DomainError(f"dihedral group needs n >= 3, got {n}")
    for x in elements:
        if as_int(x, "a dihedral element") not in range(2 * n):
            raise DomainError(f"{x!r} is not an element 0..{2 * n - 1} of D_{2 * n}")


def dihedral_multiply(x: int, y: int, n: int) -> int:
    """(a^i b^s)(a^j b^t) = a^(i + (-1)^s j) b^(s + t)."""
    _check(n, x, y)
    s, t = x // n, y // n
    rot = (x + (y if s == 0 else -y)) % n
    return rot + n * (s ^ t)


def dihedral_inverse(x: int, n: int) -> int:
    _check(n, x)
    return x if x >= n else -x % n  # reflections are involutions


def dihedral_label(x: int, n: int) -> str:
    """The vertex label of x in a Cayley graph: e, a, a^2, ..., b, a b, a^2 b, ..."""
    _check(n, x)
    rot, ref = x % n, x // n
    parts = []
    if rot == 1:
        parts.append("a")
    elif rot > 1:
        parts.append(f"a^{rot}")
    if ref:
        parts.append("b")
    return " ".join(parts) or "e"


def reflection_connection_set(n: int) -> tuple[int, ...]:
    """{ab, a^2 b, ..., a^{n-1} b}: every reflection except b itself."""
    _check(n)
    return tuple(range(n + 1, 2 * n))


def build_cayley_graph(n: int, omega: Iterable[int]) -> Graph:
    """Cay(D_2n, omega): x ~ y iff x^{-1} y in omega; |omega|-regular on 2n vertices.

    omega must be a connection set: identity-free and inverse-closed.
    """
    omega = set(omega)
    _check(n, *omega)
    if 0 in omega:
        raise ConnectionSetError("connection set contains the identity")
    for w in omega:
        if dihedral_inverse(w, n) not in omega:
            raise ConnectionSetError(
                f"connection set not closed under inverse of {dihedral_label(w, n)}"
            )
    edges = [(x, dihedral_multiply(x, w, n)) for x in range(2 * n) for w in omega]
    return Graph.from_edges(2 * n, edges, labels=[dihedral_label(x, n) for x in range(2 * n)])


class CayleyIsomorphism(NamedTuple):
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


def left_regular_subgroup(iso: CayleyIsomorphism) -> PermutationGroup:
    """Left translations x -> g x transported through the isomorphism.

    Yields 2n automorphisms of H(n,1) forming a group that acts regularly on
    the vertex set: the constructive witness that H(n,1) is a Cayley graph.
    """
    n = iso.n
    forward = iso.vertex_map
    back = inverse(forward)

    perms = []
    for g in range(2 * n):
        images = tuple(back[dihedral_multiply(g, forward[v], n)] for v in range(2 * n))
        if not is_graph_automorphism(iso.kneser.graph, images):
            raise IsomorphismError(
                f"transported translation by {dihedral_label(g, n)} broke an edge"
            )
        perms.append(images)

    return PermutationGroup(
        generators=(perms[1], perms[n]),  # a and b
        degree=2 * n,
        elements=image_set(perms, 2 * n),
    )
