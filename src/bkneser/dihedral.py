"""Dihedral group arithmetic, Cayley graphs, and the H(n,1) isomorphism.

An element a^i b^s of D_2n (0 <= i < n, s in {0, 1}) is the int i + n*s,
which is also its vertex in every Cayley graph built here: a^0 .. a^{n-1},
then a^0 b .. a^{n-1} b.  Multiplication resolves through the relation
b a = a^{-1} b.  Each public function checks that n and x are ints, n >= 3
and 0 <= x < 2n, where its arguments enter; ``build_cayley_graph`` then runs
the unchecked ``_multiply`` once per arc.  With this order the explicit
isomorphism with H(n, 1) is index arithmetic, and ``left_regular_subgroup``
proves H(n, 1) a Cayley graph from the translations by a and b alone.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import ConnectionSetError, DomainError, IsomorphismError, StructureError, as_int
from .graphs import Graph
from .kneser import KneserGraph, build_bipartite_kneser
from .perms import (
    PermutationGroup,
    compose,
    element_order,
    inverse,
    is_graph_automorphism,
    is_isomorphism,
    orbit_partition,
)


def _check(n: int, *elements: int) -> None:
    if as_int(n, "n") < 3:
        raise DomainError(f"dihedral group needs n >= 3, got {n}")
    for x in elements:
        if as_int(x, "a dihedral element") not in range(2 * n):
            raise DomainError(f"{x!r} is not an element 0..{2 * n - 1} of D_{2 * n}")


def dihedral_multiply(x: int, y: int, n: int) -> int:
    """(a^i b^s)(a^j b^t) = a^(i + (-1)^s j) b^(s + t)."""
    _check(n, x, y)
    return _multiply(x, y, n)


def _multiply(x: int, y: int, n: int) -> int:
    """``dihedral_multiply`` on arguments already checked."""
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

    omega must be a connection set: identity-free and inverse-closed.  The
    graph holds no labels; ``dihedral_label`` names vertex x.
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
    # x's |omega| neighbours are distinct and not x; Graph checks the symmetry
    rows = [[_multiply(x, w, n) for w in omega] for x in range(2 * n)]
    return Graph(2 * n, rows)


class CayleyIsomorphism(NamedTuple):
    """Verified bijection between V(H(n,1)) and D_2n under the reflection set."""

    n: int
    kneser: KneserGraph
    cayley: Graph
    vertex_map: tuple[int, ...]  # H(n,1) index -> Cayley index


def explicit_iso_Hn1(n: int) -> CayleyIsomorphism:
    """The map {i} -> a^i, [n]-{j} -> a^j b, checked with ``perms.is_isomorphism``."""
    _check(n)
    kg = build_bipartite_kneser(n, 1)
    cay = build_cayley_graph(n, reflection_connection_set(n))

    # H vertex i-1 holds {i}; H vertex n+j-1 holds [n]-{j}.  a^n is the identity.
    rotations = [i % n for i in range(1, n + 1)]
    mapping = tuple(rotations + [n + r for r in rotations])
    if not is_isomorphism(kg.graph, cay, mapping):
        raise IsomorphismError("the H(n,1) -> Cay(D_2n, omega) map is not an isomorphism")
    return CayleyIsomorphism(n=n, kneser=kg, cayley=cay, vertex_map=mapping)


def left_regular_subgroup(iso: CayleyIsomorphism) -> PermutationGroup:
    """The translations by a and b, transported through the isomorphism, as a regular group.

    The constructive witness that H(n,1) is a Cayley graph (Sabidussi, Proc.
    AMS 9, 1958).  a and b are checked to be automorphisms, so
    <a, b> <= Aut(H(n,1)).  The order of a (the lcm of its cycle lengths)
    divides n, and b and a∘b have order at most 2, so <a, b> is a quotient of
    D_2n = <a, b | a^n, b^2, (ab)^2> and |<a, b>| <= 2n.  One orbit of all 2n
    vertices gives |<a, b>| >= 2n.  So |<a, b>| = 2n, every vertex stabilizer
    is trivial, and <a, b> acts regularly.  The cost is two automorphism
    checks, O(n^2); no element is listed.  A map that breaks an edge raises
    ``IsomorphismError``, a failed relation or a second orbit ``StructureError``.
    """
    n = iso.n
    back = inverse(iso.vertex_map)
    a, b = (tuple(back[_multiply(g, x, n)] for x in iso.vertex_map) for g in (1, n))
    return _dihedral_action(iso.kneser.graph, a, b)


def _dihedral_action(graph: Graph, a: tuple[int, ...], b: tuple[int, ...]) -> PermutationGroup:
    """``left_regular_subgroup``'s checks on maps a, b of the graph's 2n vertices."""
    degree = graph.vertex_count
    n = degree // 2
    for name, images in (("a", a), ("b", b)):
        if not is_graph_automorphism(graph, images):
            raise IsomorphismError(f"transported translation by {name} broke an edge")
    if n % element_order(a):
        raise StructureError(f"a^{n} is not the identity")
    if element_order(b) > 2:
        raise StructureError("b^2 is not the identity")
    if element_order(compose(a, b)) > 2:
        raise StructureError("(ab)^2 is not the identity")
    if len(orbit_partition([0], (a, b))[0]) != degree:
        raise StructureError(f"<a, b> does not act transitively on the {degree} vertices")
    return PermutationGroup((a, b), degree, order=degree)
