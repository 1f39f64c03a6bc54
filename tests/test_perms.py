import random
from itertools import permutations as iter_permutations

import pytest

from bkneser import (
    PermutationGroup,
    Subset,
    build_bipartite_kneser,
    commutes,
    complement_automorphism,
    compose,
    element_order,
    group_closure,
    induced_automorphism,
    inverse,
    is_regular_action,
    known_generators,
    orbit,
    orbits_on_ordered_pairs,
    orbits_on_unordered_pairs,
    orbits_on_vertices,
    stabilizer,
    sym_generators,
)
from bkneser.errors import DomainError, NeedEnumerationError, OrderCapExceeded
from bkneser.perms import format_cycles, is_graph_automorphism
from conftest import cycle_graph, path_graph


def random_permutation(rng, n):
    return tuple(rng.sample(range(n), n))


def test_permutation_validation_and_cycles():
    kg = build_bipartite_kneser(3, 1)
    for bad in ((0, 0, 2), (1, 2, 3)):
        with pytest.raises(DomainError):
            induced_automorphism(kg, bad)
    assert format_cycles((1, 0, 3, 4, 2)) == "(0 1)(2 3 4)"
    assert format_cycles(range(4)) == "()"
    assert format_cycles((0, 2, 3, 4, 1)) == "(1 2 3 4)"


def test_induced_identity():
    kg = build_bipartite_kneser(3, 1)
    f = induced_automorphism(kg, (0, 1, 2))
    assert f == tuple(range(6))


def test_induced_transposition_on_h31():
    kg = build_bipartite_kneser(3, 1)
    f = induced_automorphism(kg, (1, 0, 2))
    v = kg.vertex_of_subset
    s = lambda *xs: Subset.from_elements(3, xs)
    assert f[v(s(1))] == v(s(2))
    assert f[v(s(2))] == v(s(1))
    assert f[v(s(2, 3))] == v(s(1, 3))
    assert f[v(s(1, 3))] == v(s(2, 3))
    assert f[v(s(3))] == v(s(3))
    assert f[v(s(1, 2))] == v(s(1, 2))


def test_induced_size_mismatch():
    kg = build_bipartite_kneser(3, 1)
    with pytest.raises(DomainError):
        induced_automorphism(kg, (0, 1, 2, 3))


def test_induced_automorphism_on_the_middle_level():
    # H(4,2) has no edges; each 2-subset and its complement both have size 2
    kg = build_bipartite_kneser(4, 2, allow_null=True)
    side = kg.side_size
    assert induced_automorphism(kg, (0, 1, 2, 3)) == tuple(range(2 * side))
    f = induced_automorphism(kg, (1, 0, 2, 3))
    assert sorted(f) == list(range(2 * side))
    assert all(f[i + side] == f[i] + side for i in range(side))
    v = kg.vertex_of_subset
    assert f[v(Subset.from_elements(4, [1, 3]))] == v(Subset.from_elements(4, [2, 3]))


def test_containment_preserved_under_random_permutations():
    # 1000 random (theta, A, B) with A inside B on the H(7,3) ground set
    rng = random.Random(73001)
    n, k = 7, 3
    for _ in range(1000):
        theta = random_permutation(rng, n)
        a_elems = rng.sample(range(1, n + 1), k)
        rest = [x for x in range(1, n + 1) if x not in a_elems]
        b_elems = a_elems + rng.sample(rest, n - 2 * k)
        a = Subset.from_elements(n, (theta[x - 1] + 1 for x in a_elems))
        b = Subset.from_elements(n, (theta[x - 1] + 1 for x in b_elems))
        assert a.bits & ~b.bits == 0


def test_complement_automorphism_examples():
    kg = build_bipartite_kneser(4, 1)
    alpha = complement_automorphism(kg)
    v = kg.vertex_of_subset
    assert alpha[v(Subset.from_elements(4, [1]))] == v(Subset.from_elements(4, [2, 3, 4]))
    assert compose(alpha, alpha) == tuple(range(8))
    assert element_order(alpha) == 2

    kg52 = build_bipartite_kneser(5, 2)
    alpha52 = complement_automorphism(kg52)
    side = kg52.side_size
    assert sorted(alpha52[i] for i in range(side)) == list(range(side, 2 * side))


def test_compose_inverse_random():
    rng = random.Random(42)
    for _ in range(50):
        p = tuple(rng.sample(range(10), 10))
        assert compose(p, inverse(p)) == tuple(range(10))
        assert compose(inverse(p), p) == tuple(range(10))


def test_compose_size_mismatch():
    with pytest.raises(DomainError):
        compose((0, 1), (0, 1, 2))


def test_element_order_of_induced_cycle():
    # rho = (2 3 4 5) on H(5,1): a cycle of length n-1 fixing vertex [n]-{1}
    kg = build_bipartite_kneser(5, 1)
    f_rho = induced_automorphism(kg, (0, 2, 3, 4, 1))
    assert element_order(f_rho) == 4


def test_group_closure_trivial():
    g = group_closure([], degree=5)
    assert g.order == 1
    assert g.elements[0] == tuple(range(5))


def test_group_closure_needs_degree_when_empty():
    with pytest.raises(DomainError):
        group_closure([])


def test_group_closure_rejects_a_non_bijective_generator():
    with pytest.raises(DomainError):
        group_closure([(0, 0, 1)])


def test_is_graph_automorphism_rejects_a_fold():
    # on the path 0-1-2 the fold 2 -> 0 sends both edges to the edge 0-1
    p3 = path_graph(3)
    assert not is_graph_automorphism(p3, (0, 1, 0))
    assert is_graph_automorphism(p3, (2, 1, 0))


def test_group_closure_sym3_image():
    kg = build_bipartite_kneser(3, 1)
    f_swap, f_cycle = sym_generators(kg)
    assert group_closure([f_swap, f_cycle]).order == 6
    assert group_closure(known_generators(kg)).order == 12


def test_group_closure_cap():
    kg = build_bipartite_kneser(5, 1)
    with pytest.raises(OrderCapExceeded):
        group_closure(known_generators(kg), order_cap=100)


def test_closure_order_doubles_with_alpha():
    for n in range(3, 7):
        kg = build_bipartite_kneser(n, 1)
        f_swap, f_cycle = sym_generators(kg)
        alpha = complement_automorphism(kg)
        without = group_closure([f_swap, f_cycle]).order
        with_alpha = group_closure([f_swap, f_cycle, alpha]).order
        assert with_alpha == 2 * without


def test_orbit_under_cyclic_subgroup():
    kg = build_bipartite_kneser(5, 1)
    f_rho = induced_automorphism(kg, (0, 2, 3, 4, 1))
    group = PermutationGroup(generators=(f_rho,), degree=10)
    v = kg.vertex_of_subset
    expected = {v(Subset.from_elements(5, [i])) for i in (2, 3, 4, 5)}
    assert set(orbit(group, v(Subset.from_elements(5, [2])))) == expected


def test_full_generators_act_transitively():
    kg = build_bipartite_kneser(5, 2)
    group = PermutationGroup(generators=known_generators(kg), degree=kg.vertex_count)
    assert len(orbits_on_vertices(group)) == 1


def test_trivial_group_orbits_are_singletons():
    group = PermutationGroup(generators=(), degree=4)
    assert orbits_on_vertices(group) == [(0,), (1,), (2,), (3,)]


def test_orbit_stabilizer_identity_h41():
    kg = build_bipartite_kneser(4, 1)
    group = group_closure(known_generators(kg))
    assert group.order == 48
    for v in range(kg.vertex_count):
        stab = stabilizer(group, v)
        assert group.order == len(orbit(group, v)) * stab.order
        assert stab.order == 6


def test_stabilizer_of_singleton_in_sym_image():
    # enumerate the six induced maps on H(3,1); exactly the theta with
    # theta(1) = 1 fix vertex {1}, so the stabilizer has order 2
    kg = build_bipartite_kneser(3, 1)
    group = group_closure(list(sym_generators(kg)))
    expected = sum(1 for p in iter_permutations((1, 2, 3)) if p[0] == 1)
    assert expected == 2
    assert stabilizer(group, 0).order == expected


def test_stabilizer_needs_enumeration():
    group = PermutationGroup(generators=((1, 0),), degree=2)
    with pytest.raises(NeedEnumerationError):
        stabilizer(group, 0)
    with pytest.raises(NeedEnumerationError):
        group.order


def test_stabilizer_of_trivial_group():
    group = group_closure([], degree=3)
    assert stabilizer(group, 1).order == 1


def test_commutes_alpha_with_random_induced():
    kg = build_bipartite_kneser(6, 2)
    alpha = complement_automorphism(kg)
    rng = random.Random(62500)
    for _ in range(500):
        f = induced_automorphism(kg, random_permutation(rng, 6))
        assert commutes(f, alpha)
    ident = tuple(range(kg.vertex_count))
    assert commutes(alpha, ident)


def test_known_non_commuting_pair():
    # f_(1 2) and f_(2 3) on H(4,1) disagree already on vertex {1}:
    # (2 3)(1 2) sends 1 -> 3 while (1 2)(2 3) sends 1 -> 2.
    kg = build_bipartite_kneser(4, 1)
    f12 = induced_automorphism(kg, (1, 0, 2, 3))
    f23 = induced_automorphism(kg, (0, 2, 1, 3))
    v = kg.vertex_of_subset
    one = v(Subset.from_elements(4, [1]))
    assert compose(f23, f12)[one] == v(Subset.from_elements(4, [3]))
    assert compose(f12, f23)[one] == v(Subset.from_elements(4, [2]))
    assert not commutes(f12, f23)


def test_is_regular_action_examples():
    kg = build_bipartite_kneser(3, 1)
    full = group_closure(known_generators(kg))
    assert not is_regular_action(full, 6)  # order 12 on 6 vertices
    trivial = group_closure([], degree=1)
    assert is_regular_action(trivial, 1)


def test_psi_injective_and_alpha_outside_small_n():
    for n in (3, 4, 5):
        kg = build_bipartite_kneser(n, 1)
        alpha = complement_automorphism(kg)
        seen = {}
        for images in iter_permutations(range(n)):
            f = induced_automorphism(kg, images)
            assert f not in seen, "distinct theta gave equal induced maps"
            seen[f] = images
            assert f != alpha
        # induced maps preserve the parts, complementation swaps them
        side = kg.side_size
        assert alpha[0] >= side
        assert all(f_images[0] < side for f_images in seen)


def test_orbit_functions_match_orbits_of_the_elements():
    # oracle: the orbit of p is {g(p) : g in the fully enumerated group}
    rotation = tuple((i + 1) % 6 for i in range(6))
    cases = [(cycle_graph(6), group_closure([rotation])),
             (cycle_graph(6), group_closure([], degree=6))]
    for n, k in ((4, 1), (5, 2)):
        kg = build_bipartite_kneser(n, k)
        cases.append((kg.graph, group_closure(known_generators(kg))))

    def on_vertex(g, v):
        return g[v]

    def on_ordered(g, pair):
        return (g[pair[0]], g[pair[1]])

    def on_unordered(g, pair):
        return tuple(sorted(on_ordered(g, pair)))

    ragged = [(0, 1), (1, 0), (2, 5), (3, 3)]  # not a union of orbits
    for graph, group in cases:
        def oracle(points, act):
            return sorted({tuple(sorted({act(g, p) for g in group.elements}))
                           for p in points})

        vertices = range(group.degree)
        all_pairs = [(u, v) for u in vertices for v in vertices]
        for v in vertices:
            assert orbit(group, v) == oracle([v], on_vertex)[0]
        assert orbits_on_vertices(group) == oracle(vertices, on_vertex)
        assert orbits_on_ordered_pairs(group) == oracle(all_pairs, on_ordered)
        for pool in (graph.arcs(), ragged):
            assert orbits_on_ordered_pairs(group, pool) == oracle(pool, on_ordered)
        for pool in (graph.edges(), ragged):
            assert orbits_on_unordered_pairs(group, pool) == oracle(pool, on_unordered)
