import math
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import permutations as iter_permutations
from pathlib import Path

import pytest

from bkneser import (
    Graph,
    PermutationGroup,
    build_bipartite_kneser,
    commutes,
    complement_automorphism,
    compose,
    element_order,
    group_closure,
    induced_automorphism,
    inverse,
    known_generators,
    orbit,
    orbits_on_ordered_pairs,
    orbits_on_unordered_pairs,
    orbits_on_vertices,
    sym_generators,
)
from bkneser.autgroup import automorphism_group
from bkneser.connectivity import vertex_connectivity
from bkneser.errors import (
    DomainError,
    NeedEnumerationError,
    OrderCapExceeded,
    SizeLimitError,
    StructureError,
)
from bkneser.perms import (
    closure_images,
    format_cycles,
    is_graph_automorphism,
    is_isomorphism,
    is_semiregular,
)
from bkneser.symmetry import feasible_parameters
from bkneser import perms
from conftest import complete_graph, cycle_graph, mask, path_graph, two_switched
from oracles import bfs_closure_images, dict_closure, is_regular_action, stabilizer


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
    assert f[v(mask(1))] == v(mask(2))
    assert f[v(mask(2))] == v(mask(1))
    assert f[v(mask(2, 3))] == v(mask(1, 3))
    assert f[v(mask(1, 3))] == v(mask(2, 3))
    assert f[v(mask(3))] == v(mask(3))
    assert f[v(mask(1, 2))] == v(mask(1, 2))


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
    assert f[v(mask(1, 3))] == v(mask(2, 3))


def test_containment_preserved_under_random_permutations():
    # 1000 random (theta, A, B) with A inside B on the H(7,3) ground set
    rng = random.Random(73001)
    n, k = 7, 3
    for _ in range(1000):
        theta = random_permutation(rng, n)
        a_elems = rng.sample(range(1, n + 1), k)
        rest = [x for x in range(1, n + 1) if x not in a_elems]
        b_elems = a_elems + rng.sample(rest, n - 2 * k)
        a = mask(*(theta[x - 1] + 1 for x in a_elems))
        b = mask(*(theta[x - 1] + 1 for x in b_elems))
        assert a & ~b == 0


def test_maps_are_built_unchecked_and_checked_where_used():
    kg = build_bipartite_kneser(5, 2)
    switched = two_switched(kg)
    maps = known_generators(switched)  # the subset labels are unchanged
    assert maps == known_generators(kg)
    perms.check_generators(kg.graph, maps)
    with pytest.raises(StructureError, match="not an automorphism"):
        perms.check_generators(switched.graph, maps)
    with pytest.raises(StructureError):
        perms.check_generators(switched.graph, [complement_automorphism(switched)])


def test_complement_automorphism_examples():
    kg = build_bipartite_kneser(4, 1)
    alpha = complement_automorphism(kg)
    v = kg.vertex_of_subset
    assert alpha[v(mask(1))] == v(mask(2, 3, 4))
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


NOT_PERMUTATIONS = [(1, 1), (5, 0), (-1, 0), (0.5, 0), (None, 0), (1, 2, 0, 0)]


def test_format_cycles_rejects_a_map_that_is_not_a_permutation():
    # in a child with a timeout, so a walk that never gets back to its start fails the test
    probe = ("from bkneser.errors import DomainError\n"
             "from bkneser.perms import format_cycles\n"
             f"for p in {NOT_PERMUTATIONS!r}:\n"
             "    try:\n"
             "        format_cycles(p)\n"
             "    except DomainError:\n"
             "        continue\n"
             "    raise SystemExit(f'no DomainError for {p}')\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=30)
    assert (result.returncode, result.stderr) == (0, "")


@pytest.mark.parametrize("p", NOT_PERMUTATIONS)
@pytest.mark.parametrize("function", [element_order, is_semiregular])
def test_cycle_lengths_reject_a_map_that_is_not_a_permutation(function, p):
    # a walk that leaves 0..len-1 or ends off its start
    with pytest.raises(DomainError, match="not a permutation"):
        function(p)


def test_element_order_of_induced_cycle():
    # rho = (2 3 4 5) on H(5,1): a cycle of length n-1 fixing vertex [n]-{1}
    kg = build_bipartite_kneser(5, 1)
    f_rho = induced_automorphism(kg, (0, 2, 3, 4, 1))
    assert element_order(f_rho) == 4


def test_is_semiregular_examples():
    assert is_semiregular((0, 1, 2, 3, 4, 5))  # the identity: six cycles of length 1
    assert is_semiregular((1, 0, 3, 2, 5, 4))  # a fixed-point-free involution
    assert not is_semiregular((1, 0, 3, 4, 5, 2))  # (0 1)(2 3 4 5): its square fixes 0 and 1
    assert is_semiregular(b"\x01\x02\x00")  # image strings too


def test_is_semiregular_iff_no_nonidentity_power_fixes_a_point():
    # the definition, power by power, on every permutation of five points
    identity = tuple(range(5))
    for p in iter_permutations(range(5)):
        powers, q = [], p
        while q != identity:
            powers.append(q)
            q = compose(p, q)
        fixed_point_free = all(all(q[x] != x for x in range(5)) for q in powers)
        assert is_semiregular(p) == fixed_point_free, p


def test_group_closure_trivial():
    g = group_closure([], degree=5)
    assert g.order == 1
    assert g.elements == {bytes(range(5))}
    assert tuple(range(5)) in g


def test_group_closure_needs_degree_when_empty():
    with pytest.raises(DomainError):
        group_closure([])


def test_group_closure_rejects_a_non_bijective_generator():
    with pytest.raises(DomainError):
        group_closure([(0, 0, 1)])


def test_group_closure_rejects_a_degree_mismatch():
    with pytest.raises(DomainError):
        group_closure([(1, 0)], degree=3)
    assert group_closure([(1, 0, 2)], degree=3).order == 2


def test_closure_images_rejects_a_bad_generator_on_both_paths():
    # degree 300 is refused by the degree check, which raises a DomainError too
    for gens, degree in [([(1, 2, 0)], 2), ([(1, 0)], 3), ([(0, 300)], 2),
                         ([tuple(range(257))], 300), ([tuple(range(301))], 300)]:
        with pytest.raises(DomainError):
            closure_images(gens, degree)


def dihedral_generators(degree):
    """A rotation and a reflection of the degree-gon."""
    rotation = (*range(1, degree), 0)
    reflection = tuple((-x) % degree for x in range(degree))
    return [rotation, reflection]


def test_closure_images_matches_a_dict_closure():
    cases = [([], 0, 1), ([], 1, 1), ([(1, 0)], 2, 2)]
    # 255 and 256 fill the 256-byte translate table
    cases += [(dihedral_generators(d), d, 2 * d) for d in (255, 256)]
    h52 = build_bipartite_kneser(5, 2).graph
    cases.append((automorphism_group(h52).generators, 20, 2 * math.factorial(5)))
    h73 = build_bipartite_kneser(7, 3)
    cases.append((known_generators(h73), 70, 2 * math.factorial(7)))
    for gens, degree, order in cases:
        elements = closure_images(gens, degree)
        assert type(elements) is frozenset and len(elements) == order
        assert all(type(p) is bytes and len(p) == degree for p in elements)
        assert elements == set(map(bytes, dict_closure(gens, degree))), degree
    # an image string holds at most 256 points: larger degrees are refused
    for degree in (257, 300):
        with pytest.raises(SizeLimitError, match=f"degree {degree} exceeds"):
            closure_images(dihedral_generators(degree), degree)


def test_closure_images_cap_is_the_largest_order_that_completes():
    # Aut(H(5,2)), the dihedral group D_256 at the largest degree, and known
    # generators; the BFS closure completes and raises at the same caps
    h52 = build_bipartite_kneser(5, 2).graph
    cases = [(automorphism_group(h52).generators, 20, 240),
             (dihedral_generators(256), 256, 512), (dihedral_generators(3), 3, 6)]
    for n, k in [(4, 1), (6, 2), (7, 3)]:
        kg = build_bipartite_kneser(n, k)
        cases += [(known_generators(kg), kg.vertex_count, 2 * math.factorial(n)),
                  (sym_generators(kg), kg.vertex_count, math.factorial(n))]
    for gens, degree, order in cases:
        for closure in (closure_images, bfs_closure_images):
            assert len(closure(gens, degree, order_cap=order)) == order
            with pytest.raises(OrderCapExceeded, match=f"the cap of {order - 1} elements"):
                closure(gens, degree, order_cap=order - 1)


def test_coset_closure_matches_the_bfs_closure():
    # the coset method starts from the generator of largest order and takes
    # the others in the given order; every order gives the BFS closure's group
    cases = []
    for n, k in feasible_parameters(7):
        kg = build_bipartite_kneser(n, k)
        known = known_generators(kg)
        cases += [(order, kg.vertex_count) for order in iter_permutations(known)]
        cases.append((known[:2], kg.vertex_count))
    for degree in (1, 2, 3, 4, 5, 6, 12, 97, 128, 256):
        rotation, reflection = dihedral_generators(degree)
        cases += [([rotation, reflection], degree), ([reflection, rotation], degree),
                  ([reflection, rotation, reflection, tuple(range(degree))], degree)]
    for gens, degree in cases:
        assert closure_images(gens, degree) == bfs_closure_images(gens, degree), (degree, gens)


def test_is_isomorphism_needs_a_bijection_and_equal_counts():
    p3 = path_graph(3)
    assert is_isomorphism(p3, Graph.from_edges(3, [(0, 2), (2, 1)]), (0, 2, 1))
    # every edge of P3 lands on an edge of K3, but K3 has a third edge
    assert not is_isomorphism(p3, complete_graph(3), (0, 1, 2))
    assert not is_isomorphism(p3, p3, (0, 1, 0))  # a fold, not a bijection
    p3_and_a_point = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert not is_isomorphism(p3, p3_and_a_point, (0, 1, 2))


def test_automorphism_check_does_not_count_edges(monkeypatch):
    # the check compares neighbour lists, which needs no edge count
    graph = cycle_graph(6)

    def no_count(self):
        raise AssertionError("edge_count was read")

    monkeypatch.setattr(Graph, "edge_count", property(no_count))
    assert is_graph_automorphism(graph, (1, 2, 3, 4, 5, 0))
    assert not is_graph_automorphism(graph, (1, 0, 2, 3, 4, 5))
    assert is_isomorphism(graph, cycle_graph(6), (1, 2, 3, 4, 5, 0))


def test_is_isomorphism_matches_the_edge_set_oracle(corpus):
    graphs = [g for g in corpus.values() if g.vertex_count == 5]
    for g1 in graphs:
        for g2 in graphs:
            target = set(map(frozenset, g2.edges()))
            for p in iter_permutations(range(5)):
                mapped = {frozenset((p[u], p[v])) for u, v in g1.edges()}
                assert is_isomorphism(g1, g2, p) == (mapped == target)


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
    expected = {v(mask(i)) for i in (2, 3, 4, 5)}
    assert set(orbit(group, v(mask(2)))) == expected


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


def test_group_with_an_order_has_no_elements_until_closed():
    group = PermutationGroup(generators=((1, 2, 0),), degree=3, order=3)
    assert group.order == 3 and group.elements is None
    with pytest.raises(NeedEnumerationError):
        (2, 0, 1) in group
    with pytest.raises(NeedEnumerationError):
        stabilizer(group, 0)
    closed = group_closure(group.generators, degree=group.degree)
    assert closed.order == 3 and (2, 0, 1) in closed and stabilizer(closed, 0).order == 1
    with pytest.raises(OrderCapExceeded, match="cap of 2 elements"):
        group_closure(group.generators, order_cap=2)
    wrong = PermutationGroup(generators=((1, 0, 2),), degree=3, order=6)
    assert wrong.order == 6  # taken on trust: reading it runs no closure
    assert group_closure(wrong.generators).order == 2


def test_reading_a_group_runs_no_closure(monkeypatch):
    # order, elements and in read what the group holds; none of them closes it
    kg = build_bipartite_kneser(4, 1)
    engine = automorphism_group(kg.graph)  # a certified order, no elements
    cycle = (1, 2, 0)
    enumerated = group_closure([cycle])

    def no_closure(*args, **kwargs):
        raise AssertionError("a closure ran")

    monkeypatch.setattr(perms, "closure_images", no_closure)
    kinds = [
        (PermutationGroup([cycle], 3), cycle, None, None),
        (PermutationGroup([cycle], 3, order=3), cycle, 3, None),
        (enumerated, cycle, 3, True),
        (engine, complement_automorphism(kg), 48, None),
    ]
    for group, member, order, contains in kinds:
        if order is None:
            with pytest.raises(NeedEnumerationError):
                group.order
        else:
            assert group.order == order
        if contains is None:
            with pytest.raises(NeedEnumerationError):
                member in group
            assert group.elements is None  # still: no read filled it in
        else:
            assert (member in group) is contains
            assert group.elements is enumerated.elements


@pytest.mark.parametrize("make", [
    lambda: PermutationGroup((), -3),
    lambda: group_closure([], degree=-1),
    lambda: closure_images([], 2.5),
    lambda: group_closure([], degree="3"),
], ids=["negative group degree", "negative closure degree", "float degree", "str degree"])
def test_degree_is_checked_where_it_enters(make):
    with pytest.raises(DomainError, match="degree"):
        make()


@pytest.mark.parametrize("make", [
    lambda: vertex_connectivity(path_graph(3), [(0.0, 1.0, 2.0)]),
    lambda: is_graph_automorphism(path_graph(3), (0.0, 1.0, 2.0)),
    lambda: orbits_on_vertices(PermutationGroup([(1.0, 0.0)], 2)),
    lambda: closure_images([(1.0, 0.0)], 2),
    lambda: closure_images([(0, "1", 2)], 3),
    lambda: closure_images([(None, 1, 2)], 3),
], ids=["stabilizer map", "automorphism check", "group generator", "closure generator",
        "str image", "None image"])
def test_float_images_are_checked_where_a_map_enters(make):
    # sorted((1.0, 0.0)) == [0, 1], so only an int check stops these maps
    with pytest.raises(DomainError, match="an image must be an int, got"):
        make()


def test_membership_of_an_enumerated_group():
    kg = build_bipartite_kneser(4, 1)
    f_swap, f_cycle = sym_generators(kg)
    sym_image = group_closure([f_swap, f_cycle])
    assert f_swap in sym_image and compose(f_cycle, f_swap) in sym_image
    assert tuple(range(8)) in sym_image
    assert complement_automorphism(kg) not in sym_image  # a permutation, not a member
    assert (0, 0, 2, 3, 4, 5, 6, 7) not in sym_image  # not a permutation
    assert tuple(range(7)) not in sym_image and tuple(range(9)) not in sym_image
    assert (300, 1, 2, 3, 4, 5, 6, 7) not in sym_image  # no image string holds 300
    assert (-1, 1, 2, 3, 4, 5, 6, 7) not in sym_image
    assert 8 not in sym_image  # bytes(8) would be eight zero bytes
    with pytest.raises(NeedEnumerationError):
        f_swap in PermutationGroup(generators=(f_swap, f_cycle), degree=8)


@pytest.mark.parametrize("point", [-1, 3, 1.0, "0"])
@pytest.mark.parametrize("function", [orbit, stabilizer])
def test_point_is_checked_where_it_enters(function, point):
    group = group_closure([(1, 0, 2)])
    with pytest.raises(DomainError, match="vertex"):
        function(group, point)


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
    one = v(mask(1))
    assert compose(f23, f12)[one] == v(mask(3))
    assert compose(f12, f23)[one] == v(mask(2))
    assert not commutes(f12, f23)
    with pytest.raises(DomainError, match="different degrees"):
        commutes(f12, f12[:-1])


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


def test_pair_orbits_take_memory_by_orbit_not_by_degree_squared():
    # degree 20,000: an array over all encoded pairs would take 400 MB
    n = 20_000
    swap = (1, 0, *range(2, n))
    group = PermutationGroup([swap], n)
    tracemalloc.start()
    try:
        orbits = orbits_on_ordered_pairs(group, [(0, 1), (2, 3), (n - 1, 5)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert orbits == [((0, 1), (1, 0)), ((2, 3),), ((n - 1, 5),)]
    assert peak < 5_000_000
