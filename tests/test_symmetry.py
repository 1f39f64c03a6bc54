import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bkneser import (
    Graph,
    PermutationGroup,
    automorphism_group,
    build_bipartite_kneser,
    complement_automorphism,
    compose,
    diameter_by_orbits,
    explore_question1,
    explore_question2,
    find_regular_subgroup,
    group_closure,
    inverse,
    known_generators,
    orbits_on_ordered_pairs,
    orbits_on_unordered_pairs,
    orbits_on_vertices,
    stabilizer_generators,
    sym_generators,
    transitivity_report,
    verify_direct_product,
)
from bkneser import autgroup, perms, symmetry
from bkneser.errors import (
    DisconnectedError,
    DomainError,
    NeedEnumerationError,
    OrderCapExceeded,
    StructureError,
)
from bkneser.perms import is_semiregular
from bkneser.subsets import binomial
from bkneser.symmetry import SEARCH_CAVEAT, feasible_parameters, question2_table
from conftest import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
    two_switched,
)
from oracles import every_row_regular_subgroup, stabilizer, two_phase_regular_subgroup


def known_group(kg):
    return PermutationGroup(generators=known_generators(kg), degree=kg.vertex_count)


def test_vertex_transitive_examples():
    kg = build_bipartite_kneser(6, 2)
    assert transitivity_report(kg.graph, known_group(kg)).vertex_transitive

    star = star_graph(3)
    assert not transitivity_report(star, automorphism_group(star)).vertex_transitive

    c6 = cycle_graph(6)
    rotation = tuple((i + 1) % 6 for i in range(6))
    rotations = PermutationGroup(generators=(rotation,), degree=6)
    assert transitivity_report(c6, rotations).vertex_transitive


def test_edge_and_arc_transitive_examples():
    kg = build_bipartite_kneser(5, 2)
    report = transitivity_report(kg.graph, known_group(kg))
    assert report.arc_transitive
    assert report.edge_transitive

    p3 = path_graph(3)
    assert not transitivity_report(p3, automorphism_group(p3)).arc_transitive

    star = star_graph(3)
    star_report = transitivity_report(star, automorphism_group(star))
    assert star_report.edge_transitive
    assert not star_report.arc_transitive


def test_distance_transitive_examples():
    for n in range(3, 7):
        kg = build_bipartite_kneser(n, 1)
        assert transitivity_report(kg.graph, known_group(kg)).distance_transitive

    c6 = cycle_graph(6)
    assert transitivity_report(c6, automorphism_group(c6)).distance_transitive

    star = star_graph(3)
    assert not transitivity_report(star, automorphism_group(star)).distance_transitive


def test_distance_transitive_needs_connected():
    g = complete_graph(3)
    disconnected = type(g).from_edges(4, g.edges())
    with pytest.raises(DisconnectedError):
        transitivity_report(disconnected, automorphism_group(disconnected))


def test_pair_orbits_have_constant_distance_even_for_subgroups():
    # the rotation subgroup of C6 is far from the full group, yet every
    # pair orbit sits inside one distance class
    c6 = cycle_graph(6)
    rotation = tuple((i + 1) % 6 for i in range(6))
    group = PermutationGroup(generators=(rotation,), degree=6)
    assert not transitivity_report(c6, group).distance_transitive  # 6 orbits vs 4 distances


def test_non_automorphism_in_group_is_detected():
    # maps that are not bijections never make a group: forward reachability
    # under them is not an orbit
    for fake in ((1, 1), (2, 2, 1)):
        with pytest.raises(DomainError):
            PermutationGroup(generators=(fake,), degree=len(fake))
    # a bijection, not an automorphism of C6
    c6_group = PermutationGroup(generators=((1, 0, 2, 3, 4, 5),), degree=6)
    with pytest.raises(StructureError):
        transitivity_report(cycle_graph(6), c6_group)
    # the rotation of the path 0-1-2 is a bijection with one orbit, not an automorphism
    p3_group = PermutationGroup(generators=((1, 2, 0),), degree=3)
    for check in (transitivity_report, diameter_by_orbits):
        with pytest.raises(StructureError):
            check(path_graph(3), p3_group)


def test_pair_orbit_count_h_n_1():
    for n in range(3, 8):
        kg = build_bipartite_kneser(n, 1)
        report = transitivity_report(kg.graph, known_group(kg))
        assert report.pair_orbits == 4
        assert report.distance_values == 4


def test_transitivity_report_examples():
    kg = build_bipartite_kneser(7, 3)
    report = transitivity_report(kg.graph, known_group(kg))
    assert report.vertex_transitive and report.edge_transitive and report.arc_transitive

    kg41 = build_bipartite_kneser(4, 1)
    report41 = transitivity_report(kg41.graph, known_group(kg41))
    assert (
        report41.vertex_transitive
        and report41.edge_transitive
        and report41.arc_transitive
        and report41.distance_transitive
    )

    star = star_graph(3)
    rep = transitivity_report(star, automorphism_group(star))
    assert not rep.vertex_transitive
    assert rep.edge_transitive
    assert not rep.arc_transitive
    assert not rep.distance_transitive


def test_hierarchy_holds_on_corpus(corpus):
    for name, graph in corpus.items():
        if graph.vertex_count > 12 or not graph.is_connected():
            continue
        report = transitivity_report(graph, automorphism_group(graph))
        if report.distance_transitive:
            assert report.arc_transitive, name
        if report.arc_transitive and graph.edge_count:
            assert report.vertex_transitive, name
            assert report.edge_transitive, name


def test_diameter_by_orbits_matches_graph_diameter_on_h_n_k():
    for n, k in feasible_parameters(9):
        kg = build_bipartite_kneser(n, k)
        assert diameter_by_orbits(kg.graph, known_group(kg)) == kg.graph.diameter(), (n, k)


def test_diameter_by_orbits_with_several_orbits(corpus):
    # the reflection of a path leaves ceil(n/2) orbits, one of them holding
    # the two ends, whose eccentricity is the diameter
    for n in range(1, 9):
        path = path_graph(n)
        reflection = PermutationGroup((tuple(range(n - 1, -1, -1)),), n)
        assert len(orbits_on_vertices(reflection)) == (n + 1) // 2
        assert diameter_by_orbits(path, reflection) == path.diameter() == n - 1
    for name, graph in corpus.items():
        if not graph.is_connected():
            continue
        trivial = PermutationGroup((), graph.vertex_count)
        aut = automorphism_group(graph)
        assert diameter_by_orbits(graph, trivial) == graph.diameter(), name
        assert diameter_by_orbits(graph, aut) == graph.diameter(), name


def test_diameter_by_orbits_closed_form():
    # diam H(n,k) = 2 * ceil(k / (n - 2k)) + 1 on every instance up to 1000 vertices
    cases = [(n, k) for n, k in feasible_parameters(20) if 2 * binomial(n, k) <= 1000]
    assert (11, 5) in cases and (12, 4) in cases
    for n, k in cases:
        kg = build_bipartite_kneser(n, k)
        expected = 2 * math.ceil(k / (n - 2 * k)) + 1
        assert diameter_by_orbits(kg.graph, known_group(kg)) == expected, (n, k)


def test_diameter_by_orbits_checks_its_input():
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    swap = PermutationGroup(((2, 3, 0, 1),), 4)
    with pytest.raises(DisconnectedError):
        diameter_by_orbits(disconnected, swap)
    # a bijection of the path 1-0-2 that is no automorphism: its one orbit
    # would report the eccentricity of the middle vertex 0, which is 1, not 2
    rotation = PermutationGroup(((1, 2, 0),), 3)
    with pytest.raises(StructureError):
        diameter_by_orbits(star_graph(2), rotation)


def test_a_group_of_another_degree_than_the_graph_raises_before_any_work(monkeypatch):
    # the path 3-1-0-2-4 has diameter 4; a degree-1 group's one orbit, {0},
    # would report vertex 0's eccentricity, 2
    path5 = Graph.from_edges(5, [(3, 1), (1, 0), (0, 2), (2, 4)])
    p4 = path_graph(4)
    monkeypatch.setattr(Graph, "is_connected", lambda g: pytest.fail("work was done"))
    for degree in (1, 4, 6):
        with pytest.raises(DomainError, match=f"^a group of degree {degree} does not act "
                                              "on the 5 vertices of the graph$"):
            diameter_by_orbits(path5, PermutationGroup((), degree))
    for degree in (1, 3, 6):
        with pytest.raises(DomainError, match=f"^a group of degree {degree} does not act "
                                              "on the 4 vertices of the graph$"):
            transitivity_report(p4, PermutationGroup((), degree))
    monkeypatch.undo()
    assert diameter_by_orbits(path5, PermutationGroup((), 5)) == path5.diameter() == 4
    assert transitivity_report(p4, PermutationGroup((), 4)).vertex_orbits == 4


def differs(engine_order, product_order):
    # the whole message, as ``aut`` prints it after "claim failed: "
    return (
        f"^engine group \\(order {engine_order}\\) differs from the "
        f"group of the known generators \\(order {product_order}\\)$"
    )


def test_verify_direct_product_h_n_1():
    for n in range(3, 7):
        kg = build_bipartite_kneser(n, 1)
        aut = automorphism_group(kg.graph)
        report = verify_direct_product(kg, aut)
        assert report.sym_group.order == math.factorial(n)
        assert report.product_order == 2 * math.factorial(n) == aut.order


def test_verify_direct_product_h52():
    kg = build_bipartite_kneser(5, 2)
    aut = automorphism_group(kg.graph)
    report = verify_direct_product(kg, aut)
    assert report.product_order == 240


def test_verify_direct_product_detects_bad_order():
    kg = build_bipartite_kneser(4, 1)
    aut = automorphism_group(kg.graph)
    wrong = PermutationGroup(aut.generators, kg.vertex_count, order=aut.order + 1)
    with pytest.raises(StructureError, match=differs(aut.order + 1, aut.order)):
        verify_direct_product(kg, wrong)


def test_verify_direct_product_rejects_an_engine_of_another_degree_before_any_work(monkeypatch):
    # a group with no generators and the right order would pass steps (a)-(d)
    kg = build_bipartite_kneser(4, 1)
    monkeypatch.setattr(symmetry, "sym_generators", lambda kg: pytest.fail("work was done"))
    for degree in (4, 10):
        with pytest.raises(DomainError, match=f"^a group of degree {degree} does not act "
                                              "on the 8 vertices of the graph$"):
            verify_direct_product(kg, PermutationGroup((), degree, order=48))


def test_verify_direct_product_checks_its_maps_on_the_graph():
    # a 2-switch keeps every count, and the closures alone would still pass
    switched = two_switched(build_bipartite_kneser(5, 2))
    with pytest.raises(StructureError, match="not an automorphism"):
        verify_direct_product(switched)


def swap_vertices(vertex_count, u, v):
    images = list(range(vertex_count))
    images[u], images[v] = v, u
    return tuple(images)


@pytest.mark.parametrize("n, k", feasible_parameters(7))
def test_direct_product_membership_matches_the_full_closure(n, k):
    # <known> = S ∪ αS is read off S alone; the oracle enumerates all 2 n! elements
    kg = build_bipartite_kneser(n, k)
    report = verify_direct_product(kg)
    full = group_closure(known_generators(kg))
    assert report.product_order == 2 * report.sym_group.order == full.order
    assert report.sym_group.order == math.factorial(n)
    assert all(report.contains(g) for g in sorted(full.elements))
    engine = automorphism_group(kg.graph)
    assert all(report.contains(g) and g in full for g in engine.generators)
    assert verify_direct_product(kg, engine).product_order == engine.order
    # a transposition of two vertices is no automorphism, and neither is α after it
    for u, v in ((0, 1), (0, kg.side_size), (1, kg.vertex_count - 1)):
        swap = swap_vertices(kg.vertex_count, u, v)
        for g in (swap, compose(report.complement, swap)):
            assert g not in full
            assert not report.contains(g)


def test_direct_product_contains_no_map_that_is_not_a_permutation():
    # as for ``in`` on S: neither S nor αS holds a map of the wrong length, of
    # floats, with an image past the degree, or with a negative image that α's
    # tuple would read from its end
    kg = build_bipartite_kneser(5, 2)
    report = verify_direct_product(kg)
    v, alpha = kg.vertex_count, report.complement
    assert report.contains(alpha) and report.contains(tuple(range(v)))
    for g in (tuple(range(v - 1)), tuple(range(v + 1)), tuple(map(float, range(v))),
              (10**6, *range(1, v)), (alpha[0] - v, *alpha[1:]), None):
        assert not report.contains(g)


@pytest.mark.parametrize("n, k", feasible_parameters(7))
def test_verify_direct_product_rejects_an_engine_group_of_the_wrong_order(n, k):
    # the Sym image alone: each generator lies in S ∪ αS, but its order is n!
    kg = build_bipartite_kneser(n, k)
    sym = PermutationGroup(sym_generators(kg), kg.vertex_count, order=math.factorial(n))
    with pytest.raises(StructureError, match=differs(math.factorial(n), 2 * math.factorial(n))):
        verify_direct_product(kg, sym)


@pytest.mark.parametrize("n, k", feasible_parameters(7))
def test_verify_direct_product_rejects_an_engine_generator_outside_the_product(n, k):
    # the fake engine of the CLI test, on H(3,1) and beyond: the order 2 n! and
    # complementation are right, but the swap of vertices 0 and 1 is no
    # automorphism, so it lies outside S ∪ αS
    kg = build_bipartite_kneser(n, k)
    swap = swap_vertices(kg.vertex_count, 0, 1)
    order = 2 * math.factorial(n)
    fake = PermutationGroup((complement_automorphism(kg), swap), kg.vertex_count, order=order)
    with pytest.raises(StructureError, match=differs(order, order)):
        verify_direct_product(kg, fake)


@pytest.mark.parametrize("n, k", feasible_parameters(7))
def test_sym_image_chain_level_matches_the_full_closure(n, k):
    # S is held as the orbit of vertex 0 and its stabilizer, closed from the
    # Schreier generators; the oracle enumerates all n! elements of S
    kg = build_bipartite_kneser(n, k)
    level = verify_direct_product(kg).sym_group
    full = group_closure(sym_generators(kg))
    assert level.order == full.order == math.factorial(n)
    assert all(g[0] == 0 for g in level.stabilizer.generators)
    assert level.stabilizer.elements == stabilizer(full, 0).elements
    assert level.stabilizer.order == math.factorial(k) * math.factorial(n - k)
    # every element is a member; α after one maps 0 off the orbit, a vertex
    # swap after one keeps 0 in it, and neither is a member
    alpha = complement_automorphism(kg)
    swap = swap_vertices(kg.vertex_count, 1, kg.vertex_count - 1)
    for g in sorted(full.elements):
        g = tuple(g)
        assert g in level
        assert compose(alpha, g) not in level
        assert compose(swap, g) not in level


def test_verify_direct_product_makes_one_closure_of_the_stabilizer(monkeypatch):
    # the one closure is the stabilizer of vertex 0 in S, 2! 4! = 48 elements, not 6! = 720
    sizes = []
    original = perms.closure_images

    def spy(generator_images, degree, order_cap):
        elements = original(generator_images, degree, order_cap)
        sizes.append(len(elements))
        return elements

    kg = build_bipartite_kneser(6, 2)
    engine = automorphism_group(kg.graph)  # certified, so its order needs no closure
    monkeypatch.setattr(perms, "closure_images", spy)
    report = verify_direct_product(kg, engine)
    assert sizes == [48]
    assert (report.product_order, engine.order) == (1440, 1440)


def test_verify_direct_product_is_capped_at_the_sym_image():
    # the cap bounds the one closure, the 48 elements of the stabilizer of vertex 0 in S
    kg = build_bipartite_kneser(6, 2)
    assert verify_direct_product(kg, order_cap=48).product_order == 1440
    with pytest.raises(OrderCapExceeded, match="cap of 47 elements"):
        verify_direct_product(kg, order_cap=47)


def test_verify_direct_product_rejects_a_sym_image_of_the_wrong_order(monkeypatch):
    # f_(1 2) twice generates a group of order 2: its orbit of vertex 0 and
    # stabilizer multiply to 2, not 5! = 120
    monkeypatch.setattr(symmetry, "sym_generators", lambda kg: (sym_generators(kg)[0],) * 2)
    with pytest.raises(StructureError, match=r"^step \(a\): induced Sym image has order 2, "):
        verify_direct_product(build_bipartite_kneser(5, 2))


def test_verify_direct_product_rejects_a_complementation_inside_sym(monkeypatch):
    monkeypatch.setattr(symmetry, "complement_automorphism", lambda kg: sym_generators(kg)[0])
    with pytest.raises(StructureError, match=r"step \(b\)"):
        verify_direct_product(build_bipartite_kneser(5, 2))


def test_verify_direct_product_rejects_a_non_involution(monkeypatch):
    # α∘f_(1 2 ... n) is an automorphism outside S, but its square is f_cycle^2
    def alpha_after_cycle(kg):
        return compose(complement_automorphism(kg), sym_generators(kg)[1])

    monkeypatch.setattr(symmetry, "complement_automorphism", alpha_after_cycle)
    with pytest.raises(StructureError, match=r"step \(c\): .* not an involution"):
        verify_direct_product(build_bipartite_kneser(5, 2))


def test_alpha_conjugation_fixes_sym_elements():
    # elementwise commutation: conjugating by complementation is the identity
    kg = build_bipartite_kneser(4, 1)
    alpha = complement_automorphism(kg)
    sym_image = group_closure(list(sym_generators(kg)))
    rng = random.Random(4100)
    for _ in range(100):
        kappa = tuple(rng.choice(sorted(sym_image.elements)))
        assert compose(compose(alpha, kappa), inverse(alpha)) == kappa


def enumerated_aut(graph):
    """Aut(graph) from the engine, enumerated by an explicit closure of its generators."""
    engine = automorphism_group(graph)
    return group_closure(engine.generators, degree=engine.degree)


def test_find_regular_subgroup_h41():
    kg = build_bipartite_kneser(4, 1)
    aut = enumerated_aut(kg.graph)
    result = find_regular_subgroup(aut)
    assert result.subgroup is not None
    assert result.subgroup.order == 8


def test_find_regular_subgroup_h52_none():
    kg = build_bipartite_kneser(5, 2)
    aut = enumerated_aut(kg.graph)
    result = find_regular_subgroup(aut)
    assert result.subgroup is None
    assert "not a proof" in SEARCH_CAVEAT


def test_find_regular_subgroup_k2():
    k2 = complete_graph(2)
    aut = enumerated_aut(k2)
    result = find_regular_subgroup(aut)
    assert result.subgroup is not None and result.subgroup.order == 2


def test_find_regular_subgroup_matches_the_two_phase_scan():
    # the identity row of the pair scan replaces the cyclic pass, in the same order
    rotation = tuple((i + 1) % 6 for i in range(6))
    cases = [(group_closure([rotation]), 6), (enumerated_aut(Graph(1, [()])), 1)]
    for n, k in feasible_parameters(5) + [(6, 1), (7, 1)]:
        kg = build_bipartite_kneser(n, k)
        cases.append((enumerated_aut(kg.graph), kg.vertex_count))
    for group, vertex_count in cases:
        subgroup = find_regular_subgroup(group).subgroup
        found = None if subgroup is None else subgroup.elements
        assert found == two_phase_regular_subgroup(group, vertex_count), vertex_count


def test_find_regular_subgroup_matches_the_scan_over_every_row():
    # skipping rows whose element is not least in its conjugacy class keeps
    # the first hit; the 3-cube, K_{4,4} minus a perfect matching, has no
    # cyclic regular group, so its hit is not in the identity row
    cube = Graph.from_edges(8, [(i, 4 + j) for i in range(4) for j in range(4) if i != j])
    cases = [(cube, 8), (petersen_graph(), 10), (complete_bipartite(2, 3), 5)]
    cases = [(enumerated_aut(g), count) for g, count in cases]
    for n, k in feasible_parameters(6) + [(7, 1), (7, 2)]:
        kg = build_bipartite_kneser(n, k)
        cases.append((enumerated_aut(kg.graph), kg.vertex_count))
    pruned = 0
    for group, vertex_count in cases:
        search = find_regular_subgroup(group)
        found = None if search.subgroup is None else search.subgroup.elements
        expected, checked = every_row_regular_subgroup(group, vertex_count)
        assert found == expected, vertex_count
        assert search.candidates_checked <= checked, vertex_count
        pruned += search.candidates_checked < checked
    assert found is not None and pruned >= 3  # H(7,2) is Cayley; the cube, Petersen, H(5,2) pruned


def test_find_regular_subgroup_tests_candidates_only_as_far_as_it_reads(monkeypatch):
    tested = []
    monkeypatch.setattr(symmetry, "is_semiregular", lambda p: tested.append(p) or is_semiregular(p))
    for n, k in [(7, 1), (5, 2)]:
        aut = enumerated_aut(build_bipartite_kneser(n, k).graph)
        tested.clear()
        search = find_regular_subgroup(aut)
        assert tested == sorted(aut.elements)[:len(tested)], (n, k)  # in order, each once
        if search.subgroup is None:  # H(5,2): every row is scanned to its end
            assert len(tested) == aut.order
        else:  # H(7,1): Z_14 is found in the identity row, before the last elements
            assert len(tested) < aut.order


def test_find_regular_subgroup_needs_its_generators_among_its_elements():
    group = PermutationGroup([(1, 0, 2)], 3, elements=frozenset([bytes(range(3))]))
    with pytest.raises(StructureError, match="not one of its elements"):
        find_regular_subgroup(group)


def test_find_regular_subgroup_preconditions():
    kg = build_bipartite_kneser(3, 1)
    with pytest.raises(NeedEnumerationError):
        find_regular_subgroup(known_group(kg))  # not enumerated
    with pytest.raises(NeedEnumerationError):
        find_regular_subgroup(automorphism_group(kg.graph))  # a certified order only


def test_regular_subgroups_found_are_semiregular():
    # a regular group's elements other than the identity fix no point
    rows = 0
    for n, k in feasible_parameters(5) + [(6, 1), (7, 1)]:
        kg = build_bipartite_kneser(n, k)
        subgroup = find_regular_subgroup(enumerated_aut(kg.graph)).subgroup
        if subgroup is None:
            continue
        rows += 1
        assert subgroup.order == kg.vertex_count
        assert all(is_semiregular(g) for g in subgroup.elements), (n, k)
    assert rows == 5  # every H(n,1) here; H(5,2) has no hit


def test_explore_question2_rows():
    rows = {(r.n, r.k): r for r in explore_question2(5)}
    assert rows[(4, 1)].aut_order == 48
    assert rows[(4, 1)].comparison == "equal"
    assert rows[(5, 2)].aut_order == 240
    assert rows[(5, 2)].comparison == "equal"
    assert set(rows) == {(3, 1), (4, 1), (5, 1), (5, 2)}


def test_explore_question2_skips_oversized(monkeypatch):
    # H(3,1) needs 12 units of work per node, H(5,2) 50
    monkeypatch.setattr(autgroup, "WORK_LIMIT", 200)
    rows = explore_question2(5)
    skipped = [r for r in rows if r.comparison == "skipped"]
    assert skipped and len(skipped) < len(rows)
    assert all(r.skip_reason.endswith("exceeds the work limit of 200") for r in skipped)
    table = question2_table(rows)
    assert "evidence only" in table


def test_explore_question2_at_n9():
    # the certified order needs no closure, so the 2 * 9! groups are not
    # capped, and H(9,3) and H(9,4) are well inside the engine's work limit
    rows = {(r.n, r.k): r for r in explore_question2(9) if r.n == 9}
    for k in (1, 2, 3, 4):
        assert rows[(9, k)].comparison == "equal"
        assert rows[(9, k)].aut_order == 2 * math.factorial(9)


def test_explore_question1_skips_groups_above_the_cap():
    # the search enumerates Aut, so a group above the cap is a skipped row,
    # which keeps the order the engine certified
    rows = {(r.n, r.k): r for r in explore_question1(5, order_cap=100)}
    assert rows[(4, 1)].aut_order == 48 and rows[(4, 1)].regular_subgroup_order == 8
    for key in ((5, 1), (5, 2)):
        assert rows[key].verdict == "skipped"
        assert rows[key].skip_reason == "group closure exceeded the cap of 100 elements"
        assert rows[key].aut_order == 240
        assert rows[key].regular_subgroup_order is None


def test_explore_question1_skips_an_order_above_the_cap_before_any_closure(monkeypatch):
    # Aut(H(9,1)) has order 2 * 9! = 725,760; the order alone exceeds the cap
    def no_closure_on_h91(generator_images, degree, order_cap):
        if degree == 18:
            raise AssertionError("the closure ran")
        return closure_images(generator_images, degree, order_cap)

    closure_images = perms.closure_images
    for module in (perms, autgroup, symmetry):
        monkeypatch.setattr(module, "closure_images", no_closure_on_h91)
    rows = explore_question1(9, k_max=1, order_cap=100_000)
    assert [(r.n, r.verdict) for r in rows if r.verdict == "skipped"] == [(9, "skipped")]
    h91 = rows[-1]
    assert h91.aut_order == 2 * math.factorial(9)
    assert h91.skip_reason == "group closure exceeded the cap of 100000 elements"
    assert rows[-2].aut_order == 2 * math.factorial(8)  # H(8,1) is enumerated and searched
    assert rows[-2].regular_subgroup_order == 16


@pytest.mark.parametrize("claimed", [6, 24], ids=["below", "above"])
def test_explore_question1_rejects_a_closure_of_another_size(monkeypatch, claimed):
    # Aut(H(3,1)) has 12 elements; a certified order that differs is a bug
    def misordered(graph, order_cap):
        engine = automorphism_group(graph, order_cap)
        return PermutationGroup(engine.generators, engine.degree, order=claimed)

    monkeypatch.setattr(symmetry, "automorphism_group", misordered)
    message = f"close to 12 elements, but its order is {claimed}"
    with pytest.raises(StructureError, match=message):
        explore_question1(3)


def test_explore_question1_smoke():
    rows = {(r.n, r.k): r for r in explore_question1(5)}
    assert rows[(4, 1)].regular_subgroup_order == 8
    assert rows[(5, 2)].regular_subgroup_order is None
    assert "not exhaustive" in rows[(5, 2)].verdict


def test_explore_question1_verdicts_to_n7():
    # pinned: every H(n,1) is Cayley, and so is H(7,2), where x -> ax + b over
    # Z_7 with a a nonzero square acts regularly on the 2-subsets; H(5,2),
    # H(6,2) and H(7,3) have no regular subgroup on at most 2 generators
    found = {(3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (7, 2)}
    rows = explore_question1(7)
    assert [(r.n, r.k) for r in rows] == feasible_parameters(7)
    for r in rows:
        assert r.aut_order == 2 * math.factorial(r.n)
        if (r.n, r.k) in found:
            assert r.regular_subgroup_order == r.vertices == 2 * binomial(r.n, r.k)
            assert r.verdict.startswith("regular subgroup found"), (r.n, r.k)
        else:
            assert r.regular_subgroup_order is None
            assert "not a proof (search not exhaustive)" in r.verdict, (r.n, r.k)


def test_transitivity_report_counts_match_direct_orbits(corpus):
    # the report reads vertex, edge and arc orbits off the ordered-pair partition,
    # and each orbit's distance off one BFS row; the oracle is the full distance
    # matrix, on which every pair of an orbit must have the same distance
    cases = [(g, automorphism_group(g)) for g in corpus.values() if g.is_connected()]
    rotation = tuple((i + 1) % 6 for i in range(6))
    cases.append((cycle_graph(6), PermutationGroup(generators=(rotation,), degree=6)))
    for n, k in feasible_parameters(7):
        kg = build_bipartite_kneser(n, k)
        cases.append((kg.graph, known_group(kg)))
    for graph, group in cases:
        report = transitivity_report(graph, group)
        assert report.vertex_orbits == len(orbits_on_vertices(group))
        assert report.edge_orbits == len(orbits_on_unordered_pairs(group, graph.edges()))
        assert report.arc_orbits == len(orbits_on_ordered_pairs(group, graph.arcs()))
        dist = [graph.bfs_distances(v) for v in range(graph.vertex_count)]
        pair_orbs = orbits_on_ordered_pairs(group)
        orbit_distance = []
        for orb in pair_orbs:
            values = {dist[u][v] for u, v in orb}
            assert len(values) == 1
            orbit_distance.append(values.pop())
        distinct = len(set(orbit_distance))
        assert report.pair_orbits == len(pair_orbs)
        assert report.distance_values == distinct
        assert report.distance_transitive == (len(pair_orbs) == distinct)


def test_transitive_groups_take_the_vertex_orbit_count_off_the_schreier_vector(
    corpus, monkeypatch
):
    # one BFS from vertex 0 reaches every vertex of a transitive group, so the
    # vertex orbits are counted only when it does not
    calls = []
    original = symmetry.orbits_on_vertices

    def spy(group):
        calls.append(group.degree)
        return original(group)

    monkeypatch.setattr(symmetry, "orbits_on_vertices", spy)
    cases = [(g, automorphism_group(g)) for g in corpus.values() if g.is_connected()]
    for n, k in feasible_parameters(8):
        kg = build_bipartite_kneser(n, k)
        cases.append((kg.graph, known_group(kg)))
    for graph, group in cases:
        report = transitivity_report(graph, group)
        expected = len(original(group))
        assert report.vertex_orbits == expected
        assert calls == ([] if expected == 1 else [graph.vertex_count])
        calls.clear()


def spy_on_the_pair_path(monkeypatch):
    """A list that gets one entry each time a report partitions all ordered pairs."""
    calls = []
    original = symmetry.orbits_on_ordered_pairs

    def spy(group, pairs=None):
        if pairs is None:
            calls.append(group.degree)
        return original(group, pairs)

    monkeypatch.setattr(symmetry, "orbits_on_ordered_pairs", spy)
    return calls


def test_certified_suborbits_match_the_pair_path(monkeypatch):
    # with the stabilizer generators the report reads the certified suborbits;
    # the known generators alone fix vertex 0 with too few of them, so that
    # report partitions all ordered pairs, which is the oracle
    calls = spy_on_the_pair_path(monkeypatch)
    for n, k in feasible_parameters(7):
        kg = build_bipartite_kneser(n, k)
        full = PermutationGroup(known_generators(kg) + stabilizer_generators(kg), kg.vertex_count)
        fast = transitivity_report(kg.graph, full)
        assert calls == [], (n, k)
        assert fast == transitivity_report(kg.graph, known_group(kg)), (n, k)
        assert calls == [kg.vertex_count], (n, k)
        calls.clear()


def test_partial_stabilizer_falls_back_to_the_pair_path(monkeypatch):
    # the first stabilizer generator alone generates less than the stabilizer
    # of vertex 0, so the suborbits are not certified
    calls = spy_on_the_pair_path(monkeypatch)
    for n, k in feasible_parameters(7):
        if n < 4:
            continue  # in H(3,1) the first stabilizer generator is the whole stabilizer
        kg = build_bipartite_kneser(n, k)
        gens = known_generators(kg) + stabilizer_generators(kg)[:1]
        report = transitivity_report(kg.graph, PermutationGroup(gens, kg.vertex_count))
        assert calls == [kg.vertex_count], (n, k)
        assert report == transitivity_report(kg.graph, known_group(kg)), (n, k)
        calls.clear()


def shrikhande_graph():
    points = [(a, b) for a in range(4) for b in range(4)]
    steps = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    edges = {tuple(sorted((4 * a + b, 4 * ((a + s) % 4) + (b + t) % 4)))
             for a, b in points for s, t in steps}
    return Graph.from_edges(16, sorted(edges))


def test_coarse_refinement_falls_back_to_the_pair_path(monkeypatch):
    # the Shrikhande graph is strongly regular, so refinement from a vertex
    # stops at 3 cells, but its stabilizer has 4 orbits: the full group's
    # generators fixing 0 are not certified, and the pair path runs
    calls = spy_on_the_pair_path(monkeypatch)
    graph = shrikhande_graph()
    aut = automorphism_group(graph)
    assert aut.order == 192
    report = transitivity_report(graph, aut)
    assert calls == [16]
    assert report.arc_transitive and not report.distance_transitive
    assert (report.pair_orbits, report.distance_values) == (4, 3)


def doyle_holt_graph():
    """Vertices (x, y) of Z_9 x Z_3 as 3x + y, with (x, y) ~ (4x +- 1, y + 1)."""
    edges = {tuple(sorted((3 * x + y, 3 * ((4 * x + s) % 9) + (y + 1) % 3)))
             for x in range(9) for y in range(3) for s in (1, -1)}
    return Graph.from_edges(27, sorted(edges))


def prism_graph():
    """Two triangles joined by a matching: two edge orbits, each arc orbit self-paired."""
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                (0, 3), (1, 4), (2, 5)])


def test_certified_arc_and_edge_orbits_match_the_pair_walks(corpus, monkeypatch):
    # the certified path counts arc orbits out of 0 and pairs them through a
    # Schreier vector; the oracle walks every arc and every edge
    calls = spy_on_the_pair_path(monkeypatch)
    cases = [(name, g, automorphism_group(g)) for name, g in corpus.items() if g.is_connected()]
    for n, k in feasible_parameters(10):
        kg = build_bipartite_kneser(n, k)
        group = PermutationGroup(known_generators(kg) + stabilizer_generators(kg),
                                 kg.vertex_count)
        cases.append((f"H({n},{k})", kg.graph, group))
    cases.append(("doyle_holt", doyle_holt_graph(), automorphism_group(doyle_holt_graph())))
    cases.append(("prism", prism_graph(), automorphism_group(prism_graph())))
    # no generator fixes 0: the arc orbits come from an empty generator list
    cases.append(("K2 under <(0 1)>", complete_graph(2), PermutationGroup([(1, 0)], 2)))
    for name, graph, group in cases:
        report = transitivity_report(graph, group)
        assert report.arc_orbits == len(orbits_on_ordered_pairs(group, graph.arcs())), name
        assert report.edge_orbits == len(orbits_on_unordered_pairs(group, graph.edges())), name
        # every vertex-transitive case here has its suborbits certified; the
        # paths, star3, star4 and K23 are not transitive and walk
        assert (calls == []) == report.vertex_transitive, name
        calls.clear()


def test_doyle_holt_pairing_merges_two_arc_orbits(monkeypatch):
    # the Doyle-Holt graph is half-arc-transitive: its two arc orbits are
    # paired, the reverse of each arc lying in the other, so one edge orbit
    calls = spy_on_the_pair_path(monkeypatch)
    graph = doyle_holt_graph()
    aut = automorphism_group(graph)
    assert aut.order == 54
    report = transitivity_report(graph, aut)
    assert calls == []
    assert (report.arc_orbits, report.edge_orbits) == (2, 1)
    assert report.vertex_transitive and report.edge_transitive
    assert not report.arc_transitive


def test_a_schreier_vector_that_misses_a_vertex_raises():
    # parent is -1 off the orbit; the walk up the tree stops there and raises,
    # where reading parent[-1] would walk on from the last vertex's parent
    kg = build_bipartite_kneser(5, 2)
    group = PermutationGroup(known_generators(kg) + stabilizer_generators(kg), kg.vertex_count)
    fixing = [g for g in group.generators if g[0] == 0]
    parent, via, _ = symmetry._schreier_vector(group.generators, group.degree)
    arcs = orbits_on_ordered_pairs(PermutationGroup(fixing, group.degree),
                                   [(0, w) for w in kg.graph.neighbours[0]])
    missed = arcs[0][0][1]
    parent[missed] = -1
    with pytest.raises(StructureError,
                       match=f"^the Schreier vector from 0 does not reach vertex {missed}$"):
        symmetry._arc_and_edge_orbits(kg.graph, group, fixing, parent, via)


def test_suborbit_and_arc_counts_must_agree(monkeypatch):
    # a second arc orbit, injected, contradicts the one suborbit at distance 1
    original = symmetry.orbits_on_ordered_pairs

    def one_orbit_too_many(group, pairs=None):
        return original(group, pairs) + [((0, 0),)]

    monkeypatch.setattr(symmetry, "orbits_on_ordered_pairs", one_orbit_too_many)
    kg = build_bipartite_kneser(5, 2)
    group = PermutationGroup(known_generators(kg) + stabilizer_generators(kg), kg.vertex_count)
    with pytest.raises(StructureError, match="suborbits at distance 1"):
        transitivity_report(kg.graph, group)


HASH_SEED_PROBE = """
from bkneser import automorphism_group, build_bipartite_kneser, find_regular_subgroup, group_closure
from oracles import stabilizer
engine = automorphism_group(build_bipartite_kneser(5, 1).graph)
aut = group_closure(engine.generators, degree=engine.degree)
search = find_regular_subgroup(aut)
print(search.candidates_checked, search.subgroup.generators)
print(stabilizer(aut, 0).generators)
"""


def test_results_do_not_depend_on_the_hash_seed():
    # element sets hash bytes, whose hashes change with PYTHONHASHSEED; every
    # loop over one must sort it first
    here = Path(__file__).parent
    paths = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        done = subprocess.run([sys.executable, "-c", HASH_SEED_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 2
