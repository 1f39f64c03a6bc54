import math
import random

import pytest

from bkneser import (
    PermutationGroup,
    automorphism_group,
    build_bipartite_kneser,
    complement_automorphism,
    compose,
    explore_question1,
    explore_question2,
    find_regular_subgroup,
    group_closure,
    inverse,
    is_arc_transitive,
    is_distance_transitive,
    is_edge_transitive,
    is_vertex_transitive,
    known_generators,
    orbits_on_ordered_pairs,
    orbits_on_unordered_pairs,
    orbits_on_vertices,
    sym_generators,
    transitivity_report,
    verify_direct_product,
)
from bkneser.errors import DisconnectedError, DomainError, StructureError
from bkneser.symmetry import feasible_parameters, question2_table
from conftest import complete_graph, cycle_graph, path_graph, star_graph


def known_group(kg):
    return PermutationGroup(generators=known_generators(kg), degree=kg.vertex_count)


def test_vertex_transitive_examples():
    kg = build_bipartite_kneser(6, 2)
    assert is_vertex_transitive(kg.graph, known_group(kg))

    star = star_graph(3)
    assert not is_vertex_transitive(star, automorphism_group(star))

    c6 = cycle_graph(6)
    rotation = tuple((i + 1) % 6 for i in range(6))
    assert is_vertex_transitive(c6, PermutationGroup(generators=(rotation,), degree=6))


def test_edge_and_arc_transitive_examples():
    kg = build_bipartite_kneser(5, 2)
    group = known_group(kg)
    assert is_arc_transitive(kg.graph, group)
    assert is_edge_transitive(kg.graph, group)

    p3 = path_graph(3)
    p3_group = automorphism_group(p3)
    assert not is_arc_transitive(p3, p3_group)

    star = star_graph(3)
    star_group = automorphism_group(star)
    assert is_edge_transitive(star, star_group)
    assert not is_arc_transitive(star, star_group)


def test_distance_transitive_examples():
    for n in range(3, 7):
        kg = build_bipartite_kneser(n, 1)
        assert is_distance_transitive(kg.graph, known_group(kg))

    c6 = cycle_graph(6)
    assert is_distance_transitive(c6, automorphism_group(c6))

    star = star_graph(3)
    assert not is_distance_transitive(star, automorphism_group(star))


def test_distance_transitive_needs_connected():
    g = complete_graph(3)
    adjacency = list(g.adjacency) + [0]
    disconnected = type(g)(4, adjacency)
    with pytest.raises(DisconnectedError):
        is_distance_transitive(disconnected, automorphism_group(disconnected))


def test_pair_orbits_have_constant_distance_even_for_subgroups():
    # the rotation subgroup of C6 is far from the full group, yet every
    # pair orbit sits inside one distance class
    c6 = cycle_graph(6)
    rotation = tuple((i + 1) % 6 for i in range(6))
    group = PermutationGroup(generators=(rotation,), degree=6)
    assert not is_distance_transitive(c6, group)  # 6 orbits vs 4 distances


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
    for check in (is_vertex_transitive, is_edge_transitive, is_arc_transitive,
                  is_distance_transitive, transitivity_report):
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


def test_verify_direct_product_h_n_1():
    for n in range(3, 7):
        kg = build_bipartite_kneser(n, 1)
        aut = automorphism_group(kg.graph)
        report = verify_direct_product(kg, aut.order)
        assert report.sym_closure_order == math.factorial(n)
        assert report.product_order == 2 * math.factorial(n) == aut.order


def test_verify_direct_product_h52():
    kg = build_bipartite_kneser(5, 2)
    aut = automorphism_group(kg.graph)
    report = verify_direct_product(kg, aut.order)
    assert report.product_order == 240


def test_verify_direct_product_detects_bad_order():
    kg = build_bipartite_kneser(4, 1)
    aut = automorphism_group(kg.graph)
    with pytest.raises(StructureError, match=r"step \(d\)"):
        verify_direct_product(kg, aut.order + 1)


def test_alpha_conjugation_fixes_sym_elements():
    # elementwise commutation: conjugating by complementation is the identity
    kg = build_bipartite_kneser(4, 1)
    alpha = complement_automorphism(kg)
    sym_image = group_closure(list(sym_generators(kg)))
    rng = random.Random(4100)
    for _ in range(100):
        kappa = rng.choice(sym_image.elements)
        assert compose(compose(alpha, kappa), inverse(alpha)) == kappa


def test_find_regular_subgroup_h41():
    kg = build_bipartite_kneser(4, 1)
    aut = automorphism_group(kg.graph)
    result = find_regular_subgroup(aut, kg.vertex_count)
    assert result.subgroup is not None
    assert result.subgroup.order == 8


def test_find_regular_subgroup_h52_none():
    kg = build_bipartite_kneser(5, 2)
    aut = automorphism_group(kg.graph)
    result = find_regular_subgroup(aut, kg.vertex_count)
    assert result.subgroup is None
    assert "not a proof" in result.caveat


def test_find_regular_subgroup_k2():
    k2 = complete_graph(2)
    aut = automorphism_group(k2)
    result = find_regular_subgroup(aut, 2)
    assert result.subgroup is not None and result.subgroup.order == 2


def test_find_regular_subgroup_preconditions():
    kg = build_bipartite_kneser(3, 1)
    with pytest.raises(DomainError):
        find_regular_subgroup(known_group(kg), 6)  # not enumerated


def test_explore_question2_rows():
    rows = {(r.n, r.k): r for r in explore_question2(5)}
    assert rows[(4, 1)].aut_order == 48
    assert rows[(4, 1)].comparison == "equal"
    assert rows[(5, 2)].aut_order == 240
    assert rows[(5, 2)].comparison == "equal"
    assert set(rows) == {(3, 1), (4, 1), (5, 1), (5, 2)}


def test_explore_question2_skips_oversized():
    rows = explore_question2(5, size_limit=8)
    skipped = [r for r in rows if r.comparison == "skipped"]
    assert skipped and all(r.skip_reason for r in skipped)
    table = question2_table(rows)
    assert "evidence only" in table


def test_explore_question1_smoke():
    rows = {(r.n, r.k): r for r in explore_question1(5)}
    assert rows[(4, 1)].regular_subgroup_order == 8
    assert rows[(5, 2)].regular_subgroup_order is None
    assert "not exhaustive" in rows[(5, 2)].verdict


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
