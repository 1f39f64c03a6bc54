import random

import pytest

from bkneser import (
    Graph,
    are_isomorphic,
    automorphism_group,
    build_bipartite_kneser,
    explicit_iso_Hn1,
    group_closure,
    known_generators,
)
from bkneser.autgroup import _refine
from bkneser.errors import SizeLimitError
from bkneser.perms import is_graph_automorphism
from conftest import complete_graph, cycle_graph, star_graph
from oracles import brute_force_automorphism_order, brute_isomorphism


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_refinement_regular_graph_stays_unit():
    c6 = cycle_graph(6)
    assert _refine(c6.adjacency, [tuple(range(6))]) == [(0, 1, 2, 3, 4, 5)]


def test_refinement_star_splits_by_degree():
    refined = _refine(star_graph(3).adjacency, [(0, 1, 2, 3)])
    assert set(refined) == {(0,), (1, 2, 3)}


def test_refinement_idempotent_and_refines():
    rng = random.Random(12021)
    for _ in range(100):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.random())
        once = _refine(g.adjacency, [tuple(range(n))])
        twice = _refine(g.adjacency, once)
        assert once == twice
        # every refined cell sits inside one original cell (trivially the
        # unit cell here); also check against a random two-cell start
        if n >= 2:
            split = rng.randint(1, n - 1)
            start = [tuple(range(split)), tuple(range(split, n))]
            refined = _refine(g.adjacency, start)
            for cell in refined:
                assert set(cell) <= set(range(split)) or set(cell) <= set(range(split, n))


def test_automorphism_group_examples():
    assert automorphism_group(cycle_graph(6)).order == 12
    assert automorphism_group(build_bipartite_kneser(4, 1).graph).order == 48
    assert automorphism_group(build_bipartite_kneser(5, 2).graph).order == 240


def test_automorphism_group_petersen():
    assert automorphism_group(Graph.from_edges(10, [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    ])).order == 120


def test_size_limit():
    with pytest.raises(SizeLimitError):
        automorphism_group(cycle_graph(6), size_limit=5)
    with pytest.raises(SizeLimitError):
        brute_force_automorphism_order(cycle_graph(9))


def test_engine_matches_brute_force(corpus):
    for name, graph in corpus.items():
        if graph.vertex_count > 8:
            continue
        assert (
            automorphism_group(graph).order == brute_force_automorphism_order(graph)
        ), f"engine disagrees with brute force on {name}"


def test_engine_generators_preserve_adjacency(corpus):
    for graph in corpus.values():
        if graph.vertex_count > 12:
            continue
        for gen in automorphism_group(graph).generators:
            assert is_graph_automorphism(graph, gen)


def test_engine_order_matches_known_generators():
    for n in range(3, 7):
        kg = build_bipartite_kneser(n, 1)
        engine = automorphism_group(kg.graph)
        closure = group_closure(known_generators(kg))
        assert engine.order == closure.order
        assert set(engine.elements) == set(closure.elements)


def test_group_orders_match_sympy():
    # an order oracle that shares nothing with closure_images
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for n in range(3, 8):
        for k in range(1, (n - 1) // 2 + 1):
            kg = build_bipartite_kneser(n, k)
            engine = automorphism_group(kg.graph)
            oracle = combinatorics.PermutationGroup(
                [combinatorics.Permutation(list(g)) for g in engine.generators]
            ).order()
            assert engine.order == oracle, (n, k)
            assert group_closure(known_generators(kg)).order == oracle, (n, k)


def test_isomorphic_h31_c6_matches_direct_search():
    h31 = build_bipartite_kneser(3, 1).graph
    c6 = cycle_graph(6)
    mapping = are_isomorphic(h31, c6)
    oracle = brute_isomorphism(h31, c6)
    assert mapping is not None and oracle is not None
    for u, v in h31.edges():
        assert c6.has_edge(mapping[u], mapping[v])


def test_isomorphic_hn1_and_cayley():
    for n in range(3, 9):
        iso = explicit_iso_Hn1(n)
        assert are_isomorphic(iso.kneser.graph, iso.cayley) is not None


def test_non_isomorphic_pairs():
    assert are_isomorphic(complete_graph(4), cycle_graph(4)) is None
    # same degree sequence, different structure: C6 vs two triangles
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert are_isomorphic(cycle_graph(6), two_triangles) is None


def test_isomorphism_is_symmetric(corpus):
    pairs = [("C6", "H31"), ("C4", "K4"), ("star3", "P4"), ("K23", "C5")]
    for a, b in pairs:
        forward = are_isomorphic(corpus[a], corpus[b]) is not None
        backward = are_isomorphic(corpus[b], corpus[a]) is not None
        assert forward == backward


def test_isomorphic_after_relabeling():
    rng = random.Random(887)
    for _ in range(20):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, 0.4)
        relabel = rng.sample(range(n), n)
        h = Graph.from_edges(n, [(relabel[u], relabel[v]) for u, v in g.edges()])
        mapping = are_isomorphic(g, h)
        assert mapping is not None
        for u, v in g.edges():
            assert h.has_edge(mapping[u], mapping[v])


def test_isomorphism_handles_disconnected_graphs():
    g1 = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4), (2, 4)])  # K2 + C3
    g2 = Graph.from_edges(5, [(3, 4), (0, 1), (1, 2), (0, 2)])  # C3 + K2
    assert are_isomorphic(g1, g2) is not None
    g3 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])  # P5
    assert are_isomorphic(g1, g3) is None


def test_isomorphism_size_limit():
    with pytest.raises(SizeLimitError):
        are_isomorphic(cycle_graph(6), cycle_graph(6), size_limit=5)


def test_aut_of_dense_graph_uses_complement_safely():
    # K5 minus one edge: Aut = Sym(2) x Sym(3), order 12
    g = complete_graph(5)
    adjacency = list(g.adjacency)
    adjacency[0] ^= 1 << 1
    adjacency[1] ^= 1 << 0
    dense = Graph(5, adjacency)
    assert automorphism_group(dense).order == 12 == brute_force_automorphism_order(dense)
