import math
import random
import sys

import pytest

from bkneser import (
    Graph,
    automorphism_group,
    build_bipartite_kneser,
    explicit_iso_Hn1,
    group_closure,
    known_generators,
)
from bkneser import autgroup
from bkneser.autgroup import _lower_bound, refine
from bkneser.errors import (
    NeedEnumerationError,
    OrderCapExceeded,
    SizeLimitError,
    StructureError,
)
from bkneser.perms import (
    closure_images,
    complement_automorphism,
    is_graph_automorphism,
    is_isomorphism,
)
from bkneser.symmetry import feasible_parameters
from conftest import complete_graph, cycle_graph, star_graph
from oracles import (
    are_isomorphic,
    brute_force_automorphism_order,
    brute_isomorphism,
    full_round_refinement,
)


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_refinement_regular_graph_stays_unit():
    c6 = cycle_graph(6)
    assert refine(c6, [tuple(range(6))]) == [(0, 1, 2, 3, 4, 5)]


def test_refinement_star_splits_by_degree():
    refined = refine(star_graph(3), [(0, 1, 2, 3)])
    assert set(refined) == {(0,), (1, 2, 3)}


def test_refinement_idempotent_and_refines():
    rng = random.Random(12021)
    for _ in range(100):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.random())
        once = refine(g, [tuple(range(n))])
        twice = refine(g, once)
        assert once == twice
        # every refined cell sits inside one original cell (trivially the
        # unit cell here); also check against a random two-cell start
        if n >= 2:
            split = rng.randint(1, n - 1)
            start = [tuple(range(split)), tuple(range(split, n))]
            refined = refine(g, start)
            for cell in refined:
                assert set(cell) <= set(range(split)) or set(cell) <= set(range(split, n))


def is_equitable(graph, cells):
    sets = [set(cell) for cell in cells]
    return all(len({len(sets[i].intersection(graph.neighbours[v])) for v in cell}) == 1
               for cell in cells for i in range(len(sets)))


def refinement_graphs(corpus):
    graphs = dict(corpus)
    for n, k in feasible_parameters(8):
        graphs[f"H({n},{k})"] = build_bipartite_kneser(n, k).graph
    return graphs


def random_ordered_partition(rng, n):
    """A random partition of 0..n-1 into at most four cells, each in random order."""
    vertices = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(3, n - 1))))
    bounds = [0, *cuts, n]
    return [tuple(vertices[a:b]) for a, b in zip(bounds, bounds[1:])]


def test_refinement_is_equitable_with_the_oracle_cells(corpus):
    # the coarsest equitable refinement is unique as a set of cells, so the
    # splitter queue and the full-round oracle must agree on it; both keep
    # each cell's vertices in their input order, so the cells are compared
    # as tuples
    rng = random.Random(5309)
    for name, graph in refinement_graphs(corpus).items():
        n = graph.vertex_count
        starts = [([tuple(range(n))], None)]
        starts += [([(v,), tuple(w for w in range(n) if w != v)], None) for v in range(n) if n > 1]
        starts += [(random_ordered_partition(rng, n), None) for _ in range(5)]
        # the engine's own call: one vertex split off an equitable partition,
        # with only its new cell queued
        unit = refine(graph, [tuple(range(n))])
        for t, cell in enumerate(unit):
            for v in cell[:3] if len(cell) > 1 else ():
                rest = tuple(w for w in cell if w != v)
                starts.append((unit[:t] + [(v,), rest] + unit[t + 1:], [t]))
        for cells, splitters in starts:
            refined = refine(graph, cells, splitters)
            assert is_equitable(graph, refined), (name, cells)
            assert set(refined) == set(full_round_refinement(graph, cells)), (name, cells)


def test_refinement_commutes_with_relabelling(corpus):
    # every choice depends only on the ordered partition, so relabelling the
    # graph and the input by sigma relabels the output, cell by cell in order
    rng = random.Random(2718)
    for name, graph in refinement_graphs(corpus).items():
        n = graph.vertex_count
        for _ in range(5):
            sigma = rng.sample(range(n), n)
            image = Graph.from_edges(n, [(sigma[u], sigma[v]) for u, v in graph.edges()])
            cells = random_ordered_partition(rng, n)
            moved = [tuple(sigma[v] for v in cell) for cell in cells]
            expected = [tuple(sigma[v] for v in cell) for cell in refine(graph, cells)]
            assert refine(image, moved) == expected, name


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


def cycle_union(*lengths):
    edges = []
    offset = 0
    for length in lengths:
        edges += [(offset + i, offset + (i + 1) % length) for i in range(length)]
        offset += length
    return Graph.from_edges(offset, edges)


@pytest.mark.parametrize("lengths, order", [
    ((3, 4), 6 * 8),
    ((3, 5), 6 * 10),
    ((4, 5), 8 * 10),
    ((6, 3, 3), 12 * 6 * 6 * 2),
    ((4, 4, 3), 8 * 8 * 2 * 6),
    ((7, 6, 5, 4), 14 * 12 * 10 * 8),
], ids=["C3+C4", "C3+C5", "C4+C5", "C6+C3+C3", "C4+C4+C3", "C7+C6+C5+C4"])
def test_order_of_unequal_cycle_unions(lengths, order):
    # refinement cannot tell cycles of different lengths apart, so the
    # search must reject whole sibling subtrees before it finds each generator;
    # without shape pruning C7+C6+C5+C4 takes seconds, with it milliseconds
    assert automorphism_group(cycle_union(*lengths)).order == order


def test_search_does_not_use_the_call_stack():
    # the empty graph individualizes every vertex, so a recursive search
    # would need one frame per vertex of the 42-vertex apex union
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 15)
    try:
        mapping = are_isomorphic(Graph(20, [()] * 20), Graph(20, [()] * 20))
    finally:
        sys.setrecursionlimit(limit)
    assert mapping is not None


def test_work_limit():
    # the empty graph individualizes every vertex, about V^2 / 2 nodes of V
    # units each, so the search stops at the work limit within seconds
    with pytest.raises(SizeLimitError, match="300 vertices and 0 edges exceeds the work limit"):
        automorphism_group(Graph(300, [()] * 300))
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
        assert set(group_closure(engine.generators).elements) == set(closure.elements)


def test_group_orders_match_sympy():
    # an order oracle that shares nothing with closure_images
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for n in range(3, 9):
        for k in range(1, (n - 1) // 2 + 1):
            kg = build_bipartite_kneser(n, k)
            engine = automorphism_group(kg.graph)
            oracle = combinatorics.PermutationGroup(
                [combinatorics.Permutation(list(g)) for g in engine.generators]
            ).order()
            assert engine.order == oracle, (n, k)
            assert group_closure(known_generators(kg)).order == oracle, (n, k)


def spy_on_the_fallback(monkeypatch):
    """A list that gets one entry each time the engine enumerates its group."""
    calls = []

    def spy(generator_images, degree, order_cap):
        calls.append(degree)
        return closure_images(generator_images, degree, order_cap)

    monkeypatch.setattr(autgroup, "closure_images", spy)
    return calls


def test_certified_orders_match_the_closure(monkeypatch):
    # the base-path bounds meet on every feasible H(n,k) with n <= 8, and the
    # certified order is the size of the closure of the engine's generators;
    # test_group_orders_match_sympy checks the same orders against sympy
    calls = spy_on_the_fallback(monkeypatch)
    for n, k in feasible_parameters(8):
        kg = build_bipartite_kneser(n, k)
        engine = automorphism_group(kg.graph)
        assert engine.order == 2 * math.factorial(n), (n, k)
        assert not calls, (n, k)
        assert len(closure_images(engine.generators, kg.vertex_count)) == engine.order, (n, k)


@pytest.mark.parametrize("lengths, order", [((7, 6, 5, 4), 13_440), ((3, 4), 48)],
                         ids=["C7+C6+C5+C4", "C3+C4"])
def test_unequal_cycle_unions_take_the_fallback(monkeypatch, lengths, order):
    # refinement cannot tell the cycles apart, so the target cells are too
    # large for the upper bound to meet the lower one
    calls = spy_on_the_fallback(monkeypatch)
    graph = cycle_union(*lengths)
    assert automorphism_group(graph).order == order
    assert calls == [graph.vertex_count]


def test_lower_bound_above_upper_bound_raises(monkeypatch):
    original = autgroup._search

    def undersized(graph, initial_cells):
        generators, base, sizes = original(graph, initial_cells)
        return generators, base, [1] * len(sizes)

    monkeypatch.setattr(autgroup, "_search", undersized)
    with pytest.raises(StructureError, match="bug"):
        automorphism_group(build_bipartite_kneser(5, 2).graph)


def test_emitted_non_automorphism_raises(monkeypatch):
    # H(5,2) has no twin vertices, so a generator with two images swapped is
    # still a permutation but no automorphism, and the re-check must catch it
    graph = build_bipartite_kneser(5, 2).graph
    original = autgroup._search

    def tampered(graph, initial_cells):
        generators, base, sizes = original(graph, initial_cells)
        images = list(generators[0])
        images[0], images[1] = images[1], images[0]
        assert not is_graph_automorphism(graph, images)
        return [tuple(images), *generators[1:]], base, sizes

    monkeypatch.setattr(autgroup, "_search", tampered)
    with pytest.raises(StructureError, match="automorphism"):
        automorphism_group(graph)


def test_lower_bound_counts_only_generators_fixing_the_prefix():
    # with base (0, 1), the swap (0 1) moves b_1, so it counts at level 1
    # and not at level 2: Sym({0, 1, 2}) has order 3 * 2, not 3 * 3
    swap01, swap12 = (1, 0, 2, 3), (0, 2, 1, 3)
    assert _lower_bound([swap01, swap12], [0, 1]) == 6 == len(
        closure_images([swap01, swap12], 4))
    assert _lower_bound([swap01], [0, 1]) == 2


def test_certified_group_is_enumerated_by_an_explicit_closure():
    kg = build_bipartite_kneser(4, 1)
    engine = automorphism_group(kg.graph, order_cap=10)  # the order needs no closure
    assert engine.order == 48
    assert engine.elements is None
    with pytest.raises(NeedEnumerationError):
        complement_automorphism(kg) in engine
    with pytest.raises(OrderCapExceeded, match="cap of 10 elements"):
        group_closure(engine.generators, order_cap=10)
    enumerated = group_closure(engine.generators)
    assert enumerated.order == engine.order
    assert complement_automorphism(kg) in enumerated
    assert enumerated.elements == group_closure(known_generators(kg)).elements


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


def test_isomorphism_work_limit(monkeypatch):
    monkeypatch.setattr(autgroup, "WORK_LIMIT", 10_000)
    with pytest.raises(SizeLimitError, match="exceeds the work limit of 10000"):
        are_isomorphic(Graph(40, [()] * 40), Graph(40, [()] * 40))


def test_isomorphism_of_a_relabelled_h94():
    # V = 252, so the apex union has 506 vertices
    graph = build_bipartite_kneser(9, 4).graph
    n = graph.vertex_count
    sigma = random.Random(94).sample(range(n), n)
    relabelled = Graph.from_edges(n, [(sigma[u], sigma[v]) for u, v in graph.edges()])
    mapping = are_isomorphic(relabelled, graph)
    assert mapping is not None and is_isomorphism(relabelled, graph, mapping)


def test_aut_of_dense_graph_uses_complement_safely():
    # K5 minus one edge, a dense graph the engine searches directly:
    # Aut = Sym(2) x Sym(3), order 12
    g = complete_graph(5)
    dense = Graph.from_edges(5, [e for e in g.edges() if e != (0, 1)])
    assert automorphism_group(dense).order == 12 == brute_force_automorphism_order(dense)
