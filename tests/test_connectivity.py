import random

import pytest

from bkneser import (
    Graph,
    automorphism_group,
    build_bipartite_kneser,
    cli,
    group_closure,
    max_flow,
    menger_certificate,
    stabilizer_generators,
    vertex_connectivity,
)
from bkneser.errors import DomainError
from conftest import complete_graph, cycle_graph, path_graph, star_graph
from oracles import (
    AdjacencyError,
    all_pairs_vertex_connectivity,
    brute_vertex_connectivity,
    edge_dict,
    local_vertex_connectivity,
    stabilizer,
)


def engine_stabilizer(graph):
    """Every automorphism fixing the least vertex of minimum degree."""
    degrees = graph.degree_sequence()
    engine = automorphism_group(graph)
    aut = group_closure(engine.generators, degree=engine.degree)
    assert aut.order == engine.order
    return stabilizer(aut, degrees.index(min(degrees))).generators


def random_graph(rng, n, p):
    return Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def test_max_flow_parallel_paths():
    # 0 -> {1, 3} -> 2 around C4: two internally disjoint paths
    result = max_flow(cycle_graph(4), 0, 2)
    assert result.value == 2
    assert result.cut_capacity == 2


def test_max_flow_single_edge():
    # the direct edge is not an interior path
    assert max_flow(complete_graph(2), 0, 1).value == 0


def test_max_flow_vertex_split_k4():
    # between two adjacent vertices of K4: two interior paths, plus the edge
    k4 = complete_graph(4)
    assert max_flow(k4, 0, 1).value == 2
    assert len(menger_certificate(k4, 0, 1)) == 3


def test_max_flow_rejects_bad_endpoints():
    g = cycle_graph(3)
    with pytest.raises(DomainError):
        max_flow(g, 1, 1)
    with pytest.raises(DomainError):
        max_flow(g, 0, 3)
    with pytest.raises(DomainError):
        max_flow(g, -1, 1)


def test_min_cut_reached_through_a_used_vertex():
    # 0-1-2-5 and 0-3-4-5 meet at the cut vertex 5 before 6.  The last search
    # reaches 2 and then 1 only backwards along the unit through 0-1-2-5-6; a
    # search that stopped at 2's out-state would count 1 and 5 as a cut of 2.
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5), (5, 6)])
    result = max_flow(g, 0, 6)
    assert result.value == result.cut_capacity == 1
    assert result.paths == [[0, 1, 2, 5, 6]]


def test_rerouted_unit_frees_its_vertex():
    # The first path is 0-1-4-8-11.  The second search enters 8 from 6, runs
    # back through 4 to 1 and leaves by 5-9-11, which frees 4.  The last
    # search reaches 4 again by 0-3-7-10 and must find it free, or it counts
    # a cut of 3 against a flow of 2.
    g = Graph.from_edges(12, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (3, 7),
                              (4, 8), (4, 10), (5, 9), (6, 8), (7, 10), (8, 11), (9, 11)])
    result = max_flow(g, 0, 11)
    assert result.value == result.cut_capacity == 2
    assert sorted(result.paths) == [[0, 1, 5, 9, 11], [0, 2, 6, 8, 11]]


def test_local_connectivity_examples():
    c6 = cycle_graph(6)
    assert local_vertex_connectivity(c6, 0, 3) == 2

    g52 = build_bipartite_kneser(5, 2).graph
    assert local_vertex_connectivity(g52, 0, 1) == 3  # same part, non-adjacent

    assert local_vertex_connectivity(star_graph(3), 1, 2) == 1


def test_local_connectivity_preconditions():
    c6 = cycle_graph(6)
    with pytest.raises(DomainError):
        local_vertex_connectivity(c6, 2, 2)
    with pytest.raises(AdjacencyError):
        local_vertex_connectivity(c6, 0, 1)


def test_vertex_connectivity_examples():
    assert vertex_connectivity(build_bipartite_kneser(3, 1).graph) == 2
    assert vertex_connectivity(complete_graph(4)) == 3
    assert vertex_connectivity(star_graph(3)) == 1
    assert vertex_connectivity(cycle_graph(6)) == 2


def test_vertex_connectivity_disconnected_is_zero(corpus):
    assert vertex_connectivity(corpus["two_triangles"]) == 0
    assert vertex_connectivity(corpus["empty3"]) == 0


def test_vertex_connectivity_matches_brute_force(corpus):
    for name, graph in corpus.items():
        if graph.vertex_count > 9:
            continue
        assert vertex_connectivity(graph) == brute_vertex_connectivity(graph), name


def test_vertex_connectivity_matches_all_pairs_oracle(corpus):
    for name, graph in corpus.items():
        expected = all_pairs_vertex_connectivity(graph)
        assert vertex_connectivity(graph) == expected, name
        assert vertex_connectivity(graph, engine_stabilizer(graph)) == expected, name


def test_vertex_connectivity_matches_all_pairs_oracle_on_kneser_graphs():
    for n in range(3, 9):
        for k in range(1, (n - 1) // 2 + 1):
            kg = build_bipartite_kneser(n, k)
            expected = all_pairs_vertex_connectivity(kg.graph)
            assert vertex_connectivity(kg.graph) == expected, (n, k)
            assert vertex_connectivity(kg.graph, stabilizer_generators(kg)) == expected, (n, k)


def two_k6_through_one_vertex():
    """K6 on 0..5 and on 6..11; vertex 12 is adjacent to 0, 1, 6 and 7 only."""
    cliques = [(i, j) for base in (0, 6) for i in range(base, base + 6)
               for j in range(i + 1, base + 6)]
    return Graph.from_edges(13, cliques + [(12, 0), (12, 1), (12, 6), (12, 7)])


def test_neighbour_pairs_find_a_cut_through_the_least_degree_vertex():
    # 12 has the least degree and is itself the cut vertex: every other
    # vertex is 2-connected to it, so only a pair of its neighbours, one in
    # each K6, shows kappa = 1.
    g = two_k6_through_one_vertex()
    non_neighbours = [w for w in range(12) if not g.has_edge(12, w)]
    assert min(local_vertex_connectivity(g, 12, w) for w in non_neighbours) == 2
    assert vertex_connectivity(g) == 1
    maps = [(1, 0, *range(2, 13)),
            (*range(6), 7, 6, *range(8, 13)),
            (*range(6, 12), *range(6), 12)]  # the two K6 swap places
    assert vertex_connectivity(g, maps) == 1
    assert vertex_connectivity(g, engine_stabilizer(g)) == 1


def test_vertex_connectivity_matches_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(1984)
    irregular = 0
    for _ in range(80):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.uniform(0.2, 0.9))
        irregular += len(set(g.degree_sequence())) > 1
        ng = nx.Graph()
        ng.add_nodes_from(range(n))
        ng.add_edges_from(g.edges())
        expected = nx.node_connectivity(ng)
        assert vertex_connectivity(g) == expected, g.edges()
        assert vertex_connectivity(g, engine_stabilizer(g)) == expected, g.edges()
    assert irregular >= 60


@pytest.mark.parametrize("images, message", [
    ((0, 0, 2, 3, 4, 5), "not an automorphism"),
    ((0, 1, 2, 3, 4), "not an automorphism"),
    ((0, 2, 1, 3, 4, 5), "not an automorphism"),  # fixes 0; 0-1 goes to the non-edge 0-2
    ((1, 2, 3, 4, 5, 0), "moves vertex 0 to 1"),  # a rotation
], ids=["not-a-permutation", "wrong-length", "not-an-automorphism", "moves-v"])
def test_vertex_connectivity_rejects_a_bad_stabilizer_map(images, message):
    c6 = cycle_graph(6)
    reflection = (0, 5, 4, 3, 2, 1)
    assert vertex_connectivity(c6, [reflection]) == 2
    with pytest.raises(DomainError, match=f"^stabilizer map 1 .*{message}"):
        vertex_connectivity(c6, [reflection, images])


def test_cli_reports_a_bad_stabilizer_map_as_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "stabilizer_generators", lambda kg: [(1, 0, *range(2, 20))])
    assert cli.run(["connectivity", "--n", "5", "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: stabilizer map 0 ")


def test_h12_5_connectivity_with_a_verified_certificate():
    kg = build_bipartite_kneser(12, 5)
    assert vertex_connectivity(kg.graph, stabilizer_generators(kg)) == 21  # C(7, 5)
    paths = menger_certificate(kg.graph, 0, kg.side_size)  # re-verifies every path
    assert len(paths) == 21
    assert {(p[0], p[-1]) for p in paths} == {(0, kg.side_size)}


def test_menger_certificate_cycle():
    paths = menger_certificate(cycle_graph(6), 0, 3)
    assert len(paths) == 2
    assert sorted(len(p) - 1 for p in paths) == [3, 3]


def test_menger_certificate_h41():
    # kappa = C(3,1) = 3 between the non-adjacent singletons {1} and {2}
    g = build_bipartite_kneser(4, 1).graph
    paths = menger_certificate(g, 0, 1)
    assert len(paths) == local_vertex_connectivity(g, 0, 1) == 3


def test_menger_certificate_k2():
    paths = menger_certificate(complete_graph(2), 0, 1)
    assert paths == [[0, 1]]


def test_menger_certificate_adjacent_pair_has_degree_many_paths():
    c6 = cycle_graph(6)
    paths = menger_certificate(c6, 0, 1)
    assert len(paths) == 2  # the edge plus the long way around


def test_menger_paths_are_sound():
    # deleting the interiors of all but one path must keep u, v connected
    g = build_bipartite_kneser(4, 1).graph
    paths = menger_certificate(g, 0, 1)
    adj = edge_dict(g)
    for kept in paths:
        removed = set()
        for other in paths:
            if other is not kept:
                removed.update(other[1:-1])
        frontier = {0}
        seen = {0}
        while frontier:
            frontier = {
                w
                for v in frontier
                for w in adj[v]
                if w not in seen and w not in removed
            }
            seen |= frontier
        assert 1 in seen


def test_min_cut_verified_on_kneser_pairs():
    for n, k in [(3, 1), (4, 1), (5, 2)]:
        kg = build_bipartite_kneser(n, k)
        result = max_flow(kg.graph, 0, kg.side_size)
        assert result.value == result.cut_capacity


def test_long_path_needs_no_recursion():
    # a recursive augmenting search overflows the interpreter stack here
    path = path_graph(1500)
    assert local_vertex_connectivity(path, 0, 1499) == 1
    assert menger_certificate(path, 0, 1499) == [list(range(1500))]


def test_connectivity_matches_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import local_node_connectivity

    rng = random.Random(1975)
    for _ in range(60):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.uniform(0.15, 0.85))
        ng = nx.Graph()
        ng.add_nodes_from(range(n))
        ng.add_edges_from(g.edges())
        for u in range(n):
            for v in range(u + 1, n):
                if not g.has_edge(u, v):
                    expected = local_node_connectivity(ng, u, v)
                    assert local_vertex_connectivity(g, u, v) == expected, (g.edges(), u, v)
    for n in range(3, 8):
        for k in range(1, (n - 1) // 2 + 1):
            graph = build_bipartite_kneser(n, k).graph
            expected = nx.node_connectivity(nx.Graph(graph.edges()))
            assert vertex_connectivity(graph) == expected, (n, k)
