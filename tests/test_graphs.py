import json
import math

import pytest

from bkneser import Graph, build_bipartite_kneser, format_subset, max_flow
from bkneser.errors import DisconnectedError, DomainError
from conftest import complete_graph, cycle_graph, star_graph, written
from oracles import dot_text, json_text, plain_bfs_distances, plain_diameter


def test_construction_rejects_self_loops_and_asymmetry():
    with pytest.raises(DomainError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(DomainError):
        Graph(2, [(1,), ()])  # 0->1 without 1->0
    with pytest.raises(DomainError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(DomainError):
        Graph(3, [(1,), (2,), (0,)])  # directed 3-cycle: in-degree = out-degree
    with pytest.raises(DomainError):
        Graph(4, [(1,), (0, 3), (), ()])  # 1 lists 3 above it, 3 lists nothing
    with pytest.raises(DomainError):
        Graph(3, [(), (2,), (0,)])  # 2 lists one vertex below it, 0 and not 1


def test_rows_are_stored_ascending():
    assert Graph(3, [[2, 1], {0}, (0,)]).neighbours == ((1, 2), (0,), (0,))
    # an edge listed twice counts once, in either orientation
    assert Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)]).edge_count == 1


def test_rows_may_come_from_a_generator():
    g = Graph(3, (row for row in [[1, 2], [0], [0]]))
    assert g.neighbours == ((1, 2), (0,), (0,))


@pytest.mark.parametrize("rows", [[(1,), (0,)], [(1,), (0,), (), ()]], ids=["too-few", "too-many"])
def test_row_count_must_match_vertex_count(rows):
    with pytest.raises(DomainError, match="^neighbours length does not match vertex count$"):
        Graph(3, iter(rows))


def test_bool_entries_are_stored_as_plain_ints():
    g = Graph(2, [(True,), (False,)])
    assert g.neighbours == ((1,), (0,))
    assert all(type(x) is int for row in g.neighbours for x in row)


def test_ascending_int_tuples_are_kept_as_given():
    rows = [(1, 2), (0,), (0,)]
    g = Graph(3, rows)
    assert all(kept is given for kept, given in zip(g.neighbours, rows))
    # a list, or a tuple out of order, is stored as a new tuple
    g = Graph(3, [[1, 2], (0,), (0,)])
    assert g.neighbours[0] == (1, 2) and type(g.neighbours[0]) is tuple
    unsorted = (2, 1)
    assert Graph(3, [unsorted, (0,), (0,)]).neighbours[0] == (1, 2)


def test_edge_list_round_trip(corpus):
    for name, g in corpus.items():
        assert Graph.from_edges(g.vertex_count, g.edges()).neighbours == g.neighbours, name


@pytest.mark.parametrize("call, match", [
    (lambda g: Graph(3.0, [(), (), ()]), None),
    (lambda g: Graph(2, [(1.0,), (0,)]), None),
    (lambda g: Graph(2, [("a",), (0,)]), None),
    (lambda g: Graph(2, 5), None),
    (lambda g: Graph(2, [()]), None),
    (lambda g: Graph(2, [0b10, 0b01]), None),  # the adjacency masks of K2, not rows
    # symmetric counts, so only the repeat is wrong
    (lambda g: Graph(2, [(1, 1), (0, 0)]), "^the row of vertex 0 lists a neighbour twice$"),
    (lambda g: Graph(2, [(2,), ()]), None),
    (lambda g: Graph(2, [(-1,), ()]), None),
    (lambda g: Graph(2, [(0, 1), (0,)]), None),
    (lambda g: Graph.from_edges(3, [(0.0, 1)]), None),
    (lambda g: Graph.from_edges(3.0, [(0, 1)]), None),
    (lambda g: max_flow(g, 0.0, 2), None),
    (lambda g: max_flow(g, 0, -1), None),
    (lambda g: g.has_edge(0, -1), None),
    (lambda g: g.has_edge(5, 0), None),
    (lambda g: g.has_edge(-1, 1), None),  # would read vertex 2's row
    (lambda g: g.has_edge(0, 1.0), None),
], ids=["float-count", "float-neighbour", "str-neighbour", "int-rows", "short-rows",
        "mask-rows", "repeated-neighbour", "neighbour-too-large", "negative-neighbour",
        "self-loop-row", "float-endpoint", "float-edge-count", "float-source", "negative-sink",
        "negative-v", "u-too-large", "negative-u", "float-v"])
def test_bad_vertices_and_masks_raise_domain_error(call, match):
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(DomainError, match=match):
        call(path)


def test_bfs_distances_cycle():
    c6 = cycle_graph(6)
    assert c6.bfs_distances(0) == [0, 1, 2, 3, 2, 1]


def test_bfs_distances_single_vertex_and_bad_index():
    k1 = Graph(1, [()])
    assert k1.bfs_distances(0) == [0]
    for start in (1, -1, 0.0, "0"):
        with pytest.raises(DomainError):
            k1.bfs_distances(start)


def test_bfs_distance_to_complement_vertex_in_h41():
    kg = build_bipartite_kneser(4, 1)
    # vertex 0 holds {1}; its complement partner [4]-{1} sits at index 4
    dist = kg.graph.bfs_distances(0)
    assert dist[kg.side_size] == 3


def test_bfs_unreachable_is_inf():
    g = Graph.from_edges(4, [(0, 1)])
    dist = g.bfs_distances(0)
    assert dist[1] == 1
    assert dist[2] == math.inf and dist[3] == math.inf


def test_bfs_symmetry(corpus):
    for graph in corpus.values():
        for u in range(graph.vertex_count):
            du = graph.bfs_distances(u)
            for v in range(graph.vertex_count):
                assert graph.bfs_distances(v)[u] == du[v]


def test_diameter_h_n_1_is_three():
    for n in range(3, 8):
        assert build_bipartite_kneser(n, 1).graph.diameter() == 3


def test_diameter_examples():
    assert complete_graph(4).diameter() == 1
    g52 = build_bipartite_kneser(5, 2).graph
    assert g52.diameter() == plain_diameter(g52) == 5


def test_diameter_disconnected_raises():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedError):
        g.diameter()


def test_bfs_matches_plain_oracle(corpus):
    for graph in corpus.values():
        for v in range(graph.vertex_count):
            expected = plain_bfs_distances(graph, v)
            got = graph.bfs_distances(v)
            for u in range(graph.vertex_count):
                assert got[u] == expected.get(u, math.inf)


def test_bipartition_examples():
    parts = build_bipartite_kneser(5, 2).graph.bipartition()
    assert parts is not None
    assert sorted(len(p) for p in parts) == [10, 10]
    assert cycle_graph(3).bipartition() is None
    assert cycle_graph(5).bipartition() is None
    c6_parts = cycle_graph(6).bipartition()
    assert sorted(len(p) for p in c6_parts) == [3, 3]


def test_bipartition_of_disconnected_graphs():
    k2_and_k3 = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
    assert k2_and_k3.bipartition() is None
    # K2 on {1, 3} and the path 0-4-2: each component's least vertex on side 0
    k2_and_p3 = Graph.from_edges(5, [(1, 3), (0, 4), (4, 2)])
    assert k2_and_p3.bipartition() == ((0, 1, 2), (3, 4))


def test_degree_sequence_examples():
    assert set(build_bipartite_kneser(5, 2).graph.degree_sequence()) == {3}
    assert set(build_bipartite_kneser(4, 1).graph.degree_sequence()) == {3}
    assert star_graph(3).degree_sequence() == (3, 1, 1, 1)


def test_degree_sum_is_twice_edges(corpus):
    for graph in corpus.values():
        assert sum(graph.degree_sequence()) == 2 * graph.edge_count


def test_json_export_shape():
    g = Graph.from_edges(3, [(1, 0), (2, 1)])
    data = json.loads(written(g.write_json, ["a", "b", "c"]))
    assert data == {
        "vertex_count": 3,
        "edges": [[0, 1], [1, 2]],
        "labels": ["a", "b", "c"],
    }


def test_dot_export_golden():
    g = Graph.from_edges(2, [(0, 1)])
    assert written(g.write_dot, ["{1}", "{2}"]) == (
        'graph G {\n  0 [label="{1}"];\n  1 [label="{2}"];\n  0 -- 1;\n}\n'
    )


def test_dot_export_escapes_quotes_and_backslashes():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert written(g.write_dot, ['say "hi"', "back\\slash", '\\"']) == (
        'graph G {\n  0 [label="say \\"hi\\""];\n  1 [label="back\\\\slash"];\n'
        '  2 [label="\\\\\\""];\n  0 -- 1;\n  1 -- 2;\n}\n'
    )


def test_writers_take_labels_from_any_iterable():
    # a graph holds no labels; each writer reads the ones it is given once,
    # so a one-pass iterator serves both the count check and the write
    labels = ["a", "b"]
    g = Graph.from_edges(2, [(0, 1)])
    assert not hasattr(g, "labels")
    for write in (g.write_json, g.write_dot):
        expected = written(write, labels)
        assert labels == ["a", "b"]
        for given in (("a", "b"), iter("ab"), (c for c in "ab"), "ab"):
            assert written(write, given) == expected
    assert written(g.write_json, iter("xy")).endswith(',"labels":["x","y"]}\n')


@pytest.mark.parametrize("count", [0, 1, 1583, 1585])
def test_writers_check_the_label_count_before_any_write(count):
    # H(12,5) has 1584 vertices; its edges and its labels of 64 characters
    # each pass 64 KB, so a writer that checked the count only after its
    # last label would have written a block
    g = build_bipartite_kneser(12, 5).graph
    for write in (g.write_json, g.write_dot):
        for labels in (["x" * 64] * count, iter(["x" * 64] * count)):
            handle = _RecordingHandle()
            with pytest.raises(DomainError, match="^labels length does not match vertex count$"):
                write(handle, labels)
            assert handle.calls == []


def test_writers_match_their_oracles(corpus):
    cases = {name: (g, None) for name, g in corpus.items()}
    # several 64 KB blocks, and labels whose masks span 1, 2 and 3 bytes
    for n, k in [(5, 2), (4, 2), (12, 5), (7, 3), (14, 6), (17, 1)]:
        kg = build_bipartite_kneser(n, k, allow_null=n == 2 * k)
        cases[f"H{n}{k}"] = (kg.graph, [format_subset(m) for m in kg.masks])
    cases["P3-quoted-labels"] = (
        Graph.from_edges(3, [(0, 1), (1, 2)]), ['say "hi"', "back\\slash", '\\"'])
    assert cases["K4"][1] is None and cases["H42"][1] is not None
    for name, (g, labels) in cases.items():
        assert written(g.write_json, labels) == json_text(g, labels), name
        assert written(g.write_dot, labels) == dot_text(g, labels), name


class _RecordingHandle:
    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)


@pytest.mark.parametrize("n, k", [(5, 2), (12, 5), (14, 6)])
def test_writers_write_in_blocks_of_64_kb(n, k):
    kg = build_bipartite_kneser(n, k)
    g = kg.graph
    for write, oracle in [(g.write_json, json_text), (g.write_dot, dot_text)]:
        handle = _RecordingHandle()
        write(handle, kg.labels())
        expected = oracle(g, list(kg.labels()))
        assert "".join(handle.calls) == expected
        assert len(handle.calls) <= math.ceil(len(expected) / 65536) + 2
        # each block but the last passes 64 KB, and none holds a whole
        # 1.1-1.5 MB document of H(14,6)
        assert all(len(call) > 65536 for call in handle.calls[:-1])
        assert max(map(len, handle.calls)) < 4 * 65536


def test_edgeless_json_has_an_empty_edge_list():
    kg = build_bipartite_kneser(4, 2, allow_null=True)
    text = written(kg.graph.write_json, kg.labels())
    assert text.startswith('{"vertex_count":12,"edges":[],"labels":["{1,2}",')
    assert written(Graph(2, [(), ()]).write_json) == '{"vertex_count":2,"edges":[]}\n'


def test_edges_sorted():
    g = Graph.from_edges(4, [(3, 2), (1, 0), (0, 3)])
    assert g.edges() == [(0, 1), (0, 3), (2, 3)]
    assert g.arcs() == [(0, 1), (1, 0), (0, 3), (3, 0), (2, 3), (3, 2)]
