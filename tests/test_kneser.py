import pytest

from bkneser import cli
from bkneser import (
    KneserGraph,
    binomial,
    build_bipartite_kneser,
    format_subset,
    verify_family_counts,
)
from bkneser.errors import (
    CardinalityError,
    DomainError,
    FamilyInvariantError,
    NullGraphError,
)
from conftest import cycle_graph, mask
from oracles import are_isomorphic, mask_and_append_kneser


def test_build_small_examples():
    kg = build_bipartite_kneser(3, 1)
    assert kg.vertex_count == 6
    assert kg.graph.edge_count == 6
    assert set(kg.graph.degree_sequence()) == {2}

    kg = build_bipartite_kneser(5, 2)
    assert kg.vertex_count == 20
    assert kg.graph.edge_count == 30
    assert set(kg.graph.degree_sequence()) == {3}

    kg = build_bipartite_kneser(31, 1)  # the ground set has no upper cap
    assert kg.vertex_count == 62
    assert kg.graph.edge_count == 31 * 30
    assert set(kg.graph.degree_sequence()) == {30}


def test_builder_matches_the_mask_and_append_oracle():
    feasible = [(n, k) for n in range(3, 12) for k in range(1, (n - 1) // 2 + 1)]
    for n, k in feasible + [(17, 1), (20, 2)]:  # masks of 3 bytes
        kg = build_bipartite_kneser(n, k)
        assert (kg.graph.neighbours, kg.masks) == mask_and_append_kneser(n, k), (n, k)
    for k in range(1, 5):
        kg = build_bipartite_kneser(2 * k, k, allow_null=True)
        assert (kg.graph.neighbours, kg.masks) == mask_and_append_kneser(2 * k, k), k


def test_each_vertex_is_one_int_object_in_every_row():
    # a vertex listed in many rows costs one int; H(10,4) has 420 vertices,
    # past the small ints that CPython caches
    objects = {}
    for row in build_bipartite_kneser(10, 4).graph.neighbours:
        for v in row:
            assert objects.setdefault(v, v) is v


def test_labels_are_formatted_only_when_read(monkeypatch, capsys):
    # only ``build`` reads the labels, once per run; every other command
    # runs with ``KneserGraph.labels`` raising
    original = KneserGraph.labels
    calls = []

    def no_labels(kg):
        raise AssertionError("a label was formatted")

    def counted(kg):
        calls.append((kg.n, kg.k))
        return original(kg)

    monkeypatch.setattr(KneserGraph, "labels", no_labels)
    kg = build_bipartite_kneser(5, 2)
    verify_family_counts(kg)
    for argv in (["props", "--n", "5", "--k", "2"], ["aut", "--n", "5", "--k", "2"],
                 ["transitivity", "--n", "5", "--k", "2"],
                 ["connectivity", "--n", "5", "--k", "2", "--certificate"],
                 ["cayley-check", "--n", "5"], ["explore", "--question", "1", "--nmax", "5"],
                 ["explore", "--question", "2", "--nmax", "6"]):
        assert cli.run(argv) == 0, argv
    monkeypatch.setattr(KneserGraph, "labels", counted)
    for form in ("json", "dot"):
        calls.clear()
        assert cli.run(["build", "--n", "5", "--k", "2", "--format", form]) == 0
        assert calls == [(5, 2)], form
    assert '"labels":["{1,2}",' in capsys.readouterr().out
    monkeypatch.undo()
    labels = list(kg.labels())
    assert len(labels) == kg.vertex_count and labels[0] == "{1,2}" and labels[-1] == "{1,2,3}"
    assert labels == [format_subset(m) for m in kg.masks]


def test_label_iteration_matches_format_subset():
    feasible = [(n, k) for n in range(3, 13) for k in range(1, (n - 1) // 2 + 1)]
    for n, k in feasible + [(17, 1), (20, 2)]:
        kg = build_bipartite_kneser(n, k)
        assert list(kg.labels()) == [format_subset(m) for m in kg.masks], (n, k)
    # the empty mask, and masks whose low or middle bytes are empty, as subsets of [41]
    masks = (0, 1, 1 << 40, 1 << 16 | 1, (1 << 24) - 1)
    kg = build_bipartite_kneser(3, 1)._replace(n=41, masks=masks)
    assert list(kg.labels()) == [format_subset(m) for m in masks]
    assert list(kg._replace(masks=()).labels()) == []


def test_repr_leaves_out_the_masks():
    kg = build_bipartite_kneser(5, 2)
    assert repr(kg) == ("KneserGraph(n=5, k=2, graph=Graph(vertices=20, edges=30), "
                        "side_size=10)")


def test_null_graph_requires_flag():
    with pytest.raises(NullGraphError):
        build_bipartite_kneser(4, 2)
    kg = build_bipartite_kneser(4, 2, allow_null=True)
    assert kg.vertex_count == 12
    assert kg.graph.edge_count == 0


def test_domain_errors():
    with pytest.raises(DomainError):
        build_bipartite_kneser(3, 2)  # n < 2k
    with pytest.raises(DomainError):
        build_bipartite_kneser(2, 2)  # n <= k
    with pytest.raises(DomainError):
        build_bipartite_kneser(4, 0)


def test_adjacency_is_containment():
    kg = build_bipartite_kneser(5, 2)
    for u, v in kg.graph.edges():
        a, b = kg.subset_of_vertex(u), kg.subset_of_vertex(v)
        small, big = (a, b) if a.bit_count() < b.bit_count() else (b, a)
        assert small & ~big == 0
    # non-edges within a part never satisfy containment
    assert not kg.graph.has_edge(0, 1)


def test_vertex_of_subset_examples():
    kg = build_bipartite_kneser(3, 1)
    assert kg.vertex_of_subset(mask(1)) == 0
    assert kg.vertex_of_subset(mask(2, 3)) == 3


def test_vertex_of_subset_round_trip():
    kg = build_bipartite_kneser(5, 2)
    for index in range(kg.vertex_count):
        assert kg.vertex_of_subset(kg.subset_of_vertex(index)) == index


def test_vertex_of_subset_wrong_cardinality():
    kg = build_bipartite_kneser(5, 2)
    with pytest.raises(CardinalityError):
        kg.vertex_of_subset(mask(1))
    with pytest.raises(DomainError):
        kg.vertex_of_subset(mask(1, 6))  # 6 is outside [5]
    with pytest.raises(DomainError):
        kg.vertex_of_subset(mask(1, 2, 6))  # on the (n-k)-side too
    with pytest.raises(DomainError):
        kg.vertex_of_subset(-4)


def test_subset_of_vertex_checks_the_index():
    kg = build_bipartite_kneser(4, 1)
    assert kg.subset_of_vertex(0) == mask(1)
    assert kg.subset_of_vertex(7) == mask(1, 2, 3)
    for index in (-1, -8, 8, 100):
        with pytest.raises(DomainError):
            kg.subset_of_vertex(index)


def test_complement_pairing():
    for n, k in [(5, 2), (6, 1), (7, 3)]:
        kg = build_bipartite_kneser(n, k)
        side = kg.side_size
        full = (1 << n) - 1
        for i in range(kg.vertex_count):
            partner = (i + side) % (2 * side)
            assert kg.subset_of_vertex(i) ^ full == kg.subset_of_vertex(partner)


def test_verify_family_counts_examples():
    report = verify_family_counts(build_bipartite_kneser(7, 3))
    assert (report.vertices, report.degree, report.part_sizes) == (70, 4, (35, 35))
    assert report.connected

    report = verify_family_counts(build_bipartite_kneser(6, 1))
    assert (report.vertices, report.degree) == (12, 5)

    report = verify_family_counts(build_bipartite_kneser(9, 4))
    assert (report.vertices, report.degree) == (252, 5)


def test_verify_family_counts_all_small_instances():
    for n in range(3, 10):
        for k in range(1, (n - 1) // 2 + 1):
            report = verify_family_counts(build_bipartite_kneser(n, k))
            assert report.vertices == 2 * binomial(n, k)
            assert report.degree == binomial(n - k, k)


def test_verify_family_counts_rejects_corruption():
    kg = build_bipartite_kneser(4, 1)
    # drop one edge: degrees are no longer uniform
    edges = kg.graph.edges()[1:]
    broken = KneserGraph(
        n=4,
        k=1,
        graph=type(kg.graph).from_edges(kg.vertex_count, edges),
        side_size=kg.side_size,
        masks=kg.masks,
    )
    with pytest.raises(FamilyInvariantError):
        verify_family_counts(broken)


def test_h31_is_the_six_cycle():
    mapping = are_isomorphic(build_bipartite_kneser(3, 1).graph, cycle_graph(6))
    assert mapping is not None
