from itertools import product

import pytest

from bkneser import (
    are_isomorphic,
    build_cayley_graph,
    dihedral_inverse,
    dihedral_multiply,
    explicit_iso_Hn1,
    is_regular_action,
    left_regular_subgroup,
    reflection_connection_set,
)
from bkneser.dihedral import (
    DIHEDRAL_IDENTITY,
    DihedralElement,
    connection_set,
    dihedral_elements,
    dihedral_index,
)
from bkneser.errors import ConnectionSetError, DomainError
from bkneser.perms import is_graph_automorphism


def test_reflection_squares_to_identity():
    for n in (3, 5, 8):
        x = DihedralElement(1, 1)
        assert dihedral_multiply(x, x, n) == DIHEDRAL_IDENTITY


def test_defining_relation_b_a():
    for n in (3, 4, 7):
        b = DihedralElement(0, 1)
        a = DihedralElement(1, 0)
        assert dihedral_multiply(b, a, n) == DihedralElement(n - 1, 1)


def test_rotation_inverse():
    for n in (3, 6):
        a = DihedralElement(1, 0)
        a_last = DihedralElement(n - 1, 0)
        assert dihedral_multiply(a, a_last, n) == DIHEDRAL_IDENTITY
        assert dihedral_inverse(a, n) == a_last


def test_group_axioms_exhaustive():
    for n in range(3, 7):
        elements = dihedral_elements(n)
        identity = DIHEDRAL_IDENTITY
        for x in elements:
            assert dihedral_multiply(x, identity, n) == x
            assert dihedral_multiply(identity, x, n) == x
            assert dihedral_multiply(x, dihedral_inverse(x, n), n) == identity
        for x, y, z in product(elements, repeat=3):
            left = dihedral_multiply(dihedral_multiply(x, y, n), z, n)
            right = dihedral_multiply(x, dihedral_multiply(y, z, n), n)
            assert left == right


def test_element_rendering():
    assert str(DIHEDRAL_IDENTITY) == "e"
    assert str(DihedralElement(1, 0)) == "a"
    assert str(DihedralElement(3, 0)) == "a^3"
    assert str(DihedralElement(2, 1)) == "a^2 b"
    assert str(DihedralElement(0, 1)) == "b"


def test_element_validation():
    with pytest.raises(DomainError):
        DihedralElement(1, 2)
    with pytest.raises(DomainError):
        DihedralElement(-1, 0)


def test_connection_set_validation():
    with pytest.raises(ConnectionSetError):
        connection_set(4, [DIHEDRAL_IDENTITY])
    with pytest.raises(ConnectionSetError):
        connection_set(4, [DihedralElement(1, 0)])  # inverse a^3 missing
    omega = connection_set(4, [DihedralElement(1, 0), DihedralElement(3, 0)])
    assert len(omega.elements) == 2


def test_reflection_connection_set_size_matches_degree():
    for n in range(3, 9):
        omega = reflection_connection_set(n)
        assert len(omega.elements) == n - 1
        assert DihedralElement(0, 1) not in omega.elements  # b itself excluded


def test_build_cayley_small():
    omega = connection_set(3, [DihedralElement(1, 1), DihedralElement(2, 1)])
    g = build_cayley_graph(3, omega)
    assert g.vertex_count == 6
    assert set(g.degree_sequence()) == {2}

    g5 = build_cayley_graph(5, reflection_connection_set(5))
    assert g5.vertex_count == 10
    assert set(g5.degree_sequence()) == {4}


def test_build_cayley_rejects_mismatched_n():
    with pytest.raises(DomainError):
        build_cayley_graph(4, reflection_connection_set(5))


def test_explicit_iso_examples_n3():
    iso = explicit_iso_Hn1(3)
    # f({1}) = a (cayley index 1), f({2,3}) = f([3]-{1}) = a b (index 3+1)
    assert iso.vertex_map[0] == dihedral_index(DihedralElement(1, 0), 3)
    assert iso.vertex_map[3] == dihedral_index(DihedralElement(1, 1), 3)
    # {1} and [3]-{1} are not adjacent: b is outside the connection set
    assert not iso.kneser.graph.has_edge(0, 3)
    assert not iso.cayley.has_edge(iso.vertex_map[0], iso.vertex_map[3])
    # {1} ~ [3]-{2} maps to a ~ a^2 b because a^{-1} a^2 b = a b lies in omega
    v_13 = iso.kneser.vertex_of_subset(
        iso.kneser.subset_of_vertex(0).complement().__class__.from_elements(3, [1, 3])
    )
    assert iso.kneser.graph.has_edge(0, v_13)
    assert iso.cayley.has_edge(iso.vertex_map[0], iso.vertex_map[v_13])


def test_explicit_iso_edge_counts():
    iso = explicit_iso_Hn1(6)
    assert iso.kneser.graph.edge_count == 6 * 5
    assert iso.cayley.edge_count == 6 * 5


def test_explicit_iso_range():
    for n in range(3, 11):
        explicit_iso_Hn1(n)  # raises IsomorphismError on any failure
    with pytest.raises(DomainError):
        explicit_iso_Hn1(2)


def test_engine_confirms_cayley_isomorphism():
    for n in range(3, 9):
        iso = explicit_iso_Hn1(n)
        assert are_isomorphic(iso.kneser.graph, iso.cayley) is not None


def test_left_regular_subgroup_properties():
    for n in range(3, 9):
        iso = explicit_iso_Hn1(n)
        subgroup = left_regular_subgroup(n, iso)
        assert subgroup.order == 2 * n
        assert is_regular_action(subgroup, 2 * n)
        for perm in subgroup.elements:
            assert is_graph_automorphism(iso.kneser.graph, perm)


def test_identity_translation_is_identity_permutation():
    iso = explicit_iso_Hn1(4)
    subgroup = left_regular_subgroup(4, iso)
    identity = tuple(range(8))
    assert identity in subgroup.elements
