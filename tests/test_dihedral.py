from itertools import product

import pytest

from bkneser import (
    build_cayley_graph,
    complement_automorphism,
    dihedral_inverse,
    dihedral_label,
    dihedral_multiply,
    explicit_iso_Hn1,
    group_closure,
    induced_automorphism,
    left_regular_subgroup,
    reflection_connection_set,
)
from bkneser.dihedral import _dihedral_action
from bkneser.errors import ConnectionSetError, DomainError, StructureError, VerificationError
from bkneser.perms import is_graph_automorphism
from conftest import mask, written
from oracles import (
    are_isomorphic,
    dot_text,
    edge_list_cayley_graph,
    is_regular_action,
    translation_left_regular_subgroup,
)

# a^i b^s is the int i + n*s
IDENTITY = 0


def test_reflection_squares_to_identity():
    for n in (3, 5, 8):
        x = 1 + n  # a b
        assert dihedral_multiply(x, x, n) == IDENTITY


def test_defining_relation_b_a():
    for n in (3, 4, 7):
        b, a = n, 1
        assert dihedral_multiply(b, a, n) == (n - 1) + n  # a^{n-1} b


def test_rotation_inverse():
    for n in (3, 6):
        a, a_last = 1, n - 1
        assert dihedral_multiply(a, a_last, n) == IDENTITY
        assert dihedral_inverse(a, n) == a_last


def test_group_axioms_exhaustive():
    for n in range(3, 7):
        elements = range(2 * n)
        for x in elements:
            assert dihedral_multiply(x, IDENTITY, n) == x
            assert dihedral_multiply(IDENTITY, x, n) == x
            assert dihedral_multiply(x, dihedral_inverse(x, n), n) == IDENTITY
        for x, y, z in product(elements, repeat=3):
            left = dihedral_multiply(dihedral_multiply(x, y, n), z, n)
            right = dihedral_multiply(x, dihedral_multiply(y, z, n), n)
            assert left == right


def test_element_rendering():
    n = 5
    assert dihedral_label(IDENTITY, n) == "e"
    assert dihedral_label(1, n) == "a"
    assert dihedral_label(3, n) == "a^3"
    assert dihedral_label(2 + n, n) == "a^2 b"
    assert dihedral_label(n, n) == "b"
    assert dihedral_label(1 + n, n) == "a b"


def test_d6_cayley_labels():
    g = build_cayley_graph(3, reflection_connection_set(3))
    labels = tuple(dihedral_label(x, 3) for x in range(g.vertex_count))
    assert labels == ("e", "a", "a^2", "b", "a b", "a^2 b")
    assert written(g.write_dot, labels).startswith(
        'graph G {\n  0 [label="e"];\n  1 [label="a"];\n  2 [label="a^2"];\n')


def test_element_validation():
    for bad in (-1, 8, 2.5):
        with pytest.raises(DomainError):
            dihedral_label(bad, 4)
        with pytest.raises(DomainError):
            dihedral_inverse(bad, 4)
        with pytest.raises(DomainError):
            dihedral_multiply(bad, 1, 4)
        with pytest.raises(DomainError):
            dihedral_multiply(1, bad, 4)
    for small in (0, 1, 2):
        with pytest.raises(DomainError):
            dihedral_multiply(0, 0, small)
        with pytest.raises(DomainError):
            dihedral_inverse(0, small)
        with pytest.raises(DomainError):
            dihedral_label(0, small)


@pytest.mark.parametrize("call", [
    lambda: dihedral_label(2.0, 3),
    lambda: dihedral_multiply(1.0, 2, 3),
    lambda: build_cayley_graph(3, [4.0, 5]),
    lambda: dihedral_multiply(0, 0, 3.0),
], ids=["float-label", "float-factor", "float-connection-element", "float-n"])
def test_integral_floats_raise_domain_error(call):
    # 2.0 in range(6) holds, so a range test alone lets these through
    with pytest.raises(DomainError):
        call()


def test_connection_set_validation():
    with pytest.raises(ConnectionSetError):
        build_cayley_graph(4, [IDENTITY])
    with pytest.raises(ConnectionSetError):
        build_cayley_graph(4, [1])  # inverse a^3 missing
    with pytest.raises(DomainError):
        build_cayley_graph(4, [1, 3, 8])  # 8 is not an element of D_8
    g = build_cayley_graph(4, [1, 3])
    assert set(g.degree_sequence()) == {2}  # two 4-cycles: <a> and <a> b
    assert g.edge_count == 8


@pytest.mark.parametrize("name,omega", [
    ("reflections", reflection_connection_set),
    ("a and its inverse", lambda n: [1, n - 1]),
    ("every non-identity element", lambda n: range(1, 2 * n)),
    ("b", lambda n: [n]),
])
def test_cayley_rows_match_the_edge_list_builder(name, omega):
    for n in range(3, 41):
        g, oracle = build_cayley_graph(n, omega(n)), edge_list_cayley_graph(n, omega(n))
        assert g.neighbours == oracle.neighbours, (name, n)
        labels = [dihedral_label(x, n) for x in range(2 * n)]
        assert written(g.write_dot, labels) == dot_text(oracle, labels), (name, n)


def test_reflection_connection_set_size_matches_degree():
    for n in range(3, 9):
        omega = reflection_connection_set(n)
        assert len(omega) == n - 1
        assert all(x >= n for x in omega)  # reflections only
        assert n not in omega  # b itself excluded


def test_build_cayley_small():
    g = build_cayley_graph(3, [1 + 3, 2 + 3])
    assert g.vertex_count == 6
    assert set(g.degree_sequence()) == {2}

    g5 = build_cayley_graph(5, reflection_connection_set(5))
    assert g5.vertex_count == 10
    assert set(g5.degree_sequence()) == {4}


def test_build_cayley_rejects_mismatched_n():
    with pytest.raises(DomainError):
        build_cayley_graph(4, reflection_connection_set(5))
    with pytest.raises(DomainError):
        build_cayley_graph(2, [3])


def test_explicit_iso_examples_n3():
    iso = explicit_iso_Hn1(3)
    # f({1}) = a (cayley index 1), f({2,3}) = f([3]-{1}) = a b (index 3+1)
    assert iso.vertex_map[0] == 1
    assert iso.vertex_map[3] == 1 + 3
    # {1} and [3]-{1} are not adjacent: b is outside the connection set
    assert not iso.kneser.graph.has_edge(0, 3)
    assert not iso.cayley.has_edge(iso.vertex_map[0], iso.vertex_map[3])
    # {1} ~ [3]-{2} maps to a ~ a^2 b because a^{-1} a^2 b = a b lies in omega
    v_13 = iso.kneser.vertex_of_subset(mask(1, 3))
    assert iso.kneser.graph.has_edge(0, v_13)
    assert iso.cayley.has_edge(iso.vertex_map[0], iso.vertex_map[v_13])
    assert dihedral_label(iso.vertex_map[v_13], 3) == "a^2 b"


def test_explicit_iso_edge_counts():
    iso = explicit_iso_Hn1(6)
    assert iso.kneser.graph.edge_count == 6 * 5
    assert iso.cayley.edge_count == 6 * 5


def test_explicit_iso_range():
    for n in range(3, 11):
        explicit_iso_Hn1(n)  # raises IsomorphismError on any failure
    with pytest.raises(DomainError):
        explicit_iso_Hn1(2)


@pytest.mark.parametrize("n", ["5", 5.0, None])
def test_explicit_iso_checks_n_as_every_dihedral_function_does(n):
    with pytest.raises(DomainError, match="n must be an int"):
        explicit_iso_Hn1(n)


def test_engine_confirms_cayley_isomorphism():
    for n in range(3, 9):
        iso = explicit_iso_Hn1(n)
        assert are_isomorphic(iso.kneser.graph, iso.cayley) is not None


def test_left_regular_subgroup_properties():
    for n in range(3, 9):
        iso = explicit_iso_Hn1(n)
        subgroup = left_regular_subgroup(iso)
        assert subgroup.order == 2 * n
        enumerated = group_closure(subgroup.generators)
        assert enumerated.order == subgroup.order
        assert is_regular_action(enumerated, 2 * n)
        for perm in enumerated.elements:
            assert is_graph_automorphism(iso.kneser.graph, perm)


def test_identity_translation_is_identity_permutation():
    iso = explicit_iso_Hn1(4)
    subgroup = group_closure(left_regular_subgroup(iso).generators)
    identity = tuple(range(8))
    assert identity in subgroup


def test_left_regular_subgroup_matches_the_translation_oracle():
    for n in range(3, 41):
        iso = explicit_iso_Hn1(n)
        subgroup, oracle = left_regular_subgroup(iso), translation_left_regular_subgroup(iso)
        assert subgroup.generators == oracle.generators, n
        assert subgroup.order == oracle.order == 2 * n, n
        assert group_closure(subgroup.generators).elements == oracle.elements, n


def _translations(n):
    iso = explicit_iso_Hn1(n)
    a, b = left_regular_subgroup(iso).generators
    return iso.kneser, a, b


@pytest.mark.parametrize("n", range(3, 11))
def test_an_automorphism_of_the_wrong_order_breaks_a_relation(n):
    kg, a, b = _translations(n)
    short_cycle = induced_automorphism(kg, (*range(1, n - 1), 0, n - 1))  # (1 2 ... n-1)
    three_cycle = induced_automorphism(kg, (1, 2, 0, *range(3, n)))  # (1 2 3)
    for images in (short_cycle, three_cycle):
        assert is_graph_automorphism(kg.graph, images)
    with pytest.raises(StructureError, match=rf"a\^{n} is not the identity"):
        _dihedral_action(kg.graph, short_cycle, b)
    with pytest.raises(StructureError, match=r"b\^2 is not the identity"):
        _dihedral_action(kg.graph, a, three_cycle)
    # complementation commutes with a, so (a c)^2 = a^2
    with pytest.raises(StructureError, match=r"\(ab\)\^2 is not the identity"):
        _dihedral_action(kg.graph, a, complement_automorphism(kg))


@pytest.mark.parametrize("n", range(3, 11))
def test_relations_without_a_single_orbit_raise(n):
    kg, _, _ = _translations(n)
    identity = tuple(range(kg.vertex_count))
    with pytest.raises(VerificationError, match="does not act transitively"):
        _dihedral_action(kg.graph, identity, identity)
