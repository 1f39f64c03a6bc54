import math
from itertools import combinations

import pytest

from bkneser import binomial, build_bipartite_kneser, format_subset, rank_subset, unrank_subset
from bkneser.errors import CardinalityError, DomainError, RankError
from conftest import mask


def elements(m):
    return tuple(i + 1 for i in range(m.bit_length()) if m >> i & 1)


def test_binomial_examples():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    for n in (0, 1, 7, 30):
        assert binomial(n, 0) == 1
    assert binomial(3, 5) == 0


def test_binomial_rejects_negative():
    with pytest.raises(DomainError):
        binomial(-1, 2)
    with pytest.raises(DomainError):
        binomial(4, -2)


@pytest.mark.parametrize("call", [
    lambda kg: rank_subset(3.0, 5, 2),
    lambda kg: rank_subset(3, 5.0, 2),
    lambda kg: rank_subset(3, 5, 2.0),
    lambda kg: unrank_subset(1.0, 5, 2),
    lambda kg: unrank_subset(1, 5, 2.0),
    lambda kg: format_subset("3"),
    lambda kg: binomial(5.0, 2),
    lambda kg: binomial(5, "2"),
    lambda kg: kg.vertex_of_subset(3.0),
    lambda kg: kg.subset_of_vertex(1.0),
    lambda kg: build_bipartite_kneser(5.0, 2),
    lambda kg: build_bipartite_kneser(5, 2.0),
], ids=["rank-mask", "rank-n", "rank-k", "unrank-rank", "unrank-k", "format",
        "binomial-n", "binomial-k", "vertex-of-subset", "subset-of-vertex",
        "build-n", "build-k"])
def test_non_int_values_raise_domain_error(call):
    # operator.index rejects each of these; none may escape as a raw TypeError,
    # an AttributeError or a silently accepted float
    with pytest.raises(DomainError):
        call(build_bipartite_kneser(5, 2))


def test_builder_names_its_own_non_int_argument():
    # checked where n and k enter, not by the binomial the builder calls
    with pytest.raises(DomainError, match=r"^n must be an int, got 5\.0$"):
        build_bipartite_kneser(5.0, 2)
    with pytest.raises(DomainError, match=r"^k must be an int, got 2\.0$"):
        build_bipartite_kneser(5, 2.0)


def test_binomial_pascal_rule_and_comb():
    for n in range(1, 31):
        for k in range(1, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)
        for k in range(0, n + 1):
            assert binomial(n, k) == math.comb(n, k)


def test_subset_basics():
    s = mask(2, 3, 5)
    assert s == 0b10110
    assert s.bit_count() == 3
    assert format_subset(s) == "{2,3,5}"
    assert format_subset(0) == "{}"


def test_subset_validation():
    with pytest.raises(DomainError):
        rank_subset(0b1, 0, 1)  # empty ground set
    with pytest.raises(DomainError):
        rank_subset(0b1000, 3, 1)  # bit outside [n]
    with pytest.raises(DomainError):
        rank_subset(-1, 3, 1)  # negative masks hold no subset
    with pytest.raises(DomainError):
        format_subset(-1)


def test_rank_examples():
    assert rank_subset(mask(1), 3, 1) == 0
    assert rank_subset(mask(3), 3, 1) == 2
    assert rank_subset(mask(1, 2), 4, 2) == 0
    assert rank_subset(mask(3, 4), 4, 2) == 5


def test_rank_wrong_cardinality():
    with pytest.raises(CardinalityError):
        rank_subset(mask(1, 2), 4, 3)


def test_unrank_examples():
    assert unrank_subset(0, 3, 1) == mask(1)
    assert unrank_subset(2, 3, 1) == mask(3)
    with pytest.raises(RankError):
        unrank_subset(3, 3, 1)
    with pytest.raises(RankError):
        unrank_subset(-1, 3, 1)
    with pytest.raises(DomainError):
        unrank_subset(0, 0, 0)  # empty ground set


def test_rank_unrank_round_trip_6_2():
    for r in range(binomial(6, 2)):
        assert rank_subset(unrank_subset(r, 6, 2), 6, 2) == r


def test_unrank_inverts_rank_on_every_built_family():
    feasible = [(n, k) for n in range(3, 13) for k in range(1, (n - 1) // 2 + 1)]
    for n, k in feasible + [(17, 1), (20, 2)]:
        for r in range(binomial(n, k)):
            assert rank_subset(unrank_subset(r, n, k), n, k) == r, (n, k, r)


def test_rank_matches_lexicographic_enumeration():
    # itertools.combinations enumerates k-subsets in exactly lexicographic
    # order of sorted element lists: the independent ordering oracle.
    for n in range(1, 9):
        for k in range(0, n + 1):
            for expected_rank, elems in enumerate(combinations(range(1, n + 1), k)):
                assert rank_subset(mask(*elems), n, k) == expected_rank
                assert elements(unrank_subset(expected_rank, n, k)) == elems


def test_complement_examples():
    # the (n-k)-side of H(n,k) holds the complements, mask ^ ((1 << n) - 1)
    kg = build_bipartite_kneser(4, 1)
    assert kg.subset_of_vertex(kg.side_size) == mask(2, 3, 4)
    assert format_subset(kg.subset_of_vertex(kg.side_size)) == "{2,3,4}"
    kg = build_bipartite_kneser(5, 2)
    partner = kg.side_size + rank_subset(mask(2, 3), 5, 2)
    assert elements(kg.subset_of_vertex(partner)) == (1, 4, 5)
    kg = build_bipartite_kneser(3, 1)
    assert [format_subset(kg.subset_of_vertex(i)) for i in range(3, 6)] == [
        "{2,3}", "{1,3}", "{1,2}"
    ]


def test_complement_involution_and_size():
    for n in range(1, 8):
        full = (1 << n) - 1
        for k in range(0, n + 1):
            for elems in combinations(range(1, n + 1), k):
                s = mask(*elems)
                rest = [x for x in range(1, n + 1) if x not in elems]
                assert s ^ full == mask(*rest)
                assert (s ^ full).bit_count() == n - k
                assert (s ^ full) ^ full == s
