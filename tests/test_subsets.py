import math
from itertools import combinations

import pytest

from bkneser import Subset, binomial, rank_subset, unrank_subset
from bkneser.errors import CardinalityError, DomainError, RankError


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


def test_binomial_pascal_rule_and_comb():
    for n in range(1, 31):
        for k in range(1, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)
        for k in range(0, n + 1):
            assert binomial(n, k) == math.comb(n, k)


def test_subset_basics():
    s = Subset.from_elements(5, [2, 3, 5])
    assert s.elements() == (2, 3, 5)
    assert s.cardinality == 3
    assert str(s) == "{2,3,5}"
    assert 3 in s and 4 not in s
    assert list(s) == [2, 3, 5]


def test_subset_validation():
    with pytest.raises(DomainError):
        Subset(0b1, 31)  # ground set cap
    with pytest.raises(DomainError):
        Subset(0b1000, 3)  # bit outside [n]
    with pytest.raises(DomainError):
        Subset.from_elements(3, [4])


def test_rank_examples():
    assert rank_subset(Subset.from_elements(3, [1]), 1) == 0
    assert rank_subset(Subset.from_elements(3, [3]), 1) == 2
    assert rank_subset(Subset.from_elements(4, [1, 2]), 2) == 0


def test_rank_wrong_cardinality():
    with pytest.raises(CardinalityError):
        rank_subset(Subset.from_elements(4, [1, 2]), 3)


def test_unrank_examples():
    assert unrank_subset(0, 3, 1).elements() == (1,)
    assert unrank_subset(2, 3, 1).elements() == (3,)
    with pytest.raises(RankError):
        unrank_subset(3, 3, 1)
    with pytest.raises(RankError):
        unrank_subset(-1, 3, 1)


def test_rank_unrank_round_trip_6_2():
    for r in range(binomial(6, 2)):
        assert rank_subset(unrank_subset(r, 6, 2), 2) == r


def test_rank_matches_lexicographic_enumeration():
    # itertools.combinations enumerates k-subsets in exactly lexicographic
    # order of sorted element lists: the independent ordering oracle.
    for n in range(1, 9):
        for k in range(0, n + 1):
            for expected_rank, elems in enumerate(combinations(range(1, n + 1), k)):
                s = Subset.from_elements(n, elems)
                assert rank_subset(s, k) == expected_rank
                assert unrank_subset(expected_rank, n, k).elements() == elems


def test_complement_examples():
    assert Subset.from_elements(4, [1]).complement().elements() == (2, 3, 4)
    assert Subset(0, 3).complement().elements() == (1, 2, 3)
    assert Subset.from_elements(5, [2, 3]).complement().elements() == (1, 4, 5)


def test_complement_involution_and_size():
    for n in range(1, 8):
        for k in range(0, n + 1):
            for elems in combinations(range(1, n + 1), k):
                s = Subset.from_elements(n, elems)
                assert s.complement().cardinality == n - k
                assert s.complement().complement() == s
