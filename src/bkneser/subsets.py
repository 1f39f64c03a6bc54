"""Exact combinatorics of k-subsets of [n] = {1, ..., n}.

Subsets are stored as bitmasks: bit i-1 holds element i, so the ground set
fits in a single machine word (n is capped at 30).  Lexicographic order on
sorted element lists is the canonical order; every vertex index in the rest
of the package is derived from the ranks computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CardinalityError, DomainError, RankError

MAX_GROUND_SET = 30


def binomial(n: int, k: int) -> int:
    """Exact C(n, k); zero when k > n, errors on negative arguments."""
    if n < 0 or k < 0:
        raise DomainError(f"binomial requires n, k >= 0, got ({n}, {k})")
    if k > n:
        return 0
    k = min(k, n - k)
    result = 1
    for i in range(1, k + 1):
        result = result * (n - k + i) // i
    return result


@dataclass(frozen=True)
class Subset:
    """A subset of [n] as an n-bit mask; bit i-1 stores element i."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_GROUND_SET:
            raise DomainError(f"ground set size must be in 1..{MAX_GROUND_SET}, got {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise DomainError(f"mask {self.bits:#x} has bits outside [{self.n}]")

    @classmethod
    def from_elements(cls, n: int, elements: Iterable[int]) -> "Subset":
        bits = 0
        for x in elements:
            if not 1 <= x <= n:
                raise DomainError(f"element {x} outside ground set [{n}]")
            bits |= 1 << (x - 1)
        return cls(bits, n)

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    def elements(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.bits >> i & 1)

    def complement(self) -> "Subset":
        """[n] minus this subset; an involution."""
        return Subset(self.bits ^ ((1 << self.n) - 1), self.n)

    def __contains__(self, x: int) -> bool:
        return 1 <= x <= self.n and bool(self.bits >> (x - 1) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements())

    def __str__(self) -> str:
        return "{" + ",".join(str(x) for x in self.elements()) + "}"


def rank_subset(s: Subset, k: int) -> int:
    """Lexicographic rank of a k-subset among all k-subsets of [s.n]."""
    if s.cardinality != k:
        raise CardinalityError(f"expected a {k}-subset, got {s} with {s.cardinality} elements")
    n = s.n
    rank = 0
    prev = 0
    for i, c in enumerate(s.elements(), start=1):
        for skipped in range(prev + 1, c):
            rank += binomial(n - skipped, k - i)
        prev = c
    return rank


def unrank_subset(rank: int, n: int, k: int) -> Subset:
    """Inverse of rank_subset: the k-subset of [n] at the given lex rank."""
    total = binomial(n, k)
    if not 0 <= rank < total:
        raise RankError(f"rank {rank} outside [0, {total}) for (n, k) = ({n}, {k})")
    bits = 0
    candidate = 1
    remaining = k
    while remaining > 0:
        block = binomial(n - candidate, remaining - 1)
        if rank < block:
            bits |= 1 << (candidate - 1)
            remaining -= 1
        else:
            rank -= block
        candidate += 1
    return Subset(bits, n)
