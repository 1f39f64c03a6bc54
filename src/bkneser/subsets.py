"""Exact combinatorics of k-subsets of [n] = {1, ..., n}.

A subset of [n] is a plain int mask: bit i-1 holds element i, and the
complement of a mask is ``mask ^ ((1 << n) - 1)``; a Python int has no
width, so n has no upper cap.  Lexicographic order on sorted element lists
is the canonical order; every vertex index in the rest of the package
is derived from the ranks computed here.  Both ``rank_subset`` and
``unrank_subset`` check n; ``rank_subset`` also checks the mask where it
enters, and ``unrank_subset`` checks the rank and builds only valid masks.
A value that is not an int raises ``DomainError`` (see ``errors.as_int``).
"""

from __future__ import annotations

import math

from .errors import CardinalityError, DomainError, RankError, as_int


def binomial(n: int, k: int) -> int:
    """Exact C(n, k); zero when k > n, errors on negative or non-int arguments."""
    try:
        return math.comb(n, k)
    except (TypeError, ValueError):
        raise DomainError(f"binomial requires ints n, k >= 0, got ({n!r}, {k!r})") from None


def format_subset(mask: int) -> str:
    """The label of a subset mask: bits 0 and 2 give "{1,3}", the empty mask "{}"."""
    mask = as_int(mask, "subset mask")
    if mask < 0:
        raise DomainError(f"subset mask must be non-negative, got {mask}")
    return "{" + ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def _check_ground_set(n: int) -> None:
    if as_int(n, "ground set size") < 1:
        raise DomainError(f"ground set size must be at least 1, got {n}")


def rank_subset(mask: int, n: int, k: int) -> int:
    """Lexicographic rank of the k-subset ``mask`` among all k-subsets of [n]."""
    _check_ground_set(n)
    mask = as_int(mask, "subset mask")
    k = as_int(k, "subset size")
    if mask < 0 or mask >> n:
        raise DomainError(f"mask {mask:#x} has bits outside [{n}]")
    if mask.bit_count() != k:
        raise CardinalityError(
            f"expected a {k}-subset, got {format_subset(mask)} with {mask.bit_count()} elements"
        )
    rank = 0
    prev = 0
    i = 0
    for c in range(1, n + 1):
        if mask >> (c - 1) & 1:
            i += 1
            for skipped in range(prev + 1, c):
                rank += binomial(n - skipped, k - i)
            prev = c
    return rank


def unrank_subset(rank: int, n: int, k: int) -> int:
    """Inverse of rank_subset: the mask of the k-subset of [n] at the given lex rank."""
    _check_ground_set(n)
    rank = as_int(rank, "subset rank")
    total = binomial(n, k)
    if not 0 <= rank < total:
        raise RankError(f"rank {rank} outside [0, {total}) for (n, k) = ({n}, {k})")
    mask = 0
    candidate = 1
    remaining = k
    while remaining > 0:
        block = math.comb(n - candidate, remaining - 1)  # both >= 0: n and k passed the checks
        if rank < block:
            mask |= 1 << (candidate - 1)
            remaining -= 1
        else:
            rank -= block
        candidate += 1
    return mask
