"""Integer partitions as multiplicity vectors, and the nested index set.

A partition of n with a_k parts equal to k is stored as the vector
(a_1, ..., a_r) with a_r > 0 (empty for n = 0).  All the
partition-indexed sums in this package consume exactly this shape, so no
part-list conversion happens anywhere downstream.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

__all__ = [
    "PartitionMultiplicity",
    "nested_index_set",
    "partitions",
]


class PartitionMultiplicity(namedtuple("PartitionMultiplicity", "mults")):
    """A partition encoded by multiplicities: a_k parts equal to k."""

    __slots__ = ()

    def __new__(cls, mults: tuple[int, ...]) -> PartitionMultiplicity:
        if any(a < 0 for a in mults):
            raise ValueError("multiplicities must be nonnegative")
        if mults and mults[-1] == 0:
            raise ValueError("trailing multiplicity must be positive")
        return super().__new__(cls, mults)

    @property
    def length(self) -> int:
        """Number of parts, sum of a_k."""
        return sum(self.mults)


def _part_lists(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _part_lists(n - first, first):
            yield (first,) + rest


def partitions(n: int) -> list[PartitionMultiplicity]:
    """All partitions of n, in ascending lexicographic order of mult vectors.

    The order is total and documented so that every partition-indexed
    output of this package is reproducible byte for byte.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    for parts in _part_lists(n, n):
        mults = [0] * (parts[0] if parts else 0)
        for p in parts:
            mults[p - 1] += 1
        out.append(PartitionMultiplicity(tuple(mults)))
    out.sort(key=lambda lam: lam.mults)
    return out


def nested_index_set(n: int) -> list[tuple[PartitionMultiplicity, int]]:
    """All pairs (partition of n, marked part j), j = 0 or a_j > 0.

    The j = 0 pair is always present; the remaining pairs mark one of the
    distinct part sizes occurring in the partition.
    """
    out: list[tuple[PartitionMultiplicity, int]] = []
    for lam in partitions(n):
        out.append((lam, 0))
        for k, a in enumerate(lam.mults, start=1):
            if a:
                out.append((lam, k))
    return out
