"""Partition enumeration and the nested index set."""

import pytest
from conftest import euler_power

from hilbhodge.partitions import (
    PartitionMultiplicity,
    nested_index_set,
    partitions,
)
from hilbhodge.series import TriSeries


def test_partition_of_zero():
    assert partitions(0) == [PartitionMultiplicity(())]


def test_partition_of_one():
    assert partitions(1) == [PartitionMultiplicity((1,))]


def test_partition_count_four():
    # exhaustive recursive cross-check
    def count(n, max_part):
        if n == 0:
            return 1
        return sum(count(n - p, p) for p in range(1, min(n, max_part) + 1))

    assert len(partitions(4)) == count(4, 4) == 5


def test_partition_invariants():
    for n in range(9):
        for lam in partitions(n):
            assert sum(k * a for k, a in enumerate(lam.mults, start=1)) == n
            assert lam.length == sum(lam.mults)
            if lam.mults:
                assert lam.mults[-1] > 0


def test_partitions_unique_and_sorted():
    for n in range(9):
        vectors = [lam.mults for lam in partitions(n)]
        assert len(set(vectors)) == len(vectors)
        assert vectors == sorted(vectors)


def test_partition_parts_round_trip():
    lam = PartitionMultiplicity((2, 0, 1))  # 3 + 1 + 1
    assert lam in partitions(5)
    assert lam.length == 3


def test_partition_rejects_bad_vectors():
    with pytest.raises(ValueError, match="^trailing multiplicity must be positive$"):
        PartitionMultiplicity((1, 0))
    with pytest.raises(ValueError, match="^multiplicities must be nonnegative$"):
        PartitionMultiplicity((-1, 1))


def test_partition_record_contract():
    lam = PartitionMultiplicity(mults=(2, 0, 1))
    assert repr(lam) == "PartitionMultiplicity(mults=(2, 0, 1))"
    assert lam == PartitionMultiplicity((2, 0, 1))
    assert lam != PartitionMultiplicity((0, 0, 0, 0, 1))
    assert hash(lam) == hash(PartitionMultiplicity((2, 0, 1)))
    assert len(set(partitions(5)) | {lam}) == 7
    with pytest.raises(AttributeError):
        lam.mults = (5,)
    with pytest.raises(AttributeError):
        lam.extra = 1


def test_partition_count_matches_generating_function():
    # the generating-function route: prod (1 - t^k)^-1
    series = TriSeries.one(8)
    for k in range(8, 0, -1):
        series = series * euler_power((1, 0, 0), k, 1, 8)
    for n in range(9):
        assert series.coefficient(0, 0, n) == len(partitions(n))


def test_nested_index_set_zero():
    assert nested_index_set(0) == [(PartitionMultiplicity(()), 0)]


def test_nested_index_set_one():
    assert nested_index_set(1) == [
        (PartitionMultiplicity((1,)), 0),
        (PartitionMultiplicity((1,)), 1),
    ]


def test_nested_index_set_two():
    # each of the two partitions has one distinct part, plus the j=0 marker
    got = nested_index_set(2)
    assert got == [
        (PartitionMultiplicity((0, 1)), 0),
        (PartitionMultiplicity((0, 1)), 2),
        (PartitionMultiplicity((2,)), 0),
        (PartitionMultiplicity((2,)), 1),
    ]


def test_nested_index_set_marks_only_present_parts():
    for n in range(7):
        for lam, j in nested_index_set(n):
            if j:
                assert lam.mults[j - 1] > 0
    # size: one j=0 marker per partition plus one per distinct part
    assert len(nested_index_set(3)) == 3 + 4  # partitions (3),(1 2),(1^3)
