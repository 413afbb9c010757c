"""The test-local partition enumerator and the nested index set (conftest)."""

from conftest import euler_power, naive_mul, nested_index_set, partitions


def test_partition_of_zero():
    assert partitions(0) == [()]


def test_partition_of_one():
    assert partitions(1) == [(1,)]


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
            assert sum(k * a for k, a in enumerate(lam, start=1)) == n
            assert all(a >= 0 for a in lam)
            if lam:
                assert lam[-1] > 0


def test_partitions_unique_and_sorted():
    for n in range(9):
        vectors = partitions(n)
        assert len(set(vectors)) == len(vectors)
        assert vectors == sorted(vectors)


def test_partition_parts_round_trip():
    lam = (2, 0, 1)  # 3 + 1 + 1
    assert lam in partitions(5)
    assert sum(lam) == 3


def test_partition_count_matches_generating_function():
    # the generating-function route: prod (1 - t^k)^-1
    series = {(0, 0, 0): 1}
    for k in range(8, 0, -1):
        series = naive_mul(series, euler_power((1, 0, 0), k, 1, 8), 8)
    for n in range(9):
        assert series.get((0, 0, n), 0) == len(partitions(n))


def test_nested_index_set_zero():
    assert nested_index_set(0) == [((), 0)]


def test_nested_index_set_one():
    assert nested_index_set(1) == [((1,), 0), ((1,), 1)]


def test_nested_index_set_two():
    # each of the two partitions has one distinct part, plus the j=0 marker
    assert nested_index_set(2) == [((0, 1), 0), ((0, 1), 2), ((2,), 0), ((2,), 1)]


def test_nested_index_set_marks_only_present_parts():
    for n in range(7):
        for lam, j in nested_index_set(n):
            if j:
                assert lam[j - 1] > 0
    # size: one j=0 marker per partition plus one per distinct part
    assert len(nested_index_set(3)) == 3 + 4  # partitions (3),(1 2),(1^3)
