"""The brute-force reference implementations in conftest."""

import pytest
from conftest import TooLarge, layers_of, naive_mul, super_sym_multiset

from hilbhodge.series import TriSeries


def test_one_odd_generator_squares_to_zero():
    assert super_sym_multiset({(0, 1): 1}, 2) == {}


def test_two_even_generators():
    got = super_sym_multiset({(0, 0): 1, (1, 1): 1}, 2)
    assert got == {(0, 0): 1, (1, 1): 1, (2, 2): 1}


def test_hopf_sym_square():
    dims = {(0, 0): 1, (0, 1): 1, (2, 1): 1, (2, 2): 1}
    got = super_sym_multiset(dims, 2)
    assert got == {
        (0, 0): 1,
        (0, 1): 1,
        (2, 1): 1,
        (2, 2): 2,
        (2, 3): 1,
        (4, 3): 1,
        (4, 4): 1,
    }


def test_sym_zero_is_one():
    assert super_sym_multiset({(1, 0): 2}, 0) == {(0, 0): 1}


def test_guard_rejects_large_spaces():
    with pytest.raises(TooLarge):
        super_sym_multiset({(0, 0): 13}, 2)


def test_naive_mul_identity_and_zero():
    a = {(1, 1, 1): 4, (0, 0, 0): 1}
    assert naive_mul(a, {(0, 0, 0): 1}, 3) == a
    assert naive_mul({}, a, 3) == {}
    assert naive_mul(a, a, 1) == {(0, 0, 0): 1, (1, 1, 1): 8}  # truncated at t^1


def test_naive_mul_matches_operator():
    a = {(0, 0, 0): 1, (1, 0, 1): -2, (0, 2, 2): 3}
    b = {(0, 0, 0): -1, (0, 1, 1): 5}
    assert layers_of(naive_mul(a, b, 3), 3) == (TriSeries(a, 3) * TriSeries(b, 3)).layers()
