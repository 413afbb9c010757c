"""Series ring: arithmetic, exp, t-layers; the Euler factors built on it."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbhodge.engine import _super_product
from hilbhodge.oracles import naive_mul
from hilbhodge.series import (
    BadConstantTerm,
    TriSeries,
    TruncationExceeded,
)

ONE = TriSeries.one(4)
T = TriSeries({(0, 0, 1): 1}, 4)
X = TriSeries({(1, 0, 0): 1}, 4)
Y = TriSeries({(0, 1, 0): 1}, 4)
ONE_MINUS_T = TriSeries({(0, 0, 0): 1, (0, 0, 1): -1}, 4)


def geometric(trunc):
    """1/(1-t) written out, the brute-force way."""
    return TriSeries({(0, 0, n): 1 for n in range(trunc + 1)}, trunc)


# -- constructors and invariants ------------------------------------------


def test_constructor_prunes_zero_terms():
    s = TriSeries({(0, 0, 0): 1, (1, 0, 1): 0}, 3)
    assert len(s) == 1


def test_constructor_drops_terms_beyond_truncation():
    s = TriSeries({(0, 0, 5): 3}, 2)
    assert not s


def test_constructor_rejects_floats():
    with pytest.raises(TypeError):
        TriSeries({(0, 0, 0): 1.5}, 2)


def test_constructor_rejects_bools():
    # True is an int subclass; kept, it would print as "True" in str()
    with pytest.raises(TypeError, match="got bool"):
        TriSeries({(0, 0, 0): True}, 2)
    with pytest.raises(TypeError, match="got bool"):
        ONE * True


def test_constructor_rejects_negative_exponents():
    with pytest.raises(ValueError):
        TriSeries({(-1, 0, 0): 1}, 2)


def test_integral_fraction_collapses_to_int():
    s = TriSeries({(0, 0, 0): Fraction(4, 2)}, 1)
    assert s.coefficient(0, 0, 0) == 2
    assert isinstance(s.coefficient(0, 0, 0), int)


# -- add -------------------------------------------------------------------


def test_add_cancellation():
    one_plus_t = ONE + T
    assert one_plus_t + ONE_MINUS_T == TriSeries({(0, 0, 0): 2}, 4)


def test_add_identity():
    a = TriSeries({(1, 2, 1): 5, (0, 0, 0): -1}, 4)
    assert a + TriSeries.zero(4) == a


def test_add_collects_linear_terms():
    assert X * T + Y * T == TriSeries({(1, 0, 1): 1, (0, 1, 1): 1}, 4)


def test_add_uses_minimum_truncation():
    a = TriSeries({(0, 0, 3): 1}, 3)
    b = TriSeries.one(2)
    assert (a + b).trunc_t == 2
    assert (a + b) == TriSeries.one(2)


# -- mul -------------------------------------------------------------------


def test_mul_difference_of_squares():
    assert (ONE + T) * ONE_MINUS_T == TriSeries({(0, 0, 0): 1, (0, 0, 2): -1}, 4)


def test_mul_identity():
    a = TriSeries({(2, 1, 3): 7, (0, 0, 1): -2}, 4)
    assert a * ONE == a


def test_mul_expands_binomials():
    got = (ONE + X * T) * (ONE + Y * T)
    want = TriSeries(
        {(0, 0, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (1, 1, 2): 1}, 4
    )
    assert got == want


# -- Euler factors: inverses and powers of 1 - m t^k ---------------------------


def factor(ex, ey, k, odd, h, trunc=4):
    """(1 - s x^ex y^ey t^k)^(-s h), s = -1 odd and +1 even, from the Euler builder."""
    return _super_product(lambda level: [(ex, ey, odd, h)] if level == k else [], trunc)


def test_invert_geometric_series():
    assert factor(0, 0, 1, 0, 1) == geometric(4)


def test_invert_xy_geometric():
    s = factor(1, 1, 1, 0, 1)
    assert s == TriSeries({(n, n, n): 1 for n in range(5)}, 4)


def test_invert_is_two_sided_up_to_truncation():
    # (1 - x y^2 t^k)^h and its inverse, h of either sign
    for k in (1, 2):
        for h in (1, 2, -3):
            pair = [(1, 2, 0, h), (1, 2, 0, -h)]
            assert _super_product(lambda level: pair if level == k else [], 4) == ONE


def test_pow_square():
    assert factor(0, 0, 1, 1, 2) == TriSeries(
        {(0, 0, 0): 1, (0, 0, 1): 2, (0, 0, 2): 1}, 4
    )


def test_pow_zero():
    assert factor(1, 1, 1, 0, 0) == ONE
    assert factor(1, 1, 1, 1, 0) == ONE


def test_pow_negative_two():
    got = factor(0, 0, 1, 0, 2)
    want = TriSeries({(0, 0, n): n + 1 for n in range(5)}, 4)
    assert got == want


def test_pow_negative_equals_invert_of_pow():
    # an odd generator with h = -3 is 1/(1 + x t)^3
    pair = [(1, 0, 1, -3), (1, 0, 1, 3)]
    assert _super_product(lambda level: pair if level == 1 else [], 4) == ONE
    want = TriSeries(
        {(n, 0, n): (-1) ** n * (n + 1) * (n + 2) // 2 for n in range(5)}, 4
    )
    assert factor(1, 0, 1, 1, -3) == want


# -- exp / log -----------------------------------------------------------------


def test_exp_of_t():
    got = TriSeries({(0, 0, 1): 1}, 3).exp()
    want = TriSeries(
        {(0, 0, 0): 1, (0, 0, 1): 1, (0, 0, 2): Fraction(1, 2), (0, 0, 3): Fraction(1, 6)},
        3,
    )
    assert got == want


def test_exp_of_power_sums_is_geometric():
    arg = TriSeries({(0, 0, m): Fraction(1, m) for m in range(1, 5)}, 4)
    assert arg.exp() == geometric(4)


def test_exp_requires_vanishing_constant():
    with pytest.raises(BadConstantTerm):
        ONE.exp()
    with pytest.raises(BadConstantTerm):
        X.exp()  # t-degree 0 but x-degree 1


# -- coefficient extraction --------------------------------------------------------


def test_coefficient_of_t_picks_diagonal():
    s = TriSeries({(n, n, n): 1 for n in range(5)}, 4)
    assert s.coefficient_of_t(3) == {(3, 3): 1}


def test_coefficient_of_t_out_of_range():
    with pytest.raises(TruncationExceeded):
        ONE.coefficient_of_t(5)


@pytest.mark.parametrize(
    "series",
    [
        TriSeries.zero(0),
        TriSeries.one(0),
        TriSeries({(1, 2, 0): -3, (0, 0, 0): 1}, 0),
        TriSeries.zero(3),
        ONE + X * T,  # layers 2..4 empty
        TriSeries({(2, 1, 3): 5, (0, 0, 0): 1, (1, 1, 3): Fraction(1, 2)}, 4),
        TriSeries({(n, n, n): 1 for n in range(5)}, 4),
    ],
    ids=repr,
)
def test_layers_are_every_coefficient_of_t(series):
    layers = series.layers()
    assert len(layers) == series.trunc_t + 1
    assert layers == [series.coefficient_of_t(n) for n in range(series.trunc_t + 1)]


# -- the Euler product builder ------------------------------------------------------------------


def _count_partitions(n: int, max_part: int | None = None) -> int:
    # independent brute-force enumeration, kept free of the partitions module
    if n == 0:
        return 1
    cap = n if max_part is None else min(n, max_part)
    return sum(_count_partitions(n - p, p) for p in range(1, cap + 1))


def test_super_product_counts_partitions():
    series = _super_product(lambda k: [(0, 0, 0, 1)], 5)
    assert series.coefficient(0, 0, 5) == _count_partitions(5) == 7
    for n in range(6):
        assert series.coefficient(0, 0, n) == _count_partitions(n)


def test_super_product_of_ones():
    assert _super_product(lambda k: [(k, k, k % 2, 0)], 3) == TriSeries.one(3)


def test_super_product_truncation_one():
    # prod_k (1 - t^k): only k = 1 reaches t^1
    series = _super_product(lambda k: [(0, 0, 0, -1)], 1)
    assert series == TriSeries({(0, 0, 0): 1, (0, 0, 1): -1}, 1)


# -- property tests ---------------------------------------------------------------------


@st.composite
def series_st(draw, trunc=3):
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        key = (
            draw(st.integers(0, 2)),
            draw(st.integers(0, 2)),
            draw(st.integers(0, trunc)),
        )
        terms[key] = draw(st.integers(-3, 3))
    return TriSeries(terms, trunc)


@settings(max_examples=60, deadline=None)
@given(series_st(), series_st(), series_st())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def horner_exp(a):
    """exp by N nested full-series multiplications, 1 + a/1 (1 + a/2 (1 + ...))."""
    one = TriSeries.one(a.trunc_t)
    result = one
    for j in range(a.trunc_t, 0, -1):
        result = one + (a * result) * Fraction(1, j)
    return result


@st.composite
def fraction_series_st(draw, trunc=4):
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        key = (
            draw(st.integers(0, 2)),
            draw(st.integers(0, 2)),
            draw(st.integers(1, trunc)),
        )
        terms[key] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 6)))
    return TriSeries(terms, trunc)


@settings(max_examples=60, deadline=None)
@given(fraction_series_st())
def test_exp_recurrence_matches_horner_loop(a):
    assert a.exp() == horner_exp(a)


def test_exp_of_half_t_stays_non_integral():
    got = TriSeries({(0, 0, 1): Fraction(1, 2)}, 3).exp()
    assert not got.is_integral()
    assert got.coefficient(0, 0, 1) == Fraction(1, 2)
    assert got.coefficient(0, 0, 3) == Fraction(1, 48)


@settings(max_examples=60, deadline=None)
@given(series_st(), series_st())
def test_mul_matches_naive_oracle(a, b):
    assert a * b == naive_mul(a, b)


@settings(max_examples=60, deadline=None)
@given(series_st(), series_st())
def test_no_stored_zero_coefficients(a, b):
    for result in (a + b, a * b, a + b * -1):
        assert all(v != 0 for _, v in result.sorted_terms())
