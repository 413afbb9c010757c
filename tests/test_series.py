"""Series ring: arithmetic, inversion, exp, substitution, Euler products."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbhodge.oracles import naive_mul
from hilbhodge.series import (
    BadConstantTerm,
    FactorNotNormalized,
    NonUnitConstantTerm,
    TriSeries,
    TruncationExceeded,
    UnsupportedSubstitution,
    euler_product,
)

ONE = TriSeries.one(4)
T = TriSeries.monomial(1, 0, 0, 1, 4)
X = TriSeries.monomial(1, 1, 0, 0, 4)
Y = TriSeries.monomial(1, 0, 1, 0, 4)


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
    one_minus_t = ONE - T
    assert one_plus_t + one_minus_t == TriSeries({(0, 0, 0): 2}, 4)


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
    assert (ONE + T) * (ONE - T) == TriSeries({(0, 0, 0): 1, (0, 0, 2): -1}, 4)


def test_mul_identity():
    a = TriSeries({(2, 1, 3): 7, (0, 0, 1): -2}, 4)
    assert a * ONE == a


def test_mul_expands_binomials():
    got = (ONE + X * T) * (ONE + Y * T)
    want = TriSeries(
        {(0, 0, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (1, 1, 2): 1}, 4
    )
    assert got == want


# -- invert ------------------------------------------------------------------


def test_invert_geometric_series():
    assert (ONE - T).invert() == geometric(4)


def test_invert_one():
    assert ONE.invert() == ONE


def test_invert_xy_geometric():
    s = TriSeries({(0, 0, 0): 1, (1, 1, 1): -1}, 4).invert()
    assert s == TriSeries({(n, n, n): 1 for n in range(5)}, 4)


def test_invert_is_two_sided_up_to_truncation():
    a = TriSeries({(0, 0, 0): -1, (1, 0, 1): 2, (0, 2, 2): 3}, 4)
    assert a * a.invert() == ONE
    assert a.invert() * a == ONE


def test_invert_rejects_zero_constant():
    with pytest.raises(NonUnitConstantTerm):
        T.invert()


def test_invert_rejects_nonconstant_unit_layer():
    with pytest.raises(NonUnitConstantTerm):
        (ONE + X).invert()


def test_invert_non_unit_integer_goes_rational():
    a = TriSeries({(0, 0, 0): 2, (0, 0, 1): 1}, 3)
    assert a * a.invert() == TriSeries.one(3)


# -- int_pow -------------------------------------------------------------------


def test_pow_square():
    assert (ONE + T).int_pow(2) == TriSeries(
        {(0, 0, 0): 1, (0, 0, 1): 2, (0, 0, 2): 1}, 4
    )


def test_pow_zero():
    a = TriSeries({(1, 1, 1): 9, (0, 0, 0): 1}, 4)
    assert a.int_pow(0) == ONE


def test_pow_negative_two():
    got = (ONE - T).int_pow(-2)
    want = TriSeries({(0, 0, n): n + 1 for n in range(5)}, 4)
    assert got == want


def test_pow_negative_equals_invert_of_pow():
    a = ONE + X * T + Y * T
    assert a.int_pow(-3) == a.int_pow(3).invert()


# -- exp / log -----------------------------------------------------------------


def test_exp_of_t():
    got = TriSeries.monomial(1, 0, 0, 1, 3).exp()
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


# -- substitution ----------------------------------------------------------------


def test_substitute_x_to_one():
    s = ONE + X * T
    assert s.substitute({"x": 1}) == ONE + T


def test_substitute_swap():
    s = TriSeries({(2, 1, 1): 1, (0, 0, 0): 1}, 4)
    assert s.substitute({"x": "y", "y": "x"}) == TriSeries(
        {(1, 2, 1): 1, (0, 0, 0): 1}, 4
    )


def test_substitute_y_to_minus_one():
    s = ONE + Y * T
    assert s.substitute({"y": -1}) == ONE - T


def test_substitute_x_to_minus_y():
    s = TriSeries({(2, 0, 1): 3, (1, 0, 0): 1}, 4)
    got = s.substitute({"x": "-y"})
    assert got == TriSeries({(0, 2, 1): 3, (0, 1, 0): -1}, 4)


def test_substitute_to_zero_kills_x_terms():
    s = ONE + X * T + T
    assert s.substitute({"x": 0}) == ONE + T


def test_substitute_merges_terms():
    s = TriSeries({(1, 0, 1): 1, (0, 1, 1): -1}, 4)
    assert s.substitute({"y": "x"}) == TriSeries.zero(4)


def test_substitute_rejects_general_targets():
    with pytest.raises(UnsupportedSubstitution):
        ONE.substitute({"x": 2})
    with pytest.raises(UnsupportedSubstitution):
        ONE.substitute({"x": "t"})
    with pytest.raises(UnsupportedSubstitution):
        ONE.substitute({"t": 1})


# -- coefficient extraction --------------------------------------------------------


def test_coefficient_of_t_picks_diagonal():
    s = TriSeries({(0, 0, 0): 1, (1, 1, 1): -1}, 4).invert()
    assert s.coefficient_of_t(3) == {(3, 3): 1}


def test_coefficient_of_t_out_of_range():
    with pytest.raises(TruncationExceeded):
        ONE.coefficient_of_t(5)


# -- euler products ------------------------------------------------------------------


def _count_partitions(n: int, max_part: int | None = None) -> int:
    # independent brute-force enumeration, kept free of the partitions module
    if n == 0:
        return 1
    cap = n if max_part is None else min(n, max_part)
    return sum(_count_partitions(n - p, p) for p in range(1, cap + 1))


def test_euler_product_counts_partitions():
    series = euler_product(
        lambda k: TriSeries({(0, 0, 0): 1, (0, 0, k): -1}, 5).invert(), 5
    )
    assert series.coefficient(0, 0, 5) == _count_partitions(5) == 7
    for n in range(6):
        assert series.coefficient(0, 0, n) == _count_partitions(n)


def test_euler_product_of_ones():
    assert euler_product(lambda k: TriSeries.one(3), 3) == TriSeries.one(3)


def test_euler_product_truncation_one():
    series = euler_product(
        lambda k: TriSeries({(0, 0, 0): 1, (0, 0, k): -1}, 1), 1
    )
    assert series == TriSeries({(0, 0, 0): 1, (0, 0, 1): -1}, 1)


def test_euler_product_rejects_unnormalized_factor():
    with pytest.raises(FactorNotNormalized):
        euler_product(lambda k: TriSeries({(0, 0, 0): 1, (0, 0, 1): 1}, 3), 3)


def test_euler_product_rejects_wrong_constant():
    with pytest.raises(FactorNotNormalized):
        euler_product(lambda k: TriSeries({(0, 0, 0): 2}, 3), 3)


# -- property tests ---------------------------------------------------------------------


@st.composite
def series_st(draw, trunc=3, min_t=0):
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        key = (
            draw(st.integers(0, 2)),
            draw(st.integers(0, 2)),
            draw(st.integers(min_t, trunc)),
        )
        terms[key] = draw(st.integers(-3, 3))
    return TriSeries(terms, trunc)


@st.composite
def unit_series_st(draw, trunc=3):
    body = draw(series_st(trunc=trunc, min_t=1))
    constant = draw(st.sampled_from([1, -1]))
    return body + TriSeries({(0, 0, 0): constant}, trunc)


@settings(max_examples=60, deadline=None)
@given(series_st(), series_st(), series_st())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(unit_series_st())
def test_invert_round_trip(a):
    assert a * a.invert() == TriSeries.one(a.trunc_t)


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
    got = TriSeries.monomial(Fraction(1, 2), 0, 0, 1, 3).exp()
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
    for result in (a + b, a * b, a - b):
        assert all(v != 0 for _, v in result.sorted_terms())
