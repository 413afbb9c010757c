"""Series ring: arithmetic, t-layers; the Euler factors built on it; the int exp recurrence."""

from fractions import Fraction

import pytest
from conftest import naive_mul, plus
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbhodge.engine import IntegralityFailure, _exp_layers, _super_product
from hilbhodge.series import TriSeries

ONE = TriSeries.one(4)
ONE_MINUS_T = TriSeries({(0, 0, 0): 1, (0, 0, 1): -1}, 4)
ONE_PLUS_T = TriSeries({(0, 0, 0): 1, (0, 0, 1): 1}, 4)
ONE_PLUS_XT = TriSeries({(0, 0, 0): 1, (1, 0, 1): 1}, 4)
ONE_PLUS_YT = TriSeries({(0, 0, 0): 1, (0, 1, 1): 1}, 4)


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
    # and fractions, an integral one included: coefficients are ints only
    for value in (1.5, Fraction(1, 2), Fraction(2, 2)):
        with pytest.raises(TypeError, match=f"got {type(value).__name__}"):
            TriSeries({(0, 0, 0): value}, 2)


def test_constructor_rejects_bools():
    # True is an int subclass; kept, it would print as "True" in a rendered table
    with pytest.raises(TypeError, match="got bool"):
        TriSeries({(0, 0, 0): True}, 2)


def test_no_scalar_multiplication():
    for scalar in (2, True, Fraction(1, 2)):
        with pytest.raises(TypeError):
            ONE * scalar
        with pytest.raises(TypeError):
            scalar * ONE


def test_constructor_rejects_negative_exponents():
    with pytest.raises(ValueError):
        TriSeries({(-1, 0, 0): 1}, 2)


# -- mul -------------------------------------------------------------------


def test_mul_difference_of_squares():
    assert ONE_PLUS_T * ONE_MINUS_T == TriSeries({(0, 0, 0): 1, (0, 0, 2): -1}, 4)


def test_mul_identity():
    a = TriSeries({(2, 1, 3): 7, (0, 0, 1): -2}, 4)
    assert a * ONE == a


def test_mul_expands_binomials():
    got = ONE_PLUS_XT * ONE_PLUS_YT
    want = TriSeries(
        {(0, 0, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (1, 1, 2): 1}, 4
    )
    assert got == want


# -- Euler factors: inverses and powers of 1 - m t^k ---------------------------


def factor(ex, ey, k, odd, h, trunc=4):
    """(1 - s x^ex y^ey t^k)^(-s h), s = -1 odd and +1 even, as t-layers of the Euler builder."""
    return _super_product(lambda level: [(ex, ey, odd, h)] if level == k else [], trunc)


def test_invert_geometric_series():
    assert factor(0, 0, 1, 0, 1) == geometric(4).layers()


def test_invert_xy_geometric():
    s = factor(1, 1, 1, 0, 1)
    assert s == TriSeries({(n, n, n): 1 for n in range(5)}, 4).layers()


def test_invert_is_two_sided_up_to_truncation():
    # (1 - x y^2 t^k)^h and its inverse, h of either sign
    for k in (1, 2):
        for h in (1, 2, -3):
            pair = [(1, 2, 0, h), (1, 2, 0, -h)]
            assert _super_product(lambda level: pair if level == k else [], 4) == ONE.layers()


def test_pow_square():
    assert factor(0, 0, 1, 1, 2) == TriSeries(
        {(0, 0, 0): 1, (0, 0, 1): 2, (0, 0, 2): 1}, 4
    ).layers()


def test_pow_zero():
    assert factor(1, 1, 1, 0, 0) == ONE.layers()
    assert factor(1, 1, 1, 1, 0) == ONE.layers()


def test_pow_negative_two():
    got = factor(0, 0, 1, 0, 2)
    want = TriSeries({(0, 0, n): n + 1 for n in range(5)}, 4)
    assert got == want.layers()


def test_pow_negative_equals_invert_of_pow():
    # an odd generator with h = -3 is 1/(1 + x t)^3
    pair = [(1, 0, 1, -3), (1, 0, 1, 3)]
    assert _super_product(lambda level: pair if level == 1 else [], 4) == ONE.layers()
    want = TriSeries(
        {(n, 0, n): (-1) ** n * (n + 1) * (n + 2) // 2 for n in range(5)}, 4
    )
    assert factor(1, 0, 1, 1, -3) == want.layers()


# -- the exp route's recurrence ------------------------------------------------


def test_exp_of_t():
    # D_1 = 1 is exp(t) = 1 + t + t^2/2 + ...: integral to t^1, not at t^2
    assert _exp_layers([{}, {0: 1}]) == [{0: 1}, {0: 1}]
    with pytest.raises(IntegralityFailure, match="non-integer"):
        _exp_layers([{}, {0: 1}, {}])


def test_integral_fraction_collapses_to_int():
    # exp(2t) = 1 + 2t + 2t^2: the step 2 E_2 = D_1 E_1 = 4 divides exactly,
    # and the quotient 4/2 is stored as the int 2, not as a fraction
    got = _exp_layers([{}, {0: 2}, {}])
    assert got == [{0: 1}, {0: 2}, {0: 2}]
    assert all(type(c) is int for layer in got for c in layer.values())


def test_exp_of_power_sums_is_geometric():
    # D_j = 1 for every j: exp(sum_j t^j / j) = 1/(1 - t)
    assert _exp_layers([{}] + [{0: 1}] * 4) == [{0: 1}] * 5


# -- coefficient extraction --------------------------------------------------------


def test_coefficient_of_t_picks_diagonal():
    s = TriSeries({(n, n, n): 1 for n in range(5)}, 4)
    assert s.layers()[3] == {(3, 3): 1}


@pytest.mark.parametrize(
    "series",
    [
        TriSeries({}, 0),
        TriSeries.one(0),
        TriSeries({(1, 2, 0): -3, (0, 0, 0): 1}, 0),
        TriSeries({}, 3),
        ONE_PLUS_XT,  # layers 2..4 empty
        TriSeries({(2, 1, 3): 5, (0, 0, 0): 1, (1, 1, 3): -2}, 4),
        TriSeries({(n, n, n): 1 for n in range(5)}, 4),
    ],
    ids=repr,
)
def test_layers_are_every_coefficient_of_t(series):
    layers = series.layers()
    assert len(layers) == series.trunc_t + 1
    assert layers == [
        {(ex, ey): v for (ex, ey, et), v in series.sorted_terms() if et == n}
        for n in range(series.trunc_t + 1)
    ]


# -- the Euler product builder ------------------------------------------------------------------


def _count_partitions(n: int, max_part: int | None = None) -> int:
    # independent brute-force enumeration, kept free of the partitions module
    if n == 0:
        return 1
    cap = n if max_part is None else min(n, max_part)
    return sum(_count_partitions(n - p, p) for p in range(1, cap + 1))


def test_super_product_counts_partitions():
    layers = _super_product(lambda k: [(0, 0, 0, 1)], 5)
    assert layers[5] == {(0, 0): _count_partitions(5)} and _count_partitions(5) == 7
    for n in range(6):
        assert layers[n] == {(0, 0): _count_partitions(n)}


def test_super_product_of_ones():
    assert _super_product(lambda k: [(k, k, k % 2, 0)], 3) == TriSeries.one(3).layers()


def test_super_product_truncation_one():
    # prod_k (1 - t^k): only k = 1 reaches t^1
    layers = _super_product(lambda k: [(0, 0, 0, -1)], 1)
    assert layers == [{(0, 0): 1}, {(0, 0): -1}]


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
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * plus(b, c) == plus(a * b, a * c)


def horner_exp(arg, trunc):
    """exp of a {(e_y, e_t): Fraction} dict by N nested multiplications,
    1 + arg/1 (1 + arg/2 (1 + ...)), cut at t^trunc; zeros dropped."""
    result = {(0, 0): Fraction(1)}
    for j in range(trunc, 0, -1):
        product = {}
        for (ae, at), av in arg.items():
            for (re, rt), rv in result.items():
                if at + rt <= trunc:
                    key = (ae + re, at + rt)
                    product[key] = product.get(key, 0) + av * rv
        result = {key: v / j for key, v in product.items()}
        result[(0, 0)] = result.get((0, 0), 0) + 1
    return {key: v for key, v in result.items() if v}


@st.composite
def weighted_layers_st(draw):
    """Int layers D_1..D_N as {e_y: int}, half of them those of an Euler product.

    The product prod_(k, e) (1 - y^e t^k)^(-c) is exp of
    sum_(k, e, m) c y^(e m) t^(k m) / m, so D_(k m) gains k c at y^(e m):
    its expansion is integral.  Free draws are mostly not.
    """
    trunc = draw(st.integers(1, 5))
    layers = [{} for _ in range(trunc + 1)]
    if draw(st.booleans()):
        for _ in range(draw(st.integers(0, 4))):
            k = draw(st.integers(1, trunc))
            e, c = draw(st.integers(0, 2)), draw(st.integers(-3, 3))
            for m in range(1, trunc // k + 1):
                layers[k * m][e * m] = layers[k * m].get(e * m, 0) + k * c
    else:
        for j in range(1, trunc + 1):
            layers[j] = draw(st.dictionaries(st.integers(0, 2), st.integers(-4, 4), max_size=3))
    return layers


@settings(max_examples=100, deadline=None)
@given(weighted_layers_st())
def test_exp_recurrence_matches_horner_loop(weighted):
    trunc = len(weighted) - 1
    arg = {(e, j): Fraction(d, j) for j in range(1, trunc + 1) for e, d in weighted[j].items()}
    want = horner_exp(arg, trunc)
    if any(v.denominator != 1 for v in want.values()):
        with pytest.raises(IntegralityFailure):
            _exp_layers(weighted)
        return
    got = _exp_layers(weighted)
    assert len(got) == trunc + 1
    assert {(e, n): c for n, layer in enumerate(got) for e, c in layer.items()} == want
    assert all(type(c) is int and c for layer in got for c in layer.values())


@settings(max_examples=60, deadline=None)
@given(series_st(), series_st())
def test_mul_matches_naive_oracle(a, b):
    assert a * b == naive_mul(a, b)


@settings(max_examples=60, deadline=None)
@given(series_st(), series_st())
def test_no_stored_zero_coefficients(a, b):
    assert all(v != 0 for _, v in (a * b).sorted_terms())
