"""Series ring: multiplication, t-layers; the Euler factors built on it; the int exp recurrence.

The ring's constructor stores the map it is given, so every operand here is a
clean term dict (no zero value, ``e_t <= trunc``), like those
``_super_product`` hands it; the products are read back through ``layers()``.
"""

from fractions import Fraction
from random import Random

import pytest
from conftest import layers_of, naive_mul, plus, random_table, terms_of
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbhodge.engine import (
    IntegralityFailure,
    _exp_layers,
    _super_product,
    betti_series,
    chi_y_product,
    hilb_series,
    nested_series,
)
from hilbhodge.series import TriSeries

ONE = TriSeries.one(4)
ONE_MINUS_T = TriSeries({(0, 0, 0): 1, (0, 0, 1): -1}, 4)
ONE_PLUS_T = TriSeries({(0, 0, 0): 1, (0, 0, 1): 1}, 4)
ONE_PLUS_XT = TriSeries({(0, 0, 0): 1, (1, 0, 1): 1}, 4)
ONE_PLUS_YT = TriSeries({(0, 0, 0): 1, (0, 1, 1): 1}, 4)


# -- what the ring receives ------------------------------------------------


def test_super_product_hands_the_ring_only_clean_terms(monkeypatch):
    # the constructor checks nothing; every map the Euler builders (and the
    # products they take) hand it must hold the ring's invariants
    real = TriSeries.__init__
    built = []

    def checked(self, terms, trunc_t):
        for (ex, ey, et), value in terms.items():
            assert type(value) is int and value, ((ex, ey, et), value)
            assert min(ex, ey, et) >= 0 and et <= trunc_t, ((ex, ey, et), trunc_t)
        built.append(len(terms))
        real(self, terms, trunc_t)

    monkeypatch.setattr(TriSeries, "__init__", checked)
    rng = Random(28)
    negative_h = False
    for _ in range(8):
        table, table_lp = random_table(rng, 6), random_table(rng, 6)
        hilb_series(table, 6)
        nested_series(table, table_lp, 6)
        chi_y_product(table, 6)
        betti_series([rng.randint(0, 4) for _ in range(5)], 6)
        negative_h |= any(
            (-1) ** p * table.diamond(k).chi_column(p) < 0 for k in range(1, 7) for p in range(3)
        )
    assert negative_h and len(built) > 100


# -- mul -------------------------------------------------------------------


def test_no_scalar_multiplication():
    for scalar in (2, True, Fraction(1, 2)):
        with pytest.raises(TypeError):
            ONE * scalar
        with pytest.raises(TypeError):
            scalar * ONE


def test_mul_difference_of_squares():
    assert (ONE_PLUS_T * ONE_MINUS_T).layers() == layers_of({(0, 0, 0): 1, (0, 0, 2): -1}, 4)


def test_mul_identity():
    a = {(2, 1, 3): 7, (0, 0, 1): -2}
    assert (TriSeries(a, 4) * ONE).layers() == layers_of(a, 4)


def test_mul_expands_binomials():
    got = ONE_PLUS_XT * ONE_PLUS_YT
    want = {(0, 0, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (1, 1, 2): 1}
    assert got.layers() == layers_of(want, 4)


# -- Euler factors: inverses and powers of 1 - m t^k ---------------------------


ONE_LAYERS = layers_of({(0, 0, 0): 1}, 4)


def factor(ex, ey, k, odd, h, trunc=4):
    """(1 - s x^ex y^ey t^k)^(-s h), s = -1 odd and +1 even, as t-layers of the Euler builder."""
    return _super_product(lambda level: [(ex, ey, odd, h)] if level == k else [], trunc)


def test_invert_geometric_series():
    assert factor(0, 0, 1, 0, 1) == layers_of({(0, 0, n): 1 for n in range(5)}, 4)


def test_invert_xy_geometric():
    s = factor(1, 1, 1, 0, 1)
    assert s == layers_of({(n, n, n): 1 for n in range(5)}, 4)


def test_invert_is_two_sided_up_to_truncation():
    # (1 - x y^2 t^k)^h and its inverse, h of either sign
    for k in (1, 2):
        for h in (1, 2, -3):
            pair = [(1, 2, 0, h), (1, 2, 0, -h)]
            assert _super_product(lambda level: pair if level == k else [], 4) == ONE_LAYERS


def test_pow_square():
    assert factor(0, 0, 1, 1, 2) == layers_of({(0, 0, 0): 1, (0, 0, 1): 2, (0, 0, 2): 1}, 4)


def test_pow_zero():
    assert factor(1, 1, 1, 0, 0) == ONE_LAYERS
    assert factor(1, 1, 1, 1, 0) == ONE_LAYERS


def test_pow_negative_two():
    got = factor(0, 0, 1, 0, 2)
    assert got == layers_of({(0, 0, n): n + 1 for n in range(5)}, 4)


def test_pow_negative_equals_invert_of_pow():
    # an odd generator with h = -3 is 1/(1 + x t)^3
    pair = [(1, 0, 1, -3), (1, 0, 1, 3)]
    assert _super_product(lambda level: pair if level == 1 else [], 4) == ONE_LAYERS
    want = {(n, 0, n): (-1) ** n * (n + 1) * (n + 2) // 2 for n in range(5)}
    assert factor(1, 0, 1, 1, -3) == layers_of(want, 4)


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


LAYER_CASES = [
    ({}, 0),
    ({(0, 0, 0): 1}, 0),
    ({(1, 2, 0): -3, (0, 0, 0): 1}, 0),
    ({}, 3),
    ({(0, 0, 0): 1, (1, 0, 1): 1}, 4),  # layers 2..4 empty
    ({(2, 1, 3): 5, (0, 0, 0): 1, (1, 1, 3): -2}, 4),
    ({(n, n, n): 1 for n in range(5)}, 4),
]


@pytest.mark.parametrize(
    "terms, trunc",
    LAYER_CASES,
    ids=[f"TriSeries({len(terms)} terms, trunc_t={trunc})" for terms, trunc in LAYER_CASES],
)
def test_layers_are_every_coefficient_of_t(terms, trunc):
    layers = TriSeries(terms, trunc).layers()
    assert len(layers) == trunc + 1
    assert layers == [
        {(ex, ey): v for (ex, ey, et), v in terms.items() if et == n} for n in range(trunc + 1)
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
    assert _super_product(lambda k: [(k, k, k % 2, 0)], 3) == layers_of({(0, 0, 0): 1}, 3)


def test_super_product_truncation_one():
    # prod_k (1 - t^k): only k = 1 reaches t^1
    layers = _super_product(lambda k: [(0, 0, 0, -1)], 1)
    assert layers == [{(0, 0): 1}, {(0, 0): -1}]


# -- property tests ---------------------------------------------------------------------


@st.composite
def series_st(draw, trunc=3):
    """A clean term dict to t^trunc: drawn values of 0 are dropped, as the ring needs."""
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        key = (
            draw(st.integers(0, 2)),
            draw(st.integers(0, 2)),
            draw(st.integers(0, trunc)),
        )
        terms[key] = draw(st.integers(-3, 3))
    return {key: v for key, v in terms.items() if v}


@settings(max_examples=60, deadline=None)
@given(series_st(), series_st(), series_st())
def test_ring_axioms(a, b, c):
    sa, sb, sc = (TriSeries(x, 3) for x in (a, b, c))
    assert (sa * sb).layers() == (sb * sa).layers()
    assert ((sa * sb) * sc).layers() == (sa * (sb * sc)).layers()
    sum_bc = TriSeries(plus(b, c), 3)
    sums = plus(terms_of((sa * sb).layers()), terms_of((sa * sc).layers()))
    assert (sa * sum_bc).layers() == layers_of(sums, 3)


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
    assert (TriSeries(a, 3) * TriSeries(b, 3)).layers() == layers_of(naive_mul(a, b, 3), 3)


@settings(max_examples=60, deadline=None)
@given(series_st(), series_st())
def test_no_stored_zero_coefficients(a, b):
    product = TriSeries(a, 3) * TriSeries(b, 3)
    assert all(v != 0 for layer in product.layers() for v in layer.values())
