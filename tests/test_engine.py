"""The closed formulas: symmetric powers, Hilbert series, specializations."""

from fractions import Fraction
from random import Random

import pytest
from conftest import euler_power, random_symmetric_table, random_table
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilbhodge import engine
from hilbhodge.engine import (
    HodgePolynomial,
    InsufficientPowers,
    IntegralityFailure,
    _super_product,
    _sym_terms,
    betti_series,
    chi_y_exp,
    chi_y_from_hodge,
    chi_y_from_hodge_series,
    chi_y_product,
    deformation_closed_forms,
    deformation_dims,
    hh_dims,
    hh_from_rhs,
    hh_rhs_series,
    hilb_coefficient,
    hilb_series,
    hilb_strata,
    hilb_via_partitions,
    nested_coefficient,
    nested_series,
    nested_via_strata,
    sn_invariant_tangent,
    sym_power_twisted_hodge,
    tangent_dims_from_layer,
)
from hilbhodge.oracles import naive_mul, super_sym_multiset
from hilbhodge.partitions import nested_index_set, partitions
from hilbhodge.series import TriSeries
from hilbhodge.surfaces import PRESET_NAMES, SurfaceDiamond, TwistedTable, preset

HOPF = preset("hopf", max_power=12)

# Sym^2 of the hopf diamond: the multisets of one even pair and four
# mixed pairs of the generators 1, y, x^2 y, x^2 y^2
HOPF_SYM2 = {
    (0, 0): 1,
    (0, 1): 1,
    (2, 1): 1,
    (2, 2): 2,
    (2, 3): 1,
    (4, 3): 1,
    (4, 4): 1,
}

# the Hilb^2 table of the hopf surface, an 11-term polynomial
HOPF_HILB2 = {
    (0, 0): 1,
    (0, 1): 1,
    (1, 1): 1,
    (1, 2): 1,
    (2, 1): 1,
    (2, 2): 2,
    (2, 3): 1,
    (3, 2): 1,
    (3, 3): 1,
    (4, 3): 1,
    (4, 4): 1,
}


def test_hodge_polynomial_rejects_non_int_dimensions():
    # a bool would render as "True" in str() and as "h": true in JSON
    for value in (True, False, 1.0):
        with pytest.raises(TypeError, match=type(value).__name__):
            HodgePolynomial({(0, 0): value}, 0)
    with pytest.raises(IntegralityFailure, match="1/2"):
        HodgePolynomial({(0, 0): Fraction(1, 2)}, 0)
    assert HodgePolynomial({(0, 0): Fraction(2, 2)}, 0).entry(0, 0) == 1


# -- super symmetric powers ----------------------------------------------


def test_super_sym_one_odd_generator():
    assert _sym_terms({(0, 1): 1}, 4) == [{(0, 0): 1}, {(0, 1): 1}, {}, {}, {}]


def test_super_sym_one_even_generator():
    assert _sym_terms({(1, 1): 1}, 4) == [{(n, n): 1} for n in range(5)]


def test_super_sym_hopf_square():
    assert _sym_terms(HOPF.table.diamond(0).bigraded(), 2)[2] == HOPF_SYM2
    assert super_sym_multiset(HOPF.table.diamond(0).bigraded(), 2) == HOPF_SYM2


def test_sym_power_zero_is_a_point():
    sym = sym_power_twisted_hodge(HOPF.table.diamond(0), 0)
    assert dict(sym.items()) == {(0, 0): 1}
    assert sym.space_dim == 0


def test_sym_power_one_is_identity():
    d = HOPF.table.diamond(0)
    sym = sym_power_twisted_hodge(d, 1)
    assert dict(sym.items()) == d.bigraded()
    assert sym.space_dim == 2


def test_sym_power_two_hopf():
    sym = sym_power_twisted_hodge(HOPF.table.diamond(0), 2)
    assert dict(sym.items()) == HOPF_SYM2
    assert sym.space_dim == 4


# -- the Euler product builder ------------------------------------------------

# (k, e_x, e_y, odd, h): a generator of level k <= 3, odd and even, h = -3..3
super_generators = st.lists(
    st.tuples(
        st.integers(1, 3),
        st.integers(0, 2),
        st.integers(0, 2),
        st.integers(0, 1),
        st.integers(-3, 3),
    ),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(super_generators, st.integers(0, 6))
# no caller hands the builder an odd generator with h < 0; this test does
@example([(1, 1, 0, 1, -2), (2, 0, 1, 1, -3), (1, 2, 2, 0, 3)], 6)
def test_super_product_matches_naive_product_of_long_factors(generators, N):
    want = TriSeries.one(N)
    for k, ex, ey, odd, h in generators:
        sign = -1 if odd else 1
        factor = euler_power((sign, ex, ey), k, sign * h, N, naive_mul)
        want = naive_mul(want, factor)
    got = _super_product(lambda k: [g[1:] for g in generators if g[0] == k], N)
    assert got == want


def test_euler_side_calls_no_strata_helper(monkeypatch):
    # product-vs-partition compares two kernels only while they share no code
    def forbidden(*args):
        raise AssertionError("the Euler side reached a strata helper")

    for name in ("_sym_layers", "_pack", "_unpack", "_slot_bits", "comb"):
        monkeypatch.setattr(engine, name, forbidden)
    ds = preset("k3", max_power=4)
    for build in (hilb_series, chi_y_product, hh_rhs_series):
        build(ds.table, 4)
    betti_series(ds.betti, 4)


# -- the main series --------------------------------------------------------


def test_hilb_series_order_zero_is_one():
    rng = Random(7)
    table = random_table(rng, 3)
    assert hilb_series(table, 3).coefficient(0, 0, 0) == 1


def test_hilb_series_linear_term_is_the_diamond():
    rng = Random(8)
    for _ in range(5):
        table = random_table(rng, 3)
        poly = hilb_series(table, 3).coefficient_of_t(1)
        assert dict(poly.items()) == table.diamond(1).bigraded()


def test_hilb_hopf_square_is_the_printed_polynomial():
    poly = hilb_coefficient(HOPF.table, 2)
    assert dict(poly.items()) == HOPF_HILB2


def test_hilb_degree_bounds():
    rng = Random(9)
    table = random_table(rng, 4)
    for (ex, ey, et), _ in hilb_series(table, 4).sorted_terms():
        assert ex <= 2 * et and ey <= 2 * et


def test_hilb_coefficients_are_nonnegative_integers():
    rng = Random(10)
    table = random_table(rng, 4)
    for _, value in hilb_series(table, 4).sorted_terms():
        assert isinstance(value, int) and value > 0


def swap_xy(series):
    """The series with x and y exchanged."""
    terms = {(ey, ex, et): c for (ex, ey, et), c in series.sorted_terms()}
    return TriSeries(terms, series.trunc_t)


def test_hilb_xy_symmetry_for_symmetric_tables():
    rng = Random(11)
    for _ in range(5):
        table = random_symmetric_table(rng, 4)
        series = hilb_series(table, 4)
        assert swap_xy(series) == series


def test_hilb_constant_table_equals_untwisted_product():
    # the trivial-bundle series written out directly from the one diamond
    d = preset("k3").table.diamond(0)
    trunc = 5
    direct = TriSeries.one(trunc)
    for k in range(1, trunc + 1):
        for (p, q), h in d.bigraded().items():
            sign = -1 if (p + q) % 2 else 1
            m = (sign, p + k - 1, q + k - 1)
            direct = direct * euler_power(m, k, sign * h, trunc)
    assert direct == hilb_series(preset("k3", max_power=trunc).table, trunc)


def test_hilb_insufficient_powers_names_missing_k():
    ds = preset("hopf", max_power=2)
    with pytest.raises(InsufficientPowers, match="k=3"):
        hilb_series(ds.table, 5)


# -- partition route ---------------------------------------------------------


def test_partitions_route_n1_is_the_diamond():
    rng = Random(12)
    table = random_table(rng, 2)
    poly = hilb_via_partitions(table, 1)
    assert dict(poly.items()) == table.diamond(1).bigraded()


def test_partitions_route_hopf_square():
    poly = hilb_via_partitions(HOPF.table, 2)
    assert dict(poly.items()) == HOPF_HILB2


def test_partitions_route_matches_product_route():
    rng = Random(13)
    for _ in range(10):
        table = random_table(rng, 5)
        series = hilb_series(table, 5)
        for n in range(6):
            got = HodgePolynomial(series.coefficient_of_t(n), 2 * n)
            assert got == hilb_via_partitions(table, n)


def twisted_tables(max_power):
    """Tables of max_power + 1 independent diamonds with entries 0..3."""
    grid = st.lists(st.integers(0, 3), min_size=3, max_size=3)
    diamond = st.lists(grid, min_size=3, max_size=3).map(SurfaceDiamond)
    return st.lists(diamond, min_size=max_power + 1, max_size=max_power + 1).map(
        TwistedTable
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), twisted_tables(n))))
def test_strata_route_matches_product_route_on_random_tables(case):
    n, table = case
    assert hilb_via_partitions(table, n) == hilb_coefficient(table, n)


def _strata_per_partition(table, n):
    """The strata route as one fresh fold per partition of n.

    The shape hilb_via_partitions had before the one-pass walk: every
    stratum's product is rebuilt from its Sym^{a_k} tables in ascending k.
    """
    acc = {}
    for lam in partitions(n):
        product = {(0, 0): 1}
        for k, a in enumerate(lam.mults, start=1):
            if not a:
                continue
            factor = sym_power_twisted_hodge(table.diamond(k), a)
            folded = {}
            for (p1, q1), u in product.items():
                for (p2, q2), v in factor.items():
                    key = (p1 + p2, q1 + q2)
                    folded[key] = folded.get(key, 0) + u * v
            product = folded
        shift = n - lam.length
        for (p, q), value in product.items():
            key = (p + shift, q + shift)
            acc[key] = acc.get(key, 0) + value
    return HodgePolynomial(acc, 2 * n)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), twisted_tables(n))))
# N = 10 has strata with a_k >= 2 at several part sizes k at once (1^2 2^2 4)
@example((10, random_table(Random(10), 10)))
def test_one_pass_strata_match_product_route_and_per_partition_fold(case):
    N, table = case
    layers = hilb_strata(table, N)
    series = hilb_series(table, N)
    assert layers == [
        HodgePolynomial(series.coefficient_of_t(n), 2 * n)
        for n in range(N + 1)
    ]
    assert layers == [_strata_per_partition(table, n) for n in range(N + 1)]


# -- metamorphic identities ------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(st.just(n), twisted_tables(n))))
def test_transposed_table_swaps_x_and_y(case):
    N, table = case
    transposed = TwistedTable([d.transposed() for d in table.diamonds()])
    swapped = swap_xy(hilb_series(table, N))
    assert hilb_series(transposed, N) == swapped
    for got, poly in zip(hilb_strata(transposed, N), hilb_strata(table, N)):
        assert dict(got.items()) == {(q, p): v for (p, q), v in poly.items()}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_serre_symmetry_on_untwisted_presets(name):
    # h^{p,q}(Hilb^n) = h^{2n-p,2n-q}(Hilb^n) for the trivial bundle
    N = 6
    series = hilb_series(preset(name, max_power=N).table, N)
    for n in range(N + 1):
        terms = dict(series.coefficient_of_t(n).items())
        assert {(2 * n - p, 2 * n - q): v for (p, q), v in terms.items()} == terms, n


# -- nested spaces -------------------------------------------------------------


def test_nested_order_zero_is_residual_diamond():
    rng = Random(14)
    table_l = random_table(rng, 3)
    table_lp = random_table(rng, 3)
    poly = nested_series(table_l, table_lp, 3).coefficient_of_t(0)
    assert dict(poly.items()) == table_lp.diamond(0).bigraded()


def test_nested_trivial_bundles_factorize():
    for name in ("hopf", "k3"):
        ds = preset(name, max_power=5)
        series = nested_series(ds.table, ds.nested_or_main(), 5)
        surface = TriSeries(
            {(p, q, 0): v for (p, q), v in ds.table.diamond(0).bigraded().items()}, 5
        )
        point_chain = euler_power((1, 1, 1), 1, 1, 5)
        assert series == hilb_series(ds.table, 5) * surface * point_chain


def test_nested_strata_order_zero():
    rng = Random(15)
    table_l = random_table(rng, 2)
    table_lp = random_table(rng, 2)
    poly = nested_via_strata(table_l, table_lp, 0)
    assert dict(poly.items()) == table_lp.diamond(0).bigraded()
    assert poly.space_dim == 2


def test_nested_strata_matches_series():
    rng = Random(16)
    for _ in range(8):
        table_l = random_table(rng, 4)
        table_lp = random_table(rng, 4)
        series = nested_series(table_l, table_lp, 4)
        for n in range(5):
            got = HodgePolynomial(series.coefficient_of_t(n), 2 * n + 2)
            assert got == nested_via_strata(table_l, table_lp, n)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(st.just(n), twisted_tables(n), twisted_tables(n))
    )
)
def test_nested_strata_match_product_route_on_random_tables(case):
    n, table_l, table_lp = case
    assert nested_via_strata(table_l, table_lp, n) == nested_coefficient(
        table_l, table_lp, n
    )


def _sym_by_series(dims, a):
    """Sym^a of a bigraded super space through the TriSeries kernel.

    The shape super_sym_series had before the packed binomial tables:
    one (1 -+ x^p y^q t)^{-+v} factor per bidegree, by euler_power.
    """
    result = TriSeries.one(a)
    for (p, q), v in sorted(dims.items()):
        sign = -1 if (p + q) % 2 else 1
        result = result * euler_power((sign, p, q), 1, sign * v, a)
    return dict(result.coefficient_of_t(a).items())


def _nested_per_marked_partition(table_l, table_llp, n):
    """The nested strata route as one dict fold per (partition, marked part).

    The shape nested_via_strata had before packing: the residual diamond
    times the Sym^{a_k} tables (one copy of the marked part j dropped),
    shifted by n - len, plus one when a part is marked.
    """
    acc = {}
    for lam, j in nested_index_set(n):
        mults = list(lam.mults)
        shift = n - lam.length
        if j:
            shift += 1
            mults[j - 1] -= 1
        product = table_llp.diamond(j).bigraded()
        for k, a in enumerate(mults, start=1):
            if not a:
                continue
            folded = {}
            for (p1, q1), u in product.items():
                for (p2, q2), v in _sym_by_series(table_l.diamond(k).bigraded(), a).items():
                    key = (p1 + p2, q1 + q2)
                    folded[key] = folded.get(key, 0) + u * v
            product = folded
        for (p, q), value in product.items():
            key = (p + shift, q + shift)
            acc[key] = acc.get(key, 0) + value
    return HodgePolynomial(acc, 2 * n + 2)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(st.just(n), twisted_tables(n), twisted_tables(n))
    )
)
def test_nested_strata_match_per_marked_partition_fold(case):
    n, table_l, table_lp = case
    assert nested_via_strata(table_l, table_lp, n) == _nested_per_marked_partition(
        table_l, table_lp, n
    )


bidegree_dims = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(0, 10**6), max_size=5
)


@settings(max_examples=50, deadline=None)
@given(bidegree_dims, st.integers(0, 5))
def test_binomial_sym_tables_match_series_kernel(dims, a):
    layers = _sym_terms(dims, a)
    for b in range(a + 1):
        assert layers[b] == _sym_by_series(dims, b)


def _huge_table(rng, max_power):
    """Entries around 10^9: at t^5 coefficients reach 157 bits, slots 168."""
    return TwistedTable(
        [
            SurfaceDiamond(
                [[rng.randint(10**9, 2 * 10**9) for _ in range(3)] for _ in range(3)]
            )
            for _ in range(max_power + 1)
        ]
    )


def test_strata_slot_width_follows_coefficient_size():
    rng = Random(18)
    table = _huge_table(rng, 5)
    series = hilb_series(table, 5)
    layers = hilb_strata(table, 5)
    assert max(v for _, v in series.sorted_terms()).bit_length() > 64
    assert layers == [
        HodgePolynomial(series.coefficient_of_t(n), 2 * n)
        for n in range(6)
    ]
    table_lp = _huge_table(rng, 3)
    for n in range(4):
        assert nested_via_strata(table, table_lp, n) == nested_coefficient(
            table, table_lp, n
        ), n
    diamond = table.diamond(1)
    assert dict(sym_power_twisted_hodge(diamond, 4).items()) == _sym_by_series(
        diamond.bigraded(), 4
    )


def test_nested_degree_bounds():
    rng = Random(17)
    table_l = random_table(rng, 4)
    table_lp = random_table(rng, 4)
    for (ex, ey, et), _ in nested_series(table_l, table_lp, 4).sorted_terms():
        assert ex <= 2 * et + 2 and ey <= 2 * et + 2


# -- chi_y routes -----------------------------------------------------------------


def test_chi_y_order_zero_and_one():
    ds = preset("k3", max_power=4)
    for route in (chi_y_product, chi_y_exp, chi_y_from_hodge):
        series = route(ds.table, 4)
        assert series.coefficient(0, 0, 0) == 1
        # t^1 coefficient is chi_{-y}(S): for K3 that is 2 + 20 y + 2 y^2
        assert [series.coefficient(0, j, 1) for j in range(3)] == [2, 20, 2]


def test_chi_y_three_routes_agree():
    rng = Random(18)
    tables = [preset("hopf", max_power=6).table, preset("torus", max_power=6).table]
    tables += [random_table(rng, 6) for _ in range(4)]
    for table in tables:
        a = chi_y_product(table, 6)
        b = chi_y_exp(table, 6)
        c = chi_y_from_hodge(table, 6)
        assert a == b == c
        assert a.is_integral()


def test_chi_y_hopf_is_trivial():
    # all three columns of the hopf diamond have vanishing Euler characteristic
    series = chi_y_product(HOPF.table, 6)
    assert series == TriSeries.one(6)


def test_chi_y_exp_zero_table():
    from hilbhodge.surfaces import SurfaceDiamond, TwistedTable

    zero = TwistedTable.constant(SurfaceDiamond([[0] * 3] * 3), 4)
    assert chi_y_exp(zero, 4) == TriSeries.one(4)


def _summed(series, key, sign):
    """Sum every term c x^ex y^ey t^et into key(ex, ey, et), times sign(ex, ey)."""
    acc = {}
    for (ex, ey, et), c in series.sorted_terms():
        acc[key(ex, ey, et)] = acc.get(key(ex, ey, et), 0) + sign(ex, ey) * c
    return TriSeries(acc, series.trunc_t)


def _has_odd_class(table):
    odd = ((0, 1), (1, 0), (1, 2), (2, 1))
    return any(d.entry(p, q) for d in table.diamonds() for p, q in odd)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda n: st.tuples(st.just(n), twisted_tables(n).filter(_has_odd_class))
    )
)
def test_per_layer_collapses_match_the_whole_series(case):
    # x -> -y, y -> -1 gives chi_y; y -> x gives the Betti numbers
    N, table = case
    series = hilb_series(table, N)
    chi_y = _summed(series, lambda ex, ey, et: (0, ex, et), lambda ex, ey: (-1) ** (ex + ey))
    assert chi_y_from_hodge_series(series) == chi_y
    betti = _summed(series, lambda ex, ey, et: (ex + ey, 0, et), lambda ex, ey: 1)
    assert _betti_layers(series) == betti.layers()


# -- Betti numbers and Frolicher ---------------------------------------------------


def test_betti_series_low_orders():
    series = betti_series((1, 1, 0, 1, 1), 2)
    assert series.coefficient_of_t(0).get((0, 0), 0) == 1
    # t^1 is the surface row: b = (1, 1, 0, 1, 1)
    assert [series.coefficient(i, 0, 1) for i in range(5)] == [1, 1, 0, 1, 1]
    # t^2 matches the printed Hilb^2 row sums of the hopf surface
    assert [series.coefficient(i, 0, 2) for i in range(9)] == [1, 1, 1, 2, 2, 2, 1, 1, 1]


def _betti_layers(series):
    """Per-layer collapse along p + q of a Hodge series, zeros dropped."""
    totals = [
        HodgePolynomial(layer, 2 * n).collapse_total_degree()
        for n, layer in enumerate(series.layers())
    ]
    return [{(i, 0): b for i, b in enumerate(total) if b} for total in totals]


def test_frolicher_passes_on_presets():
    for name in ("hopf", "k3"):
        ds = preset(name, max_power=6)
        collapsed = _betti_layers(hilb_series(ds.table, 6))
        assert collapsed == betti_series(ds.betti, 6).layers()


def test_frolicher_detects_corrupted_betti():
    ds = preset("hopf", max_power=4)
    bad = (1, 2, 0, 1, 1)
    collapsed = _betti_layers(hilb_series(ds.table, 4))
    betti = betti_series(bad, 4).layers()
    differing = [n for n in range(5) if collapsed[n] != betti[n]]
    # b_1 of the surface itself is off, so the first disagreement is at n = 1
    assert differing[0] == 1


# -- Hochschild homology --------------------------------------------------------------


def test_hh_dims_point():
    assert hh_dims(HOPF.table, 0) == {0: 1}


def test_hh_dims_surface():
    got = hh_dims(HOPF.table, 1)
    assert got == {-1: 1, 0: 2, 1: 1}


def test_hh_dims_hopf_square():
    # collapse of the 11-term Hilb^2 polynomial along q - p
    assert hh_dims(HOPF.table, 2) == {-1: 3, 0: 6, 1: 3}


def test_hh_two_paths_agree():
    rng = Random(19)
    for _ in range(6):
        table = random_table(rng, 5)
        rhs = hh_rhs_series(table, 5)
        for n in range(6):
            assert hh_dims(table, n) == hh_from_rhs(rhs, n)


def test_hh_rhs_order_zero_and_one():
    rhs = hh_rhs_series(HOPF.table, 3)
    assert hh_from_rhs(rhs, 0) == {0: 1}
    assert hh_from_rhs(rhs, 1) == {-1: 1, 0: 2, 1: 1}


# -- deformation theory ------------------------------------------------------------------


def test_sn_invariant_tangent_n1_is_hT():
    din = preset("torus").deformation
    assert sn_invariant_tangent(din, 1) == {0: 2, 1: 4, 2: 2}


def test_sn_invariant_tangent_examples():
    torus = preset("torus").deformation
    assert sn_invariant_tangent(torus, 2)[1] == 8  # 4*1 + 2*2
    k3 = preset("k3").deformation
    assert sn_invariant_tangent(k3, 2)[1] == 20


def test_deformation_dims_edge_cases():
    din = preset("torus").deformation
    assert deformation_dims(din, 0, 2) == {0: 0, 1: 0, 2: 0}
    assert deformation_dims(din, 1, 3) == {0: 2, 1: 4, 2: 2, 3: 0}


@pytest.mark.parametrize(
    "name,expected",
    [("k3", 21), ("torus", 9), ("bielliptic_ord2", 3), ("bielliptic_ord3", 2)],
)
def test_deformation_tangent_dimension(name, expected):
    din = preset(name).deformation
    for n in range(2, 6):
        assert deformation_dims(din, n, 1)[1] == expected


def test_deformation_closed_forms_examples():
    assert deformation_closed_forms(preset("k3").deformation, 3) == (0, 21, 0)
    assert deformation_closed_forms(preset("torus").deformation, 3) == (2, 9, 18)
    # Both obstruction-free collapse cases: no h^1(O) h^0(T) coupling and no
    # anticanonical sections, so h1 reduces to h^1(S, T).
    enriques = preset("enriques").deformation
    assert deformation_closed_forms(enriques, 2)[1] == enriques.hT[1]


def test_deformation_closed_forms_match_dims_for_n_at_least_3():
    for name in ("k3", "torus", "enriques", "bielliptic_ord2", "bielliptic_ord3", "p2"):
        din = preset(name).deformation
        for n in (3, 4, 5):
            dims = deformation_dims(din, n, 2)
            assert (dims[0], dims[1], dims[2]) == deformation_closed_forms(din, n)


def test_deformation_n2_obstruction_drops_two_terms():
    # at n = 2 the symmetric power S^(0) is a point, so the terms
    # h^0(T) C(h^1(O), 2) and h^1(O) h^0(w2T) are absent from h^2
    from math import comb

    for name in ("k3", "torus", "bielliptic_ord2", "p2"):
        din = preset(name).deformation
        dims = deformation_dims(din, 2, 2)
        closed = deformation_closed_forms(din, 2)
        gap = din.hT[0] * comb(din.hO[1], 2) + din.hO[1] * din.hW2[0]
        assert (dims[0], dims[1], dims[2]) == (closed[0], closed[1], closed[2] - gap)


def test_deformation_closed_forms_preconditions():
    din = preset("k3").deformation
    with pytest.raises(ValueError):
        deformation_closed_forms(din, 1)
    from hilbhodge.surfaces import DeformationInput

    disconnected = DeformationInput((0, 1, 0), (2, 0, 0), (0, 0, 0), connected=False)
    with pytest.raises(ValueError):
        deformation_closed_forms(disconnected, 2)


def test_omega_trivial_cross_check():
    # with trivial canonical bundle, h^q(Hilb^n, T) is the p = 2n-1 column
    for name in ("k3", "torus"):
        ds = preset(name, max_power=3)
        for n in (2, 3):
            assert deformation_dims(ds.deformation, n, 3) == tangent_dims_from_layer(
                hilb_coefficient(ds.table, n), 3
            )
