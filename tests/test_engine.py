"""The closed formulas: symmetric powers, Hilbert series, specializations."""

from fractions import Fraction
from random import Random

import pytest
from conftest import (
    convolve,
    euler_power,
    fresh_interpreter,
    layers_of,
    naive_mul,
    nested_index_set,
    partitions,
    random_symmetric_table,
    random_table,
    super_sym_multiset,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilbhodge import engine
from hilbhodge.engine import (
    HodgePolynomial,
    InsufficientPowers,
    _exp_product,
    _super_product,
    betti_series,
    chi_y_exp,
    chi_y_from_hodge,
    chi_y_from_hodge_series,
    chi_y_product,
    deformation_closed_forms,
    deformation_dims,
    hh_dims,
    hh_rhs_series,
    hilb_coefficient,
    hilb_series,
    hilb_strata,
    hilb_via_partitions,
    nested_coefficient,
    nested_series,
    nested_via_strata,
    sym_power_twisted_hodge,
)
from hilbhodge.series import TriSeries
from hilbhodge.strata import _sym_terms
from hilbhodge.surfaces import (
    PRESET_NAMES,
    DeformationInput,
    SurfaceDiamond,
    TwistedTable,
    preset,
)

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
    for value in (True, False, 1.0, Fraction(1, 2), Fraction(2, 2)):
        with pytest.raises(TypeError, match=type(value).__name__):
            HodgePolynomial({(0, 0): value}, 0)


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
    want = {(0, 0, 0): 1}
    for k, ex, ey, odd, h in generators:
        sign = -1 if odd else 1
        want = naive_mul(want, euler_power((sign, ex, ey), k, sign * h, N), N)
    got = _super_product(lambda k: [g[1:] for g in generators if g[0] == k], N)
    assert got == layers_of(want, N)


# (k, e, odd, h): a one-variable generator of level k <= 8, odd and even, h = -3..3
line_generators = st.lists(
    st.tuples(st.integers(1, 8), st.integers(0, 3), st.integers(0, 1), st.integers(-3, 3)),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(line_generators, st.integers(0, 8), st.integers(0, 3))
@example([(1, 1, 1, -2), (2, 0, 1, 3), (1, 2, 0, -1), (3, 1, 1, 1)], 8, 2)
def test_exp_product_matches_super_product_on_one_axis(generators, N, c):
    def level(k, shift=0):
        return [(e - shift * k, odd, h) for j, e, odd, h in generators if j == k]

    layers = _super_product(lambda k: [(0, e, odd, h) for e, odd, h in level(k)], N)
    want = [{ey: v for (_, ey), v in layer.items()} for layer in layers]
    assert _exp_product(level, N) == want
    # moving every level-k generator by -c k moves layer n by -c n, below 0 too
    assert _exp_product(lambda k: level(k, c), N) == [
        {e - c * n: v for e, v in layer.items()} for n, layer in enumerate(want)
    ]


def test_euler_side_calls_no_strata_helper():
    # product-vs-partition compares two kernels only while they share no
    # code: the four Euler builders never load the strata module
    out, modules = fresh_interpreter(
        "from hilbhodge.engine import betti_series, chi_y_product, hh_rhs_series, hilb_series\n"
        "from hilbhodge.surfaces import preset\n"
        "ds = preset('k3', max_power=4)\n"
        "for build in (hilb_series, chi_y_product, hh_rhs_series):\n"
        "    build(ds.table, 4)\n"
        "print(betti_series(ds.betti, 4)[4])"
    )
    assert out == f"{betti_series(preset('k3', max_power=4).betti, 4)[4]}\n"
    assert "hilbhodge.engine" in modules
    assert "hilbhodge.strata" not in modules


def test_engine_forwards_exactly_the_strata_names():
    # verify, the benchmark and its tracer look every strata function up in engine
    from hilbhodge import strata

    assert engine._STRATA_NAMES == set(strata.__all__)
    for name in strata.__all__:
        assert name in engine.__all__
        assert getattr(engine, name) is getattr(strata, name)


# -- the main series --------------------------------------------------------


_SERIES_FUNCTIONS = {
    "hilb_series": hilb_series,
    "nested_series": lambda table, N: nested_series(table, random_table(Random(28), N), N),
    "hilb_strata": hilb_strata,
    "chi_y_product": chi_y_product,
    "chi_y_exp": chi_y_exp,
    "chi_y_from_hodge": chi_y_from_hodge,
    "betti_series": lambda table, N: betti_series(table.diamond(0).row_sums(), N),
    "hh_rhs_series": hh_rhs_series,
}


@pytest.mark.parametrize("name", _SERIES_FUNCTIONS)
def test_every_series_function_returns_plain_t_layers(name):
    # one format for every series: a list of N + 1 dicts, int values, no stored zero
    N = 5
    layers = _SERIES_FUNCTIONS[name](random_table(Random(27), N), N)
    assert type(layers) is list and len(layers) == N + 1
    for layer in layers:
        assert type(layer) is dict
        assert all(type(v) is int and v != 0 for v in layer.values())


def test_hilb_series_order_zero_is_one():
    rng = Random(7)
    table = random_table(rng, 3)
    assert hilb_series(table, 3)[0] == {(0, 0): 1}


def test_hilb_series_linear_term_is_the_diamond():
    rng = Random(8)
    for _ in range(5):
        table = random_table(rng, 3)
        assert hilb_series(table, 3)[1] == table.diamond(1).bigraded()


def test_hilb_hopf_square_is_the_printed_polynomial():
    poly = hilb_coefficient(HOPF.table, 2)
    assert dict(poly.items()) == HOPF_HILB2


def test_hilb_degree_bounds():
    rng = Random(9)
    table = random_table(rng, 4)
    for n, layer in enumerate(hilb_series(table, 4)):
        for ex, ey in layer:
            assert ex <= 2 * n and ey <= 2 * n


def test_hilb_coefficients_are_nonnegative_integers():
    rng = Random(10)
    table = random_table(rng, 4)
    for layer in hilb_series(table, 4):
        for value in layer.values():
            assert isinstance(value, int) and value > 0


def swap_xy(layers):
    """The t-layers with x and y exchanged."""
    return [{(ey, ex): c for (ex, ey), c in layer.items()} for layer in layers]


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
    direct = {(0, 0, 0): 1}
    for k in range(1, trunc + 1):
        for (p, q), h in d.bigraded().items():
            sign = -1 if (p + q) % 2 else 1
            m = (sign, p + k - 1, q + k - 1)
            direct = naive_mul(direct, euler_power(m, k, sign * h, trunc), trunc)
    assert layers_of(direct, trunc) == hilb_series(preset("k3", max_power=trunc).table, trunc)


def test_hilb_insufficient_powers_names_missing_k():
    ds = preset("hopf", max_power=2)
    with pytest.raises(InsufficientPowers, match="k=3"):
        hilb_series(ds.table, 5)


@pytest.mark.parametrize("name", [
    "hilb_series", "nested_series", "chi_y_product", "chi_y_exp", "chi_y_from_hodge",
    "betti_series", "hh_dims", "hh_rhs_series", "hilb_coefficient", "hilb_strata",
    "hilb_via_partitions", "nested_via_strata",
])
def test_negative_order_is_rejected_by_every_series_function(name):
    ds = preset("k3", max_power=4)
    inputs = {
        "betti_series": (ds.betti,),
        "nested_series": (ds.table, ds.nested_or_main()),
        "nested_via_strata": (ds.table, ds.nested_or_main()),
    }.get(name, (ds.table,))
    with pytest.raises(ValueError, match="needs a nonnegative order, got -1$"):
        getattr(engine, name)(*inputs, -1)


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
            got = HodgePolynomial(series[n], 2 * n)
            assert got == hilb_via_partitions(table, n)


def twisted_tables(max_power, entries=st.integers(0, 3)):
    """Tables of max_power + 1 independent diamonds with entries 0..3 (or ``entries``)."""
    grid = st.lists(entries, min_size=3, max_size=3)
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
        for k, a in enumerate(lam, start=1):
            if not a:
                continue
            factor = sym_power_twisted_hodge(table.diamond(k), a)
            folded = {}
            for (p1, q1), u in product.items():
                for (p2, q2), v in factor.items():
                    key = (p1 + p2, q1 + q2)
                    folded[key] = folded.get(key, 0) + u * v
            product = folded
        shift = n - sum(lam)
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
    assert layers == hilb_series(table, N)
    assert layers == [dict(_strata_per_partition(table, n).items()) for n in range(N + 1)]


# -- metamorphic identities ------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(st.just(n), twisted_tables(n))))
def test_transposed_table_swaps_x_and_y(case):
    N, table = case
    transposed = TwistedTable([d.transposed() for d in table.diamonds()])
    swapped = swap_xy(hilb_series(table, N))
    assert hilb_series(transposed, N) == swapped
    for got, layer in zip(hilb_strata(transposed, N), hilb_strata(table, N)):
        assert got == {(q, p): v for (p, q), v in layer.items()}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_serre_symmetry_on_untwisted_presets(name):
    # h^{p,q}(Hilb^n) = h^{2n-p,2n-q}(Hilb^n) for the trivial bundle
    N = 6
    series = hilb_series(preset(name, max_power=N).table, N)
    for n in range(N + 1):
        terms = series[n]
        assert {(2 * n - p, 2 * n - q): v for (p, q), v in terms.items()} == terms, n


def _serre_dual(table):
    """The table of the dual bundles: D^v_k(p, q) = D_k(2 - p, 2 - q)."""
    return TwistedTable([
        SurfaceDiamond([row[::-1] for row in d.rows()[::-1]]) for d in table.diamonds()
    ])


def _reflected(layer, top):
    return {(top - p, top - q): v for (p, q), v in layer.items()}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), twisted_tables(n))))
def test_twisted_serre_duality_reflects_the_hilb_layers(case):
    # layer n of the dual table is layer n reflected by (p, q) -> (2n - p, 2n - q)
    N, table = case
    dual = _serre_dual(table)
    series = hilb_series(table, N)
    assert hilb_series(dual, N) == [
        _reflected(layer, 2 * n) for n, layer in enumerate(series)
    ]
    assert hilb_strata(dual, N) == [
        _reflected(layer, 2 * n) for n, layer in enumerate(hilb_strata(table, N))
    ]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda n: st.tuples(st.just(n), twisted_tables(n), twisted_tables(n))
    )
)
def test_twisted_serre_duality_reflects_the_nested_layers(case):
    # both tables dual: layer n is reflected by (p, q) -> (2n + 2 - p, 2n + 2 - q)
    N, table_l, table_llp = case
    dual_l, dual_llp = _serre_dual(table_l), _serre_dual(table_llp)
    series = nested_series(table_l, table_llp, N)
    assert nested_series(dual_l, dual_llp, N) == [
        _reflected(layer, 2 * n + 2) for n, layer in enumerate(series)
    ]
    for n in range(N + 1):
        got = nested_via_strata(dual_l, dual_llp, n)
        want = _reflected(dict(nested_via_strata(table_l, table_llp, n).items()), 2 * n + 2)
        assert dict(got.items()) == want, n


# entries 0..3 or near 2 * 10^9: coefficients past 64 bits, where a packed
# slot sized below its bound would carry into its neighbour
small_or_huge = st.one_of(st.integers(0, 3), st.integers(2 * 10**9 - 3, 2 * 10**9))


def _direct_sum(table_1, table_2):
    """The table of a disjoint union S_1 + S_2: entrywise sums of the diamonds."""
    return TwistedTable([
        SurfaceDiamond([[u + v for u, v in zip(r1, r2)] for r1, r2 in zip(d1.rows(), d2.rows())])
        for d1, d2 in zip(table_1.diamonds(), table_2.diamonds())
    ])


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda n: st.tuples(
            st.just(n), twisted_tables(n, small_or_huge), twisted_tables(n, small_or_huge)
        )
    )
)
def test_disjoint_union_convolves_the_layers(case):
    # Hilb(S_1 + S_2) = sum_{a+b=n} Hilb^a S_1 x Hilb^b S_2, on both routes
    N, table_1, table_2 = case
    union = _direct_sum(table_1, table_2)
    assert hilb_strata(union, N) == convolve(hilb_strata(table_1, N), hilb_strata(table_2, N))
    assert hilb_series(union, N) == convolve(hilb_series(table_1, N), hilb_series(table_2, N))


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda n: st.tuples(st.just(n), *[twisted_tables(n, small_or_huge)] * 3)
    )
)
def test_nested_strata_is_linear_in_the_residual_table(case):
    n, table_l, residual_a, residual_b = case
    want = dict(nested_via_strata(table_l, residual_a, n).items())
    for pq, v in nested_via_strata(table_l, residual_b, n).items():
        want[pq] = want.get(pq, 0) + v
    got = nested_via_strata(table_l, _direct_sum(residual_a, residual_b), n)
    assert got == HodgePolynomial(want, 2 * n + 2)


# -- nested spaces -------------------------------------------------------------


def test_nested_order_zero_is_residual_diamond():
    rng = Random(14)
    table_l = random_table(rng, 3)
    table_lp = random_table(rng, 3)
    assert nested_series(table_l, table_lp, 3)[0] == table_lp.diamond(0).bigraded()


def test_nested_trivial_bundles_factorize():
    for name in ("hopf", "k3"):
        ds = preset(name, max_power=5)
        series = nested_series(ds.table, ds.nested_or_main(), 5)
        surface = {(p, q, 0): v for (p, q), v in ds.table.diamond(0).bigraded().items()}
        residual = layers_of(naive_mul(surface, euler_power((1, 1, 1), 1, 1, 5), 5), 5)
        assert series == convolve(hilb_series(ds.table, 5), residual)


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
            got = HodgePolynomial(series[n], 2 * n + 2)
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
    """Sym^a of a bigraded super space through the reference series ring.

    The shape super_sym_series had before the packed binomial tables:
    one (1 -+ x^p y^q t)^{-+v} factor per bidegree, by euler_power.
    """
    result = {(0, 0, 0): 1}
    for (p, q), v in sorted(dims.items()):
        sign = -1 if (p + q) % 2 else 1
        result = naive_mul(result, euler_power((sign, p, q), 1, sign * v, a), a)
    return layers_of(result, a)[a]


def _nested_per_marked_partition(table_l, table_llp, n):
    """The nested strata route as one dict fold per (partition, marked part).

    The shape nested_via_strata had before packing: the residual diamond
    times the Sym^{a_k} tables (one copy of the marked part j dropped),
    shifted by n - len, plus one when a part is marked.
    """
    acc = {}
    for lam, j in nested_index_set(n):
        mults = list(lam)
        shift = n - sum(lam)
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
    assert max(v for layer in series for v in layer.values()).bit_length() > 64
    assert hilb_strata(table, 5) == series
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
    for n, layer in enumerate(nested_series(table_l, table_lp, 4)):
        for ex, ey in layer:
            assert ex <= 2 * n + 2 and ey <= 2 * n + 2


# -- chi_y routes -----------------------------------------------------------------


def test_chi_y_order_zero_and_one():
    ds = preset("k3", max_power=4)
    for route in (chi_y_product, chi_y_exp, chi_y_from_hodge):
        layers = route(ds.table, 4)
        assert layers[0] == {0: 1}
        # t^1 coefficient is chi_{-y}(S): for K3 that is 2 + 20 y + 2 y^2
        assert layers[1] == {0: 2, 1: 20, 2: 2}


def test_chi_y_three_routes_agree():
    rng = Random(18)
    tables = [preset("hopf", max_power=6).table, preset("torus", max_power=6).table]
    tables += [random_table(rng, 6) for _ in range(4)]
    for table in tables:
        a = chi_y_product(table, 6)
        b = chi_y_exp(table, 6)
        c = chi_y_from_hodge(table, 6)
        assert a == b == c
        assert all(type(v) is int for layer in b for v in layer.values())


def test_exp_route_runs_its_own_kernel(monkeypatch):
    # chi-y-three-way crosses three kernels only while exp multiplies no TriSeries
    def banned(*args):
        raise AssertionError("the exp route reached the Euler kernel")

    expected = chi_y_product(preset("k3", max_power=6).table, 6)
    monkeypatch.setattr(engine, "_super_product", banned)
    monkeypatch.setattr(TriSeries, "__mul__", banned)
    assert chi_y_exp(preset("k3", max_power=6).table, 6) == expected


def test_chi_y_hopf_is_trivial():
    # all three columns of the hopf diamond have vanishing Euler characteristic
    assert chi_y_product(HOPF.table, 6) == [{0: 1}] + [{}] * 6


def test_chi_y_exp_zero_table():
    from hilbhodge.surfaces import SurfaceDiamond, TwistedTable

    zero = TwistedTable.constant(SurfaceDiamond([[0] * 3] * 3), 4)
    assert chi_y_exp(zero, 4) == [{0: 1}] + [{}] * 4


def _summed(layers, key, sign):
    """Sum every term c x^ex y^ey of a t-layer into its power key(ex, ey), times sign(ex, ey)."""
    acc = [{} for _ in layers]
    for summed, layer in zip(acc, layers):
        for (ex, ey), c in layer.items():
            summed[key(ex, ey)] = summed.get(key(ex, ey), 0) + sign(ex, ey) * c
    return [{e: c for e, c in layer.items() if c} for layer in acc]


def _has_odd_class(table):
    odd = ((0, 1), (1, 0), (1, 2), (2, 1))
    return any(d.rows()[p][q] for d in table.diamonds() for p, q in odd)


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
    chi_y = _summed(series, lambda ex, ey: ex, lambda ex, ey: (-1) ** (ex + ey))
    assert chi_y_from_hodge_series(series) == chi_y
    betti = _summed(series, lambda ex, ey: ex + ey, lambda ex, ey: 1)
    assert _betti_layers(series) == betti


# -- Betti numbers and Frolicher ---------------------------------------------------


def test_betti_series_low_orders():
    layers = betti_series((1, 1, 0, 1, 1), 2)
    assert layers[0] == {0: 1}
    # t^1 is the surface row: b = (1, 1, 0, 1, 1)
    assert [layers[1].get(i, 0) for i in range(5)] == [1, 1, 0, 1, 1]
    # t^2 matches the printed Hilb^2 row sums of the hopf surface
    assert [layers[2].get(i, 0) for i in range(9)] == [1, 1, 1, 2, 2, 2, 1, 1, 1]


def _betti_layers(series):
    """Per-layer collapse along p + q of a Hodge series, zeros dropped."""
    totals = [
        HodgePolynomial(layer, 2 * n).collapse_total_degree()
        for n, layer in enumerate(series)
    ]
    return [{i: b for i, b in enumerate(total) if b} for total in totals]


def test_frolicher_passes_on_presets():
    for name in ("hopf", "k3"):
        ds = preset(name, max_power=6)
        collapsed = _betti_layers(hilb_series(ds.table, 6))
        assert collapsed == betti_series(ds.betti, 6)


def test_frolicher_detects_corrupted_betti():
    ds = preset("hopf", max_power=4)
    bad = (1, 2, 0, 1, 1)
    collapsed = _betti_layers(hilb_series(ds.table, 4))
    betti = betti_series(bad, 4)
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
            assert hh_dims(table, n) == rhs[n]


def test_hh_rhs_order_zero_and_one():
    rhs = hh_rhs_series(HOPF.table, 3)
    assert rhs[0] == {0: 1}
    assert rhs[1] == {-1: 1, 0: 2, 1: 1}


# -- deformation theory ------------------------------------------------------------------


def test_deformation_dims_at_n2_examples():
    # whole dicts to q = 4 on every preset with a deformation block: H^*(S, T_S)
    # x Sym^1 H^{0,*}(S) plus H^{*-1}(S, wedge^2 T_S), Sym^0 being a point
    blocks = {name: preset(name, max_power=0).deformation for name in PRESET_NAMES}
    assert {name: deformation_dims(din, 2, 4) for name, din in blocks.items() if din} == {
        "bielliptic_ord2": {0: 1, 1: 3, 2: 4, 3: 2, 4: 0},
        "bielliptic_ord3": {0: 1, 1: 2, 2: 1, 3: 0, 4: 0},
        "enriques": {0: 0, 1: 10, 2: 0, 3: 1, 4: 0},
        "k3": {0: 0, 1: 21, 2: 0, 3: 21, 4: 0},
        "p2": {0: 8, 1: 10, 2: 0, 3: 0, 4: 0},
        "torus": {0: 2, 1: 9, 2: 14, 3: 9, 4: 2},  # h^1 = 4*1 + 2*2 + 1
    }


deformation_blocks = st.builds(
    DeformationInput,
    st.tuples(*[st.integers(0, 6)] * 3),
    st.tuples(st.just(1), st.integers(0, 4), st.integers(0, 4)),
    st.tuples(*[st.integers(0, 6)] * 3),
)


@settings(max_examples=200, deadline=None)
@given(deformation_blocks)
def test_deformation_formula_at_n_0_and_1_and_its_closed_forms_from_n_3(din):
    # one formula for every n: Sym^m = 0 for m < 0 gives zero at n = 0 and hT at n = 1
    for qmax in range(6):
        assert deformation_dims(din, 0, qmax) == dict.fromkeys(range(qmax + 1), 0)
        hT = dict.fromkeys(range(qmax + 1), 0) | dict(enumerate(din.hT[: qmax + 1]))
        assert deformation_dims(din, 1, qmax) == hT
    for n in range(3, 7):
        dims = deformation_dims(din, n, 2)
        assert (dims[0], dims[1], dims[2]) == deformation_closed_forms(din, n)


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
    disconnected = DeformationInput((0, 1, 0), (2, 0, 0), (0, 0, 0), connected=False)
    with pytest.raises(ValueError):
        deformation_closed_forms(disconnected, 2)


def test_omega_trivial_cross_check():
    # with trivial canonical bundle, h^q(Hilb^n, T) is the p = 2n-1 column
    for name in ("k3", "torus"):
        ds = preset(name, max_power=3)
        series = hilb_series(ds.table, 3)
        for n in (2, 3):
            column = {q: series[n].get((2 * n - 1, q), 0) for q in range(4)}
            assert deformation_dims(ds.deformation, n, 3) == column
