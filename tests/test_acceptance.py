"""Acceptance criteria: one test per criterion, exact tolerances, timed.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  Every comparison below is exact integer equality; the only
tolerances are the per-criterion wall-clock budgets.
"""

import time
from random import Random

from conftest import euler_power, random_table, run_cli

from hilbhodge.engine import (
    HodgePolynomial,
    betti_series,
    chi_y_exp,
    chi_y_from_hodge,
    chi_y_product,
    deformation_dims,
    hilb_coefficient,
    hilb_series,
    hilb_via_partitions,
    nested_series,
    nested_via_strata,
    sym_power_twisted_hodge,
    tangent_dims_from_layer,
)
from hilbhodge.oracles import naive_mul, super_sym_multiset
from hilbhodge.series import TriSeries
from hilbhodge.surfaces import PRESET_NAMES, SurfaceDiamond, preset

HILB2_ROWS = [
    [1],
    [1, 0],
    [0, 1, 0],
    [0, 1, 1, 0],
    [0, 0, 2, 0, 0],
    [0, 1, 1, 0],
    [0, 1, 0],
    [0, 1],
    [1],
]

HILB3_ROWS = [
    [1],
    [1, 0],
    [0, 1, 0],
    [0, 2, 1, 0],
    [0, 1, 3, 0, 0],
    [0, 0, 2, 2, 0, 0],
    [0, 0, 0, 4, 0, 0, 0],
    [0, 0, 2, 2, 0, 0],
    [0, 0, 3, 1, 0],
    [0, 1, 2, 0],
    [0, 1, 0],
    [0, 1],
    [1],
]


def _finish(number: int, started: float, budget: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"
    print(f"ACCEPTANCE {number}: PASS ({detail}; {elapsed:.2f}s < {budget:.0f}s)")


def _parse_rows(text: str) -> list[list[int]]:
    return [[int(v) for v in line.split()] for line in text.strip().splitlines()]


def test_criterion_01_golden_hopf_diamonds():
    started = time.monotonic()
    code, out, _ = run_cli("hilb", "--preset", "hopf", "-n", "2", "--format", "diamond")
    assert code == 0 and _parse_rows(out) == HILB2_ROWS
    code, out, _ = run_cli("hilb", "--preset", "hopf", "-n", "3", "--format", "diamond")
    assert code == 0 and _parse_rows(out) == HILB3_ROWS
    _finish(1, started, 1.0, "hopf Hilb^2 and Hilb^3 match the printed diamonds")


def test_criterion_02_hopf_closed_form_product():
    started = time.monotonic()
    N = 10

    def closed_factor(k: int) -> TriSeries:
        numerator = TriSeries({(0, 0, 0): 1, (k - 1, k, k): 1}, N) * TriSeries(
            {(0, 0, 0): 1, (k + 1, k, k): 1}, N
        )
        inverse_denominator = euler_power((1, k - 1, k - 1), k, 1, N) * euler_power(
            (1, k + 1, k + 1), k, 1, N
        )
        return numerator * inverse_denominator

    closed = TriSeries.one(N)
    for k in range(N, 0, -1):
        closed = closed * closed_factor(k)
    assert closed == hilb_series(preset("hopf", max_power=N).table, N)
    _finish(2, started, 5.0, f"direct closed-form product equals hilb_series to t^{N}")


def test_criterion_03_deformation_dimensions():
    started = time.monotonic()
    expected = {"k3": 21, "torus": 9, "bielliptic_ord2": 3, "bielliptic_ord3": 2}
    for name, value in expected.items():
        din = preset(name).deformation
        for n in range(2, 6):
            assert deformation_dims(din, n, 1)[1] == value, (name, n)
    _finish(3, started, 1.0, "k3=21, torus=9, bielliptic=3/2 for n=2..5")


def test_criterion_04_product_vs_partition_on_random_tables():
    started = time.monotonic()
    rng = Random(20250809)
    for trial in range(100):
        table = random_table(rng, 6, hi=3)
        series = hilb_series(table, 6)
        for n in range(7):
            product_route = HodgePolynomial(series.coefficient_of_t(n), 2 * n)
            assert product_route == hilb_via_partitions(table, n), (trial, n)
    _finish(4, started, 30.0, "100 random tables agree on both routes for n <= 6")


def test_criterion_05_chi_y_three_way():
    started = time.monotonic()
    N = 12
    tables = [preset(name, max_power=N).table for name in ("hopf", "k3", "torus")]
    rng = Random(5)
    tables += [random_table(rng, N, hi=3) for _ in range(20)]
    for index, table in enumerate(tables):
        by_product = chi_y_product(table, N)
        by_exp = chi_y_exp(table, N)  # raises IntegralityFailure on any drift
        by_hodge = chi_y_from_hodge(table, N)
        assert by_product == by_exp == by_hodge, index
        assert by_exp.is_integral()
    _finish(5, started, 10.0, "23 tables, three chi_y routes identical to t^12")


def test_criterion_06_nested_consistency():
    started = time.monotonic()
    for name in PRESET_NAMES:
        ds = preset(name, max_power=8)
        series = nested_series(ds.table, ds.nested_or_main(), 8)
        surface = TriSeries(
            {(p, q, 0): v for (p, q), v in ds.table.diamond(0).bigraded().items()}, 8
        )
        chain = euler_power((1, 1, 1), 1, 1, 8)
        assert series == hilb_series(ds.table, 8) * surface * chain, name
    rng = Random(6)
    for trial in range(12):
        table_l = random_table(rng, 4, hi=3)
        table_lp = random_table(rng, 4, hi=3)
        series = nested_series(table_l, table_lp, 4)
        for n in range(5):
            got = HodgePolynomial(series.coefficient_of_t(n), 2 * n + 2)
            assert got == nested_via_strata(table_l, table_lp, n), (trial, n)
    _finish(
        6,
        started,
        20.0,
        "trivial-bundle factorization on all presets to t^8; strata route on random tables to t^4",
    )


def test_criterion_07_frolicher_betti():
    started = time.monotonic()
    for name in ("hopf", "k3"):
        ds = preset(name, max_power=10)
        betti = betti_series(ds.betti, 10).layers()
        for n, layer in enumerate(hilb_series(ds.table, 10).layers()):
            total = HodgePolynomial(layer, 2 * n).collapse_total_degree()
            assert {(i, 0): b for i, b in enumerate(total) if b} == betti[n], (name, n)
    _finish(7, started, 5.0, "Betti product equals the (x,y)->(z,z) collapse to t^10")


def test_criterion_08_hochschild_two_path():
    started = time.monotonic()
    rng = Random(8)
    from hilbhodge.engine import hh_dims, hh_from_rhs, hh_rhs_series

    for trial in range(25):
        table = random_table(rng, 6, hi=3)
        rhs = hh_rhs_series(table, 6)
        for n in range(7):
            assert hh_dims(table, n) == hh_from_rhs(rhs, n), (trial, n)
    _finish(8, started, 10.0, "25 random tables, HH collapse equals Sym route for n <= 6")


def test_criterion_09_oracle_suites():
    started = time.monotonic()
    rng = Random(9)
    for trial in range(200):
        dims = {}
        budget = 6
        for _ in range(rng.randint(1, 4)):
            p, q = rng.randint(0, 2), rng.randint(0, 2)
            d = rng.randint(1, budget)
            dims[p, q] = dims.get((p, q), 0) + d
            budget -= d
            if not budget:
                break
        n = rng.randint(0, 6)
        diamond = SurfaceDiamond(
            [[dims.get((p, q), 0) for q in range(3)] for p in range(3)]
        )
        binomial_route = sym_power_twisted_hodge(diamond, n)
        assert dict(binomial_route.items()) == super_sym_multiset(dims, n), trial

    def random_series() -> TriSeries:
        terms = {
            (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 3)): rng.randint(-3, 3)
            for _ in range(rng.randint(0, 6))
        }
        return TriSeries(terms, 3)

    for trial in range(500):
        a, b = random_series(), random_series()
        assert naive_mul(a, b) == a * b, trial
    _finish(9, started, 10.0, "200 symmetric-power inputs and 500 products match the oracles")


def test_criterion_10_omega_trivial_deformation_cross_check():
    started = time.monotonic()
    for name in ("k3", "torus"):
        ds = preset(name, max_power=3)
        for n in (2, 3):
            formula = deformation_dims(ds.deformation, n, 3)
            column = tangent_dims_from_layer(hilb_coefficient(ds.table, n), 3)
            assert formula == column, (name, n)
    _finish(10, started, 5.0, "tangent dimensions equal the h^{2n-1,q} series column")
