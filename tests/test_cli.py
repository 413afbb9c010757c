"""Command-line surface: rendering, schemas, exit codes, verification."""

import json
import os
import subprocess
import sys

import pytest
from conftest import fresh_interpreter, plus, preset_dict, run_cli, src_env, terms_of
from hypothesis import given, settings
from hypothesis import strategies as st
from test_engine import small_or_huge, twisted_tables

from hilbhodge import engine, strata, verify
from hilbhodge.cli import render_diamond, render_latex
from hilbhodge.engine import HodgePolynomial, IntegralityFailure, hilb_coefficient
from hilbhodge.series import TriSeries
from hilbhodge.surfaces import PRESET_NAMES, SurfaceDataset, preset

HOPF_HILB2_DIAMOND = """\
        1
       1 0
      0 1 0
     0 1 1 0
    0 0 2 0 0
     0 1 1 0
      0 1 0
       0 1
        1
"""

HOPF_HILB3_ROWS = [
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


def _rows(text: str) -> list[list[int]]:
    return [[int(v) for v in line.split()] for line in text.strip().splitlines()]


def test_hilb_hopf_two_is_byte_identical():
    code, out, _ = run_cli("hilb", "--preset", "hopf", "-n", "2")
    assert code == 0
    assert out == HOPF_HILB2_DIAMOND


def test_hilb_hopf_three_rows():
    code, out, _ = run_cli("hilb", "--preset", "hopf", "-n", "3")
    assert code == 0
    assert _rows(out) == HOPF_HILB3_ROWS


def test_hilb_zero_points():
    code, out, _ = run_cli("hilb", "--preset", "hopf", "-n", "0")
    assert code == 0
    assert out.strip() == "1"


def test_hilb_one_point_is_the_surface():
    code, out, _ = run_cli("hilb", "--preset", "hopf", "-n", "1")
    assert code == 0
    assert _rows(out) == [[1], [1, 0], [0, 0, 0], [0, 1], [1]]


def test_json_format_round_trips():
    code, out, _ = run_cli("hilb", "--preset", "hopf", "-n", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 2
    terms = {(t["p"], t["q"]): t["h"] for t in obj["terms"]}
    poly = HodgePolynomial(terms, obj["space_dim"])
    assert poly == hilb_coefficient(preset("hopf", max_power=2).table, 2)
    # terms sorted by (p + q, p)
    keys = [(t["p"] + t["q"], t["p"]) for t in obj["terms"]]
    assert keys == sorted(keys)


def test_poly_format():
    code, out, _ = run_cli("hilb", "--preset", "hopf", "-n", "1", "--format", "poly")
    assert code == 0
    assert out.strip() == "1 + y + x^2*y + x^2*y^2"


def test_latex_format_has_matrix_shape():
    code, out, _ = run_cli("hilb", "--preset", "hopf", "-n", "1", "--format", "latex")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == r"\begin{smallmatrix}"
    assert lines[-1] == r"\end{smallmatrix}"
    assert lines[1].strip() == r"&& 1 && \\"


def test_render_matches_cli(tmp_path):
    poly = hilb_coefficient(preset("hopf", max_power=2).table, 2)
    assert render_diamond(poly) + "\n" == HOPF_HILB2_DIAMOND
    assert r"\begin{smallmatrix}" in render_latex(poly)


def test_series_output_lists_all_orders():
    code, out, _ = run_cli("hilb", "--preset", "hopf", "-N", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["N"] == 3
    assert [c["n"] for c in obj["coefficients"]] == [0, 1, 2, 3]


def test_sym_command():
    code, out, _ = run_cli("sym", "--preset", "hopf", "-a", "2", "--format", "poly")
    assert code == 0
    assert out.strip() == "1 + y + x^2*y + 2*x^2*y^2 + x^2*y^3 + x^4*y^3 + x^4*y^4"


def test_nested_zero_is_the_surface():
    code, out, _ = run_cli("nested", "--preset", "hopf", "-n", "0")
    assert code == 0
    assert _rows(out) == [[1], [1, 0], [0, 0, 0], [0, 1], [1]]


def test_chiy_three_methods_identical():
    outputs = []
    for method in ("product", "exp", "hodge"):
        code, out, _ = run_cli(
            "chiy", "--preset", "hopf", "-N", "5", "--method", method
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_betti_text_rows():
    code, out, _ = run_cli(
        "betti", "--preset", "hopf", "-N", "2", "--format", "text"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "n=1: 1 1 0 1 1"
    assert lines[2] == "n=2: 1 1 1 2 2 2 1 1 1"


def test_hh_output():
    code, out, _ = run_cli("hh", "--preset", "hopf", "-n", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "n": 2,
        "dims": [{"i": -1, "dim": 3}, {"i": 0, "dim": 6}, {"i": 1, "dim": 3}],
    }


def test_deform_k3_table_shows_21():
    code, out, _ = run_cli("deform", "--preset", "k3", "-n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[2] == "1   21"


def test_deform_without_block_fails():
    assert run_cli("deform", "--preset", "hopf", "-n", "2") == (
        1, "", "error: dataset carries no deformation block\n"
    )


def test_verify_hopf_passes():
    code, out, _ = run_cli("verify", "--preset", "hopf", "-N", "5")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_verify_torus_includes_omega_trivial():
    code, out, _ = run_cli("verify", "--preset", "torus", "-N", "4")
    assert code == 0
    assert "deformation-omega-trivial: PASS" in out


def test_verify_corrupted_dataset_exits_3(tmp_path):
    obj = preset_dict("torus", 4)
    obj["deformation"]["hT"] = [3, 4, 2]  # inconsistent with the table
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli("verify", "--input", str(path), "-N", "4")
    assert code == 3
    assert "first failing check: deformation-omega-trivial" in out


def test_verify_short_nested_table_skips_only_the_nested_check(tmp_path):
    # nested_diamonds shorter than the order used to exit 2 after four checks
    obj = preset_dict("torus", 6)
    obj["nested_diamonds"] = obj["diamonds"][:2]
    path = tmp_path / "short_nested.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli("verify", "--input", str(path), "-N", "6")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[4] == (
        "nested-two-path: SKIP (nested_diamonds stops at K=1, the check needs "
        "every k <= 4: k=2 is missing)"
    )
    assert lines[5:] == [
        "deformation-closed-forms: PASS",
        "deformation-omega-trivial: PASS",
        "euler-witness: PASS",
        "all checks passed",
    ]


def _bump(poly: HodgePolynomial, p: int, q: int) -> HodgePolynomial:
    terms = dict(poly.items())
    terms[p, q] = poly.entry(p, q) + 1
    return HodgePolynomial(terms, poly.space_dim)


def _bumped(layers: list[dict], n: int, key, by: int = 1) -> list[dict]:
    """``layers`` with ``by`` added at ``key`` of layer n."""
    layers[n][key] = layers[n].get(key, 0) + by
    return layers


def test_verify_failure_names_the_first_differing_entry(monkeypatch):
    # entries off at n=2 on the second side of each two-path check; the
    # strata side has two, and the one with the smaller (p, q) is named
    hilb_strata = engine.hilb_strata
    betti_series = engine.betti_series
    hh_rhs_series = engine.hh_rhs_series
    nested_via_strata = engine.nested_via_strata
    monkeypatch.setattr(
        engine,
        "hilb_strata",
        lambda table, N: _bumped(_bumped(hilb_strata(table, N), 2, (3, 1)), 2, (2, 2)),
    )
    monkeypatch.setattr(  # b_2 of Hilb^2
        engine, "betti_series", lambda betti, N: _bumped(betti_series(betti, N), 2, 2)
    )
    monkeypatch.setattr(  # HH_0 of Hilb^2
        engine, "hh_rhs_series", lambda table, N: _bumped(hh_rhs_series(table, N), 2, 0)
    )
    monkeypatch.setattr(
        engine,
        "nested_via_strata",
        lambda table_l, table_llp, n: (
            _bump(nested_via_strata(table_l, table_llp, n), 1, 1)
            if n == 2
            else nested_via_strata(table_l, table_llp, n)
        ),
    )
    code, out, err = run_cli("verify", "--preset", "k3", "-N", "4")
    assert (code, err) == (3, "")
    assert out.splitlines() == [
        "product-vs-partition: FAIL (paths disagree at n=2, (p, q)=(2, 2): 232 != 233)",
        "chi-y-three-way: PASS",
        "frolicher: FAIL (paths disagree at n=2, i=2: 23 != 24)",
        "hochschild-two-path: FAIL (paths disagree at n=2, i=0: 276 != 277)",
        "nested-two-path: FAIL (paths disagree at n=2, (p, q)=(1, 1): 42 != 43)",
        "deformation-closed-forms: PASS",
        "deformation-omega-trivial: PASS",
        "euler-witness: PASS",
        "verification FAILED; first failing check: product-vs-partition",
    ]


def test_verify_chi_y_failure_names_the_first_differing_power(monkeypatch):
    chi_y_exp = engine.chi_y_exp
    monkeypatch.setattr(  # chi_y of Hilb^2 of k3: y^1 has 42, y^3 has 42
        engine, "chi_y_exp", lambda table, N: _bumped(chi_y_exp(table, N), 2, 3)
    )
    code, out, err = run_cli("verify", "--preset", "k3", "-N", "4")
    assert (code, err) == (3, "")
    assert out.splitlines()[1] == (
        "chi-y-three-way: FAIL (paths disagree at n=2, y=3: 42 != 43)"
    )
    monkeypatch.setattr(engine, "chi_y_exp", chi_y_exp)
    chi_y_from_hodge_series = engine.chi_y_from_hodge_series
    monkeypatch.setattr(  # the Hodge specialisation, checked second
        engine,
        "chi_y_from_hodge_series",
        lambda layers: _bumped(chi_y_from_hodge_series(layers), 2, 1, -1),
    )
    code, out, err = run_cli("verify", "--preset", "k3", "-N", "4")
    assert (code, err) == (3, "")
    assert out.splitlines()[1] == (
        "chi-y-three-way: FAIL (paths disagree at n=2, y=1: 42 != 41)"
    )


def test_verify_witness_failure_names_the_layer_and_the_point(monkeypatch):
    # one unit of layer 3 moves from (3, 3) to (2, 4) in the shared series
    # (N=5; nested-two-path expands its own at depth 4): the total degree and
    # the sign at point 0, (1, 1), stay; the sign at point 1, (1, -1), flips
    hilb_series = engine.hilb_series

    def moved(table, N):
        series = hilb_series(table, N)
        if N != 5:
            return series
        series[3][3, 3] -= 1
        series[3][2, 4] += 1
        return series

    monkeypatch.setattr(engine, "hilb_series", moved)
    code, out, err = run_cli("verify", "--preset", "k3", "-N", "5")
    assert (code, err) == (3, "")
    assert out.splitlines() == [
        "product-vs-partition: FAIL (paths disagree at n=3, (p, q)=(2, 4): 254 != 253)",
        "chi-y-three-way: FAIL (paths disagree at n=3, y=2: 508 != 509)",
        "frolicher: PASS",
        "hochschild-two-path: FAIL (paths disagree at n=3, i=0: 2553 != 2554)",
        "nested-two-path: PASS",
        "deformation-closed-forms: PASS",
        "deformation-omega-trivial: PASS",
        "euler-witness: FAIL (layer n=3 differs from the witness at point 1)",
        "verification FAILED; first failing check: product-vs-partition",
    ]


# -- kernel faults --------------------------------------------------------------
#
# One kernel at a time gets +1 at one bidegree (or one parity flipped, or its
# top layers dropped); verify must exit 3, and the pinned set of failing checks
# is the route table in executable form.


def _arguments_seen(owner, attr, run):
    """The arguments of the first call of ``owner.attr`` while ``run()`` runs."""
    real, seen = getattr(owner, attr), []
    setattr(owner, attr, lambda *args: seen.append(args) or real(*args))
    try:
        run()
    finally:
        setattr(owner, attr, real)
    return seen[0]


def _strata_fault(real):
    def faulty(table, n, width, slot):  # (1, 1) of layer 2, packed pass only
        layers = real(table, n, width, slot)
        if slot and n >= 2:
            layers[2] += 1 << (width + 1) * slot
        return layers
    return faulty


def _sym_layers_fault(real):
    def faulty(dims, top, width, slot):  # (2, 2) of Sym^2
        layers = real(dims, top, width, slot)
        if top >= 2:
            layers[2] += 1 << (2 * width + 2) * slot
        return layers
    return faulty


def _unpack_fault(real):
    def faulty(packed, width, slot):  # (1, 1), where the polynomial has it
        terms = real(packed, width, slot)
        if (1, 1) in terms:
            terms[1, 1] += 1
        return terms
    return faulty


def _super_product_fault(real):
    def faulty(level, trunc_t):  # the generators with h = 1 at k = 2 change parity
        return real(
            lambda k: [(ex, ey, odd ^ (k == 2 and h == 1), h) for ex, ey, odd, h in level(k)],
            trunc_t,
        )
    return faulty


def _exp_product_fault(real):
    # one more even generator at power 0 of level 2: D_2, D_4, ... gain 2 at
    # power 0 and the layers a factor 1/(1 - t^2); +1 in D_2 alone would
    # leave the exp route non-integral, an error rather than a wrong layer
    def faulty(level, trunc_t):
        return real(lambda k: [*level(k), (0, 0, 1)] if k == 2 else level(k), trunc_t)
    return faulty


def _exp_layers_fault(real):
    def faulty(weighted):  # y t^3
        layers = real(weighted)
        if len(layers) > 3:
            layers[3][1] = layers[3].get(1, 0) + 1
        return layers
    return faulty


def _witness_fault(real):
    def faulty(table, N):  # F_2 at the first point
        points = real(table, N)
        if N >= 2:
            points[0][2] += 1
        return points
    return faulty


def _drop_layers(count):
    def fault(real):
        def faulty(table, trunc_t):  # the top ``count`` layers go missing
            return real(table, trunc_t)[:-count]
        return faulty
    return fault


def _mul_fault(real):
    def faulty(self, other):  # x^2 y^2 t^2
        out = real(self, other)
        if out.trunc_t < 2:
            return out
        return TriSeries(plus(terms_of(out.layers()), {(2, 2, 2): 1}), out.trunc_t)
    return faulty


# (owner, kernel, fault, the kernel's arguments on a dataset, failing checks by preset)
_KERNEL_FAULTS = {
    "_strata": (
        strata, "_strata", _strata_fault,
        lambda ds: (ds.table, 6, 13, 64),
        dict.fromkeys(("k3", "torus", "hopf"), {"product-vs-partition", "nested-two-path"}),
    ),
    "_sym_layers": (
        strata, "_sym_layers", _sym_layers_fault,
        lambda ds: (ds.table.diamond(1).bigraded(), 3, 13, 64),
        {
            "k3": {"product-vs-partition", "nested-two-path"},
            "torus": {
                "product-vs-partition", "nested-two-path",
                "deformation-closed-forms", "deformation-omega-trivial",
            },
            "hopf": {"product-vs-partition", "nested-two-path"},
        },
    ),
    "_unpack": (
        strata, "_unpack", _unpack_fault,
        lambda ds: (strata._strata(ds.table, 2, 5, 64)[2], 5, 64),
        dict.fromkeys(("k3", "torus", "hopf"), {"product-vs-partition", "nested-two-path"}),
    ),
    "hilb_strata": (
        engine, "hilb_strata", _drop_layers(1),
        lambda ds: (ds.table, 6),
        dict.fromkeys(("k3", "torus", "hopf"), {"product-vs-partition"}),
    ),
    "chi_y_exp": (
        engine, "chi_y_exp", _drop_layers(2),
        lambda ds: (ds.table, 6),
        dict.fromkeys(("k3", "torus", "hopf"), {"chi-y-three-way"}),
    ),
    "TriSeries.__mul__": (
        TriSeries, "__mul__", _mul_fault,
        lambda ds: (TriSeries({(0, 0, 0): 1, (1, 1, 1): 1}, 2),) * 2,
        dict.fromkeys(("k3", "torus", "hopf"), {
            "product-vs-partition", "chi-y-three-way", "frolicher", "hochschild-two-path",
            "nested-two-path", "euler-witness",
        }),
    ),
    "_super_product": (
        engine, "_super_product", _super_product_fault,
        lambda ds: _arguments_seen(
            engine, "_super_product", lambda: engine.hilb_series(ds.table, 6)
        ),
        # frolicher still runs both of its sides here, until betti moves off it
        {
            "k3": {
                "product-vs-partition", "chi-y-three-way", "frolicher", "hochschild-two-path",
                "nested-two-path", "euler-witness",
            },
            "torus": {
                "product-vs-partition", "chi-y-three-way", "frolicher", "hochschild-two-path",
                "nested-two-path", "euler-witness",
            },
            "hopf": {
                "product-vs-partition", "hochschild-two-path", "nested-two-path", "euler-witness",
            },
        },
    ),
    "_exp_product": (
        engine, "_exp_product", _exp_product_fault,
        lambda ds: _arguments_seen(
            engine, "_exp_product", lambda: engine.hh_rhs_series(ds.table, 6)
        ),
        dict.fromkeys(("k3", "torus", "hopf"), {"chi-y-three-way", "hochschild-two-path"}),
    ),
    "_exp_layers": (
        engine, "_exp_layers", _exp_layers_fault,
        lambda ds: _arguments_seen(
            engine, "_exp_layers", lambda: engine.chi_y_exp(ds.table, 6)
        ),
        dict.fromkeys(("k3", "torus", "hopf"), {"chi-y-three-way", "hochschild-two-path"}),
    ),
    "_witness": (
        verify, "_witness", _witness_fault,
        lambda ds: (ds.table, 6),
        dict.fromkeys(("k3", "torus", "hopf"), {"euler-witness"}),
    ),
}


@pytest.mark.parametrize("name", ["k3", "torus", "hopf"])
@pytest.mark.parametrize("kernel", _KERNEL_FAULTS)
def test_verify_fails_on_every_single_kernel_fault(kernel, name, monkeypatch, capsys):
    owner, attr, fault, arguments, failing = _KERNEL_FAULTS[kernel]
    ds = preset(name, max_power=6)
    real = getattr(owner, attr)
    faulty = fault(real)

    def seen(out):  # the ring's product is read through its t-layers
        return out.layers() if isinstance(out, TriSeries) else out

    assert seen(faulty(*arguments(ds))) != seen(real(*arguments(ds)))  # the fault is not vacuous
    monkeypatch.setattr(owner, attr, faulty)
    code = verify.run(ds, 6)
    out = capsys.readouterr().out.splitlines()
    assert code == 3
    assert {line.partition(":")[0] for line in out if ": FAIL" in line} == failing[name]


@pytest.mark.parametrize("name", ["k3", "torus", "enriques", "bielliptic_ord2", "p2"])
def test_deformation_closed_forms_reads_every_n_up_to_the_order(name, monkeypatch, capsys):
    # Sym^m H^{0,*}(S) gains 1 in degree 0 from m = 3 on: n = 3 and the n = 2, 3
    # columns of deformation-omega-trivial read only Sym^2 and below, n = 4 does not
    real = strata._sym_graded

    def faulty(triple, m):
        dims = real(triple, m)
        return {**dims, 0: dims.get(0, 0) + 1} if m >= 3 else dims

    monkeypatch.setattr(strata, "_sym_graded", faulty)
    assert verify.run(preset(name, max_power=8), 8) == 3
    fails = [line for line in capsys.readouterr().out.splitlines() if ": FAIL" in line]
    assert len(fails) == 1
    assert fails[0].startswith("deformation-closed-forms: FAIL (n=4 dims ")


# -- the witness -----------------------------------------------------------------


def _with_layer(polys: list[HodgePolynomial], n: int, layer: dict) -> list[HodgePolynomial]:
    return [*polys[:n], HodgePolynomial(layer, 2 * n), *polys[n + 1:]]


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 8).flatmap(lambda n: st.tuples(st.just(n), twisted_tables(n, small_or_huge))),
    st.data(),
)
def test_witness_is_both_routes_at_every_point_and_sees_one_changed_entry(case, data):
    N, table = case
    witness, powers = verify._witness(table, N), verify._point_powers(N)
    series = engine.hilb_series(table, N)
    for layers in (series, engine.hilb_strata(table, N)):
        for (xs, ys), values in zip(powers, witness):
            assert values == [
                sum(c * xs[p] * ys[q] for (p, q), c in layer.items()) % verify._P
                for layer in layers
            ]
    ds = SurfaceDataset("random", table)

    def witness_check(polys):  # euler-witness, reading ``polys`` as the shared layers
        return dict(verify._verify_checks(ds, N, lambda: polys))["euler-witness"]

    polys = [HodgePolynomial(layer, 2 * n) for n, layer in enumerate(series)]
    witness_check(polys)()
    # +1 on one entry of layer n, then one entry of layer n moved to another bidegree
    n = data.draw(st.integers(0, N))
    cell = st.tuples(st.integers(0, 2 * n), st.integers(0, 2 * n))
    key = data.draw(cell)
    with pytest.raises(verify._CheckFailed, match=f"^layer n={n} differs"):
        witness_check(_with_layer(polys, n, {**series[n], key: series[n].get(key, 0) + 1}))()
    if n and series[n]:
        source = data.draw(st.sampled_from(sorted(series[n])))
        target = data.draw(cell.filter(lambda pq: pq != source))
        moved = dict(series[n])
        moved[target] = moved.get(target, 0) + moved.pop(source)
        with pytest.raises(verify._CheckFailed, match=f"^layer n={n} differs"):
            witness_check(_with_layer(polys, n, moved))()


# -- the shared series -----------------------------------------------------------


@pytest.fixture(params=["fork", "no fork"])
def fork(request, monkeypatch):
    """Run verify with os.fork present, or as on a platform without it."""
    if request.param == "no fork":
        monkeypatch.delattr(os, "fork")


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):  # verify left no child process behind
        os.waitpid(-1, os.WNOHANG)


_FAILED_SERIES_LINES = [
    "product-vs-partition: FAIL ({})",
    "chi-y-three-way: FAIL ({})",
    "frolicher: FAIL ({})",
    "hochschild-two-path: FAIL ({})",
    "nested-two-path: PASS",
    "deformation-closed-forms: PASS",
    "deformation-omega-trivial: FAIL ({})",
    "euler-witness: FAIL ({})",
    "verification FAILED; first failing check: product-vs-partition",
]


def _verify_k3_with_the_shared_series(corrupt, monkeypatch):
    # only the shared series (N=6) is corrupted; nested-two-path (depth 4)
    # expands its own product and still passes
    hilb_series = engine.hilb_series
    monkeypatch.setattr(
        engine, "hilb_series",
        lambda table, N: corrupt(hilb_series(table, N)) if N == 6 else hilb_series(table, N),
    )
    return run_cli("verify", "--preset", "k3", "-N", "6")


def _boom(series):
    raise IntegralityFailure("boom")


def test_verify_fails_each_check_that_reads_a_failed_series(monkeypatch, fork):
    code, out, err = _verify_k3_with_the_shared_series(_boom, monkeypatch)
    _no_child_left()
    assert (code, err) == (3, "")
    assert out.splitlines() == [line.format("boom") for line in _FAILED_SERIES_LINES]


def _with_entry(n, key, value):
    return lambda series: [*series[:n], {**series[n], key: value}, *series[n + 1:]]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        # no table of dimensions: a FAIL, not an input error (exit 1)
        (_with_entry(2, (0, 4), -4), "negative dimension -4 at (p, q)=(0, 4)"),
        (_with_entry(2, (5, 0), 1), "(p, q)=(5, 0) outside [0, 4]^2"),
    ],
    ids=["negative", "outside"],
)
def test_verify_fails_each_check_that_reads_a_malformed_series(corrupt, message, monkeypatch):
    code, out, err = _verify_k3_with_the_shared_series(corrupt, monkeypatch)
    assert (code, err) == (3, "")
    assert out.splitlines() == [line.format(message) for line in _FAILED_SERIES_LINES]


def test_verify_starts_no_process(monkeypatch):
    def no_fork():
        raise AssertionError("verify forked")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    code, out, err = run_cli("verify", "--preset", "k3", "-N", "6")
    assert (code, err) == (0, "")
    assert out.endswith("all checks passed\n")


def test_verify_reaps_the_child_when_a_check_raises(monkeypatch, fork):
    # a non-check exception propagates out of verify, and no process is left
    def broken(table, N):
        raise RuntimeError("not a check failure")

    monkeypatch.setattr(engine, "hilb_strata", broken)
    with pytest.raises(RuntimeError, match="not a check failure"):
        run_cli("verify", "--preset", "k3", "-N", "8")
    _no_child_left()


def test_verify_on_a_short_main_table_exits_2_before_any_output(tmp_path, fork):
    path = tmp_path / "short.json"
    path.write_text(json.dumps(preset_dict("torus", 3)))
    assert run_cli("verify", "--input", str(path), "-N", "5") == (
        2,
        "",
        "error: diamonds stops at K=3, verify needs every k <= 5: k=4 is missing\n",
    )
    _no_child_left()


_NO_DEFORMATION = "SKIP (dataset carries no deformation block)"
_NOT_OMEGA_TRIVIAL = "SKIP (table does not describe a trivial canonical bundle)"
# statuses of deformation-closed-forms and deformation-omega-trivial at N=4;
# every other check passes on every preset
_VERIFY_N4_DEFORMATION = {
    "bielliptic_ord2": ("PASS", _NOT_OMEGA_TRIVIAL),
    "bielliptic_ord3": ("PASS", _NOT_OMEGA_TRIVIAL),
    "enriques": ("PASS", _NOT_OMEGA_TRIVIAL),
    "hopf": (_NO_DEFORMATION, _NOT_OMEGA_TRIVIAL),
    "inoue": (_NO_DEFORMATION, _NOT_OMEGA_TRIVIAL),
    "k3": ("PASS", "PASS"),
    "kodaira_secondary": (_NO_DEFORMATION, _NOT_OMEGA_TRIVIAL),
    "p2": ("PASS", _NOT_OMEGA_TRIVIAL),
    "torus": ("PASS", "PASS"),
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_verify_golden_output_on_presets(name):
    closed, omega = _VERIFY_N4_DEFORMATION[name]
    want = (
        "product-vs-partition: PASS\n"
        "chi-y-three-way: PASS\n"
        "frolicher: PASS\n"
        "hochschild-two-path: PASS\n"
        "nested-two-path: PASS\n"
        f"deformation-closed-forms: {closed}\n"
        f"deformation-omega-trivial: {omega}\n"
        "euler-witness: PASS\n"
        "all checks passed\n"
    )
    assert run_cli("verify", "--preset", name, "-N", "4") == (0, want, "")


def test_kahler_asymmetry_warns_on_stderr(tmp_path):
    obj = preset_dict("hopf", 2)  # asymmetric diamonds
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(obj))
    obj["kahler_symmetric"] = True
    flagged = tmp_path / "flagged.json"
    flagged.write_text(json.dumps(obj))
    code, out, err = run_cli("hilb", "--input", str(flagged), "-n", "2")
    assert (code, out) == run_cli("hilb", "--input", str(plain), "-n", "2")[:2]
    assert code == 0
    assert err == "warning: kahler_symmetric is set but diamond k=0 is asymmetric\n"


def test_insufficient_powers_exits_2(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(preset_dict("torus", 1)))
    code, _, err = run_cli("hilb", "--input", str(path), "-N", "3")
    assert code == 2
    assert "k=2" in err


def test_parse_error_exits_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, _, err = run_cli("hilb", "--input", str(path), "-n", "1")
    assert code == 1
    assert "error" in err
    deep = tmp_path / "deep.json"
    nested = "[" * 200_000 + "]" * 200_000
    deep.write_text('{"name": "x", "max_power": 0, "diamonds": ' + nested + "}")
    code, out, err = run_cli("hilb", "--input", str(deep), "-n", "1")
    assert (code, out, err) == (1, "", "error: not valid JSON: nesting too deep\n")


def test_validation_error_exits_1(tmp_path):
    grid = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"name": "s", "max_power": 0, "diamonds": [grid]}))
    code, _, err = run_cli("hilb", "--input", str(path), "-n", "0")
    assert code == 1
    assert "nonnegative" in err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("diamonds", -3, "diamonds[1]: diamond entries must be nonnegative, got -3"),
        ("diamonds", 1.5, "diamonds[1]: diamond entries must be ints, got 1.5"),
        ("nested_diamonds", -3, "nested_diamonds[1]: diamond entries must be nonnegative, got -3"),
        ("nested_diamonds", 1.5, "nested_diamonds[1]: diamond entries must be ints, got 1.5"),
        ("deformation", -3, "deformation.hT entries must be nonnegative ints"),
    ],
    ids=["diamonds-negative", "diamonds-float", "nested-negative", "nested-float", "deformation"],
)
def test_dataset_value_errors_name_their_field(tmp_path, field, value, message):
    obj = preset_dict("torus", 2)
    obj["nested_diamonds"] = json.loads(json.dumps(obj["diamonds"]))
    if field == "deformation":
        obj["deformation"]["hT"][1] = value
    else:
        obj[field][1][1][1] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert run_cli("hilb", "--input", str(path), "-n", "1") == (1, "", f"error: {message}\n")


def test_nested_on_a_short_nested_table_names_the_field(tmp_path):
    obj = preset_dict("torus", 3)
    obj["nested_diamonds"] = obj["diamonds"][:2]
    path = tmp_path / "short_nested.json"
    path.write_text(json.dumps(obj))
    assert run_cli("nested", "--input", str(path), "-n", "3") == (
        2,
        "",
        "error: nested_diamonds stops at K=1, nested needs every k <= 3: k=2 is missing\n",
    )
    # a main table short of n is named first, by its own field
    obj["max_power"], obj["diamonds"] = 1, obj["diamonds"][:2]
    path.write_text(json.dumps(obj))
    assert run_cli("nested", "--input", str(path), "-n", "3") == (
        2,
        "",
        "error: diamonds stops at K=1, nested needs every k <= 3: k=2 is missing\n",
    )


@pytest.mark.parametrize("argv", [
    ("hilb", "-n", "13"),
    ("hilb", "-N", "13"),
    ("sym", "-a", "1", "-k", "13"),
    ("nested", "-n", "13"),
    ("chiy", "-N", "13", "--method", "product"),
    ("chiy", "-N", "13", "--method", "exp"),
    ("chiy", "-N", "13", "--method", "hodge"),
    ("hh", "-n", "13"),
    ("verify", "-N", "13"),
], ids=" ".join)
def test_a_short_main_table_names_the_field_and_the_subcommand(tmp_path, argv):
    # one message for every subcommand that reads each k up to its order,
    # whichever engine function would have run first
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(preset_dict("k3", 12)))
    command, *rest = argv
    assert run_cli(command, "--input", str(path), *rest) == (
        2,
        "",
        f"error: diamonds stops at K=12, {command} needs every k <= 13: k=13 is missing\n",
    )


def test_missing_file_exits_1(tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run_cli("hilb", "--input", str(missing), "-n", "1")
    assert (code, out, err) == (
        1, "", f"error: --input {missing}: No such file or directory\n"
    )
    code, out, err = run_cli("hilb", "--input", str(tmp_path), "-n", "1")
    assert (code, out, err) == (1, "", f"error: --input {tmp_path}: Is a directory\n")


def test_input_is_a_path_even_when_it_looks_like_json(tmp_path):
    # a file name that starts with "{" loads; inline JSON text is a missing file
    text = json.dumps(preset_dict("k3", 1))
    named = tmp_path / "{k3}.json"
    named.write_text(text)
    assert run_cli("hilb", "--input", str(named), "-n", "1") == run_cli(
        "hilb", "--preset", "k3", "-n", "1"
    )
    assert run_cli("hilb", "--input", text, "-n", "1") == (
        1, "", f"error: --input {text}: No such file or directory\n"
    )


def test_non_utf8_input_names_the_flag(tmp_path):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli("hilb", "--input", str(path), "-n", "1")
    assert (code, out, err) == (
        1,
        "",
        f"error: --input {path}: not valid UTF-8 text (invalid start byte at byte 0)\n",
    )


def test_bad_arguments_exit_1():
    code, _, _ = run_cli("hilb", "--preset", "not_a_surface", "-n", "1")
    assert code == 1


def test_negative_arguments_exit_1():
    for argv, flag in (
        (("hilb", "--preset", "hopf", "-n", "-1"), "-n"),
        (("hilb", "--preset", "hopf", "-N", "-2"), "-N"),
        (("sym", "--preset", "k3", "-a", "-2"), "-a"),
        (("nested", "--preset", "k3", "-n", "-1"), "-n"),
        (("chiy", "--preset", "k3", "-N", "-1"), "-N"),
        (("verify", "--preset", "k3", "-N", "-3"), "-N"),
        (("deform", "--preset", "k3", "-n", "2", "--qmax", "-3"), "--qmax"),
    ):
        code, out, err = run_cli(*argv)
        assert code == 1
        assert out == ""
        assert f"argument {flag}: must be nonnegative" in err


def test_sym_negative_bundle_power_exits_1():
    # a negative k used to index the table from its end and print a diamond
    code, out, err = run_cli("sym", "--preset", "k3", "-a", "2", "-k", "-1")
    assert code == 1
    assert out == ""
    assert "argument -k: must be nonnegative, got -1" in err


def _read_one_line_and_close(*argv: str) -> tuple[bytes, bytes, int]:
    """The first stdout line, all of stderr and the exit code of a CLI run
    whose reader closes stdout after one line."""
    with subprocess.Popen(
        [sys.executable, "-m", "hilbhodge.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(),
    ) as proc:
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    return line, err, code


def test_closed_stdout_exits_quietly():
    # about 220 kB of output, well beyond a pipe's buffer
    assert _read_one_line_and_close("hilb", "--preset", "torus", "-N", "12") == (
        b"{\n", b"", 141
    )


def test_closed_stdout_exits_quietly_from_a_text_series():
    # 132,234 bytes of diamonds, printed line by line, beyond a 64 KiB pipe buffer
    argv = ("hilb", "--preset", "torus", "-N", "16", "--format", "diamond")
    assert _read_one_line_and_close(*argv) == (b"t^0:\n", b"", 141)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # each command runs as ``python -m hilbhodge.cli`` runs it, as __main__;
    # verify runs in one process: no process-pool, subprocess or pickling module
    # and every coefficient is an int: no command loads fractions
    never = {
        "dataclasses", "inspect", "multiprocessing", "concurrent", "pickle", "subprocess",
        "fractions", "decimal", "hilbhodge.partitions", "hilbhodge.oracles",
    }
    lazy = {"hilbhodge.verify", "hilbhodge.strata"}
    for argv, loads in (
        (["hilb", "--preset", "k3", "-n", "2"], set()),
        (["sym", "--preset", "k3", "-a", "2"], {"hilbhodge.strata"}),
        (["chiy", "--preset", "k3", "-N", "3", "--method", "exp"], set()),
        (["verify", "--preset", "k3", "-N", "3"], lazy),
    ):
        out, modules = fresh_interpreter(
            f"import runpy, sys\nsys.argv = ['hilbhodge', *{argv!r}]\n"
            "try:\n    runpy.run_module('hilbhodge.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n    print('exit', exc.code)"
        )
        assert out.endswith("exit 0\n"), argv
        assert modules & (never | lazy) == loads, argv
        # a module that imported the CLI would compile and run it a second time
        assert "hilbhodge.cli" not in modules, argv
