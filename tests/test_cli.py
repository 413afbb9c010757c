"""Command-line surface: rendering, schemas, exit codes, verification."""

import hashlib
import json
import marshal
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import run_cli
from test_cli_golden import GOLDEN, TWISTED

import hilbhodge

from hilbhodge import cli, engine
from hilbhodge.cli import render_diamond, render_latex
from hilbhodge.engine import HodgePolynomial, IntegralityFailure, hilb_coefficient
from hilbhodge.oracles import super_sym_multiset
from hilbhodge.series import TriSeries
from hilbhodge.surfaces import PRESET_NAMES, preset, serialize

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
    code, _, err = run_cli("deform", "--preset", "hopf", "-n", "2")
    assert code == 1
    assert "deformation" in err


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
    obj = json.loads(serialize(preset("torus", max_power=4)))
    obj["deformation"]["hT"] = [3, 4, 2]  # inconsistent with the table
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli("verify", "--input", str(path), "-N", "4")
    assert code == 3
    assert "first failing check: deformation-omega-trivial" in out


def test_verify_short_nested_table_skips_only_the_nested_check(tmp_path):
    # nested_diamonds shorter than the order used to exit 2 after four checks
    obj = json.loads(serialize(preset("torus", max_power=6)))
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
        "oracle-suite: PASS",
        "all checks passed",
    ]


def _bump(poly: HodgePolynomial, p: int, q: int) -> HodgePolynomial:
    terms = dict(poly.items())
    terms[p, q] = poly.entry(p, q) + 1
    return HodgePolynomial(terms, poly.space_dim)


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
        lambda table, N: [
            _bump(_bump(poly, 3, 1), 2, 2) if n == 2 else poly
            for n, poly in enumerate(hilb_strata(table, N))
        ],
    )
    monkeypatch.setattr(  # b_2 of Hilb^2 sits at x^2 t^2
        engine,
        "betti_series",
        lambda betti, N: betti_series(betti, N) + TriSeries({(2, 0, 2): 1}, N),
    )
    monkeypatch.setattr(  # HH_0 of Hilb^2 sits at y^(0 + 2n) t^n
        engine,
        "hh_rhs_series",
        lambda table, N: hh_rhs_series(table, N) + TriSeries({(0, 4, 2): 1}, N),
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
        "oracle-suite: PASS",
        "verification FAILED; first failing check: product-vs-partition",
    ]


def test_verify_chi_y_failure_names_the_first_differing_power(monkeypatch):
    chi_y_exp = engine.chi_y_exp
    monkeypatch.setattr(  # chi_y of Hilb^2 of k3: y^1 has 42, y^3 has 42
        engine,
        "chi_y_exp",
        lambda table, N: chi_y_exp(table, N) + TriSeries({(0, 3, 2): 1}, N),
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
        lambda series: TriSeries({(0, 1, 2): -1}, series.trunc_t)
        + chi_y_from_hodge_series(series),
    )
    code, out, err = run_cli("verify", "--preset", "k3", "-N", "4")
    assert (code, err) == (3, "")
    assert out.splitlines()[1] == (
        "chi-y-three-way: FAIL (paths disagree at n=2, y=1: 42 != 41)"
    )


def test_verify_oracle_suite_runs_on_a_large_diamond(monkeypatch):
    # the k3 diamond has 24 generators, past the enumeration guard of 12;
    # the check caps it instead of skipping the symmetric-power oracle
    seen = []

    def wrong(dims, n):  # right up to Sym^2, one dimension too many in Sym^3
        seen.append(dict(dims))
        table = super_sym_multiset(dims, n)
        return {**table, (0, 0): table.get((0, 0), 0) + 1} if n == 3 else table

    monkeypatch.setattr(cli, "super_sym_multiset", wrong)
    code, out, err = run_cli("verify", "--preset", "k3", "-N", "4")
    assert (code, err) == (3, "")
    assert out.splitlines()[-2:] == [
        "oracle-suite: FAIL (symmetric-power oracle disagrees at n=3)",
        "verification FAILED; first failing check: oracle-suite",
    ]
    # every nonzero bidegree once, then h^{1,1} = 20 filled up to 12 in all
    assert seen == [{(0, 0): 1, (0, 2): 1, (1, 1): 8, (2, 0): 1, (2, 2): 1}] * 4


# -- the shared series in a second process ------------------------------------


@pytest.fixture(params=["fork", "no fork"])
def fork(request, monkeypatch):
    """Run verify with os.fork, or as on a platform without it."""
    if request.param == "no fork":
        monkeypatch.delattr(os, "fork")


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):  # every child reaped, none running
        os.waitpid(-1, os.WNOHANG)


def test_verify_series_past_the_pipe_buffer_is_the_same_without_fork(monkeypatch):
    # the k3 series at N=16 is more than a 64 KiB pipe holds, so the child
    # blocks in its write until the parent has computed the other sides
    terms = engine.hilb_series(preset("k3", max_power=16).table, 16)._terms
    assert len(marshal.dumps(terms)) > 65536
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    forked = run_cli("verify", "--preset", "k3", "-N", "16")
    _no_child_left()
    assert forks == [1]
    assert forked[0] == 0 and forked[1].endswith("all checks passed\n")
    monkeypatch.delattr(os, "fork")
    assert run_cli("verify", "--preset", "k3", "-N", "16") == forked


@pytest.mark.parametrize("dataset", ["hopf", "k3", "twisted"])
def test_verify_golden_digests_with_and_without_fork(dataset, fork, tmp_path):
    args = ("--preset", dataset)
    if dataset == "twisted":
        path = tmp_path / "twisted.json"
        path.write_text(json.dumps(TWISTED))
        args = ("--input", str(path))
    code, out, err = run_cli("verify", *args, "-N", "4")
    _no_child_left()
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest, err) == (*GOLDEN[f"{dataset} verify -N 4"], "")


def test_verify_fails_each_check_that_reads_a_failed_series(monkeypatch, fork):
    # only the shared series (N=6) fails; nested-two-path (depth 4) and
    # oracle-suite (order 3) expand their own products and still pass
    hilb_series = engine.hilb_series

    def boom(table, N):
        if N == 6:
            raise IntegralityFailure("boom")
        return hilb_series(table, N)

    monkeypatch.setattr(engine, "hilb_series", boom)
    code, out, err = run_cli("verify", "--preset", "k3", "-N", "6")
    _no_child_left()
    assert (code, err) == (3, "")
    assert out.splitlines() == [
        "product-vs-partition: FAIL (boom)",
        "chi-y-three-way: FAIL (boom)",
        "frolicher: FAIL (boom)",
        "hochschild-two-path: FAIL (boom)",
        "nested-two-path: PASS",
        "deformation-closed-forms: PASS",
        "deformation-omega-trivial: FAIL (boom)",
        "oracle-suite: PASS",
        "verification FAILED; first failing check: product-vs-partition",
    ]


def test_verify_fails_the_series_checks_when_the_child_leaves_no_result(monkeypatch):
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    hilb_series = engine.hilb_series
    test_pid = os.getpid()

    def dies(table, N):  # in the child only, before it sends the series (N=5)
        if N == 5 and os.getpid() != test_pid:
            os._exit(7)
        return hilb_series(table, N)

    monkeypatch.setattr(engine, "hilb_series", dies)
    code, out, err = run_cli("verify", "--preset", "hopf", "-N", "5")
    _no_child_left()
    assert (code, err) == (3, "")
    reason = "FAIL (hilb_series ended without a result (exit status 7))"
    assert out.splitlines() == [
        f"product-vs-partition: {reason}",
        f"chi-y-three-way: {reason}",
        f"frolicher: {reason}",
        f"hochschild-two-path: {reason}",
        "nested-two-path: PASS",
        f"deformation-closed-forms: {_NO_DEFORMATION}",
        f"deformation-omega-trivial: {_NOT_OMEGA_TRIVIAL}",
        "oracle-suite: PASS",
        "verification FAILED; first failing check: product-vs-partition",
    ]


def test_verify_reaps_the_child_when_a_check_raises(monkeypatch, fork):
    def broken(table, N):
        raise RuntimeError("not a check failure")

    monkeypatch.setattr(engine, "hilb_strata", broken)
    with pytest.raises(RuntimeError, match="not a check failure"):
        run_cli("verify", "--preset", "k3", "-N", "8")
    _no_child_left()


def test_verify_on_a_short_main_table_exits_2_before_any_output(tmp_path, fork):
    path = tmp_path / "short.json"
    path.write_text(serialize(preset("torus", max_power=3)))
    assert run_cli("verify", "--input", str(path), "-N", "5") == (
        2,
        "",
        "error: hilb_series needs h^(p,q)(S, L^k) for every k <= 5, but the "
        "table stops at K=3: k=4 is missing\n",
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
        "oracle-suite: PASS\n"
        "all checks passed\n"
    )
    assert run_cli("verify", "--preset", name, "-N", "4") == (0, want, "")


def test_kahler_asymmetry_warns_on_stderr(tmp_path):
    obj = json.loads(serialize(preset("hopf", max_power=2)))  # asymmetric diamonds
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
    path.write_text(serialize(preset("torus", max_power=1)))
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
    obj = json.loads(serialize(preset("torus", max_power=2)))
    obj["nested_diamonds"] = json.loads(json.dumps(obj["diamonds"]))
    if field == "deformation":
        obj["deformation"]["hT"][1] = value
    else:
        obj[field][1][1][1] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert run_cli("hilb", "--input", str(path), "-n", "1") == (1, "", f"error: {message}\n")


def test_nested_on_a_short_nested_table_names_the_field(tmp_path):
    obj = json.loads(serialize(preset("torus", max_power=3)))
    obj["nested_diamonds"] = obj["diamonds"][:2]
    path = tmp_path / "short_nested.json"
    path.write_text(json.dumps(obj))
    assert run_cli("nested", "--input", str(path), "-n", "3") == (
        2,
        "",
        "error: nested_diamonds stops at K=1, nested needs every k <= 3: k=2 is missing\n",
    )
    # a main table short of n keeps the engine's message, as before
    obj["max_power"], obj["diamonds"] = 1, obj["diamonds"][:2]
    path.write_text(json.dumps(obj))
    code, out, err = run_cli("nested", "--input", str(path), "-n", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: nested_series needs ")


def test_missing_file_exits_1(tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run_cli("hilb", "--input", str(missing), "-n", "1")
    assert (code, out, err) == (
        1, "", f"error: --input {missing}: No such file or directory\n"
    )
    code, out, err = run_cli("hilb", "--input", str(tmp_path), "-n", "1")
    assert (code, out, err) == (1, "", f"error: --input {tmp_path}: Is a directory\n")


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


def _src_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this package's source."""
    env = dict(os.environ)
    src = str(Path(hilbhodge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_closed_stdout_exits_quietly():
    # about 220 kB of output, well beyond a pipe's buffer
    argv = [sys.executable, "-m", "hilbhodge.cli"]
    argv += ["hilb", "--preset", "torus", "-N", "12"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env()
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert err == b""
    assert code == 141


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every command is a fresh interpreter, so these imports are paid per
    # command; pytest has loaded both modules already, hence the subprocess
    # verify forks its one child by hand: no process-pool or pickling module
    probe = (
        "import sys, hilbhodge.cli; print(' '.join(m for m in ('dataclasses', "
        "'inspect', 'multiprocessing', 'concurrent', 'pickle', 'subprocess') "
        "if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=_src_env(), timeout=60, check=True,
    )
    assert done.stdout == "\n"
