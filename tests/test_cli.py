"""Command-line surface: rendering, schemas, exit codes, verification."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import run_cli

import hilbhodge

from hilbhodge import engine
from hilbhodge.cli import polynomial_from_json, render_diamond, render_latex
from hilbhodge.engine import HodgePolynomial, hilb_coefficient
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
    n, poly = polynomial_from_json(out)
    assert n == 2
    assert poly == hilb_coefficient(preset("hopf", max_power=2).table, 2)
    obj = json.loads(out)
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
    monkeypatch.setattr(  # HH_0 of Hilb^2 sits at y^(0 + 2n) t^n
        engine,
        "hh_rhs_series",
        lambda table, N: hh_rhs_series(table, N) + TriSeries.monomial(1, 0, 4, 2, N),
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
        "frolicher: PASS",
        "hochschild-two-path: FAIL (paths disagree at n=2, i=0: 276 != 277)",
        "nested-two-path: FAIL (paths disagree at n=2, (p, q)=(1, 1): 42 != 43)",
        "deformation-closed-forms: PASS",
        "deformation-omega-trivial: PASS",
        "oracle-suite: PASS",
        "verification FAILED; first failing check: product-vs-partition",
    ]


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


def test_validation_error_exits_1(tmp_path):
    grid = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"name": "s", "max_power": 0, "diamonds": [grid]}))
    code, _, err = run_cli("hilb", "--input", str(path), "-n", "0")
    assert code == 1
    assert "nonnegative" in err


def test_missing_file_exits_1():
    code, _, err = run_cli("hilb", "--input", "/does/not/exist.json", "-n", "1")
    assert code == 1


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


def test_closed_stdout_exits_quietly():
    env = dict(os.environ)
    src = str(Path(hilbhodge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    # about 220 kB of output, well beyond a pipe's buffer
    argv = [sys.executable, "-m", "hilbhodge.cli"]
    argv += ["hilb", "--preset", "torus", "-N", "12"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert err == b""
    assert code == 141
