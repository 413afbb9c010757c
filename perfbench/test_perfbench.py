"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hilbhodge.cli import main as cli_main  # noqa: E402


def _cli(*argv: str) -> bytes:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli_main(list(argv)) == 0
    return out.getvalue().encode()


def _files(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def test_same_seed_gives_identical_datasets_and_commands(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        a.mkdir()
        b.mkdir()
        first, second = build(7, a), build(7, b)
        assert _files(a) == _files(b)
        assert [c.argv for c in first] == [
            tuple(arg.replace(str(b), str(a)) for arg in c.argv) for c in second
        ]


def test_different_seeds_keep_each_power_total_dimension():
    tables = [gen.twisted_dataset(Random(seed), "t", 12)["diamonds"] for seed in range(6)]
    assert len({json.dumps(t) for t in tables}) == len(tables)
    for k in range(13):
        (_, even), (_, odd) = gen.parity_budget(k)
        for table in tables:
            grid = table[k]
            assert sum(grid[p][q] for p, q in gen.EVEN_CELLS) == even
            assert sum(grid[p][q] for p, q in gen.ODD_CELLS) == odd


def test_p2_o1_table_follows_bott():
    diamonds = gen.p2_o1_dataset(4)["diamonds"]
    assert diamonds[0] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert [[row[0] for row in diamonds[k]] for k in (1, 2, 3, 4)] == [
        [3, 0, 0], [6, 3, 0], [10, 8, 1], [15, 15, 3]
    ]
    assert all(row[1:] == [0, 0] for k in (1, 2, 3, 4) for row in diamonds[k])


def _failures(command, out: bytes, rc: int = 0) -> int:
    outcome = run.Outcome(rc, out, b"", 0.0, 0)
    return run.Checker([command]).failures([outcome])


def test_corrupted_series_coefficient_is_a_failure():
    command = workloads.hilb_series_command(workloads.Source.preset("k3"), 6)
    good = _cli(*command.argv)
    assert _failures(command, good) == 0
    payload = json.loads(good)
    payload["coefficients"][6]["terms"][3]["h"] += 1  # beyond the partition-checked orders
    assert _failures(command, json.dumps(payload, indent=2).encode() + b"\n") == 1
    assert _failures(command, good, rc=3) == 1
    payload = json.loads(good)
    del payload["coefficients"][-1]  # a series cut short
    assert _failures(command, json.dumps(payload, indent=2).encode() + b"\n") == 1


def test_corrupted_diamond_series_block_is_a_failure():
    command = workloads.hilb_series_command(workloads.Source.preset("torus"), 6, "diamond")
    good = _cli(*command.argv)
    assert _failures(command, good) == 0
    last = good.rindex(b"1")  # h^{12,12} of Hilb^6, beyond the partition-checked orders
    assert _failures(command, good[:last] + b"2" + good[last + 1:]) == 1


def test_corrupted_diamond_and_chiy_outputs_are_failures(tmp_path):
    k3 = workloads.Source.preset("k3")
    chiy = workloads.chiy_command(k3, 5, "exp", "poly")
    good = _cli(*chiy.argv)
    assert _failures(chiy, good) == 0
    *lines, last = good.decode().splitlines()
    head, _, body = last.partition(": ")
    constant, _, rest = body.partition(" + ")
    lines.append(f"{head}: {int(constant) + 1} + {rest}")
    assert _failures(chiy, ("\n".join(lines) + "\n").encode()) == 1

    single = workloads.build_queries(3, tmp_path)
    exact = next(c for c in single if c.argv[0] == "hilb" and "-n" in c.argv and c.argv[1] == "--preset")
    good = _cli(*exact.argv)
    assert _failures(exact, good) == 0
    assert _failures(exact, good.replace(b"1", b"2", 1)) == 1


def test_group_members_must_print_identical_bytes():
    k3 = workloads.Source.preset("k3")
    group = [workloads.chiy_command(k3, 3, m, "json", "g") for m in ("product", "exp")]
    out = _cli(*group[0].argv)
    outcomes = [run.Outcome(0, out, b"", 0.0, 0), run.Outcome(0, out + b" ", b"", 0.0, 0)]
    assert run.Checker(group).failures(outcomes) == 1


def test_plain_int_products_match_goettsche_for_k3():
    # Euler characteristics of Hilb^n(K3): coefficients of prod (1 - t^k)^-24
    diamonds = [[[1, 0, 1], [0, 20, 0], [1, 0, 1]]] * 5
    assert workloads.checks.hilb_at(diamonds, -1, -1, 4) == [1, 24, 324, 3200, 25650]


def test_self_time_subtracts_children_and_recursion_is_counted_once():
    spans = [
        ("engine.hilb_series", 0.0, 10.0, -1, 10.0),
        ("series.euler_product", 1.0, 9.0, 0, 8.0),
        ("series.mul", 2.0, 5.0, 1, 3.0),
        ("series.int_pow", 5.0, 8.0, 1, 3.0),
        ("series.int_pow", 6.0, 7.0, 3, 1.0),
        ("partitions.bounded_compositions", 0.5, 9.5, 0, 0.25),
    ]
    record = {"import_s": 0.1, "spans": spans,
              "counters": {"mul_terms_out": 4, "coeff_max_bits": 9, "compositions": 3,
                           "sym_distinct": 0}}
    metrics = layers.command_metrics(record)
    assert metrics["series.euler_product_s"] == 8.0
    assert metrics["engine.hilb_series_s"] == 10.0
    assert metrics["series.mul_self_s"] == 3.0
    assert metrics["series.int_pow_calls"] == 2
    assert metrics["partitions.self_s"] == 0.25
    assert metrics["cli.import_ms"] == 100.0

