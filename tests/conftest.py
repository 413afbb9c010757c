"""Shared helpers: random tables, an Euler-factor oracle, a capture-safe CLI runner."""

from __future__ import annotations

import io
import operator
from contextlib import redirect_stderr, redirect_stdout
from random import Random

from hilbhodge.cli import main as cli_main
from hilbhodge.series import TriSeries
from hilbhodge.surfaces import SurfaceDiamond, TwistedTable


def random_diamond(rng: Random, hi: int = 3) -> SurfaceDiamond:
    return SurfaceDiamond(
        [[rng.randint(0, hi) for _ in range(3)] for _ in range(3)]
    )


def random_symmetric_diamond(rng: Random, hi: int = 3) -> SurfaceDiamond:
    rows = [[0] * 3 for _ in range(3)]
    for p in range(3):
        for q in range(p, 3):
            rows[p][q] = rows[q][p] = rng.randint(0, hi)
    return SurfaceDiamond(rows)


def random_table(rng: Random, max_power: int, hi: int = 3) -> TwistedTable:
    return TwistedTable([random_diamond(rng, hi) for _ in range(max_power + 1)])


def random_symmetric_table(rng: Random, max_power: int, hi: int = 3) -> TwistedTable:
    return TwistedTable(
        [random_symmetric_diamond(rng, hi) for _ in range(max_power + 1)]
    )


def euler_power(m, k, e, trunc, mul=operator.mul):
    """(1 - c x^ex y^ey t^k)^(-e) to t^trunc, for m = (c, ex, ey) and c = +-1.

    The long way, independent of the engine's binomial factors:
    1/(1 - m t^k) is written out as its geometric series sum_j (m t^k)^j,
    and the |e|-th power of it (e > 0) or of 1 - m t^k (e < 0) is taken by
    repeated squaring and multiplication with ``mul``.
    """
    c, ex, ey = m
    if e >= 0:
        base = TriSeries(
            {(j * ex, j * ey, j * k): c**j for j in range(trunc // k + 1)}, trunc
        )
    else:
        base = TriSeries({(0, 0, 0): 1, (ex, ey, k): -c}, trunc)
    result, e = TriSeries.one(trunc), abs(e)
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()
