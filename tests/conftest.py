"""Shared helpers: random tables, t-layer convolution, the brute-force oracles
(a product, an Euler factor and a sum of term dicts; a super symmetric power),
a partition enumerator, a capture-safe CLI runner, a fresh-interpreter probe.

The reference series ring here shares no code with the package's: a series is
a plain ``{(e_x, e_y, e_t): c}`` dict without zero values, read to ``t^trunc``."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import warnings
from collections.abc import Mapping
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations_with_replacement
from pathlib import Path
from random import Random

import hilbhodge
from hilbhodge.cli import main as cli_main
from hilbhodge.surfaces import SurfaceDiamond, TwistedTable, preset

# hypothesis reports a failing example through libcst, whose import raises a
# DeprecationWarning when mypy_extensions is installed; under ``-W error`` that
# would end the whole session at the first failure, so import it here, once
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin writes no patch
        pass


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


def convolve(a, b):
    """The t-layers of a product of two series given as lists of (p, q) -> value maps."""
    out = []
    for n in range(len(a)):
        layer = {}
        for m in range(n + 1):
            for (p1, q1), u in a[m].items():
                for (p2, q2), v in b[n - m].items():
                    layer[p1 + p2, q1 + q2] = layer.get((p1 + p2, q1 + q2), 0) + u * v
        out.append(layer)
    return out


def euler_power(m, k, e, trunc):
    """(1 - c x^ex y^ey t^k)^(-e) to t^trunc as a term dict, for m = (c, ex, ey), c = +-1.

    The long way, independent of the engine's binomial factors:
    1/(1 - m t^k) is written out as its geometric series sum_j (m t^k)^j,
    and the |e|-th power of it (e > 0) or of 1 - m t^k (e < 0) is taken by
    repeated squaring with :func:`naive_mul`.
    """
    c, ex, ey = m
    if e >= 0:
        base = {(j * ex, j * ey, j * k): c**j for j in range(trunc // k + 1)}
    else:
        base = {(0, 0, 0): 1, (ex, ey, k): -c}
    result, e = {(0, 0, 0): 1}, abs(e)
    while e:
        if e & 1:
            result = naive_mul(result, base, trunc)
        e >>= 1
        if e:
            base = naive_mul(base, base, trunc)
    return result


# -- the brute-force oracles: they enumerate basis multisets and term pairs
# one by one, sharing no code path with the closed-form engine

_DIMENSION_GUARD = 12


class TooLarge(Exception):
    """Refusing to enumerate: the input is beyond the brute-force guard."""


def super_sym_multiset(
    dims: Mapping[tuple[int, int], int], n: int
) -> dict[tuple[int, int], int]:
    """Bigraded dimensions of Sym^n of a super space by direct enumeration.

    A basis of the super symmetric power consists of the size-n multisets
    of basis vectors in which the odd ones (odd total degree) appear at
    most once.  Each admissible multiset contributes 1 in the sum of its
    bidegrees.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    basis: list[tuple[int, int]] = []
    for (p, q), v in sorted(dims.items()):
        if v < 0:
            raise ValueError("dimensions must be nonnegative")
        basis.extend([(p, q)] * v)
    if len(basis) > _DIMENSION_GUARD:
        raise TooLarge(
            f"total dimension {len(basis)} exceeds the guard {_DIMENSION_GUARD}"
        )
    odd = {
        index for index, (p, q) in enumerate(basis) if (p + q) % 2
    }
    counts: dict[tuple[int, int], int] = {}
    for combo in combinations_with_replacement(range(len(basis)), n):
        repeated_odd = any(
            combo[i] == combo[i + 1] and combo[i] in odd
            for i in range(len(combo) - 1)
        )
        if repeated_odd:
            continue
        sp = sum(basis[i][0] for i in combo)
        sq = sum(basis[i][1] for i in combo)
        counts[(sp, sq)] = counts.get((sp, sq), 0) + 1
    return counts


def naive_mul(a, b, trunc):
    """Schoolbook product of two term dicts to t^trunc; the reference for every product."""
    terms: dict[tuple[int, int, int], int] = {}
    for (ax, ay, at), av in a.items():
        for (bx, by, bt), bv in b.items():
            if at + bt <= trunc:
                key = (ax + bx, ay + by, at + bt)
                terms[key] = terms.get(key, 0) + av * bv
    return {key: v for key, v in terms.items() if v}


def plus(a, b):
    """The sum of two term dicts; the package's ring only multiplies."""
    terms = dict(a)
    for key, value in b.items():
        terms[key] = terms.get(key, 0) + value
    return {key: v for key, v in terms.items() if v}


def layers_of(terms, trunc):
    """The t-layers ``{(e_x, e_y): c}`` of a term dict, n = 0..trunc."""
    out = [{} for _ in range(trunc + 1)]
    for (ex, ey, et), value in terms.items():
        out[et][ex, ey] = value
    return out


def terms_of(layers):
    """The term dict of a list of t-layers; the inverse of :func:`layers_of`."""
    return {(ex, ey, n): c for n, layer in enumerate(layers) for (ex, ey), c in layer.items()}


def partitions(n: int) -> list[tuple[int, ...]]:
    """Every partition of n as its multiplicities (a_1, ..., a_r), a_r > 0, sorted.

    a_k counts the parts equal to k; the partition of 0 is ().
    """
    def vectors(m: int, k: int):  # (a_k, ..., a_r) with parts >= k summing to m
        if m == 0:
            yield ()
        elif k <= m:
            for a in range(m // k + 1):
                for rest in vectors(m - k * a, k + 1):
                    if a or rest:
                        yield (a, *rest)

    return sorted(vectors(n, 1))


def nested_index_set(n: int) -> list[tuple[tuple[int, ...], int]]:
    """All pairs (partition of n, marked part j): j = 0, or a part with a_j > 0."""
    return [
        (lam, j)
        for lam in partitions(n)
        for j in (0, *(k for k, a in enumerate(lam, start=1) if a))
    ]


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def preset_dict(name: str, max_power: int) -> dict:
    """A preset as the JSON object that ``load_dataset`` reads, in plain lists."""
    ds = preset(name, max_power=max_power)
    obj = {"name": name, "max_power": max_power, "kahler_symmetric": ds.kahler_symmetric,
           "diamonds": [d.rows() for d in ds.table.diamonds()]}
    if ds.deformation:
        obj["deformation"] = ds.deformation._asdict()
    return json.loads(json.dumps(obj))


def src_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this package's source."""
    env = dict(os.environ)
    src = str(Path(hilbhodge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def fresh_interpreter(code: str) -> tuple[str, set[str]]:
    """Run ``code`` in a fresh interpreter; its stdout and its ``sys.modules`` at the end.

    Each command is a fresh interpreter, so what it imports is paid per
    command; the test process has loaded every module already.
    """
    probe = f"{code}\nimport sys\nprint('modules:', *sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=src_env(), timeout=60, check=True,
    )
    out, _, modules = done.stdout.rpartition("modules: ")
    return out, set(modules.split())
