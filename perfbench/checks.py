"""Output checks that do not go through the route under test.

Each ``*_check`` function takes reference data computed before timing
and returns a callable ``check(stdout) -> error message or None``.  The
references come from two places:

* plain-int expansions written here: a generating series specialized at
  x, y = +-1 is a product of factors (1 - c t^k)^(-e) with c = +-1, and
  at x = y = -1 it is Goettsche's Euler-characteristic product
  prod_k (1 - t^k)^(-e_k) with e_k = sum (-1)^(p+q) h^{p,q}(S, L^k);
* the program's partition / stratum routes and a binomial expansion of
  super symmetric powers, used for small n against the Euler-product
  route the CLI takes.
"""

from __future__ import annotations

import json
from math import comb
from typing import Callable, Iterable

Check = Callable[[str], "str | None"]


# -- plain-int series ------------------------------------------------------


def product_ints(factors: Iterable[tuple[int, int, int]], trunc: int) -> list[int]:
    """Coefficients of prod (1 - c t^k)^(-e) up to t^trunc; factors are (k, c, e)."""
    series = [1] + [0] * trunc
    for k, c, e in factors:
        if k > trunc or not e:
            continue
        for _ in range(abs(e)):
            if e > 0:  # divide by (1 - c t^k)
                for n in range(k, trunc + 1):
                    series[n] += c * series[n - k]
            else:  # multiply by (1 - c t^k)
                for n in range(trunc, k - 1, -1):
                    series[n] -= c * series[n - k]
    return series


def hilb_at(diamonds, sx: int, sy: int, trunc: int) -> list[int]:
    """sum_n sum_{p,q} h^{p,q}(Hilb^n, L_n) sx^p sy^q t^n from the surface table."""
    factors = []
    for k in range(1, trunc + 1):
        for p in range(3):
            for q in range(3):
                h = diamonds[k][p][q]
                v = sx ** (p + k - 1) * sy ** (q + k - 1)
                factors.append((k, v, h) if (p + q) % 2 == 0 else (k, -v, -h))
    return product_ints(factors, trunc)


def betti_at(betti, sx: int, trunc: int) -> list[int]:
    """sum_n sum_i b_i(Hilb^n) sx^i t^n from the surface Betti numbers."""
    factors = []
    for k in range(1, trunc + 1):
        for i, b in enumerate(betti):
            v = sx**i
            factors.append((k, v, b) if i % 2 == 0 else (k, -v, -b))
    return product_ints(factors, trunc)


def sym_power(diamond, a: int) -> dict[tuple[int, int], int]:
    """Bigraded dimensions of Sym^a of a surface diamond, as a super space.

    Even cells contribute sum_j C(h+j-1, j) (x^p y^q)^j, odd cells
    sum_j C(h, j) (x^p y^q)^j; the a-th total degree is read off.
    """
    layers: list[dict] = [{(0, 0): 1}] + [{} for _ in range(a)]
    for p in range(3):
        for q in range(3):
            h = diamond[p][q]
            if not h:
                continue
            odd = (p + q) % 2
            out: list[dict] = [{} for _ in range(a + 1)]
            for d, layer in enumerate(layers):
                for j in range(a - d + 1):
                    w = comb(h, j) if odd else comb(h + j - 1, j)
                    if not w:
                        break
                    target = out[d + j]
                    for (x, y), c in layer.items():
                        key = (x + j * p, y + j * q)
                        target[key] = target.get(key, 0) + c * w
            layers = out
    return {key: c for key, c in layers[a].items() if c}


# -- output parsers -----------------------------------------------------------


def _chiy_poly_rows(text: str) -> list[dict[int, int]]:
    rows = []
    for line in text.splitlines():
        row: dict[int, int] = {}
        for piece in line.partition(": ")[2].split(" + "):
            coeff, star, power = piece.partition("*")
            if not star:
                coeff, power = ("1", piece) if piece.startswith("y") else (piece, "")
            if int(coeff):
                row[0 if not power else 1 if power == "y" else int(power[2:])] = int(coeff)
        rows.append(row)
    return rows


def chiy_rows(text: str, fmt: str) -> list[dict[int, int]]:
    """chiy output as a list over t^n of {y exponent: coefficient}."""
    if fmt == "json":
        return [
            {t["y"]: t["c"] for t in entry["terms"]}
            for entry in json.loads(text)["coefficients"]
        ]
    return _chiy_poly_rows(text)


def betti_rows(text: str, fmt: str) -> list[list[int]]:
    if fmt == "json":
        return [entry["b"] for entry in json.loads(text)["coefficients"]]
    return [[int(v) for v in line.partition(": ")[2].split()] for line in text.splitlines()]


def graded_dims(text: str, fmt: str, command: str) -> dict[int, int]:
    """``hh`` or ``deform`` output as {degree: dimension}."""
    if fmt == "json":
        key, field = ("i", "dim") if command == "hh" else ("q", "h")
        return {e[key]: e[field] for e in json.loads(text)["dims"]}
    sep = ": " if command == "hh" else "   "
    dims = {}
    for line in text.splitlines():
        head, found, value = line.partition(sep)
        if found and value.isdigit():  # skips deform's header and note lines
            dims[int(head.removeprefix("HH_"))] = int(value)
    return dims


# -- checks -------------------------------------------------------------------


def _first_diff(got: list, want: list, what: str) -> str | None:
    if len(got) != len(want):
        return f"{what}: {len(got)} t-orders, expected {len(want)}"
    for n, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"{what}: differs at t^{n}: got {g}, expected {w}"
    return None


def exact_check(expected: str) -> Check:
    """Byte-identical stdout."""

    def check(out: str) -> str | None:
        if out == expected:
            return None
        for i, (a, b) in enumerate(zip(out, expected)):
            if a != b:
                return f"output differs from the reference at byte {i}"
        return f"output length {len(out)} != reference length {len(expected)}"

    return check


def _specializations(layers: list, diamonds, trunc: int) -> str | None:
    """Compare sum h x^p y^q at x, y = +-1 per t-order; ``layers[n]`` holds (p, q, h)."""
    for sx, sy in ((-1, -1), (1, 1), (1, -1)):
        got = [sum(h * sx**p * sy**q for p, q, h in layer) for layer in layers]
        err = _first_diff(got, hilb_at(diamonds, sx, sy, trunc), f"x={sx}, y={sy}")
        if err:
            return err
    return None


def hilb_series_check(diamonds, trunc: int, small: dict[int, dict]) -> Check:
    """``hilb -N --format json``: x, y = +-1 specializations and small-n diamonds."""

    def check(out: str) -> str | None:
        coeffs = json.loads(out)["coefficients"]
        layers = [[(t["p"], t["q"], t["h"]) for t in c["terms"]] for c in coeffs]
        err = _specializations(layers, diamonds, trunc)
        if err:
            return err
        for n, want in small.items():
            if {(p, q): h for p, q, h in layers[n]} != want:
                return f"t^{n} differs from the partition route"
        return None

    return check


def diamond_series_check(diamonds, trunc: int, head: str) -> Check:
    """``hilb -N --format diamond``: small-n blocks exact, every block's specializations."""

    def check(out: str) -> str | None:
        if not out.startswith(head):
            return "small-n diamonds differ from the partition route"
        blocks: list[list[list[int]]] = []
        for line in out.splitlines():
            if line.startswith("t^"):
                blocks.append([])
            else:
                blocks[-1].append([int(v) for v in line.split()])
        layers = [
            [(p, s - p, h)  # row s lists h^{p, s-p} for p = max(0, s - 2n)..
             for s, row in enumerate(rows)
             for p, h in enumerate(row, start=max(0, s - 2 * n))]
            for n, rows in enumerate(blocks)
        ]
        return _specializations(layers, diamonds, trunc)

    return check


def chiy_check(diamonds, trunc: int, small: dict[int, dict], fmt: str) -> Check:
    """chi_y series: y = +-1 specializations and small-n rows from Hodge numbers."""

    def check(out: str) -> str | None:
        rows = chiy_rows(out, fmt)
        for sy, (hx, hy) in ((1, (-1, -1)), (-1, (1, -1))):
            got = [sum(c * sy**e for e, c in row.items()) for row in rows]
            err = _first_diff(got, hilb_at(diamonds, hx, hy, trunc), f"chi_y at y={sy}")
            if err:
                return err
        for n, hodge in small.items():
            want: dict[int, int] = {}
            for (p, q), h in hodge.items():
                want[p] = want.get(p, 0) + (-1) ** (p + q) * h
            if rows[n] != {e: c for e, c in want.items() if c}:
                return f"t^{n} differs from the Hodge numbers of the partition route"
        return None

    return check


def betti_check(betti, trunc: int, small: dict[int, list[int]], fmt: str) -> Check:
    """Betti numbers: x = +-1 specializations and small-n Hodge row sums."""

    def check(out: str) -> str | None:
        rows = betti_rows(out, fmt)
        for sx in (1, -1):
            got = [sum(b * sx**i for i, b in enumerate(row)) for row in rows]
            err = _first_diff(got, betti_at(betti, sx, trunc), f"betti at x={sx}")
            if err:
                return err
        for n, want in small.items():
            if rows[n] != want:
                return f"n={n} differs from the Hodge row sums of the partition route"
        return None

    return check


def dims_check(want: dict[int, int], fmt: str, command: str) -> Check:
    """``hh`` / ``deform``: the degrees in ``want`` match; ``hh`` has no others."""

    def check(out: str) -> str | None:
        got = graded_dims(out, fmt, command)
        if command == "hh" and set(got) - set(want):
            return f"unexpected degrees {sorted(set(got) - set(want))}"
        for degree, value in want.items():
            if got.get(degree, 0) != value:
                return f"degree {degree}: got {got.get(degree, 0)}, expected {value}"
        return None

    return check


def verify_check(out: str) -> str | None:
    lines = out.splitlines()
    if not lines or lines[-1] != "all checks passed":
        return "verify did not print 'all checks passed'"
    return None


def empty_check(out: str) -> str | None:
    return None if not out else "an error exit printed to stdout"
