"""Command-line frontend: dataset ingestion, formula selection, rendering.

Subcommands::

    hilb    twisted Hodge numbers of Hilb^n S (one n, or the whole series)
    sym     symmetric-power table Sym^a of the k-th twisted diamond
    nested  twisted Hodge numbers of the nested space Hilb^{n,n+1} S
    chiy    refined chi_y genera (three interchangeable methods)
    betti   Betti numbers of Hilb^n S
    hh      Hochschild homology dimensions of (Hilb^n S, L_n)
    deform  tangent/obstruction dimensions h^q(Hilb^n S, T)
    verify  self-validation: every two-path identity on the given data

A failing ``verify`` check prints ``FAIL (reason)``; when the two sides
of product-vs-partition, chi-y-three-way, frolicher, hochschild-two-path
or nested-two-path differ, the reason names the first differing entry,
the Euler-product side first (for frolicher and hochschild-two-path, the
side read from the main Hodge series; chi-y-three-way compares
chi_y_product with the exp route, then with the Hodge specialisation):
``paths disagree at n=2, (p, q)=(2, 2): 232 != 233`` (``i=...`` for a
Betti or Hochschild degree, ``y=...`` for a chi_y power).  oracle-suite checks
the symmetric powers of the k=1 diamond against brute-force enumeration
on a sub-diamond that keeps every nonzero bidegree and at most 12
generators in all.
A ``verify`` check whose input the dataset does not carry reports
``SKIP (reason)`` and the other checks still run; among the reasons are a
missing deformation block, a twisted table where a check needs the trivial
bundle, N < 3 for deformation-omega-trivial, and a ``nested_diamonds``
shorter than min(N, 4) + 1 entries for nested-two-path (the reason names
the missing power).  A main table that stops below N is exit 2 before any
check.  ``verify`` expands the shared ``hilb_series(N)`` in a forked child
while it computes the other sides; a failure there fails each check that
reads that series.  Without ``os.fork`` it runs in process, same output.
An ``--input`` dataset that declares ``kahler_symmetric`` but has an
asymmetric diamond prints ``warning: ...`` to stderr; stdout and the exit
code are those of the same dataset without the flag.

``build_parser`` declares every subcommand in one table: its dataset
flags, order flags, further options, and ``--format`` choices and default.

Exit codes: 0 success, 1 parse/validation errors (a missing or unreadable
``--input`` file is one, as is one that is not UTF-8 text, and the message
names the flag; a bad value names its field, as ``diamonds[1]: ...``),
2 insufficient twisted powers in the table (a short ``nested_diamonds``
is named), 3 a verify check failed, 141 the reader closed stdout before
the output ended (128 + SIGPIPE, as a shell reports for a process that a
closed pipe stopped); nothing is printed to stderr then.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import sys
from collections.abc import Callable

from . import engine
from .engine import EngineError, HodgePolynomial, InsufficientPowers
from .oracles import naive_mul, super_sym_multiset
from .series import SeriesError, TriSeries
from .surfaces import (
    PRESET_NAMES,
    SurfaceDataError,
    SurfaceDataset,
    SurfaceDiamond,
    TwistedTable,
    load_dataset,
    preset,
    validate,
)

__all__ = ["main", "render_diamond", "render_json", "render_latex", "render_poly"]


# -- rendering ----------------------------------------------------------------


def render_diamond(poly: HodgePolynomial) -> str:
    """Centered diamond; row s lists h^{p, s-p} with p increasing."""
    rows = poly.rows()
    width = max((len(str(v)) for row in rows for v in row), default=1)
    pitch = width + 1
    total = (2 * poly.space_dim + 1) * pitch - 1
    lines = []
    for row in rows:
        text = " ".join(str(v).rjust(width) for v in row)
        lines.append(text.center(total).rstrip())
    return "\n".join(lines)


def render_latex(poly: HodgePolynomial) -> str:
    """Diamond as a LaTeX smallmatrix, one grid column between entries."""
    d = poly.space_dim
    width = 2 * d + 1
    lines = [r"\begin{smallmatrix}"]
    for s, row in enumerate(poly.rows()):
        cells = [""] * width
        col = abs(d - s)
        for i, value in enumerate(row):
            cells[col + 2 * i] = f" {value} "
        lines.append("&".join(cells).rstrip() + r" \\")
    lines.append(r"\end{smallmatrix}")
    return "\n".join(lines)


def render_json(poly: HodgePolynomial, n: int) -> str:
    """The stable JSON shape: terms sorted by (p + q, p)."""
    payload = {
        "n": n,
        "space_dim": poly.space_dim,
        "terms": [
            {"p": p, "q": q, "h": h} for (p, q), h in poly.sorted_terms()
        ],
    }
    return json.dumps(payload, indent=2)


def render_poly(poly: HodgePolynomial) -> str:
    return str(poly)


_RENDERERS: dict[str, Callable[[HodgePolynomial, int], str]] = {
    "diamond": lambda poly, n: render_diamond(poly),
    "latex": lambda poly, n: render_latex(poly),
    "json": render_json,
    "poly": lambda poly, n: render_poly(poly),
}


def _render(poly: HodgePolynomial, n: int, fmt: str) -> str:
    return _RENDERERS[fmt](poly, n)


def _series_yt_payload(series: TriSeries) -> list[dict]:
    out = []
    for n, layer in enumerate(series.layers()):
        terms = [
            {"y": ey, "c": int(c)}
            for (_, ey), c in sorted(layer.items(), key=lambda kv: kv[0][1])
        ]
        out.append({"t": n, "terms": terms})
    return out


# -- dataset loading ----------------------------------------------------------


def _dataset(args: argparse.Namespace, needed_power: int) -> SurfaceDataset:
    if args.preset:
        return preset(args.preset, max_power=max(needed_power, 0))
    try:
        ds = load_dataset(args.input)
    except OSError as exc:
        raise SurfaceDataError(f"--input {args.input}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise SurfaceDataError(
            f"--input {args.input}: not valid UTF-8 text "
            f"({exc.reason} at byte {exc.start})"
        ) from None
    for warning in validate(ds):
        print(f"warning: {warning}", file=sys.stderr)
    return ds


# -- command handlers ----------------------------------------------------------


def _cmd_hilb(args: argparse.Namespace) -> int:
    # -n prints a diamond by default, -N the whole series as JSON
    fmt = args.format or ("diamond" if args.n is not None else "json")
    if args.n is not None:
        ds = _dataset(args, args.n)
        poly = engine.hilb_coefficient(ds.table, args.n)
        print(_render(poly, args.n, fmt))
        return 0
    ds = _dataset(args, args.N)
    layers = engine.hilb_series(ds.table, args.N).layers()
    if fmt == "json":
        payload = {
            "N": args.N,
            "coefficients": [
                json.loads(render_json(HodgePolynomial(layer, 2 * n), n))
                for n, layer in enumerate(layers)
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for n, layer in enumerate(layers):
            poly = HodgePolynomial(layer, 2 * n)
            print(f"t^{n}:")
            print(_render(poly, n, fmt))
    return 0


def _cmd_sym(args: argparse.Namespace) -> int:
    ds = _dataset(args, args.k)
    if args.k > ds.table.max_power:
        raise InsufficientPowers(
            f"sym needs the k={args.k} diamond; the table stops at K={ds.table.max_power}"
        )
    poly = engine.sym_power_twisted_hodge(ds.table.diamond(args.k), args.a)
    print(_render(poly, args.a, args.format))
    return 0


def _cmd_nested(args: argparse.Namespace) -> int:
    ds = _dataset(args, args.n)
    llp = _nested_table(ds, args.n, "nested", InsufficientPowers)
    poly = engine.nested_coefficient(ds.table, llp, args.n)
    print(_render(poly, args.n, args.format))
    return 0


def _cmd_chiy(args: argparse.Namespace) -> int:
    ds = _dataset(args, args.N)
    route = {
        "product": engine.chi_y_product,
        "exp": engine.chi_y_exp,
        "hodge": engine.chi_y_from_hodge,
    }[args.method]
    series = route(ds.table, args.N)
    if args.format == "json":
        # no method field: the three routes must be byte-identical
        payload = {
            "N": args.N,
            "coefficients": _series_yt_payload(series),
        }
        print(json.dumps(payload, indent=2))
    else:
        for entry in _series_yt_payload(series):
            pieces = []
            for t in entry["terms"]:
                if not t["y"]:
                    pieces.append(str(t["c"]))
                else:
                    power = "y" if t["y"] == 1 else f"y^{t['y']}"
                    pieces.append(power if t["c"] == 1 else f"{t['c']}*{power}")
            print(f"t^{entry['t']}: {' + '.join(pieces) or '0'}")
    return 0


def _cmd_betti(args: argparse.Namespace) -> int:
    ds = _dataset(args, args.N)
    rows = []
    for n, layer in enumerate(engine.betti_series(ds.betti, args.N).layers()):
        b = [int(layer.get((i, 0), 0)) for i in range(4 * n + 1)]
        rows.append({"t": n, "b": b})
    if args.format == "json":
        print(json.dumps({"N": args.N, "coefficients": rows}, indent=2))
    else:
        for row in rows:
            print(f"n={row['t']}: {' '.join(map(str, row['b']))}")
    return 0


def _cmd_hh(args: argparse.Namespace) -> int:
    ds = _dataset(args, args.n)
    dims = engine.hh_dims(ds.table, args.n)
    entries = [{"i": i, "dim": dims[i]} for i in sorted(dims)]
    if args.format == "json":
        print(json.dumps({"n": args.n, "dims": entries}, indent=2))
    else:
        for entry in entries:
            print(f"HH_{entry['i']}: {entry['dim']}")
    return 0


def _cmd_deform(args: argparse.Namespace) -> int:
    ds = _dataset(args, max(args.n, 1))
    if ds.deformation is None:
        print("error: dataset carries no deformation block", file=sys.stderr)
        return 1
    dims = engine.deformation_dims(ds.deformation, args.n, args.qmax)
    if args.format == "json":
        payload = {
            "n": args.n,
            "dims": [{"q": q, "h": dims[q]} for q in sorted(dims)],
        }
        print(json.dumps(payload, indent=2))
    else:
        print("q   h^q(Hilb^n S, T)")
        for q in sorted(dims):
            print(f"{q}   {dims[q]}")
        if args.qmax >= 3:
            print(
                "note: values for q >= 3 expand the invariant tangent cohomology "
                "of S^n by symmetric powers (derived convention)"
            )
    return 0


class _CheckFailed(Exception):
    pass


class _CheckSkipped(Exception):
    pass


def _compare_layers(got: list[dict], want: list[dict], name: str) -> None:
    """Fail at the first ``name`` (bidegree, degree or power) where two t-layer lists differ."""
    for n, (a, b) in enumerate(zip(got, want)):
        if a != b:
            key = min(k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0))
            raise _CheckFailed(
                f"paths disagree at n={n}, {name}={key}: {a.get(key, 0)} != {b.get(key, 0)}"
            )


def _axis_layers(series: TriSeries, axis: int) -> list[dict[int, int]]:
    """The t-layers of a series in (x, t) (axis 0) or (y, t) (axis 1), keyed by that power."""
    return [{key[axis]: c for key, c in layer.items()} for layer in series.layers()]


def _nested_table(ds: SurfaceDataset, needed: int, who: str, error: type) -> TwistedTable:
    """The L^j x L' table, or ``error`` if ``nested_diamonds`` stops below ``needed``."""
    llp = ds.nested_or_main()
    if llp.max_power < needed <= ds.table.max_power:  # a short main table is the engine's
        raise error(
            f"nested_diamonds stops at K={llp.max_power}, {who} needs "
            f"every k <= {needed}: k={llp.max_power + 1} is missing"
        )
    return llp


def _start_series(table: TwistedTable, N: int) -> Callable[[], TriSeries | EngineError]:
    """Expand ``engine.hilb_series(table, N)`` in a forked child; return its receiver.

    The child pipes the terms, or its exception's message, with ``marshal``
    and leaves by ``os._exit``, so it never returns into its caller's frames
    or flushes an inherited stdio buffer.  The receiver reads the pipe to its
    end, reaps the child and returns the series, or an ``EngineError`` with
    the child's message or exit status.  Without ``os.fork`` it runs in process.
    """

    def payload() -> bytes:
        try:
            return marshal.dumps(engine.hilb_series(table, N)._terms)
        except Exception as exc:  # the receiver returns it as an EngineError
            return marshal.dumps(str(exc))

    def decode(data: bytes, code: int) -> TriSeries | EngineError:
        if code:
            return EngineError(f"hilb_series ended without a result (exit status {code})")
        terms = marshal.loads(data)
        return EngineError(terms) if isinstance(terms, str) else TriSeries._make(terms, N)

    if not hasattr(os, "fork"):
        return lambda: decode(payload(), 0)
    fd, write_fd = os.pipe()
    pid = os.fork()
    if not pid:
        try:
            with open(write_fd, "wb") as pipe:
                pipe.write(payload())
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)

    def receive() -> TriSeries | EngineError:
        with open(fd, "rb") as pipe:
            data = pipe.read()
        return decode(data, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))

    return receive


def _verify_checks(ds: SurfaceDataset, N: int):
    """Checks in order: each computes its side, then returns None or its comparison."""
    table = ds.table

    def product_vs_partition():
        strata = [dict(poly.items()) for poly in engine.hilb_strata(table, N)]
        return lambda series, layers: _compare_layers(
            [dict(poly.items()) for poly in layers], strata, "(p, q)"
        )

    def chi_y_three_way():
        by_product = _axis_layers(engine.chi_y_product(table, N), 1)
        _compare_layers(by_product, _axis_layers(engine.chi_y_exp(table, N), 1), "y")
        return lambda series, layers: _compare_layers(
            by_product, _axis_layers(engine.chi_y_from_hodge_series(series), 1), "y"
        )

    def frolicher():
        if not table.is_constant():
            raise _CheckSkipped("table is not a trivial-bundle table")
        betti = _axis_layers(engine.betti_series(ds.betti, N), 0)
        # b_i(Hilb^n) = sum_{p+q=i} h^{p,q}(Hilb^n), layer by layer
        return lambda series, layers: _compare_layers(
            [{i: b for i, b in enumerate(poly.collapse_total_degree()) if b} for poly in layers],
            betti,
            "i",
        )

    def hochschild_two_path():
        rhs = engine.hh_rhs_series(table, N)
        want = [engine.hh_from_rhs(rhs, n) for n in range(N + 1)]
        return lambda series, layers: _compare_layers(
            [poly.collapse_hodge_degree() for poly in layers], want, "i"
        )

    def nested_two_path() -> None:
        depth = min(N, 4)
        llp = _nested_table(ds, depth, "the check", _CheckSkipped)
        _compare_layers(
            engine.nested_series(table, llp, depth).layers(),
            [dict(engine.nested_via_strata(table, llp, n).items()) for n in range(depth + 1)],
            "(p, q)",
        )

    def deformation_closed() -> None:
        if ds.deformation is None:
            raise _CheckSkipped("dataset carries no deformation block")
        if not ds.deformation.connected or ds.deformation.hO[0] != 1:
            raise _CheckSkipped("closed forms assume a connected surface")
        dims = engine.deformation_dims(ds.deformation, 3, 2)
        closed = engine.deformation_closed_forms(ds.deformation, 3)
        if (dims[0], dims[1], dims[2]) != closed:
            raise _CheckFailed(f"n=3 dims {tuple(dims.values())} != closed {closed}")

    def deformation_omega_trivial():
        # a trivial-bundle table whose deformation block claims a trivial
        # canonical bundle (h^*(w2 T) = h^{0,*})
        din = ds.deformation
        if din is None or not table.is_constant() or din.hW2 != din.hO:
            raise _CheckSkipped("table does not describe a trivial canonical bundle")
        if N < 3:
            raise _CheckSkipped("needs N >= 3")
        formulas = {n: engine.deformation_dims(din, n, 3) for n in (2, 3)}

        def compare(series: TriSeries, layers: list[HodgePolynomial]) -> None:
            for n, formula in formulas.items():
                column = engine.tangent_dims_from_layer(layers[n], 3)
                if formula != column:
                    raise _CheckFailed(f"n={n}: formula {formula} != series column {column}")
        return compare

    def oracle_suite() -> None:
        a = engine.hilb_series(table, min(N, 3))
        if naive_mul(a, a) != a * a:
            raise _CheckFailed("naive multiplication oracle disagrees")
        # the k=1 diamond with every nonzero bidegree kept and at most 12
        # generators in all (the enumeration guard of super_sym_multiset):
        # one per bidegree, then the rest in (p, q) order
        full = table.diamond(min(1, table.max_power)).bigraded()
        dims = dict.fromkeys(full, 1)
        spare = 12 - len(dims)
        for pq, v in sorted(full.items()):
            extra = min(v - 1, spare)
            dims[pq] += extra
            spare -= extra
        capped = SurfaceDiamond([[dims.get((p, q), 0) for q in range(3)] for p in range(3)])
        for n in range(4):
            sym = engine.sym_power_twisted_hodge(capped, n)
            if dict(sym.items()) != super_sym_multiset(dims, n):
                raise _CheckFailed(f"symmetric-power oracle disagrees at n={n}")

    return [
        ("product-vs-partition", product_vs_partition),
        ("chi-y-three-way", chi_y_three_way),
        ("frolicher", frolicher),
        ("hochschild-two-path", hochschild_two_path),
        ("nested-two-path", nested_two_path),
        ("deformation-closed-forms", deformation_closed),
        ("deformation-omega-trivial", deformation_omega_trivial),
        ("oracle-suite", oracle_suite),
    ]


def _attempt(step: Callable, *args) -> tuple[str, Callable | None]:
    """PASS, ``SKIP (reason)`` or ``FAIL (reason)``, and what ``step`` returned."""
    try:
        result = step(*args)
    except _CheckSkipped as skip:
        return f"SKIP ({skip})", None
    except InsufficientPowers:
        raise
    except (_CheckFailed, EngineError) as exc:
        return f"FAIL ({exc})", None
    return "PASS", result


def _cmd_verify(args: argparse.Namespace) -> int:
    ds = _dataset(args, args.N)
    engine._require_powers(ds.table, args.N, "hilb_series")
    receive = _start_series(ds.table, args.N)
    try:
        # each check's own side, while the child expands the shared series
        steps = [(name, _attempt(check)) for name, check in _verify_checks(ds, args.N)]
    finally:
        shared = receive()  # reads the pipe to its end and reaps the child
    failed = isinstance(shared, EngineError)
    if not failed:
        layers = [HodgePolynomial(layer, 2 * n) for n, layer in enumerate(shared.layers())]
    failures: list[str] = []
    for name, (status, compare) in steps:
        if compare is not None:
            status = f"FAIL ({shared})" if failed else _attempt(compare, shared, layers)[0]
        print(f"{name}: {status}")
        if status.startswith("FAIL"):
            failures.append(name)
    if failures:
        print(f"verification FAILED; first failing check: {failures[0]}")
        return 3
    print("all checks passed")
    return 0


# -- argument parsing -----------------------------------------------------------


def _nonnegative_int(text: str) -> int:
    """argparse type of the orders and powers: a nonnegative int."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    # reserve exit code 2 for InsufficientPowers; argument errors are exit 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hilbhodge",
        description=(
            "Exact twisted Hodge numbers, Hodge diamonds, chi_y genera, Betti "
            "numbers, Hochschild homology and deformation dimensions of "
            "Hilbert schemes of points on a compact complex surface."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    diamond = ("diamond", "latex", "json", "poly")
    text = ("json", "text")
    # name, help, handler; the order flags and their help (hilb takes exactly
    # one of its two, every other command its one); further options; the
    # --format choices and default (hilb's default follows -n or -N, so its
    # handler picks it; verify has no --format)
    for name, summary, func, orders, options, formats, default in (
        ("hilb", "twisted Hodge numbers of Hilb^n S", _cmd_hilb,
         {"-n": "single Hilbert scheme index", "-N": "series truncation order"},
         {}, diamond, None),
        ("sym", "symmetric-power table Sym^a of a diamond", _cmd_sym,
         {"-a": "symmetric power"},
         {"-k": dict(type=_nonnegative_int, default=1, help="bundle power (default 1)")},
         diamond, "diamond"),
        ("nested", "twisted Hodge numbers of Hilb^{n,n+1} S", _cmd_nested,
         {"-n": None}, {}, diamond, "diamond"),
        ("chiy", "refined chi_y genera", _cmd_chiy,
         {"-N": None},
         {"--method": dict(choices=("product", "exp", "hodge"), default="product")},
         ("json", "poly"), "json"),
        ("betti", "Betti numbers of Hilb^n S", _cmd_betti,
         {"-N": None}, {}, text, "json"),
        ("hh", "Hochschild homology dimensions", _cmd_hh,
         {"-n": None}, {}, text, "json"),
        ("deform", "tangent cohomology of Hilb^n S", _cmd_deform,
         {"-n": None}, {"--qmax": dict(type=_nonnegative_int, default=3)}, text, "text"),
        ("verify", "run every self-validation check", _cmd_verify,
         {"-N": None}, {}, (), None),
    ):
        p = sub.add_parser(name, help=summary)
        data = p.add_mutually_exclusive_group(required=True)
        data.add_argument(
            "--preset", choices=PRESET_NAMES, help="built-in trivial-bundle surface"
        )
        data.add_argument(
            "--input", metavar="FILE", help="JSON dataset file (see README schema)"
        )
        single = len(orders) == 1
        order = p if single else p.add_mutually_exclusive_group(required=True)
        for flag, flag_help in orders.items():
            order.add_argument(flag, type=_nonnegative_int, required=single, help=flag_help)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        if formats:
            p.add_argument("--format", choices=formats, default=default)
        p.set_defaults(func=func)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that went away fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (``| head``): stop quietly, and point stdout
        # at the null device so the interpreter's own flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except InsufficientPowers as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SurfaceDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, SeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
