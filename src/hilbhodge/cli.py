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

``verify`` is :func:`hilbhodge.verify.run`, whose module describes its output;
a main table that stops below N is exit 2 before any check.
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
import os
import sys
from collections.abc import Callable

from . import engine
from .engine import HodgePolynomial, InsufficientPowers
from .surfaces import (
    PRESET_NAMES,
    SurfaceDataError,
    SurfaceDataset,
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


def _series_yt_payload(layers: list[engine.GradedDims]) -> list[dict]:
    return [
        {"t": n, "terms": [{"y": e, "c": c} for e, c in sorted(layer.items())]}
        for n, layer in enumerate(layers)
    ]


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
    layers = engine.hilb_series(ds.table, args.N)
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
    llp = engine._nested_table(ds, args.n, "nested", InsufficientPowers)
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
    layers = route(ds.table, args.N)
    if args.format == "json":
        # no method field: the three routes must be byte-identical
        payload = {
            "N": args.N,
            "coefficients": _series_yt_payload(layers),
        }
        print(json.dumps(payload, indent=2))
    else:
        for entry in _series_yt_payload(layers):
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
    for n, layer in enumerate(engine.betti_series(ds.betti, args.N)):
        b = [layer.get(i, 0) for i in range(4 * n + 1)]
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
        raise SurfaceDataError("dataset carries no deformation block")
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


def _cmd_verify(args: argparse.Namespace) -> int:
    ds = _dataset(args, args.N)
    from . import verify  # loaded for this command only
    return verify.run(ds, args.N)


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
    except (OSError, ValueError, SurfaceDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
