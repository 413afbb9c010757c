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

``build_parser`` declares every subcommand in one table: its dataset
flags, order flags, the flags that bound the twists k it reads, further
options, and ``--format`` choices and default.  :func:`main` loads the
dataset once, to that bound, and prints once.  A handler ``(args, ds)``
only computes, and returns one of: a ``(HodgePolynomial, n)`` pair, one
space that ``main`` renders in ``--format``; a ``(payload, lines)`` pair,
printed as one JSON document for ``--format json`` and otherwise line by
line as ``lines`` yields them; or ``verify``'s exit code, from
:func:`hilbhodge.verify.run`, whose module describes its output.
An ``--input`` dataset that declares ``kahler_symmetric`` but has an
asymmetric diamond prints ``warning: ...`` to stderr; stdout and the exit
code are those of the same dataset without the flag.

Exit codes: 0 success, 1 parse/validation errors (a missing or unreadable
``--input`` file is one, as is one that is not UTF-8 text, and the message
names the flag; a bad value names its field, as ``diamonds[1]: ...``),
2 insufficient twisted powers in the table, named by its field before the
command runs (``diamonds stops at K=12, chiy needs every k <= 13: k=13 is
missing``; a short ``nested_diamonds`` the same way), 3 a verify check
failed, 141 the reader closed stdout before the output ended (128 +
SIGPIPE, as a shell reports for a process that a closed pipe stopped);
nothing is printed to stderr then.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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


def _render(poly: HodgePolynomial, n: int, fmt: str) -> str:
    if fmt == "json":
        return render_json(poly, n)
    return {"diamond": render_diamond, "latex": render_latex, "poly": render_poly}[fmt](poly)


def _series_yt_payload(layers: list[engine.GradedDims]) -> list[dict]:
    return [
        {"t": n, "terms": [{"y": e, "c": c} for e, c in sorted(layer.items())]}
        for n, layer in enumerate(layers)
    ]


def _y_term(y: int, c: int) -> str:
    if not y:
        return str(c)
    power = "y" if y == 1 else f"y^{y}"
    return power if c == 1 else f"{c}*{power}"


# -- dataset loading ----------------------------------------------------------


def _dataset(args: argparse.Namespace) -> SurfaceDataset:
    """The dataset, to the twist k that ``args.need`` bounds; shorter ``diamonds`` are exit 2."""
    need = max((getattr(args, dest) or 0 for dest in args.need), default=0)
    if args.preset:
        return preset(args.preset, max_power=need)
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
    K = ds.table.max_power
    if K < need:
        raise InsufficientPowers(
            f"diamonds stops at K={K}, {args.command} needs every k <= {need}: "
            f"k={K + 1} is missing"
        )
    return ds


# -- command handlers: each computes, and main prints --------------------------


def _cmd_hilb(args: argparse.Namespace, ds: SurfaceDataset) -> tuple:
    if args.n is not None:
        return engine.hilb_coefficient(ds.table, args.n), args.n
    polys = (
        (n, HodgePolynomial(layer, 2 * n))
        for n, layer in enumerate(engine.hilb_series(ds.table, args.N))
    )
    if args.format not in (None, "json"):
        return None, (
            line for n, poly in polys for line in (f"t^{n}:", _render(poly, n, args.format))
        )
    coefficients = [json.loads(render_json(poly, n)) for n, poly in polys]
    return {"N": args.N, "coefficients": coefficients}, ()


def _cmd_sym(args: argparse.Namespace, ds: SurfaceDataset) -> tuple:
    return engine.sym_power_twisted_hodge(ds.table.diamond(args.k), args.a), args.a


def _cmd_nested(args: argparse.Namespace, ds: SurfaceDataset) -> tuple:
    llp = engine._nested_table(ds, args.n, "nested", InsufficientPowers)
    return engine.nested_coefficient(ds.table, llp, args.n), args.n


def _cmd_chiy(args: argparse.Namespace, ds: SurfaceDataset) -> tuple:
    route = {
        "product": engine.chi_y_product,
        "exp": engine.chi_y_exp,
        "hodge": engine.chi_y_from_hodge,
    }[args.method]
    entries = _series_yt_payload(route(ds.table, args.N))
    # no method field: the three routes must be byte-identical
    return {"N": args.N, "coefficients": entries}, (
        f"t^{e['t']}: {' + '.join(_y_term(t['y'], t['c']) for t in e['terms']) or '0'}"
        for e in entries
    )


def _cmd_betti(args: argparse.Namespace, ds: SurfaceDataset) -> tuple:
    rows = [
        {"t": n, "b": [layer.get(i, 0) for i in range(4 * n + 1)]}
        for n, layer in enumerate(engine.betti_series(ds.betti, args.N))
    ]
    return {"N": args.N, "coefficients": rows}, (
        f"n={row['t']}: {' '.join(map(str, row['b']))}" for row in rows
    )


def _cmd_hh(args: argparse.Namespace, ds: SurfaceDataset) -> tuple:
    dims = engine.hh_dims(ds.table, args.n)
    entries = [{"i": i, "dim": dims[i]} for i in sorted(dims)]
    return {"n": args.n, "dims": entries}, (f"HH_{e['i']}: {e['dim']}" for e in entries)


def _cmd_deform(args: argparse.Namespace, ds: SurfaceDataset) -> tuple:
    if ds.deformation is None:
        raise SurfaceDataError("dataset carries no deformation block")
    dims = engine.deformation_dims(ds.deformation, args.n, args.qmax)
    lines = ["q   h^q(Hilb^n S, T)", *(f"{q}   {dims[q]}" for q in sorted(dims))]
    if args.qmax >= 3:
        lines.append(
            "note: values for q >= 3 expand the invariant tangent cohomology "
            "of S^n by symmetric powers (derived convention)"
        )
    return {"n": args.n, "dims": [{"q": q, "h": dims[q]} for q in sorted(dims)]}, lines


def _cmd_verify(args: argparse.Namespace, ds: SurfaceDataset) -> int:
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
    # one of its two, every other command its one); the flag giving the highest
    # twist k the command reads, which main loads and checks (betti reads k = 0
    # alone, deform no table); further options; the --format choices and
    # default (hilb's follows -n or -N, in main; verify has no --format)
    for name, summary, func, orders, need, options, formats, default in (
        ("hilb", "twisted Hodge numbers of Hilb^n S", _cmd_hilb,
         {"-n": "single Hilbert scheme index", "-N": "series truncation order"},
         ("-n", "-N"), {}, diamond, None),
        ("sym", "symmetric-power table Sym^a of a diamond", _cmd_sym,
         {"-a": "symmetric power"}, ("-k",),
         {"-k": dict(type=_nonnegative_int, default=1, help="bundle power (default 1)")},
         diamond, "diamond"),
        ("nested", "twisted Hodge numbers of Hilb^{n,n+1} S", _cmd_nested,
         {"-n": None}, ("-n",), {}, diamond, "diamond"),
        ("chiy", "refined chi_y genera", _cmd_chiy,
         {"-N": None}, ("-N",),
         {"--method": dict(choices=("product", "exp", "hodge"), default="product")},
         ("json", "poly"), "json"),
        ("betti", "Betti numbers of Hilb^n S", _cmd_betti,
         {"-N": None}, (), {}, text, "json"),
        ("hh", "Hochschild homology dimensions", _cmd_hh,
         {"-n": None}, ("-n",), {}, text, "json"),
        ("deform", "tangent cohomology of Hilb^n S", _cmd_deform,
         {"-n": None}, (), {"--qmax": dict(type=_nonnegative_int, default=3)}, text, "text"),
        ("verify", "run every self-validation check", _cmd_verify,
         {"-N": None}, ("-N",), {}, (), None),
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
        p.set_defaults(func=func, need=[flag.lstrip("-") for flag in need])

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.func(args, _dataset(args))
        if isinstance(result, tuple):
            head, tail = result
            if isinstance(head, HodgePolynomial):  # one space and its n
                tail = [_render(head, tail, args.format or "diamond")]
            elif (args.format or "json") == "json":  # a payload and its text lines
                tail = [json.dumps(head, indent=2)]
            for line in tail:
                print(line)
            result = 0
        sys.stdout.flush()  # a reader that went away fails here, not at exit
        return result
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
