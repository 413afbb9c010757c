"""The ``verify`` command: every two-route identity on one dataset.

:func:`run` prints one ``name: PASS``, ``SKIP (reason)`` or ``FAIL (reason)``
line per check, then ``all checks passed`` (exit 0) or the first failing
check (exit 3).  The shared series ``hilb_series(N)`` is expanded once, in
process, before the first check, as one ``HodgePolynomial`` per t-layer;
if it fails, or a layer is no table of dimensions, so does each check
that reads it.  A two-path FAIL names the first differing entry, the
Euler-product side first (``paths disagree at n=2, (p, q)=(2, 2): 232 != 233``),
or else the first n that one side lacks (``paths disagree at n=6: 7 layers != 6 layers``).
``euler-witness`` evaluates every shared layer mod 2^61 - 1 at five points
against :func:`_witness`, which runs no kernel of the program, and names the
layer and point that differ.  A SKIP names the input the dataset lacks.
``tests/test_cli.py::_KERNEL_FAULTS`` pins the checks each kernel reaches,
the README every reason.  The CLI imports this module for ``verify`` alone;
nothing here imports the CLI, which runs as ``__main__`` under ``python -m``
and would run a second time.
"""

from __future__ import annotations

from collections.abc import Callable

from . import engine
from .engine import EngineError, HodgePolynomial, InsufficientPowers
from .surfaces import SurfaceDataset, TwistedTable

__all__ = ["run"]


class _CheckFailed(Exception):
    pass


class _CheckSkipped(Exception):
    pass


def _compare_layers(got: list[dict], want: list[dict], name: str) -> None:
    """Fail at the first ``name`` (bidegree, degree or power) where two t-layer lists
    differ, else at the first n that the shorter list lacks."""
    for n, (a, b) in enumerate(zip(got, want)):
        if a != b:
            key = min(k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0))
            raise _CheckFailed(
                f"paths disagree at n={n}, {name}={key}: {a.get(key, 0)} != {b.get(key, 0)}"
            )
    if len(got) != len(want):
        raise _CheckFailed(
            f"paths disagree at n={min(len(got), len(want))}: "
            f"{len(got)} layers != {len(want)} layers"
        )


# the witness works mod P at five points (x0, y0): three sign points, two generic ones
_P = 2**61 - 1
_POINTS = ((1, 1), (1, _P - 1), (_P - 1, _P - 1),
           (1234567891011, 987654321987), (271828182845904, 314159265358979))


def _point_powers(N: int) -> list[tuple[list[int], ...]]:
    """x0^a and y0^a mod P for a = 0..2N, at each point."""
    return [tuple([pow(v, a, _P) for a in range(2 * N + 1)] for v in pt) for pt in _POINTS]


def _witness(table: TwistedTable, N: int) -> list[list[int]]:
    """Entry i: layers F_0..F_N of ``hilb_series`` at point i mod P, from the table alone.

    The h generators of level k at (p+k-1, q+k-1), s = -1 for odd p + q, add
    k h s^(r+1) z^r to D_{k r}, z = x0^(p+k-1) y0^(q+k-1): the exp form of
    their factor (1 - s z t^k)^(-s h).  Then n F_n = sum_{j=1..n} D_j F_{n-j}.
    """
    out = []
    for xs, ys in _point_powers(N):
        weighted = [0] * (N + 1)
        for k in range(1, N + 1):
            for (p, q), h in table.diamond(k).bigraded().items():
                s, z, zr = (-1) ** (p + q), xs[p + k - 1] * ys[q + k - 1] % _P, 1
                for r in range(1, N // k + 1):
                    zr = zr * z % _P
                    weighted[k * r] += k * h * s ** (r + 1) * zr
        layers = [1]
        for n in range(1, N + 1):
            acc = sum(weighted[j] * layers[n - j] for j in range(1, n + 1))
            layers.append(acc * pow(n, -1, _P) % _P)
        out.append(layers)
    return out


def _expand(table: TwistedTable, N: int) -> Callable[[], list[HodgePolynomial]]:
    """A call that returns the t-layers of ``engine.hilb_series(table, N)`` as polynomials.

    ``InsufficientPowers`` propagates at once.  Any other ``EngineError``, or
    the ``ValueError`` of a layer that is no table of dimensions (a negative
    entry, or one outside [0, 2n]^2), fails each check that reads the series.
    """
    try:
        layers = engine.hilb_series(table, N)
        shared = [HodgePolynomial(layer, 2 * n) for n, layer in enumerate(layers)]
    except InsufficientPowers:
        raise
    except (EngineError, ValueError) as exc:
        message = str(exc)

        def failed():
            raise _CheckFailed(message)
        return failed
    return lambda: shared


def _verify_checks(ds: SurfaceDataset, N: int, shared: Callable):
    """Checks in order: each computes its own side, then compares it with ``shared()``."""
    table = ds.table

    def product_vs_partition() -> None:
        strata = engine.hilb_strata(table, N)
        _compare_layers([dict(poly.items()) for poly in shared()], strata, "(p, q)")

    def chi_y_three_way() -> None:
        by_product = engine.chi_y_product(table, N)
        _compare_layers(by_product, engine.chi_y_exp(table, N), "y")
        by_hodge = engine.chi_y_from_hodge_series([dict(poly.items()) for poly in shared()])
        _compare_layers(by_product, by_hodge, "y")

    def frolicher() -> None:
        if not table.is_constant():
            raise _CheckSkipped("table is not a trivial-bundle table")
        betti = engine.betti_series(ds.betti, N)
        # b_i(Hilb^n) = sum_{p+q=i} h^{p,q}(Hilb^n), layer by layer
        sums = [poly.collapse_total_degree() for poly in shared()]
        _compare_layers([{i: b for i, b in enumerate(s) if b} for s in sums], betti, "i")

    def hochschild_two_path() -> None:
        want = engine.hh_rhs_series(table, N)
        _compare_layers([poly.collapse_hodge_degree() for poly in shared()], want, "i")

    def nested_two_path() -> None:
        depth = min(N, 4)
        llp = engine._nested_table(ds, depth, "the check", _CheckSkipped)
        _compare_layers(
            engine.nested_series(table, llp, depth),
            [dict(engine.nested_via_strata(table, llp, n).items()) for n in range(depth + 1)],
            "(p, q)",
        )

    def deformation_closed() -> None:
        if ds.deformation is None:
            raise _CheckSkipped("dataset carries no deformation block")
        if not ds.deformation.connected or ds.deformation.hO[0] != 1:
            raise _CheckSkipped("closed forms assume a connected surface")
        for n in range(3, max(3, N) + 1):
            dims = engine.deformation_dims(ds.deformation, n, 2)
            closed = engine.deformation_closed_forms(ds.deformation, n)
            if (dims[0], dims[1], dims[2]) != closed:
                raise _CheckFailed(f"n={n} dims {tuple(dims.values())} != closed {closed}")

    def deformation_omega_trivial() -> None:
        # a trivial-bundle table whose deformation block claims a trivial
        # canonical bundle (h^*(w2 T) = h^{0,*})
        din = ds.deformation
        if din is None or not table.is_constant() or din.hW2 != din.hO:
            raise _CheckSkipped("table does not describe a trivial canonical bundle")
        if N < 3:
            raise _CheckSkipped("needs N >= 3")
        # then h^q(Hilb^n, T) is the column p = 2n - 1 of the Hodge diamond
        for n in (2, 3):
            formula = engine.deformation_dims(din, n, 3)
            column = {q: shared()[n].entry(2 * n - 1, q) for q in range(4)}
            if formula != column:
                raise _CheckFailed(f"n={n}: formula {formula} != series column {column}")

    def euler_witness() -> None:
        witness, powers = _witness(table, N), _point_powers(N)
        for n, poly in enumerate(shared()):
            for i, (xs, ys) in enumerate(powers):
                value = sum(c * xs[p] * ys[q] for (p, q), c in poly.items()) % _P
                if value != witness[i][n]:
                    raise _CheckFailed(f"layer n={n} differs from the witness at point {i}")

    return [
        ("product-vs-partition", product_vs_partition),
        ("chi-y-three-way", chi_y_three_way),
        ("frolicher", frolicher),
        ("hochschild-two-path", hochschild_two_path),
        ("nested-two-path", nested_two_path),
        ("deformation-closed-forms", deformation_closed),
        ("deformation-omega-trivial", deformation_omega_trivial),
        ("euler-witness", euler_witness),
    ]


def _attempt(check: Callable[[], None]) -> str:
    """PASS, ``SKIP (reason)`` or ``FAIL (reason)``."""
    try:
        check()
    except _CheckSkipped as skip:
        return f"SKIP ({skip})"
    except (_CheckFailed, EngineError) as exc:
        return f"FAIL ({exc})"
    return "PASS"


def run(ds: SurfaceDataset, N: int) -> int:
    """Run every check up to order N; ``InsufficientPowers`` if the main table stops short.

    The shared series is expanded once, in process, before the first check,
    so a short main table raises before any output.  The CLI rejects such a
    table itself, naming ``diamonds``, before it calls this.
    """
    shared = _expand(ds.table, N)
    failures: list[str] = []
    for name, check in _verify_checks(ds, N, shared):
        status = _attempt(check)
        print(f"{name}: {status}")
        if status.startswith("FAIL"):
            failures.append(name)
    if failures:
        print(f"verification FAILED; first failing check: {failures[0]}")
        return 3
    print("all checks passed")
    return 0
