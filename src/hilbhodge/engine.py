"""Closed formulas for Hodge-theoretic invariants of Hilbert schemes of points.

Everything here is a pure function from a twisted Hodge table of a
surface (the family ``h^{p,q}(S, L^k)``) to graded dimensions of the
associated Hilbert schemes ``Hilb^n S`` carrying the naturally induced
line bundle.  Each quantity is computable along two independent routes:

* a multiplicative route, an Euler product expanded into t-layers
  (this module);
* an additive route, a sum over integer partitions of super symmetric
  powers of the surface table (:mod:`hilbhodge.strata`, whose names
  resolve here too and load that module on first use).

The two routes must agree exactly; ``verify`` (:mod:`hilbhodge.verify`)
and the test suite exercise that agreement on arbitrary tables.

The Euler side has two kernels, :func:`_super_product` (binomial factors
multiplied in its private ring, :class:`~hilbhodge.series.TriSeries`) and
:func:`_exp_layers` (the exp recurrence that :func:`_exp_product` feeds).
Every series function returns a list of t-layers, ``{(p, q): coeff}`` dicts
or one-variable ``{power: coeff}`` ones, and one space comes as a
:class:`HodgePolynomial`; on either route each of them raises ``ValueError``
on a negative order (:func:`_require_powers`).  The two sides of a ``verify``
identity never run through the same kernel unless a third check covers that
kernel.  Which checks fail when a single kernel is wrong (the two Euler
kernels, ``TriSeries.__mul__``, the strata kernels, ``verify``'s own Euler
witness) is pinned in ``tests/test_cli.py::_KERNEL_FAULTS``; that table is the
route map.  The Euler side imports nothing from :mod:`hilbhodge.strata` (a test
checks that the four Euler builders leave it unloaded), so
product-vs-partition compares two kernels that share no code.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping

from .series import TriSeries
from .surfaces import SurfaceDataset, TwistedTable

GradedDims = dict[int, int]
# (e_x, e_y, odd, h): h generators of bidegree (e_x, e_y); odd is 1 or 0
_SuperGenerator = tuple[int, int, int, int]
# (e, odd, h): h generators of degree e in one variable
_Generator = tuple[int, int, int]

# the strata route lives in hilbhodge.strata, loaded on first use (PEP 562)
_STRATA_NAMES = frozenset((
    "deformation_closed_forms", "deformation_dims", "hilb_strata", "hilb_via_partitions",
    "nested_via_strata", "sym_power_twisted_hodge",
))

__all__ = sorted((
    "EngineError", "GradedDims", "HodgePolynomial", "InsufficientPowers",
    "IntegralityFailure", "betti_series", "chi_y_exp", "chi_y_from_hodge",
    "chi_y_from_hodge_series", "chi_y_product", "hh_dims", "hh_rhs_series",
    "hilb_coefficient", "hilb_series", "nested_coefficient", "nested_series",
    *_STRATA_NAMES,
))


def __getattr__(name: str):
    if name in _STRATA_NAMES:
        from . import strata
        return getattr(strata, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class EngineError(Exception):
    """Base class for computation errors."""


class InsufficientPowers(EngineError):
    """The twisted table does not reach the power of L the formula needs."""


class IntegralityFailure(EngineError):
    """The exp route (chi_y and HH) divided by n with a remainder (an internal bug)."""


def _require_powers(table: TwistedTable, needed: int, operation: str) -> None:
    if needed < 0:
        raise ValueError(f"{operation} needs a nonnegative order, got {needed}")
    if table.max_power < needed:
        raise InsufficientPowers(
            f"{operation} needs h^(p,q)(S, L^k) for every k <= {needed}, but the "
            f"table stops at K={table.max_power}: k={table.max_power + 1} is missing"
        )


def _nested_table(ds: SurfaceDataset, needed: int, who: str, error: type) -> TwistedTable:
    """The L^j x L' table, or ``error`` if ``nested_diamonds`` stops below ``needed``.

    Callers reject a main table that stops below ``needed`` first.
    """
    llp = ds.nested_or_main()
    if llp.max_power < needed:
        raise error(
            f"nested_diamonds stops at K={llp.max_power}, {who} needs "
            f"every k <= {needed}: k={llp.max_power + 1} is missing"
        )
    return llp


def _exact(value: int) -> None:
    """Reject a coefficient that is not an int; a bool is not one here."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"coefficients must be int, got {type(value).__name__}")


class HodgePolynomial:
    """Twisted Hodge numbers of one fixed space: a finite (p, q) -> dim map."""

    __slots__ = ("_terms", "space_dim")

    def __init__(self, terms: Mapping[tuple[int, int], int], space_dim: int):
        if space_dim < 0:
            raise ValueError("space_dim must be nonnegative")
        clean: dict[tuple[int, int], int] = {}
        for (p, q), value in terms.items():
            _exact(value)
            if value == 0:
                continue
            if value < 0:
                raise ValueError(f"negative dimension {value} at (p, q)=({p}, {q})")
            if not (0 <= p <= space_dim and 0 <= q <= space_dim):
                raise ValueError(
                    f"(p, q)=({p}, {q}) outside [0, {space_dim}]^2"
                )
            clean[(p, q)] = value
        self._terms = clean
        self.space_dim = space_dim

    def entry(self, p: int, q: int) -> int:
        return self._terms.get((p, q), 0)

    def items(self):
        return self._terms.items()

    def sorted_terms(self) -> list[tuple[tuple[int, int], int]]:
        """Terms ordered by (p + q, p): the diamond reading order."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0][0]))

    def rows(self) -> list[list[int]]:
        """Diamond rows: row s lists h^{p, s-p} with p increasing."""
        d = self.space_dim
        out = []
        for s in range(2 * d + 1):
            out.append(
                [self.entry(p, s - p) for p in range(max(0, s - d), min(s, d) + 1)]
            )
        return out

    def collapse_hodge_degree(self) -> GradedDims:
        """Sum along q - p = i, the Hochschild-homology collapse."""
        out: GradedDims = {}
        for (p, q), value in self._terms.items():
            out[q - p] = out.get(q - p, 0) + value
        return out

    def collapse_total_degree(self) -> list[int]:
        """Sum along p + q = i for i = 0..2 space_dim (Betti numbers)."""
        out = [0] * (2 * self.space_dim + 1)
        for (p, q), value in self._terms.items():
            out[p + q] += value
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HodgePolynomial):
            return NotImplemented
        return self.space_dim == other.space_dim and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"HodgePolynomial({len(self._terms)} terms, space_dim={self.space_dim})"

    def __str__(self) -> str:
        pieces = []
        for (p, q), coeff in self.sorted_terms():
            factors = [f"{s}^{e}" if e > 1 else s for s, e in (("x", p), ("y", q)) if e]
            if coeff != 1 or not factors:
                factors.insert(0, str(coeff))
            pieces.append("*".join(factors))
        return " + ".join(pieces) or "0"


# -- the super-symmetric Euler product ---------------------------------------


def _super_product(
    level: Callable[[int], Iterable[_SuperGenerator]], trunc_t: int
) -> list[dict[tuple[int, int], int]]:
    """The t-layers of the super-symmetric Euler product of ``level(k)``, k >= 1.

    A generator ``(ex, ey, odd, h)`` of level k stands for h copies of
    x^ex y^ey t^k and contributes (1 - s x^ex y^ey t^k)^(-s h), s = -1
    when it is odd and +1 when it is even: Sym of an even space, the
    exterior algebra of an odd one.  That factor is the binomial series
    sum_j c_j (x^ex y^ey t^k)^j with c_0 = 1 and
    c_{j+1} = c_j (h + s j) / (j + 1), an exact division; the series ends
    at its first zero coefficient, c_{|h|+1} when s h < 0.  The factors
    of one level are multiplied together, then the levels in descending
    k, which keeps the intermediate supports small.
    """
    result = TriSeries.one(trunc_t)
    for k in range(trunc_t, 0, -1):
        f = TriSeries.one(trunc_t)
        for ex, ey, odd, h in level(k):
            s = -1 if odd else 1
            terms, c = {}, 1
            for j in range(trunc_t // k + 1):
                if not c:
                    break
                terms[(j * ex, j * ey, j * k)] = c
                c = c * (h + s * j) // (j + 1)
            f = f * TriSeries(terms, trunc_t)
        result = result * f
    return result.layers()


def hilb_series(table: TwistedTable, trunc_t: int) -> list[dict[tuple[int, int], int]]:
    """Twisted Hodge numbers of all Hilb^n S, n <= N, as t-layers.

    Entry n is ``{(p, q): h^{p,q}(Hilb^n S, L_n)}``.  The level-k generators
    are the k-th diamond shifted to (p+k-1, q+k-1), so every key of layer n
    lies in [0, 2n]^2.
    """
    _require_powers(table, trunc_t, "hilb_series")
    return _super_product(
        lambda k: (
            (p + k - 1, q + k - 1, (p + q) % 2, h)
            for (p, q), h in sorted(table.diamond(k).bigraded().items())
        ),
        trunc_t,
    )


def hilb_coefficient(table: TwistedTable, n: int) -> HodgePolynomial:
    """Twisted Hodge numbers of Hilb^n S via the product route."""
    return HodgePolynomial(hilb_series(table, n)[n], 2 * n)


# -- nested Hilbert schemes ------------------------------------------------


def nested_series(
    table_l: TwistedTable, table_llp: TwistedTable, trunc_t: int
) -> list[dict[tuple[int, int], int]]:
    """Twisted Hodge numbers of the nested spaces Hilb^{n, n+1} S, as t-layers.

    ``table_llp`` holds h^{p,q}(S, L^j x L') for j = 0..N.  The result is
    the Hilb series of ``table_l`` times the residual-point series
    sum_j E(S, L^j x L')(x, y) (xy)^j t^j, convolved layer by layer; the
    keys of layer n lie in [0, 2n + 2]^2.
    """
    _require_powers(table_l, trunc_t, "nested_series")
    _require_powers(table_llp, trunc_t, "nested_series (residual bundle)")
    hilb = hilb_series(table_l, trunc_t)
    layers: list[dict[tuple[int, int], int]] = [{} for _ in range(trunc_t + 1)]
    for j in range(trunc_t + 1):
        tail = table_llp.diamond(j).bigraded().items()
        for n in range(trunc_t + 1 - j):
            layer = layers[n + j]
            for (a, b), u in hilb[n].items():
                for (p, q), v in tail:
                    key = (a + p + j, b + q + j)
                    layer[key] = layer.get(key, 0) + u * v
    return [{pq: c for pq, c in layer.items() if c} for layer in layers]


def nested_coefficient(
    table_l: TwistedTable, table_llp: TwistedTable, n: int
) -> HodgePolynomial:
    """Twisted Hodge numbers of Hilb^{n, n+1} S via the product route."""
    return HodgePolynomial(nested_series(table_l, table_llp, n)[n], 2 * n + 2)


# -- chi_y genera along three routes ---------------------------------------


def chi_y_product(table: TwistedTable, trunc_t: int) -> list[GradedDims]:
    """Refined chi_y series as t-layers ``{y power: coeff}``, by an Euler product.

    Factor k contributes (1 - y^{p+k-1} t^k)^(-(-1)^p chi(S, Omega^p x L^k))
    for p = 0, 1, 2, with chi the alternating q-sum of the k-th diamond.
    """
    _require_powers(table, trunc_t, "chi_y_product")
    layers = _super_product(
        lambda k: ((0, p + k - 1, 0, (-1) ** p * table.diamond(k).chi_column(p)) for p in range(3)),
        trunc_t,
    )
    return [{ey: c for (_, ey), c in layer.items()} for layer in layers]


def chi_y_exp(table: TwistedTable, trunc_t: int) -> list[GradedDims]:
    """Refined chi_y series through the exponential form, as t-layers.

    The series is exp(A), A = sum_m t^m/m sum_k (t y)^{(k-1) m} chi_{-y^m}(S, L^k):
    the factors of :func:`chi_y_product` expanded by :func:`_exp_product`.
    """
    _require_powers(table, trunc_t, "chi_y_exp")
    return _exp_product(
        lambda k: ((p + k - 1, 0, (-1) ** p * table.diamond(k).chi_column(p)) for p in range(3)),
        trunc_t,
    )


def _exp_product(level: Callable[[int], Iterable[_Generator]], trunc_t: int) -> list[GradedDims]:
    """The t-layers of the Euler product of one-variable generators, by the exp route.

    The twin of :func:`_super_product`: the factor (1 - s z^e t^k)^(-s h) of
    a generator ``(e, odd, h)`` of level k is the exp of
    h sum_r s^(r+1) z^(e r) t^(k r) / r, so D_{k r} gains k h s^(r+1) at power e r.
    """
    weighted: list[GradedDims] = [{} for _ in range(trunc_t + 1)]
    for k in range(1, trunc_t + 1):
        for e, odd, h in level(k):
            if not h:
                continue
            s = -1 if odd else 1
            for r in range(1, trunc_t // k + 1):
                layer = weighted[k * r]
                layer[e * r] = layer.get(e * r, 0) + k * h * s ** (r + 1)
    return _exp_layers(weighted)


def _exp_layers(weighted: list[GradedDims]) -> list[GradedDims]:
    """The t-layers F_0..F_N of F = exp(sum_j D_j t^j / j), as ``{power: int}``.

    ``weighted[j]`` is D_j for j = 1..N (entry 0 is not read).  F solves
    t F' = (sum_j D_j t^j) F, that is n F_n = sum_{j=1..n} D_j F_{n-j}: an
    int for int layers, which must divide by n exactly.  The first layer
    where it does not raises :class:`IntegralityFailure`; both exp routes,
    chi_y and HH, run here.
    """
    layers = [{0: 1}]
    for n in range(1, len(weighted)):
        acc: dict[int, int] = {}
        for j in range(1, n + 1):
            previous = layers[n - j].items()
            for a, av in weighted[j].items():
                for f, fv in previous:
                    acc[a + f] = acc.get(a + f, 0) + av * fv
        layer = {}
        for e, v in acc.items():
            q, r = divmod(v, n)
            if r:
                raise IntegralityFailure(
                    "exponential route produced non-integer coefficients"
                )
            if q:
                layer[e] = q
        layers.append(layer)
    return layers


def chi_y_from_hodge(table: TwistedTable, trunc_t: int) -> list[GradedDims]:
    """Refined chi_y series by specializing the full Hodge series.

    Sets y = -1 in the three-variable series and renames x to -y, so the
    t-layers are keyed by the power of y like the other two routes.
    """
    _require_powers(table, trunc_t, "chi_y_from_hodge")
    return chi_y_from_hodge_series(hilb_series(table, trunc_t))


def chi_y_from_hodge_series(layers: list[dict[tuple[int, int], int]]) -> list[GradedDims]:
    """:func:`chi_y_from_hodge` of the t-layers of an expanded :func:`hilb_series`.

    Layer by layer, x^p y^q goes to (-y)^p (-1)^q: the t^n coefficient is
    sum (-1)^(p+q) h^{p,q} y^p over the layer's terms.
    """
    out = []
    for layer in layers:
        acc: GradedDims = {}
        for (p, q), h in layer.items():
            acc[p] = acc.get(p, 0) + (-1) ** (p + q) * h
        out.append({p: c for p, c in acc.items() if c})
    return out


# -- Betti numbers ------------------------------------------------------------


def betti_series(betti: Iterable[int], trunc_t: int) -> list[GradedDims]:
    """Betti numbers of Hilb^n S as t-layers: entry n is ``{i: b_i(Hilb^n S)}``.

    They come from the Euler product over (1 -+ x^{i+2k-2} t^k)^{-+b_i(S)}
    with signs by the parity of i.
    """
    b = tuple(betti)
    if len(b) != 5 or any(v < 0 for v in b):
        raise ValueError("betti numbers must be five nonnegative ints")
    if trunc_t < 0:
        raise ValueError(f"betti_series needs a nonnegative order, got {trunc_t}")
    layers = _super_product(
        lambda k: ((i + 2 * k - 2, 0, i % 2, bi) for i, bi in enumerate(b)), trunc_t
    )
    return [{ex: c for (ex, _), c in layer.items()} for layer in layers]


# -- Hochschild homology -----------------------------------------------------


def hh_dims(table: TwistedTable, n: int) -> GradedDims:
    """Hochschild homology dimensions of (Hilb^n S, L_n).

    HH_i collects the twisted Hodge numbers along q - p = i, so the
    support lies in i = -2n..2n.
    """
    _require_powers(table, n, "hh_dims")
    return hilb_coefficient(table, n).collapse_hodge_degree()


def hh_rhs_series(table: TwistedTable, trunc_t: int) -> list[GradedDims]:
    """Hochschild homology of every Hilb^n S, n <= N, from the surface's alone.

    Entry n is ``{i: dim HH_i}``: the super-symmetric product whose level-k
    generators are the k-th diamond in HH degree q - p, parity p + q,
    expanded by :func:`_exp_product`.
    """
    _require_powers(table, trunc_t, "hh_rhs_series")
    return _exp_product(
        lambda k: ((q - p, (p + q) % 2, h) for (p, q), h in table.diamond(k).bigraded().items()),
        trunc_t,
    )
