"""Closed formulas for Hodge-theoretic invariants of Hilbert schemes of points.

Everything here is a pure function from a twisted Hodge table of a
surface (the family ``h^{p,q}(S, L^k)``) to graded dimensions of the
associated Hilbert schemes ``Hilb^n S`` carrying the naturally induced
line bundle.  Each quantity is computable along two independent routes:

* a multiplicative route, an Euler product expanded in
  :class:`~hilbhodge.series.TriSeries`;
* an additive route, a sum over integer partitions of super symmetric
  powers of the surface table, evaluated one part size at a time.

The two routes must agree exactly; ``verify``-style callers and the test
suite exercise that agreement on arbitrary tables.

Routes of each ``verify`` identity and the kernel on each side.  *Euler*
is the one super-symmetric product builder ``_super_product``: it takes
the generators (e_x, e_y, parity, multiplicity) of each level k, writes
each factor (1 -+ x^e_x y^e_y t^k)^(-+h) out as its binomial series,
every coefficient got from the one before by an exact integer ratio, and
multiplies the factors by sparse dict convolution
(``TriSeries.__mul__``); :func:`hilb_series`, :func:`chi_y_product`,
:func:`betti_series` and :func:`hh_rhs_series` are four calls to it with
their own generators.  *strata* is packed ints, binomial Sym tables, no
TriSeries: every bivariate polynomial is one nonnegative int (Kronecker
substitution), each Sym^a table of the k-th diamond is a product of the
closed-form binomials C(h+j-1, j) of an even generator and C(h, j) of an
odd one (``math.comb``), and a product is one int multiply: for the main
series one pass per part size k folds every Sym^a table of the k-th
diamond into the layers of all n <= N (:func:`hilb_strata`), for the
nested spaces one fold per marked partition (:func:`nested_via_strata`);
*Sym tables* is the same binomial kernel alone, behind
:func:`sym_power_twisted_hodge` and :func:`deformation_dims`; *exp* is
the integer log-derivative recurrence of
:meth:`~hilbhodge.series.TriSeries.exp`.
``verify`` expands ``hilb_series(table, N)`` once, in a second process
(in process without ``os.fork``; same output), and splits it into
t-layers once; *shared* marks the sides that read them: the layers, their
collapse along p + q or q - p, or the per-layer specialisation
:func:`chi_y_from_hodge_series` (see :func:`chi_y_from_hodge`).

========================= ============================== =============================
identity                  one side                       other side(s)
========================= ============================== =============================
product-vs-partition      hilb_series (shared): Euler,   hilb_strata: strata, packed
                          ratio-built factors, dict      int multiplies of comb
                          convolution                    tables, one pass per part
                                                         size
chi-y-three-way           chi_y_product: Euler           chi_y_exp: exp;
                                                         chi_y_from_hodge_series
                                                         (shared): Euler
frolicher                 hilb_series (shared), p + q    betti_series: Euler
                          collapse per layer: Euler
hochschild-two-path       hilb_series (shared), q - p    hh_rhs_series: Euler
                          collapse per layer: Euler
nested-two-path           nested_series: Euler           nested_via_strata: strata
deformation-closed-forms  deformation_dims: Sym tables   closed binomial forms
deformation-omega-trivial deformation_dims: Sym tables   tangent_dims_from_layer
                                                         (shared): Euler
oracle-suite              TriSeries.__mul__,             naive_mul,
                          sym_power_twisted_hodge of     super_sym_multiset
                          the k=1 diamond capped at 12
                          generators
========================= ============================== =============================

The Euler side calls none of the strata helpers (``_sym_layers``,
``_pack``, ``_unpack``, ``_slot_bits``) and no ``math.comb``, so
product-vs-partition compares two kernels that share no code.
frolicher and hochschild-two-path run the Euler builder on both sides
(``hilb_series`` against ``betti_series`` or ``hh_rhs_series``, other
generators through the same builder); product-vs-partition covers the
builder against the strata, and chi-y-three-way covers it against exp
(``chi_y_product`` against ``chi_y_exp``).  oracle-suite covers the Sym
tables, which the strata side shares, against brute-force multiset
enumeration; it keeps every nonzero bidegree of the diamond but at most
12 generators in all, the size the enumeration accepts.  No identity
compares the shared series with itself.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from math import comb

from .partitions import nested_index_set
from .series import TriSeries, _exact, _format_terms
from .surfaces import DeformationInput, SurfaceDiamond, TwistedTable

GradedDims = dict[int, int]
# (e_x, e_y, odd, h): h generators of bidegree (e_x, e_y); odd is 1 or 0
_SuperGenerator = tuple[int, int, int, int]

__all__ = [
    "EngineError",
    "GradedDims",
    "HodgePolynomial",
    "InsufficientPowers",
    "IntegralityFailure",
    "betti_series",
    "chi_y_exp",
    "chi_y_from_hodge",
    "chi_y_from_hodge_series",
    "chi_y_product",
    "deformation_closed_forms",
    "deformation_dims",
    "hh_dims",
    "hh_from_rhs",
    "hh_rhs_series",
    "hilb_coefficient",
    "hilb_series",
    "hilb_strata",
    "hilb_via_partitions",
    "nested_coefficient",
    "nested_series",
    "nested_via_strata",
    "sn_invariant_tangent",
    "sym_power_twisted_hodge",
    "tangent_dims_from_layer",
]


class EngineError(Exception):
    """Base class for computation errors."""


class InsufficientPowers(EngineError):
    """The twisted table does not reach the power of L the formula needs."""


class IntegralityFailure(EngineError):
    """An exp-route result failed to collapse to integers (an internal bug)."""


def _require_powers(table: TwistedTable, needed: int, operation: str) -> None:
    if table.max_power < needed:
        raise InsufficientPowers(
            f"{operation} needs h^(p,q)(S, L^k) for every k <= {needed}, but the "
            f"table stops at K={table.max_power}: k={table.max_power + 1} is missing"
        )


class HodgePolynomial:
    """Twisted Hodge numbers of one fixed space: a finite (p, q) -> dim map."""

    __slots__ = ("_terms", "space_dim")

    def __init__(self, terms: Mapping[tuple[int, int], int], space_dim: int):
        if space_dim < 0:
            raise ValueError("space_dim must be nonnegative")
        clean: dict[tuple[int, int], int] = {}
        for (p, q), value in terms.items():
            value = _exact(value)
            if isinstance(value, Fraction):
                raise IntegralityFailure(
                    f"non-integral dimension {value} at (p, q)=({p}, {q})"
                )
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

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HodgePolynomial):
            return NotImplemented
        return self.space_dim == other.space_dim and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"HodgePolynomial({len(self._terms)} terms, space_dim={self.space_dim})"

    def __str__(self) -> str:
        return _format_terms(
            (coeff, [("x", p), ("y", q)]) for (p, q), coeff in self.sorted_terms()
        )


# -- super symmetric powers ----------------------------------------------
#
# The Sym tables of the strata route are packed polynomials: one
# nonnegative int holding the coefficient of x^p y^q in the ``slot``-bit
# slot number ``p * width + q``.  A product of two packed polynomials is
# one int multiply, exact while every coefficient of the product and of
# its factors fits a slot and every q-degree stays below ``width``
# (Kronecker substitution; all coefficients here are dimensions, so no
# sign ever borrows across a slot).  Each caller sizes the slot from an
# exact bound: a coefficient never exceeds its polynomial's value at
# x = y = 1, and those totals are computed in plain ints first.


def _slot_bits(bound: int) -> int:
    """Bits per slot for coefficients <= ``bound``, rounded up to whole bytes."""
    return 8 * max(1, (bound.bit_length() + 7) // 8)


def _pack(terms: Mapping[tuple[int, int], int], width: int, slot: int) -> int:
    return sum(v << (p * width + q) * slot for (p, q), v in terms.items())


def _unpack(packed: int, width: int, slot: int) -> dict[tuple[int, int], int]:
    """The (p, q) -> coefficient map of a packed polynomial, in one byte pass."""
    size = slot // 8
    raw = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    terms = {}
    for start in range(0, len(raw), size):
        value = int.from_bytes(raw[start : start + size], "little")
        if value:
            terms[divmod(start // size, width)] = value
    return terms


def _sym_layers(
    dims: Mapping[tuple[int, int], int], top: int, width: int, slot: int
) -> list[int]:
    """Packed Sym^a of a bigraded super space for a = 0..top.

    V has v_{p,q} generators in bidegree (p, q), odd when p + q is odd.
    Sym(V) is the tensor product over bidegrees of Sym of an even space
    (C(v+j-1, j) monomials of degree j) or of an exterior algebra
    (C(v, j)), each generator's monomial x^{pj} y^{qj} at slot shift
    ``j * (p * width + q) * slot``; the layers are convolved in t.  With
    ``width = slot = 0`` every monomial sits at x = y = 1 and the layers
    are the plain dimensions of Sym^a.
    """
    layers = [1] + [0] * top
    for (p, q), v in sorted(dims.items()):
        if not v:
            continue
        if (p + q) % 2:
            coeffs = [comb(v, j) for j in range(min(v, top) + 1)]
        else:
            coeffs = [comb(v + j - 1, j) for j in range(top + 1)]
        shift = (p * width + q) * slot
        layers = [
            sum(
                layers[a - j] * coeffs[j] << j * shift
                for j in range(min(a, len(coeffs) - 1) + 1)
            )
            for a in range(top + 1)
        ]
    return layers


def _sym_terms(
    dims: Mapping[tuple[int, int], int], top: int
) -> list[dict[tuple[int, int], int]]:
    """The (p, q) -> dim maps of Sym^a of a bigraded super space, a = 0..top."""
    if top < 0:
        raise ValueError("truncation order must be nonnegative")
    for (p, q), v in dims.items():
        if v < 0:
            raise ValueError("dimensions must be nonnegative")
        if p < 0 or q < 0:
            raise ValueError(f"negative degree in {(p, q)}")
    width = top * max((max(pq) for pq, v in dims.items() if v), default=0) + 1
    slot = _slot_bits(max(_sym_layers(dims, top, 0, 0)))
    return [_unpack(layer, width, slot) for layer in _sym_layers(dims, top, width, slot)]


def sym_power_twisted_hodge(diamond: SurfaceDiamond, a: int) -> HodgePolynomial:
    """Twisted Hodge numbers of the a-th symmetric power of a surface.

    The table of ``Sym^a`` of the surface cohomology, a space of complex
    dimension 2a; ``a = 0`` is a point and ``a = 1`` returns the diamond
    itself.
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    return HodgePolynomial(_sym_terms(diamond.bigraded(), a)[a], 2 * a)


# -- the super-symmetric Euler product ---------------------------------------


def _super_product(
    level: Callable[[int], Iterable[_SuperGenerator]], trunc_t: int
) -> TriSeries:
    """The super-symmetric Euler product of the generators ``level(k)``, k >= 1.

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
    return result


# -- the main Euler product and its partition-sum twin ---------------------


def hilb_series(table: TwistedTable, trunc_t: int) -> TriSeries:
    """Three-variable series of twisted Hodge numbers of all Hilb^n S, n <= N.

    The coefficient of x^p y^q t^n is h^{p,q}(Hilb^n S, L_n).  The level-k
    generators are the k-th diamond shifted to (p+k-1, q+k-1), so every
    term satisfies e_x <= 2 e_t and e_y <= 2 e_t.
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
    return HodgePolynomial(hilb_series(table, n).coefficient_of_t(n), 2 * n)


def _strata(table: TwistedTable, n: int, width: int, slot: int) -> list[int]:
    """Packed stratum sums of every layer m <= n, one pass per part size.

    A partition (1^a1 ... r^ar) of m has diagonal shift
    m - len = sum_k (k-1) a_k, so its strata sum to the t^m coefficient
    of prod_k sum_a Sym^a(k-th diamond) (xy)^{(k-1)a} t^{ka}.  Pass k
    multiplies factor k in: acc[m] += acc[m - ka] Sym^a, shifted by
    (k-1) a diagonal slots, with m descending so acc[m - ka] lacks part k.
    With ``width = slot = 0`` each layer is its value at x = y = 1; that
    bounds every coefficient of every partial product, since all terms are
    nonnegative and a partial product is a sub-sum of its final layer.
    """
    diagonal = (width + 1) * slot
    acc = [1] + [0] * n
    for k in range(1, n + 1):
        row = _sym_layers(table.diamond(k).bigraded(), n // k, width, slot)
        for m in range(n, k - 1, -1):
            for a in range(1, m // k + 1):
                acc[m] += acc[m - k * a] * row[a] << (k - 1) * a * diagonal
    return acc


def hilb_strata(table: TwistedTable, trunc_t: int) -> list[HodgePolynomial]:
    """Twisted Hodge numbers of Hilb^n S for every n <= N via the stratum sum.

    The stratum of a partition (1^a1 ... r^ar) of n contributes the
    product of the symmetric-power tables Sym^{a_k} of the k-th twisted
    diamond, shifted by n - len in both p and q.  The sum over partitions
    is evaluated one part size at a time (:func:`_strata`): once at
    x = y = 1 for the slot width, then packed (layer n lives in
    [0, 2n]^2, so width = 2N + 1), where a product is one int multiply and
    the shift by (xy)^s is a left shift by s * (width + 1) slots.
    Entry n must agree exactly with :func:`hilb_coefficient`.
    """
    _require_powers(table, trunc_t, "hilb_strata")
    width = 2 * trunc_t + 1
    slot = _slot_bits(max(_strata(table, trunc_t, 0, 0)))
    return [
        HodgePolynomial(_unpack(layer, width, slot), 2 * n)
        for n, layer in enumerate(_strata(table, trunc_t, width, slot))
    ]


def hilb_via_partitions(table: TwistedTable, n: int) -> HodgePolynomial:
    """Twisted Hodge numbers of Hilb^n S via the partition-indexed sum.

    Entry n of :func:`hilb_strata`; must agree exactly with
    :func:`hilb_coefficient`.
    """
    _require_powers(table, n, "hilb_via_partitions")
    return hilb_strata(table, n)[n]


# -- nested Hilbert schemes ------------------------------------------------


def nested_series(
    table_l: TwistedTable, table_llp: TwistedTable, trunc_t: int
) -> TriSeries:
    """Series for the nested spaces Hilb^{n, n+1} S with both bundles.

    ``table_llp`` holds h^{p,q}(S, L^j x L') for j = 0..N.  The result is
    the Hilb series of ``table_l`` times the residual-point series
    sum_j E(S, L^j x L')(x, y) (xy)^j t^j; terms satisfy
    e_x, e_y <= 2 e_t + 2.
    """
    _require_powers(table_l, trunc_t, "nested_series")
    _require_powers(table_llp, trunc_t, "nested_series (residual bundle)")
    tail_terms: dict[tuple[int, int, int], int] = {}
    for j in range(trunc_t + 1):
        for (p, q), h in table_llp.diamond(j).bigraded().items():
            tail_terms[(p + j, q + j, j)] = h
    tail = TriSeries(tail_terms, trunc_t)
    return hilb_series(table_l, trunc_t) * tail


def nested_coefficient(
    table_l: TwistedTable, table_llp: TwistedTable, n: int
) -> HodgePolynomial:
    """Twisted Hodge numbers of Hilb^{n, n+1} S via the product route."""
    return HodgePolynomial(
        nested_series(table_l, table_llp, n).coefficient_of_t(n), 2 * n + 2
    )


def nested_via_strata(
    table_l: TwistedTable, table_llp: TwistedTable, n: int
) -> HodgePolynomial:
    """Twisted Hodge numbers of Hilb^{n, n+1} S via the stratum sum.

    Strata are indexed by pairs (partition of n, marked part j): j = 0
    keeps all symmetric-power factors and tensors the residual surface
    with L'; marking a part j > 0 drops one copy of it (Sym^{a_j - 1})
    and the residual surface carries L^j x L'.  The j = 0 strata shift
    the bigrading by n - len, the marked ones by n - len + 1.
    """
    _require_powers(table_l, n, "nested_via_strata")
    _require_powers(table_llp, n, "nested_via_strata (residual bundle)")
    residuals = [table_llp.diamond(j).bigraded() for j in range(n + 1)]
    totals = _strata(table_l, n, 0, 0)
    # a marked stratum of layer m is a residual times a stratum of layer m - j
    nested_totals = [
        sum(totals[m - j] * sum(residuals[j].values()) for j in range(m + 1))
        for m in range(n + 1)
    ]
    width = 2 * n + 3
    slot = _slot_bits(max(totals + nested_totals))
    sym_tables = [[]] + [
        _sym_layers(table_l.diamond(k).bigraded(), n // k, width, slot)
        for k in range(1, n + 1)
    ]
    acc = 0
    for lam, j in nested_index_set(n):
        mults = list(lam.mults)
        shift = n - lam.length
        if j:
            shift += 1
            mults[j - 1] -= 1
        product = _pack(residuals[j], width, slot)
        for k, a in enumerate(mults, start=1):
            if a:
                product *= sym_tables[k][a]
        acc += product << shift * (width + 1) * slot
    return HodgePolynomial(_unpack(acc, width, slot), 2 * n + 2)


# -- chi_y genera along three routes ---------------------------------------


def chi_y_product(table: TwistedTable, trunc_t: int) -> TriSeries:
    """Refined chi_y series in (y, t) as an Euler product.

    Factor k contributes (1 - y^{p+k-1} t^k)^(-(-1)^p chi(S, Omega^p x L^k))
    for p = 0, 1, 2, with chi the alternating q-sum of the k-th diamond.
    """
    _require_powers(table, trunc_t, "chi_y_product")
    return _super_product(
        lambda k: (
            (0, p + k - 1, 0, (-1) ** p * table.diamond(k).chi_column(p))
            for p in range(3)
        ),
        trunc_t,
    )


def chi_y_exp(table: TwistedTable, trunc_t: int) -> TriSeries:
    """Refined chi_y series through the exponential form.

    exp( sum_m t^m/m sum_k (t y)^{(k-1) m} chi_{-y^m}(S, L^k) ) expanded
    over exact rationals; the result must collapse to integers, and a
    failure to do so raises :class:`IntegralityFailure`.
    """
    _require_powers(table, trunc_t, "chi_y_exp")
    arg: dict[tuple[int, int, int], Fraction] = {}
    for m in range(1, trunc_t + 1):
        for k in range(1, trunc_t // m + 1):
            d = table.diamond(k)
            offset = (k - 1) * m
            for p in range(3):
                chi = d.chi_column(p)
                if not chi:
                    continue
                key = (0, offset + m * p, k * m)
                value = arg.get(key, Fraction(0)) + Fraction((-1) ** p * chi, m)
                if value:
                    arg[key] = value
                else:
                    arg.pop(key, None)
    series = TriSeries(arg, trunc_t).exp()
    if not series.is_integral():
        raise IntegralityFailure(
            "chi_y exponential route produced non-integer coefficients"
        )
    return series


def chi_y_from_hodge(table: TwistedTable, trunc_t: int) -> TriSeries:
    """Refined chi_y series by specializing the full Hodge series.

    Sets y = -1 in the three-variable series and renames x to -y, so the
    result lives in (y, t) like the other two routes.
    """
    _require_powers(table, trunc_t, "chi_y_from_hodge")
    return chi_y_from_hodge_series(hilb_series(table, trunc_t))


def chi_y_from_hodge_series(series: TriSeries) -> TriSeries:
    """:func:`chi_y_from_hodge` of an already expanded :func:`hilb_series`.

    Layer by layer, x^p y^q goes to (-y)^p (-1)^q: the t^n coefficient is
    sum (-1)^(p+q) h^{p,q} y^p over the layer's terms.
    """
    terms: dict[tuple[int, int, int], int] = {}
    for n, layer in enumerate(series.layers()):
        for (p, q), h in layer.items():
            key = (0, p, n)
            terms[key] = terms.get(key, 0) + (-1) ** (p + q) * h
    return TriSeries(terms, series.trunc_t)


# -- Betti numbers ------------------------------------------------------------


def betti_series(betti: Iterable[int], trunc_t: int) -> TriSeries:
    """Series of Betti numbers of Hilb^n S in (x, t).

    The coefficient of x^i t^n is b_i(Hilb^n S), from the Euler product
    over (1 -+ x^{i+2k-2} t^k)^{-+b_i(S)} with signs by the parity of i.
    """
    b = tuple(betti)
    if len(b) != 5 or any(v < 0 for v in b):
        raise ValueError("betti numbers must be five nonnegative ints")
    return _super_product(
        lambda k: ((i + 2 * k - 2, 0, i % 2, bi) for i, bi in enumerate(b)), trunc_t
    )


# -- Hochschild homology -----------------------------------------------------


def hh_dims(table: TwistedTable, n: int) -> GradedDims:
    """Hochschild homology dimensions of (Hilb^n S, L_n).

    HH_i collects the twisted Hodge numbers along q - p = i, so the
    support lies in i = -2n..2n.
    """
    _require_powers(table, n, "hh_dims")
    return hilb_coefficient(table, n).collapse_hodge_degree()


def hh_rhs_series(table: TwistedTable, trunc_t: int) -> TriSeries:
    """Super-symmetric series of surface Hochschild homology in (y, t).

    The level-k generator of HH degree i is stored at y-exponent i + 2k,
    so the coefficient of t^n keeps degrees i = -2n..2n at nonnegative
    offsets i + 2n; parity (and so the super sign rule) is unchanged by
    the even offset.
    """
    _require_powers(table, trunc_t, "hh_rhs_series")
    return _super_product(
        lambda k: (
            (0, q - p + 2 * k, (p + q) % 2, h)
            for (p, q), h in sorted(table.diamond(k).bigraded().items())
        ),
        trunc_t,
    )


def hh_from_rhs(series: TriSeries, n: int) -> GradedDims:
    """Decode the t^n coefficient of :func:`hh_rhs_series` to HH degrees."""
    out: GradedDims = {}
    for i in range(-2 * n, 2 * n + 1):
        value = series.coefficient(0, i + 2 * n, n)
        if value:
            out[i] = int(value)
    return out


# -- deformation theory ------------------------------------------------------


def _sym_graded(triple: tuple[int, int, int], m: int) -> GradedDims:
    """Super symmetric power Sym^m of a single-graded space in degrees 0..2.

    Used for H^*(S^{(m)}, O) = Sym^m H^{0,*}(S); degree-1 generators are
    odd, the others even.  Sym^0 is one dimension in degree 0.
    """
    dims = {(0, j): v for j, v in enumerate(triple) if v}
    return {ey: v for (_, ey), v in _sym_terms(dims, m)[m].items()}


def sn_invariant_tangent(din: DeformationInput, n: int) -> GradedDims:
    """Graded dimensions of the invariant tangent cohomology of S^n.

    Expanded as H^*(S, T_S) tensor Sym^{n-1} H^{0,*}(S): the tangent
    sheaf of the n-fold product is the sum of the pullbacks from the
    factors, and the invariants reduce to the stabilizer of one factor.
    For n = 1 this is just hT.
    """
    if n < 1:
        raise ValueError("n must be positive")
    sym = _sym_graded(din.hO, n - 1)
    out: GradedDims = {}
    for a, v in enumerate(din.hT):
        if not v:
            continue
        for d, w in sym.items():
            out[a + d] = out.get(a + d, 0) + v * w
    return out


def deformation_dims(din: DeformationInput, n: int, qmax: int = 3) -> GradedDims:
    """Dimensions h^q(Hilb^n S, tangent sheaf) for q = 0..qmax.

    For n >= 2 this sums the invariant tangent cohomology of S^n with
    three shifted contributions H^{q-s}(S^{(n-2)}, O) x h^{s-1}(wedge^2 T_S),
    s = 1, 2, 3; negative-degree cohomology is zero and S^{(0)} is a
    point.  n = 1 returns hT and n = 0 is identically zero.
    """
    if n < 0 or qmax < 0:
        raise ValueError("n and qmax must be nonnegative")
    if n == 0:
        return {q: 0 for q in range(qmax + 1)}
    if n == 1:
        return {q: (din.hT[q] if q < 3 else 0) for q in range(qmax + 1)}
    snt = sn_invariant_tangent(din, n)
    sym_o = _sym_graded(din.hO, n - 2)
    out: GradedDims = {}
    for q in range(qmax + 1):
        total = snt.get(q, 0)
        for s, w2 in enumerate(din.hW2, start=1):
            total += sym_o.get(q - s, 0) * w2
        out[q] = total
    return out


def deformation_closed_forms(din: DeformationInput, n: int) -> tuple[int, int, int]:
    """The stable closed forms for h^0, h^1, h^2 of the tangent cohomology.

    h0 = h^0(T), h1 = h^1(T) + h^0(T) h^1(O) + h^0(w2T) and h2 adds the
    obstruction terms including dim Lambda^2 H^1(O) = C(h^1(O), 2).
    Exact for every connected surface once n >= 3; at n = 2 the terms
    h^0(T) C(h^1(O), 2) and h^1(O) h^0(w2T) are not yet present in
    :func:`deformation_dims` (the symmetric power S^{(0)} is a point),
    so the closed h2 can overshoot there.
    """
    if n < 2:
        raise ValueError("closed forms apply to n >= 2")
    if not din.connected:
        raise ValueError("closed forms assume a connected surface")
    hT, hO, hW2 = din.hT, din.hO, din.hW2
    h0 = hT[0]
    h1 = hT[1] + hT[0] * hO[1] + hW2[0]
    h2 = (
        hT[2]
        + hT[1] * hO[1]
        + hT[0] * hO[2]
        + hT[0] * comb(hO[1], 2)
        + hO[1] * hW2[0]
        + hW2[1]
    )
    return (h0, h1, h2)


def tangent_dims_from_layer(poly: HodgePolynomial, qmax: int = 3) -> GradedDims:
    """Tangent cohomology of Hilb^n S, n >= 1, read off its Hodge numbers.

    Valid when ``poly`` comes from the trivial-bundle table of a surface
    with trivial canonical bundle: then h^q(Hilb^n, T) = h^{2n-1, q}(Hilb^n),
    the column p = 2n - 1 of the ordinary Hodge diamond.
    """
    column = poly.space_dim - 1  # p = 2n - 1
    return {q: poly.entry(column, q) for q in range(qmax + 1)}
