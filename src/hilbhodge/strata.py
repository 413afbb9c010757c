"""The strata route: packed ints, binomial Sym tables, no ``TriSeries``.

Every bivariate polynomial is one nonnegative int (Kronecker substitution),
each Sym^a table of the k-th diamond a product of the binomials C(h+j-1, j)
of an even generator and C(h, j) of an odd one (``math.comb``), and a
product one int multiply: :func:`hilb_strata` folds the Sym^a tables into
the layers of all n <= N one part size k at a time, :func:`nested_via_strata`
convolves those layers with the residual tables.  The Sym tables alone serve
:func:`sym_power_twisted_hodge` and the deformation dimensions.  A series
comes out as ``{(p, q): dim}`` t-layers, one space as a ``HodgePolynomial``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from math import comb

from .engine import GradedDims, HodgePolynomial, _require_powers
from .surfaces import DeformationInput, SurfaceDiamond, TwistedTable

__all__ = [
    "deformation_closed_forms", "deformation_dims", "hilb_strata", "hilb_via_partitions",
    "nested_via_strata", "sym_power_twisted_hodge",
]


# -- super symmetric powers ----------------------------------------------
#
# The Sym tables of the strata route are packed polynomials: one
# nonnegative int holding the coefficient of x^p y^q in the ``slot``-bit
# slot number ``p * width + q``.  A product of two packed polynomials is
# one int multiply (Kronecker substitution), exact integer arithmetic, so
# a result unpacks correctly once each of its coefficients fits a slot and
# its q-degree stays below ``width``; all coefficients are dimensions, so no
# sign ever borrows across a slot.


def _slot_bits(bound: int) -> int:
    """Bits per slot for coefficients <= ``bound``, rounded up to whole bytes."""
    return 8 * max(1, (bound.bit_length() + 7) // 8)


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


def _kronecker(packed: Callable[[int, int], list[int]], width: int) -> list[dict]:
    """Unpack ``packed(width, slot)``; ``packed(0, 0)``, at x = y = 1, sizes the slot."""
    slot = _slot_bits(max(packed(0, 0)))
    return [_unpack(layer, width, slot) for layer in packed(width, slot)]


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
    """The (p, q) -> dim maps of Sym^a of a bigraded super space, a = 0..top.

    Callers pass ``dims`` from a validated diamond or deformation block and
    a ``top`` they have checked to be nonnegative.
    """
    width = top * max((max(pq) for pq, v in dims.items() if v), default=0) + 1
    return _kronecker(lambda width, slot: _sym_layers(dims, top, width, slot), width)


def sym_power_twisted_hodge(diamond: SurfaceDiamond, a: int) -> HodgePolynomial:
    """Twisted Hodge numbers of the a-th symmetric power of a surface.

    The table of ``Sym^a`` of the surface cohomology, a space of complex
    dimension 2a; ``a = 0`` is a point and ``a = 1`` returns the diamond
    itself.
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    return HodgePolynomial(_sym_terms(diamond.bigraded(), a)[a], 2 * a)


# -- the partition route ---------------------------------------------------


def _strata(table: TwistedTable, n: int, width: int, slot: int) -> list[int]:
    """Packed stratum sums of every layer m <= n, one pass per part size.

    A partition (1^a1 ... r^ar) of m has diagonal shift
    m - len = sum_k (k-1) a_k, so its strata sum to the t^m coefficient
    of prod_k sum_a Sym^a(k-th diamond) (xy)^{(k-1)a} t^{ka}.  Pass k
    multiplies factor k in: acc[m] += acc[m - ka] Sym^a, shifted by
    (k-1) a diagonal slots, with m descending so acc[m - ka] lacks part k.
    With ``width = slot = 0`` each layer is its value at x = y = 1: all
    terms are nonnegative, so it bounds the layer's coefficients, and only
    the unpacked layers need to fit a slot (:func:`_kronecker`).
    """
    diagonal = (width + 1) * slot
    acc = [1] + [0] * n
    for k in range(1, n + 1):
        row = _sym_layers(table.diamond(k).bigraded(), n // k, width, slot)
        for m in range(n, k - 1, -1):
            for a in range(1, m // k + 1):
                acc[m] += acc[m - k * a] * row[a] << (k - 1) * a * diagonal
    return acc


def hilb_strata(table: TwistedTable, trunc_t: int) -> list[dict[tuple[int, int], int]]:
    """Twisted Hodge numbers of Hilb^n S for every n <= N via the stratum sum.

    Entry n is the t-layer ``{(p, q): h^{p,q}(Hilb^n S, L_n)}``.  The stratum
    of a partition (1^a1 ... r^ar) of n contributes the product of the
    symmetric-power tables Sym^{a_k} of the k-th twisted
    diamond, shifted by n - len in both p and q.  The sum over partitions
    is evaluated one part size at a time (:func:`_strata`): once at
    x = y = 1 for the slot width, then packed (layer n lives in
    [0, 2n]^2, so width = 2N + 1), where a product is one int multiply and
    the shift by (xy)^s is a left shift by s * (width + 1) slots.
    It must equal ``hilb_series(table, N)`` exactly.
    """
    _require_powers(table, trunc_t, "hilb_strata")
    return _kronecker(lambda width, slot: _strata(table, trunc_t, width, slot), 2 * trunc_t + 1)


def hilb_via_partitions(table: TwistedTable, n: int) -> HodgePolynomial:
    """Twisted Hodge numbers of Hilb^n S via the partition-indexed sum.

    Entry n of :func:`hilb_strata`; must agree exactly with
    :func:`~hilbhodge.engine.hilb_coefficient`.
    """
    _require_powers(table, n, "hilb_via_partitions")
    return HodgePolynomial(hilb_strata(table, n)[n], 2 * n)


def nested_via_strata(
    table_l: TwistedTable, table_llp: TwistedTable, n: int
) -> HodgePolynomial:
    """Twisted Hodge numbers of Hilb^{n, n+1} S via the stratum sum.

    Strata are indexed by pairs (partition of n, marked part j): j = 0
    keeps all symmetric-power factors and tensors the residual surface
    with L'; marking a part j > 0 drops one copy of it (Sym^{a_j - 1})
    and the residual surface carries L^j x L'.  The j = 0 strata shift
    the bigrading by n - len, the marked ones by n - len + 1.  A marked
    pair is a partition mu of n - j plus one part j, and its shift
    n - len + 1 is (n - j - len mu) + j, so the sum is one convolution:
    sum_j (stratum layer n - j of L) E(S, L^j x L') (xy)^j, the strata
    form of :func:`~hilbhodge.engine.nested_series`; each residual diamond
    enters packed as its own Sym^1.
    """
    _require_powers(table_l, n, "nested_via_strata")
    _require_powers(table_llp, n, "nested_via_strata (residual bundle)")
    residuals = [table_llp.diamond(j).bigraded() for j in range(n + 1)]

    def packed(width: int, slot: int) -> list[int]:
        layers = _strata(table_l, n, width, slot)
        return [sum(layers[n - j] * _sym_layers(residuals[j], 1, width, slot)[1]
                    << j * (width + 1) * slot for j in range(n + 1))]
    return HodgePolynomial(_kronecker(packed, 2 * n + 3)[0], 2 * n + 2)


# -- deformation theory ------------------------------------------------------


def _sym_graded(triple: tuple[int, int, int], m: int) -> GradedDims:
    """Super symmetric power Sym^m of a single-graded space in degrees 0..2.

    Used for H^*(S^{(m)}, O) = Sym^m H^{0,*}(S); degree-1 generators are
    odd, the others even.  Sym^0 is one dimension in degree 0, and
    Sym^m = 0 for m < 0.
    """
    if m < 0:
        return {}
    dims = {(0, j): v for j, v in enumerate(triple) if v}
    return {ey: v for (_, ey), v in _sym_terms(dims, m)[m].items()}


def _tensor_sym(
    triple: tuple[int, int, int], shift: int, hO: tuple[int, int, int], m: int
) -> GradedDims:
    """A triple in degrees shift..shift + 2 tensor Sym^m H^{0,*}(S); no zero entry."""
    sym = _sym_graded(hO, m)
    out: GradedDims = {}
    for a, v in enumerate(triple, start=shift):
        if not v:
            continue
        for d, w in sym.items():
            out[a + d] = out.get(a + d, 0) + v * w
    return out


def deformation_dims(din: DeformationInput, n: int, qmax: int = 3) -> GradedDims:
    """Dimensions h^q(Hilb^n S, tangent sheaf) for q = 0..qmax.

    One formula for every n: H^*(S, T_S) x Sym^{n-1} H^{0,*}(S), the
    invariant tangent cohomology of S^n, plus H^{*-1}(S, wedge^2 T_S) x
    Sym^{n-2} H^{0,*}(S).  With Sym^m = 0 for m < 0, n = 1 gives hT and
    n = 0 is identically zero.
    """
    if n < 0 or qmax < 0:
        raise ValueError("n and qmax must be nonnegative")
    tangent = _tensor_sym(din.hT, 0, din.hO, n - 1)
    wedge = _tensor_sym(din.hW2, 1, din.hO, n - 2)
    return {q: tangent.get(q, 0) + wedge.get(q, 0) for q in range(qmax + 1)}


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

