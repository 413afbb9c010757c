"""Exact truncated formal power series in the commuting variables x, y, t.

A :class:`TriSeries` is an element of the truncated ring
``Z[x, y][[t]] / (t^(N+1))``: a sparse map from exponent triples
``(e_x, e_y, e_t)`` to integer coefficients, cut off t-adically at a
fixed order ``trunc_t = N``.  It is the private ring of
:func:`~hilbhodge.engine._super_product`, where the super-symmetric Euler
products multiply out; that function alone takes the result apart with
:meth:`TriSeries.layers`, one plain ``{(e_x, e_y): coeff}`` dict per power
of t, and returns those t-layers, the one form in which the package passes
series around.  Every number the package computes is a dimension, so
coefficients are Python ints and nothing else: a float, a bool or a
:class:`fractions.Fraction` raises ``TypeError``.
"""

from __future__ import annotations

from collections.abc import Mapping

Monomial = tuple[int, int, int]

__all__ = ["Monomial", "TriSeries"]


def _exact(value: int) -> None:
    """Reject a coefficient that is not an int; a bool is not one here."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"coefficients must be int, got {type(value).__name__}")


class TriSeries:
    """A t-adically truncated series with exact sparse coefficients.

    Invariants: no stored zero coefficients, all exponents nonnegative,
    and every stored term satisfies ``e_t <= trunc_t``.
    """

    __slots__ = ("_terms", "trunc_t")

    def __init__(self, terms: Mapping[Monomial, int], trunc_t: int):
        if trunc_t < 0:
            raise ValueError("truncation order must be nonnegative")
        clean: dict[Monomial, int] = {}
        for (ex, ey, et), value in terms.items():
            if ex < 0 or ey < 0 or et < 0:
                raise ValueError(f"negative exponent in {(ex, ey, et)}")
            if et > trunc_t:
                continue
            _exact(value)
            if value:
                clean[(ex, ey, et)] = value
        self._terms = clean
        self.trunc_t = trunc_t

    @classmethod
    def _make(cls, terms: dict[Monomial, int], trunc_t: int) -> "TriSeries":
        """Internal constructor; ``terms`` must already satisfy the invariants."""
        if trunc_t < 0:
            raise ValueError("truncation order must be nonnegative")
        self = object.__new__(cls)
        self._terms = terms
        self.trunc_t = trunc_t
        return self

    @classmethod
    def one(cls, trunc_t: int) -> "TriSeries":
        return cls._make({(0, 0, 0): 1}, trunc_t)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in the canonical order (e_t, e_x, e_y), ascending."""
        return sorted(self._terms.items(), key=lambda kv: (kv[0][2], kv[0][0], kv[0][1]))

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriSeries):
            return NotImplemented
        return self.trunc_t == other.trunc_t and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TriSeries({len(self._terms)} terms, trunc_t={self.trunc_t})"

    # -- ring operations -------------------------------------------------

    def __mul__(self, other: "TriSeries") -> "TriSeries":
        if not isinstance(other, TriSeries):
            return NotImplemented
        trunc = min(self.trunc_t, other.trunc_t)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        # outer loop over the smaller operand; inner list sorted by e_t so
        # the truncation cutoff can break early
        bitems = sorted(
            ((k, v) for k, v in b.items() if k[2] <= trunc),
            key=lambda kv: kv[0][2],
        )
        acc: dict[Monomial, int] = {}
        get = acc.get
        for (ax, ay, at), av in a.items():
            if at > trunc:
                continue
            rem = trunc - at
            for (bx, by, bt), bv in bitems:
                if bt > rem:
                    break
                key = (ax + bx, ay + by, at + bt)
                cur = get(key)
                if cur is None:
                    acc[key] = av * bv
                else:
                    cur = cur + av * bv
                    if cur:
                        acc[key] = cur
                    else:
                        del acc[key]
        return TriSeries._make(acc, trunc)

    # -- extraction --------------------------------------------------------

    def layers(self) -> list[dict[tuple[int, int], int]]:
        """Every t-layer in one pass: entry n is the (e_x, e_y) -> coeff dict of t^n."""
        out = [{} for _ in range(self.trunc_t + 1)]
        for (ex, ey, et), value in self._terms.items():
            out[et][(ex, ey)] = value
        return out
