"""Exact truncated formal power series in the commuting variables x, y, t.

A :class:`TriSeries` is an element of the truncated ring
``Z[x, y][[t]] / (t^(N+1))``: a sparse map from exponent triples
``(e_x, e_y, e_t)`` to int coefficients, cut off t-adically at a fixed
order ``trunc_t = N``.  It is the private ring of
:func:`~hilbhodge.engine._super_product`, where the super-symmetric Euler
products multiply out; that function alone takes the result apart with
:meth:`TriSeries.layers`, one plain ``{(e_x, e_y): coeff}`` dict per power
of t, and returns those t-layers, the one form in which the package passes
series around.  The constructor stores the map it is given and checks
nothing: ``_super_product`` hands it int coefficients that stop at the first
zero, nonnegative exponents and ``e_t <= trunc_t``, the invariants that
``*`` keeps.
"""

from __future__ import annotations

__all__ = ["TriSeries"]


class TriSeries:
    """A t-adically truncated series with exact sparse coefficients.

    Invariants: no stored zero coefficients, all exponents nonnegative,
    and every stored term satisfies ``e_t <= trunc_t``.
    """

    __slots__ = ("_terms", "trunc_t")

    def __init__(self, terms: dict[tuple[int, int, int], int], trunc_t: int):
        self._terms = terms
        self.trunc_t = trunc_t

    @classmethod
    def one(cls, trunc_t: int) -> "TriSeries":
        return cls({(0, 0, 0): 1}, trunc_t)

    def __len__(self) -> int:
        return len(self._terms)

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
        acc: dict[tuple[int, int, int], int] = {}
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
        return TriSeries(acc, trunc)

    # -- extraction --------------------------------------------------------

    def layers(self) -> list[dict[tuple[int, int], int]]:
        """Every t-layer in one pass: entry n is the (e_x, e_y) -> coeff dict of t^n."""
        out = [{} for _ in range(self.trunc_t + 1)]
        for (ex, ey, et), value in self._terms.items():
            out[et][(ex, ey)] = value
        return out
