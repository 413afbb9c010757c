"""Exact truncated formal power series in the commuting variables x, y, t.

Every generating function in this package lives in the truncated ring
``Q[x, y][[t]] / (t^(N+1))``: a sparse map from exponent triples
``(e_x, e_y, e_t)`` to exact coefficients, cut off t-adically at a fixed
order ``trunc_t = N``.  Coefficients are Python ints, with
:class:`fractions.Fraction` entering only through ``exp``; floats and
bools are rejected outright.  The layer of one power of t,
:meth:`TriSeries.coefficient_of_t`, is a plain ``{(e_x, e_y): coeff}``
dict; :meth:`TriSeries.layers` splits off all of them in one pass.

Values are immutable after construction and every operation is a pure
function, so series can be shared freely across threads and coefficients
of independent t-orders can be consumed in parallel.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

Coefficient = int | Fraction
Monomial = tuple[int, int, int]

__all__ = [
    "BadConstantTerm",
    "Coefficient",
    "Monomial",
    "SeriesError",
    "TriSeries",
    "TruncationExceeded",
]


class SeriesError(Exception):
    """Base class for series arithmetic errors."""


class BadConstantTerm(SeriesError):
    """exp applied to a series with a nonzero t^0 layer."""


class TruncationExceeded(SeriesError):
    """A coefficient beyond the truncation order was requested."""


def _exact(value: Coefficient) -> Coefficient:
    """Normalize a coefficient: ints stay ints, integral Fractions collapse."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(
        f"coefficients must be int or Fraction, got {type(value).__name__}"
    )


def _format_terms(terms: Iterable[tuple[Coefficient, list[tuple[str, int]]]]) -> str:
    """Render (coefficient, [(symbol, exponent), ...]) pairs as a polynomial."""
    pieces: list[str] = []
    for coeff, powers in terms:
        factors = []
        for symbol, exponent in powers:
            if exponent == 1:
                factors.append(symbol)
            elif exponent:
                factors.append(f"{symbol}^{exponent}")
        negative = coeff < 0
        magnitude = -coeff if negative else coeff
        if magnitude != 1 or not factors:
            factors.insert(0, str(magnitude))
        text = "*".join(factors)
        if not pieces:
            pieces.append(f"-{text}" if negative else text)
        else:
            pieces.append(f"- {text}" if negative else f"+ {text}")
    return " ".join(pieces) if pieces else "0"


class TriSeries:
    """A t-adically truncated series with exact sparse coefficients.

    Invariants: no stored zero coefficients, all exponents nonnegative,
    and every stored term satisfies ``e_t <= trunc_t``.
    """

    __slots__ = ("_terms", "trunc_t")

    def __init__(self, terms: Mapping[Monomial, Coefficient], trunc_t: int):
        if trunc_t < 0:
            raise ValueError("truncation order must be nonnegative")
        clean: dict[Monomial, Coefficient] = {}
        for (ex, ey, et), value in terms.items():
            if ex < 0 or ey < 0 or et < 0:
                raise ValueError(f"negative exponent in {(ex, ey, et)}")
            if et > trunc_t:
                continue
            value = _exact(value)
            if value:
                clean[(ex, ey, et)] = value
        self._terms = clean
        self.trunc_t = trunc_t

    @classmethod
    def _make(cls, terms: dict[Monomial, Coefficient], trunc_t: int) -> "TriSeries":
        """Internal constructor; ``terms`` must already satisfy the invariants."""
        if trunc_t < 0:
            raise ValueError("truncation order must be nonnegative")
        self = object.__new__(cls)
        for key, value in terms.items():
            if isinstance(value, Fraction) and value.denominator == 1:
                terms[key] = value.numerator
        self._terms = terms
        self.trunc_t = trunc_t
        return self

    @classmethod
    def zero(cls, trunc_t: int) -> "TriSeries":
        return cls._make({}, trunc_t)

    @classmethod
    def one(cls, trunc_t: int) -> "TriSeries":
        return cls._make({(0, 0, 0): 1}, trunc_t)

    def coefficient(self, ex: int, ey: int, et: int) -> Coefficient:
        return self._terms.get((ex, ey, et), 0)

    def sorted_terms(self) -> list[tuple[Monomial, Coefficient]]:
        """Terms in the canonical order (e_t, e_x, e_y), ascending."""
        return sorted(self._terms.items(), key=lambda kv: (kv[0][2], kv[0][0], kv[0][1]))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriSeries):
            return NotImplemented
        return self.trunc_t == other.trunc_t and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TriSeries({len(self._terms)} terms, trunc_t={self.trunc_t})"

    def __str__(self) -> str:
        rendered = _format_terms(
            (coeff, [("x", ex), ("y", ey), ("t", et)])
            for (ex, ey, et), coeff in self.sorted_terms()
        )
        return f"{rendered} + O(t^{self.trunc_t + 1})"

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "TriSeries") -> "TriSeries":
        if not isinstance(other, TriSeries):
            return NotImplemented
        trunc = min(self.trunc_t, other.trunc_t)
        acc = {k: v for k, v in self._terms.items() if k[2] <= trunc}
        for key, value in other._terms.items():
            if key[2] > trunc:
                continue
            total = acc.get(key, 0) + value
            if total:
                acc[key] = total
            else:
                acc.pop(key, None)
        return TriSeries._make(acc, trunc)

    def _scale(self, scalar: Coefficient) -> "TriSeries":
        scalar = _exact(scalar)
        if not scalar:
            return TriSeries.zero(self.trunc_t)
        return TriSeries._make(
            {k: v * scalar for k, v in self._terms.items()}, self.trunc_t
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
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
        acc: dict[Monomial, Coefficient] = {}
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

    __rmul__ = __mul__

    def exp(self) -> "TriSeries":
        """Exponential of a series supported in t-degree >= 1."""
        if any(et == 0 for (_, _, et) in self._terms):
            raise BadConstantTerm("exp requires every term to have e_t >= 1")
        # F = exp(A) solves t F' = (t A') F, that is n F_n = sum_j (j A_j) F_{n-j}
        # on t-layers; j A_j stays an int wherever j clears A_j's denominator
        weighted: list[list[tuple[int, int, Coefficient]]] = [
            [] for _ in range(self.trunc_t + 1)
        ]
        for (ex, ey, et), value in self._terms.items():
            weighted[et].append((ex, ey, _exact(et * value)))
        layers: list[dict[tuple[int, int], Coefficient]] = [{(0, 0): 1}]
        for n in range(1, self.trunc_t + 1):
            acc: dict[tuple[int, int], Coefficient] = {}
            for j in range(1, n + 1):
                previous = layers[n - j].items()
                for ax, ay, av in weighted[j]:
                    for (fx, fy), fv in previous:
                        key = (ax + fx, ay + fy)
                        acc[key] = acc.get(key, 0) + av * fv
            layers.append(
                {key: _exact(Fraction(v, n)) for key, v in acc.items() if v}
            )
        return TriSeries._make(
            {
                (ex, ey, n): value
                for n, layer in enumerate(layers)
                for (ex, ey), value in layer.items()
            },
            self.trunc_t,
        )

    # -- extraction --------------------------------------------------------

    def layers(self) -> list[dict[tuple[int, int], Coefficient]]:
        """Every t-layer in one pass: entry n is :meth:`coefficient_of_t` of n."""
        out = [{} for _ in range(self.trunc_t + 1)]
        for (ex, ey, et), value in self._terms.items():
            out[et][(ex, ey)] = value
        return out

    def coefficient_of_t(self, n: int) -> dict[tuple[int, int], Coefficient]:
        """The exact (x, y)-polynomial multiplying t^n: an (e_x, e_y) -> coeff dict."""
        if n < 0 or n > self.trunc_t:
            raise TruncationExceeded(
                f"t^{n} is outside the computed range 0..{self.trunc_t}"
            )
        return {(ex, ey): v for (ex, ey, et), v in self._terms.items() if et == n}

    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return all(
            not isinstance(v, Fraction) or v.denominator == 1
            for v in self._terms.values()
        )
