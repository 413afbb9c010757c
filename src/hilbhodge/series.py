"""Exact truncated formal power series in the commuting variables x, y, t.

Every generating function in this package lives in the truncated ring
``Q[x, y][[t]] / (t^(N+1))``: a sparse map from exponent triples
``(e_x, e_y, e_t)`` to exact coefficients, cut off t-adically at a fixed
order ``trunc_t = N``.  Coefficients are Python ints, with
:class:`fractions.Fraction` entering only through ``exp`` and inversion
by a non-unit constant; floats are rejected outright.  The layer of one
power of t, :meth:`TriSeries.coefficient_of_t`, is a plain
``{(e_x, e_y): coeff}`` dict.

Values are immutable after construction and every operation is a pure
function, so series can be shared freely across threads and coefficients
of independent t-orders can be consumed in parallel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

Coefficient = int | Fraction
Monomial = tuple[int, int, int]

__all__ = [
    "BadConstantTerm",
    "Coefficient",
    "FactorNotNormalized",
    "Monomial",
    "NonUnitConstantTerm",
    "SeriesError",
    "TriSeries",
    "TruncationExceeded",
    "UnsupportedSubstitution",
    "euler_product",
]


class SeriesError(Exception):
    """Base class for series arithmetic errors."""


class NonUnitConstantTerm(SeriesError):
    """Inversion of a series whose t^0 layer is not a nonzero constant."""


class BadConstantTerm(SeriesError):
    """exp applied to a series with a nonzero t^0 layer."""


class UnsupportedSubstitution(SeriesError):
    """Substitution target outside the supported sign/rename fragment."""


class TruncationExceeded(SeriesError):
    """A coefficient beyond the truncation order was requested."""


class FactorNotNormalized(SeriesError):
    """Euler-product factor at index k is not congruent to 1 modulo t^k."""


def _exact(value: Coefficient) -> Coefficient:
    """Normalize a coefficient: ints stay ints, integral Fractions collapse."""
    if isinstance(value, int):
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

    @classmethod
    def monomial(
        cls, coeff: Coefficient, ex: int, ey: int, et: int, trunc_t: int
    ) -> "TriSeries":
        return cls({(ex, ey, et): coeff}, trunc_t)

    def coefficient(self, ex: int, ey: int, et: int) -> Coefficient:
        return self._terms.get((ex, ey, et), 0)

    def sorted_terms(self) -> list[tuple[Monomial, Coefficient]]:
        """Terms in the canonical order (e_t, e_x, e_y), ascending."""
        return sorted(self._terms.items(), key=lambda kv: (kv[0][2], kv[0][0], kv[0][1]))

    def support(self) -> Iterator[Monomial]:
        return iter(self._terms)

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

    def __neg__(self) -> "TriSeries":
        return TriSeries._make({k: -v for k, v in self._terms.items()}, self.trunc_t)

    def __sub__(self, other: "TriSeries") -> "TriSeries":
        if not isinstance(other, TriSeries):
            return NotImplemented
        return self + (-other)

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

    def invert(self) -> "TriSeries":
        """Multiplicative inverse; needs the whole t^0 layer to be a unit."""
        constant = self._terms.get((0, 0, 0), 0)
        if not constant:
            raise NonUnitConstantTerm("constant term is zero")
        for ex, ey, et in self._terms:
            if et == 0 and (ex or ey):
                raise NonUnitConstantTerm(
                    "t^0 layer contains non-constant monomials"
                )
        # a = c0 (1 - u) with u supported in t-degree >= 1, so
        # a^-1 = c0^-1 sum u^j; accumulate with Horner's scheme.
        inv_c0: Coefficient = 1 if constant == 1 else Fraction(1, 1) / constant
        u_terms = {
            k: -v * inv_c0 for k, v in self._terms.items() if k != (0, 0, 0)
        }
        u = TriSeries._make(u_terms, self.trunc_t)
        one = TriSeries.one(self.trunc_t)
        result = one
        for _ in range(self.trunc_t):
            result = one + u * result
        return result._scale(inv_c0)

    def int_pow(self, exponent: int) -> "TriSeries":
        """Integer power by repeated squaring; negative powers invert first."""
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        if exponent < 0:
            return self.int_pow(-exponent).invert()
        result = TriSeries.one(self.trunc_t)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    __pow__ = int_pow

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

    # -- specialization and extraction -----------------------------------

    def substitute(self, assignment: Mapping[str, int | str]) -> "TriSeries":
        """Substitute x and/or y by a constant (0, 1, -1) or a signed variable.

        Supported targets: the ints 0, 1, -1 and the strings
        ``"x"``, ``"y"``, ``"-x"``, ``"-y"``.  Substitutions are applied
        simultaneously, so ``{"x": "y", "y": "x"}`` swaps the variables.
        """
        signed = {"x": (1, "x"), "y": (1, "y"), "-x": (-1, "x"), "-y": (-1, "y")}
        plans: dict[str, tuple[int, str | None]] = {}
        for var in ("x", "y"):
            target = assignment.get(var, var)
            if isinstance(target, bool):
                raise UnsupportedSubstitution(f"unsupported target {target!r}")
            if isinstance(target, int):
                if target not in (-1, 0, 1):
                    raise UnsupportedSubstitution(
                        f"constant target must be 0 or +-1, got {target}"
                    )
                plans[var] = (target, None)
            elif target in signed:
                plans[var] = signed[target]
            else:
                raise UnsupportedSubstitution(f"unsupported target {target!r}")
        for key in assignment:
            if key not in ("x", "y"):
                raise UnsupportedSubstitution(f"cannot substitute variable {key!r}")
        acc: dict[Monomial, Coefficient] = {}
        for (ex, ey, et), coeff in self._terms.items():
            nx = ny = 0
            dead = False
            for exponent, (sign, slot) in ((ex, plans["x"]), (ey, plans["y"])):
                if not exponent:
                    continue
                if slot is None:
                    if sign == 0:
                        dead = True
                        break
                    if sign == -1 and exponent % 2:
                        coeff = -coeff
                else:
                    if sign == -1 and exponent % 2:
                        coeff = -coeff
                    if slot == "x":
                        nx += exponent
                    else:
                        ny += exponent
            if dead:
                continue
            key = (nx, ny, et)
            total = acc.get(key, 0) + coeff
            if total:
                acc[key] = total
            else:
                acc.pop(key, None)
        return TriSeries._make(acc, self.trunc_t)

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


def euler_product(factor: Callable[[int], TriSeries], trunc_t: int) -> TriSeries:
    """Product over k = 1..trunc_t of factors with factor(k) = 1 mod t^k.

    The normalization guarantees that factors with k > trunc_t cannot
    contribute, so the finite product equals the infinite one up to the
    truncation order.  Factors are multiplied in descending k, which keeps
    the intermediate supports small; the result is order-independent.
    """
    result = TriSeries.one(trunc_t)
    for k in range(trunc_t, 0, -1):
        f = factor(k)
        if f.trunc_t < trunc_t:
            raise ValueError(
                f"factor {k} truncated at {f.trunc_t} < requested order {trunc_t}"
            )
        if f.coefficient(0, 0, 0) != 1:
            raise FactorNotNormalized(f"factor {k} has constant term != 1")
        for ex, ey, et in f.support():
            if et < k and (ex, ey, et) != (0, 0, 0):
                raise FactorNotNormalized(
                    f"factor {k} has a term of t-degree {et} < {k}"
                )
        result = result * f
    return result
