"""Brute-force reference implementations used for cross-validation.

These are deliberately naive: they enumerate basis multisets and term
pairs one by one, sharing no code path with the closed-form engine, and
they ship with the package so the ``verify`` command can run them on
user data.  Single-threaded, simplicity over speed.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import combinations_with_replacement

from .series import TriSeries

__all__ = ["TooLarge", "naive_mul", "super_sym_multiset"]

_DIMENSION_GUARD = 12


class TooLarge(Exception):
    """Refusing to enumerate: the input is beyond the brute-force guard."""


def super_sym_multiset(
    dims: Mapping[tuple[int, int], int], n: int
) -> dict[tuple[int, int], int]:
    """Bigraded dimensions of Sym^n of a super space by direct enumeration.

    A basis of the super symmetric power consists of the size-n multisets
    of basis vectors in which the odd ones (odd total degree) appear at
    most once.  Each admissible multiset contributes 1 in the sum of its
    bidegrees.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    basis: list[tuple[int, int]] = []
    for (p, q), v in sorted(dims.items()):
        if v < 0:
            raise ValueError("dimensions must be nonnegative")
        basis.extend([(p, q)] * v)
    if len(basis) > _DIMENSION_GUARD:
        raise TooLarge(
            f"total dimension {len(basis)} exceeds the guard {_DIMENSION_GUARD}"
        )
    odd = {
        index for index, (p, q) in enumerate(basis) if (p + q) % 2
    }
    counts: dict[tuple[int, int], int] = {}
    for combo in combinations_with_replacement(range(len(basis)), n):
        repeated_odd = any(
            combo[i] == combo[i + 1] and combo[i] in odd
            for i in range(len(combo) - 1)
        )
        if repeated_odd:
            continue
        sp = sum(basis[i][0] for i in combo)
        sq = sum(basis[i][1] for i in combo)
        counts[(sp, sq)] = counts.get((sp, sq), 0) + 1
    return counts


def naive_mul(a: TriSeries, b: TriSeries) -> TriSeries:
    """Schoolbook convolution product; the reference for TriSeries.__mul__."""
    trunc = min(a.trunc_t, b.trunc_t)
    terms: dict[tuple[int, int, int], int] = {}
    for (ax, ay, at), av in a.sorted_terms():
        for (bx, by, bt), bv in b.sorted_terms():
            if at + bt > trunc:
                continue
            key = (ax + bx, ay + by, at + bt)
            terms[key] = terms.get(key, 0) + av * bv
    return TriSeries(terms, trunc)
