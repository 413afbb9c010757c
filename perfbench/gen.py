"""Seeded input datasets for the benchmark workloads.

Every dataset is a JSON file in the schema ``hilbhodge --input`` reads.
Twisted tables are random but their cost is pinned: for each power k the
number of nonzero even-degree (p + q even) and odd-degree entries and
their totals are fixed functions of k, so the seed only moves dimensions
between bidegrees.  Free random entries would let one seed do twice the
work of another (each nonzero even entry is one inverted Euler factor).

The P^2 / O(1) table is exact, from Bott's formula: for k >= 1 the only
nonzero twisted Hodge numbers are
h^{p,0}(P^2, Omega^p(k)) = C(k+2, 2), k^2 - 1, C(k-1, 2).
"""

from __future__ import annotations

import json
from math import comb
from random import Random

EVEN_CELLS = ((0, 0), (0, 2), (1, 1), (2, 0), (2, 2))
ODD_CELLS = ((0, 1), (1, 0), (1, 2), (2, 1))

# h^*(T), h^{0,*}(O), h^*(wedge^2 T) of the projective plane
P2_DEFORMATION = {"hT": [8, 0, 0], "hO": [1, 0, 0], "hW2": [10, 0, 0], "connected": True}


def parity_budget(k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """((nonzero even cells, even total), (nonzero odd cells, odd total)) at power k."""
    return (3, 7 + k % 3), (2, 4 + k % 2)


def _spread(rng: Random, cells, count: int, total: int) -> dict:
    """Put ``total`` into ``count`` randomly chosen cells, each entry >= 1."""
    chosen = rng.sample(cells, count)
    cuts = sorted(rng.sample(range(1, total), count - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return dict(zip(chosen, sizes))


def twisted_diamond(rng: Random, k: int) -> list[list[int]]:
    (n_even, even), (n_odd, odd) = parity_budget(k)
    grid = [[0] * 3 for _ in range(3)]
    for cells, count, total in ((EVEN_CELLS, n_even, even), (ODD_CELLS, n_odd, odd)):
        for (p, q), value in _spread(rng, cells, count, total).items():
            grid[p][q] = value
    return grid


def twisted_dataset(rng: Random, name: str, max_power: int, nested: bool = False) -> dict:
    data = {
        "name": name,
        "max_power": max_power,
        "diamonds": [twisted_diamond(rng, k) for k in range(max_power + 1)],
    }
    if nested:
        data["nested_diamonds"] = [twisted_diamond(rng, k) for k in range(max_power + 1)]
    return data


def p2_o1_dataset(max_power: int) -> dict:
    diamonds = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    for k in range(1, max_power + 1):
        column = [comb(k + 2, 2), k * k - 1, comb(k - 1, 2)]
        diamonds.append([[column[p], 0, 0] for p in range(3)])
    return {
        "name": "p2_O1",
        "max_power": max_power,
        "diamonds": diamonds,
        "deformation": P2_DEFORMATION,
    }


def dumps(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"
