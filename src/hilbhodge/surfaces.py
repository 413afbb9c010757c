"""Input data model: surface Hodge tables, validation, presets, JSON input.

A computation consumes a :class:`TwistedTable`, the family of 3x3 tables
``h^{p,q}(S, L^k)`` for k = 0..K.  Presets ship only trivial-bundle data
(all powers of L equal the plain Hodge diamond): twisted tables for a
nontrivial bundle are never printed in the literature we rely on, so
users must supply those themselves.

JSON dataset schema (stable contract, ``diamonds[k][p][q] = h^{p,q}(S, L^k)``)::

    {"name": str,
     "max_power": K,
     "diamonds": [[[h00,h01,h02],[h10,h11,h12],[h20,h21,h22]], ...],  # K+1 entries
     "nested_diamonds": optional, same shape,
     "deformation": optional {"hT": [..], "hO": [..], "hW2": [..], "connected": bool},
     "kahler_symmetric": optional bool}
"""

from __future__ import annotations

import json
import os
from collections import namedtuple

__all__ = [
    "DeformationInput",
    "ParseError",
    "PRESET_NAMES",
    "SchemaError",
    "SurfaceDataError",
    "SurfaceDataset",
    "SurfaceDiamond",
    "TwistedTable",
    "UnknownPreset",
    "ValidationError",
    "load_dataset",
    "preset",
    "validate",
]


class SurfaceDataError(Exception):
    """Base class for dataset errors."""


class ParseError(SurfaceDataError):
    """The source text is not valid JSON."""


class SchemaError(SurfaceDataError):
    """The JSON is well formed but misses or misshapes required fields."""


class ValidationError(SurfaceDataError):
    """Structurally correct data violating a value invariant."""


class UnknownPreset(SurfaceDataError):
    """No built-in surface of the requested name."""


class SurfaceDiamond:
    """The 3x3 table h[p][q] of twisted Hodge numbers of a surface."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        grid = tuple(tuple(row) for row in rows)
        if len(grid) != 3 or any(len(row) != 3 for row in grid):
            raise ValidationError("a surface diamond is a 3x3 grid")
        for row in grid:
            for value in row:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValidationError(f"diamond entries must be ints, got {value!r}")
                if value < 0:
                    raise ValidationError(f"diamond entries must be nonnegative, got {value}")
        self._rows = grid

    def rows(self) -> tuple[tuple[int, int, int], ...]:
        return self._rows

    def bigraded(self) -> dict[tuple[int, int], int]:
        """Nonzero entries as a sparse (p, q) -> dimension map."""
        return {
            (p, q): self._rows[p][q]
            for p in range(3)
            for q in range(3)
            if self._rows[p][q]
        }

    def transposed(self) -> "SurfaceDiamond":
        return SurfaceDiamond(tuple(zip(*self._rows)))

    def is_symmetric(self) -> bool:
        return all(self._rows[p][q] == self._rows[q][p] for p in range(3) for q in range(3))

    def row_sums(self) -> tuple[int, int, int, int, int]:
        """Sums along p + q = i, the Betti numbers when the table is untwisted."""
        sums = [0] * 5
        for p in range(3):
            for q in range(3):
                sums[p + q] += self._rows[p][q]
        return tuple(sums)

    def chi_column(self, p: int) -> int:
        """Alternating q-sum of column p: the Euler characteristic chi(Omega^p x L^k)."""
        return sum((-1) ** q * self._rows[p][q] for q in range(3))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurfaceDiamond):
            return NotImplemented
        return self._rows == other._rows

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SurfaceDiamond({list(map(list, self._rows))!r})"


class TwistedTable:
    """The family k -> h^{p,q}(S, L^k) for k = 0..max_power."""

    __slots__ = ("_diamonds",)

    def __init__(self, diamonds):
        ds = tuple(diamonds)
        if not ds:
            raise ValidationError("a twisted table needs at least the k=0 diamond")
        for d in ds:
            if not isinstance(d, SurfaceDiamond):
                raise ValidationError("table entries must be SurfaceDiamond values")
        self._diamonds = ds

    @classmethod
    def constant(cls, diamond: SurfaceDiamond, max_power: int) -> "TwistedTable":
        """Table for a trivial bundle: every power has the same diamond."""
        return cls((diamond,) * (max_power + 1))

    @property
    def max_power(self) -> int:
        return len(self._diamonds) - 1

    def diamond(self, k: int) -> SurfaceDiamond:
        if not 0 <= k < len(self._diamonds):
            raise IndexError(
                f"power k={k} is outside the table's range 0..{self.max_power}"
            )
        return self._diamonds[k]

    def diamonds(self) -> tuple[SurfaceDiamond, ...]:
        return self._diamonds

    def is_constant(self) -> bool:
        return all(d == self._diamonds[0] for d in self._diamonds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwistedTable):
            return NotImplemented
        return self._diamonds == other._diamonds

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TwistedTable(max_power={self.max_power})"


class DeformationInput(namedtuple("DeformationInput", "hT hO hW2 connected")):
    """Cohomology dimensions feeding the deformation-theory formulas.

    hT = h^*(S, T_S), hO = h^{0,*}(S), hW2 = h^*(S, wedge^2 T_S), each a
    triple indexed by cohomological degree 0..2.
    """

    __slots__ = ()

    def __new__(
        cls,
        hT: tuple[int, int, int],
        hO: tuple[int, int, int],
        hW2: tuple[int, int, int],
        connected: bool = True,
    ) -> DeformationInput:
        for label, triple in (("hT", hT), ("hO", hO), ("hW2", hW2)):
            if len(triple) != 3:
                raise ValidationError(f"{label} must have three entries")
            for value in triple:
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    raise ValidationError(f"{label} entries must be nonnegative ints")
        return super().__new__(cls, hT, hO, hW2, connected)


class SurfaceDataset(
    namedtuple(
        "SurfaceDataset",
        "name table nested_table deformation kahler_symmetric",
        defaults=(None, None, False),
    )
):
    """A named surface-with-line-bundle(s) input.

    Fields: name (str), table (TwistedTable), nested_table (TwistedTable or
    None), deformation (DeformationInput or None), kahler_symmetric (bool).
    """

    __slots__ = ()

    @property
    def betti(self) -> tuple[int, int, int, int, int]:
        """Betti numbers of the surface, read off the untwisted k=0 diamond."""
        return self.table.diamond(0).row_sums()

    def nested_or_main(self) -> TwistedTable:
        """Table for L^j tensor L'; defaults to the main table (L' trivial)."""
        return self.nested_table if self.nested_table is not None else self.table


def _require(obj: dict, key: str, kind, what: str):
    if key not in obj:
        raise SchemaError(f"missing field {key!r} in {what}")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise SchemaError(f"field {key!r} must be an int")
    if not isinstance(value, kind):
        raise SchemaError(f"field {key!r} has the wrong type in {what}")
    return value


def _parse_diamonds(raw, what: str) -> TwistedTable:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{what} must be a nonempty list of 3x3 grids")
    diamonds = []
    for k, grid in enumerate(raw):
        if (
            not isinstance(grid, list)
            or len(grid) != 3
            or any(not isinstance(row, list) or len(row) != 3 for row in grid)
        ):
            raise SchemaError(f"{what}[{k}] is not a 3x3 grid")
        try:
            diamonds.append(SurfaceDiamond(grid))
        except ValidationError as exc:
            raise ValidationError(f"{what}[{k}]: {exc}") from None
    return TwistedTable(diamonds)


def load_dataset(path: str | os.PathLike) -> SurfaceDataset:
    """Load a dataset from the JSON file at ``path``; a string is always a path."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("not valid JSON: nesting too deep") from exc
    if not isinstance(obj, dict):
        raise SchemaError("dataset must be a JSON object")

    name = _require(obj, "name", str, "dataset")
    max_power = _require(obj, "max_power", int, "dataset")
    table = _parse_diamonds(_require(obj, "diamonds", list, "dataset"), "diamonds")
    if table.max_power != max_power:
        raise SchemaError(
            f"max_power={max_power} but diamonds has {table.max_power + 1} entries"
        )

    nested = None
    if "nested_diamonds" in obj:
        nested = _parse_diamonds(obj["nested_diamonds"], "nested_diamonds")

    deformation = None
    if "deformation" in obj:
        raw = obj["deformation"]
        if not isinstance(raw, dict):
            raise SchemaError("deformation must be an object")
        def triple(key: str) -> tuple[int, int, int]:
            value = _require(raw, key, list, "deformation")
            if len(value) != 3 or any(isinstance(v, bool) or not isinstance(v, int) for v in value):
                raise SchemaError(f"deformation.{key} must be three ints")
            return tuple(value)
        connected = raw.get("connected", True)
        if not isinstance(connected, bool):
            raise SchemaError("deformation.connected must be a bool")
        try:
            deformation = DeformationInput(triple("hT"), triple("hO"), triple("hW2"), connected)
        except ValidationError as exc:
            raise ValidationError(f"deformation.{exc}") from None

    kahler = obj.get("kahler_symmetric", False)
    if not isinstance(kahler, bool):
        raise SchemaError("kahler_symmetric must be a bool")

    dataset = SurfaceDataset(name, table, nested, deformation, kahler)
    validate(dataset)
    return dataset


def validate(dataset: SurfaceDataset) -> list[str]:
    """Check invariants; returns warnings, raises on hard violations.

    The only soft condition is the declared Kaehler symmetry: an
    asymmetric diamond under ``kahler_symmetric`` yields a warning, not
    an error.
    """
    warnings: list[str] = []
    if not dataset.name:
        raise ValidationError("dataset name must be nonempty")
    if dataset.kahler_symmetric:
        for k, diamond in enumerate(dataset.table.diamonds()):
            if not diamond.is_symmetric():
                warnings.append(
                    f"kahler_symmetric is set but diamond k={k} is asymmetric"
                )
                break
    return warnings


# -- presets ------------------------------------------------------------

_HOPF = SurfaceDiamond([[1, 1, 0], [0, 0, 0], [0, 1, 1]])

_PRESET_DIAMONDS: dict[str, SurfaceDiamond] = {
    "hopf": _HOPF,
    "inoue": _HOPF,
    "kodaira_secondary": _HOPF.transposed(),
    "k3": SurfaceDiamond([[1, 0, 1], [0, 20, 0], [1, 0, 1]]),
    "torus": SurfaceDiamond([[1, 2, 1], [2, 4, 2], [1, 2, 1]]),
    "enriques": SurfaceDiamond([[1, 0, 0], [0, 10, 0], [0, 0, 1]]),
    "bielliptic_ord2": SurfaceDiamond([[1, 1, 0], [1, 2, 1], [0, 1, 1]]),
    "bielliptic_ord3": SurfaceDiamond([[1, 1, 0], [1, 2, 1], [0, 1, 1]]),
    "p2": SurfaceDiamond([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
}

# h^*(T_S), h^{0,*}(S), h^*(wedge^2 T_S); shipped only where the classification
# pins them down.
_PRESET_DEFORMATIONS: dict[str, DeformationInput] = {
    "k3": DeformationInput((0, 20, 0), (1, 0, 1), (1, 0, 1)),
    "torus": DeformationInput((2, 4, 2), (1, 2, 1), (1, 2, 1)),
    "enriques": DeformationInput((0, 10, 0), (1, 0, 0), (0, 0, 1)),
    "bielliptic_ord2": DeformationInput((1, 2, 1), (1, 1, 0), (0, 1, 1)),
    "bielliptic_ord3": DeformationInput((1, 1, 0), (1, 1, 0), (0, 0, 0)),
    "p2": DeformationInput((8, 0, 0), (1, 0, 0), (10, 0, 0)),
}

_PRESET_KAHLER = {"k3", "torus", "enriques", "bielliptic_ord2", "bielliptic_ord3", "p2"}

PRESET_NAMES = tuple(sorted(_PRESET_DIAMONDS))


def preset(name: str, max_power: int = 24) -> SurfaceDataset:
    """A built-in surface with the trivial bundle: all powers share one diamond."""
    if name not in _PRESET_DIAMONDS:
        raise UnknownPreset(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    if max_power < 0:
        raise ValidationError("max_power must be nonnegative")
    table = TwistedTable.constant(_PRESET_DIAMONDS[name], max_power)
    return SurfaceDataset(
        name=name,
        table=table,
        nested_table=None,
        deformation=_PRESET_DEFORMATIONS.get(name),
        kahler_symmetric=name in _PRESET_KAHLER,
    )
