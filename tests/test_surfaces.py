"""Dataset model: presets, validation, JSON round trips."""

import json

import pytest

from hilbhodge.surfaces import (
    DeformationInput,
    ParseError,
    PRESET_NAMES,
    SchemaError,
    SurfaceDataset,
    SurfaceDiamond,
    TwistedTable,
    UnknownPreset,
    ValidationError,
    load_dataset,
    preset,
    serialize,
    validate,
)


def test_preset_names_are_complete():
    assert set(PRESET_NAMES) == {
        "hopf",
        "inoue",
        "kodaira_secondary",
        "k3",
        "torus",
        "enriques",
        "bielliptic_ord2",
        "bielliptic_ord3",
        "p2",
    }


def test_hopf_diamond_matches_hodge_polynomial():
    # 1 + y + x^2 y + x^2 y^2
    d = preset("hopf").table.diamond(0)
    assert d.bigraded() == {(0, 0): 1, (0, 1): 1, (2, 1): 1, (2, 2): 1}


def test_hopf_table_is_constant():
    ds = preset("hopf", max_power=5)
    assert ds.table.max_power == 5
    assert ds.table.is_constant()


def test_kodaira_secondary_is_hopf_transposed():
    hopf = preset("hopf").table.diamond(0)
    kodaira = preset("kodaira_secondary").table.diamond(0)
    assert kodaira == hopf.transposed()
    assert kodaira.bigraded() == {(0, 0): 1, (1, 0): 1, (1, 2): 1, (2, 2): 1}


def test_torus_deformation_block():
    din = preset("torus").deformation
    assert din == DeformationInput((2, 4, 2), (1, 2, 1), (1, 2, 1))


def test_betti_is_derived_from_row_sums():
    assert preset("hopf").betti == (1, 1, 0, 1, 1)
    assert preset("k3").betti == (1, 0, 22, 0, 1)
    assert preset("torus").betti == (1, 4, 6, 4, 1)
    assert preset("enriques").betti == (1, 0, 10, 0, 1)
    assert preset("bielliptic_ord2").betti == (1, 2, 2, 2, 1)


def test_every_preset_validates_cleanly():
    for name in PRESET_NAMES:
        ds = preset(name, max_power=4)
        assert validate(ds) == []


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        preset("fake_surface")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_serialize_round_trip(name):
    ds = preset(name, max_power=3)
    loaded = load_dataset(serialize(ds))
    assert loaded == ds
    # and a second pass is byte-identical
    assert serialize(loaded) == serialize(ds)


def test_load_dataset_from_file(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(serialize(preset("torus", max_power=2)))
    ds = load_dataset(str(path))
    assert ds.name == "torus"
    assert ds.table.max_power == 2
    assert load_dataset(path) == ds  # a path object reads the same file


def test_load_rejects_garbage():
    with pytest.raises(ParseError):
        load_dataset("{not json")
    nested = "[" * 200_000 + "]" * 200_000
    deep = '{"name": "x", "max_power": 0, "diamonds": ' + nested + "}"
    with pytest.raises(ParseError, match="nesting too deep"):
        load_dataset(deep)


def test_load_rejects_empty_table():
    with pytest.raises(SchemaError):
        load_dataset(json.dumps({"name": "s", "max_power": 0, "diamonds": []}))


def test_load_rejects_missing_fields():
    with pytest.raises(SchemaError):
        load_dataset(json.dumps({"name": "s"}))


def test_load_rejects_max_power_mismatch():
    grid = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    with pytest.raises(SchemaError):
        load_dataset(
            json.dumps({"name": "s", "max_power": 3, "diamonds": [grid]})
        )


def test_load_rejects_negative_entry():
    grid = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
    with pytest.raises(ValidationError):
        load_dataset(
            json.dumps({"name": "s", "max_power": 0, "diamonds": [grid]})
        )


def test_kahler_flag_warns_on_asymmetric_diamond():
    ds = SurfaceDataset(
        name="bad",
        table=TwistedTable.constant(preset("hopf").table.diamond(0), 1),
        kahler_symmetric=True,
    )
    report = validate(ds)
    assert len(report) == 1
    assert "asymmetric" in report[0]


def test_diamond_shape_errors():
    with pytest.raises(ValidationError):
        SurfaceDiamond([[1, 0], [0, 0]])
    with pytest.raises(ValidationError):
        SurfaceDiamond([[1, 0, 0.5], [0, 0, 0], [0, 0, 0]])


def test_table_requires_power_zero():
    with pytest.raises(ValidationError):
        TwistedTable([])


def test_table_rejects_powers_outside_its_range():
    table = preset("k3", max_power=2).table
    for k in (-1, 3):
        with pytest.raises(IndexError, match=f"k={k}"):
            table.diamond(k)


def test_nested_or_main_defaults_to_main():
    ds = preset("k3", max_power=2)
    assert ds.nested_table is None
    assert ds.nested_or_main() is ds.table


def test_deformation_input_validation():
    with pytest.raises(ValidationError):
        DeformationInput((1, 2), (1, 0, 0), (0, 0, 0))
    with pytest.raises(ValidationError):
        DeformationInput((1, 2, -3), (1, 0, 0), (0, 0, 0))


# -- the record types: construction, equality, hash, repr, read-only fields --

K3_DEFORMATION_REPR = (
    "DeformationInput(hT=(0, 20, 0), hO=(1, 0, 1), hW2=(1, 0, 1), connected=True)"
)


def test_deformation_input_contract():
    din = DeformationInput(hT=(0, 20, 0), hO=(1, 0, 1), hW2=(1, 0, 1))
    assert din.connected is True
    assert repr(din) == K3_DEFORMATION_REPR
    assert din == DeformationInput((0, 20, 0), (1, 0, 1), (1, 0, 1), True)
    assert din == preset("k3").deformation
    assert hash(din) == hash(preset("k3").deformation)
    disconnected = DeformationInput((0, 20, 0), (1, 0, 1), (1, 0, 1), connected=False)
    assert din != disconnected
    assert len({din, disconnected, preset("k3").deformation}) == 2
    with pytest.raises(AttributeError):
        din.hT = (0, 0, 0)
    with pytest.raises(AttributeError):
        din.extra = 1


def test_deformation_input_validation_messages():
    with pytest.raises(ValidationError, match="^hO must have three entries$"):
        DeformationInput((0, 1, 0), (1, 0), (0, 0, 0))
    for bad in (-1, True, 1.0):
        with pytest.raises(ValidationError, match="^hW2 entries must be nonnegative ints$"):
            DeformationInput((0, 1, 0), (1, 0, 0), (0, bad, 0))


def test_preset_deformation_blocks_stay_read_only():
    shared = preset("k3").deformation
    assert preset("k3", max_power=1).deformation is shared
    with pytest.raises(AttributeError):
        shared.hT = (0, 0, 0)
    assert repr(preset("k3").deformation) == K3_DEFORMATION_REPR


def test_surface_dataset_contract():
    table = preset("k3", max_power=1).table
    ds = SurfaceDataset(name="k3", table=table)
    assert (ds.nested_table, ds.deformation, ds.kahler_symmetric) == (None, None, False)
    assert repr(preset("k3", max_power=1)) == (
        "SurfaceDataset(name='k3', table=TwistedTable(max_power=1), nested_table=None, "
        f"deformation={K3_DEFORMATION_REPR}, kahler_symmetric=True)"
    )
    assert ds == SurfaceDataset("k3", preset("k3", max_power=1).table, None, None, False)
    assert ds != SurfaceDataset(name="k3", table=table, kahler_symmetric=True)
    assert preset("k3", max_power=1) == preset("k3", max_power=1)
    # a table has no hash, so neither has a dataset holding one
    with pytest.raises(TypeError, match="unhashable type: 'TwistedTable'"):
        hash(ds)
    with pytest.raises(AttributeError):
        ds.name = "other"
    with pytest.raises(AttributeError):
        ds.extra = 1
