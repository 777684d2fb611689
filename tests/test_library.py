import numpy as np
import pytest

from tripfit import parse_library
from tripfit.library import read_library


def test_default_library_targets(library):
    assert library.targets() == ("A", "B", "C", "D", "mixed_commercial")
    assert set(library.schemes) >= {"P1", "P2", "P3", "P4", "P5", "P1-P4-P5"}


def test_motor_fraction_columns_sum_to_one(library):
    for col, motor in enumerate(library.motor_classes):
        total = sum(row[col] for row in library.fraction_table.values())
        assert total == pytest.approx(1.0, abs=1e-9), motor


def test_motor_c_is_single_scheme(library):
    comp = library.composite("C")
    assert comp.names == ("P2-P5",)
    assert comp.fractions[0] == 1.0


def test_combination_zones_are_unions(library):
    for name in ("P2-P4", "P1-P4-P5", "P3-P4-P5"):
        combo = library.scheme(name)
        members = [library.scheme(part) for part in name.split("-")]
        tau = np.linspace(0, 5, 101)[:, None]
        v = np.linspace(0, 100, 101)[None, :]
        member_any = np.zeros((101, 101), dtype=bool)
        for m in members:
            member_any |= m.zone.contains(tau, v)
        assert np.array_equal(combo.zone.contains(tau, v), member_any)


def _base_doc():
    return {
        "units": {"tau_break": "seconds", "v_threshold": "percent_of_nominal"},
        "base_schemes": {
            "P1": {"steps": [[0.1, 50.0]]},
            "P2": {"steps": [[0.2, 60.0]]},
        },
        "combinations": {"P1-P2": ["P1", "P2"]},
        "motor_classes": ["A"],
        "fraction_table": {"P1": [0.4], "P1-P2": [0.6]},
        "composites": {},
    }


def test_parse_rejects_bad_units():
    doc = _base_doc()
    doc["units"] = {"tau_break": "ms", "v_threshold": "percent_of_nominal"}
    with pytest.raises(ValueError, match="units"):
        parse_library(doc)


def test_parse_rejects_misnamed_combination():
    doc = _base_doc()
    doc["combinations"] = {"P2-P1": ["P1", "P2"]}
    with pytest.raises(ValueError, match="sorted hyphen-join"):
        parse_library(doc)


def test_parse_rejects_unknown_member():
    doc = _base_doc()
    doc["combinations"] = {"P1-P9": ["P1", "P9"]}
    with pytest.raises(ValueError, match="unknown base"):
        parse_library(doc)


def test_parse_rejects_bad_column_sum():
    doc = _base_doc()
    doc["fraction_table"]["P1"] = [0.5]
    with pytest.raises(ValueError, match="sum to"):
        parse_library(doc)


def test_parse_rejects_unknown_table_row():
    doc = _base_doc()
    doc["fraction_table"]["P9"] = [0.0]
    with pytest.raises(ValueError, match="not a known scheme"):
        parse_library(doc)


def test_parse_rejects_bad_composite_sum():
    doc = _base_doc()
    doc["composites"] = {"demo": {"P1": 0.5, "P2": 0.4}}
    with pytest.raises(ValueError, match="sum to"):
        parse_library(doc)


@pytest.mark.parametrize("section, key, value, message", [
    ("fraction_table", "P1", 1.0, "fraction_table['P1'] must be a list of fractions, got 1.0"),
    ("fraction_table", "P1", [None], "fraction_table['P1'] must be a number, got None"),
    ("combinations", "P1-P2", 5, "combination 'P1-P2' must be a list of base scheme names"),
    ("combinations", "P1-P2", [["P1"], "P2"], "combination 'P1-P2' must be a list"),
    ("base_schemes", "P2", {"steps": [[None, 60.0]]}, "step 0 tau_break must be a number"),
    ("composites", "demo", {"P1": None}, "composite 'demo'['P1'] must be a number, got None"),
])
def test_parse_rejects_mistyped_values(section, key, value, message):
    doc = _base_doc()
    doc[section][key] = value
    with pytest.raises(ValueError) as info:
        parse_library(doc)
    assert message in str(info.value)


def test_parse_rejects_mistyped_motor_classes():
    doc = _base_doc()
    doc["motor_classes"] = 5
    with pytest.raises(ValueError, match="motor_classes must be a list of names, got 5"):
        parse_library(doc)


def test_load_library_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"units": }')
    with pytest.raises(ValueError, match="line 1"):
        read_library(path)


def test_composite_needs_nonzero_entries(library):
    with pytest.raises(KeyError):
        library.composite("Z")
