import functools
import operator
import re

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
    pytest.param("fraction_table", "P1", 1.0, "fraction_table['P1'] must be a list, got 1.0",
                 id="fraction_table-P1-1.0-fraction_table['P1'] must be a list, got 1.0"),
    pytest.param("fraction_table", "P1", [None],
                 "fraction_table['P1'] entry must be a real number, got None",
                 id="fraction_table-P1-value1-fraction_table['P1'] entry must be a real number, "
                    "got None"),
    pytest.param("combinations", "P1-P2", 5, "combination 'P1-P2' must be a list, got 5",
                 id="combinations-P1-P2-5-combination 'P1-P2' must be a list, got 5"),
    pytest.param("combinations", "P1-P2", [["P1"], "P2"],
                 "combination 'P1-P2' entry must be a string, got ['P1']",
                 id="combinations-P1-P2-value3-combination 'P1-P2' entry must be a string, got "
                    "['P1']"),
    pytest.param("base_schemes", "P2", {"steps": [[None, 60.0]]},
                 "<memory>: base_schemes['P2']: steps entry must be a real number, got None",
                 id="base_schemes-P2-value4-<memory>: base_schemes['P2']: steps entry must be a "
                    "real number, got None"),
    pytest.param("composites", "demo", {"P1": None},
                 "composite 'demo'['P1'] must be a real number, got None",
                 id="composites-demo-value5-composite 'demo'['P1'] must be a real number, got "
                    "None"),
    pytest.param("fraction_table", "P1", [-0.1],
                 "<memory>: motor 'A': fraction for 'P1' must be >= 0, got -0.1",
                 id="fraction_table-P1-value6-<memory>: motor 'A': fraction for 'P1' must be >= "
                    "0, got -0.1"),
    pytest.param("composites", "demo", {"P1": -0.5, "P1-P2": 1.5},
                 "<memory>: composite 'demo': fraction for 'P1' must be >= 0, got -0.5",
                 id="composites-demo-value7-<memory>: composite 'demo': fraction for 'P1' must "
                    "be >= 0, got -0.5"),
    pytest.param("composites", "demo", {"P1": 1.5, "P1-P2": -0.5},
                 "<memory>: composite 'demo': fraction for 'P1' must be <= 1, got 1.5",
                 id="composites-demo-value8-<memory>: composite 'demo': fraction for 'P1' must "
                    "be <= 1, got 1.5"),
    pytest.param("base_schemes", "", {"steps": [[0.1, 50.0]]},
                 "<memory>: base_schemes['']: scheme name must be non-empty",
                 id="base_schemes--value9-<memory>: base_schemes['']: scheme name must be "
                    "non-empty"),
    pytest.param("composites", "demo", {"P1": 10**400},
                 "<memory>: composite 'demo'['P1'] must be a finite number, got 1000",
                 id="composites-demo-value10-<memory>: composite 'demo'['P1'] must be a finite "
                    "number, got 1000"),
    pytest.param("base_schemes", "P2", {"step": [[0.2, 60.0]]},
                 "<memory>: base_schemes['P2']: unknown field(s) ['step']; known: ['label', "
                 "'steps']",
                 id="base_schemes-P2-value11-<memory>: base_schemes['P2']: unknown field(s) "
                    "['step']; known: ['label', 'steps']"),
    pytest.param("base_schemes", "P2", {"label": "relay"},
                 "<memory>: base_schemes['P2']: missing field 'steps' ([] is a zone that never "
                 "trips)",
                 id="base_schemes-P2-value12-<memory>: base_schemes['P2']: missing field 'steps' "
                    "([] is a zone that never trips)"),
    pytest.param("combinations", "P1", ["P1"],
                 "<memory>: combination 'P1' clashes with a base scheme",
                 id="combinations-P1-value13-<memory>: combination 'P1' clashes with a base "
                    "scheme"),
    pytest.param("fraction_table", "P1", [0.4, 0.6],
                 "<memory>: fraction_table['P1'] must have one value per motor class (1), got 2",
                 id="fraction_table-P1-value14-<memory>: fraction_table['P1'] must have one "
                    "value per motor class (1), got 2"),
    pytest.param("fraction_table", "P1", [float("inf")],
                 "<memory>: fraction_table['P1'] entry must be a finite number, got inf",
                 id="fraction_table-P1-value15-<memory>: fraction_table['P1'] entry must be a "
                    "finite number, got inf"),
])
def test_parse_rejects_mistyped_values(section, key, value, message):
    doc = _base_doc()
    doc[section][key] = value
    with pytest.raises(ValueError) as info:
        parse_library(doc)
    assert message in str(info.value)


@pytest.mark.parametrize("keys, message", [
    (("description",), "<memory>: description must be a string, got 5"),
    (("base_schemes", "P1", "label"), "<memory>: base_schemes['P1']: label must be a string, got 5"),
], ids=["description", "label"])
def test_parse_rejects_free_text_that_is_not_a_string(keys, message):
    doc = _base_doc()
    doc["base_schemes"]["P1"]["label"] = "relay"
    parse_library({**doc, "description": "two schemes"})
    functools.reduce(operator.getitem, keys[:-1], doc)[keys[-1]] = 5
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_library(doc)


@pytest.mark.parametrize("value, message", [
    (5, "<memory>: motor_classes must be a list, got 5"),
    (["A", "A"], "<memory>: motor_classes must not repeat a name, got ['A', 'A']"),
], ids=["not-a-list", "repeated-name"])
def test_parse_rejects_mistyped_motor_classes(value, message):
    doc = _base_doc()
    doc["motor_classes"] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_library(doc)


def test_load_library_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"units": }')
    with pytest.raises(ValueError, match="line 1"):
        read_library(path)


def test_composite_needs_nonzero_entries(library):
    with pytest.raises(KeyError):
        library.composite("Z")
