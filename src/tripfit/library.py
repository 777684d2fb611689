"""Protection-library files: base schemes, series combinations, fraction tables.

Library layout (JSON)::

    {
      "units": {"tau_break": "seconds", "v_threshold": "percent_of_nominal"},
      "base_schemes": {"P1": {"steps": [[0.05, 55.0], [0.8, 62.0]]}},
      "combinations": {"P1-P4-P5": ["P1", "P4", "P5"]},
      "motor_classes": ["A", "B", "C", "D"],
      "fraction_table": {"P2-P4": [0.09, 0.08, 0.0, 0.0]},
      "composites": {"mixed_commercial": {"P1": 0.15, "...": 0.85}}
    }

Steps are (tau_break seconds, v_threshold percent-of-nominal) staircase pairs.
A combination key must equal the sorted hyphen-join of its member names and
its zone is the union of the members' zones.  `fraction_table` rows carry one
load fraction per motor class; every class column must sum to 1.
`composites` are extra named fraction maps (used for ad-hoc test mixes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .protection import (
    FRACTION_SUM_TOL,
    CompositeProtection,
    ProtectionScheme,
    TripZone,
    combine_schemes,
)

EXPECTED_UNITS = {"tau_break": "seconds", "v_threshold": "percent_of_nominal"}

BUILTIN = "builtin"


@dataclass(frozen=True)
class ProtectionLibrary:
    """Parsed protection library: resolved schemes plus fraction tables."""

    schemes: dict[str, ProtectionScheme]
    motor_classes: tuple[str, ...]
    fraction_table: dict[str, tuple[float, ...]]
    composites: dict[str, dict[str, float]]
    source: str = "<memory>"

    def scheme(self, name: str) -> ProtectionScheme:
        try:
            return self.schemes[name]
        except KeyError:
            raise KeyError(f"unknown protection scheme {name!r} in library {self.source}") from None

    def targets(self) -> tuple[str, ...]:
        """Keys accepted by composite(): motor classes plus named composites."""
        return tuple(self.motor_classes) + tuple(sorted(self.composites))

    def composite(self, key: str) -> CompositeProtection:
        """Composite protection for a motor class letter or a named composite."""
        if key in self.motor_classes:
            col = self.motor_classes.index(key)
            fractions = {name: row[col] for name, row in self.fraction_table.items()}
        elif key in self.composites:
            fractions = self.composites[key]
        else:
            raise KeyError(f"unknown composite target {key!r}; have {self.targets()}")
        entries = tuple(
            (self.scheme(name), pi) for name, pi in fractions.items() if pi != 0.0
        )
        if not entries:
            raise ValueError(f"composite {key!r} has no nonzero fractions")
        return CompositeProtection(entries)


def _number(raw, where: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"{where} must be a number, got {raw!r}")
    return float(raw)


def _parse_steps(raw, where: str) -> TripZone:
    if not isinstance(raw, list):
        raise ValueError(f"{where}: steps must be a list of [tau_break, v_threshold] pairs")
    steps = []
    for k, pair in enumerate(raw):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ValueError(f"{where}: step {k} must be a [tau_break, v_threshold] pair")
        steps.append((_number(pair[0], f"{where}: step {k} tau_break"),
                      _number(pair[1], f"{where}: step {k} v_threshold")))
    try:
        return TripZone(tuple(steps))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _object(raw, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object")
    return raw


def parse_library(doc: dict, source: str = "<memory>") -> ProtectionLibrary:
    """Validate a decoded library document and resolve all schemes."""
    units = _object(doc, f"{source}: library document").get("units")
    if units != EXPECTED_UNITS:
        raise ValueError(
            f"{source}: units must be exactly {EXPECTED_UNITS} (got {units!r}); "
            "values are interpreted in those units"
        )

    schemes: dict[str, ProtectionScheme] = {}
    base = _object(doc.get("base_schemes", {}), f"{source}: base_schemes")
    if not base:
        raise ValueError(f"{source}: base_schemes must be non-empty")
    for name, entry in base.items():
        where = f"{source}: base_schemes[{name!r}]"
        zone = _parse_steps(_object(entry, where).get("steps", []), where)
        schemes[name] = ProtectionScheme(name, zone)

    for name, members in _object(doc.get("combinations", {}), f"{source}: combinations").items():
        if name in schemes:
            raise ValueError(f"{source}: combination {name!r} clashes with a base scheme")
        if not (isinstance(members, list) and all(isinstance(m, str) for m in members)):
            raise ValueError(f"{source}: combination {name!r} must be a list of base scheme "
                             f"names, got {members!r}")
        try:
            combined = combine_schemes([schemes[m] for m in members])
        except KeyError as exc:
            raise ValueError(f"{source}: combination {name!r} references unknown base {exc}") from None
        if combined.name != name:
            raise ValueError(
                f"{source}: combination key {name!r} must be the sorted hyphen-join "
                f"of its members ({combined.name!r})"
            )
        schemes[name] = combined

    motor_classes = doc.get("motor_classes", [])
    if not (isinstance(motor_classes, list) and all(isinstance(c, str) for c in motor_classes)):
        raise ValueError(f"{source}: motor_classes must be a list of names, got {motor_classes!r}")
    motor_classes = tuple(motor_classes)
    fraction_table: dict[str, tuple[float, ...]] = {}
    for name, row in _object(doc.get("fraction_table", {}), f"{source}: fraction_table").items():
        if name not in schemes:
            raise ValueError(f"{source}: fraction_table row {name!r} is not a known scheme")
        if not isinstance(row, list):
            raise ValueError(f"{source}: fraction_table[{name!r}] must be a list of fractions, "
                             f"got {row!r}")
        if len(row) != len(motor_classes):
            raise ValueError(
                f"{source}: fraction_table[{name!r}] must have one value per motor class "
                f"({len(motor_classes)}), got {len(row)}"
            )
        fraction_table[name] = tuple(_number(x, f"{source}: fraction_table[{name!r}]")
                                     for x in row)
    for col, motor in enumerate(motor_classes):
        total = sum(row[col] for row in fraction_table.values())
        if abs(total - 1.0) > FRACTION_SUM_TOL:
            raise ValueError(
                f"{source}: motor {motor!r} fractions sum to {total!r}, expected 1.0"
            )

    composites: dict[str, dict[str, float]] = {}
    for key, fractions in _object(doc.get("composites", {}), f"{source}: composites").items():
        if key in motor_classes:
            raise ValueError(f"{source}: composite {key!r} clashes with a motor class")
        for name in _object(fractions, f"{source}: composite {key!r}"):
            if name not in schemes:
                raise ValueError(f"{source}: composite {key!r} references unknown scheme {name!r}")
        values = {name: _number(x, f"{source}: composite {key!r}[{name!r}]")
                  for name, x in fractions.items()}
        total = sum(values.values())
        if abs(total - 1.0) > FRACTION_SUM_TOL:
            raise ValueError(f"{source}: composite {key!r} fractions sum to {total!r}, expected 1.0")
        composites[key] = values

    return ProtectionLibrary(schemes, motor_classes, fraction_table, composites, source)


def read_library(path: str | Path):
    """The decoded JSON document of a library file, or of the bundled one for 'builtin'."""
    path = Path(path)
    if str(path) == BUILTIN:
        text = resources.files("tripfit").joinpath("data/protection_library.json").read_text()
    else:
        text = path.read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def default_library() -> ProtectionLibrary:
    """The bundled illustrative library (example data, not field settings)."""
    return parse_library(read_library(BUILTIN), BUILTIN)
