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
load fraction per motor class, and `motor_classes` must be distinct.
`composites` are extra named fraction maps (used for ad-hoc test mixes).
Every class column and composite is checked by building its
CompositeProtection, so fractions lie in [0, 1] and sum to 1.  The document
and each base scheme are checked by sampling._object against their key tables
_LIBRARY and _SCHEME, as config files are: an unknown key is refused, and
`description` and a scheme's `label` are free text but must be strings.
Every base scheme needs `steps` (`[]` is a zone that never trips).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .protection import CompositeProtection, ProtectionScheme, TripZone, combine_schemes
from .sampling import _object, _typed

EXPECTED_UNITS = {"tau_break": "seconds", "v_threshold": "percent_of_nominal"}

BUILTIN = "builtin"

# The keys a library document and a base-scheme entry may hold, each with its type;
# units is compared with EXPECTED_UNITS as a whole.
_LIBRARY = {"description": str, "units": object, "base_schemes": dict, "combinations": dict,
            "motor_classes": tuple[str, ...], "fraction_table": dict[str, tuple[float, ...]],
            "composites": dict}
_SCHEME = {"label": str, "steps": tuple[tuple[float, float], ...]}


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
        return CompositeProtection(tuple(
            (self.scheme(name), pi) for name, pi in fractions.items() if pi != 0.0
        ))

    def with_composites(self, raw: dict, source: str | Path) -> ProtectionLibrary:
        """This library plus raw's named fraction maps, in order; errors name source, their file."""
        composites = dict(self.composites)
        library = replace(self, composites=composites)
        for key, fractions in raw.items():
            where = f"{source}: composite {key!r}"
            if key in self.motor_classes:
                raise ValueError(f"{where} clashes with a motor class")
            if key in composites:
                raise ValueError(f"{source}: composites[{key!r}] already defined by the library")
            fractions = _typed(dict[str, float], fractions, where)
            for name in fractions:
                if name not in self.schemes:
                    raise ValueError(f"{where} references unknown scheme {name!r}")
            composites[key] = fractions
            _check_composite(library, key, where)
        return library


def _check_composite(library: ProtectionLibrary, key: str, where: str) -> None:
    """Build key's composite, so CompositeProtection checks its fractions; errors name where."""
    try:
        library.composite(key)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def parse_library(doc: dict, source: str = "<memory>") -> ProtectionLibrary:
    """Validate a decoded library document and resolve all schemes."""
    doc = _object(_LIBRARY, doc, source, f"{source}: library document")
    units = doc.get("units")
    if units != EXPECTED_UNITS:
        raise ValueError(
            f"{source}: units must be exactly {EXPECTED_UNITS} (got {units!r}); "
            "values are interpreted in those units"
        )

    schemes: dict[str, ProtectionScheme] = {}
    base = doc.get("base_schemes", {})
    if not base:
        raise ValueError(f"{source}: base_schemes must be non-empty")
    for name, entry in base.items():
        where = f"{source}: base_schemes[{name!r}]"
        entry = _object(_SCHEME, entry, where)
        if "steps" not in entry:
            raise ValueError(f"{where}: missing field 'steps' ([] is a zone that never trips)")
        try:
            schemes[name] = ProtectionScheme(name, TripZone(entry["steps"]))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None

    for name, members in doc.get("combinations", {}).items():
        if name in schemes:
            raise ValueError(f"{source}: combination {name!r} clashes with a base scheme")
        members = _typed(tuple[str, ...], members, f"{source}: combination {name!r}")
        try:
            combined = combine_schemes([schemes[m] for m in members])
        except KeyError as exc:
            raise ValueError(f"{source}: combination {name!r} references unknown base {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{source}: combination {name!r}: {exc}") from None
        if combined.name != name:
            raise ValueError(
                f"{source}: combination key {name!r} must be the sorted hyphen-join "
                f"of its members ({combined.name!r})"
            )
        schemes[name] = combined

    motor_classes = doc.get("motor_classes", ())
    if len(set(motor_classes)) != len(motor_classes):
        raise ValueError(f"{source}: motor_classes must not repeat a name, "
                         f"got {list(motor_classes)!r}")
    table = doc.get("fraction_table", {})
    for name, row in table.items():
        if name not in schemes:
            raise ValueError(f"{source}: fraction_table row {name!r} is not a known scheme")
        if len(row) != len(motor_classes):
            raise ValueError(
                f"{source}: fraction_table[{name!r}] must have one value per motor class "
                f"({len(motor_classes)}), got {len(row)}"
            )
    library = ProtectionLibrary(schemes, motor_classes, table, {}, source)
    for motor in motor_classes:
        _check_composite(library, motor, f"{source}: motor {motor!r}")
    return library.with_composites(doc.get("composites", {}), source)


def _non_finite(name: str):
    raise ValueError(f"{name} is not a finite number")


def _decode_json(data: bytes, where) -> object:
    """The decoded JSON document, refusing NaN and +-Infinity; a ValueError names where.

    json detects the encoding of the bytes (UTF-8, -16 or -32, as RFC 8259
    allows), so the locale plays no part and a bad byte is a ValueError.
    """
    try:
        return json.loads(data, parse_constant=_non_finite)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def read_library(path: str | Path):
    """The decoded JSON document of a library file, or of the bundled one for 'builtin'."""
    path = Path(path)
    if str(path) == BUILTIN:
        data = resources.files("tripfit").joinpath("data/protection_library.json").read_bytes()
    else:
        data = path.read_bytes()
    return _decode_json(data, path)


def default_library() -> ProtectionLibrary:
    """The bundled illustrative library (example data, not field settings)."""
    return parse_library(read_library(BUILTIN), BUILTIN)
