"""Project configuration: one JSON file driving the whole pipeline.

README's Configuration section lists every key, and `tripfit validate`
prints every effective value, defaults included.  The global seed feeds
every stochastic stage; named RNG streams keep them independent, and a
`seed` inside a section is rejected.  Every other integer setting is a
count, and one too large for numpy to size an array by is rejected.  The
fully materialized configuration is echoed into every output file, so any
artifact can be re-derived exactly.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .evaluation import UncertaintySpec
from .library import BUILTIN, ProtectionLibrary, _decode_json, parse_library, read_library
from .regression import FitConfig, SmoothingConfig
from .sampling import SamplerConfig, _hints, _object, _typed

# The sections that configure one pipeline stage each, by the dataclass that validates them.
_SECTIONS = {
    "sampler": SamplerConfig,
    "smoothing": SmoothingConfig,
    "fit": FitConfig,
    "uncertainty": UncertaintySpec,
}

# The keys of a config file, each with its type; the seed is typed once --seed has had its say.
_CONFIG = {"protection_library": str, "output_dir": str, "seed": object, "composites": dict,
           **dict.fromkeys(_SECTIONS, dict)}


class ConfigError(ValueError):
    """A configuration file failed to parse or validate."""


def _build(cls, raw: dict, where: str, seed: int):
    """The section's dataclass from its JSON object, given the global seed if it has a seed field.

    Each integer field other than the seed is a count, refused past
    sys.maxsize, numpy's largest array size (its intp is a Py_ssize_t).
    """
    if "seed" in raw:
        raise ValueError(f"{where}: 'seed' is set at the top level only")
    hints = _hints(cls)
    fields = _object({name: hint for name, hint in hints.items() if name != "seed"}, raw, where)
    try:
        section = cls(**fields, **({"seed": seed} if "seed" in hints else {}))
        for name, hint in hints.items():
            if hint is int and name != "seed" and getattr(section, name) > sys.maxsize:
                raise ValueError(f"{name} must be at most {sys.maxsize}, "
                                 f"got {getattr(section, name)}")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None
    return section


@dataclass(frozen=True)
class ProjectConfig:
    library: ProtectionLibrary
    sampler: SamplerConfig
    smoothing: SmoothingConfig
    fit: FitConfig
    uncertainty: UncertaintySpec
    output_dir: Path
    seed: int
    echo: dict

    def composite_for(self, key: str):
        try:
            return self.library.composite(key)
        except KeyError as exc:
            raise ConfigError(str(exc)) from None


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    out_override: str | Path | None = None,
) -> ProjectConfig:
    """Parse and fully validate a project configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = _object(_CONFIG, _decode_json(path.read_bytes(), path), path, f"{path}: top level")
        seed = _typed(int, seed_override if seed_override is not None else doc.get("seed", 0),
                      f"{path}: seed")
        if seed < 0:
            raise ValueError(f"{path}: seed must be >= 0, got {seed}")

        lib_ref = doc.get("protection_library", BUILTIN)
        lib_path = lib_ref if lib_ref == BUILTIN else str((path.parent / lib_ref).resolve())
        try:
            library = parse_library(read_library(lib_path), source=lib_path)
        except (OSError, ValueError) as exc:
            raise ValueError(f"{path}: protection_library: {exc}") from None
        # The config's own composites are checked by the same code, under this file's name.
        library = library.with_composites(doc.get("composites", {}), path)

        sections = {name: _build(cls, doc.get(name, {}), f"{path}: {name}", seed)
                    for name, cls in _SECTIONS.items()}
        for key in ("targets", "matrix_targets"):
            for name in getattr(sections["uncertainty"], key) or ():
                if name not in library.schemes:
                    raise ValueError(f"{path}: uncertainty.{key}: unknown scheme {name!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    out_dir = Path(out_override) if out_override is not None else Path(doc.get("output_dir", "out"))
    echo = {
        "protection_library": lib_ref,
        "output_dir": str(out_dir),
        "seed": seed,
        **{name: {k: v for k, v in dataclasses.asdict(section).items() if k != "seed"}
           for name, section in sections.items()},
        "composites": library.composites,
    }
    # Read back from JSON, as the copy stored in fit_*.json is, so tuples become lists.
    return ProjectConfig(library, **sections, output_dir=out_dir, seed=seed,
                         echo=json.loads(json.dumps(echo)))
