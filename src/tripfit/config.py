"""Project configuration: one JSON file driving the whole pipeline.

Layout (all sections optional except protection_library; defaults shown by
`tripfit validate`)::

    {
      "protection_library": "builtin",          // or a path, relative to this file
      "output_dir": "out",
      "seed": 20240501,
      "sampler":   {"beta_tau": 1.0, "beta_v": 0.1, "weight_threshold": 0.5,
                    "n_train": 200, "m_eval": 5000},
      "smoothing": {"continuation_schedule": [[10.0, 0.4], [50.0, 2.0], [250.0, 10.0]]},
      "fit":       {"n_starts": 20, "max_iters": 400, "gtol": 1e-5, "ptol": 1e-12},
      "uncertainty": {"gamma_levels": [0.1, ..., 0.8], "targets": [],
                      "trials": 200, "refit": false, "m_eval": 2000,
                      "matrix_targets": ["P2", "P1-P4-P5"]},
      "composites": {}                           // extra named fraction maps
    }

The global seed feeds every stochastic stage; named RNG streams keep them
independent, and a `seed` inside a section is rejected.  The fit's steepness
is set by `smoothing.continuation_schedule` alone: one (alpha_tau, alpha_v)
pair per stage, a single pair for a fit without continuation.  The fully
materialized configuration is echoed into every output file, so any artifact
can be re-derived exactly.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .evaluation import UncertaintySpec
from .library import BUILTIN, ProtectionLibrary, _decode_json, parse_library, read_library
from .regression import FitConfig, SmoothingConfig
from .sampling import SamplerConfig, _known, _typed

# The sections that configure one pipeline stage each, by the dataclass that validates them.
_SECTIONS = {
    "sampler": SamplerConfig,
    "smoothing": SmoothingConfig,
    "fit": FitConfig,
    "uncertainty": UncertaintySpec,
}


class ConfigError(ValueError):
    """A configuration file failed to parse or validate."""


def _build(cls, raw, where: str, seed: int):
    """The section's dataclass, given the global seed if it has a seed field."""
    fields = {f.name for f in dataclasses.fields(cls)}
    if "seed" in _typed(dict, raw, where):
        raise ValueError(f"{where}: 'seed' is set at the top level only")
    _known(raw, fields - {"seed"}, where)
    try:
        return cls(**raw, **({"seed": seed} if "seed" in fields else {}))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


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
        doc = _typed(dict, _decode_json(path.read_bytes(), path), f"{path}: top level")
        _known(doc, ("protection_library", "output_dir", "seed", "composites", *_SECTIONS), path)
        for key in ("protection_library", "output_dir"):
            _typed(str, doc.get(key, ""), f"{path}: {key}")
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
