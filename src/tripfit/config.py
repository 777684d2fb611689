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
from .sampling import SamplerConfig

# The sections that configure one pipeline stage each, by the dataclass that validates them.
_SECTIONS = {
    "sampler": SamplerConfig,
    "smoothing": SmoothingConfig,
    "fit": FitConfig,
    "uncertainty": UncertaintySpec,
}


class ConfigError(ValueError):
    """A configuration file failed to parse or validate."""


def _section(doc: dict, name: str, where: str) -> dict:
    raw = doc.get(name, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: section {name!r} must be an object")
    return dict(raw)


def _build(cls, raw: dict, where: str, seed: int):
    """The section's dataclass, given the global seed if it has a seed field."""
    if "seed" in raw:
        raise ConfigError(f"{where}: 'seed' is set at the top level only")
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(raw) - fields
    if unknown:
        raise ConfigError(
            f"{where}: unknown field(s) {sorted(unknown)}; known: {sorted(fields - {'seed'})}"
        )
    try:
        return cls(**raw, **({"seed": seed} if "seed" in fields else {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


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
        except (KeyError, ValueError) as exc:
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
        doc = _decode_json(path.read_bytes(), path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    unknown = set(doc) - {"protection_library", "output_dir", "seed", "composites", *_SECTIONS}
    if unknown:
        raise ConfigError(f"{path}: unknown top-level field(s) {sorted(unknown)}")
    for key in ("protection_library", "output_dir"):
        if not isinstance(doc.get(key, ""), str):
            raise ConfigError(f"{path}: {key} must be a string")

    # The config's composites join the library document, so it is parsed once.
    lib_ref = doc.get("protection_library", BUILTIN)
    lib_path = lib_ref if lib_ref == BUILTIN else str((path.parent / lib_ref).resolve())
    extra = _section(doc, "composites", path)
    try:
        lib_doc = read_library(lib_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: protection_library: {exc}") from None
    own = lib_doc.get("composites", {}) if isinstance(lib_doc, dict) else None
    if extra and isinstance(own, dict):
        for key in extra:
            if key in own:
                raise ConfigError(f"{path}: composites[{key!r}] already defined by the library")
        lib_doc["composites"] = {**own, **extra}
    try:
        library = parse_library(lib_doc, source=lib_path)
    except ValueError as exc:
        raise ConfigError(f"{path}: protection_library: {exc}") from None

    seed = seed_override if seed_override is not None else doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"{path}: seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"{path}: seed must be >= 0, got {seed}")
    sections = {name: _build(cls, _section(doc, name, path), f"{path}: {name}", seed)
                for name, cls in _SECTIONS.items()}
    for key in ("targets", "matrix_targets"):
        for name in getattr(sections["uncertainty"], key) or ():
            if name not in library.schemes:
                raise ConfigError(f"{path}: uncertainty.{key}: unknown scheme {name!r}")

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
