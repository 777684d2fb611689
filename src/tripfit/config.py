"""Project configuration: one JSON file driving the whole pipeline.

Layout (all sections optional except protection_library; defaults shown by
`tripfit validate`)::

    {
      "protection_library": "builtin",          // or a path, relative to this file
      "output_dir": "out",
      "seed": 20240501,
      "sampler":   {"beta_tau": 1.0, "beta_v": 0.1, "weight_threshold": 0.5,
                    "n_train": 200, "m_eval": 5000},
      "smoothing": {"alpha_tau": 50.0, "alpha_v": 2.0,
                    "continuation_schedule": [[10.0, 0.4], [50.0, 2.0], [250.0, 10.0]]},
      "fit":       {"n_starts": 20, "max_iters": 400, "gtol": 1e-5, "ptol": 1e-12},
      "uncertainty": {"gamma_levels": [0.1, ..., 0.8], "targets": [],
                      "trials": 200, "refit": false, "m_eval": 2000,
                      "matrix_targets": ["P2", "P1-P4-P5"]},
      "composites": {}                           // extra named fraction maps
    }

The global seed feeds every stochastic stage; named RNG streams keep them
independent.  The fully materialized configuration is echoed into every
output file, so any artifact can be re-derived exactly.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .evaluation import UncertaintySpec
from .library import ProtectionLibrary, load_library, parse_library, library_to_jsonable
from .regression import FitConfig, SmoothingConfig
from .sampling import SamplerConfig


class ConfigError(ValueError):
    """A configuration file failed to parse or validate."""


def _section(doc: dict, name: str, where: str) -> dict:
    raw = doc.get(name, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: section {name!r} must be an object")
    return dict(raw)


def _build(cls, raw: dict, where: str, **injected):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(
            f"{where}: unknown field(s) {sorted(unknown)}; known: {sorted(known)}"
        )
    try:
        return cls(**{**raw, **injected})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class ProjectConfig:
    library: ProtectionLibrary
    library_source: str
    sampler: SamplerConfig
    smoothing: SmoothingConfig
    fit: FitConfig
    uncertainty: UncertaintySpec
    matrix_targets: tuple[str, str] | None
    output_dir: Path
    seed: int
    echo: dict

    def targets(self) -> tuple[str, ...]:
        return self.library.targets()

    def composite_for(self, key: str):
        try:
            return self.library.composite(key)
        except (KeyError, ValueError) as exc:
            raise ConfigError(str(exc)) from None


def _materialize_echo(cfg: ProjectConfig) -> dict:
    def plain(dc, drop=()):
        out = dataclasses.asdict(dc)
        for key in drop:
            out.pop(key, None)
        for key, value in out.items():
            if isinstance(value, tuple):
                out[key] = list(value)
        return out

    smoothing = plain(cfg.smoothing)
    if smoothing["continuation_schedule"] is not None:
        smoothing["continuation_schedule"] = [list(s) for s in smoothing["continuation_schedule"]]
    uncertainty = plain(cfg.uncertainty, drop=("seed",))
    uncertainty["matrix_targets"] = list(cfg.matrix_targets) if cfg.matrix_targets else None
    return {
        "protection_library": cfg.library_source,
        "output_dir": str(cfg.output_dir),
        "seed": cfg.seed,
        "sampler": plain(cfg.sampler, drop=("seed",)),
        "smoothing": smoothing,
        "fit": plain(cfg.fit, drop=("seed",)),
        "uncertainty": uncertainty,
        "composites": {k: dict(v) for k, v in cfg.library.composites.items()},
    }


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
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    known_top = {
        "protection_library", "output_dir", "seed", "sampler", "smoothing",
        "fit", "uncertainty", "composites",
    }
    unknown = set(doc) - known_top
    if unknown:
        raise ConfigError(f"{path}: unknown top-level field(s) {sorted(unknown)}")

    lib_ref = doc.get("protection_library", "builtin")
    lib_path = lib_ref if lib_ref == "builtin" else str((path.parent / lib_ref).resolve())
    try:
        library = load_library(lib_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: protection_library: {exc}") from None

    extra = doc.get("composites", {})
    if extra:
        merged = library_to_jsonable(library)
        for key, fractions in extra.items():
            if key in merged["composites"]:
                raise ConfigError(f"{path}: composites[{key!r}] already defined by the library")
            merged["composites"][key] = fractions
        try:
            library = parse_library(merged, source=library.source)
        except ValueError as exc:
            raise ConfigError(f"{path}: composites: {exc}") from None

    seed = seed_override if seed_override is not None else doc.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError(f"{path}: seed must be an integer, got {seed!r}")

    sampler = _build(SamplerConfig, _section(doc, "sampler", path), f"{path}: sampler", seed=seed)
    smoothing_raw = _section(doc, "smoothing", path)
    if isinstance(smoothing_raw.get("continuation_schedule"), list):
        smoothing_raw["continuation_schedule"] = tuple(
            tuple(stage) for stage in smoothing_raw["continuation_schedule"]
        )
    smoothing = _build(SmoothingConfig, smoothing_raw, f"{path}: smoothing")
    fit_cfg = _build(FitConfig, _section(doc, "fit", path), f"{path}: fit", seed=seed)

    unc_raw = _section(doc, "uncertainty", path)
    matrix_targets = unc_raw.pop("matrix_targets", None)
    if matrix_targets is not None:
        if not (isinstance(matrix_targets, list) and len(matrix_targets) == 2):
            raise ConfigError(f"{path}: uncertainty.matrix_targets must be a pair of scheme names")
        for name in matrix_targets:
            if name not in library.schemes:
                raise ConfigError(
                    f"{path}: uncertainty.matrix_targets: unknown scheme {name!r}"
                )
        matrix_targets = tuple(matrix_targets)
    for key in ("gamma_levels", "targets"):
        if isinstance(unc_raw.get(key), list):
            unc_raw[key] = tuple(unc_raw[key])
    uncertainty = _build(UncertaintySpec, unc_raw, f"{path}: uncertainty", seed=seed)
    for name in uncertainty.targets:
        if name not in library.schemes:
            raise ConfigError(f"{path}: uncertainty.targets: unknown scheme {name!r}")

    out_dir = Path(out_override) if out_override is not None else Path(doc.get("output_dir", "out"))

    cfg = ProjectConfig(
        library=library,
        library_source=str(lib_ref),
        sampler=sampler,
        smoothing=smoothing,
        fit=fit_cfg,
        uncertainty=uncertainty,
        matrix_targets=matrix_targets,
        output_dir=out_dir,
        seed=seed,
        echo={},
    )
    object.__setattr__(cfg, "echo", _materialize_echo(cfg))
    return cfg
