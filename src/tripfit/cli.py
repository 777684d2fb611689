"""Command line entry points: validate, fit, grid, mae, sweep.

Each verb reads one JSON project config and writes its artifacts (CSV and
JSON, plot-ready) under the configured output directory.  Every output file
embeds the materialized config and seed, so reruns at a fixed seed reproduce
files byte for byte.  Exit codes: 0 success, 1 fit did not converge,
2 configuration, input, output or usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ProjectConfig, load_config
from .evaluation import (
    mae,
    matrix_csv,
    sweep_long_csv,
    sweep_summary_csv,
    uncertainty_matrix,
    uncertainty_sweep,
)
from .library import _decode_json
from .protection import TAU_MAX, V_MAX, CompositeProtection, grid_evaluate
from .regression import fit, harden, model_from_jsonable
from .sampling import _write_csv, sample_training

DEFAULT_GRID_RESOLUTION = 101
# The largest --resolution whose r x r grid has at most sys.maxsize points, the
# bound config counts have: numpy cannot size an array past it.
MAX_GRID_RESOLUTION = math.isqrt(sys.maxsize)


def _comment_lines(cfg: ProjectConfig, **extra) -> list[str]:
    lines = [f"{key}: {value}" for key, value in extra.items()]
    lines.append(f"seed: {cfg.seed}")
    lines.append(f"config: {json.dumps(cfg.echo, sort_keys=True)}")
    return lines


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _fit_result_path(cfg: ProjectConfig, target: str) -> Path:
    return cfg.output_dir / f"fit_{target}.json"


# The config entries a fitted model depends on, besides its composite.
_FIT_INPUTS = ("seed", "sampler", "smoothing", "fit")


def _composite_record(comp: CompositeProtection) -> list:
    """What fit_*.json records of the composite it fitted: each entry's scheme, fraction, steps."""
    return [{"scheme": scheme.name, "fraction": pi,
             "steps": [list(step) for step in scheme.zone.steps]} for scheme, pi in comp.entries]


def _load_fitted_model(cfg: ProjectConfig, target: str, comp: CompositeProtection):
    """The model of fit_<target>.json, refused if malformed or fitted under other inputs."""
    path = _fit_result_path(cfg, target)
    if not path.is_file():
        raise ConfigError(f"no fit result at {path}; run `tripfit fit --motor {target}` first")
    rerun = f"rerun `tripfit fit --motor {target}` with this config"
    try:
        doc = _decode_json(path.read_bytes(), f"{path} is not valid JSON")
    except ValueError as exc:
        raise ConfigError(f"{exc}; {rerun}") from None
    stored = doc.get("config") if isinstance(doc, dict) else None
    if not isinstance(stored, dict):
        raise ConfigError(f"{path} is not a fit result with a config object; {rerun}")
    for key in _FIT_INPUTS:
        old, new = stored.get(key), cfg.echo[key]
        if old == new:
            continue
        if isinstance(old, dict) and isinstance(new, dict):
            key += "." + min(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
        raise ConfigError(f"{path} was fitted under a different {key}; {rerun}")
    if doc.get("composite") != _composite_record(comp):
        raise ConfigError(f"{path} was fitted to a different composite {target}; {rerun}")
    try:
        return model_from_jsonable(doc["model"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path} holds no valid model ({exc!r}); {rerun}") from None


def cmd_validate(cfg: ProjectConfig) -> int:
    print(f"protection library: {cfg.echo['protection_library']} "
          f"({len(cfg.library.schemes)} schemes)")
    print(f"targets: {', '.join(cfg.library.targets())}")
    for target in cfg.library.targets():
        comp = cfg.composite_for(target)
        pairs = ", ".join(f"{name}={pi:g}" for name, pi in zip(comp.names, comp.fractions))
        print(f"  {target}: {pairs}")
    print("effective config:")
    print(json.dumps(cfg.echo, indent=2, sort_keys=True))
    return 0


def cmd_fit(cfg: ProjectConfig, target: str) -> int:
    comp = cfg.composite_for(target)
    data = sample_training(comp, cfg.sampler)
    result = fit(data, cfg.smoothing, cfg.fit)
    report = mae(harden(result.model), comp, cfg.sampler.m_eval, cfg.seed)

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    data.to_csv(cfg.output_dir / f"train_{target}.csv",
                comments=_comment_lines(cfg, target=target))
    doc = {
        "kind": "fit_result",
        "target": target,
        "composite": _composite_record(comp),
        **result.to_jsonable(),
        "mae": report.epsilon,
        "mae_m_points": report.m_points,
        "seed": cfg.seed,
        "config": cfg.echo,
    }
    _write_json(_fit_result_path(cfg, target), doc)

    m = result.model
    print(f"fit {target}: pi=({m.pi1:.4f}, {m.pi2:.4f}) "
          f"tau*=({m.tau1_star:.4f}, {m.tau2_star:.4f}) s "
          f"v*=({m.v1_star:.3f}, {m.v2_star:.3f}) % "
          f"cost={result.final_cost:.3e} mae={report.epsilon:.4f}")
    if not result.converged:
        stages = len(cfg.smoothing.continuation_schedule)
        print(f"warning: fit for {target} did not reach the gradient tolerance; the winning "
              f"start stopped after {result.iterations} iterations over {stages} stages "
              f"(budget {cfg.fit.max_iters} iterations per stage)", file=sys.stderr)
        return 1
    return 0


def cmd_grid(cfg: ProjectConfig, target: str, grid_target: str, resolution: int) -> int:
    comp = cfg.composite_for(target)
    if grid_target == "true":
        evaluand = comp
    else:
        evaluand = harden(_load_fitted_model(cfg, target, comp))
    tau_grid = np.linspace(0.0, TAU_MAX, resolution)
    v_grid = np.linspace(0.0, V_MAX, resolution)
    matrix = grid_evaluate(evaluand, tau_grid, v_grid)

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.output_dir / f"grid_{target}_{grid_target}.csv"
    comments = _comment_lines(cfg, target=target, grid_target=grid_target,
                              rows="tau_f_s", columns="v_f_pct")
    _write_csv(path, comments, ["tau_s", *v_grid],
               ([tau, *row] for tau, row in zip(tau_grid, matrix)))
    print(f"grid {target}/{grid_target}: {resolution}x{resolution} -> {path}")
    return 0


def cmd_mae(cfg: ProjectConfig, target: str) -> int:
    comp = cfg.composite_for(target)
    model = _load_fitted_model(cfg, target, comp)
    report = mae(harden(model), comp, cfg.sampler.m_eval, cfg.seed)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.output_dir / f"mae_{target}.json", {
        "kind": "mae_report",
        "target": target,
        "epsilon": report.epsilon,
        "m_points": report.m_points,
        "seed": cfg.seed,
        "config": cfg.echo,
    })
    print(f"mae {target}: epsilon={report.epsilon:.4f} over {report.m_points} points")
    return 0


def cmd_sweep(cfg: ProjectConfig, target: str) -> int:
    comp = cfg.composite_for(target)
    spec = cfg.uncertainty
    missing = [name for name in spec.targets if name not in comp.names]
    if missing:
        raise ConfigError(f"uncertainty.targets {missing} not in composite {target}")
    model = _load_fitted_model(cfg, target, comp)
    report = uncertainty_sweep(comp, model, spec,
                               sampler=cfg.sampler, smoothing=cfg.smoothing,
                               fit_config=cfg.fit)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    comments = _comment_lines(cfg, target=target, nominal_mae=report.nominal_mae)
    sweep_long_csv(report, cfg.output_dir / f"sweep_{target}_long.csv", comments)
    sweep_summary_csv(report, cfg.output_dir / f"sweep_{target}_summary.csv", comments)
    for stats in report.levels:
        print(f"sweep {target} level {stats.level:g}: mean={stats.mean:.4f} "
              f"[{stats.p12_5:.4f}, {stats.p87_5:.4f}] not_converged={stats.not_converged}")

    pair = spec.matrix_targets
    if pair is not None:
        if set(pair) <= set(comp.names):
            mreport = uncertainty_matrix(comp, model, spec)
            matrix_csv(mreport, cfg.output_dir / f"sweep_{target}_matrix.csv", comments)
            print(f"sweep {target} matrix over {pair[0]} x {pair[1]} written")
        else:
            print(f"warning: matrix targets {pair} not all present in "
                  f"composite {target}; matrix sweep skipped", file=sys.stderr)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripfit",
        description="Composite motor-protection modeling: trip-zone evaluation, "
                    "two-block regression, accuracy and uncertainty reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_motor=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="project config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        if needs_motor:
            p.add_argument("--motor", required=True,
                           help="motor class letter or named composite")
        return p

    add("validate", "parse and validate the config, print effective values",
        needs_motor=False)
    add("fit", "sample training data, fit the two-block model, report MAE")
    grid = add("grid", "emit a CSV heatmap of a composite or fitted model")
    grid.add_argument("--target", choices=("true", "fitted"), default="true",
                      help="evaluate the true composite or the fitted model")
    grid.add_argument("--resolution", type=int, default=DEFAULT_GRID_RESOLUTION,
                      help="grid points per axis")
    add("mae", "recompute the MAE report for an existing fit")
    add("sweep", "Monte Carlo MAE sweep over load-fraction uncertainty levels")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "fit":
            return cmd_fit(cfg, args.motor)
        if args.command == "grid":
            if args.resolution < 2:
                raise ConfigError("--resolution must be >= 2")
            if args.resolution > MAX_GRID_RESOLUTION:
                raise ConfigError(f"--resolution must be at most {MAX_GRID_RESOLUTION}, "
                                  f"got {args.resolution}")
            return cmd_grid(cfg, args.motor, args.target, args.resolution)
        if args.command == "mae":
            return cmd_mae(cfg, args.motor)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.motor)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
