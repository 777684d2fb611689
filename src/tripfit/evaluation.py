"""Approximation accuracy (MAE) and load-fraction uncertainty studies.

The accuracy metric is the mean absolute difference between two composite
protection functions over Latin hypercube evaluation points, drawn from a
stream disjoint from the training data.  The uncertainty study perturbs the
nominal load fractions by random relative factors (1 + gamma), rebuilds the
"actual" composite, and tracks how the MAE of a fixed fitted model degrades
as the perturbation level grows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .protection import CompositeProtection, accumulate
from .regression import FitConfig, SimplifiedModel, SmoothingConfig, fit, harden
from .rng import rng_stream, stream_uniforms
from .sampling import (SamplerConfig, _check_fields, _write_csv, lhs_box,
                       sample_training)


@dataclass(frozen=True)
class MaeReport:
    """Mean absolute error between two composites over m_points LHS points."""

    epsilon: float
    m_points: int


@dataclass(frozen=True)
class UncertaintySpec:
    """Monte Carlo sweep over relative fraction-perturbation levels.

    gamma_levels are the maximum relative perturbations (level 0 is allowed
    and reproduces the nominal composite exactly); targets names the schemes
    to perturb (empty tuple = all).  With refit=False the nominal fit is
    scored against each perturbed truth; refit=True refits per trial.
    matrix_targets, when set, names the two schemes of the level-pair matrix,
    which always scores the nominal fit, even with refit=True.
    """

    gamma_levels: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    targets: tuple[str, ...] = ()
    trials: int = 200
    refit: bool = False
    seed: int = 0
    m_eval: int = 2000
    matrix_targets: tuple[str, str] | None = None

    def __post_init__(self):
        _check_fields(self)
        if not self.gamma_levels:
            raise ValueError("gamma_levels must not be empty")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"targets must not repeat a scheme, got {list(self.targets)}")
        if self.matrix_targets is not None and len(set(self.matrix_targets)) != 2:
            raise ValueError("matrix_targets must name two different schemes, "
                             f"got {list(self.matrix_targets)}")
        for g in self.gamma_levels:
            if not (0.0 <= g < 1.0):
                raise ValueError(f"gamma levels must lie in [0, 1), got {g}")
        if self.trials < 30:
            raise ValueError("need at least 30 trials per level for interval reporting")
        if self.m_eval < 1:
            raise ValueError("m_eval must be >= 1")


@dataclass(frozen=True)
class LevelStats:
    level: float
    mean: float
    p12_5: float
    p87_5: float
    maes: np.ndarray
    not_converged: int  # refits that ended above gtol or never moved; 0 without refits


@dataclass(frozen=True)
class SweepReport:
    levels: tuple[LevelStats, ...]
    nominal_mae: float


@dataclass(frozen=True)
class MatrixReport:
    """Mean MAE over pairs of perturbation levels for two target schemes."""

    target_a: str
    target_b: str
    levels: tuple[float, ...]
    mean_mae: np.ndarray  # (len(levels), len(levels)); rows follow target_a


def mae(approx: CompositeProtection, truth: CompositeProtection, m: int, seed: int) -> MaeReport:
    """MAE between two composites over m Latin hypercube fault points."""
    tau, v = lhs_box(rng_stream(seed, "eval"), m)
    errors = np.abs(approx.evaluate(tau, v) - truth.evaluate(tau, v))
    return MaeReport(float(errors.mean()), m)


def _perturbed(nominal: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Fraction rows scaled by (1 + gamma), one column per scheme, renormalized.

    Totals are summed in entry order, and rows whose gammas are all 0 keep the
    nominal fractions unrenormalized, as `perturb_fractions` does.
    """
    scaled = nominal * (1.0 + gammas)
    total = scaled[:, 0]
    for k in range(1, scaled.shape[1]):
        total = total + scaled[:, k]
    rows = scaled / total[:, None]
    return np.where((gammas == 0.0).all(axis=1, keepdims=True), nominal, rows)


def perturb_fractions(c: CompositeProtection, gammas: Mapping[str, float]) -> CompositeProtection:
    """Scale targeted fractions by (1 + gamma), then renormalize them to sum to 1.

    Unnamed schemes keep gamma = 0.  A gamma of exactly -1 (fraction becomes
    0) is allowed; below -1 is not.  An all-zero gamma map returns the
    composite unchanged.
    """
    unknown = set(gammas) - set(c.names)
    if unknown:
        raise ValueError(f"gamma targets not in composite: {sorted(unknown)}")
    if all(g == 0.0 for g in gammas.values()):
        return c
    scaled = []
    for scheme, pi in c.entries:
        g = float(gammas.get(scheme.name, 0.0))
        if g < -1.0:
            raise ValueError(f"gamma {g} for {scheme.name!r} would push its fraction below 0")
        scaled.append((scheme, pi * (1.0 + g)))
    total = sum(pi for _, pi in scaled)
    if total <= 0.0:
        raise ValueError("perturbed fractions sum to 0; cannot renormalize")
    return CompositeProtection(tuple((s, pi / total) for s, pi in scaled))


# Trials scored at once; bounds the (trials x m_eval) work array.
_BLOCK_TRIALS = 32


def _maes(approx: np.ndarray, fractions: np.ndarray, patterns: np.ndarray,
          inverse: np.ndarray) -> np.ndarray:
    """Per-row MAE of `approx`, one row per fraction row, against those composites.

    patterns holds the distinct columns of the schemes' connectivity and
    inverse the column of each evaluation point, so each composite is summed
    once per pattern, then gathered and scored _BLOCK_TRIALS rows at a time.
    A row mean over a C-contiguous array, such as the fresh gather, sums as
    one over a fresh `np.abs(approx - truth)` does; a fancy-indexed gather is
    not C-contiguous, and its row means differed in the last bit.
    """
    values = accumulate(fractions, patterns)
    out = np.empty(len(fractions))
    for start in range(0, len(fractions), _BLOCK_TRIALS):
        rows = slice(start, start + _BLOCK_TRIALS)
        block = np.take(values[rows], inverse, axis=1)
        np.subtract(approx[rows], block, out=block)
        out[rows] = np.abs(block, out=block).mean(axis=1)
    return out


def _monte_carlo(
    c_nominal: CompositeProtection,
    fitted: SimplifiedModel,
    spec: UncertaintySpec,
    stream: str,
    groups: tuple[tuple[str, ...], ...],
    refit_ctx: tuple[SamplerConfig, SmoothingConfig, FitConfig] | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Nominal MAE, per-trial MAEs and non-converged refit counts of every level cell.

    Each group of target schemes gets one perturbation level; a cell picks
    one level index per group, so the result has shape
    (levels,) * len(groups) + (trials,).  Trial t of cell (i, ...) draws one
    gamma per target, uniform in [-level, +level] and in target order, from
    rng_stream(seed, stream, i, ..., t); a refit trial then draws its fit
    seed from the same stream.  The gammas of a whole row of cells come from
    `stream_uniforms` at once.  Evaluation points are fixed for the whole
    study, and every composite is linear in its fractions, so the schemes'
    connectivity is evaluated once and reduced to its distinct patterns.
    """
    missing = {name for group in groups for name in group} - set(c_nominal.names)
    if missing:
        raise ValueError(f"{stream} targets not in composite: {sorted(missing)}")
    tau, v = lhs_box(rng_stream(spec.seed, "sweep_eval"), spec.m_eval)
    schemes = [scheme for scheme, _ in c_nominal.entries]
    patterns, inverse = np.unique(c_nominal.connectivity(tau, v), axis=1, return_inverse=True)
    inverse = inverse.reshape(-1)  # numpy 2.0.0 returns it with shape (1, points)
    nominal = c_nominal.fractions
    approx = harden(fitted).evaluate(tau, v)
    columns = [c_nominal.names.index(name) for group in groups for name in group]
    sizes = [len(group) for group in groups]
    levels = np.array(spec.gamma_levels)

    maes = np.empty((len(levels),) * len(groups) + (spec.trials,))
    not_converged = np.zeros(maes.shape[:-1], dtype=int)
    # One row of cells at a time bounds the streams' working memory.
    for head in np.ndindex(maes.shape[:-2]):
        cells = [head + (i,) for i in range(len(levels))]
        draws = stream_uniforms(spec.seed, stream, cells, spec.trials, len(columns))
        for cell, u in zip(cells, draws):
            bound = np.repeat(levels[list(cell)], sizes)
            gammas = np.zeros((spec.trials, len(schemes)))
            # Generator.uniform(-level, level), term for term.
            gammas[:, columns] = -bound + (bound - -bound) * u
            fractions = _perturbed(nominal, gammas)
            if refit_ctx is None:
                trial_approx = np.broadcast_to(approx, (spec.trials, spec.m_eval))
            else:
                sampler, smoothing, fit_cfg = refit_ctx
                trial_approx = np.empty((spec.trials, spec.m_eval))
                for t in range(spec.trials):
                    rng = rng_stream(spec.seed, stream, *cell, t)
                    rng.random(len(columns))  # the trial's gammas
                    trial_seed = int(rng.integers(0, 2**63 - 1))
                    actual = CompositeProtection(tuple(zip(schemes, fractions[t])))
                    data = sample_training(actual, replace(sampler, seed=trial_seed))
                    result = fit(data, smoothing, replace(fit_cfg, seed=trial_seed))
                    not_converged[cell] += not result.converged
                    trial_approx[t] = harden(result.model).evaluate(tau, v)
            maes[cell] = _maes(trial_approx, fractions, patterns, inverse)
    nominal_mae = float(_maes(approx[None], nominal[None], patterns, inverse)[0])
    return nominal_mae, maes, not_converged


def uncertainty_sweep(
    c_nominal: CompositeProtection,
    fitted: SimplifiedModel,
    spec: UncertaintySpec,
    sampler: SamplerConfig | None = None,
    smoothing: SmoothingConfig | None = None,
    fit_config: FitConfig | None = None,
) -> SweepReport:
    """MAE statistics of the fitted model against fraction-perturbed truths.

    Per level and trial, each targeted fraction gets an independent gamma
    drawn uniformly from [-level, +level]; the perturbed composite is
    renormalized.  Evaluation points are fixed for the whole sweep, so the
    zero level reproduces the nominal MAE with zero variance.  Trial RNG
    streams derive from (seed, level index, trial index).
    """
    targets = spec.targets if spec.targets else c_nominal.names
    refit_ctx = None
    if spec.refit:
        if sampler is None or smoothing is None or fit_config is None:
            raise ValueError("refit sweeps need sampler, smoothing and fit configs")
        refit_ctx = (sampler, smoothing, fit_config)

    nominal_mae, maes, not_converged = _monte_carlo(c_nominal, fitted, spec, "sweep",
                                                    (tuple(targets),), refit_ctx)
    levels = []
    for level, arr, bad in zip(spec.gamma_levels, maes, not_converged):
        p12, p87 = np.percentile(arr, [12.5, 87.5])
        levels.append(LevelStats(level, float(arr.mean()), float(p12), float(p87), arr,
                                 int(bad)))
    return SweepReport(tuple(levels), nominal_mae)


def uncertainty_matrix(
    c_nominal: CompositeProtection,
    fitted: SimplifiedModel,
    spec: UncertaintySpec,
) -> MatrixReport:
    """Mean MAE grid when exactly two schemes carry independent uncertainty levels.

    Cell (i, j) perturbs spec.matrix_targets[0] at level i and
    spec.matrix_targets[1] at level j, all other fractions untouched (then
    renormalized).
    """
    if spec.matrix_targets is None:
        raise ValueError("matrix mode needs matrix_targets, a pair of scheme names")
    target_a, target_b = spec.matrix_targets
    _, maes, _ = _monte_carlo(c_nominal, fitted, spec, "matrix", ((target_a,), (target_b,)))
    return MatrixReport(target_a, target_b, spec.gamma_levels, maes.mean(axis=-1))


def sweep_long_csv(report: SweepReport, path: str | Path, comments: list[str] | None = None) -> None:
    """One row per (level, trial): level,trial,mae."""
    _write_csv(path, comments, ["level", "trial", "mae"], (
        [stats.level, t, value] for stats in report.levels for t, value in enumerate(stats.maes)
    ))


def sweep_summary_csv(report: SweepReport, path: str | Path, comments: list[str] | None = None) -> None:
    """One row per level: level,mean,p12.5,p87.5."""
    _write_csv(path, comments, ["level", "mean", "p12.5", "p87.5"], (
        [stats.level, stats.mean, stats.p12_5, stats.p87_5] for stats in report.levels
    ))


def matrix_csv(report: MatrixReport, path: str | Path, comments: list[str] | None = None) -> None:
    """Level-by-level grid of mean MAE; rows follow target_a, columns target_b."""
    header = [f"{report.target_a}\\{report.target_b}", *report.levels]
    _write_csv(path, comments, header, (
        [level, *row] for level, row in zip(report.levels, report.mean_mae)
    ))
