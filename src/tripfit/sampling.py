"""Training-point selection and space-filling evaluation sampling.

Training points for the regression are drawn uniformly from the sub-region
of the (tau_f, v_f) box where a weight function exceeds a threshold.  The
weight is 1 along tau_f = 0 and for v_f at or below the 50 % sag level, and
decays away from both, concentrating samples where composite protection
functions actually change value.  Evaluation points for error metrics come
from Latin hypercube samples on a stream disjoint from training.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .protection import TAU_MAX, V_MAX, CompositeProtection
from .rng import rng_stream

# Faults typically drag the bus voltage to about half of nominal; the weight's
# voltage factor activates only above this level.
V_KNEE = 50.0


class SamplingError(RuntimeError):
    """Raised when the accepted sampling region is (near) empty."""


def _require_ints(obj, *names: str) -> None:
    """Raise TypeError unless each named field of obj is an integer (a bool is not)."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{name} must be an integer, got {value!r}")


def _require_reals(name: str, *values) -> None:
    """Raise TypeError naming name unless each value is a real number (a bool is not)."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for weighted training sampling and evaluation sampling.

    beta_tau (1/s) and beta_v (1/%) set how fast the selection weight decays;
    weight_threshold gates which points are eligible as training data.
    n_train is the regression sample size N, m_eval the (much larger) count M
    of space-filling points for error metrics.
    """

    beta_tau: float = 1.0
    beta_v: float = 0.1
    weight_threshold: float = 0.5
    n_train: int = 200
    m_eval: int = 5000
    tau_range: tuple[float, float] = (0.0, TAU_MAX)
    v_range: tuple[float, float] = (0.0, V_MAX)
    seed: int = 0

    def __post_init__(self):
        _require_ints(self, "n_train", "m_eval")
        for name in ("beta_tau", "beta_v", "weight_threshold"):
            _require_reals(name, getattr(self, name))
        if self.beta_tau <= 0.0 or self.beta_v <= 0.0:
            raise ValueError("beta_tau and beta_v must be > 0")
        if not (0.0 <= self.weight_threshold < 1.0):
            raise ValueError(f"weight_threshold must be in [0, 1), got {self.weight_threshold}")
        if self.n_train < 5:
            raise ValueError("n_train must be at least the 5 free model parameters")
        if self.m_eval < 10 * self.n_train:
            raise ValueError("m_eval must be at least 10 * n_train")
        for name, top in (("tau_range", TAU_MAX), ("v_range", V_MAX)):
            bounds = getattr(self, name)
            if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2 and all(
                    isinstance(b, numbers.Real) and not isinstance(b, bool) and 0.0 <= b <= top
                    for b in bounds)):
                raise ValueError(f"{name} must be two numbers in [0, {top:g}], got {bounds!r}")
            lo, hi = bounds
            if not hi > lo:
                raise ValueError(f"{name} ({lo}, {hi}) must be increasing")
            # A tuple, as the defaults are, so configs compare and hash by value;
            # no float(), so the echo keeps the numbers as written.
            object.__setattr__(self, name, tuple(bounds))


def _write_csv(path: str | Path, comments: list[str] | None, header: list, rows) -> None:
    """Write each comment as a `# line`, then the header and rows as CSV.

    Numbers are written in their shortest round-trip form, as repr gives a float.
    """
    with open(path, "w", newline="") as fh:
        for line in comments or []:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@dataclass(frozen=True)
class Dataset:
    """Labeled sample of the composite protection function."""

    tau_f: np.ndarray  # s
    v_f: np.ndarray    # % of nominal
    y: np.ndarray      # connected load fraction at (tau_f, v_f)

    def __post_init__(self):
        for field_name in ("tau_f", "v_f", "y"):
            arr = np.array(getattr(self, field_name), dtype=float)  # own copy
            arr.setflags(write=False)
            object.__setattr__(self, field_name, arr)
        if not (self.tau_f.shape == self.v_f.shape == self.y.shape) or self.tau_f.ndim != 1:
            raise ValueError("tau_f, v_f, y must be 1-d arrays of equal length")

    def __len__(self) -> int:
        return self.tau_f.size

    def to_csv(self, path: str | Path, comments: list[str] | None = None) -> None:
        """Write `tau_f_s,v_f_pct,y` rows at full (round-trip) precision."""
        _write_csv(path, comments, ["tau_f_s", "v_f_pct", "y"],
                   zip(self.tau_f, self.v_f, self.y))


def weight(tau_f, v_f, cfg: SamplerConfig):
    """Selection weight in [0, 1]; broadcasts over array inputs.

    w = 1 - (1 - exp(-beta_tau * tau_f)) * (1 - exp(-beta_v * (v_f - 50))),
    with the voltage factor clamped at 0 below the 50 % knee (the raw product
    would push w above 1 there) and the result clamped into [0, 1].
    """
    tau_f = np.asarray(tau_f, dtype=float)
    v_f = np.asarray(v_f, dtype=float)
    tau_factor = 1.0 - np.exp(-cfg.beta_tau * tau_f)
    v_factor = np.maximum(0.0, 1.0 - np.exp(-cfg.beta_v * (v_f - V_KNEE)))
    w = np.clip(1.0 - tau_factor * v_factor, 0.0, 1.0)
    return w if w.ndim else float(w)


def sample_training(c: CompositeProtection, cfg: SamplerConfig) -> Dataset:
    """Draw exactly n_train points uniformly from {weight >= threshold}, labeled by F.

    Rejection sampling over the box; deterministic given cfg.seed.  Raises
    SamplingError when the accepted share of the box is below n_train over the
    max(100 000, 2000 n_train) proposals made (0.05 % for n_train >= 50).
    """
    rng = rng_stream(cfg.seed, "train")
    (t_lo, t_hi), (v_lo, v_hi) = cfg.tau_range, cfg.v_range
    n = cfg.n_train
    batch = max(1024, 4 * n)
    max_proposals = max(100_000, int(np.ceil(n / 0.0005)))
    taus: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    accepted = 0
    proposals = 0
    while accepted < n:
        if proposals >= max_proposals:
            rate = accepted / proposals
            raise SamplingError(
                f"accepted region is ~{100 * rate:.4f}% of the sampling box after "
                f"{proposals} proposals (n_train={n} needs >= {100 * n / proposals:.4f}%); "
                f"lower weight_threshold ({cfg.weight_threshold}) or the beta decay rates, "
                f"or extend tau_range / v_range toward tau_f = 0 or v_f <= {V_KNEE:g}"
            )
        t = rng.uniform(t_lo, t_hi, size=batch)
        v = rng.uniform(v_lo, v_hi, size=batch)
        keep = weight(t, v, cfg) >= cfg.weight_threshold
        proposals += batch
        taus.append(t[keep])
        vs.append(v[keep])
        accepted += int(keep.sum())
    tau_f = np.concatenate(taus)[:n]
    v_f = np.concatenate(vs)[:n]
    return Dataset(tau_f, v_f, c.evaluate(tau_f, v_f))


def lhs_unit(rng: np.random.Generator, m: int, dim: int) -> np.ndarray:
    """(m, dim) Latin hypercube on the unit cube: one point per axis stratum."""
    if m < 1:
        raise ValueError("m must be >= 1")
    strata = np.stack([rng.permutation(m) for _ in range(dim)], axis=1)
    return (strata + rng.random((m, dim))) / m


def lhs_box(rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Latin hypercube over the fault box; returns (tau, v) arrays."""
    u = lhs_unit(rng, m, 2)
    return TAU_MAX * u[:, 0], V_MAX * u[:, 1]
