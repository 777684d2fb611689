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
import functools
import numbers
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .protection import TAU_MAX, V_MAX, CompositeProtection
from .rng import rng_stream

# Faults typically drag the bus voltage to about half of nominal; the weight's
# voltage factor activates only above this level.
V_KNEE = 50.0


# Each scalar annotation's name in messages and the type a value must have.
_SCALARS = {int: ("an integer", numbers.Integral), float: ("a real number", numbers.Real),
            bool: ("a boolean", bool), str: ("a string", str)}

# A dataclass's resolved field annotations, worked out at its first construction,
# and each hint's arguments and origin, worked out once per hint.
_hints = functools.cache(typing.get_type_hints)
_args = functools.cache(typing.get_args)
_origin = functools.cache(typing.get_origin)


def _checked(hint, value, name: str, entry: str | None = None):
    """value, lists made tuples and numbers floats where hint says float, if of type hint.

    hint is a _SCALARS key, tuple[X, ...], tuple[X, X], X | None, dict,
    dict[str, X] or object, which takes any value.  A wrong scalar raises
    TypeError; a wrong container, or a float hint's inf, nan or integer past
    the largest float, ValueError.  A float hint turns 1 into 1.0, so equal
    settings give equal echoes however their numbers are written.  Messages
    name the value `name`, each tuple entry, at any depth, `entry` (default
    "{name} entry") and each dict value "{name}[key]".
    """
    if hint is object:
        return value
    if hint in _SCALARS:
        what, kind = _SCALARS[hint]
        # A bool is neither an int nor a float.
        if not isinstance(value, kind) or isinstance(value, bool) is not (hint is bool):
            raise TypeError(f"{name} must be {what}, got {value!r}")
        if hint is float and not -sys.float_info.max <= value <= sys.float_info.max:
            raise ValueError(f"{name} must be a finite number, got {value!r}")
        return float(value) if hint is float else value
    if hint is dict or _origin(hint) is dict:
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be a JSON object, got {value!r}")
        if hint is dict:
            return value
        kind = _args(hint)[1]
        return {key: _checked(kind, x, f"{name}[{key!r}]") for key, x in value.items()}
    entry = entry or f"{name} entry"
    args = _args(hint)
    if type(None) in args:
        return None if value is None else _checked(args[0], value, name, entry)
    many = args[-1] is Ellipsis
    if not (isinstance(value, (list, tuple)) and (many or len(value) == len(args))):
        what = ("a pair" if not many else
                "a list of pairs" if _origin(args[0]) is tuple else "a list")
        raise ValueError(f"{name} must be {what}, got {value!r}")
    kinds = args[:1] * len(value) if many else args
    return tuple(_checked(kind, x, entry, entry) for kind, x in zip(kinds, value))


def _typed(hint, value, name: str):
    """_checked(hint, value, name) for a value read from JSON: every refusal is a ValueError."""
    try:
        return _checked(hint, value, name)
    except TypeError as exc:
        raise ValueError(str(exc)) from None


def _object(spec: dict, raw, where, name=None) -> dict:
    """The JSON object raw, each value checked by _typed against its key's type in spec.

    Every refusal is a ValueError: raw not an object names it `name` (default
    where), a key not in spec names where, and a mistyped value "{where}: {key}".
    The values are checked in spec's order.
    """
    raw = _typed(dict, raw, name or where)
    unknown = raw.keys() - spec.keys()
    if unknown:
        raise ValueError(f"{where}: unknown field(s) {sorted(unknown)}; known: {sorted(spec)}")
    return {key: _typed(hint, raw[key], f"{where}: {key}") for key, hint in spec.items()
            if key in raw}


def _check_fields(obj) -> None:
    """Check each field of the frozen dataclass obj against its annotation, in place."""
    for name, hint in _hints(type(obj)).items():
        object.__setattr__(obj, name, _checked(hint, getattr(obj, name), name))


def _check_rate(name: str, rate: float, span: float) -> None:
    """Refuse a rate whose product with span, the largest offset it meets, overflows a float."""
    if rate * span == float("inf"):
        raise ValueError(f"{name} must be at most {sys.float_info.max / span!r}, "
                         f"so that {name} * {span:g} stays finite; got {rate!r}")


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
    seed: int = 0

    def __post_init__(self):
        _check_fields(self)
        if self.beta_tau <= 0.0 or self.beta_v <= 0.0:
            raise ValueError("beta_tau and beta_v must be > 0")
        _check_rate("beta_tau", self.beta_tau, TAU_MAX)
        _check_rate("beta_v", self.beta_v, V_MAX - V_KNEE)
        if not (0.0 <= self.weight_threshold < 1.0):
            raise ValueError(f"weight_threshold must be in [0, 1), got {self.weight_threshold}")
        if self.n_train < 5:
            raise ValueError("n_train must be at least the 5 free model parameters")
        if self.m_eval < 10 * self.n_train:
            raise ValueError("m_eval must be at least 10 * n_train")


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

    w = 1 - (1 - exp(-beta_tau * tau_f)) * (1 - exp(-beta_v * max(v_f - 50, 0))):
    the voltage factor is exactly 0 at and below the 50 % knee, so w is 1 there.
    Both exponents are <= 0, so exp cannot overflow; the products beta_tau *
    tau_f and beta_v * (v_f - 50) stay finite because SamplerConfig refuses a
    rate whose product with the largest offset, 5 s or 50 %, overflows.
    """
    tau_f = np.asarray(tau_f, dtype=float)
    v_f = np.asarray(v_f, dtype=float)
    tau_factor = 1.0 - np.exp(-cfg.beta_tau * tau_f)
    v_factor = 1.0 - np.exp(-cfg.beta_v * np.maximum(v_f - V_KNEE, 0.0))
    w = np.clip(1.0 - tau_factor * v_factor, 0.0, 1.0)
    return w if w.ndim else float(w)


def sample_training(c: CompositeProtection, cfg: SamplerConfig) -> Dataset:
    """Draw exactly n_train points uniformly from {weight >= threshold}, labeled by F.

    Rejection sampling over the fault box; deterministic given cfg.seed.  It
    always ends: every proposal with v_f <= 50 % has weight 1 and is accepted,
    and those are half of the box.
    """
    rng = rng_stream(cfg.seed, "train")
    n = cfg.n_train
    batch = max(1024, 4 * n)
    taus: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    accepted = 0
    while accepted < n:
        t = rng.uniform(0.0, TAU_MAX, size=batch)
        v = rng.uniform(0.0, V_MAX, size=batch)
        keep = weight(t, v, cfg) >= cfg.weight_threshold
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
