"""Exact evaluation of motor-protection trip-zones and their composites.

A protection device disconnects ("trips") its motor when the supply voltage
stays at or below a threshold for at least some duration.  The set of
(fault duration, fault voltage) pairs that trip a device is its trip-zone,
modeled here as a monotone staircase: a finite union of axis-aligned
"slow-and-deep" rectangles.  Devices wired in series trip the motor as soon
as any one of them trips, so their zones combine by set union.  A composite
protection weights several schemes by the fraction of aggregate motor load
each one serves; its value is the connected load fraction for a given fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

# Modeling domain: faults up to 5 s, voltage in percent of nominal.
TAU_MAX = 5.0
V_MAX = 100.0

FRACTION_SUM_TOL = 1e-9


@dataclass(frozen=True)
class TripZone:
    """Monotone staircase trip region.

    `steps` holds (tau_break, v_threshold) pairs with strictly increasing
    tau_break and non-decreasing v_threshold.  A point (tau, v) belongs to
    the zone iff some step has tau >= tau_break and v <= v_threshold; both
    inequalities are closed, so boundary points trip.  An empty `steps`
    tuple is the empty zone (never trips).
    """

    steps: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        steps = tuple((float(t), float(v)) for t, v in self.steps)
        object.__setattr__(self, "steps", steps)
        prev_t = -np.inf
        prev_v = -np.inf
        for t, v in steps:
            if not (np.isfinite(t) and np.isfinite(v)):
                raise ValueError(f"step ({t}, {v}) must be finite")
            if t < 0.0:
                raise ValueError(f"tau_break must be >= 0, got {t}")
            if not (0.0 <= v <= V_MAX):
                raise ValueError(f"v_threshold must be in [0, {V_MAX}], got {v}")
            if t <= prev_t:
                raise ValueError("tau_break values must be strictly increasing")
            if v < prev_v:
                raise ValueError("v_threshold values must be non-decreasing")
            prev_t, prev_v = t, v

    @classmethod
    def rectangle(cls, tau_star: float, v_star: float) -> "TripZone":
        """Single-block zone: trip iff tau >= tau_star and v <= v_star."""
        return cls(((tau_star, v_star),))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        breaks = np.array([s[0] for s in self.steps], dtype=float)
        # Leading -inf sentinel: below the first break nothing trips.
        thresholds = np.concatenate(([-np.inf], [s[1] for s in self.steps]))
        return breaks, thresholds

    def envelope(self, tau):
        """Highest tripping v_threshold available at duration tau (-inf if none)."""
        breaks, thresholds = self._arrays
        idx = np.searchsorted(breaks, tau, side="right")
        return thresholds[idx]

    def contains(self, tau, v):
        """Vectorized membership test; closed on both boundaries."""
        return np.asarray(v, dtype=float) <= self.envelope(np.asarray(tau, dtype=float))


@dataclass(frozen=True)
class ProtectionScheme:
    """A named protection device, or series combination of devices, and its zone."""

    name: str
    zone: TripZone

    def __post_init__(self):
        if not self.name:
            raise ValueError("scheme name must be non-empty")

    def f(self, tau, v):
        """Connectivity indicator: 0 where the scheme trips, 1 elsewhere."""
        return 1 - self.zone.contains(tau, v).astype(int)


@dataclass(frozen=True)
class CompositeProtection:
    """Fraction-weighted mix of protection schemes serving one motor population.

    Fractions lie in [0, 1] and must sum to 1 (tolerance 1e-9).
    """

    entries: tuple[tuple[ProtectionScheme, float], ...]

    def __post_init__(self):
        entries = tuple((scheme, float(pi)) for scheme, pi in self.entries)
        object.__setattr__(self, "entries", entries)
        names = [scheme.name for scheme, _ in entries]
        if len(set(names)) != len(names):
            raise ValueError(f"scheme names must be pairwise distinct, got {names}")
        for scheme, pi in entries:
            if not np.isfinite(pi) or pi < 0.0:
                raise ValueError(f"fraction for {scheme.name!r} must be >= 0, got {pi}")
            if pi > 1.0:
                raise ValueError(f"fraction for {scheme.name!r} must be <= 1, got {pi}")
        if abs(self.fraction_sum - 1.0) > FRACTION_SUM_TOL:
            raise ValueError(
                f"fractions must sum to 1 within {FRACTION_SUM_TOL} "
                f"(got {self.fraction_sum!r}); renormalize explicitly if intended"
            )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(scheme.name for scheme, _ in self.entries)

    @property
    def fractions(self) -> np.ndarray:
        return np.array([pi for _, pi in self.entries], dtype=float)

    @property
    def fraction_sum(self) -> float:
        return float(sum(pi for _, pi in self.entries))

    def evaluate(self, tau, v):
        """Connected load fraction at (tau, v); broadcasts over array inputs."""
        tau = np.asarray(tau, dtype=float)
        v = np.asarray(v, dtype=float)
        total = np.zeros(np.broadcast(tau, v).shape)
        for scheme, pi in self.entries:
            total += pi * (1.0 - scheme.zone.contains(tau, v))
        return total if total.ndim else float(total)


def series_combine(zones: Iterable[TripZone]) -> TripZone:
    """Union of trip-zones: the staircase whose envelope is the pointwise max.

    Series-connected devices disconnect the motor when any one trips, so the
    combined zone is the set union.  Redundant steps (those that do not raise
    the envelope) are merged away; the result is canonical.
    """
    merged: list[tuple[float, float]] = []
    for t, v in sorted(step for zone in zones for step in zone.steps):
        if merged and v <= merged[-1][1]:
            continue
        if merged and t == merged[-1][0]:
            merged[-1] = (t, v)
        else:
            merged.append((t, v))
    return TripZone(tuple(merged))


def combine_schemes(schemes: Sequence[ProtectionScheme]) -> ProtectionScheme:
    """Series combination of schemes: union zone, sorted hyphen-joined name."""
    if not schemes:
        raise ValueError("need at least one scheme to combine")
    parts = sorted({part for scheme in schemes for part in scheme.name.split("-")})
    zone = series_combine([scheme.zone for scheme in schemes])
    return ProtectionScheme("-".join(parts), zone)


def grid_evaluate(c: CompositeProtection, tau_grid, v_grid) -> np.ndarray:
    """Matrix of composite values: out[i, j] = F(tau_grid[i], v_grid[j])."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    v_grid = np.asarray(v_grid, dtype=float)
    if tau_grid.size == 0 or v_grid.size == 0:
        raise ValueError("grids must be non-empty")
    if np.any(np.diff(tau_grid) < 0) or np.any(np.diff(v_grid) < 0):
        raise ValueError("grids must be sorted ascending")
    return c.evaluate(tau_grid[:, None], v_grid[None, :])
