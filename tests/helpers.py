"""Shared random-instance builders, hypothesis strategies and reference oracles."""

import csv
from pathlib import Path

import hypothesis.strategies as st
import numpy as np

from tripfit import CompositeProtection, ProtectionScheme, SimplifiedModel, SmoothingConfig, TripZone
from tripfit.regression import _block_parts, _cost_reduced
from tripfit.sampling import Dataset


def random_zone(rng: np.random.Generator, max_steps: int = 4) -> TripZone:
    """Random staircase with 1..max_steps steps inside the fault box."""
    k = int(rng.integers(1, max_steps + 1))
    taus = np.sort(rng.uniform(0.0, 5.0, k))
    vs = np.sort(rng.uniform(5.0, 95.0, k))
    steps = []
    prev_t = -1.0
    for t, v in zip(taus, vs):
        if t > prev_t:  # guard against duplicate draws
            steps.append((float(t), float(v)))
            prev_t = float(t)
    return TripZone(tuple(steps))


def random_composite(rng: np.random.Generator, max_schemes: int = 4) -> CompositeProtection:
    n = int(rng.integers(1, max_schemes + 1))
    fractions = rng.dirichlet(np.ones(n))
    fractions = fractions / fractions.sum()
    entries = tuple(
        (ProtectionScheme(f"S{i}", random_zone(rng)), float(pi))
        for i, pi in enumerate(fractions)
    )
    return CompositeProtection(entries)


@st.composite
def trip_zones(draw, max_steps: int = 4) -> TripZone:
    k = draw(st.integers(0, max_steps))
    taus = draw(
        st.lists(
            st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False),
            min_size=k, max_size=k, unique=True,
        )
    )
    vs = draw(
        st.lists(
            st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
            min_size=k, max_size=k,
        )
    )
    return TripZone(tuple(zip(sorted(taus), sorted(vs))))


@st.composite
def fault_points(draw):
    tau = draw(st.floats(0.0, 5.0, allow_nan=False))
    v = draw(st.floats(0.0, 100.0, allow_nan=False))
    return tau, v


# ------------------------------------------------- reference oracles

def hard_values(m: SimplifiedModel, tau_f, v_f):
    """Hard (step) two-block model value; broadcasts over array inputs."""
    tau_f = np.asarray(tau_f, dtype=float)
    v_f = np.asarray(v_f, dtype=float)
    in1 = (tau_f >= m.tau1_star) & (v_f <= m.v1_star)
    in2 = (tau_f >= m.tau2_star) & (v_f <= m.v2_star)
    out = 1.0 - m.pi1 * in1 - m.pi2 * in2
    return out if out.ndim else float(out)


def smooth_model(tau_f, v_f, m: SimplifiedModel, s: SmoothingConfig):
    """Smoothed two-block model value pi1 B1 + pi2 B2 at s's base steepness."""
    tau_f = np.asarray(tau_f, dtype=float)
    v_f = np.asarray(v_f, dtype=float)
    b1 = _block_parts(tau_f, v_f, m.tau1_star, m.v1_star, s.alpha_tau, s.alpha_v)[0]
    b2 = _block_parts(tau_f, v_f, m.tau2_star, m.v2_star, s.alpha_tau, s.alpha_v)[0]
    out = m.pi1 * b1 + m.pi2 * b2
    return out if out.ndim else float(out)


def cost(m: SimplifiedModel, d: Dataset, s: SmoothingConfig) -> float:
    """Smoothed least squares cost J = (1/2N) sum (Fhat - y)^2 at s's base steepness."""
    if len(d) == 0:
        raise ValueError("dataset is empty")
    return _cost_reduced(m.as_reduced(), d.tau_f, d.v_f, d.y, s.alpha_tau, s.alpha_v)


def dataset_from_csv(path: str | Path) -> Dataset:
    """Read back a `Dataset.to_csv` file."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows or rows[0] != ["tau_f_s", "v_f_pct", "y"]:
        raise ValueError(f"{path}: expected header tau_f_s,v_f_pct,y")
    data = np.array([[float(x) for x in row] for row in rows[1:]], dtype=float)
    if data.size == 0:
        data = data.reshape(0, 3)
    return Dataset(data[:, 0], data[:, 1], data[:, 2])
