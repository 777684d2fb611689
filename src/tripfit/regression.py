"""Two-rectangle surrogate of a composite protection function.

The surrogate splits the motor load into two blocks with fractions pi1 and
pi2 = 1 - pi1; block i stays connected unless tau_f >= tau_i_star and
v_f <= v_i_star.  For fitting, each hard block indicator is smoothed with
logistic steps h of configurable steepness: block i contributes
h(tau_i_star - tau_f) + h(tau_f - tau_i_star) h(v_f - v_i_star), the
cancellation-free form of 1 - h(tau_f - tau_i_star) (1 - h(v_f - v_i_star)).
This gives a differentiable least squares cost minimized by a multistart
bound-constrained quasi-Newton solver (L-BFGS-B with analytic gradients)
under tau in [0, 5] s, v in [0, 100] %, pi1 in [0, 1].  Steepness
continuation (fit at gentle slopes first, then sharpen) avoids the vanishing
gradients of nearly-hard steps.  Reported errors always use the hard model;
the smoothing is a fitting device only.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import importlib.machinery
import importlib.util
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy

from .protection import (FRACTION_SUM_TOL, TAU_MAX, V_MAX, CompositeProtection,
                         ProtectionScheme, TripZone)
from .rng import rng_stream
from .sampling import Dataset, _check_fields, _check_rate, _checked, lhs_unit

_SCIPY_DIR = Path(scipy.__file__).parent


def _load_lbfgsb():
    """scipy's compiled L-BFGS-B module, loaded without running scipy.optimize's __init__.

    Importing scipy.optimize takes most of a tripfit process's start-up, and
    fit needs only this extension.  It is registered in sys.modules under its
    own name, so a later import of scipy.optimize reuses the same module; being
    loaded before its package, it is not set as an attribute of that package,
    so `import scipy.optimize._lbfgsb as m` finds it but attribute access does not.
    """
    name = "scipy.optimize._lbfgsb"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.machinery.PathFinder.find_spec(name, [str(_SCIPY_DIR / "optimize")])
    if spec is None:
        from scipy.optimize import _lbfgsb
        return _lbfgsb
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_LBFGSB = _load_lbfgsb()
# scipy's private L-BFGS-B reverse-communication step: the 17-argument C setulb
# of scipy >= 1.15.  tests/test_regression.py::test_fit_matches_per_start_minimize
# pins fit to the public scipy.optimize.minimize loop it mirrors.
_setulb = _LBFGSB.setulb

# Freeing one untouched 4 MiB block raises glibc's dynamic mmap threshold and,
# at twice that, its heap-trim threshold; other allocators just map and unmap
# it.  Without it, the fresh temporaries of _cost_grad_reduced and _maes's
# 512 KB gathers trim and regrow the heap: ≈ 6 400 minor faults a default fit
# instead of 0, ≈ 19 800 a sweep plus matrix at the example spec instead of 0.
# The start-up probe in tests/test_regression.py pins both.
np.empty(4 << 20, dtype=np.uint8)


def __getattr__(name):
    # fit does not call minimize; bench/tracing.py still patches
    # tripfit.regression.minimize, so the name resolves, importing scipy.optimize
    # only when it is asked for.
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Reduced parameter vector: (pi1, tau1_star, v1_star, tau2_star, v2_star),
# with pi2 eliminated as 1 - pi1.
_LO = np.array([0.0, 0.0, 0.0, 0.0, 0.0])
_HI = np.array([1.0, TAU_MAX, V_MAX, TAU_MAX, V_MAX])
_SPAN = _HI - _LO


@dataclass(frozen=True)
class SimplifiedModel:
    """Two-block protection model parameters (pi1 + pi2 = 1)."""

    pi1: float
    tau1_star: float  # s
    v1_star: float    # % of nominal
    pi2: float
    tau2_star: float  # s
    v2_star: float    # % of nominal

    def __post_init__(self):
        if not (0.0 <= self.pi1 <= 1.0 and 0.0 <= self.pi2 <= 1.0):
            raise ValueError(f"fractions must lie in [0, 1], got {self.pi1}, {self.pi2}")
        if abs(self.pi1 + self.pi2 - 1.0) > FRACTION_SUM_TOL:
            raise ValueError(f"pi1 + pi2 must equal 1, got {self.pi1 + self.pi2!r}")
        for tau in (self.tau1_star, self.tau2_star):
            if not (0.0 <= tau <= TAU_MAX):
                raise ValueError(f"tau_star must lie in [0, {TAU_MAX}], got {tau}")
        for v in (self.v1_star, self.v2_star):
            if not (0.0 <= v <= V_MAX):
                raise ValueError(f"v_star must lie in [0, {V_MAX}], got {v}")

    @classmethod
    def from_reduced(cls, theta: Sequence[float]) -> "SimplifiedModel":
        pi1, t1, v1, t2, v2 = (float(x) for x in theta)
        return cls(pi1, t1, v1, 1.0 - pi1, t2, v2)

    def as_reduced(self) -> np.ndarray:
        return np.array([self.pi1, self.tau1_star, self.v1_star, self.tau2_star, self.v2_star])

    def canonical(self) -> "SimplifiedModel":
        """Stable block order: tau1 <= tau2, ties broken by v1 >= v2."""
        key1 = (self.tau1_star, -self.v1_star)
        key2 = (self.tau2_star, -self.v2_star)
        if key1 <= key2:
            return self
        return SimplifiedModel(
            self.pi2, self.tau2_star, self.v2_star, self.pi1, self.tau1_star, self.v1_star
        )


@dataclass(frozen=True)
class SmoothingConfig:
    """The logistic steepness stages fit walks: increasing (alpha_tau 1/s, alpha_v 1/%) pairs."""

    # Three continuation stages at 0.2x, 1x and 5x the steepness (50, 2).
    continuation_schedule: tuple[tuple[float, float], ...] = (
        (10.0, 0.4), (50.0, 2.0), (250.0, 10.0))

    def __post_init__(self):
        _check_fields(self)
        schedule = tuple((float(a), float(b)) for a, b in self.continuation_schedule)
        object.__setattr__(self, "continuation_schedule", schedule)
        if not schedule:
            raise ValueError("continuation_schedule must not be empty")
        prev = (0.0, 0.0)
        for at, av in schedule:
            if at <= 0.0 or av <= 0.0:
                raise ValueError("steepness parameters must be > 0")
            if at <= prev[0] or av <= prev[1]:
                raise ValueError("continuation_schedule must increase in both components")
            prev = (at, av)
        # tau - tau* spans at most 5 s and v - v* at most 100 %; the last stage is the steepest.
        _check_rate("continuation_schedule alpha_tau", prev[0], TAU_MAX)
        _check_rate("continuation_schedule alpha_v", prev[1], V_MAX)


@dataclass(frozen=True)
class FitConfig:
    """Multistart solver budget and tolerance (in unit-scaled coordinates).

    gtol bounds the projected-gradient infinity norm that counts as
    converged.  A stage solve also stops on L-BFGS-B's relative-reduction
    test at the fixed _LBFGSB_PTOL.
    """

    n_starts: int = 20
    max_iters: int = 400
    gtol: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        _check_fields(self)
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.gtol <= 0.0:
            raise ValueError("gtol must be > 0")


@dataclass(frozen=True)
class FitResult:
    model: SimplifiedModel
    final_cost: float
    converged: bool
    iterations: int
    start_index: int
    diagnostics: dict

    def to_jsonable(self) -> dict:
        return {**dataclasses.asdict(self), "model": model_to_jsonable(self.model)}


# The JSON names of SimplifiedModel's fields, in field order.
_MODEL_KEYS = ("pi1", "tau1_star_s", "v1_star_pct", "pi2", "tau2_star_s", "v2_star_pct")


def model_to_jsonable(m: SimplifiedModel) -> dict:
    return dict(zip(_MODEL_KEYS, dataclasses.astuple(m)))


def model_from_jsonable(doc: dict) -> SimplifiedModel:
    return SimplifiedModel(*(_checked(float, doc[key], "model parameter") for key in _MODEL_KEYS))


def _sigmoid_pair(x, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Both logistic tails (sigma(z), sigma(-z)) of z = alpha x, from one exp(-|z|).

    Each tail is evaluated directly as 1/(1+e) or e/(1+e), never as 1 - sigma,
    so a tail keeps full relative precision down to the underflow threshold.
    With alpha > 0, alpha |x| rounds to exactly |alpha x|, and the tail order
    is taken from the sign of x: where alpha x underflows to -0 both tails
    are exactly 1/2, so the order does not matter there.
    """
    e = np.exp(np.abs(x) * -alpha)
    d = 1.0 + e
    near_one = 1.0 / d
    near_zero = e / d
    pos = x >= 0.0
    return np.where(pos, near_one, near_zero), np.where(pos, near_zero, near_one)


def _block_parts(tau, v, tau_star, v_star, alpha_tau, alpha_v):
    """Smoothed block sigma(-zt) + sigma(zt) sigma(zv) and the tails it is built from.

    zt = alpha_tau (tau - tau*), zv = alpha_v (v - v*).  This equals
    1 - sigma(zt) (1 - sigma(zv)) but never subtracts from 1, so the value stays
    positive (about exp(-zt) + exp(zv)) deep in the trip corner instead of
    cancelling to 0.  Every smoothed-block value is computed here, so the
    fitting cost and any reference evaluation built on it see bit-identical
    blocks; with column vectors of thresholds, each row of the result is one
    block.
    """
    st, st_c = _sigmoid_pair(tau - tau_star, alpha_tau)
    sv, sv_c = _sigmoid_pair(v - v_star, alpha_v)
    return st_c + st * sv, st, st_c, sv, sv_c


def _cost_grad_reduced(theta, tau, v, y, alpha_tau, alpha_v):
    """Smoothed cost J and its gradient in the reduced coordinates, both blocks at once.

    theta is one parameter vector (5,) or a stack of them (S, 5); the result
    is cost () and gradient (5,), or costs (S,) and gradients (S, 5).  Each
    row's blocks are built from its stacked thresholds.  Each of its six means
    is taken over the last axis of a fresh C-contiguous product, the same
    pairwise sum as a 1-D np.mean, so every row is bit-identical to evaluating
    that row alone, block by block.
    """
    pi1 = theta[..., 0]
    pi2 = 1.0 - pi1
    b, st, st_c, sv, sv_c = _block_parts(tau, v, theta[..., 1::2, None], theta[..., 2::2, None],
                                         alpha_tau, alpha_v)
    b1, b2 = b[..., 0, :], b[..., 1, :]
    r = pi1[..., None] * b1 + pi2[..., None] * b2 - y
    # dJ/dtheta_k = mean(r * dFhat/dtheta_k); dh(z)/dx_star = -alpha h(z) h(-z),
    # with both tails taken from the block kernel rather than formed as 1 - h.
    r_st = r[..., None, :] * st
    m_tau = (r_st * st_c * sv_c).mean(axis=-1)  # tau_star, block 1 then 2
    m_v = (r_st * sv * sv_c).mean(axis=-1)      # v_star
    g = np.stack([(r * (b1 - b2)).mean(axis=-1), pi1 * alpha_tau * m_tau[..., 0],
                  -pi1 * alpha_v * m_v[..., 0], pi2 * alpha_tau * m_tau[..., 1],
                  -pi2 * alpha_v * m_v[..., 1]], axis=-1)
    return 0.5 * (r * r).mean(axis=-1), g


def _cost_reduced(theta, tau, v, y, alpha_tau, alpha_v) -> float:
    return float(_cost_grad_reduced(theta, tau, v, y, alpha_tau, alpha_v)[0])


# scipy.optimize.minimize(method="L-BFGS-B") defaults: maxcor, maxls, maxfun;
# and the relative-reduction tolerance ftol, which each stage solve stops on.
_LBFGSB_M = 10
_LBFGSB_MAXLS = 20
_LBFGSB_MAXFUN = 15000
_LBFGSB_PTOL = 1e-12
_TASK_FG, _TASK_NEW_X, _TASK_STOP = 3, 1, 5


@functools.cache
def _scipy_openblas():
    """The thread-count get and set functions of scipy's bundled OpenBLAS, or None.

    scipy's wheels link L-BFGS-B's setulb against their own OpenBLAS, a
    different library from numpy's.  Symbols looked up through the loaded
    _lbfgsb extension resolve in the libraries it links, so they are exactly
    the ones setulb calls; any other scipy build gives None.
    """
    try:
        lib = ctypes.CDLL(_LBFGSB.__file__, mode=os.RTLD_NOLOAD)
        get, set_ = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def _one_blas_thread():
    """Run the body with scipy's OpenBLAS on one thread, then restore its count.

    setulb's BLAS calls work on vectors of 5 parameters; a second OpenBLAS
    thread only spins, doubling the CPU of a fit.  numpy's BLAS is left alone.
    The count is process-wide, so fits in concurrent threads would restore
    each other's counts.
    """
    blas = _scipy_openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _lbfgsb_lockstep(fun_grad, x0: np.ndarray, f: FitConfig) -> tuple[np.ndarray, list[int]]:
    """Bounded L-BFGS-B on the unit box from every row of x0, all rows in lockstep.

    Each row is its own solve, step for step the loop of
    scipy.optimize.minimize(method="L-BFGS-B", jac=True) with
    ftol=_LBFGSB_PTOL, gtol=gtol and maxiter=max_iters: an iteration is
    counted at each NEW_X, and a solve stops once it has done max_iters
    iterations or more than 15 000 evaluations.  Every request for f and g
    is evaluated and counted, so a repeated point counts toward that cap,
    where scipy's memoization would serve it uncounted.  The rows that ask
    for f and g in the same round share one fun_grad call on the stacked
    points; the first round serves every row's START.  Returns the final
    points (S, n) and iteration counts.
    """
    n_rows, n = x0.shape
    m = _LBFGSB_M
    lo, hi, nbd = np.zeros(n), np.ones(n), np.full(n, 2, dtype=np.int32)
    factr, pgtol = _LBFGSB_PTOL / np.finfo(float).eps, f.gtol
    # One row per solve; setulb writes x and its work arrays in place through row views.
    x, gx, fx = x0.copy(), np.zeros((n_rows, n)), np.zeros(n_rows)
    work = list(zip(x, gx,
                    np.zeros((n_rows, 2 * m * n + 5 * n + 11 * m * m + 8 * m)),
                    np.zeros((n_rows, 3 * n), np.int32), np.zeros((n_rows, 2), np.int32),
                    np.zeros((n_rows, 4), np.int32), np.zeros((n_rows, 44), np.int32),
                    np.zeros((n_rows, 29)), np.zeros((n_rows, 2), np.int32)))
    nfev = np.zeros(n_rows, dtype=int)
    iters = [0] * n_rows
    active = range(n_rows)
    while active:
        asking = []
        for k in active:
            xk, gk, wa, iwa, task, lsave, isave, dsave, ln_task = work[k]
            while True:
                _setulb(m, xk, lo, hi, nbd, fx[k], gk, factr, pgtol, wa, iwa, task,
                        lsave, isave, dsave, _LBFGSB_MAXLS, ln_task)
                if task[0] == _TASK_FG:
                    asking.append(k)
                    break
                if task[0] != _TASK_NEW_X:
                    break
                iters[k] += 1
                if iters[k] >= f.max_iters:
                    task[:] = _TASK_STOP, 504
                elif nfev[k] > _LBFGSB_MAXFUN:
                    task[:] = _TASK_STOP, 502
        if asking:
            fx[asking], gx[asking] = fun_grad(x[asking])
            nfev[asking] += 1
        active = asking
    return x, iters


def fit(d: Dataset, s: SmoothingConfig, f: FitConfig) -> FitResult:
    """Fit the two-block model by multistart bounded quasi-Newton descent.

    Each Latin-hypercube start is driven through the steepness continuation
    stages (warm-starting each stage from the last; the final stage falls
    back to the raw start if continuation degraded its cost).  All starts of
    a stage run in lockstep, each its own L-BFGS-B solve.  A start counts as
    converged when its final projected-gradient norm is at most gtol.  The
    winner is the lowest final-stage cost, ties broken by start index.
    Deterministic given (d, s, f).
    """
    if len(d) == 0:
        raise ValueError("dataset is empty")
    stages = s.continuation_schedule
    tau, v, y = d.tau_f, d.v_f, d.y

    def fun_grad(u, alpha_tau, alpha_v):
        costs, g = _cost_grad_reduced(_LO + u * _SPAN, tau, v, y, alpha_tau, alpha_v)
        return costs, g * _SPAN

    starts = lhs_unit(rng_stream(f.seed, "multistart"), f.n_starts, 5)
    u = starts
    iters = np.zeros(f.n_starts, dtype=int)
    with _one_blas_thread():
        for si, stage in enumerate(stages):
            if si == len(stages) - 1 and si > 0:
                # Where continuation hurt at the final steepness, restart clean.
                both = fun_grad(np.concatenate([starts, u]), *stage)[0]
                u = np.where((both[:f.n_starts] < both[f.n_starts:])[:, None], starts, u)
            x, nit = _lbfgsb_lockstep(lambda w: fun_grad(w, *stage), u, f)
            u = np.clip(x, 0.0, 1.0)
            iters += nit
    start_costs, g = fun_grad(u, *stages[-1])
    pg_norm = np.abs(u - np.clip(u - g, 0.0, 1.0)).max(axis=1)
    start_conv = pg_norm <= f.gtol
    start_index = int(np.argmin(start_costs))  # the first of equal lowest costs

    model = SimplifiedModel.from_reduced(_LO + u[start_index] * _SPAN).canonical()
    # Recompute at the canonical parameter layout and the last stage's steepness.
    final_cost = _cost_reduced(model.as_reduced(), tau, v, y, *stages[-1])
    diagnostics = {
        "start_costs": start_costs.tolist(),
        "start_iterations": iters.tolist(),
        "start_converged": start_conv.tolist(),
    }
    return FitResult(model, final_cost, bool(start_conv[start_index]),
                     int(iters[start_index]), start_index, diagnostics)


def harden(m: SimplifiedModel) -> CompositeProtection:
    """The fitted model as an exact two-entry composite of rectangle zones."""
    entries = (
        (ProtectionScheme("block-1", TripZone.rectangle(m.tau1_star, m.v1_star)), m.pi1),
        (ProtectionScheme("block-2", TripZone.rectangle(m.tau2_star, m.v2_star)), m.pi2),
    )
    return CompositeProtection(entries)


def hard_mse(m: SimplifiedModel, d: Dataset) -> float:
    """Mean squared error of the hard model on a dataset."""
    r = harden(m).evaluate(d.tau_f, d.v_f) - d.y
    return float(np.mean(r * r))


def brute_force_fit(d: Dataset, grid_resolution: int) -> SimplifiedModel:
    """Exhaustive hard-model MSE minimizer over a coarse parameter grid.

    pi1 runs over {0, 0.05, ..., 1}; tau_star and v_star over uniform grids
    with grid_resolution points per axis.  Ties resolve to the canonically
    ordered model with the lowest flat grid index.  Independent of fit(): no
    smoothing, no gradients.
    """
    if len(d) == 0:
        raise ValueError("dataset is empty")
    r = grid_resolution
    if r < 2:
        raise ValueError("grid_resolution must be >= 2 per axis")
    tau_grid = np.linspace(0.0, TAU_MAX, r)
    v_grid = np.linspace(0.0, V_MAX, r)
    pi_grid = np.round(np.arange(21) * 0.05, 2)

    n = len(d)
    t_ind = d.tau_f[None, :] >= tau_grid[:, None]   # (r, n)
    v_ind = d.v_f[None, :] <= v_grid[:, None]       # (r, n)
    blocks = 1.0 - (t_ind[:, None, :] & v_ind[None, :, :]).reshape(r * r, n)

    prod = (blocks @ blocks.T) / n                  # (r², r²) mean cross products
    cross_y = (blocks @ d.y) / n                    # (r²,)
    y_sq = float(np.mean(d.y * d.y))
    diag = np.diag(prod)

    pi1 = pi_grid[:, None, None]
    pi2 = 1.0 - pi1
    mse = (                                         # (21, r², r²)
        pi1 * pi1 * diag[:, None]
        + pi2 * pi2 * diag[None, :]
        + 2.0 * pi1 * pi2 * prod
        - 2.0 * pi1 * cross_y[:, None]
        - 2.0 * pi2 * cross_y[None, :]
        + y_sq
    )
    candidates = []
    for flat_index in np.flatnonzero(mse == mse.min()):
        p_idx, i, j = np.unravel_index(flat_index, mse.shape)
        model = SimplifiedModel.from_reduced(
            (pi_grid[p_idx], tau_grid[i // r], v_grid[i % r], tau_grid[j // r], v_grid[j % r])
        ).canonical()
        candidates.append((model.tau1_star, -model.v1_star, model.tau2_star,
                           -model.v2_star, model.pi1, flat_index, model))
    return min(candidates)[-1]
