import importlib.machinery
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from helpers import cost, hard_values, random_composite, smooth_model
from tripfit import (
    FitConfig,
    FitResult,
    SamplerConfig,
    SimplifiedModel,
    SmoothingConfig,
    brute_force_fit,
    default_library,
    fit,
    hard_mse,
    harden,
    mae,
    sample_training,
)
from tripfit import regression
from tripfit.protection import TAU_MAX, V_MAX
from tripfit.sampling import Dataset

RECOVERY_TRUTH = SimplifiedModel(0.4, 0.2, 70.0, 0.6, 1.5, 55.0)
# (alpha_tau, alpha_v): the middle stage of the default continuation schedule.
ALPHA = (50.0, 2.0)


def _dataset_from_hard(model, n=500, seed=0):
    cfg = SamplerConfig(weight_threshold=0.0, n_train=n, m_eval=10 * n, seed=seed)
    return sample_training(harden(model), cfg)


# -------------------------------------------------------------- logistic

def _sigma(x, alpha):
    """sigma(alpha x), the first tail of the kernel's logistic pair."""
    return regression._sigmoid_pair(np.asarray(x, dtype=float), alpha)[0]


def test_logistic_values():
    assert _sigma(0.0, 3.0) == 0.5
    assert _sigma(1.0, math.log(3.0)) == pytest.approx(0.75, abs=1e-12)
    assert _sigma(1e4, 1.0) == 1.0
    assert _sigma(-1e4, 1.0) == 0.0


def test_logistic_stable_at_extremes():
    with np.errstate(over="raise"):
        out, out_c = regression._sigmoid_pair(np.array([-1e4, -10.0, 0.0, 10.0, 1e4]), 1.0)
    assert np.all(np.isfinite(out)) and np.all(np.isfinite(out_c))
    assert np.all((out >= 0.0) & (out <= 1.0))
    assert np.array_equal(out_c, out[::-1])


# ----------------------------------------------------------- smooth model

def _block(tau, v, tau_star, v_star, alpha):
    """One smoothed block: the two-block model with pi1 = 1 is that block bit for bit."""
    return smooth_model(tau, v, SimplifiedModel(1.0, tau_star, v_star, 0.0, 0.0, 0.0), alpha)


def test_smooth_block_midpoint():
    s = ALPHA
    assert _block(0.5, 60.0, 0.5, 60.0, s) == pytest.approx(0.75, abs=1e-12)


def test_smooth_block_trip_corner():
    s = ALPHA
    assert 0.0 < _block(4.0, 5.0, 0.5, 60.0, s) < 1e-9


def _subtractive_sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _subtractive_block(tau, v, tau_star, v_star, alpha_tau, alpha_v):
    # Reference form 1 - ht (1 - hv); its complements lose precision near 1.
    ht = _subtractive_sigmoid(alpha_tau * (tau - tau_star))
    hv = _subtractive_sigmoid(alpha_v * (v - v_star))
    return 1.0 - ht * (1.0 - hv), ht, hv


def test_smooth_block_matches_subtractive_form():
    # The subtractive form rounds with an absolute error of about one ulp(1.0)
    # because it subtracts from 1, so compare in units of eps = ulp(1.0) where
    # that form still has at least three significant digits.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(21)
    for alpha_tau, alpha_v in ((10.0, 0.4), (50.0, 2.0), (250.0, 10.0)):
        s = (alpha_tau, alpha_v)
        tau = rng.uniform(0, 5, 20000)
        v = rng.uniform(0, 100, 20000)
        tau_star, v_star = rng.uniform(0, 5), rng.uniform(0, 100)
        new = _block(tau, v, tau_star, v_star, s)
        old = _subtractive_block(tau, v, tau_star, v_star, alpha_tau, alpha_v)[0]
        ok = old >= 1e-3
        assert ok.sum() > 1000
        np.testing.assert_allclose(new[ok], old[ok], rtol=0.0, atol=4 * eps)


def test_cost_grad_matches_subtractive_form():
    from tripfit.regression import _cost_grad_reduced

    eps = np.finfo(float).eps
    rng = np.random.default_rng(22)
    for _ in range(30):
        theta = np.array([
            rng.uniform(0.05, 0.95), rng.uniform(0, 5), rng.uniform(0, 100),
            rng.uniform(0, 5), rng.uniform(0, 100),
        ])
        at, av = rng.uniform(5, 80), rng.uniform(0.2, 4)
        tau = rng.uniform(0, 5, 400)
        v = rng.uniform(0, 100, 400)
        y = rng.uniform(0, 1, 400)
        pi1, t1, v1, t2, v2 = theta
        b1, ht1, hv1 = _subtractive_block(tau, v, t1, v1, at, av)
        b2, ht2, hv2 = _subtractive_block(tau, v, t2, v2, at, av)
        # keep only points where the subtractive ht (1 - ht) has not collapsed to 0
        keep = (ht1 * (1.0 - ht1) > 0.0) & (ht2 * (1.0 - ht2) > 0.0)
        tau, v, y = tau[keep], v[keep], y[keep]
        b1, ht1, hv1, b2, ht2, hv2 = (a[keep] for a in (b1, ht1, hv1, b2, ht2, hv2))
        r = pi1 * b1 + (1.0 - pi1) * b2 - y
        expected = np.array([
            np.mean(r * (b1 - b2)),
            pi1 * at * np.mean(r * ht1 * (1.0 - ht1) * (1.0 - hv1)),
            -pi1 * av * np.mean(r * ht1 * hv1 * (1.0 - hv1)),
            (1.0 - pi1) * at * np.mean(r * ht2 * (1.0 - ht2) * (1.0 - hv2)),
            -(1.0 - pi1) * av * np.mean(r * ht2 * hv2 * (1.0 - hv2)),
        ])
        cost_val, g = _cost_grad_reduced(theta, tau, v, y, at, av)
        assert cost_val == pytest.approx(0.5 * np.mean(r * r), rel=16 * eps, abs=0.0)
        # each subtractive factor 1 - h carries an absolute error of about eps
        tol = 4 * eps * np.mean(np.abs(r)) * np.array([1.0, at, av, at, av])
        assert np.all(np.abs(g - expected) <= tol), (g, expected, tol)


def test_smooth_block_converges_to_hard():
    rng = np.random.default_rng(1)
    tau_star, v_star = 1.2, 47.0
    model = SimplifiedModel(1.0, tau_star, v_star, 0.0, 0.0, 0.0)
    tau = rng.uniform(0, 5, 400)
    v = rng.uniform(0, 100, 400)
    # keep clear of the step boundaries
    keep = (np.abs(tau - tau_star) > 0.05) & (np.abs(v - v_star) > 1.0)
    tau, v = tau[keep], v[keep]
    hard = (tau >= tau_star) & (v <= v_star)
    s = (2000.0, 200.0)
    approx = _block(tau, v, tau_star, v_star, s)
    assert np.max(np.abs((1.0 - hard) - approx)) < 1e-6


def test_smooth_model_degenerate_fraction():
    s = ALPHA
    m = SimplifiedModel(0.0, 0.3, 80.0, 1.0, 1.0, 50.0)
    tau, v = 0.7, 62.0
    assert smooth_model(tau, v, m, s) == _block(tau, v, 1.0, 50.0, s)


def test_smooth_model_even_split():
    # block 1 saturated tripped (value ~0), block 2 saturated connected (~1)
    s = (100.0, 4.0)
    m = SimplifiedModel(0.5, 0.0, 100.0, 0.5, 5.0, 0.0)
    assert smooth_model(2.5, 50.0, m, s) == pytest.approx(0.5, abs=1e-9)


def test_smooth_model_range_and_monotonicity():
    s = ALPHA
    m = SimplifiedModel(0.35, 0.6, 66.0, 0.65, 2.1, 44.0)
    rng = np.random.default_rng(14)
    tau = rng.uniform(0, 5, 400)
    v = rng.uniform(0, 100, 400)
    out = smooth_model(tau, v, m, s)
    assert np.all(out > 0.0)
    # Far from both blocks the exact value is 1 - O(1e-30), which rounds to 1.0
    # in float64, so the upper bound is strict only where a block is hard-tripped:
    # there the tripped share is at least 0.25 * min(pi1, pi2).
    assert np.all(out <= 1.0)
    tripped = hard_values(m, tau, v) < 1.0
    assert tripped.any()
    assert np.all(out[tripped] < 1.0)
    for _ in range(200):
        t0, v0 = rng.uniform(0, 4), rng.uniform(0, 99)
        assert smooth_model(t0 + rng.uniform(0, 5 - t0), v0, m, s) <= smooth_model(t0, v0, m, s) + 1e-12
        assert smooth_model(t0, v0 + rng.uniform(0, 100 - v0), m, s) >= smooth_model(t0, v0, m, s) - 1e-12


def test_smooth_model_identical_blocks():
    s = ALPHA
    a = SimplifiedModel(0.3, 1.0, 50.0, 0.7, 1.0, 50.0)
    b = SimplifiedModel(0.9, 1.0, 50.0, 0.1, 1.0, 50.0)
    tau = np.linspace(0, 5, 33)
    v = np.linspace(0, 100, 33)
    single = _block(tau, v, 1.0, 50.0, s)
    np.testing.assert_allclose(smooth_model(tau, v, a, s), single, rtol=0, atol=1e-15)
    np.testing.assert_allclose(smooth_model(tau, v, b, s), single, rtol=0, atol=1e-15)


@given(
    st.floats(0, 1, allow_nan=False),
    st.floats(0, 5, allow_nan=False), st.floats(0, 100, allow_nan=False),
    st.floats(0, 5, allow_nan=False), st.floats(0, 100, allow_nan=False),
    st.floats(0, 5, allow_nan=False), st.floats(0, 100, allow_nan=False),
)
def test_smooth_model_label_symmetry(pi1, t1, v1, t2, v2, tau, v):
    s = ALPHA
    m = SimplifiedModel(pi1, t1, v1, 1.0 - pi1, t2, v2)
    swapped = SimplifiedModel(1.0 - pi1, t2, v2, pi1, t1, v1)
    assert smooth_model(tau, v, m, s) == pytest.approx(smooth_model(tau, v, swapped, s), abs=1e-15)


def test_model_validation_and_canonical():
    with pytest.raises(ValueError):
        SimplifiedModel(0.6, 1.0, 50.0, 0.6, 2.0, 60.0)
    with pytest.raises(ValueError):
        SimplifiedModel(0.5, 6.0, 50.0, 0.5, 2.0, 60.0)
    with pytest.raises(ValueError, match=r"fractions must lie in \[0, 1\], got -0.2, 1.2"):
        SimplifiedModel(-0.2, 1.0, 50.0, 1.2, 2.0, 60.0)
    with pytest.raises(ValueError, match=r"v_star must lie in \[0, 100.0\], got 120.0"):
        SimplifiedModel(0.5, 1.0, 120.0, 0.5, 2.0, 60.0)
    m = SimplifiedModel(0.3, 2.0, 40.0, 0.7, 1.0, 60.0)
    c = m.canonical()
    assert (c.tau1_star, c.v1_star, c.pi1) == (1.0, 60.0, 0.7)
    assert c.canonical() is c
    # tie on tau: larger v first
    tie = SimplifiedModel(0.2, 1.0, 40.0, 0.8, 1.0, 60.0).canonical()
    assert tie.v1_star == 60.0


def test_smoothing_config_validation():
    with pytest.raises(ValueError, match="must be > 0"):
        SmoothingConfig(((0.0, 2.0),))
    with pytest.raises(ValueError, match="must increase"):
        SmoothingConfig(continuation_schedule=((10.0, 1.0), (5.0, 2.0)))
    with pytest.raises(ValueError, match="must not be empty"):
        SmoothingConfig(())
    with pytest.raises(ValueError, match="must be a list of pairs, got None"):
        SmoothingConfig(None)
    assert SmoothingConfig([[40, 1.5]]).continuation_schedule == ((40.0, 1.5),)
    with pytest.raises(ValueError, match="max_iters must be >= 1"):
        FitConfig(max_iters=0)
    with pytest.raises(ValueError, match="gtol must be > 0"):
        FitConfig(gtol=0.0)
    # The relative-reduction tolerance is the solver's constant, not a setting.
    with pytest.raises(TypeError, match="ptol"):
        FitConfig(ptol=1e-12)


# ------------------------------------------------------------------ cost

def _gradient(m, d, alpha):
    """Analytic gradient of the cost in the reduced (pi1, tau1, v1, tau2, v2) coordinates."""
    return regression._cost_grad_reduced(m.as_reduced(), d.tau_f, d.v_f, d.y, *alpha)[1]


def test_cost_zero_at_self_labels():
    s = ALPHA
    m = SimplifiedModel(0.4, 0.5, 60.0, 0.6, 2.0, 45.0)
    rng = np.random.default_rng(3)
    tau = rng.uniform(0, 5, 100)
    v = rng.uniform(0, 100, 100)
    d = Dataset(tau, v, smooth_model(tau, v, m, s))
    assert cost(m, d, s) == 0.0
    assert np.array_equal(_gradient(m, d, s), np.zeros(5))


def test_cost_single_point_half():
    s = ALPHA
    # prediction saturates at 1 far from both blocks; label 0 -> J = 1/2
    m = SimplifiedModel(0.5, 5.0, 0.0, 0.5, 5.0, 0.0)
    d = Dataset(np.array([0.0]), np.array([100.0]), np.array([0.0]))
    assert cost(m, d, s) == pytest.approx(0.5, abs=1e-12)


def test_cost_summation_order():
    s = ALPHA
    m = SimplifiedModel(0.25, 0.7, 66.0, 0.75, 2.2, 41.0)
    rng = np.random.default_rng(4)
    tau = rng.uniform(0, 5, 777)
    v = rng.uniform(0, 100, 777)
    y = rng.uniform(0, 1, 777)
    d = Dataset(tau, v, y)
    streaming = cost(m, d, s)
    r = smooth_model(tau, v, m, s) - y
    two_pass = 0.5 * math.fsum(float(x) * float(x) for x in r) / len(r)
    assert streaming == pytest.approx(two_pass, abs=1e-12)


def test_gradient_matches_finite_differences():
    from tripfit.regression import _cost_grad_reduced, _cost_reduced

    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(20, 120))
        tau = rng.uniform(0, 5, n)
        v = rng.uniform(0, 100, n)
        y = rng.uniform(0, 1, n)
        theta = np.array([
            rng.uniform(0.05, 0.95), rng.uniform(0, 5), rng.uniform(0, 100),
            rng.uniform(0, 5), rng.uniform(0, 100),
        ])
        at, av = rng.uniform(5, 80), rng.uniform(0.2, 4)
        _, g = _cost_grad_reduced(theta, tau, v, y, at, av)
        h = 1e-5
        for k in range(5):
            tp, tm = theta.copy(), theta.copy()
            tp[k] += h
            tm[k] -= h
            fd = (_cost_reduced(tp, tau, v, y, at, av) - _cost_reduced(tm, tau, v, y, at, av)) / (2 * h)
            assert abs(g[k] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_gradient_pi_zero_for_identical_blocks():
    s = ALPHA
    m = SimplifiedModel(0.3, 1.0, 50.0, 0.7, 1.0, 50.0)
    rng = np.random.default_rng(8)
    d = Dataset(rng.uniform(0, 5, 50), rng.uniform(0, 100, 50), rng.uniform(0, 1, 50))
    assert _gradient(m, d, s)[0] == 0.0


def _per_block_sigmoid_pair(z):
    e = np.exp(-np.abs(z))
    near_one = 1.0 / (1.0 + e)
    near_zero = e / (1.0 + e)
    pos = z >= 0.0
    return np.where(pos, near_one, near_zero), np.where(pos, near_zero, near_one)


def _per_block_parts(tau, v, tau_star, v_star, alpha_tau, alpha_v):
    st, st_c = _per_block_sigmoid_pair(alpha_tau * (tau - tau_star))
    sv, sv_c = _per_block_sigmoid_pair(alpha_v * (v - v_star))
    return st_c + st * sv, st, st_c, sv, sv_c


def _per_block_cost_grad(theta, tau, v, y, alpha_tau, alpha_v):
    """Reference: the cost+gradient evaluated block by block, one np.mean per product."""
    pi1, t1, v1, t2, v2 = theta
    b1, st1, st1_c, sv1, sv1_c = _per_block_parts(tau, v, t1, v1, alpha_tau, alpha_v)
    b2, st2, st2_c, sv2, sv2_c = _per_block_parts(tau, v, t2, v2, alpha_tau, alpha_v)
    r = pi1 * b1 + (1.0 - pi1) * b2 - y
    g = np.empty(5)
    g[0] = float(np.mean(r * (b1 - b2)))
    g[1] = pi1 * alpha_tau * float(np.mean(r * st1 * st1_c * sv1_c))
    g[2] = -pi1 * alpha_v * float(np.mean(r * st1 * sv1 * sv1_c))
    g[3] = (1.0 - pi1) * alpha_tau * float(np.mean(r * st2 * st2_c * sv2_c))
    g[4] = -(1.0 - pi1) * alpha_v * float(np.mean(r * st2 * sv2 * sv2_c))
    return 0.5 * float(np.mean(r * r)), g


def _kernel_thetas(rng):
    hi = np.array([1.0, TAU_MAX, V_MAX, TAU_MAX, V_MAX])
    corners = [np.array(c) * hi for c in
               ((0, 0, 0, 0, 0), (1, 1, 1, 1, 1), (0, 1, 0, 1, 0), (1, 0, 1, 0, 1),
                (0, 0, 1, 1, 0), (1, 1, 0, 0, 1))]
    mixed = [rng.choice([0.0, 0.5, 1.0], 5) * hi for _ in range(4)]
    return corners + mixed + [rng.uniform(0, 1, 5) * hi for _ in range(8)]


def test_stacked_kernel_bit_equal_to_per_block():
    from tripfit.regression import _cost_grad_reduced, _cost_reduced

    rng = np.random.default_rng(31)
    stages = SmoothingConfig().continuation_schedule + ((1e4, 1e3),)
    for n in (5, 37, 200, 1000):
        tau = rng.uniform(0, TAU_MAX, n)
        v = rng.uniform(0, V_MAX, n)
        y = rng.uniform(0, 1, n)
        tau[0], v[-1] = 0.0, V_MAX
        d = Dataset(tau, v, y)
        thetas = _kernel_thetas(rng)
        for at, av in stages:
            refs = [_per_block_cost_grad(theta, tau, v, y, at, av) for theta in thetas]
            for theta, (cost_ref, g_ref) in zip(thetas, refs):
                cost_val, g = _cost_grad_reduced(theta, tau, v, y, at, av)
                assert cost_val == cost_ref
                assert np.array_equal(g, g_ref), (n, theta, at, av, g, g_ref)
                m = SimplifiedModel.from_reduced(theta)
                assert cost(m, d, (at, av)) == _cost_reduced(theta, tau, v, y, at, av) == cost_val
            # Batched rows: each row of a stack equals that row evaluated alone.
            for rows in (1, 3, 20):
                pick = rng.integers(0, len(thetas), rows)
                costs, grads = _cost_grad_reduced(np.array([thetas[i] for i in pick]),
                                                  tau, v, y, at, av)
                assert costs.shape == (rows,) and grads.shape == (rows, 5)
                for i, row in enumerate(pick):
                    assert costs[i] == refs[row][0]
                    assert np.array_equal(grads[i], refs[row][1]), (n, rows, i, at, av)


def _alpha_first_sigmoid_pair(z):
    """The kernel's tails as formed from z = alpha x before exp(-|z|) replaced alpha |x|."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    near_one = 1.0 / d
    near_zero = e / d
    pos = z >= 0.0
    return np.where(pos, near_one, near_zero), np.where(pos, near_zero, near_one)


def _alpha_first_block_parts(tau, v, tau_star, v_star, alpha_tau, alpha_v):
    st_, st_c = _alpha_first_sigmoid_pair(alpha_tau * (tau - tau_star))
    sv, sv_c = _alpha_first_sigmoid_pair(alpha_v * (v - v_star))
    return st_c + st_ * sv, st_, st_c, sv, sv_c


# Signed zeros, subnormals whose product with a small alpha underflows to -0,
# and offsets whose alpha |x| is far past exp's underflow at 745.
_EDGE_COORDS = [0.0, -0.0, 5e-324, -5e-324, -1e-323, -2.2e-308, 2.2e-308, -1e-300, 5.0, 100.0]
_ALPHAS = [0.1, 0.3, 0.4, 2.0, 10.0, 50.0, 250.0, 1e4]


@settings(max_examples=300)
@given(
    st.lists(st.tuples(st.sampled_from(_EDGE_COORDS) | st.floats(-200.0, 200.0),
                       st.sampled_from(_EDGE_COORDS) | st.floats(-200.0, 200.0)),
             min_size=1, max_size=8),
    st.sampled_from([0.0, -0.0, 5e-324]) | st.floats(-5.0, 105.0),
    st.sampled_from([0.0, -0.0, 5e-324]) | st.floats(-5.0, 105.0),
    st.sampled_from(_ALPHAS) | st.floats(1e-3, 1e5),
    st.sampled_from(_ALPHAS) | st.floats(1e-3, 1e5),
)
@example([(-5e-324, -5e-324), (-0.0, 0.0), (5.0, 100.0)], 0.0, 0.0, 0.3, 0.1)
@example([(0.5, 50.0)], 0.5, 50.0, 250.0, 10.0)
def test_block_parts_bit_equal_to_alpha_first_form(points, tau_star, v_star, alpha_tau, alpha_v):
    from tripfit.regression import _block_parts

    tau = np.array([p[0] for p in points])
    v = np.array([p[1] for p in points])
    args = (tau_star, v_star, alpha_tau, alpha_v)
    cases = [((tau, v), _block_parts(tau, v, *args), _alpha_first_block_parts(tau, v, *args))]
    scalars = (points[0][0], points[0][1])  # Python floats, as a scalar smooth_model call passes
    cases.append((scalars, _block_parts(*scalars, *args), _alpha_first_block_parts(*scalars, *args)))
    for inputs, got, want in cases:
        for a, b in zip(got, want):
            a, b = np.asarray(a), np.asarray(b)
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (inputs, args, a, b)


def _per_block_rows(theta, tau, v, y, alpha_tau, alpha_v):
    """The per-block reference over a (5,) vector or an (S, 5) stack, row by row."""
    rows = [_per_block_cost_grad(t, tau, v, y, alpha_tau, alpha_v) for t in np.atleast_2d(theta)]
    costs = np.array([c for c, _ in rows])
    grads = np.array([g for _, g in rows])
    return (costs, grads) if np.ndim(theta) == 2 else (costs[0], grads[0])


def test_fit_unchanged_under_per_block_kernel(monkeypatch):
    from tripfit import regression

    rng = np.random.default_rng(32)
    cfg = SamplerConfig(weight_threshold=0.0, n_train=200, m_eval=2000, seed=33)
    d = sample_training(random_composite(rng), cfg)
    f = FitConfig(n_starts=4, seed=34)
    stacked = fit(d, SmoothingConfig(), f).to_jsonable()
    monkeypatch.setattr(regression, "_cost_grad_reduced", _per_block_rows)
    assert fit(d, SmoothingConfig(), f).to_jsonable() == stacked


def _per_start_minimize_fit(d, s, f, maxfun=15000):
    """Reference fit: each start driven through scipy.optimize.minimize, one at a time."""
    from scipy.optimize import minimize

    from tripfit.regression import _LBFGSB_PTOL, _LO, _SPAN, _cost_grad_reduced, _cost_reduced
    from tripfit.rng import rng_stream
    from tripfit.sampling import lhs_unit

    stages = s.continuation_schedule
    tau, v, y = d.tau_f, d.v_f, d.y

    def fun_grad(u, alpha_tau, alpha_v):
        fval, g = _cost_grad_reduced(_LO + u * _SPAN, tau, v, y, alpha_tau, alpha_v)
        return fval, g * _SPAN

    starts = lhs_unit(rng_stream(f.seed, "multistart"), f.n_starts, 5)
    options = {"maxiter": f.max_iters, "ftol": _LBFGSB_PTOL, "gtol": f.gtol, "maxfun": maxfun}
    best = None
    start_costs, start_iters, start_conv = [], [], []
    for k in range(f.n_starts):
        u = starts[k]
        total_it = 0
        for si, stage in enumerate(stages):
            if si == len(stages) - 1 and si > 0:
                if fun_grad(starts[k], *stage)[0] < fun_grad(u, *stage)[0]:
                    u = starts[k]
            res = minimize(fun_grad, u, args=stage, jac=True, method="L-BFGS-B",
                           bounds=[(0.0, 1.0)] * 5, options=options)
            u = np.clip(res.x, 0.0, 1.0)
            total_it += int(res.nit)
        fval, g = fun_grad(u, *stages[-1])
        converged = float(np.abs(u - np.clip(u - g, 0.0, 1.0)).max()) <= f.gtol and total_it > 0
        start_costs.append(fval)
        start_iters.append(total_it)
        start_conv.append(converged)
        if best is None or fval < best[0]:
            best = (fval, k, u, total_it, converged)

    _, start_index, u_best, iters, converged = best
    model = SimplifiedModel.from_reduced(_LO + u_best * _SPAN).canonical()
    final_cost = _cost_reduced(model.as_reduced(), tau, v, y, *stages[-1])
    diagnostics = {
        "start_costs": start_costs,
        "start_iterations": start_iters,
        "start_converged": start_conv,
    }
    return FitResult(model, final_cost, converged, iters, start_index, diagnostics)


def _minimize_cases():
    lib = default_library()
    for target in ("A", "B", "C", "D", "mixed_commercial"):
        for seed in (1, 2, 3):
            yield (f"{target}-{seed}", lib.composite(target), SamplerConfig(seed=seed),
                   SmoothingConfig(), FitConfig(seed=seed))
    comp = lib.composite("mixed_commercial")
    yield ("one-start-one-iter", comp, SamplerConfig(seed=4), SmoothingConfig(),
           FitConfig(n_starts=1, max_iters=1, seed=4))
    yield ("three-starts-five-iters", comp, SamplerConfig(seed=5), SmoothingConfig(),
           FitConfig(n_starts=3, max_iters=5, seed=5))
    yield ("no-continuation", lib.composite("D"), SamplerConfig(seed=6),
           SmoothingConfig((ALPHA,)), FitConfig(n_starts=8, seed=6))
    yield ("steep-schedule", comp, SamplerConfig(seed=7),
           SmoothingConfig(continuation_schedule=((5.0, 0.1), (1e4, 1e3))),
           FitConfig(n_starts=8, seed=7))
    for n_train in (37, 237):
        yield (f"n_train-{n_train}", lib.composite("B"),
               SamplerConfig(n_train=n_train, m_eval=10 * n_train, seed=n_train),
               SmoothingConfig(), FitConfig(n_starts=8, seed=n_train))
    # One of these starts is worse after continuation than its raw point at the
    # final steepness, so fit restarts it from that point.
    yield ("restart", lib.composite("D"), SamplerConfig(seed=4),
           SmoothingConfig(continuation_schedule=((1.0, 0.05), (1e3, 1e2))),
           FitConfig(n_starts=8, seed=4))


def test_fit_matches_per_start_minimize():
    # Also the guard against a scipy release whose private setulb step no
    # longer matches its own minimize loop.
    for name, comp, sampler, smoothing, fit_cfg in _minimize_cases():
        d = sample_training(comp, sampler)
        expected = _per_start_minimize_fit(d, smoothing, fit_cfg).to_jsonable()
        assert fit(d, smoothing, fit_cfg).to_jsonable() == expected, name


def test_fit_matches_per_start_minimize_at_evaluation_cap(monkeypatch):
    # Default fits stop far below the 15 000-evaluation cap; a small cap makes
    # the solves stop on it, as minimize's maxfun would.
    lib = default_library()
    cases = [(target, sample_training(lib.composite(target), SamplerConfig(seed=seed)),
              FitConfig(n_starts=5, seed=seed))
             for target, seed in (("mixed_commercial", 4), ("D", 5), ("A", 6))]
    for maxfun in (3, 6, 11):
        monkeypatch.setattr(regression, "_LBFGSB_MAXFUN", maxfun)
        for target, d, f in cases:
            expected = _per_start_minimize_fit(d, SmoothingConfig(), f, maxfun).to_jsonable()
            assert fit(d, SmoothingConfig(), f).to_jsonable() == expected, (maxfun, target)


# ---------------------------------------------------------------- start-up

_STARTUP_PROBE = """
import json, platform, resource, sys
import tripfit.cli
from tripfit import (FitConfig, SamplerConfig, SmoothingConfig, UncertaintySpec, default_library,
                     fit, regression, sample_training, uncertainty_matrix, uncertainty_sweep)
libs = regression._SCIPY_DIR.parent / "scipy.libs"
out = {"optimize_loaded": "scipy.optimize" in sys.modules,
       "hints_at_import": tripfit.sampling._hints.cache_info().currsize,
       "ships_openblas": any(libs.glob("libscipy_openblas*")),
       "blas_found": regression._scipy_openblas() is not None,
       "glibc": platform.libc_ver()[0] == "glibc"}
comp = default_library().composite("mixed_commercial")
d = sample_training(comp, SamplerConfig(seed=1))
model = fit(d, SmoothingConfig(), FitConfig(seed=1)).model
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in (2, 3, 4):
    fit(d, SmoothingConfig(), FitConfig(seed=seed))
out["faults_per_fit"] = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3
# The example project's study: its levels with the zero level, 200 trials, m_eval 2 000.
spec = UncertaintySpec(gamma_levels=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
                       trials=200, seed=20240501, m_eval=2000,
                       matrix_targets=("P2", "P1-P4-P5"))
for _ in range(2):  # the first call warms up
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    uncertainty_sweep(comp, model, spec)
    uncertainty_matrix(comp, model, spec)
    out["faults_per_sweep"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
import scipy.optimize._lbfgsb as lbfgsb
out["same_setulb"] = regression._setulb is lbfgsb.setulb
print(json.dumps(out))
"""


def test_import_skips_scipy_optimize_and_keeps_blas_cap():
    # A fresh interpreter: this test process may have imported scipy.optimize already.
    src = str(Path(regression.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", _STARTUP_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    probe = json.loads(run.stdout)
    assert not probe["optimize_loaded"]
    # Config annotations are resolved at a class's first construction, not at import.
    assert probe["hints_at_import"] == 0
    # Without the library the one-thread tests below only skip, so check it here.
    if probe["ships_openblas"]:
        assert probe["blas_found"]
    # The fresh temporaries of a fit and of a sweep must not trim and regrow
    # glibc's heap.  Minor faults, with and without the 4 MiB block that
    # regression.py frees at import:
    #
    #                      per fit    per sweep + matrix
    #   with the block         0           0
    #   without it         6 365      19 782
    if probe["glibc"]:
        assert probe["faults_per_fit"] < 100
        assert probe["faults_per_sweep"] < 1000
    assert probe["same_setulb"]


def test_lbfgsb_loader_reuses_imported_module(monkeypatch):
    loaded = types.ModuleType("scipy.optimize._lbfgsb")
    monkeypatch.setitem(sys.modules, "scipy.optimize._lbfgsb", loaded)
    assert regression._load_lbfgsb() is loaded


def test_lbfgsb_loader_falls_back_to_scipy_import(monkeypatch):
    import scipy.optimize

    lbfgsb = regression._load_lbfgsb()
    assert regression._setulb is lbfgsb.setulb
    # With no spec found, the fallback's `from scipy.optimize import _lbfgsb`
    # takes the package attribute, so no finder runs while find_spec is patched.
    monkeypatch.delitem(sys.modules, "scipy.optimize._lbfgsb")
    monkeypatch.setattr(scipy.optimize, "_lbfgsb", lbfgsb, raising=False)

    def no_spec(cls, fullname, path=None, target=None):
        return None

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", classmethod(no_spec))
    assert regression._load_lbfgsb() is lbfgsb


def test_minimize_name_resolves_lazily():
    import scipy.optimize

    assert regression.minimize is scipy.optimize.minimize
    assert not hasattr(regression, "no_such_name")


needs_scipy_blas = pytest.mark.skipif(regression._scipy_openblas() is None,
                                      reason="scipy's bundled OpenBLAS not found")


def _spy_lockstep(monkeypatch, seen, fail=False):
    """Record scipy's BLAS thread count each time fit enters the lockstep solver."""
    get = regression._scipy_openblas()[0]
    lockstep = regression._lbfgsb_lockstep

    def spy(*args):
        seen.append(get())
        if fail:
            raise RuntimeError("lockstep failed")
        return lockstep(*args)

    monkeypatch.setattr(regression, "_lbfgsb_lockstep", spy)


@needs_scipy_blas
def test_fit_runs_lbfgsb_on_one_blas_thread(monkeypatch):
    get, set_ = regression._scipy_openblas()
    d = _dataset_from_hard(RECOVERY_TRUTH, n=100, seed=41)
    f = FitConfig(n_starts=3, seed=41)
    before = get()
    try:
        set_(2)
        outer = get()  # 1 on an OpenBLAS built single-threaded
        seen = []
        _spy_lockstep(monkeypatch, seen)
        fit(d, SmoothingConfig(), f)
        assert seen == [1, 1, 1] and get() == outer
        _spy_lockstep(monkeypatch, seen, fail=True)
        with pytest.raises(RuntimeError, match="lockstep failed"):
            fit(d, SmoothingConfig(), f)
        assert seen[-1] == 1 and get() == outer
    finally:
        set_(before)


@needs_scipy_blas
def test_fit_unchanged_when_scipy_blas_not_found(monkeypatch):
    d = _dataset_from_hard(RECOVERY_TRUTH, n=150, seed=42)
    f = FitConfig(n_starts=5, seed=42)
    scoped = fit(d, SmoothingConfig(), f).to_jsonable()
    threads = regression._scipy_openblas()[0]()
    seen = []
    _spy_lockstep(monkeypatch, seen)
    monkeypatch.setattr(regression, "_scipy_openblas", lambda: None)
    assert fit(d, SmoothingConfig(), f).to_jsonable() == scoped
    assert seen == [threads] * len(SmoothingConfig().continuation_schedule)


# ------------------------------------------------------------------- fit

def test_fit_recovers_two_block_truth():
    d = _dataset_from_hard(RECOVERY_TRUTH, n=500, seed=31)
    result = fit(d, SmoothingConfig(), FitConfig(seed=31))
    m = result.model
    assert abs(m.pi1 - 0.4) <= 0.05
    assert abs(m.tau1_star - 0.2) <= 0.05 and abs(m.tau2_star - 1.5) <= 0.05
    assert abs(m.v1_star - 70.0) <= 2.0 and abs(m.v2_star - 55.0) <= 2.0
    assert mae(harden(m), harden(RECOVERY_TRUTH), 4000, seed=31).epsilon <= 0.02
    assert result.converged


def test_fit_degenerate_single_rectangle():
    truth = SimplifiedModel(1.0, 0.8, 60.0, 0.0, 0.8, 60.0)
    d = _dataset_from_hard(truth, n=400, seed=5)
    result = fit(d, SmoothingConfig(), FitConfig(seed=5))
    m = result.model
    blocks_coincide = abs(m.tau1_star - m.tau2_star) < 0.1 and abs(m.v1_star - m.v2_star) < 2.0
    degenerate_split = min(m.pi1, m.pi2) < 0.05
    assert blocks_coincide or degenerate_split
    assert hard_mse(m, d) <= 0.02 ** 2 or mae(harden(m), harden(truth), 4000, seed=5).epsilon <= 0.02


def test_fit_beats_every_start():
    d = _dataset_from_hard(RECOVERY_TRUTH, n=200, seed=9)
    s = SmoothingConfig()
    result = fit(d, s, FitConfig(n_starts=8, seed=9))
    final_alpha = s.continuation_schedule[-1]
    from tripfit.regression import _LO, _SPAN
    from tripfit.sampling import lhs_unit
    from tripfit.rng import rng_stream

    starts = lhs_unit(rng_stream(9, "multistart"), 8, 5)
    for u in starts:
        m0 = SimplifiedModel.from_reduced(_LO + u * _SPAN)
        assert result.final_cost <= cost(m0, d, final_alpha) + 1e-15


def test_fit_result_invariants():
    d = _dataset_from_hard(RECOVERY_TRUTH, n=200, seed=13)
    s = SmoothingConfig()
    result = fit(d, s, FitConfig(seed=13))
    assert result.final_cost == cost(result.model, d, s.continuation_schedule[-1])
    # The schedule is the config's; diagnostics hold only what each start did.
    assert set(result.diagnostics) == {"start_costs", "start_iterations", "start_converged"}
    m = result.model
    # exact feasibility and canonical order
    assert 0.0 <= m.pi1 <= 1.0 and m.pi1 + m.pi2 == 1.0
    assert 0.0 <= m.tau1_star <= 5.0 and 0.0 <= m.v1_star <= 100.0
    assert (m.tau1_star, -m.v1_star) <= (m.tau2_star, -m.v2_star)
    assert result.final_cost <= min(result.diagnostics["start_costs"]) + 1e-15


@pytest.mark.parametrize("s, f", [
    (SmoothingConfig(continuation_schedule=((1e-300, 1e-300),)), FitConfig(n_starts=4, seed=2)),
    (SmoothingConfig(), FitConfig(n_starts=4, gtol=1e308, seed=2)),
], ids=["flat_schedule", "huge_gtol"])
def test_fit_start_that_never_moved_is_not_converged(s, f):
    # Each start meets gtol where it began: every sigmoid is 1/2 on a flat
    # schedule, so every gradient vanishes, and any gradient is below 1e308.
    result = fit(_dataset_from_hard(RECOVERY_TRUTH, n=100, seed=2), s, f)
    assert result.diagnostics["start_iterations"] == [0] * 4
    assert result.diagnostics["start_converged"] == [False] * 4
    assert not result.converged and result.iterations == 0


def test_fit_deterministic():
    d = _dataset_from_hard(RECOVERY_TRUTH, n=150, seed=3)
    a = fit(d, SmoothingConfig(), FitConfig(n_starts=6, seed=3))
    b = fit(d, SmoothingConfig(), FitConfig(n_starts=6, seed=3))
    assert a.model == b.model
    assert a.final_cost == b.final_cost
    assert a.start_index == b.start_index


def test_fit_rejects_empty_dataset():
    empty = Dataset(np.zeros(0), np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError):
        fit(empty, SmoothingConfig(), FitConfig())


# ---------------------------------------------------------------- harden

def test_harden_structure_and_corner():
    m = SimplifiedModel(0.4, 0.2, 70.0, 0.6, 1.5, 55.0)
    comp = harden(m)
    assert comp.names == ("block-1", "block-2")
    assert np.allclose(comp.fractions, [0.4, 0.6])
    assert comp.evaluate(2.0, 50.0) == 0.0           # both blocks tripped
    assert comp.evaluate(0.1, 90.0) == 1.0           # neither tripped
    assert comp.evaluate(0.5, 60.0) == pytest.approx(0.6)  # block 1 only


def test_harden_degenerate_split_is_single_step():
    m = SimplifiedModel(0.0, 0.5, 80.0, 1.0, 1.2, 55.0)
    comp = harden(m)
    block2 = hard_values(SimplifiedModel(1.0, 1.2, 55.0, 0.0, 1.2, 55.0), *np.meshgrid(
        np.linspace(0, 5, 21), np.linspace(0, 100, 21), indexing="ij"))
    tt, vv = np.meshgrid(np.linspace(0, 5, 21), np.linspace(0, 100, 21), indexing="ij")
    assert np.array_equal(comp.evaluate(tt, vv), block2)


def test_harden_matches_hard_values():
    rng = np.random.default_rng(10)
    m = SimplifiedModel(0.35, 0.7, 64.0, 0.65, 2.0, 38.0)
    tau = rng.uniform(0, 5, 500)
    v = rng.uniform(0, 100, 500)
    assert np.array_equal(harden(m).evaluate(tau, v), hard_values(m, tau, v))


def test_harden_close_to_smooth_away_from_boundaries():
    m = SimplifiedModel(0.4, 0.7, 64.0, 0.6, 2.0, 38.0)
    s = (250.0, 10.0)
    tau = np.linspace(0, 5, 101)
    v = np.linspace(0, 100, 101)
    tt, vv = np.meshgrid(tau, v, indexing="ij")
    hard = hard_values(m, tt, vv)
    smooth = smooth_model(tt, vv, m, s)
    assert np.max(np.abs(hard - smooth)) <= 0.5 + 1e-12
    band_tau = 5.0 / s[0]
    band_v = 5.0 / s[1]
    outside = (
        (np.abs(tt - m.tau1_star) > band_tau) & (np.abs(tt - m.tau2_star) > band_tau)
        & (np.abs(vv - m.v1_star) > band_v) & (np.abs(vv - m.v2_star) > band_v)
    )
    assert np.max(np.abs(hard - smooth)[outside]) <= 0.01


# ------------------------------------------------------------ brute force

def test_brute_force_exact_on_grid_truth():
    # truth parameters all sit on the 6-point axis grids and the pi grid
    truth = SimplifiedModel(0.4, 1.0, 60.0, 0.6, 3.0, 40.0)
    d = _dataset_from_hard(truth, n=300, seed=23)
    model = brute_force_fit(d, 6)
    assert hard_mse(model, d) == 0.0


def test_brute_force_ties_resolve_deterministically():
    truth = SimplifiedModel(1.0, 1.0, 60.0, 0.0, 1.0, 60.0)
    d = _dataset_from_hard(truth, n=100, seed=2)
    a = brute_force_fit(d, 5)
    b = brute_force_fit(d, 5)
    assert a == b
    assert (a.tau1_star, -a.v1_star) <= (a.tau2_star, -a.v2_star)


def test_fit_dominates_brute_force_quick():
    rng = np.random.default_rng(40)
    for i in range(3):
        comp = random_composite(rng)
        cfg = SamplerConfig(weight_threshold=0.0, n_train=200, m_eval=2000, seed=60 + i)
        d = sample_training(comp, cfg)
        result = fit(d, SmoothingConfig(), FitConfig(seed=60 + i))
        reference = brute_force_fit(d, 9)
        assert hard_mse(result.model, d) <= hard_mse(reference, d) + 0.01


def _two_pass_brute_force(d, r):
    """Reference: the brute-force table built twice, for the minimum and then its ties."""
    tau_grid = np.linspace(0.0, TAU_MAX, r)
    v_grid = np.linspace(0.0, V_MAX, r)
    pi_grid = np.round(np.arange(21) * 0.05, 2)
    n = len(d)
    t_ind = d.tau_f[None, :] >= tau_grid[:, None]
    v_ind = d.v_f[None, :] <= v_grid[:, None]
    blocks = 1.0 - (t_ind[:, None, :] & v_ind[None, :, :]).reshape(r * r, n)
    k = blocks.shape[0]
    prod = (blocks @ blocks.T) / n
    cross_y = (blocks @ d.y) / n
    y_sq = float(np.mean(d.y * d.y))
    diag = np.diag(prod)

    def table(pi1):
        pi2 = 1.0 - pi1
        return (pi1 * pi1 * diag[:, None] + pi2 * pi2 * diag[None, :]
                + 2.0 * pi1 * pi2 * prod - 2.0 * pi1 * cross_y[:, None]
                - 2.0 * pi2 * cross_y[None, :] + y_sq)

    best_val = min(float(table(pi1).min()) for pi1 in pi_grid)
    candidates = []
    for p_idx, pi1 in enumerate(pi_grid):
        for i, j in np.argwhere(table(pi1) == best_val):
            model = SimplifiedModel.from_reduced(
                (pi1, tau_grid[i // r], v_grid[i % r], tau_grid[j // r], v_grid[j % r])
            ).canonical()
            candidates.append((model.tau1_star, -model.v1_star, model.tau2_star,
                               -model.v2_star, model.pi1, (p_idx * k + i) * k + j, model))
    return min(candidates)[-1]


def test_brute_force_matches_two_pass_table():
    rng = np.random.default_rng(41)
    for trial in range(20):
        n = int(rng.integers(5, 120))
        tau, v = rng.uniform(0, 5, n), rng.uniform(0, 100, n)
        # many grid blocks coincide on the data, so most datasets have tied minima
        y = random_composite(rng).evaluate(tau, v) if trial % 2 else rng.uniform(0, 1, n)
        d = Dataset(tau, v, y)
        r = int(rng.integers(5, 10))
        assert brute_force_fit(d, r) == _two_pass_brute_force(d, r)


def test_brute_force_rejects_bad_input():
    d = _dataset_from_hard(RECOVERY_TRUTH, n=50, seed=1)
    with pytest.raises(ValueError):
        brute_force_fit(d, 1)
    with pytest.raises(ValueError):
        brute_force_fit(Dataset(np.zeros(0), np.zeros(0), np.zeros(0)), 5)
