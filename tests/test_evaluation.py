import hashlib
from dataclasses import replace

import numpy as np
import pytest

import tripfit.evaluation
from helpers import random_composite, random_zone
from tripfit import (
    CompositeProtection,
    FitConfig,
    ProtectionScheme,
    SamplerConfig,
    SimplifiedModel,
    SmoothingConfig,
    TripZone,
    UncertaintySpec,
    fit,
    harden,
    mae,
    perturb_fractions,
    sample_training,
    uncertainty_matrix,
    uncertainty_sweep,
)
from tripfit.evaluation import (
    _maes,
    matrix_csv,
    sweep_long_csv,
    sweep_summary_csv,
)
from tripfit.protection import accumulate
from tripfit.rng import rng_stream
from tripfit.sampling import lhs_box

TWO_BLOCK_TRUTH = SimplifiedModel(0.4, 0.2, 70.0, 0.6, 1.5, 55.0)


def _named_two_scheme_composite():
    base = harden(TWO_BLOCK_TRUTH)
    return CompositeProtection(
        tuple((ProtectionScheme(f"Z{i + 1}", s.zone), pi) for i, (s, pi) in enumerate(base.entries))
    )


@pytest.fixture(scope="module")
def fitted_pair():
    comp = _named_two_scheme_composite()
    data = sample_training(comp, SamplerConfig(weight_threshold=0.0, n_train=400, m_eval=4000, seed=7))
    model = fit(data, SmoothingConfig(), FitConfig(seed=7)).model
    return comp, model


# ------------------------------------------------------------------- mae

def test_mae_identical_is_zero():
    comp = random_composite(np.random.default_rng(1))
    assert mae(comp, comp, 500, seed=3).epsilon == 0.0


def test_mae_symmetric_at_fixed_seed():
    rng = np.random.default_rng(2)
    a, b = random_composite(rng), random_composite(rng)
    assert mae(a, b, 800, seed=5).epsilon == mae(b, a, 800, seed=5).epsilon


def test_mae_matches_analytic_area():
    # truth trips everywhere in the tau >= 2.5 half of the box
    truth = CompositeProtection(((ProtectionScheme("half", TripZone.rectangle(2.5, 100.0)), 1.0),))
    connected = CompositeProtection(((ProtectionScheme("never", TripZone()), 1.0),))
    report = mae(connected, truth, 5000, seed=11)
    sigma = (0.25 / 5000) ** 0.5
    assert abs(report.epsilon - 0.5) <= 3 * sigma


def test_mae_well_fitted_example(fitted_pair):
    comp, model = fitted_pair
    assert mae(harden(model), comp, 5000, seed=9).epsilon <= 0.05


# ------------------------------------------------------ perturb_fractions

def _two_scheme(pi_a=0.5, pi_b=0.5):
    return CompositeProtection((
        (ProtectionScheme("a", TripZone.rectangle(0.5, 60.0)), pi_a),
        (ProtectionScheme("b", TripZone.rectangle(2.0, 40.0)), pi_b),
    ))


def test_perturb_zero_gamma_is_identity():
    comp = _two_scheme()
    assert perturb_fractions(comp, {"a": 0.0, "b": 0.0}) is comp
    assert perturb_fractions(comp, {}) is comp


def test_perturb_hand_arithmetic():
    comp = _two_scheme()
    out = perturb_fractions(comp, {"a": 0.2})
    assert out.fractions[0] == pytest.approx(0.6 / 1.1, abs=1e-12)
    assert out.fractions[1] == pytest.approx(0.5 / 1.1, abs=1e-12)


def test_perturb_gamma_boundary():
    comp = _two_scheme()
    out = perturb_fractions(comp, {"a": -1.0})
    assert out.fractions[0] == 0.0 and out.fractions[1] == 1.0
    with pytest.raises(ValueError, match="below 0"):
        perturb_fractions(comp, {"a": -1.0001})
    with pytest.raises(ValueError, match="perturbed fractions sum to 0; cannot renormalize"):
        perturb_fractions(comp, {"a": -1.0, "b": -1.0})


def test_perturb_unknown_target():
    with pytest.raises(ValueError, match="not in composite"):
        perturb_fractions(_two_scheme(), {"zz": 0.1})


def test_perturb_renormalized_sums_to_one():
    rng = np.random.default_rng(6)
    for _ in range(50):
        comp = random_composite(rng)
        gammas = {name: float(rng.uniform(-0.8, 0.8)) for name in comp.names}
        out = perturb_fractions(comp, gammas)
        assert abs(out.fraction_sum - 1.0) <= 1e-9


# ------------------------------------------------------------------ sweep

def test_sweep_level_zero_is_nominal(fitted_pair):
    comp, model = fitted_pair
    spec = UncertaintySpec(gamma_levels=(0.0, 0.3), trials=40, seed=21, m_eval=600)
    report = uncertainty_sweep(comp, model, spec)
    level0 = report.levels[0]
    assert np.all(level0.maes == report.nominal_mae)
    assert float(np.ptp(level0.maes)) == 0.0  # identical samples: variance exactly 0
    assert level0.maes.size == spec.trials


def test_sweep_deterministic(fitted_pair):
    comp, model = fitted_pair
    spec = UncertaintySpec(gamma_levels=(0.2, 0.5), trials=40, seed=33, m_eval=500)
    a = uncertainty_sweep(comp, model, spec)
    b = uncertainty_sweep(comp, model, spec)
    for la, lb in zip(a.levels, b.levels):
        assert np.array_equal(la.maes, lb.maes)


def test_sweep_seed_consistency(fitted_pair):
    # two independent seeds agree within two combined standard errors
    comp, model = fitted_pair
    levels = (0.4,)
    reports = [
        uncertainty_sweep(comp, model, UncertaintySpec(gamma_levels=levels, trials=150, seed=s, m_eval=1500))
        for s in (101, 202)
    ]
    means = [r.levels[0].mean for r in reports]
    ses = [r.levels[0].maes.std(ddof=1) / np.sqrt(r.levels[0].maes.size) for r in reports]
    assert abs(means[0] - means[1]) <= 2 * (ses[0] + ses[1])


def test_sweep_interval_brackets(fitted_pair):
    comp, model = fitted_pair
    spec = UncertaintySpec(gamma_levels=(0.5,), trials=60, seed=5, m_eval=400)
    stats = uncertainty_sweep(comp, model, spec).levels[0]
    assert stats.p12_5 <= np.median(stats.maes) <= stats.p87_5
    assert stats.p12_5 <= stats.mean <= stats.p87_5


def test_sweep_targets_validated(fitted_pair):
    comp, model = fitted_pair
    spec = UncertaintySpec(targets=("nope",), trials=30, seed=1)
    with pytest.raises(ValueError, match="targets"):
        uncertainty_sweep(comp, model, spec)


def test_sweep_refit_smoke(fitted_pair):
    comp, model = fitted_pair
    spec = UncertaintySpec(gamma_levels=(0.4,), trials=30, seed=2, m_eval=300, refit=True)
    with pytest.raises(ValueError, match="refit"):
        uncertainty_sweep(comp, model, spec)
    sampler = SamplerConfig(weight_threshold=0.0, n_train=40, m_eval=400)
    smoothing = SmoothingConfig(continuation_schedule=((25.0, 1.0),))
    fit_config = FitConfig(n_starts=2, max_iters=60)
    report = uncertainty_sweep(comp, model, spec, sampler=sampler, smoothing=smoothing,
                               fit_config=fit_config)
    assert report.levels[0].maes.size == 30
    assert np.all(report.levels[0].maes >= 0.0)
    refit = (sampler, smoothing, fit_config)
    rebuilt = [_rebuilt_trial_mae(comp, model, spec, "sweep", (0,), t, (comp.names,), refit)
               for t in range(spec.trials)]
    assert report.levels[0].maes.tolist() == rebuilt


def test_sweep_counts_non_converged_refits(fitted_pair):
    comp, model = fitted_pair
    spec = UncertaintySpec(gamma_levels=(0.0, 0.4), trials=30, seed=3, m_eval=300)
    assert [stats.not_converged for stats in uncertainty_sweep(comp, model, spec).levels] == [0, 0]
    sampler = SamplerConfig(weight_threshold=0.0, n_train=40, m_eval=400)
    smoothing = SmoothingConfig(continuation_schedule=((25.0, 1.0),))
    report = uncertainty_sweep(comp, model, replace(spec, refit=True), sampler=sampler,
                               smoothing=smoothing, fit_config=FitConfig(max_iters=1))
    assert [stats.not_converged for stats in report.levels] == [30, 30]


def test_sweep_counts_refits_that_never_moved(fitted_pair, monkeypatch):
    # With one start and one iteration, one of the 60 refits stops where it
    # began, at cost 0.113 (a 20-start fit of its data reaches 0.0026): it is
    # not converged, so its level counts it with the 59 that stopped above gtol.
    comp, model = fitted_pair
    refits = []

    def capture(*args):
        refits.append(fit(*args))
        return refits[-1]

    monkeypatch.setattr(tripfit.evaluation, "fit", capture)
    spec = UncertaintySpec(gamma_levels=(0.0, 0.4), trials=30, seed=3, m_eval=300, refit=True)
    report = uncertainty_sweep(comp, model, spec,
                               sampler=SamplerConfig(weight_threshold=0.0, n_train=40, m_eval=400),
                               smoothing=SmoothingConfig(continuation_schedule=((25.0, 1.0),)),
                               fit_config=FitConfig(n_starts=1, max_iters=1))
    assert [r.iterations for r in refits].count(0) == 1
    assert [stats.not_converged for stats in report.levels] == [30, 30]


def _rebuilt_trial_mae(comp, model, spec, stream, cell, t, targets, refit=None):
    """One trial scored by rebuilding its perturbed composite and evaluating it."""
    tau, v = lhs_box(rng_stream(spec.seed, "sweep_eval"), spec.m_eval)
    rng = rng_stream(spec.seed, stream, *cell, t)
    gammas = {}
    for group, li in zip(targets, cell):
        level = spec.gamma_levels[li]
        for name in group:
            gammas[name] = float(rng.uniform(-level, level))
    actual = perturb_fractions(comp, gammas)
    if refit is not None:
        sampler, smoothing, fit_cfg = refit
        trial_seed = int(rng.integers(0, 2**63 - 1))
        data = sample_training(actual, replace(sampler, seed=trial_seed))
        model = fit(data, smoothing, replace(fit_cfg, seed=trial_seed)).model
    approx = harden(model).evaluate(tau, v)
    return float(np.abs(approx - actual.evaluate(tau, v)).mean())


def _five_scheme_composite():
    # Irregular fractions whose float sum is 1 + 2**-52, so that a change of
    # summation order, or renormalizing an unperturbed row, shows in the bits.
    rng = np.random.default_rng(13)
    fractions = rng.dirichlet(np.ones(5))
    return CompositeProtection(tuple(
        (ProtectionScheme(f"S{i}", random_zone(rng)), float(pi))
        for i, pi in enumerate(fractions / fractions.sum())
    ))


@pytest.mark.parametrize("trials, targets", [(30, ()), (70, ("S1", "S3"))])
def test_sweep_matches_rebuilt_composites(trials, targets):
    # Trial counts that leave a partial last block of scored trials.
    comp = _five_scheme_composite()
    spec = UncertaintySpec(gamma_levels=(0.0, 0.6), targets=targets, trials=trials,
                           seed=41, m_eval=700)
    report = uncertainty_sweep(comp, TWO_BLOCK_TRUTH, spec)
    group = targets or comp.names
    tau, v = lhs_box(rng_stream(spec.seed, "sweep_eval"), spec.m_eval)
    nominal = float(np.abs(harden(TWO_BLOCK_TRUTH).evaluate(tau, v) - comp.evaluate(tau, v)).mean())
    assert report.nominal_mae == nominal
    for li, stats in enumerate(report.levels):
        rebuilt = [_rebuilt_trial_mae(comp, TWO_BLOCK_TRUTH, spec, "sweep", (li,), t, (group,))
                   for t in range(trials)]
        assert stats.maes.tolist() == rebuilt


def test_matrix_matches_rebuilt_composites():
    comp = _five_scheme_composite()
    spec = UncertaintySpec(gamma_levels=(0.0, 0.3, 0.7), matrix_targets=("S1", "S3"),
                           trials=33, seed=17, m_eval=400)
    report = uncertainty_matrix(comp, TWO_BLOCK_TRUTH, spec)
    groups = (("S1",), ("S3",))
    for i in range(3):
        for j in range(3):
            rebuilt = sum(_rebuilt_trial_mae(comp, TWO_BLOCK_TRUTH, spec, "matrix", (i, j), t,
                                             groups)
                          for t in range(spec.trials)) / spec.trials
            # Summation order differs, by at most about trials * eps relative.
            assert report.mean_mae[i, j] == pytest.approx(
                rebuilt, rel=spec.trials * np.finfo(float).eps, abs=0.0)


def _accumulate_then_abs(approx, fractions, conn):
    """Block scoring as it was before patterns and the reused buffer, verbatim."""
    truth = accumulate(fractions, conn)
    return np.abs(approx - truth).mean(axis=1)


@pytest.mark.parametrize("refit", [False, True])
def test_maes_matches_accumulate_then_abs(refit):
    rng = np.random.default_rng(5)
    comp = _five_scheme_composite()
    tau, v = lhs_box(rng, 900)
    conn = comp.connectivity(tau, v)
    patterns, inverse = np.unique(conn, axis=1, return_inverse=True)
    # 70 rows: two full blocks and a partial last one.
    fractions = rng.dirichlet(np.ones(len(comp.names)), 70)
    approx = rng.uniform(size=(70, tau.size) if refit else tau.size)
    got = _maes(np.broadcast_to(approx, (70, tau.size)), fractions, patterns,
                inverse.reshape(-1))
    assert got.tolist() == _accumulate_then_abs(approx, fractions, conn).tolist()


def test_non_refit_study_builds_no_stream_per_trial(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return rng_stream(*args)

    monkeypatch.setattr(tripfit.evaluation, "rng_stream", counted)
    comp = _five_scheme_composite()
    spec = UncertaintySpec(gamma_levels=(0.0, 0.3, 0.6), matrix_targets=("S1", "S3"),
                           trials=40, seed=9, m_eval=200)
    uncertainty_sweep(comp, TWO_BLOCK_TRUTH, spec)
    uncertainty_matrix(comp, TWO_BLOCK_TRUTH, spec)
    # One stream each, for the evaluation points; the trials' gammas come
    # from stream_uniforms.
    assert calls == [(9, "sweep_eval"), (9, "sweep_eval")]


def _digest(values) -> str:
    return hashlib.sha256("\n".join(repr(float(x)) for x in values).encode()).hexdigest()


def test_sweep_and_matrix_golden_digests():
    # Digests recorded with per-trial generators and full-connectivity block
    # scoring.  Two hand-set staircases and no fit: every value is IEEE
    # arithmetic on fixed inputs, so a change in any bit of any trial shows.
    comp = _named_two_scheme_composite()
    approx = SimplifiedModel(0.5, 0.3, 65.0, 0.5, 1.2, 60.0)
    spec = UncertaintySpec(gamma_levels=(0.0, 0.3), matrix_targets=("Z1", "Z2"), trials=40,
                           seed=5, m_eval=500)
    sweep = uncertainty_sweep(comp, approx, spec)
    matrix = uncertainty_matrix(comp, approx, spec)
    assert _digest(np.concatenate([stats.maes for stats in sweep.levels])) == (
        "ebcc33f79d024c559c854d707f148f716b5ada0353c90bc5a47f5d9cfb6bb16b")
    assert _digest(matrix.mean_mae.ravel()) == (
        "af1ea14a9ece191aa050ed1d15d0eff04f82a8c59a446f4b0be2e131a7c4447d")


def test_uncertainty_spec_validation():
    with pytest.raises(ValueError):
        UncertaintySpec(gamma_levels=(1.0,))
    with pytest.raises(ValueError):
        UncertaintySpec(trials=10)
    with pytest.raises(ValueError, match="must not repeat"):
        UncertaintySpec(targets=("Z1", "Z2", "Z1"))
    with pytest.raises(ValueError, match="two different schemes"):
        UncertaintySpec(matrix_targets=("Z1", "Z1"))
    with pytest.raises(ValueError, match="gamma_levels must not be empty"):
        UncertaintySpec(gamma_levels=())
    with pytest.raises(ValueError, match="gamma_levels must be a list"):
        UncertaintySpec(gamma_levels="0")
    with pytest.raises(ValueError, match="targets must be a list"):
        UncertaintySpec(targets="Z1")
    with pytest.raises(ValueError, match="m_eval must be >= 1"):
        UncertaintySpec(m_eval=0)


# ----------------------------------------------------------------- matrix

def test_matrix_shape_and_nominal_corner(fitted_pair):
    comp, model = fitted_pair
    spec = UncertaintySpec(
        gamma_levels=(0.0, 0.4, 0.8), matrix_targets=("Z1", "Z2"), trials=30, seed=13,
        m_eval=500
    )
    report = uncertainty_matrix(comp, model, spec)
    assert report.mean_mae.shape == (3, 3)
    sweep = uncertainty_sweep(comp, model, spec)
    # Cell (0, 0) averages spec.trials identical per-trial MAEs as total / trials;
    # float64 summation may round that away from the single value, by at most
    # about trials * eps relative.  Any real perturbation is far larger.
    assert report.mean_mae[0, 0] == pytest.approx(
        sweep.nominal_mae, rel=spec.trials * np.finfo(float).eps, abs=0.0
    )


def test_matrix_requires_two_targets(fitted_pair):
    comp, model = fitted_pair
    with pytest.raises(ValueError, match="matrix_targets must be a pair"):
        UncertaintySpec(matrix_targets=("Z1",), trials=30)
    with pytest.raises(TypeError, match="matrix_targets entry must be a string"):
        UncertaintySpec(matrix_targets=("Z1", ["Z2"]), trials=30)
    # The sweep's targets are not the matrix's.
    with pytest.raises(ValueError, match="needs matrix_targets"):
        uncertainty_matrix(comp, model, UncertaintySpec(targets=("Z1", "Z2"), trials=30))


def test_matrix_rejects_target_missing_from_composite():
    spec = UncertaintySpec(matrix_targets=("S1", "S9"), trials=30)
    with pytest.raises(ValueError, match=r"matrix targets not in composite: \['S9'\]"):
        uncertainty_matrix(_five_scheme_composite(), TWO_BLOCK_TRUTH, spec)


# -------------------------------------------------------------------- CSV

def test_csv_writers(tmp_path, fitted_pair):
    comp, model = fitted_pair
    spec = UncertaintySpec(gamma_levels=(0.0, 0.5), trials=30, seed=3, m_eval=300)
    report = uncertainty_sweep(comp, model, spec)
    long_path = tmp_path / "long.csv"
    summary_path = tmp_path / "summary.csv"
    sweep_long_csv(report, long_path, comments=["seed: 3"])
    sweep_summary_csv(report, summary_path)
    long_lines = long_path.read_text().splitlines()
    assert long_lines[0] == "# seed: 3"
    assert long_lines[1] == "level,trial,mae"
    assert len(long_lines) == 2 + 2 * 30
    summary_lines = summary_path.read_text().splitlines()
    assert summary_lines[0] == "level,mean,p12.5,p87.5"
    assert len(summary_lines) == 3

    mspec = UncertaintySpec(gamma_levels=(0.0, 0.5), matrix_targets=("Z1", "Z2"), trials=30,
                            seed=3, m_eval=300)
    mreport = uncertainty_matrix(comp, model, mspec)
    matrix_path = tmp_path / "matrix.csv"
    matrix_csv(mreport, matrix_path)
    matrix_lines = matrix_path.read_text().splitlines()
    assert matrix_lines[0].startswith("Z1\\Z2,")
    assert len(matrix_lines) == 3
