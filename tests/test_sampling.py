import csv
import math
import re
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from helpers import dataset_from_csv, random_composite
from tripfit import (
    Dataset,
    SamplerConfig,
    SamplingError,
    sample_training,
    weight,
)
from tripfit.rng import rng_stream
from tripfit.sampling import _write_csv, lhs_box, lhs_unit


# ---------------------------------------------------------------- weight

def test_weight_trivial_lines():
    cfg = SamplerConfig()
    assert weight(0.0, 73.0, cfg) == 1.0
    assert weight(3.7, 50.0, cfg) == 1.0
    assert weight(3.7, 12.0, cfg) == 1.0  # clamped below the knee


def test_weight_derived_value():
    cfg = SamplerConfig(beta_tau=1.0, beta_v=0.1)
    expect = 1.0 - (1.0 - math.exp(-5.0)) * (1.0 - math.exp(-0.1 * 50.0))
    assert weight(5.0, 100.0, cfg) == pytest.approx(expect, abs=1e-15)
    assert expect == pytest.approx(0.0134, abs=5e-4)


@given(st.floats(0, 5, allow_nan=False), st.floats(0, 100, allow_nan=False))
def test_weight_in_unit_interval(tau, v):
    cfg = SamplerConfig(beta_tau=2.0, beta_v=0.05)
    w = weight(tau, v, cfg)
    assert 0.0 <= w <= 1.0


def test_weight_monotone_above_knee():
    cfg = SamplerConfig()
    rng = np.random.default_rng(0)
    for _ in range(200):
        tau, v = rng.uniform(0, 4.9), rng.uniform(50, 99)
        assert weight(tau + 0.1, v, cfg) <= weight(tau, v, cfg) + 1e-12
        assert weight(tau, v + 1.0, cfg) <= weight(tau, v, cfg) + 1e-12


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(beta_tau=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(weight_threshold=1.0)
    with pytest.raises(ValueError):
        SamplerConfig(n_train=3)
    with pytest.raises(ValueError):
        SamplerConfig(n_train=200, m_eval=1999)
    for bad in (("a", "b"), (-3.0, 5.0), (0.0, 5.5), (True, 5.0), (0.0, float("nan")),
                (0.0,), (0.0, 1.0, 2.0), "05", (2.0, 1.0)):
        with pytest.raises(ValueError, match="tau_range"):
            SamplerConfig(tau_range=bad)
    with pytest.raises(ValueError, match="v_range"):
        SamplerConfig(v_range=(0, 300))
    kept = SamplerConfig(tau_range=(0, 5), v_range=[0.0, 100])
    assert kept.v_range == (0.0, 100) and type(kept.v_range[1]) is int


def test_sampler_config_list_ranges_compare_and_hash_by_value():
    # JSON gives the ranges as lists; the config stores them as tuples, like the defaults.
    from_json = SamplerConfig(tau_range=[0.0, 5.0], v_range=[0, 100])
    assert from_json.tau_range == (0.0, 5.0) and from_json.v_range == (0, 100)
    assert from_json == SamplerConfig()
    assert hash(from_json) == hash(SamplerConfig())


# ---------------------------------------------------------- sample_training

def test_training_points_satisfy_threshold_and_labels():
    rng = np.random.default_rng(21)
    comp = random_composite(rng)
    cfg = SamplerConfig(n_train=300, m_eval=3000, seed=5)
    data = sample_training(comp, cfg)
    assert len(data) == 300
    assert np.all(weight(data.tau_f, data.v_f, cfg) >= cfg.weight_threshold)
    assert np.array_equal(data.y, comp.evaluate(data.tau_f, data.v_f))
    # labels are subset sums of the composite fractions
    sums = {0.0}
    for pi in comp.fractions:
        sums |= {s + pi for s in sums}
    attainable = np.array(sorted(sums))
    assert np.all(np.min(np.abs(data.y[:, None] - attainable[None, :]), axis=1) < 1e-12)


def test_training_deterministic_and_uniform_when_unweighted():
    rng = np.random.default_rng(2)
    comp = random_composite(rng)
    cfg = SamplerConfig(weight_threshold=0.0, n_train=500, m_eval=5000, seed=17)
    a = sample_training(comp, cfg)
    b = sample_training(comp, cfg)
    assert np.array_equal(a.tau_f, b.tau_f) and np.array_equal(a.v_f, b.v_f)
    assert a.tau_f.min() >= 0 and a.tau_f.max() <= 5
    assert a.v_f.min() >= 0 and a.v_f.max() <= 100


def test_training_concentrates_near_fast_faults():
    # With default betas/threshold the tau < 1 s band holds more than the
    # uniform 20 % share of samples.
    rng = np.random.default_rng(4)
    comp = random_composite(rng)
    cfg = SamplerConfig(n_train=2000, m_eval=20000, seed=9)
    data = sample_training(comp, cfg)
    assert np.mean(data.tau_f < 1.0) > 0.2


def test_training_rejects_unreachable_threshold():
    rng = np.random.default_rng(6)
    comp = random_composite(rng)
    cfg = SamplerConfig(
        weight_threshold=0.99,
        tau_range=(3.0, 5.0),
        v_range=(60.0, 100.0),
        n_train=50,
        m_eval=500,
        seed=1,
    )
    with pytest.raises(SamplingError, match="weight_threshold"):
        sample_training(comp, cfg)


def test_training_fails_only_below_the_stated_share():
    # Just above v_f = 50 the weight falls below 0.9999, so the accepted share
    # of each box is about (50 - v_lo) / (100 - v_lo): 0.085 % here, which the
    # sampler accepts although it is below 0.1 % ...
    comp = random_composite(np.random.default_rng(7))
    cfg = SamplerConfig(weight_threshold=0.9999, tau_range=(4.9, 5.0), v_range=(49.96, 100.0),
                        n_train=50, m_eval=500, seed=1)
    assert len(sample_training(comp, cfg)) == 50
    # ... and 0.03 % here, below the n_train / proposals bound the message states.
    cfg = replace(cfg, v_range=(49.985, 100.0))
    with pytest.raises(SamplingError) as info:
        sample_training(comp, cfg)
    found = re.search(r"~([0-9.]+)% of the sampling box after (\d+) proposals "
                      r"\(n_train=50 needs >= ([0-9.]+)%\)", str(info.value))
    assert found, str(info.value)
    share, proposals, need = float(found[1]), int(found[2]), float(found[3])
    assert proposals >= 2000 * 50
    assert need == round(100 * 50 / proposals, 4) and need < 0.05
    assert share < need


# ---------------------------------------------------------- latin hypercube

def test_lhs_occupies_every_stratum():
    tau, v = lhs_box(rng_stream(3, "eval"), 100)
    t_strata = np.floor(tau / (5.0 / 100)).astype(int)
    v_strata = np.floor(v / (100.0 / 100)).astype(int)
    assert sorted(t_strata) == list(range(100))
    assert sorted(v_strata) == list(range(100))


def test_lhs_single_point_and_mean():
    tau, v = lhs_box(rng_stream(8, "eval"), 1)
    assert 0 <= tau[0] <= 5 and 0 <= v[0] <= 100
    tau, _ = lhs_box(rng_stream(8, "eval"), 10_000)
    assert abs(tau.mean() - 2.5) < 0.05


def test_lhs_streams_disjoint_from_training():
    tau_eval, _ = lhs_box(rng_stream(12, "eval"), 64)
    train = rng_stream(12, "train").uniform(0, 5, 64)
    assert not np.allclose(np.sort(tau_eval), np.sort(train))


def test_lhs_unit_reproducible():
    a = lhs_unit(rng_stream(5, "eval"), 50, 3)
    b = lhs_unit(rng_stream(5, "eval"), 50, 3)
    assert np.array_equal(a, b)
    assert a.shape == (50, 3) and a.min() >= 0 and a.max() < 1


# ------------------------------------------------------------------- CSV

def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    comp = random_composite(rng)
    data = sample_training(comp, SamplerConfig(n_train=40, m_eval=400, seed=2))
    path = tmp_path / "train.csv"
    data.to_csv(path, comments=["seed: 2", "demo comment"])
    again = dataset_from_csv(path)
    assert np.array_equal(data.tau_f, again.tau_f)
    assert np.array_equal(data.v_f, again.v_f)
    assert np.array_equal(data.y, again.y)
    text = path.read_text().splitlines()
    assert text[0] == "# seed: 2"
    assert text[2] == "tau_f_s,v_f_pct,y"


# Zeros, subnormals, and neighbours of 1e-4 and 1e16, where repr switches
# between positional and exponent form.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-4, 1e16] + [
    float(np.nextafter(x, toward)) for x in (1e-4, -1e-4, 1e16, -1e16)
    for toward in (-np.inf, np.inf)
]
_FINITE_FLOATS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.integers(0, 2**64 - 1).map(
        lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
    ).filter(math.isfinite),
)


@given(st.lists(st.tuples(_FINITE_FLOATS, st.integers()), min_size=1, max_size=20))
def test_write_csv_numbers_read_back_as_repr(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "numbers.csv"
    _write_csv(path, ["demo"], ["float", "float64", "int"],
               ([x, np.float64(x), n] for x, n in rows))
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[:2] == [["# demo"], ["float", "float64", "int"]]
    assert lines[2:] == [[repr(x), repr(x), str(n)] for x, n in rows]


def test_dataset_csv_header_check(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        dataset_from_csv(path)


def test_dataset_shape_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros(3), np.zeros(2), np.zeros(3))
