import csv
import json
import math
import sys
from dataclasses import asdict, dataclass

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from helpers import dataset_from_csv, random_composite
from tripfit import (
    Dataset,
    FitConfig,
    SamplerConfig,
    UncertaintySpec,
    sample_training,
    weight,
)
from tripfit.config import _SECTIONS
from tripfit.rng import rng_stream
from tripfit.sampling import _check_fields, _checked, _write_csv, lhs_box, lhs_unit


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


def test_sampler_config_list_ranges_compare_and_hash_by_value():
    # JSON gives tuple fields as lists; every section read back from its JSON
    # echo stores them as tuples, like the defaults.
    for cls in _SECTIONS.values():
        from_json = cls(**json.loads(json.dumps(asdict(cls()))))
        assert from_json == cls() and hash(from_json) == hash(cls()), cls.__name__


@pytest.mark.parametrize("cls, seed", [(FitConfig, 1.5), (SamplerConfig, True),
                                       (UncertaintySpec, "3")])
def test_section_seed_must_be_an_integer(cls, seed):
    with pytest.raises(TypeError) as info:
        cls(seed=seed)
    assert str(info.value) == f"seed must be an integer, got {seed!r}"


@dataclass(frozen=True)
class _EachKind:
    """One field of each annotation the checker supports, and no check code of its own."""

    count: int = 1
    real: float = 0.5
    flag: bool = False
    name: str = "x"
    reals: tuple[float, ...] = ()
    pair: tuple[str, str] = ("a", "b")
    maybe: tuple[float, float] | None = None
    pairs: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        _check_fields(self)


@pytest.mark.parametrize("field, value, error, message", [
    ("count", 1.0, TypeError, "count must be an integer, got 1.0"),
    ("count", True, TypeError, "count must be an integer, got True"),
    ("real", False, TypeError, "real must be a real number, got False"),
    ("real", "1", TypeError, "real must be a real number, got '1'"),
    ("flag", 0, TypeError, "flag must be a boolean, got 0"),
    ("name", None, TypeError, "name must be a string, got None"),
    ("reals", "ab", ValueError, "reals must be a list, got 'ab'"),
    ("reals", [1, None], TypeError, "reals entry must be a real number, got None"),
    ("pair", ["a"], ValueError, "pair must be a pair, got ['a']"),
    ("pair", ["a", 2], TypeError, "pair entry must be a string, got 2"),
    ("maybe", 5, ValueError, "maybe must be a pair, got 5"),
    ("maybe", [1.0, True], TypeError, "maybe entry must be a real number, got True"),
    ("pairs", {}, ValueError, "pairs must be a list of pairs, got {}"),
    ("pairs", [[1.0, 2.0], [3.0]], ValueError, "pairs entry must be a pair, got [3.0]"),
    ("pairs", [[1.0, "2"]], TypeError, "pairs entry must be a real number, got '2'"),
    ("real", float("inf"), ValueError, "real must be a finite number, got inf"),
    ("real", float("nan"), ValueError, "real must be a finite number, got nan"),
    ("reals", [1.0, float("-inf")], ValueError, "reals entry must be a finite number, got -inf"),
    ("pairs", [[1.0, float("nan")]], ValueError, "pairs entry must be a finite number, got nan"),
])
def test_check_fields_refuses_a_wrong_value_of_each_kind(field, value, error, message):
    with pytest.raises(error) as info:
        _EachKind(**{field: value})
    assert str(info.value) == message


@pytest.mark.parametrize("hint, value, error, message", [
    (dict, [1], ValueError, "x must be a JSON object, got [1]"),
    (dict[str, float], None, ValueError, "x must be a JSON object, got None"),
    (dict[str, float], {"a": 1.0, "b": "2"}, TypeError, "x['b'] must be a real number, got '2'"),
    (dict[str, tuple[float, ...]], {"a": 1.0}, ValueError, "x['a'] must be a list, got 1.0"),
    (dict[str, tuple[float, ...]], {"a": [True]}, TypeError,
     "x['a'] entry must be a real number, got True"),
    (dict[str, dict[str, float]], {"a": {"b": float("inf")}}, ValueError,
     "x['a']['b'] must be a finite number, got inf"),
])
def test_checked_refuses_a_wrong_json_object(hint, value, error, message):
    with pytest.raises(error) as info:
        _checked(hint, value, "x")
    assert str(info.value) == message


def test_checked_keeps_json_objects_and_numbers_up_to_the_largest_float():
    raw = {"a": [1, 2.5], "b": []}
    assert _checked(dict, raw, "x") is raw
    checked = _checked(dict[str, tuple[float, ...]], raw, "x")
    assert checked == {"a": (1.0, 2.5), "b": ()} and type(checked["a"][0]) is float
    big = 2**1024 - 2**971  # the largest float, written as an integer
    assert float(big) == sys.float_info.max
    for value in (big, -big, float(big)):
        assert type(_checked(float, value, "x")) is float
        assert _checked(float, value, "x") == float(value)
    for value in (big + 1, -big - 1):
        with pytest.raises(ValueError, match=f"x must be a finite number, got {value}$"):
            _checked(float, value, "x")


def test_check_fields_makes_float_settings_floats_and_lists_tuples():
    from_json = _EachKind(reals=[1, 2.5], pair=["a", "b"], maybe=[0, 1], pairs=[[1, 2.0]])
    assert from_json == _EachKind(reals=(1.0, 2.5), maybe=(0.0, 1.0), pairs=((1.0, 2.0),))
    assert type(from_json.maybe) is tuple and type(from_json.pairs[0][0]) is float
    assert hash(from_json) == hash(_EachKind(reals=(1.0, 2.5), maybe=(0.0, 1.0),
                                             pairs=((1.0, 2.0),)))
    assert type(_EachKind(real=1).real) is float and type(_EachKind(count=3).count) is int


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


_BETAS = st.floats(1e-300, 1e300)


@given(st.floats(0, 5), st.floats(0, 50), _BETAS, _BETAS,
       st.floats(0, 1, exclude_max=True))
def test_weight_is_one_at_and_below_the_knee(tau, v, beta_tau, beta_v, threshold):
    # So every proposal with v_f <= 50 %, half of the box, is accepted at any
    # threshold: sample_training always ends.
    cfg = SamplerConfig(beta_tau=beta_tau, beta_v=beta_v, weight_threshold=threshold)
    assert weight(tau, v, cfg) == 1.0


def test_training_ends_at_the_steepest_weight():
    comp = random_composite(np.random.default_rng(6))
    cfg = SamplerConfig(beta_tau=1e300, beta_v=1e300, weight_threshold=0.999999, n_train=200,
                        seed=1)
    data = sample_training(comp, cfg)
    assert len(data) == 200 and data.v_f.max() <= 50.0


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
    with pytest.raises(ValueError, match="m must be >= 1"):
        lhs_unit(rng_stream(8, "eval"), 0, 2)
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
