import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from helpers import fault_points, random_composite, random_zone, trip_zones
from tripfit import (
    CompositeProtection,
    ProtectionScheme,
    TripZone,
    combine_schemes,
    grid_evaluate,
    series_combine,
)


# ---------------------------------------------------------------- trip zones

def test_empty_zone_contains_nothing():
    zone = TripZone()
    assert not zone.contains(1.0, 20.0)
    assert not zone.contains(0.0, 0.0)


def test_boundary_points_are_inside():
    zone = TripZone(((0.1, 60.0),))
    assert zone.contains(0.1, 60.0)
    assert zone.contains(0.1, 0.0)
    assert not zone.contains(0.0999, 60.0)
    assert not zone.contains(0.1, 60.0001)


def test_two_step_envelope():
    # V(0.3) = 40, V(0.6) = 70 by direct enumeration of the steps.
    zone = TripZone(((0.05, 40.0), (0.5, 70.0)))
    assert not zone.contains(0.3, 55.0)
    assert zone.contains(0.6, 55.0)
    assert zone.contains(0.3, 40.0)


def test_zone_validation():
    with pytest.raises(ValueError):
        TripZone(((0.5, 60.0), (0.1, 70.0)))  # tau not increasing
    with pytest.raises(ValueError):
        TripZone(((0.1, 70.0), (0.5, 60.0)))  # v decreasing
    with pytest.raises(ValueError):
        TripZone(((-0.1, 60.0),))
    with pytest.raises(ValueError):
        TripZone(((0.1, 101.0),))


@given(trip_zones(), fault_points())
def test_monotonicity(zone, point):
    tau, v = point
    if zone.contains(tau, v):
        assert zone.contains(min(tau + 1.0, 1e9), v)
        assert zone.contains(tau, max(v - 1.0, 0.0))


# ------------------------------------------------------- ProtectionScheme.f

def test_protection_f_values():
    empty = ProtectionScheme("none", TripZone())
    assert empty.f(3.0, 10.0) == 1
    scheme = ProtectionScheme("P", TripZone(((0.1, 60.0),)))
    assert scheme.f(1.0, 50.0) == 0
    assert scheme.f(1.0, 80.0) == 1


# ---------------------------------------------------------- series_combine

def test_union_identity_and_rectangles():
    z = TripZone(((0.1, 60.0),))
    assert series_combine([z, TripZone()]).steps == z.steps
    assert series_combine([]).steps == ()
    merged = series_combine([TripZone(((0.1, 60.0),)), TripZone(((0.5, 80.0),))])
    assert merged.steps == ((0.1, 60.0), (0.5, 80.0))


def test_union_drops_redundant_steps():
    a = TripZone(((0.1, 60.0),))
    b = TripZone(((0.2, 55.0),))  # entirely inside a beyond tau=0.2
    assert series_combine([a, b]).steps == ((0.1, 60.0),)


def test_union_same_break_keeps_higher_threshold():
    a = TripZone(((0.1, 60.0),))
    b = TripZone(((0.1, 70.0),))
    assert series_combine([a, b]).steps == ((0.1, 70.0),)


def test_union_membership_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        za, zb = random_zone(rng), random_zone(rng)
        union = series_combine([za, zb])
        tau = rng.uniform(0, 5, 1000)
        v = rng.uniform(0, 100, 1000)
        expect = za.contains(tau, v) | zb.contains(tau, v)
        assert np.array_equal(union.contains(tau, v), expect)


@given(trip_zones(), trip_zones(), trip_zones())
def test_union_algebra(za, zb, zc):
    assert series_combine([za, za]).steps == series_combine([za]).steps
    assert series_combine([za, zb]).steps == series_combine([zb, za]).steps
    left = series_combine([series_combine([za, zb]), zc])
    right = series_combine([za, series_combine([zb, zc])])
    assert left.steps == right.steps


@given(trip_zones(), trip_zones(), fault_points())
def test_union_law_matches_product(za, zb, point):
    tau, v = point
    fa = ProtectionScheme("a", za)
    fb = ProtectionScheme("b", zb)
    fk = ProtectionScheme("k", series_combine([za, zb]))
    assert fk.f(tau, v) == fa.f(tau, v) * fb.f(tau, v)


def test_combine_schemes_sorted_name():
    p5 = ProtectionScheme("P5", TripZone(((0.3, 58.0),)))
    p1 = ProtectionScheme("P1", TripZone(((0.05, 55.0),)))
    p4 = ProtectionScheme("P4", TripZone(((0.03, 48.0),)))
    combo = combine_schemes([p5, p1, p4])
    assert combo.name == "P1-P4-P5"
    again = combine_schemes([combo, p1])
    assert again.name == "P1-P4-P5"


# ------------------------------------------------------------- composite

def test_composite_single_entry():
    scheme = ProtectionScheme("P", TripZone(((0.1, 60.0),)))
    comp = CompositeProtection(((scheme, 1.0),))
    assert comp.evaluate(0.05, 90.0) == 1.0
    assert comp.evaluate(1.0, 30.0) == 0.0


def test_composite_two_entries_partial():
    s1 = ProtectionScheme("a", TripZone(((0.1, 60.0),)))
    s2 = ProtectionScheme("b", TripZone(((2.0, 40.0),)))
    comp = CompositeProtection(((s1, 0.6), (s2, 0.4)))
    # inside zone a only: 0.6 * 0 + 0.4 * 1
    assert comp.evaluate(0.5, 50.0) == pytest.approx(0.4, abs=1e-15)


def test_composite_fraction_sum_enforced():
    s1 = ProtectionScheme("a", TripZone())
    s2 = ProtectionScheme("b", TripZone())
    with pytest.raises(ValueError, match="sum to 1"):
        CompositeProtection(((s1, 0.6), (s2, 0.3)))
    with pytest.raises(ValueError, match="distinct"):
        CompositeProtection(((s1, 0.5), (ProtectionScheme("a", TripZone()), 0.5)))
    with pytest.raises(ValueError):
        CompositeProtection(((s1, -0.2), (s2, 1.2)))


def test_composite_motor_c_equals_scheme(library):
    comp = library.composite("C")
    scheme = library.scheme("P2-P5")
    tau = np.linspace(0, 5, 73)
    v = np.linspace(0, 100, 41)
    got = grid_evaluate(comp, tau, v)
    expect = scheme.f(tau[:, None], v[None, :])
    assert np.array_equal(got, expect)


def test_composite_monotone_in_each_axis():
    rng = np.random.default_rng(11)
    comp = random_composite(rng)
    for _ in range(300):
        tau, v = rng.uniform(0, 5), rng.uniform(0, 100)
        d_tau, d_v = rng.uniform(0, 5 - tau), rng.uniform(0, v)
        base = comp.evaluate(tau, v)
        assert comp.evaluate(tau + d_tau, v) <= base + 1e-12   # later trip never reconnects
        assert comp.evaluate(tau, v - d_v) <= base + 1e-12     # deeper sag trips more


def _streaming_evaluate(c, tau, v):
    """Reference composite: a running sum of pi (1 - trips) over the entries, from zeros."""
    tau = np.asarray(tau, dtype=float)
    v = np.asarray(v, dtype=float)
    total = np.zeros(np.broadcast(tau, v).shape)
    for scheme, pi in c.entries:
        total += pi * (1.0 - scheme.zone.contains(tau, v))
    return total if total.ndim else float(total)


def test_evaluate_bit_equal_to_streaming_sum():
    rng = np.random.default_rng(12)
    for _ in range(40):
        comp = random_composite(rng)
        tau, v = rng.uniform(0, 5, 64), rng.uniform(0, 100, 64)
        tau[0], v[0] = comp.entries[0][0].zone.steps[0]  # a point on a zone corner
        for args in ((tau, v), (tau[:, None], v[None, :]), (float(tau[0]), float(v[0])),
                     (float(tau[1]), float(v[1]))):
            got, want = comp.evaluate(*args), _streaming_evaluate(comp, *args)
            assert type(got) is type(want)
            got, want = np.asarray(got), np.asarray(want)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), args


# ---------------------------------------------------------- grid_evaluate

def test_grid_single_cell():
    scheme = ProtectionScheme("P", TripZone(((0.1, 60.0),)))
    comp = CompositeProtection(((scheme, 1.0),))
    out = grid_evaluate(comp, [1.0], [30.0])
    assert out.shape == (1, 1) and out[0, 0] == 0.0


def test_grid_all_connected():
    comp = CompositeProtection(((ProtectionScheme("never", TripZone()), 1.0),))
    out = grid_evaluate(comp, np.linspace(0, 5, 7), np.linspace(0, 100, 9))
    assert out.shape == (7, 9) and np.all(out == 1.0)


def test_grid_values_are_subset_sums():
    rng = np.random.default_rng(5)
    comp = random_composite(rng, max_schemes=4)
    out = grid_evaluate(comp, np.linspace(0, 5, 40), np.linspace(0, 100, 40))
    fractions = comp.fractions
    sums = {0.0}
    for pi in fractions:  # all subset sums, same accumulation order as evaluate
        sums |= {s + pi for s in sums}
    attainable = np.array(sorted(sums))
    assert np.all(np.min(np.abs(out.ravel()[:, None] - attainable[None, :]), axis=1) < 1e-12)


def test_grid_rejects_bad_input():
    comp = CompositeProtection(((ProtectionScheme("never", TripZone()), 1.0),))
    with pytest.raises(ValueError):
        grid_evaluate(comp, [], [1.0])
    with pytest.raises(ValueError):
        grid_evaluate(comp, [1.0, 0.5], [1.0])
