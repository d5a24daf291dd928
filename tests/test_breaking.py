"""Curve class, rotation operator, interval orbits and the curve sequence."""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import pi, sin, tau

import numpy as np
import pytest

from ietpwi.breaking import (
    IntervalSeq,
    PLCurve,
    _check_removed_zones,
    angle_to_symmetric,
    breaking_intervals,
    breaking_offsets,
    breaking_operator,
    breaking_sequence,
    curve_levels,
    segment_bound,
    sup_distance,
    theta_sequence,
)
from ietpwi.errors import (BudgetExceeded, DomainMismatch, IntervalOutOfRange, InvalidInput,
                           NonUnitSpeed)
from ietpwi.iet import PIECE_BUDGET, apply_array, piece_orbit
from ietpwi.rauzy import rauzy_iterate, torus_project


def random_unit_speed_curve(rng, length=None, pieces=6):
    """Anchored random unit-speed polyline."""
    ell = length if length is not None else float(rng.uniform(0.5, 2.0))
    cuts = np.sort(rng.uniform(0, ell, pieces - 1))
    x = np.concatenate([[0.0], cuts])
    x = np.unique(x)
    bounds = np.append(x, ell)
    angles = rng.uniform(-pi, pi, len(x))
    z = [0.0 + 0.0j]
    for width, ang in zip(np.diff(bounds), angles):
        z.append(z[-1] + width * np.exp(1j * ang))
    return PLCurve(ell, x, np.array(z))


def random_intervals(rng, ell, r=None):
    r = int(rng.integers(1, 8)) if r is None else r
    delta = float(rng.uniform(0.005, 0.5)) * ell / (2 * r)
    slack = ell - r * delta
    gaps = rng.dirichlet(np.ones(r + 1)) * slack
    lefts = np.cumsum(gaps[:-1]) + delta * np.arange(r)
    return IntervalSeq(lefts, delta)


def test_identity_curve_basics():
    c = PLCurve.identity(1.0)
    assert c.arc_length() == pytest.approx(1.0)
    assert c.evaluate(0.37) == pytest.approx(0.37)
    c.require_unit_speed()


def test_operator_zero_angle_is_identity():
    c = PLCurve.identity(1.0)
    out = breaking_operator(c, 0.0, IntervalSeq(np.array([0.5]), 0.1))
    assert sup_distance(out, c) == 0.0


def test_operator_hand_example_branches():
    c = PLCurve.identity(1.0)
    intervals = IntervalSeq(np.array([0.5]), 0.1)
    upper, lower = breaking_offsets(c, pi / 2, intervals)
    assert upper[0] == pytest.approx(0.5 * (1 - 1j))
    assert lower[0] == pytest.approx(-0.1 + 0.1j)
    out = breaking_operator(c, pi / 2, intervals)
    for x in (0.2, 0.49):
        assert out.evaluate(x) == pytest.approx(x)
    for x in (0.5, 0.55):
        assert out.evaluate(x) == pytest.approx(x * 1j + 0.5 * (1 - 1j))
    for x in (0.6, 0.8, 0.999):
        assert out.evaluate(x) == pytest.approx(x + (-0.1 + 0.1j))
    # continuity at the inserted breakpoints
    for x in (0.5, 0.6):
        left = out.evaluate(x - 1e-12)
        assert abs(left - out.evaluate(x)) < 1e-10


def test_operator_bound_hand_example():
    c = PLCurve.identity(1.0)
    upper, lower = breaking_offsets(c, pi / 2, IntervalSeq(np.array([0.5]), 0.1))
    peak = max(abs(upper[0]), abs(lower[0]))
    assert peak == pytest.approx(0.5 * np.sqrt(2))
    assert peak <= 2 * 1.0 * sin(pi / 4) + 1e-12


def test_operator_preserves_class_and_bound_randomized():
    rng = np.random.default_rng(42)
    for _ in range(300):
        curve = random_unit_speed_curve(rng)
        phi = float(rng.uniform(-pi, pi))
        intervals = random_intervals(rng, curve.length)
        upper, lower = breaking_offsets(curve, phi, intervals)
        bound = 2 * curve.length * abs(sin(phi / 2)) + 1e-12
        assert float(np.max(np.abs(upper))) <= bound
        assert float(np.max(np.abs(lower))) <= bound
        out = breaking_operator(curve, phi, intervals)
        out.require_unit_speed()
        assert abs(out.arc_length() - curve.length) <= 1e-12 * max(1, out.n_segments)
        assert out.length == curve.length


def sequential_offsets(curve, phi, intervals):
    """Reference for ``breaking_offsets``: the recursion one term at a time."""
    rot = complex(np.cos(phi), np.sin(phi))
    one_minus = 1.0 - rot
    g_left = curve.evaluate(intervals.y)
    g_right = curve.evaluate(intervals.y + intervals.delta)
    r = intervals.count
    upper = np.empty(r, dtype=complex)
    lower = np.empty(r, dtype=complex)
    upper[0] = g_left[0] * one_minus
    lower[0] = upper[0] - g_right[0] * one_minus
    for k in range(1, r):
        upper[k] = g_left[k] * one_minus + lower[k - 1]
        lower[k] = upper[k] - g_right[k] * one_minus
    return upper, lower


@pytest.mark.parametrize("count", [None, 2000, 5000])
def test_offsets_bit_identical_to_sequential_recursion(count):
    rng = np.random.default_rng(7 if count is None else count)
    for _ in range(100 if count is None else 5):
        curve = random_unit_speed_curve(rng, pieces=int(rng.integers(2, 40)))
        phi = float(rng.uniform(-pi, pi))
        intervals = random_intervals(rng, curve.length, count)
        upper, lower = breaking_offsets(curve, phi, intervals)
        ref_upper, ref_lower = sequential_offsets(curve, phi, intervals)
        assert np.array_equal(upper, ref_upper)
        assert np.array_equal(lower, ref_lower)


def test_operator_rejects_bad_inputs():
    c = PLCurve.identity(1.0)
    with pytest.raises(IntervalOutOfRange):
        breaking_operator(c, 0.3, IntervalSeq(np.array([0.95]), 0.1))
    crooked = PLCurve(1.0, np.array([0.0, 0.5]), np.array([0, 0.5, 1.5 + 0.2j]))
    with pytest.raises(NonUnitSpeed):
        breaking_operator(crooked, 0.3, IntervalSeq(np.array([0.1]), 0.05))


def test_intervals_level_one_is_removed_piece(reference, reference_trace):
    intervals = breaking_intervals(reference_trace, 1)
    assert intervals.count == 1
    assert intervals.y[0] == pytest.approx(reference_trace.states[1].total)
    assert intervals.delta == pytest.approx(
        reference_trace.states[0].total - reference_trace.states[1].total)


def test_intervals_match_float_orbit_oracle(golden_iet):
    trace = rauzy_iterate(golden_iet, 6)
    intervals = breaking_intervals(trace, 2)
    # independent oracle: iterate the removed piece with the float map
    lo = trace.states[2].total
    hi = trace.states[1].total
    delta = hi - lo
    pieces = []
    point = lo
    for _ in range(100):
        pieces.append(point)
        point = float(apply_array(golden_iet, np.array([point]))[0])
        if point >= 0 and point + delta <= lo + 1e-12:
            break
    np.testing.assert_allclose(np.sort(np.array(pieces)), intervals.y, atol=1e-9)


def bruteforce_intervals(trace, n):
    """Reference for ``breaking_intervals``: exact orbit, every zone against every piece."""
    iet0 = trace.initial
    lo_n, hi_n = trace.states[n].total_num, trace.states[n - 1].total_num
    width = hi_n - lo_n
    lefts = [lo_n]
    while True:
        j = bisect_right(iet0.e0_num, lefts[-1]) - 1
        a = lefts[-1] + iet0.upsilon_num[iet0.perm.top[j]]
        if a >= 0 and a + width <= lo_n:
            break
        lefts.append(a)
    lefts.sort()
    for m in range(1, n + 1):
        lo, hi = trace.states[m].total_num, trace.states[m - 1].total_num
        for a in lefts:
            assert not 0 < min(a + width, hi) - max(a, lo) < width
    return tuple(lefts), width, iet0.denominator


def test_intervals_match_bruteforce_oracle(reference_trace):
    for n in range(1, 41):
        intervals = breaking_intervals(reference_trace, n)
        lefts, width, den = bruteforce_intervals(reference_trace, n)
        # the exact orbit that breaking_intervals rounds, then its rounded output
        total_n = reference_trace.states[n].total_num
        assert sorted(piece_orbit(reference_trace.initial, total_n, width, total_n)) == \
            list(lefts)
        assert np.array_equal(intervals.y, [float(Fraction(a, den)) for a in lefts])
        assert intervals.delta == float(Fraction(width, den))


def test_removed_zone_check_fires_on_straddles():
    zone = [(10, 20)]
    for lefts, width in (([5], 10),         # across lo
                         ([15], 10),        # across hi
                         ([8], 15),         # contains the whole zone
                         ([0, 18, 40], 3),  # one bad piece among good ones
                         ([9], 2),          # narrow pieces across each edge
                         ([19], 2)):
        with pytest.raises(AssertionError, match="straddles"):
            _check_removed_zones(lefts, width, zone)
    for lefts, width in (([10], 5),             # a == lo
                         ([15], 5),             # a + width == hi
                         ([10], 10),            # the zone itself
                         ([2, 7, 20, 25], 3),   # touching from both sides
                         ([0, 10, 13, 17], 3),  # inside, touching each other
                         ([], 4)):
        _check_removed_zones(lefts, width, zone)
    with pytest.raises(AssertionError, match="overlap"):
        _check_removed_zones([0, 2], 3, zone)


def test_intervals_count_equals_cocycle_row_sum(reference, reference_trace):
    for n in (2, 5, 9, 13):
        intervals = breaking_intervals(reference_trace, n)
        beta0 = reference_trace.states[n - 1].perm.top[-1]
        assert intervals.count == sum(reference_trace.cocycle[n - 1][beta0])


def test_intervals_share_width(reference_trace):
    for n in (3, 7):
        intervals = breaking_intervals(reference_trace, n)
        assert intervals.delta > 0
        assert np.all(np.diff(intervals.y) >= intervals.delta - 1e-12)


def test_theta_sequence_zero_stays_zero(reference_trace):
    seq = theta_sequence(reference_trace, [0.0] * 4, 30)
    for entry in seq.entries:
        assert np.all(entry == 0.0)


def test_theta_sequence_level_zero_is_theta(reference_trace):
    theta = [0.3, 5.9, 1.0, 2.2]
    seq = theta_sequence(reference_trace, theta, 0)
    np.testing.assert_allclose(seq.entries[0], np.mod(theta, tau))


def test_theta_sequence_lift_matches_the_stored_products(reference, reference_trace):
    # the running lift reduces the same exact rationals as the d-by-d push
    rng = np.random.default_rng(3)
    strong, weak = reference.stable_frame_exact()
    float_theta = rng.uniform(-tau, tau, 4)
    exact_theta = [Fraction(1, 5) * s + Fraction(-3, 7) * w for s, w in zip(strong, weak)]
    depth = reference_trace.n_steps
    assert depth == 420
    for theta in (float_theta, exact_theta):
        seq = theta_sequence(reference_trace, theta, depth)
        assert seq.depth == depth
        for n, entry in enumerate(seq.entries):
            assert np.array_equal(entry, torus_project(reference_trace.cocycle[n], theta))
        shallow = theta_sequence(reference_trace, theta, 0)
        assert len(shallow.entries) == 1 and shallow.image_last == []
        assert np.array_equal(shallow.entries[0], seq.entries[0])


def test_breaking_sequence_zero_theta_identity(reference_trace):
    curves = breaking_sequence(reference_trace, [0.0] * 4, 25)
    for curve in curves:
        assert sup_distance(curve, curves[0]) < 1e-12


def test_breaking_sequence_depth_zero(reference_trace):
    curves = breaking_sequence(reference_trace, [0.1] * 4, 0)
    assert len(curves) == 1
    assert curves[0].n_segments == 1


def test_curve_levels_continue_a_prefix(reference_trace, reference_sample, reference_curves):
    # a prefix continued along a deeper push gives the same curves, bit for bit
    seq = theta_sequence(reference_trace, reference_sample.v, 60)
    for start in (1, 7, 45):
        curves = breaking_sequence(reference_trace, reference_sample.v, start - 1)
        curves.extend(curve_levels(reference_trace, seq, curves, 45))
        assert len(curves) == 46
        for got, want in zip(curves, reference_curves):
            assert np.array_equal(got.x, want.x) and np.array_equal(got.z, want.z)
    assert list(curve_levels(reference_trace, seq, reference_curves[:10], 9)) == []


def test_curve_depth_is_checked_against_the_segment_budget(reference_trace):
    # the catalog's bound is 9,706,803 segments at depth 70 and 11,342,851 at depth 71
    assert segment_bound(reference_trace, 70) <= PIECE_BUDGET < segment_bound(reference_trace, 71)
    theta = [0.3, -0.2, 0.1, 0.05]
    seq = theta_sequence(reference_trace, theta, 71)
    start = [PLCurve.identity(reference_trace.initial.total)]
    level1 = breaking_sequence(reference_trace, theta, 1)[1]
    got = next(curve_levels(reference_trace, seq, start, 70))
    assert np.array_equal(got.x, level1.x) and np.array_equal(got.z, level1.z)
    for depth in (71, 90):
        with pytest.raises(BudgetExceeded, match="budget"):
            next(curve_levels(reference_trace, seq, start, depth))
    with pytest.raises(InvalidInput, match="outside"):
        next(curve_levels(reference_trace, seq, start, reference_trace.n_steps + 1))


def test_levels_beyond_the_trace_are_invalid_input(reference_trace):
    depth = reference_trace.n_steps
    with pytest.raises(InvalidInput, match="trace holds"):
        theta_sequence(reference_trace, [0.1] * 4, depth + 1)
    with pytest.raises(InvalidInput, match="trace holds"):
        theta_sequence(reference_trace, [0.1] * 4, -1)
    for level in (0, depth + 1):
        with pytest.raises(InvalidInput, match="outside"):
            breaking_intervals(reference_trace, level)


def test_breaking_sequence_per_level_bound(reference_trace, reference_curves,
                                           reference_theta_seq):
    total = reference_trace.initial.total
    for n in range(len(reference_curves) - 1):
        inc = sup_distance(reference_curves[n + 1], reference_curves[n])
        phi = reference_theta_seq.breaking_angle(n)
        assert inc <= 4 * total * abs(sin(phi / 2)) + 1e-12


def test_breaking_sequence_arc_length_and_anchor(reference_curves):
    total = reference_curves[0].length
    for n, curve in enumerate(reference_curves):
        curve.require_unit_speed()
        assert abs(curve.arc_length() - total) <= 1e-10 * max(1, n)
        assert curve.evaluate(0.0) == 0.0


def test_angle_reduction():
    assert angle_to_symmetric(0.0) == 0.0
    assert angle_to_symmetric(pi) == -pi
    assert angle_to_symmetric(3 * pi / 2) == pytest.approx(-pi / 2)
    assert angle_to_symmetric(tau - 0.1) == pytest.approx(-0.1)


def test_sup_distance_cases():
    c = PLCurve.identity(1.0)
    assert sup_distance(c, c) == 0.0
    shifted = PLCurve(1.0, c.x.copy(), c.z + 0.25j)
    assert sup_distance(c, shifted) == pytest.approx(0.25)
    out = breaking_operator(c, pi / 2, IntervalSeq(np.array([0.5]), 0.1))
    assert sup_distance(out, c) == pytest.approx(0.1 * np.sqrt(2))
    with pytest.raises(DomainMismatch):
        sup_distance(c, PLCurve.identity(2.0))


def test_exports_roundtrip(reference_curves):
    curve = reference_curves[10]
    csv = curve.to_csv()
    assert csv.splitlines()[0] == "x,re,im"
    assert len(csv.splitlines()) == curve.n_segments + 2
    svg = curve.to_svg(stroke="red")
    assert svg.startswith("<svg") and "polyline" in svg and "red" in svg
    data = curve.to_json()
    assert len(data["x"]) == len(data["re"]) == curve.n_segments + 1
