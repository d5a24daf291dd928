"""Curve class, rotation operator, interval orbits and the curve sequence."""

from __future__ import annotations

import hashlib
import itertools
import tracemalloc
import weakref
from bisect import bisect_right
from fractions import Fraction
from math import pi, sin, tau

import numpy as np
import pytest

from ietpwi import breaking
from ietpwi.breaking import (
    IntervalSeq,
    PLCurve,
    Towers,
    _check_pieces,
    angle_to_symmetric,
    breaking_intervals,
    breaking_operator,
    breaking_sequence,
    curve_levels,
    rokhlin_towers,
    segment_bound,
    theta_sequence,
)
from ietpwi.errors import BudgetExceeded, IntervalOutOfRange, InvalidInput, NonUnitSpeed
from ietpwi.iet import PIECE_BUDGET, Lengths, Permutation, build_iet, is_irreducible
from ietpwi.rauzy import rauzy_iterate, torus_project
from ietpwi.spectral import sample_theta

from curve_oracles import (arc_length, breaking_offsets, list_intervals, list_towers,
                           measured_sequence, sup_distance)
from rauzy_oracles import apply_array, piece_orbit

#: sha256 over each level's ``y`` bytes then ``delta`` bytes of the catalog's
#: rotation intervals of levels 1-56, recorded from towers of Python ints
CATALOG_INTERVALS_DIGEST = "1b05ec401a6904549a3757a2c4b0be3cdb06b9621651ef94da2f10a9399f9565"
#: sha256 over each level's ``x``, ``z`` and ``increment`` bytes of the curves of
#: levels 1-70 of two Dirichlet exchanges of ``6 5 4 3 2 1`` (seeds 1 and 2),
#: recorded from an operator that evaluated every interval end in its own block
DIRICHLET_CURVES_DIGEST = "12997638094d6bb34c2fed694c347e1feaab04eb31717a7cb650f3a0fe675f9b"


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
    assert arc_length(c) == pytest.approx(1.0)
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
        assert abs(arc_length(out) - curve.length) <= 1e-12 * max(1, out.n_segments)
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
    # off unit speed and out of range: the curve is refused first
    with pytest.raises(NonUnitSpeed):
        breaking_operator(crooked, 0.3, IntervalSeq(np.array([0.95]), 0.1))


def test_non_finite_and_empty_input_is_invalid(reference_trace):
    line = PLCurve.identity(1.0)
    nan_vertex = PLCurve(1.0, np.array([0.0, 0.5]), np.array([0.0, complex(np.nan, 0.0), 1.0]))
    with pytest.raises(NonUnitSpeed, match="nan"):
        nan_vertex.require_unit_speed()
    with pytest.raises(NonUnitSpeed):
        breaking_operator(nan_vertex, 0.3, IntervalSeq(np.array([0.1]), 0.05))
    for y in ([np.nan], [0.1, np.inf], [-np.inf, 0.5]):
        with pytest.raises(InvalidInput, match="finite"):
            IntervalSeq(np.array(y), 0.1)
    with pytest.raises(InvalidInput, match="positive and finite"):
        IntervalSeq(np.array([0.1]), np.inf)
    with pytest.raises(InvalidInput, match="no rotation intervals"):
        breaking_operator(line, 0.3, IntervalSeq(np.array([]), 0.1))
    for phi in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInput, match="angle must be finite"):
            breaking_operator(line, phi, IntervalSeq(np.array([0.1]), 0.1))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInput, match="must be finite"):
            theta_sequence(reference_trace, [0.1, bad, 0.2, 0.3], 3)


@pytest.mark.parametrize("worst", [breaking._BLOCK - 1, breaking._BLOCK, 2 * breaking._BLOCK + 4])
def test_unit_speed_defect_takes_the_worst_segment_at_a_block_edge(worst):
    # segments of width and chord 2**-20 but two: the worst ends a block,
    # starts one or is the last segment
    n = 2 * breaking._BLOCK + 5
    z = np.arange(n + 1) * 2.0**-20 + 0j
    z[4:] += 1e-13
    z[worst + 1:] += 1e-11
    curve = PLCurve(n * 2.0**-20, np.arange(n) * 2.0**-20, z)
    each = np.abs(np.abs(np.diff(curve.z)) - curve.segment_lengths())
    assert int(np.argmax(each)) == worst
    assert curve.unit_speed_defect() == float(np.max(each))
    with pytest.raises(NonUnitSpeed, match="exceeds"):
        curve.require_unit_speed()


def test_unit_speed_tolerance_scales_with_the_domain_length():
    # one ulp of 5e5 is 5.8e-11: above 1e-12, but a relative error of 1e-16
    far = float(np.nextafter(5e5, np.inf))
    rounded = PLCurve(1e6, np.array([0.0, 5e5]), np.array([0.0, far, far + 5e5]))
    assert rounded.unit_speed_defect() > breaking.TOL_UNIT_SPEED
    out = breaking_operator(rounded, 0.3, IntervalSeq(np.array([1e5]), 5e4))
    out.require_unit_speed()
    bent = PLCurve(1e6, np.array([0.0, 5e5]), np.array([0.0, 5e5 + 1e-3, 1e6 + 1e-3]))
    with pytest.raises(NonUnitSpeed):
        breaking_operator(bent, 0.3, IntervalSeq(np.array([1e5]), 5e4))


def test_intervals_admit_touching_ends_of_long_domains():
    # [999.0003, 999.0006) and [999.0006, 999.0009) touch; rounded, the
    # ends lie 7.5e-14 closer than the rounded width
    touching = IntervalSeq(np.array([999.0003, 999.0006]), 0.0003)
    assert touching.delta - np.diff(touching.y)[0] > 7e-14
    with pytest.raises(InvalidInput, match="disjoint"):
        IntervalSeq(np.array([999.0003, 999.0005]), 0.0003)
    # at length 1 the slack stays 1e-15
    with pytest.raises(InvalidInput, match="disjoint"):
        IntervalSeq(np.array([0.5, 0.6 - 2e-15]), 0.1)
    with pytest.raises(InvalidInput, match="disjoint"):
        IntervalSeq(np.array([0.3, 0.2]), 0.05)
    for width in (0.0, -0.1, float("nan")):
        with pytest.raises(InvalidInput, match="positive"):
            IntervalSeq(np.array([0.1]), width)


def test_intervals_a_few_ulps_wide_must_not_overlap():
    # ends one ulp apart and four ulps wide overlap by three ulps: the slack
    # for rounded ends is at most half the width
    ulp = np.spacing(0.5)
    with pytest.raises(InvalidInput, match="disjoint"):
        IntervalSeq(0.5 + ulp * np.arange(6), 4 * ulp)
    touching = IntervalSeq(0.5 + 4 * ulp * np.arange(6), 4 * ulp)
    assert touching.count == 6


def test_operator_keeps_the_bytes_of_a_negative_zero():
    # zone 0 adds the shift -0.0, which keeps -0.0 as it is; +0.0 would not
    curve = PLCurve(1.0, np.array([0.0, 0.25]),
                    np.array([complex(-0.0, -0.0), complex(-0.0, 0.25), complex(0.75, 0.25)]))
    out = breaking_operator(curve, 0.4, IntervalSeq(np.array([0.5]), 0.1))
    assert np.array_equal(out.x[:2], curve.x)
    assert out.z[:2].tobytes() == curve.z[:2].tobytes()


def _operator_oracle(curve, phi, intervals):
    """Reference for ``breaking_operator``: union of the breakpoints, then lookups.

    Every parameter of the merged partition is evaluated on the old curve,
    and its zone is found by bisection in the interval ends, which assumes
    that they are sorted.
    """
    curve.require_unit_speed()
    if not -pi <= phi < pi:
        phi = angle_to_symmetric(phi)
    upper, lower = breaking_offsets(curve, phi, intervals)
    rot = complex(np.cos(phi), np.sin(phi))
    bounds = intervals.bounds()
    new_x = np.union1d(curve.x, bounds[bounds < curve.length])
    merge_tol = 1e-13 * max(1.0, curve.length)
    keep = np.concatenate([[True], np.diff(new_x) > merge_tol])
    new_x = new_x[keep]
    if len(new_x) > 1 and new_x[-1] > curve.length - merge_tol:
        new_x = new_x[:-1]
    params = np.append(new_x, curve.length)
    values = curve.evaluate(params)
    zone = np.searchsorted(bounds, params, side="right")
    out = values.copy()
    inside = (zone % 2) == 1
    k_in = (zone[inside] - 1) // 2
    out[inside] = values[inside] * rot + upper[k_in]
    after = (zone > 0) & ~inside
    k_after = zone[after] // 2 - 1
    out[after] = values[after] + lower[k_after]
    return PLCurve(curve.length, new_x, out)


def _operator_levels(trace, theta, depth):
    """Each level's input curve, angle and intervals, continued by ``breaking_operator``."""
    seq = theta_sequence(trace, theta, depth)
    curve = PLCurve.identity(trace.initial.total)
    towers = rokhlin_towers(trace, 0)
    for n in range(1, depth + 1):
        intervals = breaking_intervals(trace, n, towers)
        phi = seq.breaking_angle(n - 1)
        yield curve, phi, intervals
        curve = breaking_operator(curve, phi, intervals)
        if n < depth:
            breaking._stack_towers(trace, towers, n - 1)


def test_operator_matches_oracle_on_catalog_levels(reference, reference_trace):
    frame = reference.stable_frame_exact()
    for seed in (0, 3):
        sample = sample_theta(frame, 0.5, seed, upsilon=reference.iet.upsilon,
                              trace=reference_trace)
        for curve, phi, intervals in _operator_levels(reference_trace, sample.v, 56):
            got = breaking_operator(curve, phi, intervals)
            want = _operator_oracle(curve, phi, intervals)
            assert np.array_equal(got.x, want.x)
            assert got.z.tobytes() == want.z.tobytes()
    assert got.n_segments == 232_796


def test_operator_matches_oracle_on_random_exchanges():
    # the ends of an interval family are sorted only to within rounding:
    # IntervalSeq admits gaps down to delta - 1e-15, so a start can fall an
    # ulp before the previous end; the oracle then bisects unsorted ends
    rng = np.random.default_rng(21)
    sorted_levels = inverted_levels = 0
    # four walks on each of 2..7 symbols, then one on lengths a thousand
    # times larger, whose ends round a thousand times coarser
    for d, count, scale in [(d, 4, 1) for d in range(2, 8)] + [(4, 1, 1000)]:
        walks = 0
        while walks < count:
            perm = Permutation.from_monodromy(list(rng.permutation(d) + 1))
            if not is_irreducible(perm):
                continue
            trace = rauzy_iterate(build_iet(perm, Lengths.from_values(
                list(scale * rng.dirichlet(np.ones(d))))), 25)
            depth = trace.n_steps
            while depth > 1 and segment_bound(trace, depth) > 50_000:
                depth -= 1
            walks += 1
            for curve, phi, intervals in _operator_levels(trace, rng.uniform(-0.3, 0.3, d),
                                                          depth):
                got = breaking_operator(curve, phi, intervals)
                want = _operator_oracle(curve, phi, intervals)
                assert np.array_equal(got.x, want.x)
                if np.all(np.diff(intervals.bounds()) >= 0):
                    sorted_levels += 1
                    assert got.z.tobytes() == want.z.tobytes()
                else:
                    inverted_levels += 1
                    assert np.max(np.abs(got.z - want.z)) <= 1e-15 * scale
    assert sorted_levels > 300 and inverted_levels > 0


def test_operator_peak_memory_is_a_small_multiple_of_its_output(reference, reference_trace):
    # the traced peak of the level-56 catalog call: 23.2 MB, 4.1 times its
    # output, when every temporary was as long as the merged breakpoints;
    # 2.84 times with the tangents and one merge of every breakpoint, 2.05
    # times with a block at a time
    sample = sample_theta(reference.stable_frame_exact(), 0.5, 0,
                          upsilon=reference.iet.upsilon, trace=reference_trace)
    for curve, phi, intervals in _operator_levels(reference_trace, sample.v, 56):
        pass
    tracemalloc.start()
    try:
        out = breaking_operator(curve, phi, intervals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.n_segments == 232_796
    assert peak < 2.2 * (out.x.nbytes + out.z.nbytes)


def test_operator_takes_an_end_an_ulp_out_of_order():
    # interval 1 starts one ulp before interval 0 ends
    curve = random_unit_speed_curve(np.random.default_rng(5), length=1.0, pieces=12)
    delta = 0.125
    y0 = 0.3
    y1 = float(np.nextafter(y0 + delta, -np.inf))
    intervals = IntervalSeq(np.array([y0, y1]), delta)
    assert intervals.bounds()[2] < intervals.bounds()[1]
    phi = 0.7
    rot = complex(np.cos(phi), np.sin(phi))
    out = breaking_operator(curve, phi, intervals)
    out.require_unit_speed()
    for end in intervals.bounds():
        assert abs(out.evaluate(end - 1e-9) - out.evaluate(end)) < 1e-8
    # every segment inside an interval is the old one rotated by phi
    mid = (out.segment_bounds()[:-1] + out.segment_bounds()[1:]) / 2
    for lo in (y0, y1):
        inner = (mid > lo) & (mid < lo + delta)
        assert np.count_nonzero(inner) > 1
        old = curve.tangents()[np.searchsorted(curve.x, mid[inner], side="right") - 1]
        np.testing.assert_allclose(out.tangents()[inner], old * rot, rtol=0, atol=1e-12)
    outside = (mid < y0) | (mid > y1 + delta)
    old = curve.tangents()[np.searchsorted(curve.x, mid[outside], side="right") - 1]
    np.testing.assert_allclose(out.tangents()[outside], old, rtol=0, atol=1e-12)


def _same_curve(got, want, measure=True):
    """``got`` has ``want``'s points, and its increment, or none when not ``measure``."""
    return (np.array_equal(got.x, want.x) and got.z.tobytes() == want.z.tobytes()
            and got.increment == (want.increment if measure else None))


def test_operator_output_does_not_depend_on_the_block_size(reference, reference_trace,
                                                          monkeypatch):
    # catalog levels of up to 874 segments, placed in blocks of 97 old
    # breakpoints and then in one block; unmeasured, the same points
    sample = sample_theta(reference.stable_frame_exact(), 0.5, 3,
                          upsilon=reference.iet.upsilon, trace=reference_trace)
    levels = list(_operator_levels(reference_trace, sample.v, 30))
    want = [breaking_operator(*level, measure=True) for level in levels]
    monkeypatch.setattr(breaking, "_BLOCK", 97)
    assert levels[-1][0].n_segments > 8 * 97
    for level, curve in zip(levels, want):
        for measure in (True, False):
            assert _same_curve(breaking_operator(*level, measure=measure), curve, measure)


def test_operator_takes_ends_out_of_order_across_a_block_edge(monkeypatch):
    # interval 1 starts one ulp before interval 0 ends, at the first old
    # breakpoint of the second block: block 0 holds the start, whose zone
    # reads the shift of the end that block 1 holds
    curve = random_unit_speed_curve(np.random.default_rng(8), length=1.0, pieces=40)
    assert curve.n_segments > 16
    delta = 0.02
    edge = float(curve.x[8])
    intervals = IntervalSeq(np.array([edge - delta, float(np.nextafter(edge, -np.inf))]), delta)
    assert intervals.bounds()[1] == edge > intervals.bounds()[2]
    want = breaking_operator(curve, 0.7, intervals, measure=True)
    monkeypatch.setattr(breaking, "_BLOCK", 8)
    assert _same_curve(breaking_operator(curve, 0.7, intervals, measure=True), want)


def test_operator_merges_each_block_once(reference, reference_trace, monkeypatch):
    sample = sample_theta(reference.stable_frame_exact(), 0.5, 0,
                          upsilon=reference.iet.upsilon, trace=reference_trace)
    levels = list(_operator_levels(reference_trace, sample.v, 30))
    monkeypatch.setattr(breaking, "_BLOCK", 97)
    curve, phi, intervals = levels[-1]
    # a block per 97 old breakpoints, the last one shorter
    blocks = -(-curve.n_segments // 97)
    assert blocks > 2
    merges = []
    merge = breaking._merge
    monkeypatch.setattr(breaking, "_merge", lambda *args: merges.append(1) or merge(*args))
    breaking_operator(curve, phi, intervals)
    assert len(merges) == blocks


def test_operator_takes_ends_out_of_order_at_block_edges_of_real_towers(monkeypatch):
    # Dirichlet exchanges of 6 5 4 3 2 1 whose interval ends sort an ulp out
    # of order: seed 1 at levels 36-38 and 53-54, seed 2 at level 59.  The
    # later left end of each swapped pair is an old breakpoint, so a block
    # may start at it, though no block edge falls between the two ends
    theta = (0.1, -0.05, 0.03, 0.02, -0.04, 0.01)
    perm = Permutation.from_monodromy([6, 5, 4, 3, 2, 1])
    levels = []
    for seed in (1, 2):
        lengths = Lengths.from_values(list(np.random.default_rng(seed).dirichlet(np.ones(6))))
        levels += _operator_levels(rauzy_iterate(build_iet(perm, lengths), 70), theta, 70)
    want = [breaking_operator(*level, measure=True) for level in levels]
    digest = hashlib.sha256()
    for curve in want:
        digest.update(curve.x.tobytes() + curve.z.tobytes() + np.float64(curve.increment).tobytes())
    assert digest.hexdigest() == DIRICHLET_CURVES_DIGEST
    swapped = at_edge = 0
    for size in (5, 8, 13):
        monkeypatch.setattr(breaking, "_BLOCK", size)
        for level, curve in zip(levels, want):
            assert _same_curve(breaking_operator(*level, measure=True), curve)
            ends = level[2].bounds()
            later = ends[1:][ends[1:] < ends[:-1]]
            swapped += len(later)
            at_edge += np.count_nonzero(np.isin(later, level[0].x[size::size]))
    assert swapped == 3 * (22 + 29) and at_edge > 0


@pytest.mark.parametrize("shift, nums, den", [
    # a power of two: float(n) scaled by 2**-b, ties to even past 2**53
    (0, [0, 1, 3, 2**53 + 1, 2**53 + 3, 2**400 - 1], 2**400),
    (7, [-7, 0, 2**60 + 1], 1),
    # not a power of two (exact rational lengths): int / int
    (5, [0, 7, 10**30], 3 * 2**40),
    # beyond 2**1022 a quotient could be subnormal, where scaling would round twice
    (0, [1, 3, 2**80 + 1], 2**1075),
    # a numerator of 2**1024 or more has no float
    (2**1024, [-2**1024, -1, 0, 5], 2**60),
])
def test_interval_ends_convert_as_fractions(shift, nums, den):
    got = breaking._to_floats(shift, nums, den)
    want = [float(Fraction(shift + n, den)) for n in nums]
    assert got.tobytes() == np.array(want).tobytes()


def _converted(nums, den, scale):
    """``_interval_floats`` of one tower whose floors sit at the offsets ``nums``."""
    # floor k visits letter k once, so its offset is nums[k]
    towers = Towers(tuple(nums), scale, [np.eye(len(nums), dtype=np.int32)])
    return breaking._interval_floats(towers, towers.counts[0], 0, den)


MID_DOWN = 3 * 2**398 + 2**346             # halfway above 0.75, whose last bit is even
MID_UP = 3 * 2**398 + 2**347 + 2**346      # halfway above 0.75 + 2**-53, odd


def test_interval_ends_near_a_rounding_boundary_convert_exactly(monkeypatch):
    # 2**400 keeps the top 94 bits of each offset, so every end is known to
    # within a few units of 2**307 (one per count, and one).  At or just above a
    # midpoint that ties down to even, or near zero, the limb sum cannot
    # tell the rounding, and the exact conversion decides; a tie that rounds
    # up rounds every value above it up as well
    exact = []
    to_floats = breaking._to_floats
    monkeypatch.setattr(breaking, "_to_floats",
                        lambda shift, nums, den: exact.extend(nums) or to_floats(shift, nums, den))
    unsure = [MID_DOWN, MID_DOWN + 1, MID_DOWN + 2**300, 0, 1, 12345]
    certain = [MID_UP, MID_UP + 1, MID_DOWN - 2**340, 2**399 + 12345678901234567,
               2**400 - 2**350]
    nums = unsure + certain + [MID_DOWN - 1, MID_DOWN - 2**300, MID_UP - 1]
    got = _converted(nums, 2**400, 2**400)
    assert got.tobytes() == np.array([float(Fraction(n, 2**400)) for n in nums]).tobytes()
    assert got[0] == 0.75 and got[1] == got[2] == 0.75 + 2**-53
    assert got[6] == got[7] == 0.75 + 2**-52
    assert set(unsure) <= set(exact) and not set(certain) & set(exact)


@pytest.mark.parametrize("nums, den", [
    # nothing cut off: the window is exact and numpy rounds its ties to even
    ([2**59 + 2**6, 2**59 + 3 * 2**6, 2**59 + 2**6 + 2**5, 0, 1, 2**60 - 1], 2**60),
    # not a power of two: every end converts as int / int
    ([0, 1, 2**41, 3 * 2**40 - 1], 3 * 2**40),
])
def test_interval_ends_convert_as_fractions_from_counts(nums, den):
    got = _converted(nums, den, den)
    assert got.tobytes() == np.array([float(Fraction(n, den)) for n in nums]).tobytes()


def test_intervals_order_floors_whose_ends_round_equal():
    # lengths 2**-80 and 1, then 1 and 2**-80: the towers match the int-list
    # stacking, and in the second exchange the floors of the tower each level
    # reads lie 2**-80 apart, so from level 2 on all their ends round equal and
    # only the exact offsets order them
    for nums, tied in (((1, 2**80), False), ((2**80, 1), True)):
        iet = build_iet(Permutation.from_monodromy("2 1"), Lengths(nums, 2**80))
        trace = rauzy_iterate(iet, 12)
        assert trace.n_steps == 12
        for n in range(trace.n_steps + 1):
            towers = rokhlin_towers(trace, n)
            assert [towers.offsets(rows) for rows in towers.counts] == list_towers(trace, n)
            if n:
                got, want = breaking_intervals(trace, n, rokhlin_towers(trace, n - 1)), \
                    list_intervals(trace, n)
                assert got.y.tobytes() == want.y.tobytes() and got.delta == want.delta
                if tied:
                    assert got.count == n and len(np.unique(got.y)) == 1


def test_catalog_intervals_match_their_digest(reference_trace):
    towers = rokhlin_towers(reference_trace, 0)
    digest = hashlib.sha256()
    for n in range(1, 57):
        intervals = breaking_intervals(reference_trace, n, towers)
        digest.update(intervals.y.tobytes())
        digest.update(np.float64(intervals.delta).tobytes())
        if n < 56:
            breaking._stack_towers(reference_trace, towers, n - 1)
    assert intervals.count == 74_029
    assert digest.hexdigest() == CATALOG_INTERVALS_DIGEST


def test_count_width_follows_the_piece_budget():
    # every count is at most a tower height, below 2**_COUNT_BITS and int32;
    # a limb sum of up to _MAX_SYMBOLS + 1 count-by-limb products is int64
    assert PIECE_BUDGET < 1 << breaking._COUNT_BITS <= np.iinfo(np.int32).max
    assert (breaking._MAX_SYMBOLS + 1) << (breaking._COUNT_BITS + breaking._LIMB_BITS) \
        <= 1 << 63
    breaking._require_count_width(PIECE_BUDGET)
    with pytest.raises(ValueError, match="widen"):
        breaking._require_count_width(1 << breaking._COUNT_BITS)


def test_intervals_level_one_is_removed_piece(reference, reference_trace):
    intervals = breaking_intervals(reference_trace, 1, rokhlin_towers(reference_trace, 0))
    assert intervals.count == 1
    assert intervals.y[0] == pytest.approx(reference_trace.states[1].total)
    assert intervals.delta == pytest.approx(
        reference_trace.states[0].total - reference_trace.states[1].total)


def test_intervals_match_float_orbit_oracle(golden_iet):
    trace = rauzy_iterate(golden_iet, 6)
    intervals = breaking_intervals(trace, 2, rokhlin_towers(trace, 1))
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
        intervals = breaking_intervals(reference_trace, n, rokhlin_towers(reference_trace, n - 1))
        lefts, width, den = bruteforce_intervals(reference_trace, n)
        # the exact orbit that breaking_intervals rounds, then its rounded output
        total_n = reference_trace.states[n].total_num
        assert sorted(piece_orbit(reference_trace.initial, total_n, width, total_n)) == \
            list(lefts)
        assert np.array_equal(intervals.y, [float(Fraction(a, den)) for a in lefts])
        assert intervals.delta == float(Fraction(width, den))


def _check_lefts(lefts, width, edges, base):
    """``_check_pieces`` on the pieces ``[base + a, base + a + width)`` over ``2**80``.

    The offsets ``a`` are one-symbol visit counts, stored in reverse, as a
    tower need not be sorted; the pieces are ordered by ``_sorted_ends``.
    """
    den = 2**80
    towers = Towers((1,), 2**81, [np.array(lefts[::-1], dtype=np.int32).reshape(-1, 1)])
    rows = towers.counts[0]
    ends, order = breaking._sorted_ends(towers, rows, base, den)
    edges = [base + edge for edge in edges]
    _check_pieces(towers, rows, order, ends, base, width, edges,
                  np.array([edge / den for edge in edges]), den)


def test_removed_zone_check_fires_on_straddles():
    # at base 0 the ends are 2**-80 apart and the float filter decides the
    # gaps far from the edges; at base 2**80 every end rounds to 1, so the
    # order and every case are exact
    zone = [10, 20]     # the edges of the zone [10, 20)
    for base in (0, 2**80):
        for lefts, width in (([5], 10),         # across lo
                             ([15], 10),        # across hi
                             ([8], 15),         # contains the whole zone
                             ([0, 18, 40], 3),  # one bad piece among good ones
                             ([9], 2),          # narrow pieces across each edge
                             ([19], 2)):
            with pytest.raises(AssertionError, match="straddles"):
                _check_lefts(lefts, width, zone, base)
        for lefts, width in (([10], 5),             # a == lo
                             ([15], 5),             # a + width == hi
                             ([10], 10),            # the zone itself
                             ([2, 7, 20, 25], 3),   # touching from both sides
                             ([0, 10, 13, 17], 3),  # inside, touching each other
                             ([], 4)):
            _check_lefts(lefts, width, zone, base)
        with pytest.raises(AssertionError, match="overlap"):
            _check_lefts([0, 2], 3, zone, base)
    # the end at 0 rounds down by about 2**-54 and the one at 2**28 - 1 up by as
    # much: in floats the pieces lie 1.5 widths apart, and the edge 2**28 - 1
    # half a width past the first piece
    base = 2**80 - 2**26 - 1
    with pytest.raises(AssertionError, match="straddles"):
        _check_lefts([0], 2**28, [2**28 - 1], base)
    with pytest.raises(AssertionError, match="overlap"):
        _check_lefts([0, 2**28 - 1], 2**28, [2**29], base)


def test_intervals_count_equals_cocycle_row_sum(reference, reference_trace):
    for n in (2, 5, 9, 13):
        intervals = breaking_intervals(reference_trace, n, rokhlin_towers(reference_trace, n - 1))
        beta0 = reference_trace.states[n - 1].perm.top[-1]
        assert intervals.count == sum(reference_trace.cocycle[n - 1][beta0])


def test_intervals_share_width(reference_trace):
    for n in (3, 7):
        intervals = breaking_intervals(reference_trace, n, rokhlin_towers(reference_trace, n - 1))
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
    # a common denominator that is not a power of two, which lifts share factors with
    mixed_theta = [Fraction(1, 6), Fraction(-1, 10), Fraction(1, 15), 0.7]
    # lifts of 1,000 to 2,000 bits, across several of the reduction's precision steps
    huge_theta = [1e300, -1e300, 3e299, 2e-300]
    depth = reference_trace.n_steps
    assert depth == 420
    for theta in (float_theta, exact_theta, mixed_theta, huge_theta):
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
    # a prefix continued along a deeper push gives the same curves, bit for bit;
    # the prefix, from breaking_sequence, is unmeasured
    seq = theta_sequence(reference_trace, reference_sample.v, 60)
    for start in (1, 7, 45):
        curves = breaking_sequence(reference_trace, reference_sample.v, start - 1)
        curves.extend(curve_levels(reference_trace, seq, curves[-1], start - 1, 45,
                                   measure=True))
        assert len(curves) == 46
        for n, (got, want) in enumerate(zip(curves, reference_curves)):
            assert np.array_equal(got.x, want.x) and np.array_equal(got.z, want.z)
            assert got.increment == (want.increment if n >= start else None)
    assert list(curve_levels(reference_trace, seq, reference_curves[9], 9, 9)) == []


def _dirichlet_6_trace():
    lengths = Lengths.from_values(list(np.random.default_rng(1).dirichlet(np.ones(6))))
    return rauzy_iterate(build_iet(Permutation.from_monodromy([6, 5, 4, 3, 2, 1]), lengths), 45)


@pytest.mark.parametrize("exchange", ["catalog", "dirichlet"])
def test_curve_levels_continued_equal_a_fresh_build(reference_trace, reference_sample, exchange):
    # what the levels carry (towers, their edges, the curve) gives the same
    # curves whether the build starts at level 0 or continues from level k;
    # an unmeasured build gives the measured one's points
    if exchange == "catalog":
        trace, theta = reference_trace, reference_sample.v
    else:
        trace, theta = _dirichlet_6_trace(), (0.1, -0.05, 0.03, 0.02, -0.04, 0.01)
    depth = 40
    seq = theta_sequence(trace, theta, depth)
    start = PLCurve.identity(trace.initial.total)
    fresh = [start, *curve_levels(trace, seq, start, 0, depth, measure=True)]
    for k, measure in itertools.product((0, 1, 25), (True, False)):
        continued = fresh[:k + 1] + list(curve_levels(trace, seq, fresh[k], k, depth,
                                                      measure=measure))
        assert len(continued) == depth + 1
        for got, want in zip(continued[k + 1:], fresh[k + 1:]):
            assert got.x.tobytes() == want.x.tobytes() and got.z.tobytes() == want.z.tobytes()
            if measure:
                assert (np.float64(got.increment).tobytes()
                        == np.float64(want.increment).tobytes())
            else:
                assert got.increment is None


def test_curve_levels_release_the_towers_before_the_last_operator(reference_trace,
                                                                  monkeypatch):
    # the level-(depth-1) towers are as large as the curve that the last
    # operator builds, and nothing reads them after its intervals
    towers, alive = [], []

    def traced_towers(trace, n):
        made = rokhlin_towers(trace, n)
        towers.append(weakref.ref(made))
        return made

    def traced_operator(curve, phi, intervals, **options):
        alive.append(towers[0]() is not None)
        return breaking_operator(curve, phi, intervals, **options)

    monkeypatch.setattr(breaking, "rokhlin_towers", traced_towers)
    monkeypatch.setattr(breaking, "breaking_operator", traced_operator)
    seq = theta_sequence(reference_trace, [0.3, -0.2, 0.1, 0.05], 12)
    start = PLCurve.identity(reference_trace.initial.total)
    assert len(list(curve_levels(reference_trace, seq, start, 0, 12))) == 12
    assert alive == [True] * 11 + [False]


def test_theta_sequence_extends_its_push(reference_trace, reference_sample):
    whole = theta_sequence(reference_trace, reference_sample.v, 200)
    seq = theta_sequence(reference_trace, reference_sample.v, 40)
    assert len(seq.distances()) == 41
    seq.extend(reference_trace, 200)
    assert seq.image_last == whole.image_last and seq.lifts == whole.lifts
    assert all(np.array_equal(a, b) for a, b in zip(seq.entries, whole.entries))
    assert len(seq.entries) == 201 and np.array_equal(seq.distances(), whole.distances())
    for depth in (199, reference_trace.n_steps + 1):
        with pytest.raises(InvalidInput, match="cannot push"):
            seq.extend(reference_trace, depth)


def test_curve_depth_is_checked_against_the_segment_budget(reference_trace):
    # the catalog's bound is 9,706,803 segments at depth 70 and 11,342,851 at depth 71
    assert segment_bound(reference_trace, 70) <= PIECE_BUDGET < segment_bound(reference_trace, 71)
    theta = [0.3, -0.2, 0.1, 0.05]
    seq = theta_sequence(reference_trace, theta, 71)
    start = PLCurve.identity(reference_trace.initial.total)
    level1 = breaking_sequence(reference_trace, theta, 1)[1]
    got = next(curve_levels(reference_trace, seq, start, 0, 70))
    assert np.array_equal(got.x, level1.x) and np.array_equal(got.z, level1.z)
    for depth in (71, 90):
        with pytest.raises(BudgetExceeded, match="budget"):
            next(curve_levels(reference_trace, seq, start, 0, depth))
    with pytest.raises(InvalidInput, match="outside"):
        next(curve_levels(reference_trace, seq, start, 0, reference_trace.n_steps + 1))


def test_towers_are_checked_against_the_piece_budget(reference_trace, monkeypatch):
    # depth 70, the deepest admitted curve, reads the level-69 towers:
    # 3,236,347 floors; the level-76 ones hold 15,222,273 and are refused
    # before a floor is stacked
    assert sum(map(sum, reference_trace.cocycle[69])) <= PIECE_BUDGET
    assert sum(map(sum, reference_trace.cocycle[76])) > PIECE_BUDGET
    with pytest.raises(BudgetExceeded, match="level-76 towers may hold 15222273 floors"):
        rokhlin_towers(reference_trace, 76)
    # the level-1 curve holds at most 3 segments, its level-0 towers 4 floors
    monkeypatch.setattr(breaking, "PIECE_BUDGET", 3)
    seq = theta_sequence(reference_trace, [0.3, -0.2, 0.1, 0.05], 1)
    start = PLCurve.identity(reference_trace.initial.total)
    with pytest.raises(BudgetExceeded, match="level-0 towers"):
        next(curve_levels(reference_trace, seq, start, 0, 1))


def test_levels_beyond_the_trace_are_invalid_input(reference_trace):
    depth = reference_trace.n_steps
    with pytest.raises(InvalidInput, match="trace holds"):
        theta_sequence(reference_trace, [0.1] * 4, depth + 1)
    with pytest.raises(InvalidInput, match="trace holds"):
        theta_sequence(reference_trace, [0.1] * 4, -1)
    for level in (0, depth + 1):
        with pytest.raises(InvalidInput, match="outside"):
            breaking_intervals(reference_trace, level, rokhlin_towers(reference_trace, 0))
    for level in (-1, depth + 1):
        with pytest.raises(InvalidInput, match="outside"):
            rokhlin_towers(reference_trace, level)
    # level 11 rotates over the tower of symbol 3, which step 10 stacks
    with pytest.raises(InvalidInput, match="not those of level 10"):
        breaking_intervals(reference_trace, 11, rokhlin_towers(reference_trace, 9))


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
        assert abs(arc_length(curve) - total) <= 1e-10 * max(1, n)
        assert curve.evaluate(0.0) == 0.0


def test_angle_reduction():
    assert angle_to_symmetric(0.0) == 0.0
    assert angle_to_symmetric(pi) == -pi
    assert angle_to_symmetric(3 * pi / 2) == pytest.approx(-pi / 2)
    assert angle_to_symmetric(tau - 0.1) == pytest.approx(-0.1)


def test_sup_distance_cases():
    c = PLCurve.identity(1.0)
    assert c.increment is None
    assert sup_distance(c, c) == 0.0
    shifted = PLCurve(1.0, c.x.copy(), c.z + 0.25j)
    assert sup_distance(c, shifted) == pytest.approx(0.25)
    out = breaking_operator(c, pi / 2, IntervalSeq(np.array([0.5]), 0.1), measure=True)
    assert sup_distance(out, c) == pytest.approx(0.1 * np.sqrt(2))
    assert out.increment == sup_distance(out, c)
    with pytest.raises(AssertionError):
        sup_distance(c, PLCurve.identity(2.0))


@pytest.mark.parametrize("delta", [0.05, 0.5])
def test_increment_is_sup_distance_on_catalog_levels(reference, reference_trace, delta):
    frame = reference.stable_frame_exact()
    for seed in range(6):
        sample = sample_theta(frame, delta, seed, upsilon=reference.iet.upsilon,
                              trace=reference_trace)
        curves = measured_sequence(reference_trace, sample.v, 46)
        for before, after in zip(curves, curves[1:]):
            assert after.increment == sup_distance(after, before)


def test_increment_counts_an_old_breakpoint_the_merge_drops():
    # a corner at 0.5; the interval ends 5e-14 before it, within the merge
    # tolerance, so the corner leaves the breakpoints and the rotated curve
    # takes a chord across it, which moves away from the old curve there
    curve = PLCurve(1.0, np.array([0.0, 0.5]), np.array([0.0, 0.5, 0.5 + 0.5j]))
    intervals = IntervalSeq(np.array([0.2]), 0.3 - 5e-14)
    end = intervals.bounds()[1]
    assert 0.0 < 0.5 - end <= 1e-13
    out = breaking_operator(curve, pi / 2, intervals, measure=True)
    assert np.array_equal(out.x, [0.0, 0.2, end])
    kept = np.abs(out.z[:-1] - curve.evaluate(out.x))
    right_end = abs(out.evaluate(1.0) - curve.evaluate(1.0))
    assert out.increment == sup_distance(out, curve)
    assert out.increment > max(np.max(kept), right_end)


def test_exports_roundtrip(reference_curves):
    curve = reference_curves[10]
    csv = curve.to_csv()
    assert csv.splitlines()[0] == "x,re,im"
    assert len(csv.splitlines()) == curve.n_segments + 2
    svg = curve.to_svg()
    assert svg.startswith("<svg") and "polyline" in svg and 'stroke="black"' in svg
