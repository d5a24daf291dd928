"""Property tests: the step rule and the exact inverse of the cocycle, the
first-return orbits, the lengths and the running lift of rotation vectors
against the exact cocycle, the rotation operator along random traces, the
float views of exact lengths, the JSON round trip of the permutation, and
curve evaluation against one search over every breakpoint.

Random irreducible exchanges on 2 to 6 symbols with exact integer lengths
(or, for the curves' domain end, Dirichlet float lengths), followed for up
to 12 induction levels (60 for the step rule, the inverse and the lift).
Runs are derandomized, so every run draws the same examples.  The Rokhlin
towers are checked on seeded Dirichlet exchanges on 2 to 7 symbols, at
every level up to 30, and the visit-count towers and their interval
families against Python-int stacking on exchanges over dyadic and
non-dyadic denominators up to 2**400, some with lengths of a few units.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import nan, pi, sin

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ietpwi.breaking import (TOL_UNIT_SPEED, PLCurve, breaking_intervals, breaking_sequence,
                             rokhlin_towers, segment_bound, theta_sequence)
from ietpwi.errors import OutOfDomain
from ietpwi.iet import Lengths, Permutation, build_iet, is_irreducible
from ietpwi.rauzy import (InductionStep, identity_matrix, rauzy_iterate, torus_project,
                          undo_update)
from curve_oracles import list_intervals, list_towers, measured_sequence, sup_distance
from rauzy_oracles import piece_orbit, return_word, visit_counts_bruteforce
from tests_random_util import random_irreducible_iet

DENOMINATOR = 2**40

PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@st.composite
def induction_runs(draw, max_levels=12):
    """An irreducible exchange, its trace and the deepest level reached (1..max_levels)."""
    d = draw(st.integers(2, 6))
    perm = Permutation.from_monodromy(draw(st.permutations(range(1, d + 1))))
    assume(is_irreducible(perm))
    nums = draw(st.lists(st.integers(1, DENOMINATOR), min_size=d, max_size=d))
    iet = build_iet(perm, Lengths(tuple(nums), DENOMINATOR))
    trace = rauzy_iterate(iet, draw(st.integers(1, max_levels)))
    # a tie stops the run early; the levels before it are still exact
    assume(trace.n_steps >= 1)
    return iet, trace, trace.n_steps


@PROPERTY
@given(induction_runs())
def test_return_word_letter_counts_are_cocycle_rows(run):
    iet, trace, depth = run
    for n in range(depth + 1):
        for symbol in range(iet.d):
            word = return_word(trace, n, symbol)
            counts = tuple(word.count(b) for b in range(iet.d))
            assert counts == trace.cocycle[n][symbol]


@PROPERTY
@given(induction_runs())
def test_visit_counts_equal_cocycle(run):
    iet, trace, depth = run
    assert visit_counts_bruteforce(iet, depth) == trace.cocycle[depth]


@PROPERTY
@given(induction_runs(max_levels=60))
def test_every_step_is_the_step_rule_of_its_type(run):
    iet, trace, depth = run
    for state, step, after in zip(trace.states, trace.steps, trace.states[1:]):
        assert step == InductionStep.of_type(state.perm, step.type_eps)
        # the longer final subinterval wins, the top row's in a type-0 step
        top, bottom = state.perm.top[-1], state.perm.bottom[-1]
        assert (step.winner, step.loser) == ((top, bottom) if step.type_eps == 0
                                             else (bottom, top))
        nums = state.lengths.numerators
        assert after.lengths.numerators[step.winner] == nums[step.winner] - nums[step.loser] > 0


@PROPERTY
@given(induction_runs(max_levels=60))
def test_undone_steps_are_the_exact_inverse_of_the_cocycle(run):
    # the product with the inverse is the identity: stronger than det = +-1
    iet, trace, depth = run
    identity = identity_matrix(iet.d)
    inverse = identity
    for n in range(depth + 1):
        if n:
            step = trace.steps[n - 1]
            inverse = undo_update(inverse, step.loser, step.winner)
        product = np.array(trace.cocycle[n], dtype=object).dot(np.array(inverse, dtype=object))
        assert tuple(map(tuple, product)) == identity


@PROPERTY
@given(induction_runs())
def test_breaking_interval_count_is_return_time_of_last_top_symbol(run):
    # the removed piece lies in the last top-row subinterval of level n-1,
    # so its orbit has that subinterval's return time
    iet, trace, depth = run
    for n in range(1, depth + 1):
        beta0 = trace.states[n - 1].perm.top[-1]
        towers = rokhlin_towers(trace, n - 1)
        assert breaking_intervals(trace, n, towers).count == sum(trace.cocycle[n - 1][beta0])


def test_rokhlin_towers_are_the_first_return_orbits():
    # floor k is the exact k-th image of the level-n subinterval before it
    # returns, as the direct orbit walk finds it, and the heights are row sums
    rng = np.random.default_rng(14)
    levels = 0
    for d in range(2, 8):
        for _ in range(6):
            iet, _ = random_irreducible_iet(rng, d_choices=(d,))
            trace = rauzy_iterate(iet, 30)
            for n in range(trace.n_steps + 1):
                towers = rokhlin_towers(trace, n)
                state = trace.states[n]
                for symbol in range(d):
                    left = state.e0_num[state.perm.position0(symbol)]
                    orbit = piece_orbit(iet, left, state.lengths.numerators[symbol],
                                        state.total_num)
                    floors = towers.offsets(towers.counts[symbol])
                    assert floors == [a - left for a in orbit]
                    assert len(floors) == sum(trace.cocycle[n][symbol])
                levels += 1
    assert levels > 1000


@st.composite
def interval_runs(draw):
    """An irreducible exchange over a dyadic or non-dyadic denominator, some lengths tiny."""
    d = draw(st.integers(2, 6))
    perm = Permutation.from_monodromy(draw(st.permutations(range(1, d + 1))))
    assume(is_irreducible(perm))
    den = draw(st.sampled_from([2**12, DENOMINATOR, 3 * 2**40, 2**400]))
    nums = draw(st.lists(st.one_of(st.integers(1, 2**8), st.integers(1, den)),
                         min_size=d, max_size=d))
    trace = rauzy_iterate(build_iet(perm, Lengths(tuple(nums), den)), draw(st.integers(1, 16)))
    assume(trace.n_steps >= 1)
    return trace


@PROPERTY
@given(interval_runs())
def test_count_towers_and_intervals_match_the_int_list_stacking(trace):
    # the visit-count towers, their filtered checks and limb conversion
    # against the towers stacked, checked and converted on Python ints
    for n in range(1, trace.n_steps + 1):
        towers = rokhlin_towers(trace, n - 1)
        assert [towers.offsets(rows) for rows in towers.counts] == list_towers(trace, n - 1)
        got, want = breaking_intervals(trace, n, towers), list_intervals(trace, n)
        assert got.y.tobytes() == want.y.tobytes() and got.delta == want.delta


@PROPERTY
@given(induction_runs())
def test_length_identity_is_exact_on_numerators(run):
    # lengths_0 = B_n^T lengths_n, over one shared denominator at every level
    iet, trace, depth = run
    for n in range(depth + 1):
        state = trace.states[n]
        assert state.lengths.denominator == iet.lengths.denominator
        pushed = tuple(sum(row[b] * num for row, num in zip(trace.cocycle[n],
                                                            state.lengths.numerators))
                       for b in range(iet.d))
        assert pushed == iet.lengths.numerators


@PROPERTY
@given(induction_runs(), st.lists(st.floats(-pi, pi), min_size=6, max_size=6))
def test_rotation_operator_keeps_unit_speed_and_increment_bound(run, angles):
    iet, trace, depth = run
    theta = angles[:iet.d]
    curves = measured_sequence(trace, theta, depth)
    seq = theta_sequence(trace, theta, depth)
    for n, curve in enumerate(curves):
        assert curve.unit_speed_defect() <= TOL_UNIT_SPEED
        assert curve.n_segments <= segment_bound(trace, n)
        if n:
            bound = 4 * iet.total * abs(sin(seq.breaking_angle(n - 1) / 2))
            assert curve.increment == sup_distance(curve, curves[n - 1])
            assert curve.increment <= bound + 1e-12


@st.composite
def float_length_runs(draw):
    """An exchange on 4 to 6 symbols with Dirichlet float lengths, traced for 1 to 12 levels.

    Floats of unlike exponents make a piece's float right end ``a/den + w/den``
    round above the float domain end when ``a + w`` is the exact total.
    """
    d = draw(st.integers(4, 6))
    perm = Permutation.from_monodromy(draw(st.permutations(range(1, d + 1))))
    assume(is_irreducible(perm))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    iet = build_iet(perm, Lengths.from_values(list(rng.dirichlet(np.ones(d)))))
    trace = rauzy_iterate(iet, draw(st.integers(1, 12)))
    assume(trace.n_steps >= 1)
    return iet, trace, trace.n_steps


@PROPERTY
@given(float_length_runs(), st.lists(st.floats(-pi, pi), min_size=6, max_size=6))
def test_curves_of_float_lengths_build_to_the_domain_end(run, angles):
    iet, trace, depth = run
    curves = breaking_sequence(trace, angles[:iet.d], depth)
    for curve in curves:
        assert curve.length == iet.total
        assert curve.unit_speed_defect() <= TOL_UNIT_SPEED


@st.composite
def curves_and_queries(draw):
    """A random unit-speed curve of 1 to 30 segments and unsorted queries on its closed domain.

    The queries mix breakpoints, 0, the right end, NaN and uniform draws.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = rng.uniform(0.01, draw(st.sampled_from([1.0, 1000.0])), draw(st.integers(1, 30)))
    ends = np.cumsum(widths)
    z = np.cumsum(widths * np.exp(1j * rng.uniform(-pi, pi, len(widths))))
    curve = PLCurve(float(ends[-1]), np.concatenate([[0.0], ends[:-1]]), np.append(0.0, z))
    picks = st.one_of(st.sampled_from([*curve.x, curve.length, nan]),
                      st.floats(0.0, curve.length))
    return curve, np.array(draw(st.lists(picks, max_size=20)), dtype=float)


@PROPERTY
@given(curves_and_queries())
def test_evaluate_is_the_whole_array_search(case):
    curve, q = case
    # the oracle searches every breakpoint; NaN sorts last
    want = curve._on_segments(q, curve.x.searchsorted(q, side="right") - 1)
    got = curve.evaluate(q)
    nan_at = np.isnan(q)
    assert got.dtype == complex and got.shape == q.shape
    assert np.isnan(got[nan_at]).all()
    assert got[~nan_at].tobytes() == want[~nan_at].tobytes()
    if len(q):
        one = curve.evaluate(q[0])
        assert np.ndim(one) == 0 and np.isnan(one) == nan_at[0]
        assert nan_at[0] or one.tobytes() == want[0].tobytes()
    empty = curve.evaluate([])
    assert empty.dtype == complex and empty.shape == (0,)
    for outside in (np.nextafter(0.0, -1.0), np.nextafter(curve.length, np.inf)):
        for params in (outside, np.append(q, outside)):
            with pytest.raises(OutOfDomain):
                curve.evaluate(params)


@st.composite
def lift_runs(draw):
    """An exchange on 3 to 6 symbols, up to 60 levels of it, and a rotation vector.

    The vector is floats of any size up to 1e6 or exact rationals.
    """
    d = draw(st.integers(3, 6))
    perm = Permutation.from_monodromy(draw(st.permutations(range(1, d + 1))))
    assume(is_irreducible(perm))
    nums = draw(st.lists(st.integers(1, DENOMINATOR), min_size=d, max_size=d))
    trace = rauzy_iterate(build_iet(perm, Lengths(tuple(nums), DENOMINATOR)),
                          draw(st.integers(0, 60)))
    coordinate = st.one_of(
        st.floats(-1e6, 1e6),
        st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 2**80)))
    theta = draw(st.lists(coordinate, min_size=d, max_size=d))
    return trace, theta


@PROPERTY
@given(lift_runs())
def test_theta_sequence_lift_is_the_stored_product_push(run):
    trace, theta = run
    for depth in (0, trace.n_steps):
        seq = theta_sequence(trace, theta, depth)
        assert len(seq.entries) == depth + 1
        for n, entry in enumerate(seq.entries):
            assert np.array_equal(entry, torus_project(trace.cocycle[n], theta))


@st.composite
def exact_exchanges(draw):
    """A permutation pair on 2 to 6 symbols and numerators of up to 480 bits."""
    d = draw(st.integers(2, 6))
    return (draw(st.permutations(range(d))), draw(st.permutations(range(d))),
            draw(st.lists(st.integers(1, 2**480), min_size=d, max_size=d)))


@PROPERTY
@given(exact_exchanges(), st.integers(1, 2**480), st.integers(0, 1600))
@example(([0, 1], [1, 0], [1, 3]), 1, 1075)  # 0.5 and 1.5 times the least subnormal
@example(([0, 2, 1], [2, 1, 0], [2**450 + 1, 2**450 - 1, 3]), 1, 1510)
@example(([0, 1], [1, 0], [2**400 + 1, 2**401 - 1]), 3, 1400)
def test_float_views_are_the_correctly_rounded_quotients(exchange, den, shift):
    # int / int is correctly rounded, so it equals the float of the exact quotient,
    # near the subnormal range and for numerators of hundreds of bits too
    top, bottom, nums = exchange
    den <<= shift
    lengths = Lengths(tuple(nums), den)
    iet = build_iet(Permutation(tuple(top), tuple(bottom)), lengths)

    def quotients(values):
        return np.array([float(Fraction(v, den)) for v in values])

    assert lengths.values().tobytes() == quotients(nums).tobytes()
    assert iet.upsilon.tobytes() == quotients(iet.upsilon_num).tobytes()
    assert iet.endpoints0.tobytes() == quotients(iet.e0_num).tobytes()


@st.composite
def permutations(draw):
    """Any pair of orderings of 2 to 8 symbols, reducible ones included."""
    d = draw(st.integers(2, 8))
    symbols = list(range(d))
    return Permutation(tuple(draw(st.permutations(symbols))),
                       tuple(draw(st.permutations(symbols))))


@PROPERTY
@given(permutations())
def test_permutation_json_round_trip(perm):
    # each symbol's 1-based position in either row, as the config file writes them
    data = {"d": perm.d,
            "pi0": [perm.position0(s) + 1 for s in range(perm.d)],
            "pi1": [perm.position1(s) + 1 for s in range(perm.d)]}
    assert Permutation.from_json(data) == perm
    assert Permutation.from_json(json.dumps(data)) == perm
