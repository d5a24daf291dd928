"""Property tests: the first-return orbits against the exact cocycle, and
the JSON round trips of the exchange data.

Random irreducible exchanges on 2 to 6 symbols with exact integer lengths,
followed for up to 12 induction levels.  Runs are derandomized, so every
run draws the same examples.
"""

from __future__ import annotations

import json
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from ietpwi.breaking import breaking_intervals
from ietpwi.iet import Lengths, Permutation, build_iet, is_irreducible
from ietpwi.rauzy import rauzy_iterate, return_word, visit_counts_bruteforce

DENOMINATOR = 2**40

PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@st.composite
def induction_runs(draw):
    """An irreducible exchange, its trace and the deepest level reached (1..12)."""
    d = draw(st.integers(2, 6))
    perm = Permutation.from_monodromy(draw(st.permutations(range(1, d + 1))))
    assume(is_irreducible(perm))
    nums = draw(st.lists(st.integers(1, DENOMINATOR), min_size=d, max_size=d))
    iet = build_iet(perm, Lengths(tuple(nums), DENOMINATOR))
    trace = rauzy_iterate(iet, draw(st.integers(1, 12)))
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
@given(induction_runs())
def test_breaking_interval_count_is_return_time_of_last_top_symbol(run):
    # the removed piece lies in the last top-row subinterval of level n-1,
    # so its orbit has that subinterval's return time
    iet, trace, depth = run
    for n in range(1, depth + 1):
        beta0 = trace.states[n - 1].perm.top[-1]
        assert breaking_intervals(trace, n).count == sum(trace.cocycle[n - 1][beta0])


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
    data = perm.to_json()
    assert Permutation.from_json(data) == perm
    assert Permutation.from_json(json.dumps(data)) == perm


@PROPERTY
@given(st.lists(st.integers(1, 2**70), min_size=2, max_size=8),
       st.integers(1, 2**70))
def test_lengths_json_round_trip(nums, denominator):
    lengths = Lengths(tuple(nums), denominator)
    back = Lengths.from_json(json.loads(json.dumps(lengths.to_json())))
    # the values survive exactly; the shared denominator comes back reduced
    assert [Fraction(n, back.denominator) for n in back.numerators] == \
        [Fraction(n, denominator) for n in nums]
    assert Lengths.from_json(back.to_json()) == back
