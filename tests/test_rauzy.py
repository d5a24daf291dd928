"""Renormalization steps, exact cocycle products, classes, torus action."""

from __future__ import annotations

import io
import json
from fractions import Fraction
from math import pi, tau

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ietpwi.iet import Lengths, Permutation, build_iet, build_iet_from, omega_matrix
from ietpwi.errors import RauzyUndefined, Reducible
from ietpwi.rauzy import (
    _mod_tau,
    identity_matrix,
    rauzy_class,
    rauzy_iterate,
    rauzy_step,
    reduce_mod_tau,
    torus_distance_to_zero,
    torus_project,
    zorich_iterate,
)
from ietpwi.spectral import h_pi_basis

from rauzy_oracles import (matrix_to_float, reduce_mod_tau_fraction, replayed_iterate,
                           visit_counts_bruteforce)


def test_step_type1_hand_values():
    iet = build_iet_from("2 1", [0.6, 0.4])
    nxt, step = rauzy_step(iet)
    assert step.type_eps == 1
    np.testing.assert_allclose(nxt.lengths.values(), [0.2, 0.4])
    assert nxt.perm.monodromy() == (2, 1)


def test_step_type0_hand_values():
    iet = build_iet_from("2 1", [0.4, 0.6])
    nxt, step = rauzy_step(iet)
    assert step.type_eps == 0
    np.testing.assert_allclose(nxt.lengths.values(), [0.4, 0.2])
    assert nxt.perm.monodromy() == (2, 1)


def test_step_tie_is_undefined():
    with pytest.raises(RauzyUndefined):
        rauzy_step(build_iet_from("2 1", [0.5, 0.5]))


def test_step_rejects_reducible():
    with pytest.raises(Reducible):
        rauzy_step(build_iet_from("2 1 4 3", [0.2, 0.3, 0.1, 0.4]))


def test_cached_arrows_replay_the_uncached_steps(reference):
    # every arrow taken from the per-permutation cache is the one the step
    # rule, the permutation update and build_iet give afresh
    runs = [reference.iet]
    for mono in ("4 3 2 1", "5 4 3 2 1", "6 5 4 3 2 1"):
        d = len(mono.split())
        runs += [build_iet_from(mono, list(np.random.default_rng(seed).dirichlet(np.ones(d))))
                 for seed in range(4)]
    # integer lengths end in a tie: at once, or after some steps
    tied = [build_iet_from("2 1", [1, 1]), build_iet_from("4 3 2 1", [3, 5, 2, 7]),
            build_iet_from("5 4 3 2 1", [13, 8, 5, 3, 2])]
    traces = [rauzy_iterate(iet, 420) for iet in runs + tied]
    for iet, got in zip(runs + tied, traces):
        want = replayed_iterate(iet, 420)
        assert got.states == want.states and got.steps == want.steps
        assert got.cocycle == want.cocycle and got.error == want.error
        for state in got.states:
            # translations are the intersection form applied to the lengths
            nums = state.lengths.numerators
            assert state.upsilon_num == tuple(sum(int(w) * n for w, n in zip(row, nums))
                                              for row in omega_matrix(state.perm))
    # the Dirichlet exchange of 4 3 2 1 from seed 2 meets a relative tie at step 362
    stopped = traces[3:4] + traces[-3:]
    assert [trace.n_steps for trace in stopped] == [362, 0, 3, 12]
    assert {trace.error for trace in stopped} == {"RauzyUndefined"}


def test_each_stored_product_shares_its_unchanged_rows(reference):
    trace = rauzy_iterate(reference.iet, 420)
    for k, step in enumerate(trace.steps):
        before, after = trace.cocycle[k], trace.cocycle[k + 1]
        assert [after[s] is before[s] for s in range(trace.d)] == [
            s != step.loser for s in range(trace.d)]
    # the arrow cache, which now holds the catalog's class, keeps no reducible permutation
    with pytest.raises(Reducible):
        rauzy_step(build_iet_from("2 1 4 3", [0.2, 0.3, 0.1, 0.4]))
    with pytest.raises(Reducible):
        rauzy_iterate(build_iet_from("2 1 4 3", [0.2, 0.3, 0.1, 0.4]), 1)


def test_golden_orbit_follows_subtractive_euclid(golden_iet):
    trace = rauzy_iterate(golden_iet, 12)
    assert trace.error is None
    # independent oracle: plain subtractive algorithm on the two lengths
    a, b = golden_iet.lengths.values()
    for n in range(1, 13):
        if a > b:
            a -= b
        else:
            b -= a
        np.testing.assert_allclose(sorted(trace.states[n].lengths.values()),
                                   sorted([a, b]), rtol=1e-12)


def test_iterate_zero_steps_identity(golden_iet):
    trace = rauzy_iterate(golden_iet, 0)
    assert trace.n_steps == 0
    assert trace.cocycle[0] == identity_matrix(2)
    assert trace.states[0] is golden_iet


def test_reference_trace_nonnegative_and_length_identity(reference):
    trace = rauzy_iterate(reference.iet, 20)
    assert trace.error is None
    lam0 = reference.iet.lengths.values()
    for n in range(21):
        assert min(min(row) for row in trace.cocycle[n]) >= 0
        back = matrix_to_float(trace.cocycle[n]).T @ trace.states[n].lengths.values()
        assert np.max(np.abs(back - lam0)) <= 1e-12 * max(1, n) * reference.iet.total


def test_length_identity_deep_random():
    rng = np.random.default_rng(2024)
    for _ in range(5):
        d = int(rng.integers(2, 6))
        perm = Permutation.from_monodromy(list(rng.permutation(d) + 1))
        from ietpwi.iet import is_irreducible
        if not is_irreducible(perm):
            continue
        iet = build_iet(perm, Lengths.from_values(list(rng.dirichlet(np.ones(d)))))
        trace = rauzy_iterate(iet, 120)
        lam0 = iet.lengths.values()
        for n in range(0, trace.n_steps + 1, 10):
            back = matrix_to_float(trace.cocycle[n]).T @ trace.states[n].lengths.values()
            rel = np.max(np.abs(back - lam0)) / iet.total
            assert rel <= 1e-12 * max(1, n)


def test_zorich_golden_blocks_all_one(golden_iet):
    trace = zorich_iterate(golden_iet, 6)
    assert trace.error is None
    assert trace.zorich_lengths == [1] * 6
    assert trace.acceleration_partial_sums() == list(range(7))


def test_zorich_grouping_nine_to_one():
    trace = zorich_iterate(build_iet_from("2 1", [0.9, 0.1]), 1)
    assert trace.error == "RauzyUndefined"
    assert trace.zorich_lengths == [8]
    assert all(s.type_eps == trace.steps[0].type_eps for s in trace.steps)


def test_zorich_zero_blocks(golden_iet):
    trace = zorich_iterate(golden_iet, 0)
    assert trace.n_steps == 0 and trace.zorich_lengths == []


def test_zorich_blocks_alternate(reference):
    trace = zorich_iterate(reference.iet, 12)
    sums = trace.acceleration_partial_sums()
    for k in range(12):
        block = trace.steps[sums[k]:sums[k + 1]]
        assert len({s.type_eps for s in block}) == 1
        if k:
            assert block[0].type_eps != trace.steps[sums[k] - 1].type_eps


def test_visit_counts_zero_steps_identity(golden_iet):
    assert visit_counts_bruteforce(golden_iet, 0) == identity_matrix(2)


def test_visit_counts_equal_cocycle_golden(golden_iet):
    trace = rauzy_iterate(golden_iet, 3)
    assert visit_counts_bruteforce(golden_iet, 3) == trace.cocycle[3]


def test_visit_counts_equal_cocycle_reference(reference):
    trace = rauzy_iterate(reference.iet, 8)
    assert visit_counts_bruteforce(reference.iet, 8) == trace.cocycle[8]


def test_visit_counts_oracle_randomized():
    rng = np.random.default_rng(7)
    from ietpwi.iet import is_irreducible
    done = 0
    while done < 8:
        d = int(rng.integers(2, 6))
        perm = Permutation.from_monodromy(list(rng.permutation(d) + 1))
        if not is_irreducible(perm):
            continue
        iet = build_iet(perm, Lengths.from_values(list(rng.dirichlet(np.ones(d)))))
        n = int(rng.integers(1, 9))
        trace = rauzy_iterate(iet, n)
        if trace.error is not None:
            continue
        assert visit_counts_bruteforce(iet, n) == trace.cocycle[n]
        done += 1


def test_subspace_invariance_under_factor():
    rng = np.random.default_rng(5)
    from ietpwi.iet import is_irreducible, omega_matrix
    done = 0
    while done < 6:
        d = int(rng.integers(2, 6))
        perm = Permutation.from_monodromy(list(rng.permutation(d) + 1))
        if not is_irreducible(perm):
            continue
        iet = build_iet(perm, Lengths.from_values(list(rng.dirichlet(np.ones(d)))))
        nxt, step = rauzy_step(iet)
        basis_next = h_pi_basis(nxt.perm)
        vec = omega_matrix(perm).astype(float) @ rng.standard_normal(d)
        image = step.b_factor(d).astype(float) @ vec
        residual = image - basis_next @ (basis_next.T @ image)
        assert np.linalg.norm(residual) <= 1e-9 * (1 + np.linalg.norm(image))
        done += 1


def test_class_sizes_and_self_loops():
    g2 = rauzy_class(Permutation.from_monodromy("2 1"))
    assert g2.size == 1
    assert sorted(e[1] for e in g2.edges) == [0, 1]
    assert all(src == dst for src, _, dst in g2.edges)
    assert rauzy_class(Permutation.from_monodromy("3 2 1")).size == 3
    assert rauzy_class(Permutation.from_monodromy("4 3 2 1")).size == 7


def test_class_rejects_reducible():
    with pytest.raises(Reducible):
        rauzy_class(Permutation.from_monodromy("1 2"))


def test_dot_export_shape():
    graph = rauzy_class(Permutation.from_monodromy("4 3 2 1"))
    dot = graph.to_dot()
    assert dot.count("->") == 14  # two outgoing arrows per vertex
    assert dot.startswith("digraph")


def test_torus_project_identity_and_zero():
    theta = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(torus_project(identity_matrix(3), theta), theta)
    big = ((12345678901234567890, 1), (987654321, 2))
    np.testing.assert_allclose(torus_project(big, [0.0, 0.0]), 0.0)


def test_torus_project_hand_value():
    out = torus_project([[1, 1], [0, 1]], [pi, pi / 2])
    np.testing.assert_allclose(out, [3 * pi / 2, pi / 2], atol=1e-12)


def test_torus_project_matches_stepwise(reference):
    trace = rauzy_iterate(reference.iet, 40)
    rng = np.random.default_rng(1)
    theta = rng.uniform(0, tau, 4)
    current = theta.copy()
    for n in range(1, 41):
        step = trace.steps[n - 1]
        current[step.loser] = (current[step.loser] + current[step.winner]) % tau
        direct = torus_project(trace.cocycle[n], theta)
        assert torus_distance_to_zero(direct - current) < 1e-9


@pytest.mark.parametrize("d", [2, 4, 9, 17])
def test_torus_distance_of_a_stack_is_each_point_s(d):
    # one reduction along the last axis, as ThetaSeq.distances() takes it
    # over every level; past 8 coordinates numpy's sums go pairwise
    rng = np.random.default_rng(d)
    points = rng.uniform(-20, 20, (30, d)) * rng.choice([1.0, 1e-8, 1e5], (30, d))
    stacked = torus_distance_to_zero(points)
    assert stacked.shape == (30,)
    assert stacked.tolist() == [float(torus_distance_to_zero(p)) for p in points]


def test_reduce_mod_tau_huge_argument():
    huge = Fraction(10**400 + 12345, 7)
    r = reduce_mod_tau(huge)
    assert 0.0 <= r < tau
    # residue consistency: (x + 2*pi*k) reduces to the same value
    assert abs(reduce_mod_tau(huge) - reduce_mod_tau(huge)) == 0.0


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(n=st.integers(-2**1200, 2**1200),
       q=st.one_of(st.integers(1, 2**80), st.integers(0, 80).map(lambda k: 1 << k)),
       shift=st.integers(0, 300), odd=st.integers(0, 2**40))
@example(n=2**1200, q=3, shift=0, odd=0)
@example(n=-(2**1200), q=2**80, shift=64, odd=7)
@example(n=0, q=6, shift=5, odd=3)
# each rounds differently with the 256 bits of pi that terms 64 bits apart
# take than with the 128 bits its lowest terms, 63 bits apart, take; g = 9
# puts the first one's terms 64 bits apart
@example(n=9416104132555465394086799, q=861775, shift=0, odd=4)
@example(n=2244240535825819564135075218124350205, q=2**57, shift=5, odd=0)
def test_reduction_kernel_takes_the_fraction_in_any_terms(n, q, shift, odd):
    # the kernel on (n*g, q*g) sizes its precision from the lowest terms,
    # whether g is a power of two or odd, and rounds the same remainder
    want = reduce_mod_tau(Fraction(n, q))
    assert want == reduce_mod_tau_fraction(Fraction(n, q))
    for g in (1 << shift, 2 * odd + 1):
        assert _mod_tau(n * g, q * g) == want


def test_trace_jsonl_roundtrip(golden_iet):
    trace = rauzy_iterate(golden_iet, 5)
    buf = io.StringIO()
    trace.to_jsonl(buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(lines) == 5
    assert lines[0]["type"] == 1
    assert lines[0]["B"] == [[1, 0], [1, 1]]
