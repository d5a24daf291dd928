"""Renormalization steps, exact cocycle products, classes, torus action."""

from __future__ import annotations

import io
import json
from fractions import Fraction
from math import pi, tau

import numpy as np
import pytest

from ietpwi.iet import Lengths, Permutation, build_iet, build_iet_from
from ietpwi.errors import RauzyUndefined, Reducible
from ietpwi.rauzy import (
    identity_matrix,
    matrix_to_float,
    rauzy_class,
    rauzy_iterate,
    rauzy_step,
    reduce_mod_tau,
    torus_distance_to_zero,
    torus_project,
    visit_counts_bruteforce,
    zorich_iterate,
)
from ietpwi.spectral import h_pi_basis


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


def test_reduce_mod_tau_huge_argument():
    huge = Fraction(10**400 + 12345, 7)
    r = reduce_mod_tau(huge)
    assert 0.0 <= r < tau
    # residue consistency: (x + 2*pi*k) reduces to the same value
    assert abs(reduce_mod_tau(huge) - reduce_mod_tau(huge)) == 0.0


def test_trace_jsonl_roundtrip(golden_iet):
    trace = rauzy_iterate(golden_iet, 5)
    buf = io.StringIO()
    trace.to_jsonl(buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(lines) == 5
    assert lines[0]["type"] == 1
    assert lines[0]["B"] == [[1, 0], [1, 1]]
