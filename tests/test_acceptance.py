"""Acceptance criteria: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Tolerances are fixed here and match the package-wide contracts; runtime
budgets are asserted where the criterion carries one.
"""

from __future__ import annotations

import time
from math import sin, tau

import numpy as np
import pytest

from ietpwi.breaking import (
    IntervalSeq,
    PLCurve,
    breaking_operator,
    breaking_sequence,
    theta_sequence,
)
from ietpwi.catalog import symmetric4_self_inducing
from ietpwi.errors import ExhaustedResamples
from ietpwi.iet import Lengths, Permutation, build_iet, build_iet_from
from ietpwi.pwi import adapted_pwi
from ietpwi.rauzy import rauzy_class, rauzy_iterate
from ietpwi.spectral import (
    genus,
    lyapunov_spectrum,
    sample_theta,
    stable_subspace,
    summability_check,
)
from ietpwi.verify import (
    discontinuity_orbit,
    embedding_defect,
    injectivity,
    nontriviality,
    quasi_embedding_suite,
)

from curve_oracles import arc_length, breaking_offsets, sup_distance
from rauzy_oracles import matrix_to_float, visit_counts_bruteforce
from tests_random_util import random_irreducible_iet
from verify_oracles import is_nontrivial, max_defect


def verdict(number: int, label: str, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {number}: {label} -- {detail}")


# --------------------------------------------------------------------------
# 1. cocycle oracle equivalence
# --------------------------------------------------------------------------

def test_criterion_1_cocycle_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.time()
    cases = 0
    while cases < 50:
        iet, _ = random_irreducible_iet(rng)
        trace = rauzy_iterate(iet, 12)
        if trace.error is not None:
            continue
        assert visit_counts_bruteforce(iet, 12) == trace.cocycle[12]
        cases += 1
    elapsed = time.time() - start
    ok = cases == 50 and elapsed < 60
    verdict(1, "cocycle visit-count oracle, 50 random inputs, n=12",
            ok, f"exact equality on {cases} cases in {elapsed:.1f}s")
    assert ok


# --------------------------------------------------------------------------
# 2. length identity to depth 200
# --------------------------------------------------------------------------

def test_criterion_2_length_identity_depth_200():
    rng = np.random.default_rng(202)
    start = time.time()
    worst = 0.0
    runs = 0
    while runs < 20:
        iet, _ = random_irreducible_iet(rng)
        trace = rauzy_iterate(iet, 200)
        if trace.error is not None:
            continue
        lam0 = iet.lengths.values()
        for n in range(1, 201):
            back = matrix_to_float(trace.cocycle[n]).T @ trace.states[n].lengths.values()
            rel = float(np.max(np.abs(back - lam0)) / iet.total)
            assert rel < 1e-12 * n, (runs, n, rel)
            worst = max(worst, rel / n)
        runs += 1
    elapsed = time.time() - start
    verdict(2, "length identity, 20 random inputs, n<=200", True,
            f"worst relative error {worst:.2e} x n in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 3. rotation-operator properties on randomized inputs
# --------------------------------------------------------------------------

def _random_curve(rng):
    ell = float(rng.uniform(0.5, 2.0))
    pieces = int(rng.integers(2, 9))
    x = np.unique(np.concatenate([[0.0], np.sort(rng.uniform(0, ell, pieces - 1))]))
    bounds = np.append(x, ell)
    angles = rng.uniform(-np.pi, np.pi, len(x))
    z = [0.0 + 0.0j]
    for width, ang in zip(np.diff(bounds), angles):
        z.append(z[-1] + width * np.exp(1j * ang))
    return PLCurve(ell, x, np.array(z))


def _random_intervals(rng, ell):
    r = int(rng.integers(1, 9))
    delta = float(rng.uniform(0.01, 0.9)) * ell / (2 * r)
    gaps = rng.dirichlet(np.ones(r + 1)) * (ell - r * delta)
    lefts = np.cumsum(gaps[:-1]) + delta * np.arange(r)
    return IntervalSeq(lefts, delta)


def test_criterion_3_operator_properties_randomized():
    rng = np.random.default_rng(303)
    start = time.time()
    for _ in range(1000):
        curve = _random_curve(rng)
        phi = float(rng.uniform(-np.pi, np.pi))
        intervals = _random_intervals(rng, curve.length)
        upper, lower = breaking_offsets(curve, phi, intervals)
        bound = 2.0 * curve.length * abs(sin(phi / 2.0)) + 1e-12
        assert float(np.max(np.abs(upper))) <= bound
        assert float(np.max(np.abs(lower))) <= bound
        out = breaking_operator(curve, phi, intervals)
        out.require_unit_speed()
        assert out.length == curve.length
        assert abs(arc_length(out) - curve.length) <= 1e-10
    elapsed = time.time() - start
    verdict(3, "operator class preservation and offset bound, 1000 cases",
            True, f"all held in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# shared deep pipeline on the reference exchange
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pipeline():
    reference = symmetric4_self_inducing()
    trace = rauzy_iterate(reference.iet, 420)
    assert trace.error is None
    # sampling radius policy: start at 0.5, halve until the deep curve is
    # injective (the first radius already is on this class)
    delta = 0.5
    sample = None
    curves = None
    for _ in range(8):
        candidate = sample_theta(reference.stable_frame_exact(), delta, seed=1,
                                 upsilon=reference.iet.upsilon, trace=trace)
        candidate_curves = breaking_sequence(trace, candidate.v, 45)
        if injectivity(candidate_curves[-1])[0]:
            sample, curves = candidate, candidate_curves
            break
        delta /= 2.0
    assert sample is not None
    seq = theta_sequence(trace, sample.v, 45)
    return reference, trace, sample, curves, seq, delta


# --------------------------------------------------------------------------
# 4. quasi-embedding identities at machine precision
# --------------------------------------------------------------------------

def test_criterion_4_quasi_embedding_suite(pipeline):
    reference, trace, sample, curves, seq, _ = pipeline
    start = time.time()
    report = quasi_embedding_suite(trace, curves, seq, 12)
    elapsed = time.time() - start
    worst = max_defect(report)
    ok = report.all_pass and elapsed < 300
    verdict(4, "map agreement and conjugacy for all m<=n<=12",
            ok, f"max defect {worst:.2e} (tol 1e-9*(1+n)) in {elapsed:.1f}s")
    assert ok


# --------------------------------------------------------------------------
# 5. convergence bounds and summable rotation distances
# --------------------------------------------------------------------------

def test_criterion_5_convergence_and_summability():
    reference = symmetric4_self_inducing()
    trace = rauzy_iterate(reference.iet, 420)
    sample = sample_theta(reference.stable_frame_exact(), 0.1, seed=5,
                          upsilon=reference.iet.upsilon, trace=trace)
    assert sample.delta <= 0.1
    depth = 45
    curves = breaking_sequence(trace, sample.v, depth)
    seq = theta_sequence(trace, sample.v, depth)
    total = reference.iet.total
    report = summability_check(theta_sequence(trace, sample.v, 420))
    horizon_checked = min(depth, report.horizon)
    bound_ok = True
    for n in range(horizon_checked):
        inc = sup_distance(curves[n + 1], curves[n])
        if inc > 4 * total * abs(sin(seq.breaking_angle(n) / 2)) + 1e-12:
            bound_ok = False
    ok = bound_ok and report.horizon >= 15 and report.decays
    verdict(5, "per-level bound to the horizon, distances summable, delta<=0.1",
            ok, f"horizon {report.horizon} (>=15), strict decay {report.decays}, "
                f"sum {report.total:.3f}, final {report.final_term:.1e}")
    assert ok


# --------------------------------------------------------------------------
# 6. growth-rate symmetry and simplicity
# --------------------------------------------------------------------------

def test_criterion_6_lyapunov_symmetry_and_simplicity():
    rng = np.random.default_rng(606)
    iet = build_iet(Permutation.from_monodromy("4 3 2 1"),
                    Lengths.from_values(list(rng.dirichlet(np.ones(4)))))
    start = time.time()
    estimate = lyapunov_spectrum(iet, 100_000)
    elapsed = time.time() - start
    top = estimate.exponents[0]
    sym_ok = bool(np.all(estimate.symmetric_defects() <= 0.05 * top))
    gaps = -np.diff(estimate.exponents)
    bars = estimate.errors[:-1] + estimate.errors[1:]
    gap_ok = bool(np.all(gaps > 3 * bars))
    ok = sym_ok and gap_ok and elapsed < 120
    verdict(6, "restricted spectrum symmetric and simple after 1e5 blocks",
            ok, f"exponents {np.round(estimate.exponents, 4)}, "
                f"sym defects {np.round(estimate.symmetric_defects(), 4)}, "
                f"{elapsed:.1f}s")
    assert ok


# --------------------------------------------------------------------------
# 7. genus and class facts
# --------------------------------------------------------------------------

def test_criterion_7_genus_and_class_facts():
    checks = {
        "genus d2": genus(Permutation.from_monodromy("2 1")) == 1,
        "genus d3": genus(Permutation.from_monodromy("3 2 1")) == 1,
        "genus d4": genus(Permutation.from_monodromy("4 3 2 1")) == 2,
        "class size 7": rauzy_class(Permutation.from_monodromy("4 3 2 1")).size == 7,
    }
    for mono in ("3 2 1", "4 3 2 1"):
        graph = rauzy_class(Permutation.from_monodromy(mono))
        checks[f"genus constant on {mono}"] = len({genus(p) for p in graph.vertices}) == 1
    ok = all(checks.values())
    verdict(7, "genus values and class enumeration", ok, str(checks))
    assert ok


# --------------------------------------------------------------------------
# 8. figure-level reproduction
# --------------------------------------------------------------------------

def test_criterion_8_figure_reproduction(pipeline):
    reference, trace, sample, curves, seq, delta = pipeline
    lam = reference.iet.lengths.values()
    lengths_ok = bool(np.max(np.abs(lam - np.array([0.43, 0.34, 0.12, 0.11]))) < 0.005)

    injective25, witness = injectivity(curves[25])
    cuts = discontinuity_orbit(reference.iet, 3)
    nontrivial_report = nontriviality(curves[25], cuts)
    nontrivial25 = is_nontrivial(nontrivial_report)
    witness_meta = nontrivial_report.checks[0].meta["witness"]

    theta_float = [float(x) % tau for x in sample.v]
    pwi = adapted_pwi(curves[-1], reference.iet, theta_float)
    defect = embedding_defect(curves[-1], pwi, reference.iet)

    summ = summability_check(theta_sequence(trace, sample.v, 420))
    decay_ok = summ.horizon >= 15 and summ.ratio_to_initial < 1e-3

    ok = (lengths_ok and injective25 and nontrivial25 and defect <= 1e-6
          and decay_ok)
    verdict(8, "figure-level run: injective, non-trivial, embedded, decaying",
            ok,
            f"lambda ok {lengths_ok}; gamma(25) injective {injective25}; "
            f"residuals (line {witness_meta['line_residual']:.2e}, "
            f"circle {witness_meta['circle_residual']:.2e}) > 1e-3: {nontrivial25}; "
            f"proxy defect {defect:.2e} <= 1e-6; horizon {summ.horizon}; "
            f"delta {delta}")
    assert ok


# --------------------------------------------------------------------------
# 9. degenerate exactness at zero rotation
# --------------------------------------------------------------------------

def test_criterion_9_degenerate_exactness():
    reference = symmetric4_self_inducing()
    trace = rauzy_iterate(reference.iet, 55)
    start = time.time()
    curves = breaking_sequence(trace, [0.0] * 4, 50)
    worst_curve = max(sup_distance(c, curves[0]) for c in curves)
    seq = theta_sequence(trace, [0.0] * 4, 50)
    worst_theta = max(float(np.max(d)) for d in seq.entries)
    pwi = adapted_pwi(curves[-1], reference.iet, [0.0] * 4)
    defect = embedding_defect(curves[-1], pwi, reference.iet)
    report = quasi_embedding_suite(trace, curves, seq, 6)
    elapsed = time.time() - start
    # at zero rotation the suite's defects stay within 1e-12 per level, well
    # inside the suite's own tolerance
    ok = (worst_curve < 1e-12 and worst_theta == 0.0 and defect < 1e-12
          and all(c.defect <= 1e-12 * (1 + c.n) for c in report.checks))
    verdict(9, "zero rotation keeps the identity for n<=50",
            ok, f"max curve deviation {worst_curve:.1e}, defect {defect:.1e}, "
                f"suite max {max_defect(report):.1e} in {elapsed:.1f}s")
    assert ok


# --------------------------------------------------------------------------
# 10. negative controls
# --------------------------------------------------------------------------

def test_criterion_10_negative_controls():
    reference = symmetric4_self_inducing()
    trace = rauzy_iterate(reference.iet, 120)
    rng = np.random.default_rng(1010)
    failures = 0
    for _ in range(20):
        theta = rng.uniform(0, tau, 4)
        summ = summability_check(theta_sequence(trace, theta, 100))
        curves = breaking_sequence(trace, theta, 18)
        pwi = adapted_pwi(curves[-1], reference.iet, list(theta))
        defect = embedding_defect(curves[-1], pwi, reference.iet)
        injective, _ = injectivity(curves[-1])
        defect_suite_fails = defect > 1e-3 or not injective
        if (not summ.summable) and defect_suite_fails:
            failures += 1

    golden = build_iet_from("2 1", [1 / ((1 + 5**0.5) / 2), 1 - 1 / ((1 + 5**0.5) / 2)])
    frame = stable_subspace(golden, 60)
    golden_trace = rauzy_iterate(golden, 30)
    exhausted = False
    try:
        sample_theta(frame, 0.3, seed=3, upsilon=golden.upsilon,
                     trace=golden_trace)
    except ExhaustedResamples:
        exhausted = True

    ok = failures >= 19 and exhausted
    verdict(10, "random rotations fail, one-handle sampling exhausts",
            ok, f"{failures}/20 random draws failed both; "
                f"genus-1 resampling exhausted: {exhausted}")
    assert ok
