"""Invariant subspace, growth rates, contracting frames, admissible sampling."""

from __future__ import annotations

from collections import Counter
from math import sqrt, tau

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ietpwi.breaking import breaking_sequence, theta_sequence
from ietpwi.cli import RunConfig
from ietpwi.errors import ExhaustedResamples, InvalidInput, RauzyUndefined, Reducible
from ietpwi.iet import Lengths, Permutation, build_iet, is_irreducible
from ietpwi.rauzy import rauzy_class, rauzy_iterate
from ietpwi.spectral import (
    _block_chunks,
    _CHUNK,
    _FloatInduction,
    N_CHECK,
    genus,
    h_pi_basis,
    lyapunov_spectrum,
    sample_theta,
    stable_subspace,
    summability_check,
)

import spectral_oracles
from curve_oracles import sup_distance
from rauzy_oracles import matrix_to_float


def test_genus_values():
    assert genus(Permutation.from_monodromy("2 1")) == 1
    assert genus(Permutation.from_monodromy("3 2 1")) == 1
    assert genus(Permutation.from_monodromy("4 3 2 1")) == 2
    assert genus(Permutation.from_monodromy("5 4 3 2 1")) == 2


def test_genus_rejects_reducible():
    with pytest.raises(Reducible):
        genus(Permutation.from_monodromy("1 2 3"))


def test_genus_constant_on_classes():
    for mono in ("3 2 1", "4 3 2 1", "5 4 3 2 1"):
        graph = rauzy_class(Permutation.from_monodromy(mono))
        values = {genus(p) for p in graph.vertices}
        assert len(values) == 1


def test_h_pi_basis_orthonormal_spans_omega():
    from ietpwi.iet import omega_matrix

    perm = Permutation.from_monodromy("4 3 2 1")
    basis = h_pi_basis(perm)
    assert basis.shape == (4, 4)
    np.testing.assert_allclose(basis.T @ basis, np.eye(4), atol=1e-12)
    omega = omega_matrix(perm).astype(float)
    residual = omega - basis @ (basis.T @ omega)
    assert np.max(np.abs(residual)) < 1e-12


#: steps after which the stepwise oracle gives up on a block
ORACLE_BUDGET = 10**6


def stepwise_block(lam, top, bottom):
    """Oracle: one block of the float induction, one Rauzy step at a time.

    Each step tests for a tie (within 1e-12 of the sum) and for a loser
    below the winner's resolution, raising ``RauzyUndefined``, then
    subtracts and moves the loser in ``top``/``bottom``; the lengths are
    renormalized every 64 steps, and the block ends after a step whose
    successor has the other type.  Returns ``(length, winner, loser counts,
    unit-sum lengths)``, or None after ``ORACLE_BUDGET`` steps.
    """
    lam = list(lam)
    counts = Counter()
    while True:
        beta0, beta1 = top[-1], bottom[-1]
        a, b = lam[beta0], lam[beta1]
        if abs(a - b) <= 1e-12 * sum(lam):
            raise RauzyUndefined("final subintervals tie in double precision")
        remainder = abs(a - b)
        if remainder == max(a, b):
            raise RauzyUndefined("loser length below double-precision resolution")
        if a > b:
            type_eps, winner, loser = 0, beta0, beta1
            bottom.pop()
            bottom.insert(bottom.index(beta0) + 1, beta1)
        else:
            type_eps, winner, loser = 1, beta1, beta0
            top.pop()
            top.insert(top.index(beta1) + 1, beta0)
        lam[winner] = remainder
        counts[loser] += 1
        steps = sum(counts.values())
        if steps % 64 == 0:
            lam = [v / sum(lam) for v in lam]
        if steps > ORACLE_BUDGET:
            return None
        if (0 if lam[top[-1]] > lam[bottom[-1]] else 1) != type_eps:
            total = sum(lam)
            return steps, winner, dict(counts), [v / total for v in lam]


def _outcome(run):
    """``run()``, or the ``RauzyUndefined`` it raises."""
    try:
        return run()
    except RauzyUndefined as exc:
        return exc


def assert_blocks_match_oracle(iet, n):
    """Each of the first ``n`` division blocks against the stepwise oracle
    started from the same lengths and permutation; returns the blocks.

    Where the two differ in the last bit at an exact tie, one side ends its
    block and the other raises; the side that ended must raise on its next
    block.
    """
    driver = _FloatInduction(iet)
    blocks = []
    for _ in range(n):
        top, bottom, lam = list(driver.top), list(driver.bottom), list(driver.lam)
        expected = _outcome(lambda: stepwise_block(lam, top, bottom))
        got = _outcome(driver.block)
        if isinstance(got, RauzyUndefined) or isinstance(expected, RauzyUndefined):
            if not isinstance(got, RauzyUndefined):
                with pytest.raises(RauzyUndefined, match="tie"):
                    driver.block()
            elif expected is not None and not isinstance(expected, RauzyUndefined):
                with pytest.raises(RauzyUndefined, match="tie"):
                    stepwise_block(expected[3], top, bottom)
            break
        winner, losers, counts = got
        length = sum(counts)
        if expected is None:
            assert length > ORACLE_BUDGET
            break
        got = (length, winner, {s: c for s, c in zip(losers, counts) if c})
        assert got == expected[:3]
        assert (driver.top, driver.bottom) == (top, bottom)
        # the oracle rounds once per step at the scale of the unit-sum start
        # lengths, and renormalizing by the mass left scales that up
        left = 1.0 - sum(c * lam[s] for s, c in got[2].items())
        np.testing.assert_allclose(driver.lam, expected[3], rtol=1e-9,
                                   atol=1e-15 * length / left)
        blocks.append(got)
    return blocks


@st.composite
def float_exchanges(draw):
    """An irreducible exchange on 2 to 6 symbols with random float lengths."""
    d = draw(st.integers(2, 6))
    perm = Permutation.from_monodromy(draw(st.permutations(range(1, d + 1))))
    assume(is_irreducible(perm))
    values = draw(st.lists(st.floats(1e-3, 1.0), min_size=d, max_size=d))
    return build_iet(perm, Lengths.from_values(values))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(float_exchanges())
def test_division_blocks_match_stepwise_oracle(iet):
    assert_blocks_match_oracle(iet, 30)


@pytest.mark.parametrize("mono, values, first", [
    # winner 1 against the cycle 0.1 + 0.0707: four cycles by division, then
    # one more cycle and one step stepwise, ending before the loser 0.1
    ("3 2 1", [1.0, 0.1, 0.05 * sqrt(2)], (11, 0, {1: 5, 2: 6})),
    ("4 3 2 1", [0.9, 0.01, 0.02, 0.03 * sqrt(2)], (36, 0, {1: 12, 2: 12, 3: 12})),
    ("5 4 3 2 1", [0.9, 0.01, 0.02, 0.03 * sqrt(2), 0.05 * sqrt(3)],
     (21, 0, {1: 5, 2: 5, 3: 5, 4: 6})),
])
def test_division_takes_full_cycles(mono, values, first):
    iet = build_iet(Permutation.from_monodromy(mono), Lengths.from_values(values))
    blocks = assert_blocks_match_oracle(iet, 30)
    assert len(blocks) == 30
    assert blocks[0] == first


def test_division_exact_multiple_backs_off_to_the_tie():
    # the winner 3/4 is exactly three cycles of 3/16 + 1/16: the last step of
    # the third cycle ties, which only the stepwise tail can see
    iet = build_iet(Permutation.from_monodromy("3 2 1"),
                    Lengths.from_values(["3/4", "3/16", "1/16"]))
    driver = _FloatInduction(iet)
    with pytest.raises(RauzyUndefined, match="tie"):
        stepwise_block(driver.lam, driver.top[:], driver.bottom[:])
    with pytest.raises(RauzyUndefined, match="tie"):
        driver.block()


def test_lyapunov_two_symbols_symmetric(golden_iet):
    est = lyapunov_spectrum(golden_iet, 4000)
    assert est.exponents[0] > 0
    assert abs(est.exponents[0] + est.exponents[1]) <= 0.05 * est.exponents[0]


def test_lyapunov_positive_top_on_classes():
    rng = np.random.default_rng(12)
    for mono in ("2 1", "3 2 1", "4 3 2 1"):
        d = len(mono.split())
        iet = build_iet(Permutation.from_monodromy(mono),
                        Lengths.from_values(list(rng.dirichlet(np.ones(d)))))
        est = lyapunov_spectrum(iet, 3000)
        assert est.exponents[0] > 0
        assert np.all(np.diff(est.exponents) < 0)


def test_lyapunov_matches_singular_value_slope(golden_iet):
    """Independent oracle: top growth rate from the accumulated product norm."""
    est = lyapunov_spectrum(golden_iet, 6000)
    log, P, count = 0.0, np.eye(2), 0
    for matrix in spectral_oracles.block_matrices(golden_iet, 6000):
        P = matrix @ P
        norm = np.linalg.norm(P, 2)
        P = P / norm
        log += np.log(norm)
        count += 1
    slope = log / count
    assert abs(slope - est.exponents[0]) <= 0.05 * est.exponents[0]


@pytest.mark.parametrize("m", [2, 5, 19, 20, 47])
def test_lyapunov_error_bars_are_batch_standard_errors(reference, m):
    # per-block log growths of a re-orthonormalized frame, then the standard
    # error of min(20, m) contiguous batches, each batch's sum taken over the
    # nominal batch length m / batches: one block per batch below 20 blocks,
    # so no batch is empty
    logs = []
    frame = None
    for matrix in spectral_oracles.block_matrices(reference.iet, m):
        frame, r = np.linalg.qr(matrix if frame is None else matrix @ frame)
        logs.append(np.log(np.abs(r.diagonal())))
    logs = np.array(logs)
    batches = min(20, m)
    means = np.array([logs[[k for k in range(m) if k * batches // m == b]].sum(axis=0)
                      for b in range(batches)]) * batches / m
    order = np.argsort(-logs.mean(axis=0))
    est = lyapunov_spectrum(reference.iet, m)
    np.testing.assert_allclose(est.exponents, logs.mean(axis=0)[order], rtol=1e-12)
    np.testing.assert_allclose(est.errors, np.std(means[:, order], axis=0, ddof=1)
                               / np.sqrt(batches), rtol=1e-9)
    if m == 5:
        np.testing.assert_allclose(est.errors, np.std(logs[:, order], axis=0, ddof=1)
                                   / np.sqrt(5), rtol=1e-12)


def _drive(items):
    """What a generator yields before it stops, and the ``RauzyUndefined``
    it stops with (None if it runs out)."""
    got = []
    try:
        for item in items:
            got.append(item)
    except RauzyUndefined as exc:
        return got, exc
    return got, None


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(float_exchanges())
def test_chunked_matrices_match_the_per_block_oracle(iet):
    m = _CHUNK + 4
    expected, error = _drive(spectral_oracles.block_matrices(iet, m))
    for size in (1, 3, _CHUNK):
        chunks, chunk_error = _drive(_block_chunks(iet, m, size))
        assert all(len(chunk) == size for chunk in chunks[:-1])
        got = [matrix for chunk in chunks for matrix in chunk]
        if error is None:
            assert chunk_error is None and len(got) == m
        else:
            # a failing block ends its chunk before the chunk is yielded
            assert (type(chunk_error), str(chunk_error)) == (type(error), str(error))
            assert len(got) == len(expected) // size * size
        for matrix, oracle in zip(got, expected):
            assert matrix.shape == oracle.shape
            assert matrix.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("m", [2, 19, 20, 47, 255, 256, 257, 3 * 256 + 7])
def test_lyapunov_matches_the_per_block_oracle_bit_for_bit(m):
    # these block counts cross the batch edges and the chunk edges
    rng = np.random.default_rng(3)
    iet = build_iet(Permutation.from_monodromy("4 3 2 1"),
                    Lengths.from_values(list(rng.dirichlet(np.ones(4)))))
    est = lyapunov_spectrum(iet, m)
    expected = spectral_oracles.lyapunov_spectrum(iet, m)
    assert est.exponents.tobytes() == expected.exponents.tobytes()
    assert est.errors.tobytes() == expected.errors.tobytes()
    assert est.steps_used == m


def test_lyapunov_raises_the_oracle_error_in_mid_chunk():
    # rounder decimals than the CLI's default tie after 8 blocks
    iet = build_iet(Permutation.from_monodromy("4 3 2 1"),
                    Lengths.from_values([0.43, 0.34, 0.12, 0.11]))
    expected, error = _drive(spectral_oracles.block_matrices(iet, 1000))
    assert isinstance(error, RauzyUndefined) and 0 < len(expected) < _CHUNK
    with pytest.raises(RauzyUndefined) as oracle:
        spectral_oracles.lyapunov_spectrum(iet, 1000)
    with pytest.raises(RauzyUndefined) as chunked:
        lyapunov_spectrum(iet, 1000)
    assert type(chunked.value) is type(oracle.value)
    assert str(chunked.value) == str(oracle.value) == str(error)


@pytest.mark.parametrize("m", [-1, 0, 1])
def test_lyapunov_needs_two_blocks(reference, m):
    with pytest.raises(InvalidInput, match="at least 2 blocks"):
        lyapunov_spectrum(reference.iet, m)


def test_stable_direction_two_symbols_is_translation_vector(golden_iet):
    frame = stable_subspace(golden_iet, 60)
    unit = golden_iet.upsilon / np.linalg.norm(golden_iet.upsilon)
    residual = frame.frame[:, 0] - (frame.frame[:, 0] @ unit) * unit
    assert np.linalg.norm(residual) < 1e-6


def test_stable_frame_contracts_and_complement_expands(reference, reference_trace):
    frame = stable_subspace(reference.iet, 150)
    rng = np.random.default_rng(8)
    v = frame.frame @ rng.standard_normal(2)
    v /= np.linalg.norm(v)
    norms = [np.linalg.norm(matrix_to_float(reference_trace.cocycle[n]) @ v)
             for n in (0, 10, 20, 30)]
    assert norms[-1] < norms[0] * 0.5
    # a direction orthogonal to the frame expands
    q, _ = np.linalg.qr(np.hstack([frame.frame,
                                   rng.standard_normal((4, 2))]))
    w = q[:, 2]
    grow = [np.linalg.norm(matrix_to_float(reference_trace.cocycle[n]) @ w)
            for n in (0, 10, 20, 30)]
    assert grow[-1] > 10 * grow[0]


def test_lyapunov_symmetry_on_five_symbols():
    rng = np.random.default_rng(55)
    iet = build_iet(Permutation.from_monodromy("5 4 3 2 1"),
                    Lengths.from_values(list(rng.dirichlet(np.ones(5)))))
    est = lyapunov_spectrum(iet, 100_000)
    assert np.all(est.symmetric_defects() <= 0.05 * est.exponents[0])
    assert np.all(np.diff(est.exponents) < 0)


def test_stable_subspace_insufficient_gap():
    from ietpwi.errors import InsufficientGap

    rng = np.random.default_rng(14)
    iet = build_iet(Permutation.from_monodromy("4 3 2 1"),
                    Lengths.from_values(list(rng.dirichlet(np.ones(4)))))
    with pytest.raises(InsufficientGap):
        stable_subspace(iet, 1)


def test_stable_frame_matches_exact_plane(reference):
    frame = stable_subspace(reference.iet, 150)
    exact = reference.stable_frame()
    overlap = np.linalg.svd(exact.T @ frame.frame, compute_uv=False)
    angles = np.arccos(np.clip(overlap, 0, 1))
    assert np.max(angles) < 5e-3
    assert frame.gap >= 10
    assert frame.drift <= 1e-4


def test_stable_subspace_stops_driving_at_its_floor(monkeypatch):
    # on the CLI's default lengths the product reaches its rounding floor
    # long before the CLI's cap of 1000 blocks; no block past it is driven
    block = _FloatInduction.block
    calls = 0

    def counted(self):
        nonlocal calls
        calls += 1
        return block(self)

    monkeypatch.setattr(_FloatInduction, "block", counted)
    frame = stable_subspace(RunConfig().build(), 1000)
    assert calls == frame.window == 114


def test_sample_theta_exhausts_for_genus_one(golden_iet):
    frame = stable_subspace(golden_iet, 60)
    trace = rauzy_iterate(golden_iet, 30)
    with pytest.raises(ExhaustedResamples):
        sample_theta(frame.frame, 0.3, seed=1, upsilon=golden_iet.upsilon,
                     trace=trace)


def test_sample_theta_clean_on_reference(reference, reference_trace):
    sample = sample_theta(reference.stable_frame_exact(), 0.2, seed=9,
                          upsilon=reference.iet.upsilon, trace=reference_trace)
    assert 0 < np.linalg.norm([float(x) for x in sample.v]) < 0.2
    assert sample.exclusion_report["strong_stable_hits"] == 0
    assert np.all(sample.theta >= 0) and np.all(sample.theta < tau)


def test_sample_theta_delta_scaling_degenerates(reference, reference_trace):
    sups = []
    for delta in (1e-2, 1e-4):
        sample = sample_theta(reference.stable_frame_exact(), delta, seed=3,
                              upsilon=reference.iet.upsilon, trace=reference_trace)
        curves = breaking_sequence(reference_trace, sample.v, 10)
        sups.append(sup_distance(curves[-1], curves[0]))
    assert sups[1] < 1e-3
    assert sups[1] < sups[0] * 0.05


@pytest.fixture(scope="module")
def sampling_inputs(reference):
    """Frame, exchange and ``N_CHECK``-step trace of the catalog's exact frame
    and of the float frame on the CLI's default lengths."""
    default = RunConfig().build()
    return {
        "exact": (reference.stable_frame_exact(), reference.iet,
                  rauzy_iterate(reference.iet, N_CHECK)),
        "float": (stable_subspace(default, 1000).frame, default,
                  rauzy_iterate(default, N_CHECK)),
    }


@pytest.mark.parametrize("delta", [0.5, 0.05, 1e-11])
@pytest.mark.parametrize("frame_kind", ["exact", "float"])
def test_sample_theta_matches_the_per_level_oracle(sampling_inputs, frame_kind, delta):
    # at 1e-11 some seeds need several draws, so rejections are compared too
    frame, iet, trace = sampling_inputs[frame_kind]
    for seed in range(10):
        got = sample_theta(frame, delta, seed, upsilon=iet.upsilon, trace=trace)
        want = spectral_oracles.sample_theta(frame, delta, seed, upsilon=iet.upsilon,
                                             trace=trace)
        assert got.v == want.v
        assert got.theta.tobytes() == want.theta.tobytes()
        assert (got.attempts, got.exclusion_report) == (want.attempts, want.exclusion_report)


def test_sample_theta_rejects_zero_preimages(sampling_inputs):
    frame, iet, trace = sampling_inputs["exact"]
    sample = sample_theta(frame, 1e-11, 0, upsilon=iet.upsilon, trace=trace)
    assert sample.attempts == 2
    assert sample.exclusion_report == {"strong_stable_hits": 0, "zero_preimage_hits": 1}
    # every draw this small pushes to within TOL_ZERO_PREIMAGE of zero somewhere
    with pytest.raises(ExhaustedResamples, match="'zero_preimage_hits': 100"):
        sample_theta(frame, 1e-12, 0, upsilon=iet.upsilon, trace=trace)


def test_summability_zero_theta(reference_trace):
    report = summability_check(theta_sequence(reference_trace, [0.0] * 4, 60))
    assert report.total == 0.0 and report.decays


def test_summability_exact_sample_decays(reference_trace, reference_sample):
    report = summability_check(theta_sequence(reference_trace, reference_sample.v, 420))
    assert report.decays
    assert report.horizon >= 15
    assert report.final_term < 1e-6
    assert report.ratio_to_initial < 1e-4


def test_summability_random_theta_fails(reference_trace):
    rng = np.random.default_rng(77)
    failures = 0
    for _ in range(5):
        theta = rng.uniform(0, tau, 4)
        report = summability_check(theta_sequence(reference_trace, theta, 80))
        if not report.decays:
            failures += 1
    assert failures >= 4


def test_summability_respects_float_noise_horizon(reference_trace, reference_sample):
    """A float64 lift stalls early; the report must confine claims to the window."""
    float_theta = [float(x) for x in reference_sample.v]
    report = summability_check(theta_sequence(reference_trace, float_theta, 420))
    assert report.horizon < 420
    assert report.distances[report.horizon] <= report.distances[0]
    assert report.empirical_constant >= 1.0


def test_known_admissible_rotation_vector_lies_in_stable_plane(reference):
    """Regression: the classical rotation vector for this exchange, published
    to three significant digits, must sit in the computed contracting plane
    up to its own rounding scale."""
    frame = reference.stable_frame()
    theta = np.array([4.85, 0.92, 1.31, 1.28])
    lift = np.where(theta > np.pi, theta - tau, theta)
    residual = lift - frame @ (frame.T @ lift)
    assert np.linalg.norm(residual) / np.linalg.norm(lift) < 0.01
