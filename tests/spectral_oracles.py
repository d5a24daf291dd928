"""Reference implementations that the chunked float spectral driver and the
rotation-vector sampler are tested against."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import tau
from typing import Iterator, Sequence

import numpy as np

from ietpwi.errors import ExhaustedResamples
from ietpwi.iet import IETState, Permutation
from ietpwi.rauzy import InductionTrace, torus_distance_to_zero, torus_project
from ietpwi.spectral import (BATCHES, MAX_ATTEMPTS, N_CHECK, TOL_STRONG_STABLE_ANGLE,
                             TOL_ZERO_PREIMAGE, FrameLike, LyapunovEstimate, ThetaSample,
                             _FloatInduction, _frame_columns, genus, h_pi_basis)


def block_matrices(iet: IETState, m: int) -> Iterator[np.ndarray]:
    """Each of up to ``m`` blocks' restricted matrices, one block at a time.

    The carried frame is copied, each loser's row gains ``count`` times the
    winner's row, and the result is expressed in the next permutation's
    invariant-subspace basis.
    """

    @lru_cache(maxsize=None)
    def basis(top: tuple[int, ...], bottom: tuple[int, ...]) -> np.ndarray:
        return h_pi_basis(Permutation(top, bottom))

    driver = _FloatInduction(iet)
    q = basis(tuple(driver.top), tuple(driver.bottom))
    for _ in range(m):
        winner, losers, counts = driver.block()
        carried = q.copy()  # d x 2g block image
        row = q[winner]
        for loser, count in zip(losers, counts):
            carried[loser] += count * row
        q = basis(tuple(driver.top), tuple(driver.bottom))
        yield q.T @ carried


def lyapunov_spectrum(iet: IETState, m: int) -> LyapunovEstimate:
    """Growth rates and batch errors with one QR and one batch update per block."""
    batches = min(BATCHES, m)
    batch_sums = np.zeros((batches, 2 * genus(iet.perm)))
    frame = None
    for k, matrix in enumerate(block_matrices(iet, m)):
        frame, r = np.linalg.qr(matrix if frame is None else matrix @ frame)
        batch_sums[k * batches // m] += np.log(np.abs(r.diagonal()))
    exponents = batch_sums.sum(axis=0) / m
    order = np.argsort(-exponents)
    per_batch = batch_sums * (batches / m)
    errors = np.std(per_batch[:, order], axis=0, ddof=1) / np.sqrt(batches)
    return LyapunovEstimate(exponents[order], errors, m)


def sample_theta(frame: FrameLike, delta: float, seed: int, *, upsilon: Sequence[float],
                 trace: InductionTrace) -> ThetaSample:
    """The sampler's draws, each checked level by level against the stored
    cocycle products: ``torus_project(trace.cocycle[n], v)`` for every
    ``n`` in 1..``N_CHECK``, stopping at the first push near zero.
    """
    columns = _frame_columns(frame)
    rng = np.random.default_rng(seed)
    ups = np.asarray([float(u) for u in upsilon], dtype=float)
    ups_unit = ups / np.linalg.norm(ups)
    report = {"strong_stable_hits": 0, "zero_preimage_hits": 0}
    for attempt in range(1, MAX_ATTEMPTS + 1):
        coeff = rng.standard_normal(len(columns))
        radius = delta * rng.uniform(0.1, 1.0)
        vec_f = np.zeros(len(columns[0]))
        for c, col in zip(coeff, columns):
            vec_f = vec_f + c * np.array([float(x) for x in col])
        norm = np.linalg.norm(vec_f)
        if norm == 0.0:
            continue
        residual = vec_f - (vec_f @ ups_unit) * ups_unit
        if np.linalg.norm(residual) / norm < TOL_STRONG_STABLE_ANGLE:
            report["strong_stable_hits"] += 1
            continue
        scale = radius / norm
        if any(isinstance(col[0], Fraction) for col in columns):
            v = [sum(Fraction(float(c)) * Fraction(col[i]) for c, col in zip(coeff, columns))
                 * Fraction(float(scale)) for i in range(len(columns[0]))]
        else:
            v = [float(x * scale) for x in vec_f]
        if any(torus_distance_to_zero(torus_project(trace.cocycle[n], v)) < TOL_ZERO_PREIMAGE
               for n in range(1, min(N_CHECK, trace.n_steps) + 1)):
            report["zero_preimage_hits"] += 1
            continue
        theta = np.array([float(x) % tau for x in v])
        return ThetaSample(list(v), theta, delta, attempt, report)
    raise ExhaustedResamples(
        f"no admissible rotation vector in {MAX_ATTEMPTS} draws: {report}")
