"""Reference implementations that the chunked float spectral driver and the
rotation-vector sampler are tested against, and float readings of the
catalog's contracting plane, of the float frame's drift and of a
summability report."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import tau
from typing import Iterator, Sequence

import numpy as np

from ietpwi.breaking import theta_sequence
from ietpwi.catalog import SelfInducingIET
from ietpwi.errors import ExhaustedResamples
from ietpwi.iet import IETState, Permutation
from ietpwi.rauzy import InductionTrace, torus_distance_to_zero, torus_project
from ietpwi.spectral import (BATCHES, MAX_ATTEMPTS, N_CHECK, TOL_STRONG_STABLE_ANGLE,
                             TOL_ZERO_PREIMAGE, FrameLike, LyapunovEstimate, ThetaSample,
                             SummabilityReport, _FloatInduction, _frame_columns, genus,
                             h_pi_basis, stable_subspace)


def block_matrices(iet: IETState, m: int) -> Iterator[np.ndarray]:
    """Each of up to ``m`` blocks' restricted matrices, one block at a time.

    The block's image of the carried frame (``block_images``) is expressed
    in the next permutation's invariant-subspace basis.
    """
    for q, carried in block_images(iet, m):
        yield q.T @ carried


def block_images(iet: IETState, m: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each of up to ``m`` blocks' next basis and image of the carried frame.

    The carried frame is copied and each loser's row gains ``count`` times
    the winner's row, a count of 0 included.
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
        yield q, carried


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
    ``n`` in 1..``N_CHECK``, stopping at the first push near zero.  The
    sample carries the push to level ``min(N_CHECK, trace.n_steps)``.
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
        return ThetaSample(list(v), theta, delta, attempt, report,
                           theta_sequence(trace, v, min(N_CHECK, trace.n_steps)))
    raise ExhaustedResamples(
        f"no admissible rotation vector in {MAX_ATTEMPTS} draws: {report}")


def stable_frame(catalog: SelfInducingIET) -> np.ndarray:
    """Float orthonormal basis of the catalog's contracting plane, strong first."""
    raw = np.array([[float(c) for c in v] for v in catalog.stable_frame_exact()]).T
    q, _ = np.linalg.qr(raw)
    return q


def frame_drift(iet: IETState, m: int) -> float:
    """Largest principal angle between the float frames after ``m - 1`` and
    ``m`` blocks; ``m`` must lie below the frame's rounding floor, so the cap
    ends both drives."""
    sv = np.linalg.svd(stable_subspace(iet, m - 1).T @ stable_subspace(iet, m),
                       compute_uv=False)
    return float(np.arccos(np.clip(sv[-1], 0.0, 1.0)))


def empirical_constant(report: SummabilityReport) -> float:
    """Observed ratio of the distance sum to the initial distance."""
    first = float(report.distances[0])
    return report.total / first if first > 0 else 0.0
