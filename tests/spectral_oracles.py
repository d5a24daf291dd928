"""Reference implementations that the chunked float spectral driver is tested against."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from ietpwi.iet import IETState, Permutation
from ietpwi.spectral import BATCHES, LyapunovEstimate, _FloatInduction, genus, h_pi_basis


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
