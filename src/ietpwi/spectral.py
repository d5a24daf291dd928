"""Spectral analysis of the renormalization matrices restricted to their
invariant subspace: growth rates, the contracting subspace, and sampling of
admissible rotation vectors.

Long runs use double precision with the length vector renormalized to unit
total, since any fixed-precision representation supports only finitely many
exact induction steps.  The induction advances by Zorich blocks (maximal
runs of Rauzy steps of one type): within a block the winner is fixed and its
losers cycle, so the full cycles are one division and one rank-one update
of the carried frame, and only the last partial cycle runs step by step
(Zorich 1996).  The matrices are handled in coordinates of the invariant
subspace (spanned by the antisymmetric pairing matrix's columns), which the
elementary factors map onto the corresponding subspace of the next
permutation; projecting at every re-orthonormalization keeps rounding noise
from leaking into the transverse zero modes.  Blocks are driven a chunk
ahead of the QR: the Python driver records a chunk of blocks and their
restricted matrices are formed in one numpy pass, while there is still one
QR per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import tau
from typing import Iterator, Sequence, Union

import numpy as np

from .breaking import ThetaSeq, theta_sequence
from .errors import ExhaustedResamples, InsufficientGap, InvalidInput, RauzyUndefined, Reducible
from .iet import IETState, Permutation, is_irreducible, omega_matrix
from .rauzy import InductionTrace, torus_project  # bench/test_tracer.py pins torus_project here

#: resample when the candidate direction is this close (radians) to the
#: most-contracted direction
TOL_STRONG_STABLE_ANGLE = 1e-8

#: resample when some pushed rotation vector is this close to zero
TOL_ZERO_PREIMAGE = 1e-12

#: levels whose pushed rotation vectors a sample must keep away from zero
N_CHECK = 40
#: draws before sampling gives up
MAX_ATTEMPTS = 100
#: most batches of contiguous blocks behind the Lyapunov error bars
BATCHES = 20
#: least singular-value gap that isolates the contracting subspace
MIN_GAP = 10.0


# ---------------------------------------------------------------------------
# invariant subspace and genus
# ---------------------------------------------------------------------------

def _exact_rank(matrix: np.ndarray) -> int:
    """Rank over the rationals by fraction-free Gaussian elimination."""
    rows = [[Fraction(int(v)) for v in row] for row in matrix]
    rank = 0
    n_rows, n_cols = len(rows), len(rows[0])
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, n_rows):
            if rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def genus(perm: Permutation) -> int:
    """Half the rank of the antisymmetric pairing matrix."""
    if not is_irreducible(perm):
        raise Reducible(f"monodromy {perm.monodromy()} is reducible")
    rank = _exact_rank(omega_matrix(perm))
    if rank % 2 != 0:
        raise AssertionError("antisymmetric matrix with odd rank")
    return rank // 2


def h_pi_basis(perm: Permutation) -> np.ndarray:
    """Orthonormal basis (d x 2g) of the pairing matrix's column space.

    The columns are singular vectors; their number is the exact rank.
    """
    rank = 2 * genus(perm)
    u, _, _ = np.linalg.svd(omega_matrix(perm).astype(float))
    return u[:, :rank].copy()


# ---------------------------------------------------------------------------
# lean float induction driver
# ---------------------------------------------------------------------------

class _FloatInduction:
    """Renormalized double-precision induction, one Zorich block at a time."""

    def __init__(self, iet: IETState):
        if not is_irreducible(iet.perm):
            raise Reducible(f"monodromy {iet.perm.monodromy()} is reducible")
        total = iet.total
        self.lam = [float(v) / total for v in iet.lengths.values()]
        self.top = list(iet.perm.top)
        self.bottom = list(iet.perm.bottom)

    def block(self) -> tuple[int, list[int], list[int]]:
        """One maximal same-type block; returns (winner, losers, counts).

        The winner is fixed within the block, and its losers are the symbols
        after it in the other row, which cycle.  Each full cycle subtracts
        their total from the winner and restores the row, so all but the
        last full cycle are one division; the rest runs stepwise, where
        each step tests for a tie (within 1e-12 of the sum) and for a loser
        below the winner's resolution.  ``counts[i]`` is how often
        ``losers[i]`` lost, so the block has ``sum(counts)`` Rauzy steps.
        The lengths are renormalized to unit sum afterwards.
        """
        lam, top, bottom = self.lam, self.top, self.bottom
        top_wins = lam[top[-1]] > lam[bottom[-1]]
        winner, row = (top[-1], bottom) if top_wins else (bottom[-1], top)
        start = row.index(winner) + 1
        losers = row[start:]
        cycle = sum(lam[s] for s in losers)
        if not lam[winner] <= 1e15 * cycle:
            raise RauzyUndefined("Zorich block above 1e15 cycles in double precision")
        cycles = max(int(lam[winner] // cycle) - 1, 0)
        lam[winner] -= cycles * cycle
        count = dict.fromkeys(losers, cycles)
        while True:
            loser = row[-1]
            w, b = lam[winner], lam[loser]
            if abs(w - b) <= 1e-12 * sum(lam):
                raise RauzyUndefined("final subintervals tie in double precision")
            if w - b == w:
                # the loser is below one ulp of the winner: the subtraction no
                # longer makes progress and the orbit is numerically spent
                raise RauzyUndefined("loser length below double-precision resolution")
            lam[winner] = w - b
            row.pop()
            row.insert(start, loser)
            count[loser] += 1
            if (lam[top[-1]] > lam[bottom[-1]]) != top_wins:
                break
        total = sum(lam)
        self.lam = [v / total for v in lam]
        return winner, losers, [count[s] for s in losers]


#: blocks driven ahead of the QR by ``lyapunov_spectrum``, in one pass each
_CHUNK = 256


def _block_chunks(iet: IETState, m: int, size: int) -> Iterator[np.ndarray]:
    """Drive up to ``m`` Zorich blocks, ``size`` at a time, yielding each
    chunk's restricted matrices as one stacked array.

    A block is a maximal run of Rauzy steps of one type, taken by one
    division (``_FloatInduction.block``).  Its matrix adds ``counts[i]``
    times the winner's row to the row of ``losers[i]``: a rank-one update
    of the carried frame.  Each matrix expresses it from the
    invariant-subspace coordinates at the block start to those at the block
    end.  The Python driver records each block's permutation state, winner
    and loser counts; the chunk's updates and basis changes then run as a
    few numpy calls over the whole chunk.  A chunk is driven only when the
    consumer asks for it.
    """
    driver = _FloatInduction(iet)
    first = (tuple(driver.top), tuple(driver.bottom))
    index = {first: 0}
    bases = h_pi_basis(Permutation(*first))[None]  # stacked, one per state

    def state() -> int:
        nonlocal bases
        key = (tuple(driver.top), tuple(driver.bottom))
        if key not in index:
            index[key] = len(bases)
            bases = np.concatenate([bases, h_pi_basis(Permutation(*key))[None]])
        return index[key]

    states = [0]
    for start in range(0, m, size):
        n = min(size, m - start)
        blocks, losers, winners, counts = [], [], [], []  # one entry per loser
        for k in range(n):
            winner, block_losers, block_counts = driver.block()
            blocks += [k] * len(block_losers)
            losers += block_losers
            winners += [winner] * len(block_losers)
            counts += block_counts
            states.append(state())
        q = bases[states]  # bases at the n + 1 block boundaries
        old, new = q[:-1], q[1:]
        carried = old.copy()  # n x d x 2g block images
        carried[blocks, losers] += np.array(counts, dtype=float)[:, None] * old[blocks, winners]
        yield np.matmul(new.transpose(0, 2, 1), carried)
        states = states[-1:]


# ---------------------------------------------------------------------------
# growth rates
# ---------------------------------------------------------------------------

@dataclass
class LyapunovEstimate:
    """Sorted growth-rate estimates per acceleration step, with batch errors."""

    exponents: np.ndarray
    errors: np.ndarray
    steps_used: int

    def symmetric_defects(self) -> np.ndarray:
        """|theta_j + theta_{2g+1-j}| for the spectrum-symmetry check."""
        return np.abs(self.exponents + self.exponents[::-1])


def lyapunov_spectrum(iet: IETState, m: int) -> LyapunovEstimate:
    """Average log growth of a re-orthonormalized frame over ``m`` blocks.

    The frame is re-orthonormalized after every block (the factors within a
    block share a winner and are applied as one rank-one update); the
    sorted diagonal logs average to the growth rates, and the means of
    ``min(BATCHES, m)`` batches of contiguous blocks give the error bars, so
    fewer than 2 blocks, which have no spread, raise ``InvalidInput``.
    Blocks are driven ``_CHUNK`` at a time, ahead of the QR, and their logs
    are added per chunk, in block order; there is still one QR per block.
    """
    if m < 2:
        raise InvalidInput(f"need at least 2 blocks for error bars, got {m}")
    batches = min(BATCHES, m)
    dim = 2 * genus(iet.perm)
    batch_sums = np.zeros((batches, dim))
    frame, done = None, 0
    for chunk in _block_chunks(iet, m, _CHUNK):
        rs = []
        for matrix in chunk:
            frame, r = np.linalg.qr(matrix if frame is None else matrix @ frame)
            rs.append(r)
        logs = np.log(np.abs(np.array(rs).diagonal(axis1=1, axis2=2)))
        # np.add.at adds repeated indices in order, as one += per block would
        np.add.at(batch_sums, np.arange(done, done + len(rs)) * batches // m, logs)
        done += len(rs)
    exponents = batch_sums.sum(axis=0) / m
    order = np.argsort(-exponents)
    per_batch = batch_sums * (batches / m)
    errors = np.std(per_batch[:, order], axis=0, ddof=1) / np.sqrt(batches)
    return LyapunovEstimate(exponents[order], errors, m)


# ---------------------------------------------------------------------------
# contracting subspace
# ---------------------------------------------------------------------------

@dataclass
class StableFrame:
    """Estimated contracting subspace of the restricted renormalization matrices."""

    frame: np.ndarray          # d x g, orthonormal columns
    gap: float                 # sigma_g / sigma_{g+1} at the chosen window
    window: int                # blocks driven
    drift: float               # principal-angle change over the last windows


def stable_subspace(iet: IETState, m: int) -> StableFrame:
    """Right-singular bottom subspace of the accumulated restricted product.

    The product is renormalized to unit Frobenius norm every block.  Blocks
    are pulled until the ``g``-th singular value (``g`` the genus) falls
    under the double-precision floor of the leading one, since beyond that
    the contracting directions are rounding noise; the frame is the one
    before that block, and no later block is driven, so ``m`` only caps the
    window.  The reported frame is expressed back in the ambient
    coordinates at the starting permutation.
    """
    g = genus(iet.perm)
    q0 = h_pi_basis(iet.perm)
    product, window = np.eye(2 * g), 0
    bottom = previous = None
    gap = np.inf
    for window, (matrix,) in enumerate(_block_chunks(iet, m, 1), 1):
        product = matrix @ product
        product = product / np.linalg.norm(product)
        _, s, vt = np.linalg.svd(product)
        # past this floor the bottom right-singular subspace is rounding
        # noise; stopping here roughly balances truncation and roundoff
        if s[g - 1] / s[0] < 1e-11:
            break
        previous, bottom = bottom, vt[g:, :].T
        gap = s[g - 1] / s[g]
    if bottom is None:
        raise InsufficientGap("no usable window accumulated")
    if gap < MIN_GAP:
        raise InsufficientGap(f"singular-value gap {gap:.2f} below {MIN_GAP}")
    drift = 0.0
    if previous is not None:
        sv = np.linalg.svd(previous.T @ bottom, compute_uv=False)
        drift = float(np.arccos(np.clip(sv[-1], 0.0, 1.0)))
    return StableFrame(q0 @ bottom, float(gap), window, drift)


# ---------------------------------------------------------------------------
# rotation-vector sampling
# ---------------------------------------------------------------------------

FrameLike = Union[np.ndarray, Sequence[Sequence[Fraction]]]


@dataclass
class ThetaSample:
    """A rotation vector drawn from the contracting subspace's small ball."""

    v: list
    theta: np.ndarray
    delta: float
    attempts: int
    exclusion_report: dict = field(default_factory=dict)


def _frame_columns(frame: FrameLike) -> list[list]:
    if isinstance(frame, np.ndarray):
        return [list(frame[:, j]) for j in range(frame.shape[1])]
    return [list(col) for col in frame]


def sample_theta(frame: FrameLike, delta: float, seed: int, *,
                 upsilon: Sequence[float],
                 trace: InductionTrace) -> ThetaSample:
    """Draw a rotation vector from the ball of radius ``delta``.

    The candidate is a random combination of the frame columns scaled to a
    norm uniform in ``(0.1, 1) * delta``.  Candidates are rejected when they
    align with the translation-vector direction (the most contracted one,
    where the limit curve degenerates to circle arcs) or when its push
    (``breaking.theta_sequence``) to some level 1 to ``N_CHECK`` of ``trace``
    hits zero on the torus (where it degenerates to line segments).
    Exact rational frames are combined exactly so deep pushes stay faithful.
    """
    if not 0 < delta < np.pi:
        raise InvalidInput(f"delta must lie in (0, pi), got {delta!r}")
    columns = _frame_columns(frame)
    g = len(columns)
    rng = np.random.default_rng(seed)
    ups = np.asarray([float(u) for u in upsilon], dtype=float)
    ups_unit = ups / np.linalg.norm(ups)
    report = {"strong_stable_hits": 0, "zero_preimage_hits": 0}
    for attempt in range(1, MAX_ATTEMPTS + 1):
        coeff = rng.standard_normal(g)
        radius = delta * rng.uniform(0.1, 1.0)
        vec_f = np.zeros(len(columns[0]))
        for c, col in zip(coeff, columns):
            vec_f = vec_f + c * np.array([float(x) for x in col])
        norm = np.linalg.norm(vec_f)
        if norm == 0.0:
            continue
        # sine of the angle to the strong direction; arccos of a double dot
        # product cannot resolve angles this small
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
        pushed = theta_sequence(trace, v, min(N_CHECK, trace.n_steps))
        if np.any(pushed.distances()[1:] < TOL_ZERO_PREIMAGE):
            report["zero_preimage_hits"] += 1
            continue
        theta = np.array([float(x) % tau for x in v])
        return ThetaSample(list(v), theta, delta, attempt, report)
    raise ExhaustedResamples(
        f"no admissible rotation vector in {MAX_ATTEMPTS} draws: {report}")


# ---------------------------------------------------------------------------
# summability of the pushed rotation vectors
# ---------------------------------------------------------------------------

@dataclass
class SummabilityReport:
    """Partial sums of the pushed rotation-vector distances to zero."""

    distances: np.ndarray
    total: float
    horizon: int          # level where the distances stop decreasing
    decays: bool
    ratio_to_initial: float

    @property
    def final_term(self) -> float:
        return float(self.distances[self.horizon])

    @property
    def summable(self) -> bool:
        """The verdict: strict decay, or genuine decay down to a horizon of 15 or more levels."""
        return self.decays or (self.horizon >= 15 and self.ratio_to_initial <= 0.05)

    @property
    def empirical_constant(self) -> float:
        """Observed ratio of the distance sum to the initial distance."""
        first = float(self.distances[0])
        return self.total / first if first > 0 else 0.0


def summability_check(seq: ThetaSeq) -> SummabilityReport:
    """Distances to zero of the pushed rotation vectors ``seq``, and their decay.

    The float-noise horizon is the first level attaining the minimum
    distance; the decay verdict looks only at levels up to the horizon: the
    last quarter must hold under 5% of the window's mass and the final term
    must drop under 1e-6.
    """
    dists = seq.distances()
    total = float(np.sum(dists))
    if total == 0.0:
        return SummabilityReport(dists, 0.0, 0, True, 0.0)
    horizon = int(np.argmin(dists))
    window = dists[:horizon + 1]
    tail = float(np.sum(window[-max(1, len(window) // 4):]))
    decays = bool(
        horizon >= 1
        and tail < 0.05 * float(np.sum(window))
        and dists[horizon] < 1e-6
    )
    ratio = float(dists[horizon] / dists[0]) if dists[0] > 0 else 0.0
    return SummabilityReport(dists, total, horizon, decays, ratio)
