"""Spectral analysis of the renormalization cocycle restricted to its
invariant subspace: growth rates, the contracting subspace, and sampling of
admissible rotation vectors.

Long runs use double precision with the length vector renormalized to unit
total, since any fixed-precision representation supports only finitely many
exact induction steps.  The induction advances by Zorich blocks (maximal
runs of Rauzy steps of one type): within a block the winner is fixed and its
losers cycle, so the full cycles are one division and one rank-one update
of the carried frame, and only the last partial cycle runs step by step
(Zorich 1996).  The cocycle is handled in coordinates of the invariant
subspace (spanned by the antisymmetric pairing matrix's columns), which the
elementary factors map onto the corresponding subspace of the next
permutation; projecting at every re-orthonormalization keeps rounding noise
from leaking into the transverse zero modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import tau
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .breaking import theta_sequence
from .errors import ExhaustedResamples, InsufficientGap, RauzyUndefined, Reducible
from .iet import IETState, Permutation, is_irreducible, omega_matrix
from .rauzy import InductionTrace, torus_distance_to_zero, torus_project

#: resample when the candidate direction is this close (radians) to the
#: most-contracted direction
TOL_STRONG_STABLE_ANGLE = 1e-8

#: resample when some pushed rotation vector is this close to zero
TOL_ZERO_PREIMAGE = 1e-12


# ---------------------------------------------------------------------------
# invariant subspace and genus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantSubspace:
    """Orthonormal basis of the pairing matrix's column space."""

    basis: np.ndarray  # d x dim
    dim: int


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


def h_pi_basis(perm: Permutation) -> InvariantSubspace:
    """Orthonormal column-space basis via singular vectors, exact rank."""
    if not is_irreducible(perm):
        raise Reducible(f"monodromy {perm.monodromy()} is reducible")
    omega = omega_matrix(perm).astype(float)
    rank = _exact_rank(omega_matrix(perm))
    u, _, _ = np.linalg.svd(omega)
    return InvariantSubspace(u[:, :rank].copy(), rank)


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

    def block(self) -> tuple[int, int, list[int], list[int]]:
        """One maximal same-type block; returns (length, winner, losers, counts).

        The winner is fixed within the block, and its losers are the symbols
        after it in the other row, which cycle.  Each full cycle subtracts
        their total from the winner and restores the row, so all but the
        last full cycle are one division; the rest runs stepwise, where
        each step tests for a tie (within 1e-12 of the sum) and for a loser
        below the winner's resolution.  ``counts[i]`` is how often
        ``losers[i]`` lost; ``length`` is the block's number of Rauzy steps.
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
        length = cycles * len(losers)
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
            length += 1
            if (lam[top[-1]] > lam[bottom[-1]]) != top_wins:
                break
        total = sum(lam)
        self.lam = [v / total for v in lam]
        return length, winner, losers, [count[s] for s in losers]


def _drive_blocks(iet: IETState, m: int,
                  on_block: Callable[[np.ndarray, Permutation, int], None]) -> None:
    """Run ``m`` Zorich blocks, reporting each block's restricted matrix.

    A block is a maximal run of Rauzy steps of one type, taken by one
    division (``_FloatInduction.block``).  Its cocycle adds ``counts[i]``
    times the winner's row to the row of ``losers[i]``: a rank-one update
    of the carried frame.  ``on_block(matrix, perm_end, length)`` receives
    that matrix expressed from the invariant-subspace coordinates at the
    block start to those at the block end, the permutation at the block end
    and the block's number of Rauzy steps.
    """
    states: dict[tuple, tuple[Permutation, np.ndarray]] = {}

    def state_of(top: list[int], bottom: list[int]) -> tuple[Permutation, np.ndarray]:
        key = (tuple(top), tuple(bottom))
        if key not in states:
            perm = Permutation(*key)
            states[key] = (perm, h_pi_basis(perm).basis)
        return states[key]

    driver = _FloatInduction(iet)
    q = state_of(driver.top, driver.bottom)[1]
    for _ in range(m):
        length, winner, losers, counts = driver.block()
        carried = q.copy()  # d x 2g block image
        row = q[winner]
        for loser, count in zip(losers, counts):
            carried[loser] += count * row
        perm_end, q = state_of(driver.top, driver.bottom)
        on_block(q.T @ carried, perm_end, length)


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


def lyapunov_spectrum(iet: IETState, m: int, batches: int = 20) -> LyapunovEstimate:
    """Average log growth of a re-orthonormalized frame over ``m`` blocks.

    The frame is re-orthonormalized after every block (the factors within a
    block share a winner and are applied as one rank-one update); the
    sorted diagonal logs average to the growth rates, and batch means over
    contiguous block ranges give the error bars.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    dim = 2 * genus(iet.perm)
    batch_sums = np.zeros((batches, dim))
    frame = None
    k = 0

    def on_block(matrix: np.ndarray, perm_end: Permutation, length: int) -> None:
        nonlocal frame, k
        frame, r = np.linalg.qr(matrix if frame is None else matrix @ frame)
        batch_sums[k * batches // m] += np.log(np.abs(r.diagonal()))
        k += 1

    _drive_blocks(iet, m, on_block)
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
    """Estimated contracting subspace of the restricted cocycle."""

    frame: np.ndarray          # d x g, orthonormal columns
    gap: float                 # sigma_g / sigma_{g+1} at the chosen window
    window: int                # acceleration steps actually used
    drift: float               # principal-angle change over the last windows
    log_singular_values: np.ndarray


def stable_subspace(iet: IETState, m: int, g: Optional[int] = None,
                    min_gap: float = 10.0) -> StableFrame:
    """Right-singular bottom subspace of the accumulated restricted product.

    The product is renormalized to unit Frobenius norm every block with the
    scale tracked in log form; accumulation stops once the ``g``-th singular
    value falls under the double-precision floor of the leading one, since
    beyond that the contracting directions are rounding noise.  The reported
    frame is expressed back in the ambient coordinates at the starting
    permutation.
    """
    g_val = g if g is not None else genus(iet.perm)
    dim = 2 * genus(iet.perm)
    if g is not None and g != dim // 2:
        raise ValueError(f"subspace dimension {g} does not match genus {dim // 2}")
    q0 = h_pi_basis(iet.perm).basis

    state = {
        "P": np.eye(dim),
        "logscale": 0.0,
        "window": 0,
        "stopped": False,
        "V": None,
        "V_prev": None,
        "logs": None,
        "gap": np.inf,
    }

    def on_block(matrix: np.ndarray, perm_end: Permutation, length: int) -> None:
        if state["stopped"]:
            return
        P = matrix @ state["P"]
        norm = np.linalg.norm(P)
        state["P"] = P / norm
        state["logscale"] += np.log(norm)
        state["window"] += 1
        u, s, vt = np.linalg.svd(state["P"])
        # past this floor the bottom right-singular subspace is rounding
        # noise; stopping here roughly balances truncation and roundoff
        if s[g_val - 1] / s[0] < 1e-11:
            state["stopped"] = True
            return
        state["V_prev"] = state["V"]
        state["V"] = vt[dim - g_val:, :].T
        state["logs"] = np.log(s) + state["logscale"]
        state["gap"] = s[g_val - 1] / s[g_val]

    _drive_blocks(iet, m, on_block)
    if state["V"] is None:
        raise InsufficientGap("no usable window accumulated")
    if state["gap"] < min_gap:
        raise InsufficientGap(
            f"singular-value gap {state['gap']:.2f} below {min_gap}")
    drift = 0.0
    if state["V_prev"] is not None:
        overlap = state["V_prev"].T @ state["V"]
        sv = np.linalg.svd(overlap, compute_uv=False)
        drift = float(np.arccos(np.clip(sv[-1], 0.0, 1.0)))
    return StableFrame(q0 @ state["V"], float(state["gap"]), state["window"],
                       drift, state["logs"])


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
                 trace: Optional[InductionTrace] = None,
                 n_check: int = 40,
                 weights: Optional[Sequence[float]] = None,
                 max_attempts: int = 100) -> ThetaSample:
    """Draw a rotation vector from the ball of radius ``delta``.

    The candidate is a random combination of the frame columns scaled to a
    norm uniform in ``(0.1, 1) * delta``.  Candidates are rejected when they
    align with the translation-vector direction (the most contracted one,
    where the limit curve degenerates to circle arcs) or when some pushed
    vector hits zero on the torus (where it degenerates to line segments).
    Exact rational frames are combined exactly so deep pushes stay faithful.
    """
    if not 0 < delta < np.pi:
        raise ValueError("delta must lie in (0, pi)")
    columns = _frame_columns(frame)
    g = len(columns)
    rng = np.random.default_rng(seed)
    ups = np.asarray([float(u) for u in upsilon], dtype=float)
    ups_unit = ups / np.linalg.norm(ups)
    report = {"strong_stable_hits": 0, "zero_preimage_hits": 0}
    for attempt in range(1, max_attempts + 1):
        coeff = rng.standard_normal(g)
        if weights is not None:
            coeff = coeff * np.asarray(weights, dtype=float)
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
        exact = any(isinstance(col[0], Fraction) for col in columns)
        if exact:
            v = [sum(Fraction(float(c)) * Fraction(col[i]) for c, col in zip(coeff, columns))
                 * Fraction(float(scale)) for i in range(len(columns[0]))]
        else:
            v = [float(x * scale) for x in vec_f]
        theta = np.array([float(x) % tau for x in v])
        if trace is not None:
            depth = min(n_check, trace.n_steps)
            hit = False
            for level in range(1, depth + 1):
                pushed = torus_project(trace.cocycle[level], v)
                if torus_distance_to_zero(pushed) < TOL_ZERO_PREIMAGE:
                    hit = True
                    break
            if hit:
                report["zero_preimage_hits"] += 1
                continue
        return ThetaSample(list(v), theta, delta, attempt, report)
    raise ExhaustedResamples(
        f"no admissible rotation vector in {max_attempts} draws: {report}")


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
    def empirical_constant(self) -> float:
        """Observed ratio of the distance sum to the initial distance."""
        first = float(self.distances[0])
        return self.total / first if first > 0 else 0.0


def summability_check(trace: InductionTrace, theta, depth: int) -> SummabilityReport:
    """Partial sums of distances-to-zero up to the float-noise horizon.

    The horizon is the first index attaining the minimum distance; the decay
    verdict looks only at levels up to the horizon: the last quarter must
    hold under 5% of the window's mass and the final term must drop under
    1e-6.
    """
    seq = theta_sequence(trace, theta, min(depth, trace.n_steps))
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
