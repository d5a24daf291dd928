"""Spectral analysis of the renormalization cocycle restricted to its
invariant subspace: growth rates, the contracting subspace, and sampling of
admissible rotation vectors.

Long runs use double precision with the length vector renormalized to unit
total, since any fixed-precision representation supports only finitely many
exact induction steps.  The cocycle is handled in coordinates of the
invariant subspace (spanned by the antisymmetric pairing matrix's columns),
which the elementary factors map onto the corresponding subspace of the next
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
    """Renormalized double-precision induction for long spectral runs."""

    def __init__(self, iet: IETState):
        if not is_irreducible(iet.perm):
            raise Reducible(f"monodromy {iet.perm.monodromy()} is reducible")
        total = iet.total
        self.lam = [float(v) / total for v in iet.lengths.values()]
        self.top = list(iet.perm.top)
        self.bottom = list(iet.perm.bottom)
        self.d = iet.d
        self.steps_done = 0

    def permutation(self) -> Permutation:
        return Permutation(tuple(self.top), tuple(self.bottom))

    def step(self) -> tuple[int, int, int]:
        """One induction step; returns (type, winner, loser)."""
        lam, top, bottom = self.lam, self.top, self.bottom
        beta0, beta1 = top[-1], bottom[-1]
        a, b = lam[beta0], lam[beta1]
        if abs(a - b) <= 1e-12 * sum(lam):
            raise RauzyUndefined("final subintervals tie in double precision")
        remainder = a - b if a > b else b - a
        if remainder == max(a, b):
            # the loser is below one ulp of the winner: the subtraction no
            # longer makes progress and the orbit is numerically spent
            raise RauzyUndefined("loser length below double-precision resolution")
        # permutation move inlined in place: a shared helper cost ~4% on lyapunov_spectrum
        if a > b:
            type_eps, winner, loser = 0, beta0, beta1
            bottom.pop()
            bottom.insert(bottom.index(beta0) + 1, beta1)
        else:
            type_eps, winner, loser = 1, beta1, beta0
            top.pop()
            top.insert(top.index(beta1) + 1, beta0)
        lam[winner] = remainder
        self.steps_done += 1
        if self.steps_done % 64 == 0:
            total = sum(lam)
            for i in range(self.d):
                lam[i] /= total
        return type_eps, winner, loser

    def block_two_symbols(self) -> tuple[int, int, int]:
        """One maximal same-type block on two symbols by a single division.

        On two symbols the compared pair is fixed within a block, so the
        block is a continued-fraction digit; returns (digit, winner, loser).
        """
        lam = self.lam
        beta0, beta1 = self.top[-1], self.bottom[-1]
        a, b = lam[beta0], lam[beta1]
        winner, loser = (beta0, beta1) if a > b else (beta1, beta0)
        big, small = max(a, b), min(a, b)
        if small <= 1e-300 * big:
            raise RauzyUndefined("loser length below double-precision resolution")
        digit = int(big // small)
        remainder = big - digit * small
        if remainder <= 1e-12 * (big + small) or digit > 10**15:
            raise RauzyUndefined("final subintervals tie in double precision")
        lam[winner] = remainder
        self.steps_done += digit
        total = sum(lam)
        lam[0] /= total
        lam[1] /= total
        return digit, winner, loser


def _subspace_basis_cache() -> Callable[[Permutation], np.ndarray]:
    cache: dict[tuple, np.ndarray] = {}

    def get(perm: Permutation) -> np.ndarray:
        key = (perm.top, perm.bottom)
        if key not in cache:
            cache[key] = h_pi_basis(perm).basis
        return cache[key]

    return get


def _drive_blocks(iet: IETState, m: int,
                  on_block: Callable[[np.ndarray, Permutation, int], None]) -> int:
    """Run ``m`` acceleration blocks, reporting each block's restricted matrix.

    ``on_block(matrix, perm_end, length)`` receives the block's cocycle
    matrix expressed from the invariant-subspace coordinates at the block
    start to those at the block end.  A block ends after a step whose
    successor would have the other type (maximal same-type runs).
    """
    basis_of = _subspace_basis_cache()
    driver = _FloatInduction(iet)
    carried = basis_of(driver.permutation()).copy()  # d x 2g block image
    if iet.d == 2:
        # two-symbol blocks are continued-fraction digits; one division each
        perm = driver.permutation()
        q = basis_of(perm)
        for _ in range(m):
            digit, winner, loser = driver.block_two_symbols()
            carried = q.copy()
            carried[loser, :] += digit * carried[winner, :]
            on_block(q.T @ carried, perm, digit)
        return driver.steps_done
    block_len = 0
    blocks_done = 0
    while blocks_done < m:
        type_eps, winner, loser = driver.step()
        carried[loser, :] += carried[winner, :]
        block_len += 1
        lam = driver.lam
        beta0, beta1 = driver.top[-1], driver.bottom[-1]
        next_type = 0 if lam[beta0] > lam[beta1] else 1
        if next_type != type_eps:
            perm_end = driver.permutation()
            q_end = basis_of(perm_end)
            on_block(q_end.T @ carried, perm_end, block_len)
            blocks_done += 1
            carried = q_end.copy()
            block_len = 0
    return driver.steps_done


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
    block share a type and are applied one row operation at a time); the
    sorted diagonal logs average to the growth rates, and batch means over
    contiguous block ranges give the error bars.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    dim = 2 * genus(iet.perm)
    logs = np.zeros(dim)
    batch_sums = np.zeros((batches, dim))
    frame_holder = {"q": None}
    count = {"k": 0}

    def on_block(matrix: np.ndarray, perm_end: Permutation, length: int) -> None:
        q = frame_holder["q"]
        image = matrix if q is None else matrix @ q
        q_new, r = np.linalg.qr(image)
        frame_holder["q"] = q_new
        step_logs = np.log(np.abs(np.diag(r)))
        logs[:] += step_logs
        batch_sums[min(count["k"] * batches // m, batches - 1)] += step_logs
        count["k"] += 1

    _drive_blocks(iet, m, on_block)
    exponents = logs / m
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
    basis_of = _subspace_basis_cache()
    q0 = basis_of(iet.perm)

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
