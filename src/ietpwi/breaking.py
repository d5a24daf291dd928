"""Unit-speed piecewise-linear curves and the segment-rotation operator.

A curve is stored as strictly increasing breakpoints with complex vertices;
between breakpoints it is affine with a unit-modulus tangent, so its arc
length equals its parameter length.  The rotation operator takes an ordered
family of equal-width subintervals, rigidly rotates the curve pieces over
them by a fixed angle and translates the pieces in between so the result
stays continuous; iterating it along a renormalization trace with angles
read off the torus cocycle produces the curve sequence that converges to an
invariant curve of an adapted planar piecewise isometry.
"""

from __future__ import annotations

import io
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import pi, tau
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import (BudgetExceeded, IntervalOutOfRange, InvalidInput, NonUnitSpeed,
                     OutOfDomain)
from .iet import PIECE_BUDGET
from .rauzy import InductionTrace, reduce_mod_tau, torus_distance_to_zero, torus_project

#: per-segment absolute tolerance for the unit-speed invariant
TOL_UNIT_SPEED = 1e-12


def angle_to_symmetric(angle: float) -> float:
    """Reduce an angle to the representative in ``[-pi, pi)``."""
    a = float(angle) % tau
    return a - tau if a >= pi else a


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

@dataclass
class PLCurve:
    """Continuous piecewise-linear map from ``[0, length)`` to the plane.

    ``x`` holds the breakpoints starting at 0; ``z`` holds one vertex per
    breakpoint plus the limit value at the right end, so ``len(z) ==
    len(x) + 1``.  Unit speed (chord length equals parameter length on every
    segment) is an invariant of every constructor in this module.
    ``increment`` is ``sup |self - previous|`` when ``breaking_operator``
    made this curve from ``previous``, and ``None`` otherwise.
    """

    length: float
    x: np.ndarray
    z: np.ndarray
    increment: Optional[float] = None

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.z = np.asarray(self.z, dtype=complex)
        if self.x.ndim != 1 or self.z.ndim != 1 or len(self.z) != len(self.x) + 1:
            raise ValueError("need one vertex per breakpoint plus the right-end value")
        if self.x[0] != 0.0:
            raise ValueError("breakpoints must start at 0")

    @classmethod
    def identity(cls, length: float) -> "PLCurve":
        return cls(length, np.array([0.0]), np.array([0.0 + 0.0j, length + 0.0j]))

    @property
    def n_segments(self) -> int:
        return len(self.x)

    def segment_bounds(self) -> np.ndarray:
        return np.append(self.x, self.length)

    def segment_lengths(self) -> np.ndarray:
        return np.diff(self.segment_bounds())

    def tangents(self) -> np.ndarray:
        """Unit tangent of each segment."""
        return np.diff(self.z) / self.segment_lengths()

    def evaluate(self, params: Union[float, Sequence[float], np.ndarray]) -> np.ndarray:
        """Vectorized evaluation; accepts the right endpoint as a limit value."""
        q = np.atleast_1d(np.asarray(params, dtype=float))
        if np.any(q < 0.0) or np.any(q > self.length):
            raise OutOfDomain("parameter outside [0, length]")
        idx = np.clip(np.searchsorted(self.x, q, side="right") - 1, 0, self.n_segments - 1)
        out = self._on_segments(q, idx)
        return out if np.ndim(params) else out[0]

    def _on_segments(self, q: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Value at each parameter ``q[k]`` on the affine piece of segment ``idx[k]``."""
        nxt = idx + 1
        x0, z0 = self.x[idx], self.z[idx]
        # the tangents of the indexed segments only, each formed as tangents() forms it
        right = np.where(nxt < self.n_segments, self.x.take(nxt, mode="clip"), self.length)
        return z0 + (q - x0) * ((self.z[nxt] - z0) / (right - x0))

    def arc_length(self) -> float:
        return float(np.sum(np.abs(np.diff(self.z))))

    def cumulative_arc_length(self) -> np.ndarray:
        """Arc length from 0 to each breakpoint (and to the right end)."""
        return np.concatenate([[0.0], np.cumsum(np.abs(np.diff(self.z)))])

    def unit_speed_defect(self) -> float:
        """Largest deviation of chord length from parameter length."""
        return float(np.max(np.abs(np.abs(np.diff(self.z)) - self.segment_lengths())))

    def require_unit_speed(self) -> None:
        defect = self.unit_speed_defect()
        if defect > TOL_UNIT_SPEED:
            raise NonUnitSpeed(f"unit-speed defect {defect:.3e} exceeds {TOL_UNIT_SPEED}")

    # -- exports ----------------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("x,re,im\n")
        bounds = self.segment_bounds()
        for xv, zv in zip(bounds, self.z):
            buf.write(f"{float(xv)!r},{float(zv.real)!r},{float(zv.imag)!r}\n")
        return buf.getvalue()

    def to_json(self) -> dict:
        return {
            "length": self.length,
            "x": [float(v) for v in self.segment_bounds()],
            "re": [float(v.real) for v in self.z],
            "im": [float(v.imag) for v in self.z],
        }

    def to_svg(self, width: int = 800, stroke: str = "black",
               stroke_width: float = 1.0, margin: float = 0.05) -> str:
        """Standalone SVG with the viewport fit to the bounding box."""
        re, im = self.z.real, self.z.imag
        x0, x1 = float(re.min()), float(re.max())
        y0, y1 = float(im.min()), float(im.max())
        span = max(x1 - x0, y1 - y0, 1e-9)
        pad = margin * span
        x0, x1 = x0 - pad, x1 + pad
        y0, y1 = y0 - pad, y1 + pad
        scale = width / (x1 - x0)
        height = max(int(round((y1 - y0) * scale)), 1)
        pts = " ".join(
            f"{(r - x0) * scale:.3f},{(y1 - i) * scale:.3f}" for r, i in zip(re, im)
        )
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n'
            f'  <polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{stroke_width}"/>\n</svg>\n'
        )


# ---------------------------------------------------------------------------
# rotation intervals
# ---------------------------------------------------------------------------

@dataclass
class IntervalSeq:
    """Ordered disjoint intervals ``[y_k, y_k + delta)`` of equal width."""

    y: np.ndarray
    delta: float

    def __post_init__(self) -> None:
        self.y = np.asarray(self.y, dtype=float)
        if self.delta <= 0:
            raise ValueError("interval width must be positive")
        if np.any(np.diff(self.y) < self.delta - 1e-15):
            raise ValueError("intervals must be ordered and disjoint")

    @property
    def count(self) -> int:
        return len(self.y)

    def bounds(self) -> np.ndarray:
        """Interleaved endpoints ``y_0, y_0+delta, y_1, ...`` for zone lookup."""
        out = np.empty(2 * self.count)
        out[0::2] = self.y
        out[1::2] = self.y + self.delta
        return out


def _offsets(g: np.ndarray, one_minus: complex) -> tuple[np.ndarray, np.ndarray]:
    """``upper`` and ``lower`` from the curve values ``g`` at the interleaved interval ends.

    With ``g[2k]`` the value at the k-th interval's left end and ``g[2k+1]``
    at its right end, ``upper[k] = lower[k-1] + g[2k]*(1-rot)`` and
    ``lower[k] = upper[k] - g[2k+1]*(1-rot)``: one running sum over the
    interleaved steps, added in the same order.
    """
    steps = _scalar_product(g, one_minus)
    np.negative(steps[1::2], out=steps[1::2])
    sums = np.cumsum(steps)
    return sums[0::2], sums[1::2]


def _scalar_product(z: np.ndarray, w: complex) -> np.ndarray:
    """``z * w`` rounded exactly as the scalar complex product rounds it.

    numpy's vectorized complex multiply can differ from the scalar product
    in the last ulp; separately rounded real multiplies and adds reproduce
    the scalar product, so the offsets match the one-term-at-a-time recursion.
    """
    out = np.empty(len(z), dtype=complex)
    out.real = z.real * w.real - z.imag * w.imag
    out.imag = z.real * w.imag + z.imag * w.real
    return out


def breaking_operator(curve: PLCurve, phi: float, intervals: IntervalSeq) -> PLCurve:
    """Rotate the curve pieces over the intervals by ``phi``, keeping continuity.

    The output lives on the same domain, is continuous and keeps unit speed;
    the interval endpoints are inserted as new breakpoints.  One stable sort
    of the old breakpoints followed by the interval ends merges the two,
    which need not be sorted against each other (nor the ends among
    themselves, to the ulp): an end's segment is the count of old
    breakpoints before it, so each end is evaluated once, and a parameter's
    zone is the running count of ends.  Old vertices are carried as they are.

    The output's ``increment`` is ``sup |output - curve|``, bit for bit the
    maximum of the modulus over both curves' breakpoints and the right end:
    the difference is affine in between.  At the kept parameters both curves
    are at hand; at the old breakpoints that the merge tolerance drops and at
    the right end, where the output is a limit, both are evaluated.
    """
    curve.require_unit_speed()
    if not -pi <= phi < pi:
        phi = angle_to_symmetric(phi)
    y = intervals.y
    if y[0] < 0.0 or y[-1] + intervals.delta > curve.length * (1 + 1e-12):
        raise IntervalOutOfRange("rotation intervals must lie inside the curve domain")
    rot = complex(np.cos(phi), np.sin(phi))
    old = curve.n_segments

    # an old breakpoint sorts before an equal end, so it counts as before it;
    # each temporary is released once used, which keeps the peak memory down
    bounds = intervals.bounds()
    params = np.concatenate([curve.x, bounds])
    order = np.argsort(params, kind="stable")
    params = params[order]
    is_end = order >= old
    at_end = np.flatnonzero(is_end)
    # the old breakpoints before an end, less one, index its segment; a piece
    # ending at the domain's right end may round above it
    g = curve._on_segments(np.minimum(params[at_end], curve.length),
                           at_end - np.arange(len(at_end)) - 1)
    by_end = np.empty_like(g)
    by_end[order[at_end] - old] = g
    del order
    upper, lower = _offsets(by_end, 1.0 - rot)
    del by_end
    values = np.empty(len(params), dtype=complex)
    values[is_end] = g
    values[~is_end] = curve.z[:-1]
    del g, at_end
    # zone 0 precedes every interval; odd zones are rotated, even translated
    zone = np.cumsum(is_end)
    del is_end

    # of equal parameters the last one is kept: its zone counts every end equal to it
    kept = np.flatnonzero(np.append(params[1:] != params[:-1], True) & (params < curve.length))
    # merge numerically coincident breakpoints: a zero-length segment carries
    # no geometry but fabricates spurious self-contacts downstream
    merge_tol = 1e-13 * max(1.0, curve.length)
    close = np.concatenate([[False], np.diff(params[kept]) <= merge_tol])
    dropped = kept[close]
    kept = kept[~close]
    if len(kept) > 1 and params[kept[-1]] > curve.length - merge_tol:
        dropped = np.append(dropped, kept[-1])
        kept = kept[:-1]
    # a parameter's old segment is its position less the ends up to it; the
    # increment needs the dropped parameters that are old breakpoints
    slot = dropped - zone[dropped]
    old_dropped = curve.x[slot] == params[dropped]
    dropped, slot = params[dropped[old_dropped]], slot[old_dropped]
    new_x = params[kept]
    del params
    # the right end is a limit of the last segment, evaluated as evaluate() does
    values = np.append(values[kept], curve._on_segments(curve.length, old - 1))
    zone = np.append(zone[kept], np.count_nonzero(bounds <= curve.length))
    del kept
    out = values.copy()
    inside = (zone % 2) == 1
    k_in = (zone[inside] - 1) // 2
    out[inside] = values[inside] * rot + upper[k_in]
    after = (zone > 0) & ~inside
    k_after = zone[after] // 2 - 1
    out[after] = values[after] + lower[k_after]
    del zone, inside, k_in, after, k_after
    rotated = PLCurve(curve.length, new_x, out)
    rotated.increment = _increment(curve, rotated, values, dropped, slot)
    return rotated


def _increment(curve: PLCurve, rotated: PLCurve, values: np.ndarray,
               dropped: np.ndarray, slot: np.ndarray) -> float:
    """``sup |rotated - curve|`` over the breakpoints of both curves and the right end.

    ``values`` holds ``curve`` at the breakpoints of ``rotated``, where
    ``rotated.z`` holds ``rotated``, and is overwritten.  ``dropped`` are
    the breakpoints ``curve.x[slot]`` that ``rotated`` does not have; there
    and at the right end both curves are evaluated on the segments
    ``evaluate`` picks.
    """
    np.subtract(rotated.z[:-1], values[:-1], out=values[:-1])
    kinks = np.append(dropped, curve.length)
    new_at = np.searchsorted(rotated.x, kinks, side="right") - 1
    elsewhere = (rotated._on_segments(kinks, new_at)
                 - curve._on_segments(kinks, np.append(slot, curve.n_segments - 1)))
    return float(max(np.max(np.abs(values[:-1])), np.max(np.abs(elsewhere))))


# ---------------------------------------------------------------------------
# interval families and angle sequences along a renormalization trace
# ---------------------------------------------------------------------------

def _require_budget(count: int, holder: str, unit: str) -> None:
    if count > PIECE_BUDGET:
        raise BudgetExceeded(f"{holder} may hold {count} {unit}, "
                             f"more than the budget of {PIECE_BUDGET}")


def _require_floors(trace: InductionTrace, n: int) -> None:
    # a tower's height is its symbol's row sum of the cocycle product
    _require_budget(sum(map(sum, trace.cocycle[n])), f"the level-{n} towers", "floors")


def rokhlin_towers(trace: InductionTrace, n: int) -> list[list[int]]:
    """Exact floors of the level-``n`` Rokhlin towers, one sorted list per symbol.

    Entry ``s`` lists the offsets ``T^k x - x`` (numerators) of the level-``n``
    subinterval of ``s`` under the original exchange ``T``, for ``k`` below
    its return time: each image is a rigid translate, so the offsets hold for
    every ``x`` of the subinterval.  Level 0 is ``[0]`` for every symbol, and
    each induction step stacks two towers into the loser's.  The floor count
    is the entry sum of ``trace.cocycle[n]``; above ``PIECE_BUDGET`` it raises
    ``BudgetExceeded`` before anything is built.  A level outside
    ``0..trace.n_steps`` raises ``InvalidInput``.
    """
    if not 0 <= n <= trace.n_steps:
        raise InvalidInput(f"level {n} outside 0..{trace.n_steps}")
    _require_floors(trace, n)
    towers = [[0] for _ in range(trace.d)]
    for k in range(n):
        _stack_towers(trace, towers, k)
    return towers


def _stack_towers(trace: InductionTrace, towers: list[list[int]], k: int) -> None:
    """Take the level-``k`` towers to level ``k + 1``, in place.

    A point of the new loser subinterval climbs the tower of the symbol it
    starts in, lands (translated by that symbol's level-``k`` translation)
    in the other one and climbs that: the loser then the winner for type 0,
    the winner then the loser for type 1.  Both runs are sorted, so the sort
    is one linear merge.
    """
    step = trace.steps[k]
    first, second = ((step.loser, step.winner) if step.type_eps == 0
                     else (step.winner, step.loser))
    shift = trace.states[k].upsilon_num[first]
    floors = towers[first] + [shift + o for o in towers[second]]
    floors.sort()
    towers[step.loser] = floors


def breaking_intervals(trace: InductionTrace, n: int, towers: list[list[int]]) -> IntervalSeq:
    """Forward orbit of the level-``n`` removed piece until its first return.

    The removed piece is the right part of the level ``n-1`` interval, inside
    the subinterval of the level ``n-1`` top row's last symbol.  Its first
    return to the level ``n-1`` interval already lies in the level-``n`` one,
    so its images are the floors of that symbol's tower in ``towers``, the
    level ``n-1`` ones from ``rokhlin_towers``, shifted to the piece's left
    end.  The pieces are checked on exact numerators: pairwise disjoint, and
    none straddles a removed zone or a continuity boundary of the exchange.
    A level outside ``1..trace.n_steps`` raises ``InvalidInput``.
    """
    if n < 1 or n > trace.n_steps:
        raise InvalidInput(f"level {n} outside 1..{trace.n_steps}")
    symbol = trace.states[n - 1].perm.top[-1]
    floors = towers[symbol]
    if len(floors) != sum(trace.cocycle[n - 1][symbol]):
        raise InvalidInput(f"the towers given are not those of level {n - 1}")
    den = trace.initial.denominator
    total_next = trace.states[n].total_num
    delta_num = trace.states[n - 1].total_num - total_next
    # the removed zones [total_m, total_m-1) for m <= n, then the exchange's
    # cuts, each taken relative to the piece's left end as the floors are
    edges = ([state.total_num for state in trace.states[:n + 1]]
             + list(trace.initial.e0_num[1:-1]))
    _check_pieces(floors, delta_num, [edge - total_next for edge in edges])
    return IntervalSeq(_to_floats(total_next, floors, den), delta_num / den)


def _to_floats(shift: int, nums: Sequence[int], den: int) -> np.ndarray:
    """``float(Fraction(shift + num, den))`` for each of the sorted ``nums``.

    Every ``shift + num`` must be non-negative.  ``int / int`` is correctly
    rounded.  So is ``float(int)``, and for ``den = 2**b`` the scaling by
    ``2**-b`` is exact while the quotients stay normal doubles: ``b <= 1022``
    and every numerator below ``2**1024``.
    """
    scaled = den & (den - 1) == 0 and den <= 1 << 1022 and shift + nums[-1] < 1 << 1024
    if not scaled:
        return np.fromiter(((shift + n) / den for n in nums), float, len(nums))
    return (np.fromiter(map(float, map(shift.__add__, nums)), float, len(nums))
            * 2.0 ** (1 - den.bit_length()))


def _check_pieces(lefts: Sequence[int], width: int, edges: Sequence[int]) -> None:
    """The pieces ``[a, a + width)`` are pairwise disjoint and no edge is inside one.

    ``lefts`` must be sorted.  Only the last piece starting below an edge can
    hold it in its interior, so each edge needs one bisection.  A piece
    partly overlaps a zone ``[lo, hi)`` exactly when ``lo`` or ``hi`` is
    inside it, and crosses a continuity boundary when that cut is.
    """
    for a, b in zip(lefts, lefts[1:]):
        if b - a < width:
            raise AssertionError("orbit pieces overlap")
    for edge in edges:
        k = bisect_left(lefts, edge) - 1
        if k >= 0 and lefts[k] + width > edge:
            raise AssertionError("orbit piece straddles a removed zone or a cut")


@dataclass
class ThetaSeq:
    """Torus rotation coordinates pushed through the renormalization cocycle."""

    entries: list[np.ndarray]
    image_last: list[int]

    @property
    def depth(self) -> int:
        return len(self.entries) - 1

    def distances(self) -> np.ndarray:
        return np.array([torus_distance_to_zero(t) for t in self.entries])

    def breaking_angle(self, n: int) -> float:
        """Rotation applied at level ``n+1``, reduced into ``[-pi, pi)``.

        This is the coordinate of the level-``n`` rotation vector indexed by
        the final bottom-row symbol of the level-``n`` permutation.
        """
        return angle_to_symmetric(float(self.entries[n][self.image_last[n]]))


ThetaLike = Union[Sequence[float], Sequence[Fraction], np.ndarray]


def theta_sequence(trace: InductionTrace, theta: ThetaLike, depth: int) -> ThetaSeq:
    """Push ``theta`` through the cocycle by a running exact lift, reduced mod ``2*pi``.

    Each step's factor ``I + E[loser, winner]`` moves the exact lift of
    ``theta`` by one rational add, ``lift[loser] += lift[winner]``, so each
    level reduces just that one coordinate; the others carry over.  Every
    entry equals ``torus_project(trace.cocycle[n], theta)`` bit for bit.
    Float coordinates are consumed as the dyadic rationals they are, exact
    rational ones exactly, so deep levels lose no precision to the
    reduction.  A wrong number of coordinates, or a depth outside the trace,
    raises ``InvalidInput``.
    """
    if not 0 <= depth <= trace.n_steps:
        raise InvalidInput(f"trace holds {trace.n_steps} steps, need {depth}")
    if len(theta) != trace.initial.d:
        raise InvalidInput(f"rotation vector has {len(theta)} entries, "
                           f"the exchange has {trace.initial.d} symbols")
    lifts = [t if isinstance(t, Fraction) else Fraction(float(t)) for t in theta]
    point = torus_project(trace.cocycle[0], lifts)
    entries = [point]
    for step in trace.steps[:depth]:
        lifts[step.loser] += lifts[step.winner]
        point = point.copy()
        point[step.loser] = reduce_mod_tau(lifts[step.loser])
        entries.append(point)
    image_last = [trace.image_last_symbol(n) for n in range(depth)]
    return ThetaSeq(entries, image_last)


def segment_bound(trace: InductionTrace, depth: int) -> int:
    """Most segments the level-``depth`` curve can have, read off the cocycle.

    Level ``k`` rotates as many pieces as ``breaking_intervals`` finds, the
    return time of the level-``k-1`` top row's last subinterval (a row sum of
    ``trace.cocycle[k-1]``), and each rotated piece adds at most two
    breakpoints to the one segment of level 0.
    """
    return 1 + 2 * sum(sum(trace.cocycle[k][trace.states[k].perm.top[-1]])
                       for k in range(depth))


def curve_levels(trace: InductionTrace, seq: ThetaSeq, curve: PLCurve, level: int,
                 depth: int) -> Iterator[PLCurve]:
    """Yield the curves of levels ``level+1..depth``, continuing ``curve`` of level ``level``.

    Each is the one before it with its level's rotation, at the angle ``seq``
    holds, over the intervals read off the Rokhlin towers, which are carried
    one induction step per level.  Each carries its increment over the one
    before (``PLCurve.increment``), so a caller may keep only the curves it
    reads.  Before any level is built, a depth beyond the trace raises
    ``InvalidInput``, and one whose curve could hold more than
    ``PIECE_BUDGET`` segments, or whose towers more than ``PIECE_BUDGET``
    floors, raises ``BudgetExceeded``.
    """
    if depth > trace.n_steps:
        raise InvalidInput(f"level {depth} outside 1..{trace.n_steps}")
    _require_budget(segment_bound(trace, depth), f"the level-{depth} curve", "segments")
    if level >= depth:
        return
    _require_floors(trace, depth - 1)
    towers = rokhlin_towers(trace, level)
    for n in range(level + 1, depth + 1):
        intervals = breaking_intervals(trace, n, towers)
        curve = breaking_operator(curve, seq.breaking_angle(n - 1), intervals)
        yield curve
        if n < depth:
            _stack_towers(trace, towers, n - 1)


def breaking_sequence(trace: InductionTrace, theta: ThetaLike, depth: int) -> list[PLCurve]:
    """The curve sequence: identity parametrization, then one rotation per level."""
    curves = [PLCurve.identity(trace.initial.total)]
    curves.extend(curve_levels(trace, theta_sequence(trace, theta, depth), curves[0], 0, depth))
    return curves
