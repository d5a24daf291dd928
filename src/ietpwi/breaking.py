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
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import (BudgetExceeded, DomainMismatch, IntervalOutOfRange, InvalidInput,
                     NonUnitSpeed, OutOfDomain)
from .iet import PIECE_BUDGET, piece_orbit
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
    """

    length: float
    x: np.ndarray
    z: np.ndarray

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
        nxt = idx + 1
        x0, z0 = self.x[idx], self.z[idx]
        # the tangents of the indexed segments only, each formed as tangents() forms it
        right = np.where(nxt < self.n_segments, self.x.take(nxt, mode="clip"), self.length)
        out = z0 + (q - x0) * ((self.z[nxt] - z0) / (right - x0))
        return out if np.ndim(params) else out[0]

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


def sup_distance(a: PLCurve, b: PLCurve) -> float:
    """Exact supremum distance between two curves on a shared domain.

    The difference of two piecewise-linear maps is piecewise linear, so the
    supremum of its modulus is attained at a breakpoint of the merged
    partition; no sampling is involved.
    """
    if abs(a.length - b.length) > 1e-12 * max(1.0, a.length):
        raise DomainMismatch(f"domain lengths differ: {a.length} vs {b.length}")
    merged = np.union1d(a.segment_bounds(), b.segment_bounds())
    merged = merged[merged <= min(a.length, b.length)]
    return float(np.max(np.abs(a.evaluate(merged) - b.evaluate(merged))))


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


def breaking_offsets(curve: PLCurve, phi: float,
                     intervals: IntervalSeq) -> tuple[np.ndarray, np.ndarray]:
    """Translation corrections that keep the rotated curve continuous.

    ``upper[k]`` is added to the rotated piece over the k-th interval and
    ``lower[k]`` to the translated piece after it; both follow the coupled
    recursion seeded by the curve values at the interval endpoints.
    """
    rot = complex(np.cos(phi), np.sin(phi))
    one_minus = 1.0 - rot
    g_left = curve.evaluate(intervals.y)
    # a piece ending at the domain's right end may round above it
    g_right = curve.evaluate(np.minimum(intervals.y + intervals.delta, curve.length))
    # upper[k] = lower[k-1] + g_left[k]*(1-rot), lower[k] = upper[k] - g_right[k]*(1-rot):
    # one running sum over the interleaved steps, added in the same order
    steps = np.empty(2 * intervals.count, dtype=complex)
    steps[0::2] = _scalar_product(g_left, one_minus)
    steps[1::2] = -_scalar_product(g_right, one_minus)
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
    the interval endpoints are inserted as new breakpoints.
    """
    curve.require_unit_speed()
    if not -pi <= phi < pi:
        phi = angle_to_symmetric(phi)
    y = intervals.y
    if y[0] < 0.0 or y[-1] + intervals.delta > curve.length * (1 + 1e-12):
        raise IntervalOutOfRange("rotation intervals must lie inside the curve domain")

    upper, lower = breaking_offsets(curve, phi, intervals)
    rot = complex(np.cos(phi), np.sin(phi))
    bounds = intervals.bounds()

    new_x = np.union1d(curve.x, bounds[bounds < curve.length])
    # merge numerically coincident breakpoints: a zero-length segment carries
    # no geometry but fabricates spurious self-contacts downstream
    merge_tol = 1e-13 * max(1.0, curve.length)
    keep = np.concatenate([[True], np.diff(new_x) > merge_tol])
    new_x = new_x[keep]
    if len(new_x) > 1 and new_x[-1] > curve.length - merge_tol:
        new_x = new_x[:-1]
    params = np.append(new_x, curve.length)
    values = curve.evaluate(params)
    # zone 0 precedes every interval; odd zones are rotated, even translated
    zone = np.searchsorted(bounds, params, side="right")
    out = values.copy()
    inside = (zone % 2) == 1
    k_in = (zone[inside] - 1) // 2
    out[inside] = values[inside] * rot + upper[k_in]
    after = (zone > 0) & ~inside
    k_after = zone[after] // 2 - 1
    out[after] = values[after] + lower[k_after]
    return PLCurve(curve.length, new_x, out)


# ---------------------------------------------------------------------------
# interval families and angle sequences along a renormalization trace
# ---------------------------------------------------------------------------

def breaking_intervals(trace: InductionTrace, n: int) -> IntervalSeq:
    """Forward orbit of the level-``n`` removed piece until its first return.

    The removed piece is the right part of the level ``n-1`` interval; its
    images under the original exchange are translated rigidly (each lies in
    one continuity piece) and are collected until the piece re-enters the
    level-``n`` interval, then sorted by position.  Runs on exact integer
    numerators.  A level outside ``1..trace.n_steps`` raises ``InvalidInput``.
    """
    if n < 1 or n > trace.n_steps:
        raise InvalidInput(f"level {n} outside 1..{trace.n_steps}")
    den = trace.initial.denominator
    total_next = trace.states[n].total_num
    delta_num = trace.states[n - 1].total_num - total_next
    lefts = piece_orbit(trace.initial, total_next, delta_num, total_next)
    lefts.sort()
    _check_removed_zones(lefts, delta_num,
                         [(trace.states[m].total_num, trace.states[m - 1].total_num)
                          for m in range(1, n + 1)])
    # int / int is correctly rounded, so this equals float(Fraction(a, den))
    y = np.array([a / den for a in lefts])
    return IntervalSeq(y, delta_num / den)


def _check_removed_zones(lefts: Sequence[int], width: int,
                         zones: Sequence[tuple[int, int]]) -> None:
    """Every piece ``[a, a + width)`` lies inside or outside each zone ``[lo, hi)``.

    ``lefts`` must be sorted with pieces pairwise disjoint.  A piece that
    partly overlaps a zone contains ``lo`` or ``hi`` in its interior, and only
    the last piece starting below an edge can contain it, so each edge needs
    one bisection and one overlap test.
    """
    for a, b in zip(lefts, lefts[1:]):
        if b - a < width:
            raise AssertionError("orbit pieces overlap")
    for lo, hi in zones:
        for edge in (lo, hi):
            k = bisect_left(lefts, edge) - 1
            if k < 0:
                continue
            a = lefts[k]
            overlap = min(a + width, hi) - max(a, lo)
            if 0 < overlap < width:
                raise AssertionError("orbit piece straddles a removed zone")


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

    Level ``k`` rotates ``breaking_intervals(trace, k).count`` pieces, the
    return time of the level-``k-1`` top row's last subinterval (a row sum of
    ``trace.cocycle[k-1]``), and each rotated piece adds at most two
    breakpoints to the one segment of level 0.
    """
    return 1 + 2 * sum(sum(trace.cocycle[k][trace.states[k].perm.top[-1]])
                       for k in range(depth))


def curve_levels(trace: InductionTrace, seq: ThetaSeq, curves: Sequence[PLCurve],
                 depth: int) -> Iterator[PLCurve]:
    """Continue ``curves`` (levels ``0..k``), yielding the curves of levels ``k+1..depth``.

    Each is the one before it with its level's rotation, at the angle ``seq``
    holds.  ``curves`` is read when iteration starts, so the caller may
    extend it with what this yields.  Before any level is built, a depth
    beyond the trace raises ``InvalidInput``, and one whose curve could hold
    more than ``PIECE_BUDGET`` segments raises ``BudgetExceeded``.
    """
    if depth > trace.n_steps:
        raise InvalidInput(f"level {depth} outside 1..{trace.n_steps}")
    bound = segment_bound(trace, depth)
    if bound > PIECE_BUDGET:
        raise BudgetExceeded(f"the level-{depth} curve may hold {bound} segments, "
                             f"more than the budget of {PIECE_BUDGET}")
    curve = curves[-1]
    for n in range(len(curves), depth + 1):
        intervals = breaking_intervals(trace, n)
        curve = breaking_operator(curve, seq.breaking_angle(n - 1), intervals)
        yield curve


def breaking_sequence(trace: InductionTrace, theta: ThetaLike, depth: int) -> list[PLCurve]:
    """The curve sequence: identity parametrization, then one rotation per level."""
    curves = [PLCurve.identity(trace.initial.total)]
    curves.extend(curve_levels(trace, theta_sequence(trace, theta, depth), curves, depth))
    return curves
