"""Reference implementations the rotation operator and the interval families are tested against."""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

import numpy as np

from ietpwi.breaking import (IntervalSeq, PLCurve, _shifts, _to_floats, curve_levels,
                             theta_sequence)
from ietpwi.rauzy import InductionTrace


def sup_distance(a: PLCurve, b: PLCurve) -> float:
    """Exact supremum distance between two curves on a shared domain.

    The difference of two piecewise-linear maps is piecewise linear, so the
    supremum of its modulus is attained at a breakpoint of the merged
    partition: both curves are evaluated over the union of their breakpoints
    and the right end.
    """
    assert abs(a.length - b.length) <= 1e-12 * max(1.0, a.length), "domain lengths differ"
    merged = np.union1d(a.segment_bounds(), b.segment_bounds())
    merged = merged[merged <= min(a.length, b.length)]
    return float(np.max(np.abs(a.evaluate(merged) - b.evaluate(merged))))


def measured_sequence(trace: InductionTrace, theta, depth: int) -> list[PLCurve]:
    """The curves of ``breaking_sequence``, each with its increment measured."""
    start = PLCurve.identity(trace.initial.total)
    return [start, *curve_levels(trace, theta_sequence(trace, theta, depth), start, 0, depth,
                                 measure=True)]


def arc_length(curve: PLCurve) -> float:
    """Sum of the chord lengths, the curve's arc length."""
    return float(np.sum(np.abs(np.diff(curve.z))))


def breaking_offsets(curve: PLCurve, phi: float,
                     intervals: IntervalSeq) -> tuple[np.ndarray, np.ndarray]:
    """Translation corrections that keep the rotated curve continuous.

    ``upper[k]`` is added to the rotated piece over the k-th interval and
    ``lower[k]`` to the translated piece after it, from the curve evaluated
    at every interval end and the operator's running sum.
    """
    rot = complex(np.cos(phi), np.sin(phi))
    ends = intervals.bounds()
    # a piece ending at the domain's right end may round above it
    ends[1::2] = np.minimum(ends[1::2], curve.length)
    shifts = _shifts(curve.evaluate(ends), 0, 1.0 - rot, complex(-0.0, -0.0))
    return shifts[1::2], shifts[2::2]


def list_towers(trace: InductionTrace, n: int) -> list[list[int]]:
    """The level-``n`` Rokhlin towers as lists of exact offsets in return-time order.

    Each induction step puts the tower the loser's points climb first, then
    the other one translated by the first symbol's translation, into the
    loser's.
    """
    towers = [[0] for _ in range(trace.d)]
    for k in range(n):
        step = trace.steps[k]
        first, second = ((step.loser, step.winner) if step.type_eps == 0
                         else (step.winner, step.loser))
        shift = trace.states[k].upsilon_num[first]
        towers[step.loser] = towers[first] + [shift + o for o in towers[second]]
    return towers


def check_lefts(lefts: Sequence[int], width: int, edges: Sequence[int]) -> None:
    """The sorted pieces ``[a, a + width)`` are disjoint and no edge is inside one."""
    for a, b in zip(lefts, lefts[1:]):
        if b - a < width:
            raise AssertionError("orbit pieces overlap")
    for edge in edges:
        k = bisect_left(lefts, edge) - 1
        if k >= 0 and lefts[k] + width > edge:
            raise AssertionError("orbit piece straddles a removed zone or a cut")


def list_intervals(trace: InductionTrace, n: int) -> IntervalSeq:
    """The level-``n`` rotation intervals from ``list_towers``, checked and converted exactly.

    The tower read is in return-time order, so its floors are sorted first.
    The family is proven on the exact floors, so it is built as
    ``breaking_intervals`` builds it: its float ends may round equal where
    the width is below their spacing.
    """
    symbol = trace.states[n - 1].perm.top[-1]
    floors = sorted(list_towers(trace, n - 1)[symbol])
    total_next = trace.states[n].total_num
    delta_num = trace.states[n - 1].total_num - total_next
    edges = ([state.total_num for state in trace.states[:n + 1]]
             + list(trace.initial.e0_num[1:-1]))
    check_lefts(floors, delta_num, [edge - total_next for edge in edges])
    den = trace.initial.denominator
    return IntervalSeq._proven(_to_floats(total_next, floors, den), delta_num / den)
