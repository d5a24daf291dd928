"""Reference implementations that the rotation operator is tested against."""

from __future__ import annotations

import numpy as np

from ietpwi.breaking import IntervalSeq, PLCurve, _offsets


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
    return _offsets(curve.evaluate(ends), 1.0 - rot)
