"""Unit-speed piecewise-linear curves and the segment-rotation operator.

A curve is stored as strictly increasing breakpoints with complex vertices;
between breakpoints it is affine with a unit-modulus tangent, so its arc
length equals its parameter length.  The rotation operator takes an ordered
family of equal-width subintervals, rigidly rotates the curve pieces over
them by a fixed angle and translates the pieces in between so the result
stays continuous; iterating it along a renormalization trace with angles
read off the torus cocycle produces the curve sequence that converges to an
invariant curve of an adapted planar piecewise isometry.

The intervals of each level are the floors of one exact Rokhlin tower (Veech
1982), kept in return-time order.  A floor is stored as the visit counts of
a return-word prefix (int32, 16 bytes at ``d = 4``); its exact offset is
those counts times the level-0 translation numerators.  The left ends are
rounded once from exact int64 limb sums of each translation's top 94 bits,
added as doubles by Dekker's Fast2Sum (Brent and Zimmermann, *Modern
Computer Arithmetic*, treat rounding from limbs); an end whose rounding the
cut-off bits leave open, and every end over a denominator that is not a
power of two, is converted exactly.  So every interval is the one exact
arithmetic gives, bit for bit.  Floats then decide what they can and exact
integers the rest, in the manner of Shewchuk's adaptive predicates: correct
rounding is monotone, so one sort of the rounded ends orders the floors of
the tower a level reads but for ends that round equal, which are ordered on
Python ints; and the pieces are checked on those ends against the edges the
towers carry, every gap or edge within four spacings of the largest value
compared being decided on Python ints, in one conversion.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite, lcm, ldexp, pi, tau, ulp
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import (BudgetExceeded, IntervalOutOfRange, InvalidInput, NonUnitSpeed,
                     OutOfDomain)
from .iet import PIECE_BUDGET
from .rauzy import InductionTrace, _mod_tau, torus_distance_to_zero, torus_project

#: per-segment tolerance for the unit-speed invariant, per unit of domain length
TOL_UNIT_SPEED = 1e-12
#: floors converted, or curve parameters placed, at a time: temporaries stay small
_BLOCK = 1 << 14


def _speed_defect(chords: np.ndarray, widths: np.ndarray) -> float:
    """Largest ``| |chord| - width |`` over the segments."""
    lengths = np.abs(chords)
    lengths -= widths
    return float(np.maximum.reduce(np.abs(lengths, out=lengths)))


def _require_unit_speed(defect: float, length: float) -> None:
    """Raise ``NonUnitSpeed`` unless a curve on ``[0, length)`` with this speed defect passes.

    The tolerance is ``TOL_UNIT_SPEED`` per unit of domain length (and never
    less than it), as the rounding of the vertices grows with it.  A NaN
    defect, from a non-finite vertex, fails.
    """
    tol = TOL_UNIT_SPEED * max(1.0, length)
    if not defect <= tol:
        raise NonUnitSpeed(f"unit-speed defect {defect:.3e} exceeds {tol:.3g}")


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
            raise InvalidInput("need one vertex per breakpoint plus the right-end value")
        if not len(self.x) or self.x[0] != 0.0:
            raise InvalidInput("breakpoints must start at 0")

    @classmethod
    def identity(cls, length: float) -> "PLCurve":
        return cls(length, np.array([0.0]), np.array([0.0 + 0.0j, length + 0.0j]))

    @property
    def n_segments(self) -> int:
        return len(self.x)

    def segment_bounds(self) -> np.ndarray:
        return np.append(self.x, self.length)

    def segment_lengths(self) -> np.ndarray:
        widths = np.empty(len(self.x))
        np.subtract(self.x[1:], self.x[:-1], out=widths[:-1])
        widths[-1] = self.length - self.x[-1]
        return widths

    def tangents(self) -> np.ndarray:
        """Unit tangent of each segment."""
        return np.diff(self.z) / self.segment_lengths()

    def evaluate(self, params: Union[float, Sequence[float], np.ndarray]) -> np.ndarray:
        """Vectorized evaluation; accepts the right endpoint as a limit value."""
        q = np.atleast_1d(np.asarray(params, dtype=float))
        if (q < 0.0).any() or (q > self.length).any():
            raise OutOfDomain("parameter outside [0, length]")
        # x[0] is 0, so each parameter of the domain (and NaN, sorted last) has a segment
        idx = self.x.searchsorted(q, side="right") - 1
        out = self._on_segments(q, idx)
        return out if np.ndim(params) else out[0]

    def _on_segments(self, q: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Value at each parameter ``q[k]`` on the affine piece of segment ``idx[k]``."""
        nxt = idx + 1
        x0, z0 = self.x.take(idx), self.z.take(idx)
        # the tangents of the indexed segments only, each formed as tangents() forms it
        width = np.where(nxt < self.n_segments, self.x.take(nxt, mode="clip"), self.length)
        width -= x0
        value = self.z.take(nxt)
        value -= z0
        value /= width
        del width
        value *= q - x0
        value += z0
        return value

    def cumulative_arc_length(self) -> np.ndarray:
        """Arc length from 0 to each breakpoint (and to the right end)."""
        return np.concatenate([[0.0], np.cumsum(np.abs(np.diff(self.z)))])

    def segment_blocks(self, overlap: int = 0) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """``(start, chords, widths)`` of the segments, ``_BLOCK`` (plus ``overlap``) at a time.

        A block holds the segments ``start`` to ``start + _BLOCK + overlap -
        1`` (fewer at the end): their chords ``z[i+1] - z[i]`` and widths, so
        consecutive blocks share ``overlap`` segments and no array is longer
        than a block.
        """
        for start in range(0, self.n_segments, _BLOCK):
            # formed in a call, so that no block stays referenced between yields
            yield (start, *self._segments(start, min(start + _BLOCK + overlap, self.n_segments)))

    def _segments(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Chords and widths of the segments ``start..stop-1``."""
        widths = np.empty(stop - start)
        np.subtract(self.x[start + 1:stop], self.x[start:stop - 1], out=widths[:-1])
        widths[-1] = (self.length if stop == self.n_segments else self.x[stop]) - self.x[stop - 1]
        return np.subtract(self.z[start + 1:stop + 1], self.z[start:stop]), widths

    def unit_speed_defect(self) -> float:
        """Largest deviation of chord length from parameter length (NaN if any is NaN)."""
        return float(np.max([_speed_defect(chords, widths)
                             for _, chords, widths in self.segment_blocks()]))

    def require_unit_speed(self) -> None:
        """Raise ``NonUnitSpeed`` unless every chord length is its parameter length."""
        _require_unit_speed(self.unit_speed_defect(), self.length)

    # -- exports ----------------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("x,re,im\n")
        bounds = self.segment_bounds()
        for xv, zv in zip(bounds, self.z):
            buf.write(f"{float(xv)!r},{float(zv.real)!r},{float(zv.imag)!r}\n")
        return buf.getvalue()

    def to_svg(self) -> str:
        """Standalone SVG, 800 pixels wide, with the viewport fit to the bounding box."""
        width = 800
        re, im = self.z.real, self.z.imag
        x0, x1 = float(re.min()), float(re.max())
        y0, y1 = float(im.min()), float(im.max())
        span = max(x1 - x0, y1 - y0, 1e-9)
        pad = 0.05 * span
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
            f'  <polyline points="{pts}" fill="none" stroke="black" '
            f'stroke-width="1.0"/>\n</svg>\n'
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
        if not 0 < self.delta < np.inf:
            raise InvalidInput(f"interval width must be positive and finite, got {self.delta}")
        if not len(self.y):
            return
        first, last = float(self.y[0]), float(self.y[-1])
        if not (isfinite(first) and isfinite(last)):
            raise InvalidInput("interval ends must be finite")
        # rounded touching ends may sit two spacings of the largest (outer) end
        # too close; the slack is at least 1e-15, at most half of the width
        top = max(abs(first), abs(last)) + self.delta
        slack = min(max(1e-15, 2.0 * ulp(top)), 0.5 * self.delta)
        if not (self.y[1:] - self.y[:-1] >= self.delta - slack).all():
            raise InvalidInput("interval ends must be finite" if not np.isfinite(self.y).all()
                               else "intervals must be ordered and disjoint")

    @classmethod
    def _proven(cls, y: np.ndarray, delta: float) -> "IntervalSeq":
        """The family of the float ends ``y``, proven finite, ordered and disjoint on exact values."""
        seq = cls.__new__(cls)
        seq.y, seq.delta = y, delta
        return seq

    @property
    def count(self) -> int:
        return len(self.y)

    def bounds(self) -> np.ndarray:
        """Interleaved endpoints ``y_0, y_0+delta, y_1, ...`` for zone lookup."""
        out = np.empty(2 * self.count)
        out[0::2] = self.y
        np.add(self.y, self.delta, out=out[1::2])
        return out


def _shifts(values: np.ndarray, first: int, one_minus: complex,
            carry: complex) -> np.ndarray:
    """Entries ``first..first + len(values)`` of the table ``[-0, upper_0, lower_0, upper_1, ...]``.

    ``values[r - first]`` is the curve at the interleaved end ``r``: with
    ``v[2k]`` the value at the k-th interval's left end and ``v[2k+1]`` at
    its right end, ``upper[k] = lower[k-1] + v[2k]*(1-rot)`` and ``lower[k]
    = upper[k] - v[2k+1]*(1-rot)``: one running sum over the interleaved
    steps, added in the same order.  ``carry`` is entry ``first``, so ranges
    taken in turn, each from the last entry of the one before, give the
    whole table bit for bit; entry 0 is ``-0.0``, the shift of zone 0 and
    the identity of floating-point addition.  Each step's product is rounded
    as the scalar complex product rounds it (numpy's vectorized complex
    multiply can differ from it in the last ulp), from separately rounded
    real multiplies and adds.
    """
    table = np.empty(len(values) + 1, dtype=complex)
    table[0] = carry
    re, im = values.real, values.imag
    steps = table[1:]
    out = steps.real
    np.multiply(re, one_minus.real, out=out)
    out -= im * one_minus.imag
    out = steps.imag
    np.multiply(im, one_minus.real, out=out)
    out += re * one_minus.imag
    # a right end, of odd interleaved index, steps down
    down = steps[(first + 1) % 2::2]
    np.negative(down, out=down)
    return np.add.accumulate(table, out=table)


def breaking_operator(curve: PLCurve, phi: float, intervals: IntervalSeq) -> PLCurve:
    """Rotate the curve pieces over the intervals by ``phi``, keeping continuity.

    The output lives on the same domain, is continuous and keeps unit speed;
    the interval endpoints are inserted as new breakpoints.  A non-finite
    angle or an empty family raises ``InvalidInput``, and a curve off unit
    speed ``NonUnitSpeed`` (before ``IntervalOutOfRange``).

    Merge: the ``2m`` interval ends are sorted once, stably (they need not
    be sorted to the ulp).  The old breakpoints are then taken ``_BLOCK`` at
    a time with the ends a search puts among them (all in the first and last
    block), and one stable sort of those two sorted runs merges them, an old
    breakpoint before an equal end (``_merge``).  Each block, merged once, is
    done in one pass: it checks its unit-speed defect from its chords and
    widths, evaluates its ends (the last block also the right end, a limit)
    as ``evaluate()`` does, each on the segment of the last old breakpoint
    up to it, and places its parameters in the output, each reading its old
    vertex or its end's value, its zone being the count of ends up to it.
    The shift table steps over the ends in interleaved order; where an end
    an ulp out of order leaves its place to a neighbour (which may sort into
    a block beside), the curve is evaluated through ``evaluate()``.  No
    array but the sorted ends' and the output's is longer than a block.

    Shifts: zone ``j`` is rotated by ``phi`` when ``j`` is odd and then
    moved by ``shifts[j]``, one lookup in the table ``[-0, upper_0, lower_0,
    upper_1, ...]`` of ``_shifts``, whose entries are formed a block's
    zones at a time.  Zone 0 lies before every interval and must stay as it
    is: ``v + (-0.0)`` is ``v`` bit for bit, ``-0.0`` included, where
    ``+0.0`` would turn a ``-0.0`` into ``+0.0``.

    The output's ``increment`` is ``sup |output - curve|``, bit for bit the
    maximum of the modulus over both curves' breakpoints and the right end:
    the difference is affine in between.  At the kept parameters both curves
    are at hand; at the old breakpoints that the merge tolerance drops and at
    the right end, where the output is a limit, it is evaluated once built.
    """
    if not isfinite(phi):
        raise InvalidInput(f"rotation angle must be finite, got {phi}")
    if not intervals.count:
        raise InvalidInput("no rotation intervals")
    if not -pi <= phi < pi:
        phi = angle_to_symmetric(phi)
    y = intervals.y
    length, old = curve.length, curve.n_segments
    if y[0] < 0.0 or y[-1] + intervals.delta > length * (1 + 1e-12):
        # a curve off unit speed is refused first, whatever the intervals
        curve.require_unit_speed()
        raise IntervalOutOfRange("rotation intervals must lie inside the curve domain")
    rot = complex(np.cos(phi), np.sin(phi))
    one_minus = 1.0 - rot

    # each temporary is released once used, which keeps the peak memory down
    bounds = intervals.bounds()
    order = bounds.argsort(kind="stable")
    ends = bounds.take(order)
    del bounds
    # the ends an ulp out of order: those not at their interleaved place
    moved = (order != np.arange(len(order))).nonzero()[0]
    del order
    right_zone = int(ends.searchsorted(length, side="right"))

    # merge numerically coincident breakpoints: a zero-length segment carries
    # no geometry but fabricates spurious self-contacts downstream
    merge_tol = 1e-13 * max(1.0, length)
    # the output a block at a time: the merge drops a third of the
    # parameters at depth, so room for all of them would raise the peak
    new_x, new_z = [], []
    # the old breakpoints the merge drops: parameter, new segment, old vertex
    kink_x, kink_at, kink_z = [], [], []
    kept = 0                # new breakpoints placed so far
    previous = -np.inf      # the last distinct parameter placed so far
    increment = 0.0
    carry = complex(-0.0, -0.0)  # the shift of zone 0, then of each block's first zone
    last = 0
    for start in range(0, old, _BLOCK):
        stop = min(start + _BLOCK, old)
        first = last
        last = len(ends) if stop == old else int(ends.searchsorted(curve.x[stop]))
        params, is_end = _merge(curve.x[start:stop], ends[first:last])
        # the curve at the block's ends once its speed defect passes: an
        # end's segment is the count of old breakpoints before it, less one
        chords, widths = curve._segments(start, stop)
        _require_unit_speed(_speed_defect(chords, widths), length)
        q, seg = ends[first:last], is_end.nonzero()[0]
        seg -= np.arange(1, len(seg) + 1)
        if stop == old:
            q, seg = np.concatenate((q, [length])), np.concatenate((seg, [stop - start - 1]))
        at_ends = _on_block(curve, start, chords, widths, q, seg)
        del chords, widths, q, seg
        if stop == old:
            right, at_ends = at_ends[-1:], at_ends[:-1]
        # the shift table steps over the ends in interleaved order; where an
        # end out of order left its place, evaluate() gives the one that belongs
        interleaved = at_ends
        lo, hi = moved.searchsorted((first, last)) if len(moved) else (0, 0)
        if hi > lo:
            r = moved[lo:hi]
            end = y.take(r // 2)
            end[r % 2 == 1] += intervals.delta
            interleaved = at_ends.copy()
            interleaved[r - first] = curve.evaluate(np.minimum(end, length))
        shifts = _shifts(interleaved, first, one_minus, carry)
        carry = shifts[-1]
        # a parameter's zone (less ``first``) counts the block's ends up to
        # it; its position in the block, plus ``start``, less that is the
        # last old breakpoint up to it; zone ``j`` reads ``shifts[j - first]``
        zone = np.add.accumulate(is_end, dtype=np.intp)

        # of equal parameters the last one below the right end is kept: its
        # zone counts every end equal to it; those below it are a prefix
        below = int(params.searchsorted(length))
        if not below:
            continue
        distinct = np.empty(below, dtype=bool)
        np.not_equal(params[1:below], params[:below - 1], out=distinct[:-1])
        distinct[-1] = True
        at = distinct.nonzero()[0]
        near = params.take(at)
        far = np.empty(len(at), dtype=bool)
        far[0] = near[0] - previous > merge_tol
        np.greater(near[1:] - near[:-1], merge_tol, out=far[1:])
        previous = near[-1]
        del near
        keep = at[far]
        # the last new breakpoint is dropped within merge_tol of the right end;
        # any later one would lie beyond it
        if len(keep) and kept + len(keep) > 1 and params[keep[-1]] > length - merge_tol:
            far[np.searchsorted(at, keep[-1])] = False
            keep = keep[:-1]
        if not far.all():
            # the increment needs the dropped parameters that are old
            # breakpoints, on the last new segment that starts before each
            new_at = (~far).nonzero()[0]
            drop = at.take(new_at)
            new_at -= np.arange(1 - kept, len(new_at) + 1 - kept)
            dropped = params.take(drop)
            slot = drop + start
            slot -= zone.take(drop)
            is_old = curve.x.take(slot) == dropped
            kink_x.append(dropped[is_old])
            kink_at.append(new_at[is_old])
            kink_z.append(curve.z.take(slot[is_old]))
            del drop, new_at, dropped, slot, is_old
        new_x.append(params.take(keep))
        del at, far, params

        # a kept old breakpoint reads its vertex, a kept end its value
        keep_zone = zone.take(keep)
        at_end = is_end.take(keep).nonzero()[0]
        del zone, is_end
        values = curve.z.take(keep + start - keep_zone)
        values[at_end] = at_ends.take(keep_zone.take(at_end) - 1)
        del at_end
        new_z.append(np.empty(len(keep), dtype=complex))
        increment = max(increment, _shift_block(values, keep_zone, first, rot, shifts,
                                                new_z[-1]))
        kept += len(keep)
    del ends, moved
    # the right end is in zone right_zone, in the last block's table
    new_z.append(np.add(right * rot if right_zone & 1 else right, shifts[right_zone - first]))
    del shifts
    # one list at a time, so that one list's pieces are gone before the next
    new_z = np.concatenate(new_z)
    new_x.append([length])
    new_x = np.concatenate(new_x)
    rotated = PLCurve(length, new_x[:kept], new_z)
    # the output at the dropped kinks and the right end, on the segments
    # ``evaluate`` picks, formed as ``_on_segments`` forms them with the right
    # end read after the last breakpoint; at a kink ``curve`` is its vertex:
    # evaluation adds ``0 * tangent``, which may change only the sign of a
    # zero, and no modulus
    kink_x.append([length])
    kink_at.append([kept - 1])
    kink_z.append(right)
    seg = np.concatenate(kink_at)
    x0, z0 = new_x.take(seg), new_z.take(seg)
    seg += 1
    apart = new_z.take(seg)
    apart -= z0
    apart /= new_x.take(seg) - x0
    apart *= np.concatenate(kink_x) - x0
    apart += z0
    del new_x, new_z
    apart -= np.concatenate(kink_z)
    rotated.increment = max(increment, float(np.maximum.reduce(np.abs(apart))))
    return rotated


def _shift_block(values: np.ndarray, zone: np.ndarray, first: int, rot: complex,
                 shifts: np.ndarray, out: np.ndarray) -> float:
    """Write the zones' images of ``values`` to ``out``; the largest distance moved.

    Zone ``first + j`` rotates by ``rot`` when it is odd and then adds
    ``shifts[j]``, for each ``j`` in ``zone``.  ``values`` is overwritten.
    """
    moved = np.where((zone ^ first) & 1, values * rot, values)
    np.add(moved, shifts.take(zone), out=out)
    del moved
    values -= out
    return float(np.maximum.reduce(np.abs(values), initial=0.0))


def _merge(olds: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort of ``olds`` then ``ends``, and which of its entries are ends."""
    merged = np.concatenate([olds, ends])
    order = merged.argsort(kind="stable")
    return merged.take(order), order >= len(olds)


def _on_block(curve: PLCurve, start: int, chords: np.ndarray, widths: np.ndarray,
              q: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """The curve at each ``q[k]`` on segment ``start + seg[k]``, bit for bit as ``evaluate`` gives it.

    ``chords`` and ``widths`` are those of the segments from ``start`` on;
    the tangents are formed on the indexed segments only, as ``tangents()``
    forms them.  A parameter above the domain's right end (a piece ending
    there may round above it) is taken at the right end.
    """
    q = np.minimum(q, curve.length)
    q -= curve.x[start:].take(seg)
    value = chords.take(seg)
    value /= widths.take(seg)
    np.multiply(q, value, out=value)
    return np.add(curve.z[start:].take(seg), value, out=value)


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


#: a visit count is at most a tower height, so ``PIECE_BUDGET`` keeps it below
#: ``2**_COUNT_BITS``; the counts are stored in int32
_COUNT_BITS = 24
#: the level-0 translations are cut into three signed limbs of this width; a
#: limb sum of ``d`` count-by-limb products plus a shift limb stays below
#: ``(d + 1) * 2**(_COUNT_BITS + _LIMB_BITS)``, within int64 for ``d`` up to
#: ``_MAX_SYMBOLS``; more symbols convert exactly
_LIMB_BITS = 32
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_MAX_SYMBOLS = (1 << (63 - _COUNT_BITS - _LIMB_BITS)) - 1
#: bits of each translation the limbs keep: three limbs, less a sign margin
_KEPT_BITS = 3 * _LIMB_BITS - 2


def _require_count_width(budget: int) -> None:
    """The int32 visit counts and int64 limb sums hold every tower ``budget`` admits."""
    if budget >= 1 << _COUNT_BITS:
        raise ValueError(f"a budget of {budget} floors needs visit counts of more than "
                         f"{_COUNT_BITS} bits: widen the int32 counts and int64 limb sums")


_require_count_width(PIECE_BUDGET)


class Towers:
    """Rokhlin towers of one level, each floor stored as visit counts.

    ``counts[s]`` is an int32 array of shape ``(height, d)``, one row per
    floor of symbol ``s``'s tower in return-time order: row ``k`` holds the
    visit counts of the first ``k`` letters of the return word, so the
    floor's exact offset ``T^k x - x`` (a numerator) is the row times
    ``ups``, the level-0 translation numerators.  ``scale`` is the level-0
    length numerator, which bounds every offset.  ``edges`` holds the exact
    edges the next level's pieces are checked against and ``edge_floats``
    their correctly rounded values, as an array; ``rokhlin_towers`` fills
    both and each induction step adds one.
    """

    def __init__(self, ups: Sequence[int], scale: int, counts: list[np.ndarray]) -> None:
        self.ups = tuple(ups)
        self.scale = scale
        self.counts = counts
        self.edges: list[int] = []
        self.edge_floats = np.empty(0)
        self._ups = np.array(self.ups, dtype=object)
        # the translations' top _KEPT_BITS bits as limbs, one limb per row,
        # and a last row that counts one unit of 2**cut per visit where bits
        # are cut off
        self.cut = max(0, scale.bit_length() - _KEPT_BITS)
        self.limbs = np.array([(*_limbs(u >> self.cut), int(self.cut > 0)) for u in self.ups],
                              dtype=np.int64).T.copy()

    def offsets(self, rows: np.ndarray) -> list[int]:
        """Exact offsets of the floors ``rows``, in Python ints."""
        return (rows.astype(object) @ self._ups).tolist()

    def add_edges(self, nums: Sequence[int], den: int) -> None:
        self.edges.extend(nums)
        self.edge_floats = np.concatenate([self.edge_floats, [num / den for num in nums]])


def rokhlin_towers(trace: InductionTrace, n: int) -> Towers:
    """Exact floors of the level-``n`` Rokhlin towers, one tower per symbol in return-time order.

    Entry ``s`` lists the offsets ``T^k x - x`` (numerators) of the level-``n``
    subinterval of ``s`` under the original exchange ``T``, for ``k`` below
    its return time: each image is a rigid translate, so the offsets hold for
    every ``x`` of the subinterval.  Each floor is stored as the visit counts
    of its return-word prefix (see ``Towers``), 16 bytes a floor at ``d =
    4``.  Level 0 is one zero row for every symbol, and each induction step
    stacks two towers into the loser's (``_stack_towers``).  No tower is
    sorted: ``breaking_intervals`` orders the one it reads.  The edges are
    the exchange's cuts and the total lengths of levels ``0..n``.  The floor
    count is the entry sum of ``trace.cocycle[n]``; above ``PIECE_BUDGET`` it
    raises ``BudgetExceeded`` before anything is built.  A level outside
    ``0..trace.n_steps`` raises ``InvalidInput``.
    """
    if not 0 <= n <= trace.n_steps:
        raise InvalidInput(f"level {n} outside 0..{trace.n_steps}")
    _require_floors(trace, n)
    d, initial = trace.d, trace.initial
    towers = Towers(initial.upsilon_num, initial.total_num,
                    [np.zeros((1, d), dtype=np.int32) for _ in range(d)])
    towers.add_edges([*initial.e0_num[1:-1], initial.total_num], initial.denominator)
    for k in range(n):
        _stack_towers(trace, towers, k)
    return towers


def _stack_towers(trace: InductionTrace, towers: Towers, k: int) -> None:
    """Take the level-``k`` towers to level ``k + 1``, in place.

    A point of the new loser subinterval climbs the tower of the symbol it
    starts in, lands (translated by that symbol's level-``k`` translation,
    whose visit counts are that symbol's row of ``trace.cocycle[k]``) in
    the other one and climbs that: the loser then the winner for type 0,
    the winner then the loser for type 1.  The new tower is the two in that
    order, so it stays in return-time order.  The level-``k + 1`` total
    joins the edges.
    """
    step = trace.steps[k]
    first, second = ((step.loser, step.winner) if step.type_eps == 0
                     else (step.winner, step.loser))
    shift = np.array(trace.cocycle[k][first], dtype=np.int32)
    towers.counts[step.loser] = np.concatenate([towers.counts[first],
                                                towers.counts[second] + shift])
    towers.add_edges([trace.states[k + 1].total_num], trace.initial.denominator)


def breaking_intervals(trace: InductionTrace, n: int, towers: Towers) -> IntervalSeq:
    """Forward orbit of the level-``n`` removed piece until its first return.

    The removed piece is the right part of the level ``n-1`` interval, inside
    the subinterval of the level ``n-1`` top row's last symbol.  Its first
    return to the level ``n-1`` interval already lies in the level-``n`` one,
    so its images are the floors of that symbol's tower in ``towers``, the
    level ``n-1`` ones from ``rokhlin_towers``, shifted to the piece's left
    end.  Their left ends are correctly rounded (``_interval_floats``) and
    put in increasing order (``_sorted_ends``); this is the one tower a level
    reads sorted.  The pieces are checked exactly (``_check_pieces``):
    pairwise disjoint, and none straddles a cut of the exchange or a removed
    zone ``[total_m, total_m-1)`` of a level ``m < n``, whose ends the towers
    carry; the level-``n`` zone is the piece itself, which disjointness
    covers.  What the checks prove the family does not check again.  A
    level outside ``1..trace.n_steps`` raises ``InvalidInput``.
    """
    if n < 1 or n > trace.n_steps:
        raise InvalidInput(f"level {n} outside 1..{trace.n_steps}")
    symbol = trace.states[n - 1].perm.top[-1]
    rows = towers.counts[symbol]
    if len(rows) != sum(trace.cocycle[n - 1][symbol]) or len(towers.edges) != trace.d + n - 1:
        raise InvalidInput(f"the towers given are not those of level {n - 1}")
    den = trace.initial.denominator
    total_next = trace.states[n].total_num
    delta_num = trace.states[n - 1].total_num - total_next
    ends, order = _sorted_ends(towers, rows, total_next, den)
    _check_pieces(towers, rows, order, ends, total_next, delta_num, towers.edges,
                  towers.edge_floats, den)
    return IntervalSeq._proven(ends, delta_num / den)


def _sorted_ends(towers: Towers, rows: np.ndarray, shift: int,
                 den: int) -> tuple[np.ndarray, np.ndarray]:
    """The ends ``float(Fraction(shift + a, den))`` sorted, and the order of the exact ``a``.

    ``a`` runs over the exact offsets of ``rows``, and ``rows[order]`` sorts
    them.  Correct rounding is monotone, so one sort of the ends orders
    every pair of floors whose ends differ.  The floors whose ends round
    equal to a neighbour's are sorted again on their exact offsets, all in
    one sort: the runs of equal ends already lie in exact order among
    themselves.
    """
    ends = _interval_floats(towers, rows, shift, den)
    order = ends.argsort()
    ends = ends.take(order)
    equal = (ends[1:] == ends[:-1]).nonzero()[0]
    if len(equal):
        tied = np.union1d(equal, equal + 1)
        part = order.take(tied)
        exact = towers.offsets(rows.take(part, axis=0))
        order[tied] = part.take(sorted(range(len(part)), key=exact.__getitem__))
    return ends, order


def _check_pieces(towers: Towers, rows: np.ndarray, order: np.ndarray, ends: np.ndarray,
                  shift: int, width: int, edges: Sequence[int], at: np.ndarray,
                  den: int) -> None:
    """The pieces ``[shift + a, shift + a + width)`` are disjoint and no edge is inside one.

    ``a`` runs over the exact offsets of ``rows``, ``rows[order]`` sorts
    them and ``ends`` holds their ``float(Fraction(shift + a, den))`` in that
    order (``_sorted_ends``); ``at`` holds each edge over ``den``, correctly
    rounded.  Each float compared, an end, ``width / den`` or an edge, is
    correctly rounded, so it errs by at most ``s / 2``, with ``s`` the
    spacing of the largest of them, and so does each rounded difference of
    two.  A gap errs by at most ``1.5 s``, and so does the width plus
    ``eps``, whose sum may round on the coarser spacing past a power of two;
    a piece holding an edge has its end within ``1.5 s`` of
    ``[edge - width, edge]``, and the window ``eps`` wider on each side
    loses at most ``1.5 s`` to its own roundings.  So ``eps = 4 s`` covers
    every comparison: each gap that exceeds the width by more than ``eps``
    is certified, and only the pieces whose ends lie in the window can hold
    an edge.  The other gaps and those pieces are decided on exact offsets,
    the only rows read, all in one conversion.  A piece partly overlaps a
    zone ``[lo, hi)`` exactly when ``lo`` or ``hi`` is inside it, and
    crosses a continuity boundary when that cut is; touching is allowed.
    """
    if not len(rows):
        return
    w = width / den
    eps = 4 * ulp(max(ends[-1], w, at.max()))
    gaps = (ends[1:] - ends[:-1] <= w + eps).nonzero()[0].tolist()
    lows = ends.searchsorted(at - w - eps, side="left")
    highs = ends.searchsorted(at + eps, side="right")
    hits = (highs > lows).nonzero()[0].tolist()
    if not (gaps or hits):
        return
    lows, highs = lows.tolist(), highs.tolist()
    # each edge in a window against each piece there, after both pieces of each gap
    tested = [(edges[i] - shift, j) for i in hits for j in range(lows[i], highs[i])]
    g = len(gaps)
    read = [*gaps, *(k + 1 for k in gaps), *(j for _, j in tested)]
    exact = towers.offsets(rows.take(order.take(read), axis=0))
    if any(b - a < width for a, b in zip(exact, exact[g:2 * g])):
        raise AssertionError("orbit pieces overlap")
    if any(a < edge < a + width for (edge, _), a in zip(tested, exact[2 * g:])):
        raise AssertionError("orbit piece straddles a removed zone or a cut")


def _interval_floats(towers: Towers, rows: np.ndarray, shift: int, den: int) -> np.ndarray:
    """``float(Fraction(shift + a, den))`` for the exact offsets ``a`` of ``rows``.

    Every ``shift + a`` must lie in ``[0, towers.scale]``.  For ``den =
    2**b`` the sums are formed in int64 limbs: each translation, and the
    shift, keeps its top ``_KEPT_BITS`` bits above a cut ``2**t``.  The parts
    cut off, the shift's and each translation's times its count, are each
    below one unit of ``2**t`` per count, so ``(shift + a) / 2**t`` lies in
    ``[A, A + spread)`` with ``A`` the exact limb sum and ``spread`` one
    more than the floor's count of visits (the limbs' last row).  ``A`` is
    rounded once (``_round_limbs``), and that rounding holds for the whole
    range unless a rounding boundary lies within it.  Those entries and,
    when ``den`` is not a power of two or the quotients could leave the
    normal doubles, all entries are converted exactly by ``_to_floats``.
    """
    top = towers.scale
    d = len(towers.ups)
    if not (den & (den - 1) == 0 and den <= 1 << 1022 and top < 1 << 1021
            and d <= _MAX_SYMBOLS):
        return _to_floats(shift, towers.offsets(rows), den)
    cut = towers.cut
    # one limb per row, one floor per column, in blocks that stay in cache
    base = np.array([*_limbs(shift >> cut), int(cut > 0)], dtype=np.int64)[:, None]
    scale = ldexp(1.0, cut - (den.bit_length() - 1))
    out = np.empty(len(rows))
    unsure = np.empty(len(rows), dtype=bool)
    for start in range(0, len(rows), _BLOCK):
        block = slice(start, start + _BLOCK)
        sums = towers.limbs @ rows[block].T
        sums += base
        out[block], unsure[block] = _round_limbs(sums, scale)
    unsure = unsure.nonzero()[0]
    if len(unsure):
        out[unsure] = _to_floats(shift, towers.offsets(rows[unsure]), den)
    return out


def _to_floats(shift: int, nums: Sequence[int], den: int) -> np.ndarray:
    """``float(Fraction(shift + num, den))`` for each of the ``nums``; ``int / int`` is correctly rounded."""
    return np.fromiter(((shift + n) / den for n in nums), float, len(nums))


def _limbs(value: int) -> tuple[int, int, int]:
    """``value`` as ``l0 + l1 2**32 + l2 2**64`` with ``0 <= l0, l1 < 2**32``."""
    return (value & _LIMB_MASK, (value >> _LIMB_BITS) & _LIMB_MASK, value >> 2 * _LIMB_BITS)


def _round_limbs(sums: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """``float(A) * scale`` for the limb sums ``A``, one per column of ``sums``, and which are unsure.

    After the carries, ``A = hi 2**64 + mid 2**32 + low`` with ``0 <= mid,
    low < 2**32`` and ``|hi| < 2**31``, three doubles that need no
    rounding.  The sum of the first two errs by an exact double (Fast2Sum,
    Dekker 1971): it is a multiple of ``2**32`` below ``2**42``, so adding
    ``low`` to it rounds nothing, and one rounded addition then gives ``A``
    correctly rounded, and, by Fast2Sum again, its exact residual ``A -
    float(A)``.  An entry is unsure where ``A + spread``, the last row of
    ``sums``, may lie past the rounding boundary half a spacing above: for
    ``A`` below ``2**53``, which is a double, wherever ``spread`` is 1 or
    more, and for ``A`` negative always.  ``scale`` is a power of two that
    keeps the result a normal double, so the product is exact.
    """
    s0, s1, s2, spread = sums
    p1 = s1 + (s0 >> _LIMB_BITS)
    high = s2 + (p1 >> _LIMB_BITS)
    high = high * 2.0**64
    mid = p1 & _LIMB_MASK
    mid = mid * 2.0**32
    near = high + mid
    err = high - near
    err += mid
    err += s0 & _LIMB_MASK
    value = near + err
    room = near - value
    room += err
    room += spread
    unsure = room > np.spacing(value) * 0.5
    value *= scale
    return value, unsure


@dataclass
class ThetaSeq:
    """Torus rotation coordinates pushed through the renormalization cocycle.

    ``lifts`` holds the exact lift of the deepest entry as integer numerators
    over ``denominator``, the least common denominator of the pushed vector
    (a power of two for float input), from which ``extend`` continues the push.
    """

    entries: list[np.ndarray]
    image_last: list[int]
    lifts: list[int] = field(default_factory=list, repr=False)
    denominator: int = field(default=1, repr=False)
    _distances: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                             compare=False)

    @property
    def depth(self) -> int:
        return len(self.entries) - 1

    def distances(self) -> np.ndarray:
        """Torus distance to zero of every level's entry, computed once and read-only."""
        if self._distances is None:
            self._distances = torus_distance_to_zero(np.array(self.entries))
            self._distances.setflags(write=False)
        return self._distances

    def breaking_angle(self, n: int) -> float:
        """Rotation applied at level ``n+1``, reduced into ``[-pi, pi)``.

        This is the coordinate of the level-``n`` rotation vector indexed by
        the final bottom-row symbol of the level-``n`` permutation.
        """
        return angle_to_symmetric(float(self.entries[n][self.image_last[n]]))

    def extend(self, trace: InductionTrace, depth: int) -> None:
        """Continue the push along ``trace``, the trace it was pushed along, to level ``depth``.

        Each step's factor ``I + E[loser, winner]`` moves the exact lift by
        one integer add, ``lift[loser] += lift[winner]``, so each level
        reduces just that one coordinate; the others carry over.  A depth
        below the current one or beyond the trace raises ``InvalidInput``.
        """
        if not self.depth <= depth <= trace.n_steps:
            raise InvalidInput(f"cannot push level {self.depth} on to {depth}: "
                               f"the trace holds {trace.n_steps} steps")
        lifts, den, point = self.lifts, self.denominator, self.entries[-1]
        for step in trace.steps[self.depth:depth]:
            lifts[step.loser] += lifts[step.winner]
            point = point.copy()
            point[step.loser] = _mod_tau(lifts[step.loser], den)
            self.entries.append(point)
        self.image_last.extend(trace.image_last_symbol(n)
                               for n in range(len(self.image_last), depth))
        self._distances = None


ThetaLike = Union[Sequence[float], Sequence[Fraction], np.ndarray]


def theta_sequence(trace: InductionTrace, theta: ThetaLike, depth: int) -> ThetaSeq:
    """Push ``theta`` through the cocycle by a running exact lift, reduced mod ``2*pi``.

    Level 0 is ``torus_project(trace.cocycle[0], theta)`` and the push goes
    on one step at a time (``ThetaSeq.extend``); every entry equals
    ``torus_project(trace.cocycle[n], theta)`` bit for bit.  Float
    coordinates are consumed as the dyadic rationals they are, exact
    rational ones exactly, so deep levels lose no precision to the
    reduction.  A wrong number of coordinates, a non-finite one, or a depth
    outside the trace raises ``InvalidInput``.
    """
    if not 0 <= depth <= trace.n_steps:
        raise InvalidInput(f"trace holds {trace.n_steps} steps, need {depth}")
    if len(theta) != trace.initial.d:
        raise InvalidInput(f"rotation vector has {len(theta)} entries, "
                           f"the exchange has {trace.initial.d} symbols")
    try:
        lifts = [t if isinstance(t, Fraction) else Fraction(float(t)) for t in theta]
    except (ValueError, OverflowError):
        raise InvalidInput(f"rotation vector entries must be finite, got {list(theta)}") from None
    den = lcm(*(t.denominator for t in lifts))
    seq = ThetaSeq([torus_project(trace.cocycle[0], lifts)], [],
                   [t.numerator * (den // t.denominator) for t in lifts], den)
    seq.extend(trace, depth)
    return seq


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
        if n == depth:
            # the last operator runs without the towers, which nothing reads after it
            del towers
        curve = breaking_operator(curve, seq.breaking_angle(n - 1), intervals)
        yield curve
        if n < depth:
            _stack_towers(trace, towers, n - 1)


def breaking_sequence(trace: InductionTrace, theta: ThetaLike, depth: int) -> list[PLCurve]:
    """The curve sequence: identity parametrization, then one rotation per level."""
    curves = [PLCurve.identity(trace.initial.total)]
    curves.extend(curve_levels(trace, theta_sequence(trace, theta, depth), curves[0], 0, depth))
    return curves
