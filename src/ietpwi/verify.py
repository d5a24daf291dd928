"""Numerical certification of the embedding identities and curve geometry.

Every check reports a nonnegative defect, the tolerance it was held to and
the verdict; reports serialize to JSON and are byte-for-byte deterministic
given the same inputs, since no check draws random points.  Every supremum
is a maximum over a finite kink set: the functions involved are piecewise
affine in the curve parameter (or affine on the plane), so the largest
modulus sits at a breakpoint, at a breakpoint's preimage under the
exchange, at an atom end, or at a corner of the compared box.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import atan, isfinite, pi
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .breaking import _BLOCK, PLCurve, ThetaSeq
from .errors import InvalidInput, LevelMismatch, OutOfDomain
from .iet import IETState, apply_exact
from .pwi import AdaptedPWI, PlanarIsometry, hat_maps, unwind_maps
from .rauzy import InductionTrace

#: normalized residual above which a curve piece counts as neither a line
#: segment nor a circle arc; fit noise sits near 1e-8, curved pieces orders
#: of magnitude higher, so the threshold is a reporting convention
TOL_NONTRIVIAL = 1e-3

#: uniform samples per curve piece of the non-triviality fits
PIECE_SAMPLES = 512

#: the quasi-embedding suite holds each pair ``m <= n`` to ``TOL_QUASI * (1 + n)``
TOL_QUASI = 1e-9


def _jsonify(value):
    """Plain-Python view of numpy scalars/arrays for the report schema."""
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


@dataclass
class CheckResult:
    check: str
    defect: float
    tol: float
    passed: bool
    n: Optional[int] = None
    m: Optional[int] = None
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"check": self.check, "defect": self.defect, "tol": self.tol,
                "pass": bool(self.passed), "n": self.n, "m": self.m,
                "meta": _jsonify(self.meta) if self.meta else {}}


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, check: str, defect: float, tol: float,
            n: Optional[int] = None, m: Optional[int] = None,
            meta: Optional[dict] = None) -> CheckResult:
        defect = float(defect)
        tol = float(tol)
        if not isfinite(defect) or defect < 0:
            raise ValueError(f"defect must be a finite nonnegative real, got {defect}")
        result = CheckResult(check, defect, tol, defect <= tol, n, m, meta or {})
        self.checks.append(result)
        return result

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        return json.dumps([c.to_json() for c in self.checks], sort_keys=True)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            loc = "" if c.n is None else f" (n={c.n}" + ("" if c.m is None else f", m={c.m}") + ")"
            lines.append(f"[{tag}] {c.check}{loc}: defect={c.defect:.3e} tol={c.tol:.3e}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# embedding defect
# ---------------------------------------------------------------------------

def _locate(curve: PLCurve, q: np.ndarray) -> np.ndarray:
    """Segment of each parameter ``q[k]``, the one ``PLCurve.evaluate`` finds.

    The search covers only the breakpoints between the smallest and the
    largest query; a query outside ``[0, length]`` raises ``OutOfDomain``.
    """
    first, last = q.min(), q.max()
    if first < 0.0 or last > curve.length:
        raise OutOfDomain("parameter outside [0, length]")
    start, stop = np.searchsorted(curve.x, (first, last), side="right")
    idx = np.searchsorted(curve.x[start:stop], q, side="right")
    idx += start - 1
    return idx


def _first_past(past: Callable[[np.ndarray], np.ndarray], guess: np.ndarray,
                n: int) -> np.ndarray:
    """Smallest index in ``0..n`` at which the monotone predicate ``past`` holds, per entry.

    Each guess moves one index a pass towards it, so guesses a few indices
    off settle in a few passes; ``past`` is only asked about ``0..n-1``.
    """
    while True:
        down = (guess > 0) & past(np.maximum(guess - 1, 0))
        up = (guess < n) & ~past(np.minimum(guess, n - 1))
        if not (down.any() or up.any()):
            return guess
        guess += up
        guess -= down


def _preimage_runs(x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and end index of the breakpoints with ``lo <= x - shift <= hi``, per region.

    A search on ``x`` guesses them; the float difference is monotone in
    ``x``, so each guess is then moved to where the predicate changes.
    """
    regions = len(lo)
    limit = np.concatenate([lo, hi])
    shift = np.concatenate([shift, shift])
    first = np.arange(2 * regions) < regions

    def past(j: np.ndarray) -> np.ndarray:
        # past a first index: x - shift >= lo; past an end index: x - shift > hi
        diff = x.take(j) - shift
        return np.where(first, diff >= limit, diff > limit)

    guess = np.concatenate([np.searchsorted(x, limit[:regions] + shift[:regions]),
                            np.searchsorted(x, limit[regions:] + shift[:regions], side="right")])
    bounds = _first_past(past, guess, len(x))
    return bounds[:regions], np.maximum(bounds[:regions], bounds[regions:])


def _kinks(curve: PLCurve, j: np.ndarray, shift: np.ndarray,
           preimage: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The curve at a block of kinks, their images and the images' segments.

    The kinks are the breakpoints ``curve.x[j]``, or their preimages
    ``curve.x[j] - shift`` when ``preimage``; each is translated by its
    ``shift``, at most to the curve's length.
    """
    x = curve.x
    q = x.take(j)
    if preimage:
        q -= shift
        gamma = curve._on_segments(q, _locate(curve, q))
    else:
        gamma = curve.z.take(j)
    q += shift
    np.minimum(q, curve.length, out=q)
    if not preimage:
        return gamma, q, _locate(curve, q)
    # the image of a preimage lies within rounding of its breakpoint, so the
    # first breakpoint past it is found from the next one
    return gamma, q, _first_past(lambda i: x.take(i) > q, j + 1, len(x)) - 1


def _gaps(curve: PLCurve, gamma: np.ndarray, image: np.ndarray, idx: np.ndarray,
          coefficients: tuple, regions: np.ndarray,
          repeats: Union[int, np.ndarray]) -> np.ndarray:
    """``|rot (gamma - a) + b - curve(image)|``, with each ``image[k]`` on segment ``idx[k]``.

    ``rot``, ``a`` and ``b`` are the ``coefficients`` of region ``regions[r]``
    repeated ``repeats[r]`` times, gathered one at a time.  The map is
    applied as a family's call applies it; ``gamma`` is overwritten.
    """
    rot, a, b = coefficients
    image = curve._on_segments(image, idx)
    gamma -= a[regions].repeat(repeats)
    # not in place: numpy rounds an in-place product of one-element complex
    # arrays differently from the out-of-place product a family's call takes
    gamma = rot[regions].repeat(repeats) * gamma
    gamma += b[regions].repeat(repeats)
    gamma -= image
    return np.abs(gamma)


def _conjugacy_defects(curve: PLCurve, maps: PlanarIsometry, states: Sequence[IETState],
                       floor: int) -> np.ndarray:
    """Largest conjugacy defect along ``curve`` of each row ``maps[f]`` of a family.

    Entry ``f`` is the largest ``|maps[f, s](curve(x)) - curve(x + u_s)|``
    over the ``x`` whose image is ``>= floor``, where ``s`` is the symbol of
    the atom holding ``x`` and ``u_s`` its translation under the exchange
    ``states[f]``; ``floor`` is a numerator over the state's denominator, so
    each atom's kept region is decided on exact numerators.  On a region the
    defect is affine between kinks, so its supremum is the maximum over the
    region's two ends (the right one as a limit), the curve breakpoints
    inside it and their preimages ``curve.x - u_s``; 0 when no region of the
    family is kept.  Every value is the one ``PLCurve.evaluate`` gives, up
    to the sign of a zero: a breakpoint's vertex is read by its own index,
    a preimage's image is settled from its breakpoint's index, and every
    other point is found by a search covering only the breakpoints its
    block spans.  The breakpoints of every region form one run, and so do
    its preimages; the runs are taken ``_BLOCK`` kinks at a time, so no
    temporary is longer than a block.
    """
    rows = []
    for f, state in enumerate(states):
        den = state.denominator
        for slot, symbol in enumerate(state.perm.top):
            lo = max(state.e0_num[slot], floor - state.upsilon_num[symbol])
            hi = state.e0_num[slot + 1]
            if lo < hi:
                rows.append((f, symbol, lo / den, hi / den, state.upsilon[symbol]))
    out = np.zeros(len(states))
    if not rows:
        return out
    family, symbol, lo, hi, shift = (np.array(column) for column in zip(*rows))
    region_maps = maps[family, symbol]
    coefficients = np.exp(1j * region_maps.angle), region_maps.a, region_maps.b
    x = curve.x

    # the two ends of every region
    ends = np.stack([lo, hi], axis=1).ravel()
    gamma = curve._on_segments(ends, _locate(curve, ends))
    ends += shift.repeat(2)
    np.minimum(ends, curve.length, out=ends)
    gaps = _gaps(curve, gamma, ends, _locate(curve, ends), coefficients,
                 np.arange(len(rows)), 2)
    np.maximum.at(out, family.repeat(2), gaps)

    # the runs of breakpoints, then the runs of preimages, the empty ones dropped
    first, stop = _preimage_runs(x, lo, hi, shift)
    first = np.concatenate([np.searchsorted(x, lo), first])
    count = np.concatenate([np.searchsorted(x, hi, side="right"), stop]) - first
    run = np.flatnonzero(count)
    first, count = first[run], count[run]
    preimage = run >= len(rows)
    run %= len(rows)
    bounds = np.concatenate([[0], np.cumsum(count)])
    offset = first - bounds[:-1]
    run_max = np.zeros(len(run))
    # blocks of _BLOCK kinks, each cut where the preimage runs begin
    total = int(bounds[-1])
    cuts = sorted({*range(0, total, _BLOCK), int(bounds[np.searchsorted(preimage, True)]), total})
    for begin, end in zip(cuts[:-1], cuts[1:]):
        u0 = int(np.searchsorted(bounds, begin, side="right")) - 1
        u1 = int(np.searchsorted(bounds, end))
        lengths = np.minimum(bounds[u0 + 1:u1 + 1], end) - np.maximum(bounds[u0:u1], begin)
        regions = run[u0:u1]
        kinks = _kinks(curve, np.arange(begin, end) + offset[u0:u1].repeat(lengths),
                       shift[regions].repeat(lengths), preimage[u0])
        gaps = _gaps(curve, *kinks, coefficients, regions, lengths)
        del kinks  # before the next block's arrays are formed
        starts = np.concatenate([[0], np.cumsum(lengths[:-1])])
        np.maximum(run_max[u0:u1], np.maximum.reduceat(gaps, starts), out=run_max[u0:u1])
    np.maximum.at(out, family[run], run_max)
    return out


def embedding_defect(curve: PLCurve, pwi: AdaptedPWI, iet: IETState) -> float:
    """Supremum conjugacy defect of the curve between the exchange and the maps.

    The maximum over its kink set (see ``_conjugacy_defects``), over the
    whole domain: atom ends count as one-sided limits, so no neighbourhood
    of a discontinuity is left out.
    """
    return float(_conjugacy_defects(curve, pwi.maps[None], [iet], 0)[0])


# ---------------------------------------------------------------------------
# quasi-embedding suite
# ---------------------------------------------------------------------------

def quasi_embedding_suite(trace: InductionTrace, curves: Sequence[PLCurve], theta_seq: ThetaSeq,
                          depth: int) -> VerificationReport:
    """Map agreement and conjugacy defects for every level pair.

    For levels ``m <= n <= depth`` the inductively built family must equal
    the directly built one as maps of the plane, and must intertwine the
    level-``m`` exchange with the level-``n`` curve outside the pullback of
    the level-``n`` interval.  Two isometries differ by an affine map, whose
    modulus peaks at a corner of the compared box ``[-b, b]^2`` (``b`` the
    larger of 1 and the domain length); the conjugacy defect is a maximum
    over its kink set.  Each curve level evaluates the curve once for the
    direct families of every grid level ``m`` (``hat_maps``), walks the
    inductive ones back from its own level's direct family, and takes one
    pass of the conjugacy kernel over the families and one array expression
    for their map agreement.  Both defects carry tolerance ``TOL_QUASI * (1
    + n)``.
    """
    if depth > trace.n_steps or depth > theta_seq.depth:
        raise LevelMismatch("trace or rotation data shallower than the curve level")
    report = VerificationReport()
    corners = max(1.0, trace.initial.total) * np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    for n in range(depth + 1):
        curve = curves[n]
        direct = hat_maps(curve, trace, range(n + 1), theta_seq.entries[:n + 1], n)
        families = unwind_maps(trace, direct[n], n)
        agree = np.max(np.abs(direct[..., None](corners) - families[..., None](corners)),
                       axis=(1, 2))
        defects = _conjugacy_defects(curve, families, trace.states[:n + 1],
                                     trace.states[n].total_num)
        tol = TOL_QUASI * (1 + n)
        for m in range(n + 1):
            report.add("map_agreement", agree[m], tol, n=n, m=m)
            report.add("quasi_embedding", defects[m], tol, n=n, m=m)
    return report


# ---------------------------------------------------------------------------
# convergence of the curve sequence
# ---------------------------------------------------------------------------

def lipschitz_constant(curve: PLCurve) -> float:
    """Largest slope of the curve over its first coordinate.

    inf unless every segment moves right, so a vertical segment or one that
    doubles back (the curve is then no graph over its first coordinate)
    gets inf.  The tangents are formed ``_BLOCK`` segments at a time.
    """
    slopes = []
    for _, tangents, widths in curve.segment_blocks():
        tangents /= widths
        if np.any(tangents.real < 1e-15):
            return float("inf")
        slopes.append(np.max(np.abs(tangents.imag) / tangents.real))
    return float(np.max(slopes))


def convergence_report(increments: Sequence[float], curve: PLCurve, theta_seq: ThetaSeq,
                       trace: InductionTrace) -> VerificationReport:
    """Per-level increment bounds and cone control for the curve sequence.

    ``increments[n]`` is ``sup |curve_{n+1} - curve_n|``, as
    ``breaking_operator`` reports it on ``curve_{n+1}``, and ``curve`` is the
    last level.  Each increment must stay under ``4 |lambda| sin(|angle|/2)``
    for the angle applied at that level; the report also carries the
    empirical telescoping constant and the divergence flag used by negative
    controls.  While the summed angles stay under ``0.49 pi``, the last
    curve's steepest slope angle must stay under their sum (the Lipschitz
    cone); a curve that is no graph over its first coordinate has slope
    angle ``pi/2`` and fails.
    """
    if len(increments) < 2:
        raise InvalidInput(f"need at least 2 increments, got {len(increments)}")
    total = trace.initial.total
    report = VerificationReport()
    bounds = []
    dists = theta_seq.distances()[:len(increments)]
    for n, inc in enumerate(increments):
        bound = 4.0 * total * abs(np.sin(theta_seq.breaking_angle(n) / 2.0))
        bounds.append(float(bound))
        report.add("increment_bound", inc, bound + 1e-12, n=n,
                   meta={"bound": float(bound), "slack": float(bound - inc)})
    incs_arr = np.array(increments, dtype=float)
    bounds_arr = np.array(bounds)
    positive = dists > 0
    c_emp = float(np.max(incs_arr[positive] / (total * dists[positive]))) \
        if np.any(positive) else 0.0
    # the realized increments can decay by chord cancellation even for wild
    # rotation data; what the telescoped estimate controls is the bound
    # series, so divergence is flagged on that series
    quarter = max(1, len(bounds) // 4)
    head = float(np.mean(bounds_arr[:quarter]))
    tail = float(np.mean(bounds_arr[-quarter:]))
    divergent = bool(head > 0 and tail > 0.5 * head
                     and bounds_arr[-1] > 1e-8 * total)
    report.add("increments_summable", float(divergent), 0.5,
               meta={"sum": float(np.sum(incs_arr)),
                     "bound_sum": float(np.sum(bounds_arr)),
                     "bound_tail_quarter_mean": tail,
                     "bound_head_quarter_mean": head,
                     "telescoping_constant": c_emp})
    angle_sum = float(np.sum(dists))
    lips = lipschitz_constant(curve)
    if angle_sum < 0.49 * pi:
        # atan(inf) is pi/2, so a curve that is no graph fails the cone
        report.add("lipschitz_cone", atan(lips), angle_sum + 1e-9,
                   meta={"angle_sum": angle_sum})
    else:
        report.add("lipschitz_cone", 0.0, 1.0,
                   meta={"skipped": True, "angle_sum": angle_sum,
                         "lipschitz": lips if np.isfinite(lips) else "inf"})
    return report


# ---------------------------------------------------------------------------
# injectivity
# ---------------------------------------------------------------------------

#: candidate pairs per block of the broad and narrow phases, which bounds
#: their temporaries
NARROW_BLOCK = 1 << 14

#: the forward neighbour cells ``(dx, dy)`` of the broad phase, in scan order
NEIGHBOURS = ((0, 1), (1, -1), (1, 0), (1, 1))


def _cell_keys(px: np.ndarray, py: np.ndarray, cell: float) -> tuple[np.ndarray, int]:
    """Integer key of the grid cell of each point, and the key step of one column.

    Columns are shifted to start at 0 and rows to start at 1, and ``width``
    is two more than the last row; cell ``(cx, cy)`` then has key
    ``cx * width + cy``, and for ``|dy| <= 1`` its neighbour
    ``(cx + dx, cy + dy)`` has key ``key + dx * width + dy``, which no other
    cell has.  The points are segment midpoints and the cell is the longest
    segment, so each axis spans at most ``len(px)`` cells and the keys
    cannot overflow.
    """
    ix = np.floor(px / cell).astype(np.int64)
    iy = np.floor(py / cell).astype(np.int64)
    iy -= iy.min() - 1
    width = int(iy.max()) + 2
    return (ix - ix.min()) * width + iy, width


def _expand(members: np.ndarray, counts: np.ndarray, order: np.ndarray,
            first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``(members[p], order[first[p] + k])`` for each ``p`` and ``k < counts[p]``."""
    rows = np.repeat(np.arange(len(counts)), counts)
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts) + first[rows]
    return members[rows], order[cols]


def _pairs_from_cells(key: np.ndarray,
                      width: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Candidate index pairs ``(i, j)`` whose points share a cell neighbourhood, in blocks.

    ``i < j`` within one cell; otherwise ``j`` lies in a ``NEIGHBOURS`` cell
    of ``i``'s, so every nearby pair appears exactly once.  A cell of ``c``
    points emits ``c(c-1)/2`` own pairs and ``c`` times its neighbours'
    counts.  A block ends at the cell whose emission reaches the next
    multiple of ``NARROW_BLOCK``, so it holds less than ``NARROW_BLOCK`` plus
    one cell's pairs, and only its own points get index arrays.
    """
    order = np.argsort(key, kind="stable")
    cells, start, count = np.unique(key[order], return_index=True, return_counts=True)
    near_cells, near_counts = [], []    # per neighbour: its cell, its count (0 if absent)
    for dx, dy in NEIGHBOURS:
        target = cells + (dx * width + dy)
        near = np.minimum(np.searchsorted(cells, target), len(cells) - 1)
        near_cells.append(near)
        near_counts.append(np.where(cells[near] == target, count[near], 0))
    emitted = np.cumsum(count * (count - 1) // 2 + count * sum(near_counts))
    cuts = np.searchsorted(emitted, np.arange(NARROW_BLOCK, emitted[-1], NARROW_BLOCK)) + 1
    ends = np.unique(np.concatenate([[0], cuts, [len(cells)]]))
    for lo, hi in zip(ends[:-1], ends[1:]):
        slot = np.repeat(np.arange(lo, hi), count[lo:hi])    # cell of each sorted position
        pos = np.arange(start[lo], start[lo] + len(slot))
        members = order[pos]
        parts = [_expand(members, start[slot] + count[slot] - pos - 1, order, pos + 1)]
        parts += [_expand(members, counts[slot], order, start[near[slot]])
                  for near, counts in zip(near_cells, near_counts)]
        yield np.concatenate([i for i, _ in parts]), np.concatenate([j for _, j in parts])


def _scan_first(i: np.ndarray, j: np.ndarray, key: np.ndarray, width: int) -> int:
    """Position of the pair that a cell-by-cell scan meets first.

    The scan takes the cells by their smallest member; within a cell, the
    pairs with each ``NEIGHBOURS`` cell in turn and then its own pairs; and
    within each of those, the pairs by member index (this cell's first).
    """
    cells, lowest = np.unique(key, return_index=True)
    owner = lowest[np.searchsorted(cells, key[i])]
    step = key[j] - key[i]
    # the steps 1, width-1, width, width+1 follow NEIGHBOURS; own pairs last
    group = np.where(step == 0, width + 2, step)
    return int(np.lexsort((j, i, group, owner))[0])


def _segments_meet(p: np.ndarray, q: np.ndarray, lengths: np.ndarray,
                   i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Whether segment ``i[k]`` crosses or touches segment ``j[k]``, for each ``k``.

    Segment ``s`` runs from ``p[s]`` to ``q[s]`` and has length ``lengths[s]``.
    """
    a0, a1, b0, b1 = p[i], q[i], p[j], q[j]
    ea, eb = a1 - a0, b1 - b0
    la, lb = lengths[i], lengths[j]

    def cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return u.real * v.imag - u.imag * v.real

    # each endpoint of one segment, relative to the start of the other
    ends = ((ea, la, b0 - a0), (ea, la, b1 - a0), (eb, lb, a0 - b0), (eb, lb, a1 - b0))
    d1, d2, d3, d4 = (cross(edge, rel) for edge, _, rel in ends)
    meet = (d1 * d2 < 0) & (d3 * d4 < 0)
    # touching or collinear contacts: an endpoint of one lies on the other
    scale = la * lb + 1e-300
    for dd, (edge, length, rel) in zip((d1, d2, d3, d4), ends):
        on_line = np.flatnonzero(np.abs(dd) <= 1e-14 * scale)
        t = np.real(rel[on_line] * np.conj(edge[on_line]))
        meet[on_line] |= (t >= 0) & (t <= length[on_line] ** 2)
    return meet


def injectivity(curve: PLCurve) -> tuple[bool, Optional[tuple[int, int]]]:
    """Segment-pair self-intersection test over the polyline.

    Non-adjacent segments may not meet at all; adjacent segments may share
    only their common vertex (a fold-back onto the previous segment counts
    as an intersection).  Fold-backs are scanned first, ``_BLOCK`` segments
    at a time with consecutive blocks sharing a segment, so each pair of
    neighbours lies in one block.  A polyline whose vertices' first
    coordinates strictly increase is then certified exactly, since that
    compares stored floats (a difference of doubles is positive exactly
    when the first is larger, so the same scan reads it off the chords): it
    is a graph, so non-adjacent segments have disjoint projections on the
    first axis and adjacent ones share only their common vertex.

    Every other polyline gets a double-precision orientation test, not an
    exact one: float cross products decide the side, and a contact counts
    as collinear when its cross product is at most ``1e-14`` times the
    product of the two segment lengths.  Its broad phase is array-only:
    segment midpoints are bucketed in a grid whose cell is the longest
    segment, and only pairs in the same or a neighbouring cell are tested.
    Both phases run in blocks of about ``NARROW_BLOCK`` pairs, cut at cell
    boundaries, and only the offending pairs of each block are kept.  The
    returned witness is the first fold-back, else the offending pair that
    the cell-by-cell scan of ``_scan_first`` meets first.
    """
    if curve.n_segments < 2:
        return True, None
    graph = True
    for start, t, _ in curve.segment_blocks(overlap=1):
        lengths = np.abs(t)
        dots = np.real(t[1:] * np.conj(t[:-1]))
        norms = lengths[1:] * lengths[:-1]
        folded = (norms > 0) & (dots / np.where(norms > 0, norms, 1.0) < -1 + 1e-12)
        if np.any(folded):
            i = start + int(np.argmax(folded))
            return False, (i, i + 1)
        graph = graph and bool(np.all(t.real > 0))
    if graph:
        return True, None
    p = curve.z[:-1]
    q = curve.z[1:]
    lengths = np.abs(q - p)
    cell = max(float(np.max(lengths)), 1e-12)
    mid = (p + q) / 2.0
    key, width = _cell_keys(mid.real, mid.imag, cell)
    bad_first, bad_second = [], []
    for first, second in _pairs_from_cells(key, width):
        apart = np.abs(first - second) > 1
        first, second = first[apart], second[apart]
        meet = _segments_meet(p, q, lengths, first, second)
        bad_first.append(first[meet])
        bad_second.append(second[meet])
    first, second = np.concatenate(bad_first), np.concatenate(bad_second)
    if len(first) == 0:
        return True, None
    k = _scan_first(first, second, key, width)
    return False, (int(first[k]), int(second[k]))


# ---------------------------------------------------------------------------
# non-triviality
# ---------------------------------------------------------------------------

def discontinuity_orbit(iet: IETState, depth: int) -> np.ndarray:
    """Forward orbit parameters of the interior discontinuities up to ``depth``."""
    points = set()
    for e in iet.e0_num[1:-1]:
        x = e
        for _ in range(depth + 1):
            points.add(x)
            x = apply_exact(iet, x)
    den = iet.denominator
    return np.array(sorted(float(Fraction(v, den)) for v in points))


def _line_residual(pts: np.ndarray) -> float:
    xy = np.stack([pts.real, pts.imag], axis=1)
    centered = xy - xy.mean(axis=0)
    _, s, _ = np.linalg.svd(centered, full_matrices=False)
    return float(s[-1] / np.sqrt(len(pts)))


def _circle_residual(pts: np.ndarray) -> float:
    x, y = pts.real, pts.imag
    a_mat = np.stack([x, y, np.ones_like(x)], axis=1)
    rhs = -(x * x + y * y)
    coef, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    cx, cy = -coef[0] / 2.0, -coef[1] / 2.0
    rr = cx * cx + cy * cy - coef[2]
    if rr <= 0:
        return float("inf")
    radius = float(np.sqrt(rr))
    # one geometric refinement step on (cx, cy, radius)
    for _ in range(1):
        dx, dy = x - cx, y - cy
        dist = np.hypot(dx, dy)
        dist[dist == 0] = 1e-300
        res = dist - radius
        jac = np.stack([-dx / dist, -dy / dist, -np.ones_like(dist)], axis=1)
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        cx, cy, radius = cx + step[0], cy + step[1], radius + step[2]
    dist = np.hypot(x - cx, y - cy)
    return float(np.sqrt(np.mean((dist - radius) ** 2)))


def nontriviality(curve: PLCurve, cut_params: Sequence[float]) -> VerificationReport:
    """Classify the curve pieces between cuts as line-like, arc-like or neither.

    Each piece is sampled uniformly in parameter (uniform in arc length by
    unit speed); a piece witnesses non-triviality when both normalized fit
    residuals exceed the threshold.  Pieces with fewer than 4 vertices are
    recorded as degenerate and skipped.
    """
    cuts = np.union1d(np.asarray(cut_params, dtype=float), [0.0, curve.length])
    cuts = cuts[(cuts >= 0.0) & (cuts <= curve.length)]
    report = VerificationReport()
    best = 0.0
    best_piece = None
    degenerate = 0
    pieces = 0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1e-12:
            continue
        pieces += 1
        inner = curve.x[(curve.x > lo) & (curve.x < hi)]
        if len(inner) + 2 < 4:
            degenerate += 1
            continue
        params = np.union1d(np.linspace(lo, hi, PIECE_SAMPLES), inner)
        pts = curve.evaluate(params)
        arc = hi - lo
        line_res = _line_residual(pts) / arc
        circle_res = _circle_residual(pts) / arc
        score = min(line_res, circle_res)
        if score > best:
            best = score
            best_piece = (float(lo), float(hi), line_res, circle_res)
    meta = {"pieces": pieces, "degenerate": degenerate, "threshold": TOL_NONTRIVIAL,
            "threshold_is_reporting_convention": True,
            "best_min_residual": best}
    if best_piece is not None:
        meta["witness"] = {"lo": best_piece[0], "hi": best_piece[1],
                           "line_residual": best_piece[2],
                           "circle_residual": best_piece[3]}
    # defect = margin still missing below the threshold (0 when non-trivial)
    report.add("nontrivial", max(0.0, TOL_NONTRIVIAL - best), 0.0, meta=meta)
    return report


# ---------------------------------------------------------------------------
# isometric parametrization
# ---------------------------------------------------------------------------

def isometry_defect(curve: PLCurve) -> float:
    """Supremum of |arc length up to x minus x| over the domain.

    Both are linear on each segment, so the supremum is the maximum over the
    breakpoints and the right end.
    """
    return float(np.max(np.abs(curve.cumulative_arc_length() - curve.segment_bounds())))
