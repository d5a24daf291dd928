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
from math import atan, pi
from typing import Optional, Sequence

import numpy as np

from .breaking import PLCurve, ThetaSeq, sup_distance
from .iet import IETState, apply_exact
from .pwi import AdaptedPWI, PlanarIsometry, hat_maps, inductive_maps, map_distance
from .rauzy import InductionTrace

#: normalized residual above which a curve piece counts as neither a line
#: segment nor a circle arc; fit noise sits near 1e-8, curved pieces orders
#: of magnitude higher, so the threshold is a reporting convention
TOL_NONTRIVIAL = 1e-3

#: uniform samples per curve piece of the non-triviality fits
PIECE_SAMPLES = 512


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
                "meta": _jsonify(self.meta)}


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, check: str, defect: float, tol: float,
            n: Optional[int] = None, m: Optional[int] = None,
            meta: Optional[dict] = None) -> CheckResult:
        defect = float(defect)
        tol = float(tol)
        if not np.isfinite(defect) or defect < 0:
            raise ValueError(f"defect must be a finite nonnegative real, got {defect}")
        result = CheckResult(check, defect, tol, defect <= tol, n, m, meta or {})
        self.checks.append(result)
        return result

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def max_defect(self, prefix: str = "") -> float:
        vals = [c.defect for c in self.checks if c.check.startswith(prefix)]
        return max(vals) if vals else 0.0

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

def _conjugacy_defect(curve: PLCurve, maps: Sequence[PlanarIsometry], state: IETState,
                      floor: int = 0) -> float:
    """Largest ``|maps[s](curve(x)) - curve(x + u_s)|`` over the ``x`` whose image is ``>= floor``.

    ``s`` is the symbol of the atom holding ``x`` and ``u_s`` its translation
    under the exchange ``state``; ``floor`` is a numerator over the state's
    denominator, so each atom's kept region is decided on exact numerators.
    On a region the defect is affine between kinks, so its supremum is the
    maximum over the region's two ends (the right one as a limit), the curve
    breakpoints inside it and their preimages ``curve.x - u_s``; 0 when no
    region is kept.
    """
    den = state.denominator
    worst = 0.0
    for slot, symbol in enumerate(state.perm.top):
        lo = max(state.e0_num[slot], floor - state.upsilon_num[symbol])
        hi = state.e0_num[slot + 1]
        if lo >= hi:
            continue
        lo, hi = lo / den, hi / den
        shift = state.upsilon[symbol]
        kinks = np.concatenate([curve.x, curve.x - shift])
        xs = np.concatenate([[lo], kinks[(kinks > lo) & (kinks < hi)], [hi]])
        fx = np.minimum(xs + shift, curve.length)
        gap = maps[symbol](curve.evaluate(xs)) - curve.evaluate(fx)
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def embedding_defect(curve: PLCurve, pwi: AdaptedPWI, iet: IETState) -> float:
    """Supremum conjugacy defect of the curve between the exchange and the maps.

    The maximum over its kink set (see ``_conjugacy_defect``), over the whole
    domain: atom ends count as one-sided limits, so no neighbourhood of a
    discontinuity is left out.
    """
    return _conjugacy_defect(curve, pwi.maps, iet)


# ---------------------------------------------------------------------------
# quasi-embedding suite
# ---------------------------------------------------------------------------

def quasi_embedding_suite(trace: InductionTrace, curves: Sequence[PLCurve], theta_seq: ThetaSeq,
                          depth: int, tol_scale: float = 1e-9) -> VerificationReport:
    """Map agreement and conjugacy defects for every level pair.

    For levels ``m <= n <= depth`` the inductively built family must equal
    the directly built one as maps of the plane, and must intertwine the
    level-``m`` exchange with the level-``n`` curve outside the pullback of
    the level-``n`` interval.  Two isometries differ by an affine map, whose
    modulus peaks at a corner of the compared box ``[-b, b]^2`` (``b`` the
    larger of 1 and the domain length); the conjugacy defect is a maximum
    over its kink set.  Both defects carry tolerance ``tol_scale * (1 + n)``.
    """
    report = VerificationReport()
    corners = max(1.0, trace.initial.total) * np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    for n in range(depth + 1):
        curve = curves[n]
        families = inductive_maps(trace, curve, theta_seq, n)
        for m in range(n + 1):
            direct = hat_maps(curve, trace, m, theta_seq.entries[m], n)
            agree = max(map_distance(a, b, corners) for a, b in zip(direct, families[m]))
            report.add("map_agreement", agree, tol_scale * (1 + n), n=n, m=m)
            defect = _conjugacy_defect(curve, families[m], trace.states[m],
                                       trace.states[n].total_num)
            report.add("quasi_embedding", defect, tol_scale * (1 + n), n=n, m=m)
    return report


# ---------------------------------------------------------------------------
# convergence of the curve sequence
# ---------------------------------------------------------------------------

def lipschitz_constant(curve: PLCurve) -> float:
    """Largest slope of the curve over its first coordinate; inf if vertical."""
    t = curve.tangents()
    re = np.abs(t.real)
    if np.any(re < 1e-15):
        return float("inf")
    return float(np.max(np.abs(t.imag) / re))


def convergence_report(curves: Sequence[PLCurve], theta_seq: ThetaSeq,
                       trace: InductionTrace) -> VerificationReport:
    """Per-level increment bounds and cone control for the curve sequence.

    Each increment must stay under ``4 |lambda| sin(|angle|/2)`` for the
    angle applied at that level; the report also carries the empirical
    telescoping constant and the divergence flag used by negative controls.
    """
    if len(curves) < 3:
        raise ValueError("need at least 3 curves")
    total = trace.initial.total
    report = VerificationReport()
    incs = []
    bounds = []
    dists = theta_seq.distances()
    for n in range(len(curves) - 1):
        inc = sup_distance(curves[n + 1], curves[n])
        bound = 4.0 * total * abs(np.sin(theta_seq.breaking_angle(n) / 2.0))
        incs.append(inc)
        bounds.append(float(bound))
        report.add("increment_bound", inc, bound + 1e-12, n=n,
                   meta={"bound": float(bound), "slack": float(bound - inc)})
    incs_arr = np.array(incs)
    bounds_arr = np.array(bounds)
    positive = dists[:len(incs)] > 0
    c_emp = float(np.max(incs_arr[positive] / (total * dists[:len(incs)][positive]))) \
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
    angle_sum = float(np.sum(dists[:len(incs)]))
    lips = lipschitz_constant(curves[-1])
    if angle_sum < 0.49 * pi and np.isfinite(lips):
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

#: pairs tested per block of the narrow phase, which bounds its temporaries
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


def _expand(order: np.ndarray, counts: np.ndarray,
            first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``(order[p], order[first[p] + k])`` for each ``p`` and ``k < counts[p]``."""
    rows = np.repeat(np.arange(len(counts)), counts)
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts) + first[rows]
    return order[rows], order[cols]


def _pairs_from_cells(key: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Candidate index pairs ``(i, j)`` whose points share a cell neighbourhood.

    ``i < j`` within one cell; otherwise ``j`` lies in a ``NEIGHBOURS`` cell
    of ``i``'s, so every nearby pair appears exactly once.
    """
    order = np.argsort(key, kind="stable")
    cells, start, count = np.unique(key[order], return_index=True, return_counts=True)
    slot = np.repeat(np.arange(len(cells)), count)      # cell of each sorted position
    pos = np.arange(len(key))
    parts = [_expand(order, start[slot] + count[slot] - pos - 1, pos + 1)]
    for dx, dy in NEIGHBOURS:
        target = cells + (dx * width + dy)
        found = np.minimum(np.searchsorted(cells, target), len(cells) - 1)
        counts = np.where(cells[found] == target, count[found], 0)
        parts.append(_expand(order, counts[slot], start[found][slot]))
    return np.concatenate([i for i, _ in parts]), np.concatenate([j for _, j in parts])


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

    A double-precision orientation test, not an exact one: float cross
    products decide the side, and a contact counts as collinear when its
    cross product is at most ``1e-14`` times the product of the two segment
    lengths.  Non-adjacent segments may not meet at all; adjacent segments
    may share only their common vertex (a fold-back onto the previous
    segment counts as an intersection).

    The broad phase is array-only: segment midpoints are bucketed in a grid
    whose cell is the longest segment, and only pairs in the same or a
    neighbouring cell are tested, in blocks of ``NARROW_BLOCK`` pairs.  The
    returned witness is the first fold-back, else the offending pair that
    the cell-by-cell scan of ``_scan_first`` meets first.
    """
    p = curve.z[:-1]
    q = curve.z[1:]
    if len(p) < 2:
        return True, None
    t = q - p
    lengths = np.abs(t)
    dots = np.real(t[1:] * np.conj(t[:-1]))
    norms = lengths[1:] * lengths[:-1]
    folded = (norms > 0) & (dots / np.where(norms > 0, norms, 1.0) < -1 + 1e-12)
    if np.any(folded):
        i = int(np.argmax(folded))
        return False, (i, i + 1)
    cell = max(float(np.max(lengths)), 1e-12)
    mid = (p + q) / 2.0
    key, width = _cell_keys(mid.real, mid.imag, cell)
    first, second = _pairs_from_cells(key, width)
    apart = np.abs(first - second) > 1
    first, second = first[apart], second[apart]
    hits = [lo + np.flatnonzero(_segments_meet(p, q, lengths, first[lo:lo + NARROW_BLOCK],
                                               second[lo:lo + NARROW_BLOCK]))
            for lo in range(0, len(first), NARROW_BLOCK)]
    bad = np.concatenate([np.empty(0, dtype=np.int64), *hits])
    if len(bad) == 0:
        return True, None
    k = bad[_scan_first(first[bad], second[bad], key, width)]
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


def is_nontrivial(report: VerificationReport) -> bool:
    return report.checks[0].defect == 0.0


# ---------------------------------------------------------------------------
# isometric parametrization
# ---------------------------------------------------------------------------

def isometry_defect(curve: PLCurve) -> float:
    """Supremum of |arc length up to x minus x| over the domain.

    Both are linear on each segment, so the supremum is the maximum over the
    breakpoints and the right end.
    """
    return float(np.max(np.abs(curve.cumulative_arc_length() - curve.segment_bounds())))
