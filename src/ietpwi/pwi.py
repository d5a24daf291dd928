"""Planar piecewise isometries adapted to an interval exchange.

The per-symbol maps are rotations-with-offset ``z -> e^{i angle}(z - a) + b``
kept in anchored form: ``a`` is a distinguished source point and ``b`` its
image; a family of them is one ``PlanarIsometry`` with array fields.  Two
families are built from a curve and a renormalization trace:
the direct family, which rearranges the curve pieces of one level according
to the permutation there, and the inductive family, obtained from the
deepest level by reversing one induction step at a time.  Their agreement,
and the conjugacy between the exchange and the maps along the curve, are
the quantitative content checked by the verification layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import tau
from typing import Optional, Sequence, Union

import numpy as np

from .breaking import PLCurve, ThetaSeq, _product
from .errors import (AtomMissesCurve, AtomsOverlap, InvalidInput, LevelMismatch,
                     UnclassifiablePoint)
from .iet import IETState, Permutation, slot_at
from .rauzy import InductionTrace


# ---------------------------------------------------------------------------
# isometries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanarIsometry:
    """Orientation-preserving planar isometry ``z -> e^{i angle}(z - a) + b``, or a family of them.

    With array fields, entry ``k`` is one map: indexing, ``len`` and calls act as numpy's do.
    """

    angle: Union[float, np.ndarray]
    a: Union[complex, np.ndarray]
    b: Union[complex, np.ndarray]

    def __call__(self, z: Union[complex, np.ndarray]) -> Union[complex, np.ndarray]:
        return np.exp(1j * self.angle) * (z - self.a) + self.b

    def __len__(self) -> int:
        return len(self.angle)

    def __getitem__(self, key) -> "PlanarIsometry":
        return PlanarIsometry(self.angle[key], self.a[key], self.b[key])

    def inverse(self) -> "PlanarIsometry":
        return PlanarIsometry(-self.angle % tau, self.b, self.a)

    def compose(self, other: "PlanarIsometry") -> "PlanarIsometry":
        """``self`` after ``other``."""
        rot = np.exp(1j * self.angle)
        return PlanarIsometry(
            (self.angle + other.angle) % tau,
            other.a,
            rot * (other.b - self.a) + self.b,
        )


def map_distance(s: PlanarIsometry, t: PlanarIsometry,
                 points: np.ndarray) -> float:
    """Largest displacement between two isometries over sample points."""
    return float(np.max(np.abs(s(points) - t(points))))


# ---------------------------------------------------------------------------
# the direct family
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _chain_indices(perm: Permutation) -> np.ndarray:
    """Indices of a direct family's chain on one ``d + 1`` point grid, one row each.

    The bottom row's symbols from the right and the top-row right end of
    each, then per symbol its top-row right end and its corner's place in
    the chain, which runs from the right.
    """
    pos0, pos1 = perm.positions
    symbols = perm.bottom[::-1]
    indices = np.array([symbols, [pos0[s] + 1 for s in symbols], [p + 1 for p in pos0],
                        [perm.d - p - 1 for p in pos1]])
    indices.setflags(write=False)
    return indices


def _rotation_vectors(thetas: Sequence[Sequence[float]], d: int) -> np.ndarray:
    """``thetas`` as a float array, a row per vector; ``InvalidInput`` unless each is ``d`` finite."""
    for vector in thetas:
        if len(vector) != d:
            raise InvalidInput(f"rotation vector has {len(vector)} entries, "
                               f"the exchange has {d} symbols")
    theta = np.array(thetas, dtype=float)
    if not np.isfinite(theta).all():
        raise InvalidInput(f"rotation vector entries must be finite, got {theta.tolist()}")
    return theta


def hat_maps(curve: PLCurve, trace: InductionTrace, levels: Sequence[int],
             thetas: Sequence[Sequence[float]], n: int) -> PlanarIsometry:
    """Direct families of a level-``n`` curve, one per grid level: rotate each piece onto its slot.

    Entry ``k`` is the family of grid level ``levels[k]``, whose rotation
    vector is ``thetas[k]`` (``d`` finite numbers, else ``InvalidInput``).
    The curve is evaluated once, on the union of the levels' top-row
    endpoint grids.  The chain corner ``xi[j]`` is where
    the right endpoint of the ``j``-th rearranged piece must land for the
    rearranged pieces to join into a continuous curve; each chain is
    anchored at the rightmost point and built backwards, every level's at
    once: each step's rotated piece is rounded as the scalar complex product
    rounds it (``breaking._product``), and the corners are one running sum
    per level from the right.  Each map sends its piece's right endpoint to
    its corner, so its left endpoint lands on the previous corner by
    construction; the assertion guards index errors.
    """
    states = []
    for m in levels:
        if m > trace.n_steps:
            raise LevelMismatch(f"trace holds {trace.n_steps} levels, need {m}")
        if m > n:
            raise LevelMismatch(f"grid level {m} exceeds curve level {n}")
        state = trace.states[m]
        if state.total > curve.length * (1 + 1e-12):
            raise LevelMismatch("level grids extend past the curve domain")
        states.append(state)
    count, d = len(states), trace.d
    if len(thetas) != count:
        raise InvalidInput(f"need one rotation vector per grid level, got {len(thetas)}")
    theta = _rotation_vectors(thetas, d)
    gamma = curve.evaluate(np.concatenate([state.endpoints0 for state in states]))
    # each level's indices, shifted to its row of gamma and of theta
    symbols, hat, p0, p1 = np.array([_chain_indices(state.perm) for state in states]).swapaxes(0, 1)
    level = np.arange(count)[:, None]
    hat += level * (d + 1)
    p0 += level * (d + 1)
    p1 += level * (d + 1)
    rot = np.exp(1j * theta.take(symbols + level * d))
    piece = gamma.take(hat - 1)
    piece -= gamma.take(hat)
    chain = np.empty((count, d + 1), dtype=complex)
    chain[:, 0] = gamma[d::d + 1]
    _product(rot, piece, chain[:, 1:])
    chain = np.add.accumulate(chain, axis=1).ravel()
    maps = PlanarIsometry(np.mod(theta, tau), gamma.take(p0), chain.take(p1))
    # the left end of each piece lands on the corner before its own
    gap = maps(gamma.take(p0 - 1))
    gap -= chain.take(p1 + 1)
    scale = np.maximum(np.abs(gamma).reshape(count, d + 1).max(axis=1, keepdims=True), 1.0)
    if (np.abs(gap) > 1e-9 * scale).any():
        raise AssertionError("rearranged pieces do not join continuously")
    return maps


def inductive_maps(trace: InductionTrace, curve_n: PLCurve, theta_seq: ThetaSeq,
                   n: int) -> PlanarIsometry:
    """Families at levels ``0..n`` built by reversing induction steps from level ``n``.

    Entry ``m`` is the level-``m`` family.  The base family is the direct one
    at the deepest level (``unwind_maps`` walks back from it).
    """
    if n > trace.n_steps or n > theta_seq.depth:
        raise LevelMismatch("trace or rotation data shallower than the curve level")
    return unwind_maps(trace, hat_maps(curve_n, trace, [n], [theta_seq.entries[n]], n)[0], n)


def unwind_maps(trace: InductionTrace, maps: PlanarIsometry, n: int) -> PlanarIsometry:
    """Families at levels ``0..n``, walked back from the level-``n`` family ``maps``.

    Entry ``m`` is the level-``m`` family.  Each backward step rewrites the
    loser's map alone, composing it with the winner's inverse on the side
    the step type decides (as ``compose`` forms it, on Python scalars), so
    one walk from ``n`` to 0 yields every level.
    """
    angle, a, b = maps.angle.tolist(), maps.a.tolist(), maps.b.tolist()
    rows = [(angle, a, b)]
    for step in reversed(trace.steps[:n]):
        won, lost = step.winner, step.loser
        angle, a, b = angle.copy(), a.copy(), b.copy()
        inverse = -angle[won] % tau
        if step.type_eps == 0:  # the winner's inverse after the loser
            b[lost] = np.exp(1j * inverse) * (b[lost] - b[won]) + a[won]
        else:  # the loser after the winner's inverse
            a[lost], b[lost] = b[won], np.exp(1j * angle[lost]) * (a[won] - a[lost]) + b[lost]
        angle[lost] = (inverse + angle[lost]) % tau
        rows.append((angle, a, b))
    return PlanarIsometry(*(np.array(column[::-1]) for column in zip(*rows)))


# ---------------------------------------------------------------------------
# adapted piecewise isometries
# ---------------------------------------------------------------------------

@dataclass
class CurveParameterAtoms:
    """Atom rule: classify a point by the parameter of its nearest curve point.

    Exact for points on the curve; elsewhere it implements the nearest-piece
    partition of the plane.  ``boundaries`` are the atom breakpoints in
    parameter space.
    """

    curve: PLCurve
    boundaries: np.ndarray

    def nearest_parameter(self, z: complex) -> tuple[float, float]:
        """Parameter and distance of the closest curve point."""
        starts = self.curve.z[:-1]
        tangents = self.curve.tangents()
        seg_len = self.curve.segment_lengths()
        t = np.real((z - starts) * np.conj(tangents))
        t = np.clip(t, 0.0, seg_len)
        d2 = np.abs(z - (starts + t * tangents))
        i = int(np.argmin(d2))
        return float(self.curve.x[i] + t[i]), float(d2[i])

    def classify(self, z: complex) -> int:
        """Slot of the atom holding ``z``."""
        param, _ = self.nearest_parameter(z)
        return int(slot_at(self.boundaries, param))


@dataclass
class PolygonAtoms:
    """Atom rule from user-supplied convex polygons (one vertex loop each)."""

    polygons: list[np.ndarray]
    tol: float = 1e-12

    def contains(self, k: int, z: complex) -> bool:
        poly = self.polygons[k]
        p = np.array([z.real, z.imag])
        prev = None
        for i in range(len(poly)):
            a, b = poly[i], poly[(i + 1) % len(poly)]
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if abs(cross) <= self.tol:
                continue
            side = cross > 0
            if prev is None:
                prev = side
            elif side != prev:
                return False
        return True

    def classify(self, z: complex) -> int:
        """Slot of the polygon holding ``z``."""
        for k in range(len(self.polygons)):
            if self.contains(k, z):
                return k
        raise UnclassifiablePoint(f"point {z} lies outside all atoms")


def _polygons_disjoint(polygons: list[np.ndarray]) -> bool:
    """Pairwise disjointness of convex polygons by the separating-axis test."""
    def axes(poly: np.ndarray) -> np.ndarray:
        edges = np.roll(poly, -1, axis=0) - poly
        normals = np.stack([-edges[:, 1], edges[:, 0]], axis=1)
        return normals

    for i in range(len(polygons)):
        for j in range(i + 1, len(polygons)):
            a, b = polygons[i], polygons[j]
            separated = False
            for axis in np.vstack([axes(a), axes(b)]):
                pa = a @ axis
                pb = b @ axis
                if pa.max() <= pb.min() + 1e-12 or pb.max() <= pa.min() + 1e-12:
                    separated = True
                    break
            if not separated:
                return False
    return True


@dataclass
class AdaptedPWI:
    """A piecewise isometry whose atoms carry the pieces of an invariant curve.

    ``maps`` is one family of ``d`` maps, ``maps[s]`` the isometry of symbol
    ``s``; the atoms are indexed by top-row slot, so the atom in slot ``j``
    carries symbol ``iet.perm.top[j]``.
    """

    theta: np.ndarray
    maps: PlanarIsometry
    iet: IETState
    curve: PLCurve
    atoms: Union[CurveParameterAtoms, PolygonAtoms]

    @property
    def d(self) -> int:
        return len(self.maps)

    def classify(self, z: complex) -> int:
        """Symbol of the atom holding ``z``."""
        return self.iet.perm.top[self.atoms.classify(z)]

    def apply(self, z: complex) -> complex:
        return complex(self.maps[self.classify(z)](z))

    def to_json(self) -> dict:
        return {
            "theta": [float(t) for t in self.theta],
            "maps": [
                {"symbol": s, "angle": m.angle,
                 "a": [m.a.real, m.a.imag], "b": [m.b.real, m.b.imag]}
                for s, m in enumerate(self.maps)
            ],
        }


def adapted_pwi(curve_limit: PLCurve, iet: IETState,
                theta: Sequence[float],
                polygons: Optional[list[np.ndarray]] = None) -> AdaptedPWI:
    """Build the per-symbol family anchored at the curve's atom left endpoints.

    ``curve_limit`` should be a deep member of the curve sequence; the maps
    send each atom's left curve point to the curve point of its exchange
    image.  ``theta`` must be ``d`` finite numbers (``InvalidInput``).
    Default atoms classify by nearest curve parameter; convex polygon atoms
    are validated for disjointness and curve containment.
    """
    theta_arr = np.mod(_rotation_vectors([theta], iet.d)[0], tau)
    lefts = iet.endpoints0.take(iet.perm.positions[0])
    # each symbol's own translation: a lookup of its left end on the float
    # grid finds another atom where this one is narrower than a spacing
    ends = curve_limit.evaluate(np.concatenate([lefts, lefts + iet.upsilon]))
    maps = PlanarIsometry(theta_arr, ends[:iet.d], ends[iet.d:])
    if polygons is None:
        return AdaptedPWI(theta_arr, maps, iet, curve_limit,
                          CurveParameterAtoms(curve_limit, iet.endpoints0.copy()))
    if len(polygons) != iet.d:
        raise InvalidInput(f"need one polygon per atom, {iet.d} in all, got {len(polygons)}")
    if not _polygons_disjoint(polygons):
        raise AtomsOverlap("supplied atoms intersect")
    rule = PolygonAtoms(polygons)
    # a convex polygon holds a segment iff it holds both ends, so each atom's
    # curve vertices decide, its right end taken as a limit
    for slot in range(iet.d):
        lo, hi = iet.endpoints0[slot], iet.endpoints0[slot + 1]
        inner = curve_limit.x[(curve_limit.x > lo) & (curve_limit.x < hi)]
        pts = curve_limit.evaluate(np.concatenate([[lo], inner, [hi]]))
        if not all(rule.contains(slot, complex(p)) for p in pts):
            raise AtomMissesCurve(f"atom {slot} misses its curve piece")
    return AdaptedPWI(theta_arr, maps, iet, curve_limit, rule)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def iterate(pwi: AdaptedPWI, z: complex, k: int) -> tuple[np.ndarray, list[int]]:
    """Orbit of length ``k+1`` with its atom itinerary."""
    orbit = np.empty(k + 1, dtype=complex)
    itinerary = []
    orbit[0] = z
    for step in range(k):
        symbol = pwi.classify(complex(orbit[step]))
        itinerary.append(symbol)
        orbit[step + 1] = pwi.maps[symbol](orbit[step])
    return orbit, itinerary


def orbit_to_csv(orbit: np.ndarray, itinerary: list[int]) -> str:
    lines = ["step,re,im,atom"]
    for i, z in enumerate(orbit):
        atom = itinerary[i] if i < len(itinerary) else ""
        lines.append(f"{i},{float(z.real)!r},{float(z.imag)!r},{atom}")
    return "\n".join(lines) + "\n"
