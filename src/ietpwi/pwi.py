"""Planar piecewise isometries adapted to an interval exchange.

The per-symbol maps are rotations-with-offset ``z -> e^{i angle}(z - a) + b``
kept in anchored form: ``a`` is a distinguished source point and ``b`` its
image.  Two families are built from a curve and a renormalization trace:
the direct family, which rearranges the curve pieces of one level according
to the permutation there, and the inductive family, obtained from the
deepest level by reversing one induction step at a time.  Their agreement,
and the conjugacy between the exchange and the maps along the curve, are
the quantitative content checked by the verification layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import tau
from typing import Optional, Sequence, Union

import numpy as np

from .breaking import PLCurve, ThetaSeq, theta_sequence
from .errors import (AtomMissesCurve, AtomsOverlap, InvalidInput, LevelMismatch,
                     UnclassifiablePoint)
from .iet import IETState, apply as iet_apply, slot_at
from .rauzy import InductionTrace, return_word


# ---------------------------------------------------------------------------
# isometries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanarIsometry:
    """Orientation-preserving planar isometry ``z -> e^{i angle}(z - a) + b``."""

    angle: float
    a: complex
    b: complex

    def __call__(self, z: Union[complex, np.ndarray]) -> Union[complex, np.ndarray]:
        return np.exp(1j * self.angle) * (z - self.a) + self.b

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

    @property
    def translation(self) -> complex:
        """Offset of the ``z -> e^{i angle} z + translation`` normal form."""
        return self.b - np.exp(1j * self.angle) * self.a

    def fixed_point(self) -> complex:
        rot = np.exp(1j * self.angle)
        if abs(1.0 - rot) < 1e-14:
            raise ValueError("translations have no fixed point")
        return self.translation / (1.0 - rot)


def map_distance(s: PlanarIsometry, t: PlanarIsometry,
                 points: np.ndarray) -> float:
    """Largest displacement between two isometries over sample points."""
    return float(np.max(np.abs(s(points) - t(points))))


# ---------------------------------------------------------------------------
# the direct family
# ---------------------------------------------------------------------------

def hat_maps(curve: PLCurve, trace: InductionTrace, m: int,
             theta_m: Sequence[float], n: Optional[int] = None) -> list[PlanarIsometry]:
    """Direct level-``m`` family of a level-``n`` curve: rotate each piece onto its slot.

    The curve is read on the level-``m`` top-row endpoint grid.  The chain
    corner ``xi[j]`` is where the right endpoint of the ``j``-th rearranged
    piece must land for the rearranged pieces to join into a continuous
    curve; the chain is anchored at the rightmost point and built backwards.
    Each map sends its piece's right endpoint to its corner, so its left
    endpoint lands on the previous corner by construction; the assertion
    guards index errors.
    """
    if m > trace.n_steps:
        raise LevelMismatch(f"trace holds {trace.n_steps} levels, need {m}")
    if n is not None and m > n:
        raise LevelMismatch(f"grid level {m} exceeds curve level {n}")
    state = trace.states[m]
    if state.total > curve.length * (1 + 1e-12):
        raise LevelMismatch("level grids extend past the curve domain")
    theta_m = np.asarray(theta_m, dtype=float)
    d = state.d
    gamma0 = curve.evaluate(state.endpoints0)
    xi = np.empty(d + 1, dtype=complex)
    xi[d] = gamma0[d]
    for j in range(d - 1, -1, -1):
        symbol = state.perm.bottom[j]
        hat = state.perm.position0(symbol) + 1
        xi[j] = np.exp(1j * theta_m[symbol]) * (gamma0[hat - 1] - gamma0[hat]) + xi[j + 1]
    scale = max(1.0, float(np.max(np.abs(gamma0))))
    maps = []
    for symbol in range(d):
        p0 = state.perm.position0(symbol) + 1
        p1 = state.perm.position1(symbol) + 1
        iso = PlanarIsometry(float(theta_m[symbol]) % tau, complex(gamma0[p0]), complex(xi[p1]))
        if abs(iso(complex(gamma0[p0 - 1])) - xi[p1 - 1]) > 1e-9 * scale:
            raise AssertionError("rearranged pieces do not join continuously")
        maps.append(iso)
    return maps


def inductive_maps(trace: InductionTrace, curve_n: PLCurve, theta_seq: ThetaSeq,
                   n: int) -> list[list[PlanarIsometry]]:
    """Families at levels ``0..n`` built by reversing induction steps from level ``n``.

    Entry ``m`` is the level-``m`` family.  The base family is the direct one
    at the deepest level; each backward step rewrites the loser's map alone,
    composing it with the winner's inverse on the side the step type
    decides, so one walk from ``n`` to 0 yields every level.
    """
    if n > trace.n_steps or n > theta_seq.depth:
        raise LevelMismatch("trace or rotation data shallower than the curve level")
    maps = hat_maps(curve_n, trace, n, theta_seq.entries[n], n)
    families = [maps]
    for step in reversed(trace.steps[:n]):
        winner, loser = maps[step.winner], maps[step.loser]
        maps = list(maps)
        if step.type_eps == 0:
            maps[step.loser] = winner.inverse().compose(loser)
        else:
            maps[step.loser] = loser.compose(winner.inverse())
        families.append(maps)
    return families[::-1]


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

    ``maps[s]`` is the isometry of symbol ``s``; the atoms are indexed by
    top-row slot, so the atom in slot ``j`` carries symbol ``iet.perm.top[j]``.
    """

    theta: np.ndarray
    maps: list[PlanarIsometry]
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
    image.  Default atoms classify by nearest curve parameter; convex
    polygon atoms are validated for disjointness and curve containment.
    """
    theta_arr = np.mod(np.asarray([float(t) for t in theta], dtype=float), tau)
    maps = []
    for symbol in range(iet.d):
        pos = iet.perm.position0(symbol)
        x_left = float(iet.endpoints0[pos])
        image = iet_apply(iet, x_left)
        maps.append(PlanarIsometry(
            float(theta_arr[symbol]),
            complex(curve_limit.evaluate(x_left)),
            complex(curve_limit.evaluate(image)),
        ))
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
# induced family and orbits
# ---------------------------------------------------------------------------

def induced_pwi(pwi: AdaptedPWI, trace: InductionTrace, n: int) -> AdaptedPWI:
    """First-return family on the level-``n`` subinterval's curve piece.

    Each induced map composes the original per-symbol maps along the atom
    itinerary of the corresponding level-``n`` subinterval; the induced
    rotation vector is the cocycle push of the original one, and its atoms
    classify by curve parameter on the level-``n`` grid.
    """
    if n == 0:
        return pwi
    if n > trace.n_steps:
        raise LevelMismatch(f"trace holds {trace.n_steps} levels, need {n}")
    deep = trace.states[n]
    maps = []
    for symbol in range(pwi.d):
        word = return_word(trace, n, symbol)
        composed = pwi.maps[word[0]]
        for letter in word[1:]:
            composed = pwi.maps[letter].compose(composed)
        maps.append(composed)
    theta_n = theta_sequence(trace, pwi.theta, n).entries[n]
    return AdaptedPWI(theta_n, maps, deep, pwi.curve,
                      CurveParameterAtoms(pwi.curve, deep.endpoints0.copy()))


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
