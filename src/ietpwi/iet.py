"""Interval exchange transformations: permutation pairs, lengths, evaluation.

An interval exchange transformation (IET) is a bijection of ``[0, |lambda|)``
that translates each member of a finite partition into subintervals.  It is
determined by a positive length vector ``lambda`` and a pair of bijections
``(pi0, pi1)`` ordering the subintervals before and after the exchange.  All
intervals are closed on the left and open on the right.

Lengths are stored twice: as double-precision floats and as exact integer
numerators over a common denominator.  Every float is a dyadic rational, so
the exact form represents float input with no error; downstream orbit
computations (visit counts, interval orbits, endpoint-collision checks) run
on integers and are free of rounding decisions.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import BudgetExceeded, InvalidInput, NonPositiveLength, OutOfDomain

#: relative tolerance for endpoint-orbit coincidence in the finite
#: distinct-orbit check; distances below ``TOL_IDOC_REL * |lambda|``
#: count as collisions (conservative failure)
TOL_IDOC_REL = 1e-12

#: most pieces one computation may hold: the images ``piece_orbit`` lists and
#: the segments of a curve ``breaking.curve_levels`` is asked to build
PIECE_BUDGET = 10**7

LengthLike = Union[int, float, str, Fraction]


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Permutation:
    """A pair of orderings of ``d`` symbols.

    ``top`` lists the symbols ``0..d-1`` in domain order, ``bottom`` lists
    them in image order.  ``pi0(s)``/``pi1(s)`` are the 1-based positions of
    symbol ``s`` in the two rows.
    """

    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __post_init__(self) -> None:
        d = len(self.top)
        if d < 2:
            raise InvalidInput("need at least 2 symbols")
        if sorted(self.top) != list(range(d)) or sorted(self.bottom) != list(range(d)):
            raise InvalidInput("rows must each be a permutation of 0..d-1")

    @property
    def d(self) -> int:
        return len(self.top)

    def position0(self, symbol: int) -> int:
        """0-based position of ``symbol`` in the top row."""
        return self.top.index(symbol)

    def position1(self, symbol: int) -> int:
        """0-based position of ``symbol`` in the bottom row."""
        return self.bottom.index(symbol)

    def monodromy(self) -> tuple[int, ...]:
        """1-based positions: entry ``j`` is where domain slot ``j+1`` lands."""
        pos1 = {s: i for i, s in enumerate(self.bottom)}
        return tuple(pos1[s] + 1 for s in self.top)

    def monodromy_inverse(self) -> tuple[int, ...]:
        """Inverse of :meth:`monodromy`, also 1-based."""
        tilde = self.monodromy()
        inv = [0] * self.d
        for j, v in enumerate(tilde):
            inv[v - 1] = j + 1
        return tuple(inv)

    @classmethod
    def from_monodromy(cls, values: Union[str, Sequence[int]]) -> "Permutation":
        """Build with identity top row from 1-based targets, e.g. ``"4 3 2 1"``."""
        if isinstance(values, str):
            try:
                values = [int(p) for p in values.replace(",", " ").split()]
            except ValueError:
                raise InvalidInput(
                    f"monodromy entries must be integers: {values!r}") from None
        values = list(values)
        d = len(values)
        if sorted(values) != list(range(1, d + 1)):
            raise InvalidInput(f"monodromy must be a permutation of 1..d, got {values}")
        top = tuple(range(d))
        bottom = [0] * d
        for j, v in enumerate(values):
            bottom[v - 1] = j
        return cls(top, tuple(bottom))

    def to_json(self) -> dict:
        pi0 = [0] * self.d
        pi1 = [0] * self.d
        for i, s in enumerate(self.top):
            pi0[s] = i + 1
        for i, s in enumerate(self.bottom):
            pi1[s] = i + 1
        return {"d": self.d, "pi0": pi0, "pi1": pi1}

    @classmethod
    def from_json(cls, data: Union[dict, str]) -> "Permutation":
        """Accept the ``{"d","pi0","pi1"}`` schema or a monodromy one-liner."""
        if isinstance(data, str):
            stripped = data.strip()
            if not stripped.startswith("{"):
                return cls.from_monodromy(stripped)
        try:
            if isinstance(data, str):
                data = json.loads(data)
            d = int(data["d"])
            pi0 = list(data["pi0"])
            pi1 = list(data["pi1"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(
                f"malformed permutation: {type(exc).__name__}: {exc}") from None
        if len(pi0) != d or len(pi1) != d:
            raise InvalidInput("pi0/pi1 must have d entries")
        top = [0] * d
        bottom = [0] * d
        try:
            for s in range(d):
                top[pi0[s] - 1] = s
                bottom[pi1[s] - 1] = s
        except (IndexError, TypeError):
            raise InvalidInput("pi0/pi1 must hold positions 1..d") from None
        return cls(tuple(top), tuple(bottom))


def is_irreducible(perm: Permutation) -> bool:
    """True iff no proper prefix of positions is invariant."""
    tilde = perm.monodromy()
    seen_max = 0
    for k in range(1, perm.d):
        seen_max = max(seen_max, tilde[k - 1])
        if seen_max == k:
            return False
    return True


# ---------------------------------------------------------------------------
# lengths
# ---------------------------------------------------------------------------

def _as_fraction(value: LengthLike) -> Fraction:
    # exact for floats too: they are dyadic rationals
    try:
        return Fraction(value)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError):
        raise InvalidInput(f"invalid length {value!r}") from None


@dataclass(frozen=True)
class Lengths:
    """Positive subinterval lengths as integer numerators over one denominator.

    The denominator is shared by every coordinate and is never reduced, so
    numerators remain directly comparable across renormalization levels.
    """

    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator <= 0:
            raise InvalidInput("denominator must be positive")
        if any(n <= 0 for n in self.numerators):
            raise NonPositiveLength(f"lengths must be positive, got {self.values()}")

    @classmethod
    def from_values(cls, values: Iterable[LengthLike]) -> "Lengths":
        fracs = [_as_fraction(v) for v in values]
        if any(f <= 0 for f in fracs):
            raise NonPositiveLength(f"lengths must be positive, got {[str(f) for f in fracs]}")
        # every length and translation is at most the total, so the float
        # views stay finite once it does; a length that rounds to 0 has none
        if sum(fracs) > sys.float_info.max:
            raise InvalidInput("the length total exceeds double-precision range")
        if any(float(f) == 0.0 for f in fracs):
            raise InvalidInput("a length underflows double precision")
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        nums = tuple(int(f.numerator * (den // f.denominator)) for f in fracs)
        return cls(nums, den)

    @property
    def d(self) -> int:
        return len(self.numerators)

    def values(self) -> np.ndarray:
        return np.array([n / self.denominator for n in self.numerators])

    def total_numerator(self) -> int:
        return sum(self.numerators)

    def total(self) -> float:
        return self.total_numerator() / self.denominator

    def to_json(self) -> dict:
        return {"lambda": [f"{n}/{self.denominator}" for n in self.numerators]}

    @classmethod
    def from_json(cls, data: Union[dict, Sequence[LengthLike]]) -> "Lengths":
        values = data["lambda"] if isinstance(data, dict) else data
        return cls.from_values(values)


# ---------------------------------------------------------------------------
# the exchange map
# ---------------------------------------------------------------------------

def omega_matrix(perm: Permutation) -> np.ndarray:
    """Antisymmetric intersection-form matrix with entries in {-1, 0, 1}.

    Row ``a``, column ``b`` holds ``[pi1(b) < pi1(a)] - [pi0(b) < pi0(a)]``;
    applied to the length vector it yields the per-symbol translations.
    """
    d = perm.d
    pos0 = [0] * d
    pos1 = [0] * d
    for i, s in enumerate(perm.top):
        pos0[s] = i
    for i, s in enumerate(perm.bottom):
        pos1[s] = i
    omega = np.zeros((d, d), dtype=np.int64)
    for a in range(d):
        for b in range(d):
            omega[a, b] = int(pos1[b] < pos1[a]) - int(pos0[b] < pos0[a])
    return omega


@dataclass(frozen=True)
class IETState:
    """Fully derived, immutable state of an interval exchange transformation."""

    perm: Permutation
    lengths: Lengths
    upsilon: np.ndarray
    upsilon_num: tuple[int, ...]
    endpoints0: np.ndarray
    endpoints1: np.ndarray
    e0_num: tuple[int, ...]
    e1_num: tuple[int, ...]

    @property
    def d(self) -> int:
        return self.perm.d

    @property
    def total(self) -> float:
        return float(self.endpoints0[-1])

    @property
    def total_num(self) -> int:
        return self.e0_num[-1]

    @property
    def denominator(self) -> int:
        return self.lengths.denominator

    def to_json(self) -> dict:
        return {**self.perm.to_json(), **self.lengths.to_json()}


def build_iet(perm: Permutation, lengths: Lengths) -> IETState:
    """Derive translations and endpoint grids for the exchange ``(lengths, perm)``.

    Symbol ``s`` translates by the distance from its top-row left end to its
    bottom-row left end, ``e1[pi1(s)] - e0[pi0(s)]`` on exact numerators.
    """
    if lengths.d != perm.d:
        raise InvalidInput("lengths and permutation have different sizes")
    nums = lengths.numerators
    den = lengths.denominator

    def grid(row: tuple[int, ...]) -> tuple[tuple[int, ...], np.ndarray]:
        acc = [0]
        for s in row:
            acc.append(acc[-1] + nums[s])
        floats = np.array([a / den for a in acc])
        return tuple(acc), floats

    e0_num, endpoints0 = grid(perm.top)
    e1_num, endpoints1 = grid(perm.bottom)
    ups_num = tuple(e1_num[perm.position1(s)] - e0_num[perm.position0(s)]
                    for s in range(perm.d))
    upsilon = np.array([u / den for u in ups_num])
    return IETState(perm, lengths, upsilon, ups_num, endpoints0, endpoints1, e0_num, e1_num)


def build_iet_from(perm: Union[Permutation, str, Sequence[int]],
                   lengths: Iterable[LengthLike]) -> IETState:
    """Convenience wrapper accepting a monodromy spec and raw length values."""
    if not isinstance(perm, Permutation):
        perm = Permutation.from_monodromy(perm)
    return build_iet(perm, Lengths.from_values(lengths))


def slot_at(grid: np.ndarray, x: Union[float, np.ndarray]) -> Union[np.intp, np.ndarray]:
    """0-based cell of the increasing ``grid`` holding ``x``.

    Cells are closed on the left and open on the right; points beyond the
    ends fall in the outer cells.  Accepts scalars and arrays.
    """
    return np.clip(np.searchsorted(grid, x, side="right") - 1, 0, len(grid) - 2)


def symbol_at(iet: IETState, x: float) -> int:
    """Symbol of the subinterval containing ``x`` (half-open convention)."""
    if x < 0.0 or x >= iet.total:
        raise OutOfDomain(f"x={x!r} outside [0, {iet.total!r})")
    return iet.perm.top[int(slot_at(iet.endpoints0, x))]


def apply(iet: IETState, x: float) -> float:
    """Evaluate the exchange at ``x``."""
    return x + float(iet.upsilon[symbol_at(iet, x)])


def apply_inverse(iet: IETState, y: float) -> float:
    """Evaluate the inverse exchange at ``y``."""
    if y < 0.0 or y >= iet.total:
        raise OutOfDomain(f"y={y!r} outside [0, {iet.total!r})")
    return y - float(iet.upsilon[iet.perm.bottom[int(slot_at(iet.endpoints1, y))]])


def apply_array(iet: IETState, x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`apply` for sample grids already inside the domain."""
    return x + iet.upsilon[np.asarray(iet.perm.top)[slot_at(iet.endpoints0, x)]]


def symbol_at_exact(iet: IETState, x_num: int) -> int:
    """Exact atom lookup for a point given as ``x_num / denominator``."""
    grid = iet.e0_num
    if x_num < 0 or x_num >= grid[-1]:
        raise OutOfDomain(f"numerator {x_num} outside [0, {grid[-1]})")
    return iet.perm.top[bisect_right(grid, x_num) - 1]


def apply_exact(iet: IETState, x_num: int) -> int:
    """Exact integer evaluation of the exchange on numerators."""
    return x_num + iet.upsilon_num[symbol_at_exact(iet, x_num)]


def piece_orbit(iet: IETState, a: int, width: int, bound: int,
                budget: int = PIECE_BUDGET) -> list[int]:
    """Left ends of the piece ``[a, a + width)`` and its images before the return.

    The piece is translated rigidly on exact numerators until an image lies
    in ``[0, bound)``; that image is not listed.  Every listed piece must lie
    in one continuity interval, and at most ``budget`` images are taken.
    """
    grid = iet.e0_num
    ups = iet.upsilon_num
    top = iet.perm.top
    lefts = []
    while True:
        lefts.append(a)
        if len(lefts) > budget:
            raise BudgetExceeded(f"piece orbit exceeded {budget} steps")
        j = bisect_right(grid, a) - 1
        if a + width > grid[j + 1]:
            raise AssertionError("piece straddles a continuity boundary")
        a += ups[top[j]]
        if a + width <= bound:
            return lefts


def check_idoc_depth(iet: IETState, n_max: int) -> bool:
    """Finite-depth distinct-orbit check on subinterval endpoints.

    Follows every left endpoint for ``n_max`` exact iterations and reports
    False as soon as an orbit point lands within ``TOL_IDOC_REL * |lambda|``
    of a nonzero left endpoint.  A True result certifies nothing beyond depth
    ``n_max``: the full condition is not decidable numerically.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    targets = iet.e0_num[1:-1]  # nonzero interior left endpoints
    tol_scaled = iet.total_num  # |x - t| < 1e-12 |lambda|  <=>  |x - t| * 1e12 < total
    orbit = list(iet.e0_num[:-1])
    for _ in range(n_max):
        orbit = [apply_exact(iet, x) for x in orbit]
        for x in orbit:
            for t in targets:
                if abs(x - t) * 10**12 < tol_scaled:
                    return False
    return True


def parse_iet_json(text: str) -> IETState:
    """Parse a combined ``{"d","pi0","pi1","lambda"}`` JSON document."""
    data = json.loads(text)
    return build_iet(Permutation.from_json(data), Lengths.from_json(data))
