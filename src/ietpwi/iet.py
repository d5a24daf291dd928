"""Interval exchange transformations: permutation pairs, lengths, evaluation.

An interval exchange transformation (IET) is a bijection of ``[0, |lambda|)``
that translates each member of a finite partition into subintervals.  It is
determined by a positive length vector ``lambda`` and a pair of bijections
``(pi0, pi1)`` ordering the subintervals before and after the exchange.  All
intervals are closed on the left and open on the right.

Lengths are stored once, as exact integer numerators over a common
denominator.  Every float is a dyadic rational, so the exact form represents
float input with no error; downstream orbit computations (visit counts,
interval orbits) run on integers and are free of rounding decisions.  The
float translations and left ends of an exchange are correctly rounded views
of its numerators, formed on first read.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd
from operator import sub
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InvalidInput, NonPositiveLength, OutOfDomain

#: most pieces one computation may hold: the floors of the Rokhlin towers
#: ``breaking.rokhlin_towers`` stacks and the segments of a curve
#: ``breaking.curve_levels`` is asked to build.  It must stay below 2**24:
#: the towers store visit counts, each at most a tower height, as int32 and
#: sum them times 32-bit limbs in int64, and ``breaking`` refuses to import
#: with a larger budget
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

    @cached_property
    def positions(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """0-based position tables of the two rows: entry ``s`` is where symbol ``s`` sits."""
        pos0, pos1 = [0] * self.d, [0] * self.d
        for i, (a, b) in enumerate(zip(self.top, self.bottom)):
            pos0[a] = pos1[b] = i
        return tuple(pos0), tuple(pos1)

    def position0(self, symbol: int) -> int:
        """0-based position of ``symbol`` in the top row."""
        return self.positions[0][symbol]

    def position1(self, symbol: int) -> int:
        """0-based position of ``symbol`` in the bottom row."""
        return self.positions[1][symbol]

    def monodromy(self) -> tuple[int, ...]:
        """1-based positions: entry ``j`` is where domain slot ``j+1`` lands."""
        pos1 = self.positions[1]
        return tuple(pos1[s] + 1 for s in self.top)

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

    @classmethod
    def from_json(cls, data: Union[dict, str]) -> "Permutation":
        """Accept the ``{"d","pi0","pi1"}`` schema or a monodromy one-liner.

        ``pi0`` and ``pi1`` give each symbol's 1-based position in the top
        and bottom rows, so each must list the ints ``1..d`` in some order.
        """
        if isinstance(data, str):
            stripped = data.strip()
            if not stripped.startswith("{"):
                return cls.from_monodromy(stripped)
        try:
            if isinstance(data, str):
                data = json.loads(data)
            d, pi0, pi1 = data["d"], data["pi0"], data["pi1"]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(
                f"malformed permutation: {type(exc).__name__}: {exc}") from None
        if not isinstance(d, int) or isinstance(d, bool):
            raise InvalidInput(f"d must be an integer, got {d!r}")
        for name, row in (("pi0", pi0), ("pi1", pi1)):
            if not (isinstance(row, list) and len(row) == d
                    and all(isinstance(p, int) and not isinstance(p, bool) for p in row)
                    and sorted(row) == list(range(1, d + 1))):
                raise InvalidInput(f"{name} must list the positions 1..{d} once each, "
                                   f"got {row!r}")
        top = [0] * d
        bottom = [0] * d
        for s in range(d):
            top[pi0[s] - 1] = s
            bottom[pi1[s] - 1] = s
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
        if min(self.numerators, default=1) <= 0:
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


# ---------------------------------------------------------------------------
# the exchange map
# ---------------------------------------------------------------------------

def omega_matrix(perm: Permutation) -> np.ndarray:
    """Antisymmetric intersection-form matrix with entries in {-1, 0, 1}.

    Row ``a``, column ``b`` holds ``[pi1(b) < pi1(a)] - [pi0(b) < pi0(a)]``;
    applied to the length vector it yields the per-symbol translations.
    """
    d = perm.d
    pos0, pos1 = perm.positions
    omega = np.zeros((d, d), dtype=np.int64)
    for a in range(d):
        for b in range(d):
            omega[a, b] = int(pos1[b] < pos1[a]) - int(pos0[b] < pos0[a])
    return omega


@dataclass(frozen=True)
class IETState:
    """Immutable exchange, kept exactly: the permutation, the lengths, and the
    translations and top-row left ends as numerators over ``denominator``.

    ``upsilon`` and ``endpoints0`` are their float views, each numerator over
    the denominator correctly rounded, formed on first read and kept.
    """

    perm: Permutation
    lengths: Lengths
    upsilon_num: tuple[int, ...]
    e0_num: tuple[int, ...]

    @property
    def d(self) -> int:
        return self.perm.d

    @cached_property
    def upsilon(self) -> np.ndarray:
        return np.array([u / self.denominator for u in self.upsilon_num])

    @cached_property
    def endpoints0(self) -> np.ndarray:
        return np.array([e / self.denominator for e in self.e0_num])

    @property
    def total(self) -> float:
        return float(self.endpoints0[-1])

    @property
    def total_num(self) -> int:
        return self.e0_num[-1]

    @property
    def denominator(self) -> int:
        return self.lengths.denominator


def build_iet(perm: Permutation, lengths: Lengths) -> IETState:
    """The exchange ``(lengths, perm)`` with its translations and top-row grid.

    Symbol ``s`` translates by the distance from its top-row left end to its
    bottom-row left end, ``e1[pi1(s)] - e0[pi0(s)]`` on exact numerators.
    """
    if lengths.d != perm.d:
        raise InvalidInput("lengths and permutation have different sizes")
    length = lengths.numerators.__getitem__
    e0 = tuple(accumulate(map(length, perm.top), initial=0))
    e1 = tuple(accumulate(map(length, perm.bottom), initial=0))
    pos0, pos1 = perm.positions
    ups_num = tuple(map(sub, map(e1.__getitem__, pos1), map(e0.__getitem__, pos0)))
    return IETState(perm, lengths, ups_num, e0)


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
    """Symbol of the subinterval containing ``x`` (half-open convention); NaN is outside."""
    if not 0.0 <= x < iet.total:
        raise OutOfDomain(f"x={x!r} outside [0, {iet.total!r})")
    return iet.perm.top[int(slot_at(iet.endpoints0, x))]


def apply(iet: IETState, x: float) -> float:
    """Evaluate the exchange at ``x``."""
    return x + float(iet.upsilon[symbol_at(iet, x)])


def apply_exact(iet: IETState, x_num: int) -> int:
    """Exact integer evaluation of the exchange on numerators over ``denominator``."""
    grid = iet.e0_num
    if x_num < 0 or x_num >= grid[-1]:
        raise OutOfDomain(f"numerator {x_num} outside [0, {grid[-1]})")
    return x_num + iet.upsilon_num[iet.perm.top[bisect_right(grid, x_num) - 1]]
