"""Renormalization of interval exchanges and the associated integer cocycle.

One induction step removes the shorter of the two final subintervals (the
loser) and takes the first-return map to what is left; the step is type 0
when the top row's final subinterval wins and type 1 otherwise, a rule that
``InductionStep.of_type`` alone applies.  A Rauzy class is finite, so each
arrow out of a permutation, its step and the permutation it leads to, is
built once and then taken from a cache (``_arrows``), which also checks
irreducibility once per permutation.  Each step contributes the unimodular
factor ``I + E[loser, winner]``, and the running left-product of these
factors is maintained in exact arbitrary-precision integers: its entries
count subinterval visits and grow exponentially, so 64-bit arithmetic would
overflow almost immediately.  Each stored product shares its ``d - 1``
unchanged rows with the one before.  Its exact inverse is the factors undone
in reverse order, one ``undo_update`` each.

The same factors act on the torus ``R^d / 2*pi*Z^d``.  One integer kernel,
``_mod_tau``, reduces an exact rational angle modulo ``2*pi`` with an
adaptive-precision integer value of pi, so huge lifts lose no accuracy;
``reduce_mod_tau`` is that kernel on a ``Fraction``.  Each push along a
trace (``breaking.theta_sequence``, for sampling and curves) keeps its exact
lift as integer numerators over one denominator and moves it one integer
add per factor, ``lift[loser] += lift[winner]``; ``torus_project`` applies a
stored product in ``Fraction`` arithmetic, only at level 0 of a push and as
the tests' oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import gcd, tau
from operator import add
from typing import IO, Optional, Sequence, Union

import numpy as np

from .errors import InvalidInput, RauzyUndefined, Reducible
from .iet import IETState, Lengths, Permutation, build_iet, is_irreducible

#: relative tie tolerance: induction aborts when the two candidate lengths
#: agree to within ``TOL_TIE_REL`` times the current total length
TOL_TIE_REL = 1e-12

IntMatrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# exact integer matrices
# ---------------------------------------------------------------------------

def identity_matrix(d: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def elementary_update(matrix: IntMatrix, loser: int, winner: int) -> IntMatrix:
    """Left-multiply by ``I + E[loser, winner]``: add the winner row into the loser row.

    The product shares its other ``d - 1`` rows with ``matrix``.
    """
    row = tuple(map(add, matrix[loser], matrix[winner]))
    return matrix[:loser] + (row,) + matrix[loser + 1:]


def undo_update(matrix: IntMatrix, loser: int, winner: int) -> IntMatrix:
    """Right-multiply by ``I - E[loser, winner]``: take the loser column from the winner's.

    Replaying a trace's steps through it, oldest first, builds the exact
    inverse of the cocycle product.
    """
    return tuple(row[:winner] + (row[winner] - row[loser],) + row[winner + 1:] for row in matrix)


def _as_int_rows(matrix: Union[IntMatrix, Sequence[Sequence[int]], np.ndarray]) -> IntMatrix:
    return tuple(tuple(int(v) for v in row) for row in matrix)


# ---------------------------------------------------------------------------
# single induction step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InductionStep:
    """Record of one induction step."""

    type_eps: int
    winner: int
    loser: int

    @classmethod
    def of_type(cls, perm: Permutation, type_eps: int) -> "InductionStep":
        """The step of ``type_eps`` from ``perm``: type 0 is won by the top row's final symbol."""
        beta0, beta1 = perm.top[-1], perm.bottom[-1]
        return cls(0, beta0, beta1) if type_eps == 0 else cls(1, beta1, beta0)

    def b_factor(self, d: int) -> np.ndarray:
        out = np.eye(d, dtype=np.int64)
        out[self.loser, self.winner] = 1
        return out


def _tied(num_a: int, num_b: int, total_num: int) -> bool:
    return abs(num_a - num_b) * 10**12 <= total_num


def _combinatorial_step(perm: Permutation, type_eps: int) -> Permutation:
    """Permutation update of the given type, independent of lengths."""
    top, bottom = perm.top, perm.bottom
    beta0, beta1 = top[-1], bottom[-1]
    if type_eps == 0:
        new_bottom = list(bottom[:-1])
        new_bottom.insert(new_bottom.index(beta0) + 1, beta1)
        return Permutation(top, tuple(new_bottom))
    new_top = list(top[:-1])
    new_top.insert(new_top.index(beta1) + 1, beta0)
    return Permutation(tuple(new_top), bottom)


@lru_cache(maxsize=1 << 12)
def _arrows(perm: Permutation) -> tuple[tuple[InductionStep, Permutation], ...]:
    """The two arrows out of ``perm``, by type: each step and the permutation it leads to.

    The Rauzy class is finite, so a run takes every arrow from here after
    its first pass round the class.  A reducible ``perm`` raises and is not kept.
    """
    if not is_irreducible(perm):
        raise Reducible(f"monodromy {perm.monodromy()} is reducible")
    return tuple((InductionStep.of_type(perm, eps), _combinatorial_step(perm, eps))
                 for eps in (0, 1))


def rauzy_step(iet: IETState) -> tuple[IETState, InductionStep]:
    """One induction step; raises when the final subintervals tie."""
    arrows = _arrows(iet.perm)
    nums = list(iet.lengths.numerators)
    # the type-0 step is won by the top row's final subinterval
    top_last, bottom_last = nums[arrows[0][0].winner], nums[arrows[0][0].loser]
    if _tied(top_last, bottom_last, iet.total_num):
        raise RauzyUndefined(
            f"final subintervals tie within {TOL_TIE_REL} * |lambda|"
        )
    step, perm = arrows[top_last < bottom_last]
    nums[step.winner] -= nums[step.loser]
    return build_iet(perm, Lengths(tuple(nums), iet.lengths.denominator)), step


# ---------------------------------------------------------------------------
# iterated induction
# ---------------------------------------------------------------------------

@dataclass
class InductionTrace:
    """States, steps and exact cocycle products of an induction run.

    ``states[k]`` is the level-``k`` exchange and ``cocycle[k]`` the exact
    product of the first ``k`` elementary factors (newest on the left), so
    ``cocycle[0]`` is the identity.
    """

    states: list[IETState]
    steps: list[InductionStep] = field(default_factory=list)
    cocycle: list[IntMatrix] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def initial(self) -> IETState:
        return self.states[0]

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def d(self) -> int:
        return self.initial.d

    def image_last_symbol(self, n: int) -> int:
        """Final symbol of the level-``n`` bottom row (rightmost image piece)."""
        return self.states[n].perm.bottom[-1]

    @property
    def zorich_lengths(self) -> list[int]:
        """Sizes of the maximal same-type runs of ``steps``.

        For a ``zorich_iterate`` trace these are its blocks, the last one
        partial if a tie stopped the run.  A ``rauzy_iterate`` trace ends
        with its open run, which nothing reads.
        """
        return [sum(1 for _ in run) for _, run in groupby(step.type_eps for step in self.steps)]

    def acceleration_partial_sums(self) -> list[int]:
        """Cumulative Rauzy-step counts after each completed block."""
        sums = [0]
        for length in self.zorich_lengths:
            sums.append(sums[-1] + length)
        return sums

    def to_jsonl(self, stream: IO[str]) -> None:
        """One record per step: type, winner, loser, length snapshot, factor."""
        for k, step in enumerate(self.steps):
            state = self.states[k]
            record = {
                "n": k,
                "type": step.type_eps,
                "winner": step.winner,
                "loser": step.loser,
                "lambda": [float(v) for v in state.lengths.values()],
                "B": step.b_factor(self.d).tolist(),
            }
            stream.write(json.dumps(record) + "\n")


def _iterate(iet: IETState, *, max_steps: Optional[int], max_blocks: Optional[int]) -> InductionTrace:
    _arrows(iet.perm)  # a reducible start raises before any step
    trace = InductionTrace(states=[iet], cocycle=[identity_matrix(iet.d)])
    opened = 0  # maximal same-type blocks begun
    while max_steps is None or trace.n_steps < max_steps:
        try:
            nxt, step = rauzy_step(trace.states[-1])
        except RauzyUndefined:
            trace.error = "RauzyUndefined"
            break
        if not trace.steps or step.type_eps != trace.steps[-1].type_eps:
            opened += 1
            if max_blocks is not None and opened > max_blocks:
                break
        trace.steps.append(step)
        trace.states.append(nxt)
        trace.cocycle.append(elementary_update(trace.cocycle[-1], step.loser, step.winner))
    return trace


def rauzy_iterate(iet: IETState, n: int) -> InductionTrace:
    """Run ``n`` induction steps, keeping every state and exact cocycle product.

    A tie stops the run early; the partial trace is returned with
    ``error == "RauzyUndefined"``.
    """
    if n < 0:
        raise InvalidInput(f"n must be >= 0, got {n}")
    return _iterate(iet, max_steps=n, max_blocks=None)


def zorich_iterate(iet: IETState, m: int) -> InductionTrace:
    """Run induction until ``m`` maximal same-type blocks are complete.

    The run stops before the step that opens block ``m + 1``, so without a
    tie ``trace.n_steps`` equals the sum of the ``m`` acceleration times.
    """
    if m < 0:
        raise InvalidInput(f"m must be >= 0, got {m}")
    # no blocks takes no step, not even one that would tie
    return _iterate(iet, max_steps=None if m else 0, max_blocks=m)


# ---------------------------------------------------------------------------
# Rauzy classes
# ---------------------------------------------------------------------------

@dataclass
class RauzyGraph:
    """A class of permutations closed under both induction types."""

    vertices: list[Permutation]
    edges: list[tuple[int, int, int]]  # (source index, type, target index)

    @property
    def size(self) -> int:
        return len(self.vertices)

    def to_dot(self) -> str:
        def label(p: Permutation) -> str:
            return " ".join(str(v) for v in p.monodromy())

        lines = ["digraph rauzy_class {"]
        for i, p in enumerate(self.vertices):
            lines.append(f'  v{i} [label="{label(p)}"];')
        for src, eps, dst in self.edges:
            lines.append(f'  v{src} -> v{dst} [label="{eps}"];')
        lines.append("}")
        return "\n".join(lines)


def rauzy_class(perm: Permutation) -> RauzyGraph:
    """Breadth-first closure of ``perm`` under both arrow types.

    Vertices are ordered lexicographically by monodromy for determinism.
    """
    if not is_irreducible(perm):
        raise Reducible(f"monodromy {perm.monodromy()} is reducible")
    seen: dict[tuple[tuple[int, ...], tuple[int, ...]], Permutation] = {}
    frontier = [perm]
    seen[(perm.top, perm.bottom)] = perm
    while frontier:
        current = frontier.pop()
        for eps in (0, 1):
            nxt = _combinatorial_step(current, eps)
            key = (nxt.top, nxt.bottom)
            if key not in seen:
                seen[key] = nxt
                frontier.append(nxt)
    vertices = sorted(seen.values(), key=lambda p: (p.monodromy(), p.top))
    index = {(p.top, p.bottom): i for i, p in enumerate(vertices)}
    edges = []
    for i, p in enumerate(vertices):
        for eps in (0, 1):
            nxt = _combinatorial_step(p, eps)
            edges.append((i, eps, index[(nxt.top, nxt.bottom)]))
    return RauzyGraph(vertices, edges)


# ---------------------------------------------------------------------------
# torus projection
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pi_scaled(bits: int) -> int:
    """``round(pi * 2**bits)`` by Machin's formula in integer arithmetic."""
    guard = 16

    def arccot(x: int, unity: int) -> int:
        total = term = unity // x
        n, sign, xsq = 3, -1, x * x
        while term:
            term //= xsq
            total += sign * (term // n)
            n += 2
            sign = -sign
        return total

    unity = 1 << (bits + guard)
    value = 4 * (4 * arccot(5, unity) - arccot(239, unity))
    return (value + (1 << (guard - 1))) >> guard


def _mod_tau(num: int, den: int) -> float:
    """``num / den`` reduced modulo ``2*pi`` into ``[0, 2*pi)``, for ``den > 0``.

    The fraction need not be in lowest terms.  The quotient is extracted with
    an integer value of pi carrying enough bits for the magnitude of the
    reduced fraction, so that cancellation in ``x - k*2*pi`` costs no
    precision even when ``x`` is astronomically large.  Dividing both terms by
    a power of two shortens both by the same number of bits, so a power-of-two
    ``den`` needs no gcd to size that precision; another takes one.  The
    remainder is one correctly rounded integer division, so the result does
    not depend on the terms the fraction is given in.
    """
    if not num:
        return 0.0
    if den & (den - 1):
        g = gcd(num, den)
        mag_bits = (abs(num) // g).bit_length() - (den // g).bit_length()
    else:
        mag_bits = abs(num).bit_length() - den.bit_length()
    bits = 128 * ((max(mag_bits, 0) + 192) // 128)
    # (num / den) mod 2*pi as an integer over den * 2**bits, which the floor
    # modulo leaves non-negative
    remainder = ((num << bits) % (2 * _pi_scaled(bits) * den)) / (den << bits)
    return remainder - tau if remainder >= tau else remainder


def reduce_mod_tau(x: Fraction) -> float:
    """Reduce an exact rational angle modulo ``2*pi`` into ``[0, 2*pi)``.

    The one reduction kernel, ``_mod_tau``, on its numerator and
    denominator; a push calls the kernel on its running numerators directly.
    """
    return _mod_tau(x.numerator, x.denominator)


def torus_project(matrix: Union[IntMatrix, Sequence[Sequence[int]], np.ndarray],
                  theta: Union[Sequence[float], Sequence[Fraction], np.ndarray]) -> np.ndarray:
    """Integer-matrix action on a torus point, reduced exactly modulo ``2*pi``.

    Any lift of ``theta`` gives the same answer because the matrix is
    integral.  Float coordinates are consumed as the dyadic rationals they
    are; exact rational coordinates are consumed exactly, which matters for
    deep products where a one-ulp lift error would be amplified
    exponentially.
    """
    rows = _as_int_rows(matrix)
    lifts = [t if isinstance(t, Fraction) else Fraction(float(t)) for t in theta]
    out = []
    for row in rows:
        acc = Fraction(0)
        for coeff, lift in zip(row, lifts):
            if coeff:
                acc += coeff * lift
        out.append(reduce_mod_tau(acc))
    return np.array(out)


def torus_distance_to_zero(
        theta: Union[Sequence[float], np.ndarray]) -> Union[float, np.ndarray]:
    """Flat-torus distance from ``theta`` to the origin, along its last axis.

    A single point gives a float; a stack of points, one array of their distances.
    """
    arr = np.mod(np.asarray(theta, dtype=float), tau)
    folded = np.minimum(arr, tau - arr)
    return np.sqrt(np.sum(folded * folded, axis=-1))
