"""Reference implementations that the exchange, the exact cocycle and the
torus reduction are tested against."""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import tau
from typing import Union

import numpy as np

from ietpwi.errors import BudgetExceeded, RauzyUndefined, Reducible
from ietpwi.iet import PIECE_BUDGET, IETState, Lengths, build_iet, is_irreducible, slot_at
from ietpwi.rauzy import (IntMatrix, InductionStep, InductionTrace, _combinatorial_step,
                          _pi_scaled, _tied, identity_matrix, rauzy_iterate)


def matrix_to_float(matrix: Union[IntMatrix, np.ndarray]) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in matrix])


def apply_array(iet: IETState, x: np.ndarray) -> np.ndarray:
    """The exchange on an array of points already inside the domain, in floats."""
    return x + iet.upsilon[np.asarray(iet.perm.top)[slot_at(iet.endpoints0, x)]]


def bottom_grid(iet: IETState) -> np.ndarray:
    """Float left ends of the bottom row, the image order, and the total."""
    ends = accumulate((iet.lengths.numerators[s] for s in iet.perm.bottom), initial=0)
    return np.array([e / iet.denominator for e in ends])


def symbol_at_exact(iet: IETState, x_num: int) -> int:
    """Exact atom lookup for a point of the domain given as ``x_num / denominator``."""
    return iet.perm.top[bisect_right(iet.e0_num, x_num) - 1]


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


def return_word(trace: InductionTrace, n: int, symbol: int) -> list[int]:
    """Atom itinerary of the level-``n`` subinterval until its first return.

    Follows the subinterval's exact left end under the original exchange;
    the word length equals the corresponding row sum of the exact cocycle
    product.
    """
    iet0 = trace.initial
    deep = trace.states[n]
    left = deep.e0_num[deep.perm.position0(symbol)]
    lefts = piece_orbit(iet0, left, deep.lengths.numerators[symbol], deep.total_num)
    return [symbol_at_exact(iet0, a) for a in lefts]


def visit_counts_bruteforce(iet: IETState, n: int) -> IntMatrix:
    """Count subinterval visits of each level-``n`` piece by direct orbits.

    Entry ``[a][b]`` counts the letters ``b`` in the return word of the
    level-``n`` piece ``a``: its visits to the original piece ``b`` before
    it returns to the shortened interval.  Independent of the matrix
    product path.
    """
    trace = rauzy_iterate(iet, n)
    if trace.error is not None:
        raise RauzyUndefined(f"induction undefined before step {n}")
    words = [return_word(trace, n, a) for a in range(iet.d)]
    return tuple(tuple(word.count(b) for b in range(iet.d)) for word in words)


def replayed_iterate(iet: IETState, n: int) -> InductionTrace:
    """``rauzy_iterate`` with nothing kept between steps.

    Each step applies the step rule (``InductionStep.of_type``), the
    permutation update (``_combinatorial_step``) and ``build_iet`` afresh,
    and each stored product is a full copy of the one before with the
    winner row added into the loser row.
    """
    if not is_irreducible(iet.perm):
        raise Reducible(f"monodromy {iet.perm.monodromy()} is reducible")
    trace = InductionTrace(states=[iet], cocycle=[identity_matrix(iet.d)])
    state = iet
    while trace.n_steps < n:
        nums = list(state.lengths.numerators)
        step = InductionStep.of_type(state.perm, 0)
        if _tied(nums[step.winner], nums[step.loser], state.total_num):
            trace.error = "RauzyUndefined"
            break
        if nums[step.winner] < nums[step.loser]:
            step = InductionStep.of_type(state.perm, 1)
        nums[step.winner] -= nums[step.loser]
        state = build_iet(_combinatorial_step(state.perm, step.type_eps),
                          Lengths(tuple(nums), state.denominator))
        rows = [list(row) for row in trace.cocycle[-1]]
        rows[step.loser] = [a + b for a, b in zip(rows[step.loser], rows[step.winner])]
        trace.steps.append(step)
        trace.states.append(state)
        trace.cocycle.append(tuple(tuple(row) for row in rows))
    return trace


def reduce_mod_tau_fraction(x: Fraction) -> float:
    """``x`` modulo ``2*pi`` by ``Fraction`` arithmetic on the lowest-terms fraction."""
    if x == 0:
        return 0.0
    mag_bits = abs(x.numerator).bit_length() - x.denominator.bit_length()
    bits = 128 * ((max(mag_bits, 0) + 192) // 128)
    pi_s = _pi_scaled(bits)
    k = (x.numerator << bits) // (2 * pi_s * x.denominator)
    remainder = float(x - Fraction(2 * pi_s * k, 1 << bits))
    if remainder >= tau:
        remainder -= tau
    if remainder < 0.0:
        remainder += tau
    return remainder
