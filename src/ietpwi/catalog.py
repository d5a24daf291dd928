"""Ready-made exchanges with exactly known renormalization structure.

A length vector that is a Perron eigenvector of the transposed matrix of a
closed loop in its Rauzy graph renormalizes back to itself: the induction
path is periodic and the cocycle along one period is an explicit integer
matrix.  For such instances the contracting plane of the cocycle is spanned
by eigenvectors of one integer matrix and can be computed to arbitrary
precision by integer inverse iteration, which makes them the reference
inputs for the convergence and embedding experiments.  The loop matrix's
exact inverse is its factors undone, built in the same replay as the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from .iet import IETState, Lengths, Permutation, build_iet
from .rauzy import (IntMatrix, InductionStep, _combinatorial_step, elementary_update,
                    identity_matrix, undo_update)

#: type word of the closed loop at monodromy (4 3 2 1) whose Perron vector
#: has length ratios (0.4277, 0.3383, 0.1196, 0.1144)
SYMMETRIC4_LOOP = (1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0)

#: bits the weak-stable iteration keeps beyond the precision it is asked for
GUARD_BITS = 128


@dataclass(frozen=True)
class SelfInducingIET:
    """A periodic point of the induction with exact spectral data.

    ``strong_stable`` spans the most contracted direction of the loop
    matrix (the translation-vector direction); ``weak_stable`` completes the
    contracting plane.  Both are exact rational vectors accurate far beyond
    double precision.
    """

    iet: IETState
    loop_matrix: IntMatrix
    strong_stable: tuple[Fraction, ...]
    weak_stable: tuple[Fraction, ...]

    def stable_frame_exact(self) -> list[tuple[Fraction, ...]]:
        """Contracting-plane basis ordered strong first."""
        return [self.strong_stable, self.weak_stable]

    def stable_frame(self) -> np.ndarray:
        """Float orthonormal basis of the contracting plane, strong first."""
        raw = np.array([[float(c) for c in v] for v in self.stable_frame_exact()]).T
        q, _ = np.linalg.qr(raw)
        return q


def loop_matrix_for(start: Permutation, types: tuple[int, ...]) -> tuple[IntMatrix, IntMatrix]:
    """Cocycle matrix of a closed type word and its exact inverse, in one replay.

    Each step of the word applies its factor ``I + E[loser, winner]`` to the
    matrix and undoes it on the inverse.  Raises unless the path closes.
    """
    perm = start
    matrix = inverse = identity_matrix(start.d)
    for eps in types:
        step = InductionStep.of_type(perm, eps)
        matrix = elementary_update(matrix, step.loser, step.winner)
        inverse = undo_update(inverse, step.loser, step.winner)
        perm = _combinatorial_step(perm, eps)
    if (perm.top, perm.bottom) != (start.top, start.bottom):
        raise ValueError("type word does not close up in the Rauzy graph")
    return matrix, inverse


def _transpose(matrix: IntMatrix) -> IntMatrix:
    d = len(matrix)
    return tuple(tuple(matrix[i][j] for i in range(d)) for j in range(d))


def _mat_vec(matrix: IntMatrix, vec: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(row[j] * vec[j] for j in range(len(vec))) for row in matrix)


def _reduce_int_vector(vec: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for v in vec:
        g = gcd(g, abs(v))
    return vec if g in (0, 1) else tuple(v // g for v in vec)


def perron_vector(matrix: IntMatrix, iterations: int = 260) -> tuple[Fraction, ...]:
    """Dominant eigenvector by integer power iteration, normalized to sum 1."""
    vec = tuple(1 for _ in matrix)
    for _ in range(iterations):
        vec = _mat_vec(matrix, vec)
        vec = _reduce_int_vector(vec)
    total = sum(vec)
    return tuple(Fraction(v, total) for v in vec)


def _weak_stable_vector(inv: IntMatrix, strong_int: tuple[int, ...], precision: int,
                        iterations: int = 160) -> tuple[Fraction, ...]:
    """Second most contracted eigendirection by deflated iteration of the inverse ``inv``.

    The dominant direction of the inverse is the strong one; its component
    is removed with the dual left eigenvector (dominant direction of the
    inverse transpose), after which the iteration converges to the weak
    contracting eigendirection.  The iterate is a fixed-point integer
    vector: after each step it is shifted right so that its largest entry
    has at most ``precision + GUARD_BITS`` bits, which bounds the entries
    however large the deflation factor ``ds`` is.
    """
    inv_t = _transpose(inv)
    dual = tuple(1 for _ in inv)
    for _ in range(iterations):
        dual = _reduce_int_vector(_mat_vec(inv_t, dual))
    ds = sum(a * b for a, b in zip(dual, strong_int))
    vec = tuple(range(1, len(inv) + 1))
    for _ in range(iterations):
        vec = _mat_vec(inv, vec)
        dw = sum(a * b for a, b in zip(dual, vec))
        vec = tuple(ds * w - dw * s for w, s in zip(vec, strong_int))
        excess = max(abs(v) for v in vec).bit_length() - precision - GUARD_BITS
        if excess > 0:
            vec = tuple(v >> excess for v in vec)
    scale = max(abs(v) for v in vec)
    return tuple(Fraction(v, scale) for v in vec)


def _quantize(vec: tuple[Fraction, ...], bits: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(round(v * (1 << bits)), 1 << bits) for v in vec)


@lru_cache(maxsize=4)
def symmetric4_self_inducing(bits: int = 400) -> SelfInducingIET:
    """The self-inducing exchange on 4 symbols with reversing monodromy.

    Lengths are the Perron direction of the period-11 loop, rounded to
    dyadic rationals with ``bits`` fractional bits so the exact integer
    induction follows the periodic path for hundreds of levels.
    """
    perm = Permutation.from_monodromy("4 3 2 1")
    loop, inverse = loop_matrix_for(perm, SYMMETRIC4_LOOP)
    lam = perron_vector(_transpose(loop))
    nums = tuple(int(v * (1 << bits)) for v in lam)
    iet = build_iet(perm, Lengths(nums, 1 << bits))
    strong_int = iet.upsilon_num
    scale = max(abs(v) for v in strong_int)
    strong = _quantize(tuple(Fraction(v, scale) for v in strong_int), 2 * bits)
    weak = _quantize(_weak_stable_vector(inverse, strong_int, 2 * bits), 2 * bits)
    return SelfInducingIET(iet, loop, strong, weak)
