"""The self-inducing catalog exchange: its loop's exact inverse and its contracting plane."""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from ietpwi.catalog import (SYMMETRIC4_LOOP, _mat_vec, _quantize, _reduce_int_vector,
                            _transpose, loop_matrix_for, symmetric4_self_inducing)
from ietpwi.iet import omega_matrix
from ietpwi.rauzy import identity_matrix

# SHA-256 of strong_stable then weak_stable at bits=400, each entry written
# as "numerator/denominator" and joined by ";", as built by the gcd-reduced
# inverse iteration
PLANE_DIGEST_400 = "4a998f718fd3495c7b6afc5e057bf2519d614de1fb8f8a557b55d59c9f5bbeb5"


def _plane_digest(reference):
    text = ";".join(f"{v.numerator}/{v.denominator}"
                    for v in reference.strong_stable + reference.weak_stable)
    return hashlib.sha256(text.encode()).hexdigest()


def _weak_stable_gcd_oracle(inv, strong_int, iterations=160):
    """Deflated iteration of the loop's inverse ``inv`` in exact integers, gcd-reduced."""
    inv_t = _transpose(inv)
    dual = tuple(1 for _ in inv)
    for _ in range(iterations):
        dual = _reduce_int_vector(_mat_vec(inv_t, dual))
    ds = sum(a * b for a, b in zip(dual, strong_int))
    vec = tuple(range(1, len(inv) + 1))
    for _ in range(iterations):
        vec = _mat_vec(inv, vec)
        dw = sum(a * b for a, b in zip(dual, vec))
        vec = _reduce_int_vector(tuple(ds * w - dw * s for w, s in zip(vec, strong_int)))
    scale = max(abs(v) for v in vec)
    return tuple(Fraction(v, scale) for v in vec)


def test_contracting_plane_digest_at_400_bits(reference):
    assert _plane_digest(reference) == PLANE_DIGEST_400


@pytest.mark.parametrize("bits", [16, 48])
def test_weak_stable_matches_gcd_iteration(bits):
    reference = symmetric4_self_inducing(bits)
    iet = reference.iet
    nums = iet.lengths.numerators
    omega = omega_matrix(iet.perm)
    strong_int = tuple(sum(int(omega[a, b]) * nums[b] for b in range(iet.d))
                       for a in range(iet.d))
    _, inverse = loop_matrix_for(iet.perm, SYMMETRIC4_LOOP)
    oracle = _quantize(_weak_stable_gcd_oracle(inverse, strong_int), 2 * bits)
    assert reference.weak_stable == oracle


def test_loop_matrix_times_its_inverse_is_the_identity(reference):
    loop, inverse = loop_matrix_for(reference.iet.perm, SYMMETRIC4_LOOP)
    assert loop == reference.loop_matrix
    product = np.array(loop, dtype=object).dot(np.array(inverse, dtype=object))
    assert tuple(map(tuple, product)) == identity_matrix(reference.iet.d)
