"""The self-inducing catalog exchange: its exact contracting plane."""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from ietpwi.catalog import (_integer_inverse, _mat_vec, _quantize, _reduce_int_vector,
                            _transpose, symmetric4_self_inducing)

# SHA-256 of strong_stable then weak_stable at bits=400, each entry written
# as "numerator/denominator" and joined by ";", as built by the gcd-reduced
# inverse iteration
PLANE_DIGEST_400 = "4a998f718fd3495c7b6afc5e057bf2519d614de1fb8f8a557b55d59c9f5bbeb5"


def _plane_digest(reference):
    text = ";".join(f"{v.numerator}/{v.denominator}"
                    for v in reference.strong_stable + reference.weak_stable)
    return hashlib.sha256(text.encode()).hexdigest()


def _weak_stable_gcd_oracle(matrix, strong_int, iterations=160):
    """Deflated inverse iteration in exact integers, gcd-reduced at each step."""
    inv = _integer_inverse(matrix)
    inv_t = _transpose(inv)
    dual = tuple(1 for _ in matrix)
    for _ in range(iterations):
        dual = _reduce_int_vector(_mat_vec(inv_t, dual))
    ds = sum(a * b for a, b in zip(dual, strong_int))
    vec = tuple(range(1, len(matrix) + 1))
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
    strong_int = tuple(sum(int(iet.omega[a, b]) * nums[b] for b in range(iet.d))
                       for a in range(iet.d))
    oracle = _quantize(_weak_stable_gcd_oracle(reference.loop_matrix, strong_int), 2 * bits)
    assert reference.weak_stable == oracle
