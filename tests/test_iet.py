"""Exchange construction, parsing and evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from ietpwi.errors import BudgetExceeded, InvalidInput, NonPositiveLength, OutOfDomain
from ietpwi.iet import (
    Lengths,
    Permutation,
    apply,
    apply_exact,
    build_iet,
    build_iet_from,
    is_irreducible,
    omega_matrix,
    symbol_at,
)

from rauzy_oracles import apply_array, bottom_grid, piece_orbit


def test_build_two_symbols_translations():
    iet = build_iet_from("2 1", [0.6, 0.4])
    np.testing.assert_allclose(iet.upsilon, [0.4, -0.6])
    np.testing.assert_allclose(iet.endpoints0, [0.0, 0.6, 1.0])
    np.testing.assert_allclose(bottom_grid(iet), [0.0, 0.4, 1.0])


def test_identity_permutation_is_identity_map():
    perm = Permutation((0, 1), (0, 1))
    iet = build_iet(perm, Lengths.from_values([0.6, 0.4]))
    np.testing.assert_allclose(iet.upsilon, 0.0)
    for x in (0.0, 0.1, 0.73):
        assert apply(iet, x) == x


def test_reference_lengths_build(reference):
    lam = reference.iet.lengths.values()
    np.testing.assert_allclose(lam, [0.43, 0.34, 0.12, 0.11], atol=0.005)
    assert abs(reference.iet.total - 1.0) < 1e-9
    assert reference.iet.perm.monodromy() == (4, 3, 2, 1)


def test_nonpositive_length_rejected():
    with pytest.raises(NonPositiveLength):
        Lengths.from_values([0.5, 0.0])
    with pytest.raises(NonPositiveLength):
        Lengths.from_values([0.5, -0.1])


@pytest.mark.parametrize("parse", [
    lambda: Permutation.from_json("2 2"),
    lambda: Permutation.from_json("2 x"),
    lambda: Permutation.from_json('{"d": 2, "pi0": [1, 2]}'),
    lambda: Permutation.from_json('{"d": 2, "pi0": [1, 2], "pi1": [2, 5]}'),
    lambda: Permutation.from_json('{"d": 2, "pi0": [1, 2'),
    lambda: Lengths.from_values(["0.5", "abc"]),
    lambda: Lengths.from_values(["1/0", "0.5"]),
    lambda: build_iet_from("2 1", [0.5, 0.3, 0.2]),
    # positions repeated, out of 1..d, or not ints
    lambda: Permutation.from_json('{"d": 2, "pi0": [1, 1], "pi1": [2, 1]}'),
    lambda: Permutation.from_json('{"d": 2, "pi0": [0, 2], "pi1": [2, 1]}'),
    lambda: Permutation.from_json('{"d": 2, "pi0": [true, 2], "pi1": [2, 1]}'),
    lambda: Permutation.from_json('{"d": "2", "pi0": [1, 2], "pi1": [2, 1]}'),
])
def test_malformed_input_is_typed(parse):
    with pytest.raises(InvalidInput) as info:
        parse()
    assert isinstance(info.value, ValueError)


def test_apply_hand_values():
    iet = build_iet_from("2 1", [0.6, 0.4])
    assert apply(iet, 0.3) == pytest.approx(0.7, abs=1e-15)
    assert apply(iet, 0.6) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(OutOfDomain):
        apply(iet, 1.0)
    with pytest.raises(OutOfDomain):
        apply(iet, -0.1)


def test_nan_lies_outside_the_domain():
    # every comparison with NaN is false, so the domain test must ask for membership
    iet = build_iet_from("4 3 2 1", [4, 3, 2, 1])
    for evaluate in (symbol_at, apply):
        with pytest.raises(OutOfDomain):
            evaluate(iet, float("nan"))


def test_images_tile_interval():
    iet = build_iet_from("4 2 3 1", [0.31, 0.27, 0.22, 0.2])
    lefts = sorted(apply(iet, float(e)) for e in iet.endpoints0[:-1])
    np.testing.assert_allclose(lefts, bottom_grid(iet)[:-1], atol=1e-12)


def test_omega_antisymmetric_integer():
    for mono in ("2 1", "3 2 1", "4 3 2 1", "5 3 1 4 2"):
        omega = omega_matrix(Permutation.from_monodromy(mono))
        assert np.array_equal(omega, -omega.T)
        assert set(np.unique(omega)).issubset({-1, 0, 1})


def test_irreducibility_cases():
    assert is_irreducible(Permutation.from_monodromy("2 1"))
    assert not is_irreducible(Permutation.from_monodromy("2 1 4 3"))
    assert is_irreducible(Permutation.from_monodromy("4 3 2 1"))
    assert not is_irreducible(Permutation((0, 1), (0, 1)))


def test_exact_evaluation_matches_float():
    iet = build_iet_from("3 2 1", [0.5, 0.3, 0.2])
    x = 0.41
    x_num = round(x * iet.denominator)
    y_num = apply_exact(iet, x_num)
    from fractions import Fraction
    y = float(Fraction(y_num, iet.denominator))
    assert abs(y - apply(iet, float(Fraction(x_num, iet.denominator)))) < 1e-15


def test_vectorized_apply_agrees():
    iet = build_iet_from("4 3 2 1", [0.43, 0.34, 0.12, 0.11])
    xs = np.linspace(0.01, 0.99, 57)
    np.testing.assert_allclose(apply_array(iet, xs), [apply(iet, x) for x in xs])


def test_json_roundtrip_and_monodromy_parse():
    perm = Permutation.from_monodromy("4 3 2 1")
    data = {"d": 4, "pi0": [1, 2, 3, 4], "pi1": [4, 3, 2, 1]}
    assert Permutation.from_json(data) == perm
    assert Permutation.from_json("4 3 2 1") == perm


def test_piece_orbit_rotation_by_two_fifths():
    # lengths 3/5, 2/5 on "2 1": rotation by 2/5, numerators over 5
    iet = build_iet_from("2 1", ["3/5", "2/5"])
    assert iet.e0_num == (0, 3, 5)
    assert piece_orbit(iet, 0, 1, 1) == [0, 2, 4, 1, 3]
    assert piece_orbit(iet, 0, 1, 1, budget=5) == [0, 2, 4, 1, 3]
    with pytest.raises(BudgetExceeded):
        piece_orbit(iet, 0, 1, 1, budget=4)


def test_piece_orbit_rejects_straddling_piece():
    iet = build_iet_from("2 1", ["3/5", "2/5"])
    with pytest.raises(AssertionError, match="straddles"):
        piece_orbit(iet, 2, 2, 5)
    # [0, 2) is fine, but its image [2, 4) straddles the boundary at 3
    with pytest.raises(AssertionError, match="straddles"):
        piece_orbit(iet, 0, 2, 1)
