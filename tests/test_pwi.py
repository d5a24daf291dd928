"""Isometry families, their inductive structure, adapted maps and orbits."""

from __future__ import annotations

from math import tau

import numpy as np
import pytest

from ietpwi.breaking import PLCurve, breaking_sequence, theta_sequence
from ietpwi.errors import (AtomMissesCurve, AtomsOverlap, InvalidInput, LevelMismatch,
                           UnclassifiablePoint)
from ietpwi.iet import (Lengths, Permutation, apply, apply_array, build_iet, build_iet_from,
                        symbol_at)
from ietpwi.pwi import (
    PlanarIsometry,
    adapted_pwi,
    hat_maps,
    induced_pwi,
    inductive_maps,
    iterate,
    map_distance,
    orbit_to_csv,
    return_word,
)
from ietpwi.rauzy import rauzy_iterate, torus_project


def test_isometry_algebra():
    t = PlanarIsometry(0.7, 1 + 2j, -0.5 + 1j)
    zs = np.array([0.1 + 0.2j, -3 + 1j, 2.5 - 0.75j])
    # distance preservation
    w = t(zs)
    assert np.allclose(np.abs(w[1:] - w[:-1]), np.abs(zs[1:] - zs[:-1]))
    # inverse and composition
    assert map_distance(t.inverse().compose(t), PlanarIsometry(0.0, 0j, 0j), zs) < 1e-14
    s = PlanarIsometry(1.1, 0.2j, 3 - 1j)
    st = s.compose(t)
    assert np.max(np.abs(st(zs) - s(t(zs)))) < 1e-14
    # fixed point
    fp = t.fixed_point()
    assert abs(t(fp) - fp) < 1e-12


def test_hat_maps_zero_theta_is_grid(reference_trace):
    # at zero theta each map sends its top-row piece onto its bottom-row piece
    iet = reference_trace.initial
    ident = PLCurve.identity(iet.total)
    for m in (0, 2, 5):
        state = reference_trace.states[m]
        maps = hat_maps(ident, reference_trace, m, [0.0] * 4, 5)
        for symbol in range(4):
            p0 = state.perm.position0(symbol)
            p1 = state.perm.position1(symbol)
            ends = maps[symbol](state.endpoints0[p0:p0 + 2].astype(complex))
            np.testing.assert_allclose(ends.real, state.endpoints1[p1:p1 + 2], atol=1e-12)
            np.testing.assert_allclose(ends.imag, 0.0, atol=1e-15)


def test_hat_maps_chain_anchor(reference_trace, reference_curves, reference_theta_seq):
    # the bottom row's last piece ends where the curve ends on the level grid
    state = reference_trace.states[5]
    maps = hat_maps(reference_curves[12], reference_trace, 5,
                    reference_theta_seq.entries[5], 12)
    assert maps[state.perm.bottom[-1]].b == reference_curves[12].evaluate(
        state.endpoints0[-1])


def test_hat_maps_level_mismatch(reference_trace, reference_curves):
    with pytest.raises(LevelMismatch):
        hat_maps(reference_curves[3], reference_trace, 7, [0.0] * 4, 3)


def test_hat_maps_zero_theta_translate_real(reference_trace):
    iet = reference_trace.initial
    ident = PLCurve.identity(iet.total)
    maps = hat_maps(ident, reference_trace, 0, [0.0] * 4, 0)
    zs = np.array([0.2 + 0.5j, 0.9 - 0.1j])
    for symbol in range(4):
        expected = zs + iet.upsilon[symbol]
        assert np.max(np.abs(maps[symbol](zs) - expected)) < 1e-12


def test_hat_continuity_of_rearranged_pieces(reference_trace, reference_curves,
                                             reference_theta_seq):
    # consecutive bottom-row pieces join: each starts where the one before ends
    for (n, m) in ((12, 5), (8, 8), (10, 0)):
        curve = reference_curves[n]
        maps = hat_maps(curve, reference_trace, m, reference_theta_seq.entries[m], n)
        state = reference_trace.states[m]
        gamma0 = curve.evaluate(state.endpoints0)
        for left, right in zip(state.perm.bottom[:-1], state.perm.bottom[1:]):
            end = maps[left](gamma0[state.perm.position0(left) + 1])
            start = maps[right](gamma0[state.perm.position0(right)])
            assert abs(end - start) <= 1e-10


def test_inductive_base_case_equals_direct(reference_trace, reference_curves,
                                           reference_theta_seq):
    n = 9
    direct = hat_maps(reference_curves[n], reference_trace, n,
                      reference_theta_seq.entries[n], n)
    chained = inductive_maps(reference_trace, reference_curves[n],
                             reference_theta_seq, n)[n]
    zs = np.array([0.3 + 0.4j, -1 + 2j])
    for a, b in zip(direct, chained):
        assert map_distance(a, b, zs) == 0.0


def test_map_agreement_random_theta(reference_trace):
    rng = np.random.default_rng(3)
    theta = rng.uniform(0, tau, 4)
    depth = 9
    curves = breaking_sequence(reference_trace, theta, depth)
    seq = theta_sequence(reference_trace, theta, depth)
    zs = rng.uniform(-1, 1, 16) + 1j * rng.uniform(-1, 1, 16)
    for n in range(depth + 1):
        families = inductive_maps(reference_trace, curves[n], seq, n)
        assert len(families) == n + 1
        for m in range(n + 1):
            direct = hat_maps(curves[n], reference_trace, m, seq.entries[m], n)
            worst = max(map_distance(a, b, zs) for a, b in zip(direct, families[m]))
            assert worst <= 1e-9 * (1 + n)


def test_quasi_embedding_identity_random_theta(reference_trace):
    rng = np.random.default_rng(4)
    theta = rng.uniform(0, tau, 4)
    n, m = 8, 3
    curves = breaking_sequence(reference_trace, theta, n)
    seq = theta_sequence(reference_trace, theta, n)
    maps = inductive_maps(reference_trace, curves[n], seq, n)[m]
    state = reference_trace.states[m]
    total_n = reference_trace.states[n].total
    xs = np.linspace(0, state.total, 400, endpoint=False)[1:]
    for e in state.endpoints0[:-1]:
        xs = xs[np.abs(xs - e) > 1e-10]
    fx = apply_array(state, xs)
    keep = fx >= total_n
    xs, fx = xs[keep], fx[keep]
    slots = np.clip(np.searchsorted(state.endpoints0, xs, side="right") - 1, 0, 3)
    worst = 0.0
    for j in range(4):
        sel = slots == j
        if np.any(sel):
            lhs = maps[state.perm.top[j]](curves[n].evaluate(xs[sel]))
            rhs = curves[n].evaluate(fx[sel])
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-9 * (1 + n)


def test_inductive_zero_theta_matches_exchange(reference_trace):
    iet = reference_trace.initial
    ident = PLCurve.identity(iet.total)
    seq = theta_sequence(reference_trace, [0.0] * 4, 6)
    curves = [ident] * 7
    maps = inductive_maps(reference_trace, curves[6], seq, 6)[0]
    xs = np.linspace(0.01, iet.total - 0.01, 37)
    for x in xs:
        symbol = symbol_at(iet, float(x))
        assert abs(maps[symbol](complex(x)) - apply(iet, float(x))) < 1e-10


def test_adapted_pwi_zero_theta_degenerates(reference_trace):
    iet = reference_trace.initial
    ident = PLCurve.identity(iet.total)
    pwi = adapted_pwi(ident, iet, [0.0] * 4)
    for x in (0.05, 0.3, 0.77):
        assert pwi.apply(complex(x)) == pytest.approx(apply(iet, x), abs=1e-13)


def test_adapted_pwi_rotation_vector_and_isometry(reference, reference_curves,
                                                  reference_sample):
    theta = [float(x) % tau for x in reference_sample.v]
    pwi = adapted_pwi(reference_curves[-1], reference.iet, theta)
    np.testing.assert_allclose(pwi.theta, theta)
    rng = np.random.default_rng(0)
    zs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    for m in pwi.maps:
        w = m(zs)
        assert np.max(np.abs(np.abs(np.diff(w)) - np.abs(np.diff(zs)))) < 1e-12


def test_orbit_matches_exchange_itinerary(reference, reference_curves,
                                          reference_sample):
    iet = reference.iet
    theta = [float(x) % tau for x in reference_sample.v]
    pwi = adapted_pwi(reference_curves[-1], iet, theta)
    x = 0.389 * iet.total
    orbit, itinerary = iterate(pwi, complex(reference_curves[-1].evaluate(x)), 30)
    expected = []
    cursor = x
    for _ in range(30):
        expected.append(symbol_at(iet, cursor))
        cursor = apply(iet, cursor)
    assert itinerary == expected


def test_orbit_zero_theta_real(reference_trace):
    iet = reference_trace.initial
    pwi = adapted_pwi(PLCurve.identity(iet.total), iet, [0.0] * 4)
    orbit, _ = iterate(pwi, complex(0.389 * iet.total), 20)
    cursor = 0.389 * iet.total
    for k in range(21):
        assert orbit[k].imag == 0.0
        assert abs(orbit[k].real - cursor) < 1e-12
        if k < 20:
            cursor = apply(iet, cursor)


def test_rotation_fixed_point_constant_orbit(reference, reference_curves,
                                             reference_sample):
    iet = reference.iet
    theta = [float(x) % tau for x in reference_sample.v]
    pwi = adapted_pwi(reference_curves[-1], iet, theta)
    for symbol in range(4):
        pivot = pwi.maps[symbol].fixed_point()
        if pwi.classify(pivot) == symbol:
            orbit, _ = iterate(pwi, pivot, 6)
            assert np.max(np.abs(orbit - pivot)) < 1e-10
            return
    pytest.skip("no pivot lies in its own atom for this draw")


def test_polygon_atoms_validation(reference, reference_curves, reference_sample):
    theta = [float(x) % tau for x in reference_sample.v]
    square = np.array([[0.0, -1.0], [2.0, -1.0], [2.0, 1.0], [0.0, 1.0]])
    with pytest.raises(AtomsOverlap):
        adapted_pwi(reference_curves[-1], reference.iet, theta,
                    polygons=[square, square + 0.5, square + 9, square + 12])
    far = [square + 10 * (k + 1) for k in range(4)]
    with pytest.raises(AtomMissesCurve):
        adapted_pwi(reference_curves[-1], reference.iet, theta, polygons=far)


def test_polygon_atoms_need_one_polygon_per_atom():
    iet = build_iet_from("2 1", [0.6, 0.4])
    box = np.array([[-0.1, -0.1], [1.1, -0.1], [1.1, 0.1], [-0.1, 0.1]])
    with pytest.raises(InvalidInput, match="one polygon per atom"):
        adapted_pwi(PLCurve.identity(iet.total), iet, [0.0, 0.0], polygons=[box])


def test_polygon_atoms_degenerate_case_classifies():
    iet = build_iet_from("2 1", [0.6, 0.4])
    ident = PLCurve.identity(iet.total)
    polys = [np.array([[-0.01, -0.1], [0.6, -0.1], [0.6, 0.1], [-0.01, 0.1]]),
             np.array([[0.6, -0.1], [1.01, -0.1], [1.01, 0.1], [0.6, 0.1]])]
    pwi = adapted_pwi(ident, iet, [0.0, 0.0], polygons=polys)
    assert pwi.classify(0.2 + 0j) == iet.perm.top[0]
    with pytest.raises(UnclassifiablePoint):
        pwi.classify(5.0 + 5.0j)


def test_polygon_atoms_label_maps_by_symbol_on_a_permuted_top_row():
    # slot 0 carries symbol 1 and slot 1 symbol 0
    iet = build_iet(Permutation((1, 0), (0, 1)), Lengths.from_values([0.6, 0.4]))
    ident = PLCurve.identity(iet.total)
    theta = [0.25, 1.5]
    polys = [np.array([[-0.01, -0.1], [0.4, -0.1], [0.4, 0.1], [-0.01, 0.1]]),
             np.array([[0.4, -0.1], [1.01, -0.1], [1.01, 0.1], [0.4, 0.1]])]
    by_polygon = adapted_pwi(ident, iet, theta, polygons=polys)
    by_curve = adapted_pwi(ident, iet, theta)
    for pwi in (by_polygon, by_curve):
        labels = {entry["symbol"]: entry["angle"] for entry in pwi.to_json()["maps"]}
        assert labels == {0: 0.25, 1: 1.5}
    for x in (0.1, 0.35, 0.45, 0.9):
        symbol = symbol_at(iet, x)
        assert by_polygon.classify(complex(x)) == by_curve.classify(complex(x)) == symbol
        assert by_polygon.apply(complex(x)) == by_curve.apply(complex(x))


def test_return_word_letter_counts_match_cocycle(reference_trace):
    for n in (1, 4, 7):
        for symbol in range(4):
            word = return_word(reference_trace, n, symbol)
            counts = [word.count(b) for b in range(4)]
            assert counts == list(reference_trace.cocycle[n][symbol])


def test_induced_level_zero_identity(reference, reference_curves, reference_sample):
    theta = [float(x) % tau for x in reference_sample.v]
    pwi = adapted_pwi(reference_curves[-1], reference.iet, theta)
    assert induced_pwi(pwi, rauzy_iterate(reference.iet, 3), 0) is pwi


def test_induced_rotation_vector_is_pushed(reference, reference_trace,
                                           reference_curves, reference_sample):
    theta = [float(x) % tau for x in reference_sample.v]
    pwi = adapted_pwi(reference_curves[-1], reference.iet, theta)
    for n in (1, 4):
        ind = induced_pwi(pwi, reference_trace, n)
        pushed = torus_project(reference_trace.cocycle[n], theta)
        wrapped = np.mod(ind.theta - pushed + np.pi, tau) - np.pi
        assert np.max(np.abs(wrapped)) < 1e-10


def test_induced_composition_two_symbols(golden_iet):
    trace = rauzy_iterate(golden_iet, 8)
    theta = [0.3, 0.4]
    curves = breaking_sequence(trace, theta, 8)
    pwi = adapted_pwi(curves[-1], golden_iet, theta)
    ind = induced_pwi(pwi, trace, 1)
    zs = np.array([0.1 + 0.2j, -0.3 + 0.05j])
    for symbol in range(2):
        word = return_word(trace, 1, symbol)
        composed = pwi.maps[word[0]]
        for letter in word[1:]:
            composed = pwi.maps[letter].compose(composed)
        assert map_distance(composed, ind.maps[symbol], zs) < 1e-12


def test_induced_conjugacy_defect(reference, reference_trace, reference_curves,
                                  reference_sample):
    theta = [float(x) % tau for x in reference_sample.v]
    proxy = reference_curves[-1]
    pwi = adapted_pwi(proxy, reference.iet, theta)
    for n in (2, 5):
        ind = induced_pwi(pwi, reference_trace, n)
        state = reference_trace.states[n]
        xs = np.linspace(0, state.total, 150, endpoint=False)[1:]
        for e in state.endpoints0[:-1]:
            xs = xs[np.abs(xs - e) > 1e-9]
        fx = apply_array(state, xs)
        slots = np.clip(np.searchsorted(state.endpoints0, xs, side="right") - 1, 0, 3)
        worst = 0.0
        for j in range(4):
            sel = slots == j
            if np.any(sel):
                lhs = ind.maps[state.perm.top[j]](proxy.evaluate(xs[sel]))
                worst = max(worst, float(np.max(np.abs(lhs - proxy.evaluate(fx[sel])))))
        assert worst <= 1e-8


def test_orbit_csv_format():
    orbit = np.array([0 + 0j, 1 + 1j])
    text = orbit_to_csv(orbit, [2])
    lines = text.splitlines()
    assert lines[0] == "step,re,im,atom"
    assert lines[1].startswith("0,") and lines[1].endswith(",2")
