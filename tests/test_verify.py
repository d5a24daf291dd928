"""Certification checks: defects, convergence, injectivity, triviality."""

from __future__ import annotations

import json
from math import tau

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ietpwi.breaking import PLCurve, breaking_sequence, theta_sequence
from ietpwi.pwi import adapted_pwi
from ietpwi.verify import (
    _cell_keys,
    _pairs_from_cells,
    VerificationReport,
    convergence_report,
    discontinuity_orbit,
    embedding_defect,
    injectivity,
    is_nontrivial,
    isometry_defect,
    nontriviality,
    quasi_embedding_suite,
)


def make_polyline(points):
    pts = [complex(p) for p in points]
    x = [0.0]
    for a, b in zip(pts[:-1], pts[1:]):
        x.append(x[-1] + abs(b - a))
    return PLCurve(x[-1], np.array(x[:-1]), np.array(pts))


def _pairs_oracle(px, py, cell):
    """Candidate pairs of the dict-of-cells scan, in the scan's order."""
    ix = np.floor(px / cell).astype(np.int64)
    iy = np.floor(py / cell).astype(np.int64)
    buckets = {}
    for i, key in enumerate(zip(ix.tolist(), iy.tolist())):
        buckets.setdefault(key, []).append(i)
    pairs = []
    for (cx, cy), members in buckets.items():
        for dx in (0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy <= 0:
                    continue
                other = buckets.get((cx + dx, cy + dy))
                if other:
                    for i in members:
                        for j in other:
                            pairs.append((i, j))
        k = len(members)
        for a in range(k):
            for b in range(a + 1, k):
                pairs.append((members[a], members[b]))
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    return np.array(pairs, dtype=np.int64)


def _injectivity_oracle(curve):
    """The pure-Python reference of ``injectivity``: one pass over all pairs."""
    p = curve.z[:-1]
    q = curve.z[1:]
    n = len(p)
    if n >= 2:
        t = q - p
        dots = np.real(t[1:] * np.conj(t[:-1]))
        norms = np.abs(t[1:]) * np.abs(t[:-1])
        folded = (norms > 0) & (dots / np.where(norms > 0, norms, 1.0) < -1 + 1e-12)
        if np.any(folded):
            i = int(np.argmax(folded))
            return False, (i, i + 1)
    else:
        return True, None
    lengths = np.abs(q - p)
    cell = max(float(np.max(lengths)), 1e-12)
    mid = (p + q) / 2.0
    pairs = _pairs_oracle(mid.real, mid.imag, cell)
    if len(pairs) == 0:
        return True, None
    adjacent = np.abs(pairs[:, 0] - pairs[:, 1]) <= 1
    pairs = pairs[~adjacent]
    if len(pairs) == 0:
        return True, None
    a0, a1 = p[pairs[:, 0]], q[pairs[:, 0]]
    b0, b1 = p[pairs[:, 1]], q[pairs[:, 1]]

    def cross(u, v):
        return u.real * v.imag - u.imag * v.real

    d1 = cross(a1 - a0, b0 - a0)
    d2 = cross(a1 - a0, b1 - a0)
    d3 = cross(b1 - b0, a0 - b0)
    d4 = cross(b1 - b0, a1 - b0)
    proper = (d1 * d2 < 0) & (d3 * d4 < 0)
    scale = np.abs(a1 - a0) * np.abs(b1 - b0) + 1e-300
    graze = np.zeros(len(pairs), dtype=bool)
    for dd, seg_start, seg_end, pt in ((d1, a0, a1, b0), (d2, a0, a1, b1),
                                       (d3, b0, b1, a0), (d4, b0, b1, a1)):
        on_line = np.abs(dd) <= 1e-14 * scale
        t = np.real((pt - seg_start) * np.conj(seg_end - seg_start))
        inside = (t >= 0) & (t <= np.abs(seg_end - seg_start) ** 2)
        graze |= on_line & inside
    bad = proper | graze
    if np.any(bad):
        k = int(np.argmax(bad))
        return False, (int(pairs[k, 0]), int(pairs[k, 1]))
    return True, None


def _sorted_pairs(first, second):
    order = np.lexsort((second, first))
    return np.stack([first[order], second[order]], axis=1)


# vertices on a small lattice give exact crossings, folds, touching
# endpoints and collinear overlaps; a far first vertex makes one long
# segment and so one coarse grid with crowded cells
_LATTICE = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
_FREE = st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))


@st.composite
def polylines(draw):
    points = draw(st.lists(st.one_of(_LATTICE, _FREE), min_size=2, max_size=40))
    if draw(st.booleans()):
        points.insert(0, complex(draw(st.integers(8, 40)), 0))
    return make_polyline([draw(st.sampled_from([1.0, 0.37, 1e3])) * p for p in points])


def test_report_determinism(reference_trace, reference_curves, reference_theta_seq):
    a = quasi_embedding_suite(reference_trace, reference_curves,
                              reference_theta_seq, 4, seed=3)
    b = quasi_embedding_suite(reference_trace, reference_curves,
                              reference_theta_seq, 4, seed=3)
    assert a.to_json() == b.to_json()
    json.loads(a.to_json())


def test_report_rejects_bad_defects():
    report = VerificationReport()
    with pytest.raises(ValueError):
        report.add("x", float("nan"), 1.0)
    with pytest.raises(ValueError):
        report.add("x", -1.0, 1.0)


def test_embedding_defect_zero_theta(reference):
    iet = reference.iet
    ident = PLCurve.identity(iet.total)
    pwi = adapted_pwi(ident, iet, [0.0] * 4)
    assert embedding_defect(ident, pwi, iet) < 1e-12


def test_embedding_defect_decreases_with_depth(reference, reference_trace,
                                               reference_sample):
    iet = reference.iet
    theta = [float(x) % tau for x in reference_sample.v]
    defects = []
    for depth in (20, 35):
        curves = breaking_sequence(reference_trace, reference_sample.v, depth)
        pwi = adapted_pwi(curves[-1], iet, theta)
        defects.append(embedding_defect(curves[-1], pwi, iet))
    assert defects[1] < 0.25 * defects[0]


def test_embedding_defect_random_theta_stays_large(reference, reference_trace):
    rng = np.random.default_rng(21)
    iet = reference.iet
    theta = rng.uniform(0, tau, 4)
    curves = breaking_sequence(reference_trace, theta, 18)
    pwi = adapted_pwi(curves[-1], iet, list(theta))
    assert embedding_defect(curves[-1], pwi, iet) > 1e-3


def test_quasi_suite_zero_theta(reference_trace):
    curves = breaking_sequence(reference_trace, [0.0] * 4, 6)
    seq = theta_sequence(reference_trace, [0.0] * 4, 6)
    report = quasi_embedding_suite(reference_trace, curves, seq, 6)
    assert report.max_defect() < 1e-12
    assert report.all_pass


def test_quasi_suite_diagonal_levels_exact(reference_trace, reference_curves,
                                           reference_theta_seq):
    report = quasi_embedding_suite(reference_trace, reference_curves,
                                   reference_theta_seq, 5)
    for check in report.checks:
        if check.n == check.m:
            assert check.defect == 0.0


def test_quasi_suite_reference_within_scale(reference_trace, reference_curves,
                                            reference_theta_seq):
    report = quasi_embedding_suite(reference_trace, reference_curves,
                                   reference_theta_seq, 10)
    assert report.all_pass
    assert report.max_defect() <= 1e-9 * 11


def test_convergence_zero_theta(reference_trace):
    curves = breaking_sequence(reference_trace, [0.0] * 4, 8)
    seq = theta_sequence(reference_trace, [0.0] * 4, 8)
    report = convergence_report(curves, seq, reference_trace)
    for check in report.checks:
        if check.check == "increment_bound":
            assert check.defect == 0.0
    assert report.all_pass


def test_convergence_reference_bounds_hold(reference_trace, reference_curves,
                                           reference_theta_seq):
    report = convergence_report(reference_curves, reference_theta_seq,
                                reference_trace)
    for check in report.checks:
        if check.check == "increment_bound":
            assert check.passed
            assert check.meta["slack"] >= -1e-12


def test_convergence_random_theta_flags_divergence(reference_trace):
    rng = np.random.default_rng(33)
    theta = rng.uniform(0, tau, 4)
    curves = breaking_sequence(reference_trace, theta, 16)
    seq = theta_sequence(reference_trace, theta, 16)
    report = convergence_report(curves, seq, reference_trace)
    summable = [c for c in report.checks if c.check == "increments_summable"][0]
    assert summable.defect == 1.0  # divergence flag raised


def test_injectivity_identity_and_reference(reference_curves):
    ok, witness = injectivity(PLCurve.identity(1.0))
    assert ok and witness is None
    ok, witness = injectivity(reference_curves[25])
    assert ok and witness is None


def test_injectivity_detects_crossing():
    curve = make_polyline([0, 1, 1 + 1j, 1j, 0.5 - 0.5j])
    ok, witness = injectivity(curve)
    assert not ok
    assert witness is not None and witness[0] < witness[1]


def test_injectivity_detects_fold_back():
    curve = make_polyline([0, 1, 0.25])
    ok, witness = injectivity(curve)
    assert not ok and witness == (0, 1)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(polylines())
def test_injectivity_matches_oracle_on_polylines(curve):
    assert injectivity(curve) == _injectivity_oracle(curve)


def test_injectivity_witness_is_first_in_scan_order():
    # segment 0 has a cell of its own; segments 1-3 share the cell below it,
    # whose scan pairs its members with segment 0 before pairing them with
    # each other, so the bad pair (2, 0) is reported before (1, 3)
    curve = make_polyline([-2, 1j, -1 - 2j, -2 + 1j, 1 - 2j])
    assert injectivity(curve) == _injectivity_oracle(curve) == (False, (2, 0))


@pytest.mark.parametrize("depth", [25, 45])
def test_candidate_pairs_match_oracle_on_catalog_curves(reference_curves, depth):
    curve = reference_curves[depth]
    p, q = curve.z[:-1], curve.z[1:]
    mid = (p + q) / 2.0
    cell = float(np.max(np.abs(q - p)))
    first, second = _pairs_from_cells(*_cell_keys(mid.real, mid.imag, cell))
    oracle = _pairs_oracle(mid.real, mid.imag, cell)
    assert len(first) == len(oracle) > curve.n_segments
    assert np.array_equal(_sorted_pairs(first, second),
                          _sorted_pairs(oracle[:, 0], oracle[:, 1]))
    assert injectivity(curve) == _injectivity_oracle(curve) == (True, None)


def test_nontriviality_identity_is_trivial():
    report = nontriviality(PLCurve.identity(1.0), [0.25, 0.7])
    assert not is_nontrivial(report)
    assert report.checks[0].meta["best_min_residual"] < 1e-8


def test_nontriviality_arc_is_trivial():
    ts = np.linspace(0.0, 1.0, 400)
    pts = np.exp(1j * ts) + (0.3 - 0.2j)
    x = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(pts)))])
    arc = PLCurve(x[-1], x[:-1], pts)
    report = nontriviality(arc, [x[-1] / 2])
    witness = report.checks[0].meta["witness"]
    assert witness["circle_residual"] < 1e-6
    assert not is_nontrivial(report)


def test_nontriviality_reference_curve(reference, reference_trace,
                                       reference_curves):
    cuts = discontinuity_orbit(reference.iet, 3)
    report = nontriviality(reference_curves[25], cuts)
    assert is_nontrivial(report)
    witness = report.checks[0].meta["witness"]
    assert witness["line_residual"] > 1e-3
    assert witness["circle_residual"] > 1e-3


def test_nontriviality_counts_degenerate_pieces(reference_curves):
    curve = reference_curves[3]
    fine_cuts = np.linspace(0, curve.length, 200)[1:-1]
    report = nontriviality(curve, fine_cuts)
    assert report.checks[0].meta["degenerate"] > 0


def test_discontinuity_orbit_exact(reference):
    cuts = discontinuity_orbit(reference.iet, 2)
    assert np.all(cuts >= 0) and np.all(cuts < reference.iet.total)
    assert len(cuts) == len(np.unique(cuts))
    assert len(cuts) >= 9  # 3 interior endpoints, 3 levels, minus collisions


def test_isometry_defect_unit_speed_curves(reference_curves):
    for curve in reference_curves[::10]:
        assert isometry_defect(curve) <= 1e-10


def test_isometry_defect_scaled_curve(reference_curves):
    base = reference_curves[5]
    scaled = PLCurve(base.length, base.x.copy(), base.z * 1.1)
    defect = isometry_defect(scaled)
    assert defect == pytest.approx(0.1 * base.length, rel=1e-6)


def test_isometry_defect_proxy_cauchy(reference_trace, reference_sample):
    curves = breaking_sequence(reference_trace, reference_sample.v, 30)
    assert isometry_defect(curves[30]) < 1e-8
    assert isometry_defect(curves[25]) < 1e-8
