"""Span structure of the benchmark's tracer on small inputs.

Run from the repository root: ``python3 -m pytest bench/test_tracer.py -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ietpwi  # noqa: E402
from ietpwi import breaking, iet, pwi, rauzy, spectral, verify  # noqa: E402

from tracer import OP_SPAN, Tracer, summarize  # noqa: E402
from worker import OBSERVERS, per_layer_spec  # noqa: E402

GOLDEN = (1 + 5 ** 0.5) / 2


def golden_curves(depth: int = 8):
    exchange = ietpwi.build_iet_from("2 1", [1 / GOLDEN, 1 - 1 / GOLDEN])
    trace = rauzy.rauzy_iterate(exchange, depth)
    curves = breaking.breaking_sequence(trace, [0.3, 0.4], depth)
    return verify.injectivity(curves[-1])


def test_wraps_every_binding_and_restores_it():
    originals = (breaking.breaking_sequence, pwi.hat_maps, iet.build_iet,
                 rauzy.torus_project, spectral.np)
    with Tracer():
        assert ietpwi.breaking_sequence is breaking.breaking_sequence
        assert ietpwi.breaking_sequence is not originals[0]
        assert verify.hat_maps is pwi.hat_maps is not originals[1]
        assert rauzy.build_iet is iet.build_iet is not originals[2]
        assert breaking.torus_project is spectral.torus_project is rauzy.torus_project
        assert rauzy.torus_project is not originals[3]
        assert spectral.np is not originals[4]
    assert (breaking.breaking_sequence, pwi.hat_maps, iet.build_iet,
            rauzy.torus_project, spectral.np) == originals
    assert ietpwi.breaking_sequence is originals[0]
    assert verify.hat_maps is originals[1] and rauzy.build_iet is originals[2]


def test_spans_nest_under_their_callers():
    tracer = Tracer(OBSERVERS)
    with tracer:
        tracer.call(OP_SPAN, golden_curves)
    spans = tracer.spans
    names = [span[0] for span in spans]
    assert names[0] == OP_SPAN and spans[0][1] == -1
    for name, parent, start, end in spans[1:]:
        assert parent >= 0
        assert spans[parent][2] <= start <= end <= spans[parent][3]
    parents = {name: set() for name in names}
    for name, parent, _, _ in spans[1:]:
        parents[name].add(names[parent])
    assert parents["breaking.breaking_intervals"] == {"breaking.breaking_sequence"}
    assert parents["breaking.breaking_operator"] == {"breaking.breaking_sequence"}
    assert parents["breaking.breaking_sequence"] == {OP_SPAN}
    assert parents["iet.build_iet"] == {"rauzy.rauzy_step", "iet.build_iet_from"}
    assert "rauzy.torus_project" in {names[p] for n, p, _, _ in spans if n == "rauzy.reduce_mod_tau"}

    summary = summarize(spans)
    assert summary["breaking.breaking_intervals"][1] == tracer.counts["breaking.levels_built"] == 8
    assert summary["breaking.breaking_sequence"][1] == 1
    assert summary["verify.injectivity"][1] == 1
    total = spans[0][3] - spans[0][2]
    assert abs(sum(seconds for seconds, _ in summary.values()) - total) < 1e-9


def test_qr_is_traced_as_spectral_sees_it():
    tracer = Tracer()
    exchange = ietpwi.build_iet_from("2 1", [1 / GOLDEN, 1 - 1 / GOLDEN])
    with tracer:
        spectral.lyapunov_spectrum(exchange, 50)
    summary = summarize(tracer.spans)
    assert summary["spectral.qr"][1] == 50
    assert summary["spectral.lyapunov_spectrum"][1] == 1


def test_benchmark_file_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m["name"] for m in per_layer_spec()]
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "work_s", "peak_rss_mb"}
