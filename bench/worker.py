"""One benchmark worker process.

``--role setup`` builds the workload's inputs and reports how long that
took from the moment the parent started this process (``--t0``, a
``time.monotonic`` reading, which is system-wide on Linux).  ``--role
main`` does the same, runs one untimed warm-up operation whose output is
the run's reference, then runs operations back to back (one caller, closed
loop) for ``--seconds`` and checks every output.  Next to every set-up and
operation it times a fixed calibration kernel, so the parent can scale
times to a nominal machine speed.  With ``--trace 1`` the first half of
the time runs untraced and the second half under the ``Tracer``, and the
worker reports per-layer metrics instead of timings.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

from tracer import LAYERS, OP_SPAN, Tracer, summarize
from workloads import WORKLOADS, CheckFailed

SRC = Path(__file__).resolve().parents[1] / "src"

# -- per-layer metrics --------------------------------------------------------

TIMED = ("rauzy.rauzy_iterate", "iet.build_iet", "rauzy.torus_project",
         "breaking.theta_sequence", "breaking.breaking_intervals",
         "breaking.breaking_operator", "spectral.sample_theta",
         "spectral.summability_check", "spectral.lyapunov_spectrum", "spectral.qr",
         "verify.injectivity", "verify.quasi_embedding_suite",
         "verify.convergence_report", "verify.embedding_defect",
         "pwi.inductive_maps", "pwi.adapted_pwi")
CALLED = ("iet.build_iet", "rauzy.torus_project", "breaking.theta_sequence",
          "breaking.breaking_intervals", "breaking.breaking_operator",
          "breaking.breaking_sequence", "spectral.qr", "verify.injectivity",
          "pwi.hat_maps")
# exact counts: (name, unit, better)
COUNTS = (("rauzy.cocycle_bits", "bits", "lower"),
          ("breaking.intervals", "count", "lower"),
          ("breaking.segments", "count", "lower"),
          ("breaking.levels_built", "count", "lower"),
          ("spectral.sample_theta.attempts", "count", "lower"),
          ("verify.checks", "count", "higher"))
SETUP_TIMED = "catalog.symmetric4_self_inducing"


def per_layer_spec() -> list[dict]:
    """Every per-layer metric the traced run reports, in report order."""
    spec = [{"name": f"{SETUP_TIMED}.s", "unit": "s", "better": "lower"}]
    spec += [{"name": f"{layer}.self_s", "unit": "s", "better": "lower"}
             for layer in LAYERS if layer != "cli"]
    spec.append({"name": "cli.main.self_s", "unit": "s", "better": "lower"})
    spec += [{"name": f"{fn}.s", "unit": "s", "better": "lower"} for fn in TIMED]
    spec += [{"name": f"{fn}.calls", "unit": "count", "better": "lower"} for fn in CALLED]
    spec += [{"name": name, "unit": unit, "better": better} for name, unit, better in COUNTS]
    spec += [{"name": "cli.curve_reuse", "unit": "ratio", "better": "higher"},
             {"name": "trace.op_s", "unit": "s", "better": "lower"},
             {"name": "trace.unattributed_s", "unit": "s", "better": "lower"},
             {"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"}]
    return spec


def _cocycle_bits(counts: dict, trace) -> None:
    product = trace.cocycle[trace.n_steps]
    bits = max(abs(entry).bit_length() for row in product for entry in row)
    counts["rauzy.cocycle_bits"] = max(counts["rauzy.cocycle_bits"], bits)


def _intervals(counts: dict, seq) -> None:
    counts["breaking.intervals"] += seq.count


def _segments(counts: dict, curve) -> None:
    counts["breaking.segments"] += curve.n_segments


def _levels(counts: dict, curves) -> None:
    depth = len(curves) - 1
    counts["breaking.levels_built"] += depth
    counts["breaking.deepest"] = max(counts["breaking.deepest"], depth)


def _attempts(counts: dict, sample) -> None:
    counts["spectral.sample_theta.attempts"] += sample.attempts


OBSERVERS = {
    "rauzy.rauzy_iterate": _cocycle_bits,
    "breaking.breaking_intervals": _intervals,
    "breaking.breaking_operator": _segments,
    "breaking.breaking_sequence": _levels,
    "spectral.sample_theta": _attempts,
}


def layer_metrics(setup: dict, op: dict, counts: dict, op_s: float,
                  overhead_ratio: float) -> dict:
    """Per-layer metrics of one traced operation (absent layers read 0)."""
    def self_s(name: str) -> float:
        return op.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return op.get(name, (0.0, 0))[1]

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (seconds, _) in op.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += seconds
    values = {f"{SETUP_TIMED}.s": setup.get(SETUP_TIMED, (0.0, 0))[0]}
    values.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS if layer != "cli"})
    values["cli.main.self_s"] = layer_self["cli"]
    values.update({f"{fn}.s": self_s(fn) for fn in TIMED})
    values.update({f"{fn}.calls": calls(fn) for fn in CALLED})
    values.update({name: counts.get(name, 0) for name, _, _ in COUNTS})
    built = counts.get("breaking.levels_built", 0)
    values["cli.curve_reuse"] = counts["breaking.deepest"] / built if built else 0.0
    values["trace.op_s"] = op_s
    values["trace.unattributed_s"] = self_s(OP_SPAN)
    values["trace.overhead_ratio"] = overhead_ratio
    return values


# -- the timed loop ---------------------------------------------------------------

class Outcome:
    """Timings and failures of the checked operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record_failure(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def checked(workload, outcome: Outcome, run, reference):
    """Run one operation, time it and check it; returns (seconds, check counts)."""
    outcome.attempted += 1
    start = time.perf_counter()
    try:
        output = run()
    except Exception:  # an operation that raises is a failed operation
        outcome.record_failure(traceback.format_exc(limit=3))
        return time.perf_counter() - start, None
    elapsed = time.perf_counter() - start
    try:
        return elapsed, workload.check(output, reference)
    except CheckFailed as exc:
        outcome.record_failure(f"check failed: {exc}")
        return elapsed, None


def kernel_s(repeats: int = 10) -> float:
    """Mean time of a fixed calibration kernel, about 5 ms per run.

    The kernel mixes the kinds of work the package does: exact ``Fraction``
    sums, row updates and QR on 4x4 numpy arrays, and sorted-array merges
    of 20,000 floats.  It never changes with the package, so its time
    tracks only the speed the machine lends this process at the moment.
    """
    start = time.perf_counter()
    for _ in range(repeats):
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(i, 3 * i + 1)
        rows = np.zeros((4, 4))
        for i in range(600):
            rows[i % 4, :] += rows[(i + 1) % 4, :]
        for _ in range(40):
            np.linalg.qr(rows + np.eye(4))
        grid = np.arange(20_000.0)
        np.searchsorted(grid, np.union1d(grid, grid[::-1] + 0.5))
    return (time.perf_counter() - start) / repeats


class SpeedSampler:
    """Times one kernel run every ``interval`` seconds from a timer signal.

    The samples track the machine's speed during a long operation; the
    time spent in the handler is reported so it can be taken off the
    operation's time.  The handler runs between bytecodes of the main
    thread, and no thread is started.
    """

    def __init__(self, interval: float = 0.25) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(kernel_s(1))
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def timed_loop(workload, outcome: Outcome, run, reference, seconds: float) -> list:
    """Operations back to back until ``seconds`` have passed (at least one).

    Returns ``(seconds, check counts, kernel seconds)`` per operation.  The
    kernel time is the mean of the kernel blocks timed just before and just
    after the operation and of the samples taken during it; the samples'
    own time is not counted in the operation's.
    """
    results = []
    sampler = SpeedSampler()
    stop = time.perf_counter() + seconds
    before = kernel_s()
    while True:
        with sampler:
            elapsed, counts = checked(workload, outcome, run, reference)
        after = kernel_s()
        kernel = statistics.mean([before, after] + sampler.samples)
        results.append((elapsed - sampler.spent, counts, kernel))
        before = after
        if time.perf_counter() >= stop:
            return results


def nominal_median(results: list) -> float:
    """Median operation time scaled by the kernel time measured around it."""
    return statistics.median(seconds / kernel for seconds, _, kernel in results)


def main_role(workload, seed: int, seconds: float, trace: bool, t0: float) -> dict:
    outcome = Outcome()
    tracer = Tracer(OBSERVERS)
    if trace:
        import ietpwi  # noqa: F401  (the tracer wraps the imported modules)
        with tracer:
            inputs = tracer.call("bench.setup", workload.setup, seed)
        setup_summary = summarize(tracer.spans)
        tracer.reset()
    else:
        inputs = workload.setup(seed)
    setup_s = time.monotonic() - t0
    kernel_s(1)  # first calls pay numpy's lazy initialisation
    setup_kernel_s = kernel_s()

    outcome.attempted += 1
    try:
        reference = workload.run(inputs)
        workload.check(reference, reference)
    except Exception:
        outcome.record_failure("warm-up: " + traceback.format_exc(limit=3))
        return {"attempted": outcome.attempted, "failed": outcome.failed,
                "errors": outcome.errors}

    def run():
        return workload.run(inputs)

    if not trace:
        results = timed_loop(workload, outcome, run, reference, seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"attempted": outcome.attempted, "failed": outcome.failed,
                "errors": outcome.errors, "setup_s": setup_s, "setup_kernel_s": setup_kernel_s,
                "op_s": [seconds for seconds, _, _ in results],
                "kernel_s": [kernel for _, _, kernel in results], "peak_rss_mb": peak_kb / 1024,
                "work": workload.work(inputs)}

    plain = timed_loop(workload, outcome, run, reference, seconds / 2)
    recorded = []

    def traced_run():
        tracer.reset()
        try:
            return tracer.call(OP_SPAN, run)
        finally:
            recorded.append((tracer.spans, dict(tracer.counts)))

    with tracer:
        traced = timed_loop(workload, outcome, traced_run, reference, seconds / 2)
    for (_, check_counts, _), (_, counts) in zip(traced, recorded):
        counts.update(check_counts or {})
    exact = [{name: c.get(name, 0) for name, _, _ in COUNTS} for _, c in recorded]
    if any(e != exact[0] for e in exact):
        outcome.record_failure(f"exact counts differ between operations: {exact}")
    # the traced operation with the median wall time gives the reported values
    middle = sorted(range(len(traced)), key=lambda i: traced[i][0])[(len(traced) - 1) // 2]
    spans = recorded[middle][0]
    op_s = spans[0][3] - spans[0][2]   # the root span, so that self times add up to it
    op_summary = summarize(spans)
    counts = recorded[middle][1]
    ratio = nominal_median(traced) / nominal_median(plain)
    values = layer_metrics(setup_summary, op_summary, counts, op_s, ratio)
    return {"attempted": outcome.attempted, "failed": outcome.failed,
            "errors": outcome.errors, "traced_ops": len(traced),
            "layers": [[spec["name"], values[spec["name"]], spec["unit"]]
                       for spec in per_layer_spec()]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "main"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.role == "setup":
        workload.setup(args.seed)
        setup_s = time.monotonic() - args.t0
        kernel_s(1)
        result = {"setup_s": setup_s, "kernel_s": kernel_s()}
    else:
        result = main_role(workload, args.seed, args.seconds, bool(args.trace), args.t0)
    import ietpwi

    result["package"] = ietpwi.__file__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
