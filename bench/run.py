"""Benchmark of the ietpwi package: one workload, checked, timed and optionally traced.

Usage (from the repository root)::

    python3 bench/run.py --workload verify-catalog --seed 0 --seconds 15 --trace 0

Set-up time is measured in ``SETUP_PROCESSES`` fresh worker processes, one
after another; the last of them then runs the workload's operations as a
closed loop with one caller (see ``worker.py``).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits 2 without a result when the package sources are missing, and 1 when
a worker fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import LYAPUNOV_BLOCKS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROCESSES = 3
DEADLINE_S = 170.0
# Time of worker.kernel_s on a quiet machine.  Every end-to-end time is
# scaled by NOMINAL_KERNEL_S / (kernel time measured next to it), which
# removes the drift of the machine's speed over a run.
NOMINAL_KERNEL_S = 0.004


def percentile_beyond(values: list[float], beyond: int = 10):
    """Highest percentile with at least ``beyond`` samples above it, or None."""
    ordered = sorted(values)
    below = len(ordered) - beyond
    if below < 1:
        return None
    return 100 * below // len(ordered), ordered[below - 1]


def run_worker(args: argparse.Namespace, role: str, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("time budget exhausted before the worker started")
    t0 = time.monotonic()
    command = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--role", role, "--t0", repr(t0)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=remaining)
    if done.returncode != 0:
        raise RuntimeError(f"{role} worker exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    package = Path(result["package"]).resolve()
    if ROOT / "src" not in package.parents:
        raise RuntimeError(f"worker imported ietpwi from {package}, not from {ROOT / 'src'}")
    return result


def end_to_end(args: argparse.Namespace, setups: list[tuple[float, float]],
               main: dict) -> dict:
    """End-to-end metrics, each time scaled to the nominal machine speed."""
    workload = WORKLOADS[args.workload]
    op = main["op_s"]
    median = statistics.median(op)
    setup_raw = statistics.median(s for s, _ in setups)
    setup_s = statistics.median(s * NOMINAL_KERNEL_S / k for s, k in setups)
    op_nominal = [t * NOMINAL_KERNEL_S / k for t, k in zip(op, main["kernel_s"])]
    work_s = statistics.median(op_nominal) / main["work"]
    print(f"workload {args.workload}, seed {args.seed}: one caller, closed loop, "
          f"{len(op)} timed operations after 1 warm-up")
    print(f"kernel: median {statistics.median(main['kernel_s']) * 1e3:.3f} ms "
          f"(nominal {NOMINAL_KERNEL_S * 1e3:.3f} ms)")
    print(f"setup_s: median {setup_raw:.4f} s wall, {setup_s:.4f} s at nominal speed, "
          f"over {len(setups)} fresh processes {[round(s, 4) for s, _ in setups]}")
    tail = percentile_beyond(op)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                 "no percentile has 10 samples beyond it")
    print(f"{workload.op_name}: median {median:.4f} s wall, {tail_text}, "
          f"fastest {min(op):.4f} s, n={len(op)}")
    print(f"{workload.op_name} per operation: {[round(t, 4) for t in op]}")
    if args.workload == "lyapunov":
        print(f"blocks_per_s: median {LYAPUNOV_BLOCKS / median:.1f} 1/s at "
              f"{LYAPUNOV_BLOCKS} blocks per call, {main['work']:.6f} million work units")
    print(f"work_s: {work_s:.4f} s per {workload.work_unit} at nominal speed")
    print(f"peak_rss_mb: {main['peak_rss_mb']:.1f} MB")
    print(f"fail_ratio: {main['failed']}/{main['attempted']}")
    return {"setup_s": {"value": setup_s, "unit": "s"},
            "work_s": {"value": work_s, "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"}}


def per_layer(args: argparse.Namespace, main: dict) -> dict:
    print(f"workload {args.workload}, seed {args.seed}: {main['traced_ops']} traced "
          f"operations; values are those of the median one")
    metrics = {}
    for name, value, unit in main["layers"]:
        print(f"{name}: {value} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "ietpwi" / "__init__.py").is_file():
        print(f"error: package sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROCESSES - 1):
                setup = run_worker(args, "setup", deadline)
                setups.append((setup["setup_s"], setup["kernel_s"]))
        main_result = run_worker(args, "main", deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for error in main_result["errors"]:
        print(f"failed operation: {error}", file=sys.stderr)
    if "op_s" not in main_result and "layers" not in main_result:
        print("error: the warm-up operation failed; nothing was timed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(args, main_result)
    else:
        setups.append((main_result["setup_s"], main_result["setup_kernel_s"]))
        metrics = end_to_end(args, setups, main_result)
    print(json.dumps({"correct": main_result["failed"] == 0,
                      "attempted": main_result["attempted"],
                      "failed": main_result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
