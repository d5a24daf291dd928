"""Workload inputs, operations and output checks.

Each workload builds its inputs from the benchmark seed (``setup``), runs
one operation on them (``run``) and checks the operation's output
(``check``), raising ``CheckFailed`` when it is wrong.  The first output of
a run is the reference that every later output of the same run must
reproduce: exact integers and exact rationals exactly, floats within a
stated tolerance, and the ``verify`` report byte for byte (the package
promises deterministic reports).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An operation returned a wrong output."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# verify-catalog: the certification command, in process
# ---------------------------------------------------------------------------

# Sampling radius for the certification.  At the CLI default (0.5) the
# depth-45 embedding defect exceeds its 1e-6 tolerance for 16 of seeds
# 0..29, and at 0.1 for seed 3; the defect scales with the radius, and at
# 0.05 every seed in 0..59 passes with the largest defect 5.8e-7.
VERIFY_DELTA = "0.05"


def verify_setup(seed: int) -> dict:
    from ietpwi import catalog

    catalog.symmetric4_self_inducing()
    argv = ["verify", "--catalog", "--steps", "8", "--delta", VERIFY_DELTA,
            "--seed", str(seed), "--json"]
    return {"argv": argv}


def verify_run(inputs: dict) -> tuple[int, str]:
    from ietpwi import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(inputs["argv"]))
    return code, out.getvalue()


def verify_check(output: tuple[int, str], reference: tuple[int, str]) -> dict:
    code, text = output
    _require(code == 0, f"verify exited {code}")
    checks = json.loads(text)
    failing = [c["check"] for c in checks if not c["pass"]]
    _require(not failing, f"failing checks: {failing}")
    _require(text == reference[1], "report differs from the run's first report")
    return {"verify.checks": len(checks)}


# ---------------------------------------------------------------------------
# deep-curve: one deep curve build plus the exact injectivity test
# ---------------------------------------------------------------------------

DEEP_TRACE_STEPS = 420
DEEP_SAMPLE_DEPTH = 45     # depth of the acceptance pipeline's injectivity test
DEEP_DEPTH = 56
DEEP_SEGMENTS = 232_796    # segments of the depth-56 curve on the catalog exchange
TOL_UNIT_SPEED = 1e-12
TOL_ENDPOINT = 1e-9


def deep_setup(seed: int) -> dict:
    from ietpwi import catalog

    reference = catalog.symmetric4_self_inducing()
    return {"iet": reference.iet, "frame": reference.stable_frame_exact(), "seed": seed}


def deep_run(inputs: dict) -> dict:
    from ietpwi import breaking, rauzy, spectral, verify

    iet = inputs["iet"]
    trace = rauzy.rauzy_iterate(iet, DEEP_TRACE_STEPS)
    # the acceptance pipeline's policy: start at radius 0.5 and halve it
    # until the depth-45 curve of the sample is injective
    delta = 0.5
    sample = None
    for _ in range(8):
        candidate = spectral.sample_theta(inputs["frame"], delta, inputs["seed"],
                                          upsilon=iet.upsilon, trace=trace)
        shallow = breaking.breaking_sequence(trace, candidate.v, DEEP_SAMPLE_DEPTH)
        if verify.injectivity(shallow[-1])[0]:
            sample = candidate
            break
        delta /= 2.0
    _require(sample is not None, "no injective sample within 8 halvings")
    curves = breaking.breaking_sequence(trace, sample.v, DEEP_DEPTH)
    last = curves[-1]
    injective, witness = verify.injectivity(last)
    return {"steps": trace.n_steps, "error": trace.error, "theta": tuple(sample.v),
            "delta": delta, "segments": last.n_segments, "injective": injective,
            "witness": witness, "unit_speed_defect": last.unit_speed_defect(),
            "end": complex(last.z[-1])}


def deep_check(output: dict, reference: dict) -> dict:
    _require(output["error"] is None and output["steps"] == DEEP_TRACE_STEPS,
             f"induction stopped: {output['error']} after {output['steps']} steps")
    _require(output["segments"] == DEEP_SEGMENTS,
             f"{output['segments']} segments, expected {DEEP_SEGMENTS}")
    _require(output["injective"], f"curve self-intersects at {output['witness']}")
    _require(output["unit_speed_defect"] <= TOL_UNIT_SPEED,
             f"unit-speed defect {output['unit_speed_defect']:.3e}")
    _require(output["theta"] == reference["theta"] and output["delta"] == reference["delta"],
             "sampled rotation vector differs from the run's first one")
    _require(abs(output["end"] - reference["end"]) <= TOL_ENDPOINT,
             "curve endpoint differs from the run's first one")
    return {}


# ---------------------------------------------------------------------------
# lyapunov: the float spectral driver at 1e5 blocks
# ---------------------------------------------------------------------------

LYAPUNOV_BLOCKS = 100_000
TOL_EXPONENT = 1e-9


def lyapunov_setup(seed: int) -> dict:
    from ietpwi.iet import Lengths, Permutation, build_iet

    rng = np.random.default_rng(seed)
    lengths = Lengths.from_values(list(rng.dirichlet(np.ones(4))))
    return {"iet": build_iet(Permutation.from_monodromy("4 3 2 1"), lengths)}


def lyapunov_run(inputs: dict):
    from ietpwi import spectral

    return spectral.lyapunov_spectrum(inputs["iet"], LYAPUNOV_BLOCKS)


def float_rauzy_steps(iet, blocks: int) -> int:
    """Rauzy steps the float spectral driver takes to complete ``blocks`` blocks.

    An independent double-precision Rauzy-Veech induction with the
    driver's update (the winner keeps the difference of the two final
    lengths; lengths are renormalized every 64 steps); a block is a maximal
    run of steps of one type.  Block sizes are heavy-tailed, so the step
    count of 1e5 blocks ranges over about a factor of two between length
    vectors, and with it the time of a call.
    """
    lam = [float(v) / iet.total for v in iet.lengths.values()]
    top, bottom = list(iet.perm.top), list(iet.perm.bottom)
    steps = done = 0
    while done < blocks:
        a, b = lam[top[-1]], lam[bottom[-1]]
        top_wins = a > b
        if top_wins:
            winner, loser = top[-1], bottom.pop()
            bottom.insert(bottom.index(winner) + 1, loser)
            lam[winner] = a - b
        else:
            winner, loser = bottom[-1], top.pop()
            top.insert(top.index(winner) + 1, loser)
            lam[winner] = b - a
        steps += 1
        if steps % 64 == 0:
            total = sum(lam)
            lam = [v / total for v in lam]
        if (lam[top[-1]] > lam[bottom[-1]]) != top_wins:
            done += 1
    return steps


def lyapunov_check(output, reference) -> dict:
    # criterion 6 of the acceptance suite
    _require(output.steps_used == LYAPUNOV_BLOCKS, f"{output.steps_used} blocks used")
    top = output.exponents[0]
    _require(bool(np.all(output.symmetric_defects() <= 0.05 * top)),
             f"asymmetric spectrum {output.exponents}")
    gaps = -np.diff(output.exponents)
    bars = output.errors[:-1] + output.errors[1:]
    _require(bool(np.all(gaps > 3 * bars)), f"gaps {gaps} within 3 error bars {bars}")
    _require(bool(np.allclose(output.exponents, reference.exponents,
                              rtol=TOL_EXPONENT, atol=TOL_EXPONENT)),
             "exponents differ from the run's first estimate")
    return {}


def one(inputs: dict) -> float:
    return 1.0


# A block (one QR and one change of invariant-subspace basis) cost about as
# much as ten induction steps when the benchmark was defined: a call took
# 2.5 s + 2.6 s per million steps on 1e5 blocks.  Weighting blocks so makes
# the time per work unit nearly independent of the drawn lengths.
BLOCK_WEIGHT = 10


def lyapunov_work(inputs: dict) -> float:
    steps = float_rauzy_steps(inputs["iet"], LYAPUNOV_BLOCKS)
    return (steps + BLOCK_WEIGHT * LYAPUNOV_BLOCKS) / 1e6


@dataclass(frozen=True)
class Workload:
    """A workload; ``work`` gives the work units one operation performs."""

    name: str
    setup: Callable[[int], dict]
    run: Callable[[dict], object]
    check: Callable[[object, object], dict]
    op_name: str                 # what one operation's wall time is called
    work: Callable[[dict], float] = one
    work_unit: str = "operation"


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-catalog", verify_setup, verify_run, verify_check, "verify_s"),
        Workload("deep-curve", deep_setup, deep_run, deep_check, "curve_s"),
        Workload("lyapunov", lyapunov_setup, lyapunov_run, lyapunov_check, "call_s",
                 lyapunov_work, "1e6 work units (Rauzy steps + 10 per block)"),
    )
}
