"""Shared fixtures: the reference self-inducing exchange and its pipeline."""

from __future__ import annotations

from pathlib import Path

import pytest

from ietpwi.breaking import theta_sequence
from ietpwi.catalog import symmetric4_self_inducing
from ietpwi.iet import build_iet_from
from ietpwi.rauzy import rauzy_iterate
from ietpwi.spectral import sample_theta

from curve_oracles import measured_sequence

GOLDEN = (1 + 5**0.5) / 2

# The checkout's own ``src`` directory, absolute so it holds from any cwd.
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session")
def reference():
    return symmetric4_self_inducing()


@pytest.fixture(scope="session")
def reference_trace(reference):
    trace = rauzy_iterate(reference.iet, 420)
    assert trace.error is None
    return trace


@pytest.fixture(scope="session")
def reference_sample(reference, reference_trace):
    return sample_theta(reference.stable_frame_exact(), 0.25, seed=5,
                        upsilon=reference.iet.upsilon, trace=reference_trace)


@pytest.fixture(scope="session")
def reference_curves(reference_trace, reference_sample):
    # measured: the convergence tests read the increments
    return measured_sequence(reference_trace, reference_sample.v, 45)


@pytest.fixture(scope="session")
def reference_theta_seq(reference_trace, reference_sample):
    return theta_sequence(reference_trace, reference_sample.v, 45)


@pytest.fixture()
def golden_iet():
    return build_iet_from("2 1", [1 / GOLDEN, 1 - 1 / GOLDEN])
