"""Library entry points refuse malformed input with a typed error."""

from __future__ import annotations

import numpy as np
import pytest

from ietpwi.breaking import PLCurve
from ietpwi.catalog import loop_matrix_for
from ietpwi.errors import IetPwiError, InvalidInput
from ietpwi.iet import Permutation, build_iet_from
from ietpwi.rauzy import rauzy_iterate, zorich_iterate
from ietpwi.spectral import sample_theta
from ietpwi.verify import convergence_report


def _golden():
    return build_iet_from("2 1", [0.618034, 0.381966])


@pytest.mark.parametrize("call", [
    lambda: rauzy_iterate(_golden(), -1),
    lambda: zorich_iterate(_golden(), -1),
    lambda: sample_theta(np.eye(2)[:, :1], np.pi, 0, upsilon=[1.0, 1.0],
                         trace=rauzy_iterate(_golden(), 3)),
    lambda: PLCurve(1.0, np.array([0.0, 0.5]), np.array([0j, 1 + 0j])),
    lambda: PLCurve(1.0, np.array([0.1]), np.array([0j, 1 + 0j])),
    lambda: PLCurve(1.0, np.array([]), np.array([0j])),
    lambda: convergence_report([0.1], PLCurve.identity(1.0), None, None),
    lambda: loop_matrix_for(Permutation.from_monodromy("4 3 2 1"), (0,)),
], ids=["rauzy-negative", "zorich-negative", "delta-pi", "curve-mismatch",
        "curve-offset", "curve-empty", "one-increment", "open-word"])
def test_malformed_library_input_raises_invalid_input(call):
    with pytest.raises(InvalidInput) as info:
        call()
    assert isinstance(info.value, IetPwiError) and isinstance(info.value, ValueError)
