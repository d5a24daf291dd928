"""Reference readings of a verification report, and reference kernels, that the tests assert on."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ietpwi.breaking import _BLOCK, PLCurve
from ietpwi.iet import IETState
from ietpwi.pwi import PlanarIsometry
from ietpwi.verify import VerificationReport


def max_defect(report: VerificationReport) -> float:
    """The largest defect of the report's checks, 0 for none."""
    return max((c.defect for c in report.checks), default=0.0)


def is_nontrivial(report: VerificationReport) -> bool:
    """``nontriviality``'s verdict: its one check has no margin left to make up."""
    return report.checks[0].defect == 0.0


def conjugacy_defect(curve: PLCurve, maps: Sequence[PlanarIsometry], state: IETState,
                     floor: int = 0) -> float:
    """``verify._conjugacy_defect`` evaluated atom by atom through ``PLCurve.evaluate``.

    Per atom, the kinks are the kept region's two ends, every breakpoint
    and every breakpoint's preimage ``curve.x - u_s``, filtered to the
    region by the same float comparisons; each point and its image are
    evaluated with a search over all breakpoints.
    """
    den = state.denominator
    worst = 0.0
    for slot, symbol in enumerate(state.perm.top):
        lo = max(state.e0_num[slot], floor - state.upsilon_num[symbol])
        hi = state.e0_num[slot + 1]
        if lo >= hi:
            continue
        lo, hi = lo / den, hi / den
        shift = state.upsilon[symbol]
        gaps = []
        for start in range(0, curve.n_segments, _BLOCK // 2):
            x = curve.x[start:start + _BLOCK // 2]
            xs = np.concatenate([[lo, hi], x, x - shift])
            xs = xs[(xs >= lo) & (xs <= hi)]
            fx = np.minimum(xs + shift, curve.length)
            gap = maps[symbol](curve.evaluate(xs)) - curve.evaluate(fx)
            gaps.append(np.max(np.abs(gap)))
        worst = max(worst, float(np.max(gaps)))
    return worst
