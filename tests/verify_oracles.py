"""Reference readings of a verification report, and reference kernels, that the tests assert on."""

from __future__ import annotations

from math import tau
from typing import Sequence

import numpy as np

from ietpwi.breaking import _BLOCK, PLCurve
from ietpwi.errors import LevelMismatch
from ietpwi.iet import IETState
from ietpwi.pwi import PlanarIsometry
from ietpwi.rauzy import InductionTrace
from ietpwi.verify import VerificationReport


def max_defect(report: VerificationReport) -> float:
    """The largest defect of the report's checks, 0 for none."""
    return max((c.defect for c in report.checks), default=0.0)


def is_nontrivial(report: VerificationReport) -> bool:
    """``nontriviality``'s verdict: its one check has no margin left to make up."""
    return report.checks[0].defect == 0.0


def conjugacy_defect(curve: PLCurve, maps: PlanarIsometry, state: IETState,
                     floor: int = 0) -> float:
    """``verify._conjugacy_defects`` on the one family ``maps``, atom by atom through ``evaluate``.

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


def direct_family(curve: PLCurve, trace: InductionTrace, m: int,
                  theta_m: Sequence[float], n: int) -> list[PlanarIsometry]:
    """``pwi.hat_maps`` for the one grid level ``m``, built a symbol at a time.

    The curve is read on the level-``m`` top-row endpoint grid through
    ``evaluate``, and the chain of corners is built backwards with numpy
    scalars, one rotated piece per bottom-row slot.
    """
    if m > trace.n_steps:
        raise LevelMismatch(f"trace holds {trace.n_steps} levels, need {m}")
    if m > n:
        raise LevelMismatch(f"grid level {m} exceeds curve level {n}")
    state = trace.states[m]
    if state.total > curve.length * (1 + 1e-12):
        raise LevelMismatch("level grids extend past the curve domain")
    theta_m = np.asarray(theta_m, dtype=float)
    d = state.d
    gamma0 = curve.evaluate(state.endpoints0)
    xi = np.empty(d + 1, dtype=complex)
    xi[d] = gamma0[d]
    for j in range(d - 1, -1, -1):
        symbol = state.perm.bottom[j]
        hat = state.perm.position0(symbol) + 1
        xi[j] = np.exp(1j * theta_m[symbol]) * (gamma0[hat - 1] - gamma0[hat]) + xi[j + 1]
    scale = max(1.0, float(np.max(np.abs(gamma0))))
    maps = []
    for symbol in range(d):
        p0 = state.perm.position0(symbol) + 1
        p1 = state.perm.position1(symbol) + 1
        iso = PlanarIsometry(float(theta_m[symbol]) % tau, complex(gamma0[p0]), complex(xi[p1]))
        if abs(iso(complex(gamma0[p0 - 1])) - xi[p1 - 1]) > 1e-9 * scale:
            raise AssertionError("rearranged pieces do not join continuously")
        maps.append(iso)
    return maps


def inductive_families(trace: InductionTrace, maps: PlanarIsometry,
                       n: int) -> list[list[PlanarIsometry]]:
    """``pwi.unwind_maps`` walked back a map object at a time from the level-``n`` family ``maps``.

    Entry ``m`` lists the level-``m`` maps, one ``PlanarIsometry`` per
    symbol, starting from Python scalars; each backward step rewrites the
    loser's map through ``inverse`` and ``compose``.
    """
    maps = [PlanarIsometry(*map_) for map_ in zip(maps.angle.tolist(), maps.a.tolist(),
                                                  maps.b.tolist())]
    families = [maps]
    for step in reversed(trace.steps[:n]):
        winner, loser = maps[step.winner], maps[step.loser]
        maps = list(maps)
        if step.type_eps == 0:
            maps[step.loser] = winner.inverse().compose(loser)
        else:
            maps[step.loser] = loser.compose(winner.inverse())
        families.append(maps)
    return families[::-1]


def adapted_maps(curve: PLCurve, iet: IETState, theta: Sequence[float]) -> list[PlanarIsometry]:
    """``pwi.adapted_pwi``'s maps built a symbol at a time, each curve point evaluated alone."""
    theta = np.mod(np.asarray(theta, dtype=float), tau)
    maps = []
    for symbol in range(iet.d):
        x_left = float(iet.endpoints0[iet.perm.position0(symbol)])
        image = x_left + float(iet.upsilon[symbol])
        maps.append(PlanarIsometry(float(theta[symbol]), complex(curve.evaluate(x_left)),
                                   complex(curve.evaluate(image))))
    return maps
