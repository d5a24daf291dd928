"""Reference readings of a verification report that the tests assert on."""

from __future__ import annotations

from ietpwi.verify import VerificationReport


def max_defect(report: VerificationReport) -> float:
    """The largest defect of the report's checks, 0 for none."""
    return max((c.defect for c in report.checks), default=0.0)


def is_nontrivial(report: VerificationReport) -> bool:
    """``nontriviality``'s verdict: its one check has no margin left to make up."""
    return report.checks[0].defect == 0.0
