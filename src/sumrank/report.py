"""Verdict/witness container shared by every checker.

A report is the check's decision and nothing else: no clock, so equal
inputs give equal reports.  The CLI times the checker call it reports.
"""

from __future__ import annotations

from typing import Any, Optional

INFEASIBLE = "infeasible"


class VerificationReport:
    """Outcome of an exhaustive check.

    verdict is True, False or the string "infeasible" (enumeration would
    exceed the configured budget; never a silently truncated answer).  A
    False verdict always carries a witness that re-verifies on its own.
    """

    def __init__(
        self,
        verdict: Any,
        witness: Optional[dict] = None,
        checked_count: int = 0,
        detail: Optional[dict] = None,
    ):
        self.verdict = verdict
        self.witness = witness
        self.checked_count = checked_count
        self.detail = {} if detail is None else detail

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.to_json() == other.to_json()

    def __bool__(self) -> bool:
        return self.verdict is True

    @property
    def infeasible(self) -> bool:
        return self.verdict == INFEASIBLE

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": self.witness,
            "checked_count": self.checked_count,
            "detail": self.detail,
        }
