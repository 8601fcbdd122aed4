"""Repair-session state shared between the agent loop and memory consolidation."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .localizer import LocalizationObject
from .memory import RetrievalKeys
from .oracle import VerificationVerdict
from .workspace import CompressedContext


class Outcome(str, Enum):
    SUCCESS = "success"
    EXHAUSTED = "exhausted"


@dataclass
class Attempt:
    patch: str
    verdict: VerificationVerdict
    tree: str  # git tree id of the candidate's working tree
    localization: LocalizationObject | None = None


@dataclass
class RepairSession:
    """Full state of one task's repair lifecycle."""

    keys: RetrievalKeys
    failed_attempts: int = 0
    compressed: CompressedContext | None = None
    attempts: list[Attempt] = field(default_factory=list)
    outcome: Outcome | None = None

    @property
    def final_patch(self) -> str:
        if self.outcome != Outcome.SUCCESS or not self.attempts:
            return ""
        return self.attempts[-1].patch

    @property
    def last_failed(self) -> Attempt | None:
        """Most recent failed candidate with a non-empty diff, if any."""
        for attempt in reversed(self.attempts):
            verdict = attempt.verdict
            failed = not (verdict.vuln_mitigated and verdict.functionality_preserved)
            if failed and attempt.patch.strip():
                return attempt
        return None
