"""Unified-diff helpers: validate, parse, and summarize.

All patches produced by the engine come from ``git diff`` and therefore
carry ``a/``/``b/`` path prefixes; the helpers here tolerate both prefixed
and bare paths so hand-written fixtures also work.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")
_FILE_OLD_RE = re.compile(r"^--- (?:a/)?(.+?)\s*$")
_FILE_NEW_RE = re.compile(r"^\+\+\+ (?:b/)?(.+?)\s*$")

DEV_NULL = "/dev/null"


@dataclass
class Hunk:
    old_start: int
    old_count: int
    new_start: int
    new_count: int
    lines: list[str] = field(default_factory=list)  # prefixed with ' ', '-', '+'


@dataclass
class FilePatch:
    old_path: str
    new_path: str
    hunks: list[Hunk] = field(default_factory=list)

    @property
    def path(self) -> str:
        return self.new_path if self.new_path != DEV_NULL else self.old_path


def looks_like_unified_diff(text: str) -> bool:
    """Structural check: a ---/+++ header pair followed by a hunk.

    The answer of ``any(fp.hunks for fp in parse_patch(text))``, read the
    way :func:`parse_patch` reads the lines (its ``diff --git`` and
    ``index`` lines match none of the three patterns), but it stops at the
    first hunk header that follows a header pair and builds nothing.
    """
    pending_old = in_file = False
    for line in text.splitlines():
        if _FILE_OLD_RE.match(line):
            pending_old = True
        elif pending_old and _FILE_NEW_RE.match(line):
            pending_old, in_file = False, True
        elif in_file and _HUNK_RE.match(line):
            return True
    return False


def parse_patch(text: str) -> list[FilePatch]:
    """Split a unified diff into per-file patches with parsed hunks."""
    patches: list[FilePatch] = []
    current: FilePatch | None = None
    hunk: Hunk | None = None
    pending_old: str | None = None
    for line in text.splitlines():
        if line.startswith("diff --git") or line.startswith("index "):
            hunk = None
            continue
        m = _FILE_OLD_RE.match(line)
        if m:
            pending_old = DEV_NULL if m.group(1) == DEV_NULL else m.group(1)
            hunk = None
            continue
        m = _FILE_NEW_RE.match(line)
        if m and pending_old is not None:
            new_path = DEV_NULL if m.group(1) == DEV_NULL else m.group(1)
            current = FilePatch(old_path=pending_old, new_path=new_path)
            patches.append(current)
            pending_old = None
            continue
        m = _HUNK_RE.match(line)
        if m and current is not None:
            hunk = Hunk(
                old_start=int(m.group(1)),
                old_count=int(m.group(2) or "1"),
                new_start=int(m.group(3)),
                new_count=int(m.group(4) or "1"),
            )
            current.hunks.append(hunk)
            continue
        if hunk is not None and line[:1] in (" ", "-", "+"):
            hunk.lines.append(line)
        elif hunk is not None and line.startswith("\\ No newline"):
            hunk.lines.append(line)
    return patches


def changed_files(text: str) -> list[str]:
    """Repo-relative paths touched by the diff, in order of appearance."""
    seen: list[str] = []
    for fp in parse_patch(text):
        if fp.path not in seen:
            seen.append(fp.path)
    return seen


def hunk_summary(text: str) -> str:
    """One-line description of a patch: first touched location and change."""
    for fp in parse_patch(text):
        for hunk in fp.hunks:
            changed = next((l for l in hunk.lines if l[:1] in ("+", "-")), None)
            if changed is not None:
                return f"{fp.path}:{hunk.old_start} {changed[:1]}`{changed[1:].strip()}`"
    return "(no hunks)"


def hunk_texts(text: str) -> list[str]:
    """Each hunk rendered as header plus body, tagged with its file path."""
    out: list[str] = []
    for fp in parse_patch(text):
        for hunk in fp.hunks:
            header = (
                f"--- {fp.old_path}\n+++ {fp.new_path}\n"
                f"@@ -{hunk.old_start},{hunk.old_count} "
                f"+{hunk.new_start},{hunk.new_count} @@"
            )
            out.append(header + "\n" + "\n".join(hunk.lines))
    return out
