"""Three-tier repair-experience memory.

Tiers:
  * L1: historical fixes ingested from a vulnerability/patch corpus.
  * L2: successful repairs harvested at runtime, with a rationale.
  * L3: failure-to-success transitions harvested from repair sessions.

All tiers share the same retrieval keys (project, CWE, language, instance
id, description). Entries are persisted as line-delimited JSON, one entry
per line with a ``tier`` tag. L2/L3 grow at runtime and are therefore
subject to recency pruning; L1 is treated as a curated corpus and never
pruned. Writes are serialized through a single writer lock; reads are
lock-free.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Union

from . import diffutil
from .embedding import CachingEmbedder, cosine, default_embedder
from .errors import CorruptMemoryFile, InvalidSession, InvariantViolation

DEDUP_THRESHOLD = 0.95

_CWE_RE = re.compile(r"^CWE-\d+$")
CWE_UNKNOWN = "CWE-UNKNOWN"

_CVE_SEGMENT_RE = re.compile(r"cve-(\d{4})-(\d+)", re.IGNORECASE)


@dataclass(frozen=True, order=True)
class CveTimestamp:
    """(year, sequence) extracted from a CVE-style identifier; totally ordered."""

    year: int
    sequence: int


def parse_timestamp(instance_id: str) -> CveTimestamp | None:
    """Extract the first ``cve-YYYY-NNNN`` segment, case-insensitive."""
    m = _CVE_SEGMENT_RE.search(instance_id)
    if not m:
        return None
    return CveTimestamp(year=int(m.group(1)), sequence=int(m.group(2)))


@dataclass(frozen=True)
class RetrievalKeys:
    project: str
    cwe: str
    language: str
    instance_id: str
    description: str

    def validate(self) -> None:
        if not self.instance_id:
            raise InvariantViolation("instance_id must be non-empty")
        if self.cwe != CWE_UNKNOWN and not _CWE_RE.match(self.cwe):
            raise InvariantViolation(f"bad CWE tag: {self.cwe!r}")


@dataclass
class L1Entry:
    keys: RetrievalKeys
    fix_patch: str
    fallback_seq: int | None = None

    tier = "L1"

    @property
    def patch_text(self) -> str:
        return self.fix_patch

    def validate(self) -> None:
        self.keys.validate()
        if not diffutil.looks_like_unified_diff(self.fix_patch):
            raise InvariantViolation("fix_patch is not a unified diff")


@dataclass
class L2Entry:
    keys: RetrievalKeys
    fix_patch: str
    rationale: str
    fallback_seq: int | None = None

    tier = "L2"

    @property
    def patch_text(self) -> str:
        return self.fix_patch

    def validate(self) -> None:
        self.keys.validate()
        if not diffutil.looks_like_unified_diff(self.fix_patch):
            raise InvariantViolation("fix_patch is not a unified diff")
        if not self.rationale.strip():
            raise InvariantViolation("rationale must be non-empty")


@dataclass
class L3Entry:
    keys: RetrievalKeys
    fail_patch: str
    correction_delta: str
    transition_insight: str
    fallback_seq: int | None = None

    tier = "L3"

    @property
    def patch_text(self) -> str:
        # Dedup compares the whole failure-to-success payload, not just one side.
        return self.fail_patch + "\n" + self.correction_delta

    def validate(self) -> None:
        self.keys.validate()
        if not diffutil.looks_like_unified_diff(self.fail_patch):
            raise InvariantViolation("fail_patch is not a unified diff")
        if not diffutil.looks_like_unified_diff(self.correction_delta):
            raise InvariantViolation("correction_delta is not a unified diff")
        if self.fail_patch == self.correction_delta:
            raise InvariantViolation("fail_patch and correction_delta must differ")


MemoryEntry = Union[L1Entry, L2Entry, L3Entry]

TIERS = ("L1", "L2", "L3")


def entry_key(entry: MemoryEntry) -> str:
    """Stable identifier used by the retrieval log, survives persistence."""
    payload = f"{entry.keys.description}\x1f{entry.patch_text}".encode("utf-8")
    return f"{entry.tier}:{entry.keys.instance_id}:{hashlib.sha1(payload).hexdigest()[:12]}"


def entry_timestamp(entry: MemoryEntry) -> tuple[float, float, float]:
    """Total-order sort key: real CVE timestamps precede all fallbacks.

    Entries without a parseable CVE segment use their ingestion sequence
    number, namespaced after every real timestamp so the temporal filter
    stays a total order.
    """
    ts = parse_timestamp(entry.keys.instance_id)
    if ts is not None:
        return (0.0, float(ts.year), float(ts.sequence))
    if entry.fallback_seq is not None:
        return (1.0, float(entry.fallback_seq), 0.0)
    return (1.0, math.inf, 0.0)


def query_timestamp(keys: RetrievalKeys) -> tuple[float, float, float]:
    """Sort key for a query; unparseable ids sort after everything."""
    ts = parse_timestamp(keys.instance_id)
    if ts is not None:
        return (0.0, float(ts.year), float(ts.sequence))
    return (1.0, math.inf, 0.0)


class InsertOutcome(str, Enum):
    INSERTED = "inserted"
    MERGED = "merged"


class MemoryStore:
    """Holds the three tiers plus retrieval recency bookkeeping.

    Single-writer, multi-reader: mutating operations take the writer lock;
    retrieval only reads. ``retrieval_log`` maps :func:`entry_key` to the
    completed-task counter at the entry's last retrieval (or insertion).
    """

    def __init__(self, embedder: CachingEmbedder | None = None) -> None:
        self.l1: list[L1Entry] = []
        self.l2: list[L2Entry] = []
        self.l3: list[L3Entry] = []
        self.retrieval_log: dict[str, int] = {}
        self.completed_tasks: int = 0
        self.embedder = embedder or default_embedder()
        self._write_lock = threading.Lock()
        self._ingest_seq = 0

    def tier_entries(self, tier: str) -> list[MemoryEntry]:
        return {"L1": self.l1, "L2": self.l2, "L3": self.l3}[tier]

    def __len__(self) -> int:
        return len(self.l1) + len(self.l2) + len(self.l3)

    def touch(self, entries: list[MemoryEntry]) -> None:
        """Record that `entries` were retrieved for the current task."""
        with self._write_lock:
            for entry in entries:
                self.retrieval_log[entry_key(entry)] = self.completed_tasks

    def complete_task(self) -> None:
        with self._write_lock:
            self.completed_tasks += 1

    def next_fallback_seq(self) -> int:
        seq = self._ingest_seq
        self._ingest_seq += 1
        return seq


def insert(store: MemoryStore, entry: MemoryEntry) -> InsertOutcome:
    """Insert with near-duplicate merging.

    An existing same-tier entry absorbs the new one when BOTH the
    description and the patch text have cosine similarity strictly above
    ``DEDUP_THRESHOLD``. The older entry is kept (stable identity) and its
    recency is refreshed.
    """
    entry.validate()
    embed = store.embedder.embed
    desc_vec = embed(entry.keys.description)
    patch_vec = embed(entry.patch_text)
    with store._write_lock:
        for existing in store.tier_entries(entry.tier):
            desc_sim = cosine(desc_vec, embed(existing.keys.description))
            patch_sim = cosine(patch_vec, embed(existing.patch_text))
            if desc_sim > DEDUP_THRESHOLD and patch_sim > DEDUP_THRESHOLD:
                store.retrieval_log[entry_key(existing)] = store.completed_tasks
                return InsertOutcome.MERGED
        if entry.fallback_seq is None and parse_timestamp(entry.keys.instance_id) is None:
            entry.fallback_seq = store.next_fallback_seq()
        store.tier_entries(entry.tier).append(entry)
        store.retrieval_log[entry_key(entry)] = store.completed_tasks
    return InsertOutcome.INSERTED


def prune(store: MemoryStore, window: float) -> int:
    """Drop L2/L3 entries not retrieved within the last `window` tasks.

    An entry is stale when ``completed_tasks - last_retrieved > window``
    (entries missing from the log count as last touched at task 0). L1 is
    a curated corpus and is never pruned. Returns the number removed.
    """
    if window < 1:
        raise InvariantViolation("prune window must be >= 1")
    removed = 0
    with store._write_lock:
        for tier in ("L2", "L3"):
            entries = store.tier_entries(tier)
            kept = []
            for entry in entries:
                last = store.retrieval_log.get(entry_key(entry), 0)
                if store.completed_tasks - last > window:
                    store.retrieval_log.pop(entry_key(entry), None)
                    removed += 1
                else:
                    kept.append(entry)
            entries[:] = kept
    return removed


def default_rationale(session) -> str:
    summary = diffutil.hunk_summary(session.final_patch)
    return (
        f"patch {summary} removed the reproduction failure while keeping "
        f"the regression suite green"
    )


def default_insight(fail_patch: str, accepted_patch: str) -> str:
    return (
        f"replaced {diffutil.hunk_summary(fail_patch)} "
        f"with {diffutil.hunk_summary(accepted_patch)}"
    )


def consolidate_success(
    store: MemoryStore,
    session,
    diff_trees: Callable[[str, str], str],
    rationale_fn: Callable[..., str] | None = None,
    insight_fn: Callable[..., str] | None = None,
) -> tuple[L2Entry, L3Entry | None]:
    """Harvest a finished successful session into L2 (and L3 if it failed first).

    The L2 entry records the accepted patch with a rationale. When at least
    one verification failed before success, an L3 entry additionally records
    the last failed candidate, the delta that corrected it
    (``diff_trees(failed_tree, accepted_tree)``, a diff between the two
    candidates' git trees), and a transition insight. A failed candidate
    whose tree equals the accepted one (a flaky oracle) corrected nothing, so
    only L2 is written. Both entries go through :func:`insert`.
    """
    from .session import Outcome  # local import: session depends on memory types

    if session.outcome != Outcome.SUCCESS:
        raise InvalidSession("consolidation requires a successful session")
    accepted = session.attempts[-1]
    rationale = (rationale_fn or default_rationale)(session)
    l2 = L2Entry(keys=session.keys, fix_patch=accepted.patch, rationale=rationale)
    insert(store, l2)

    failed = session.last_failed
    if session.failed_attempts < 1 or failed is None or failed.tree == accepted.tree:
        return l2, None
    insight = (insight_fn or default_insight)(failed.patch, accepted.patch)
    l3 = L3Entry(
        keys=session.keys,
        fail_patch=failed.patch,
        correction_delta=diff_trees(failed.tree, accepted.tree),
        transition_insight=insight,
    )
    insert(store, l3)
    return l2, l3


# ---------------------------------------------------------------------------
# Persistence: line-delimited JSON, one entry per line with a tier tag.
# ---------------------------------------------------------------------------

_SHARED_FIELDS = ("project", "cwe", "language", "instance_id", "description")


def _entry_to_record(entry: MemoryEntry, store: MemoryStore) -> dict:
    rec: dict = {"tier": entry.tier}
    for name in _SHARED_FIELDS:
        rec[name] = getattr(entry.keys, name)
    if isinstance(entry, (L1Entry, L2Entry)):
        rec["fix_patch"] = entry.fix_patch
    if isinstance(entry, L2Entry):
        rec["rationale"] = entry.rationale
    if isinstance(entry, L3Entry):
        rec["fail_patch"] = entry.fail_patch
        rec["correction_delta"] = entry.correction_delta
        rec["transition_insight"] = entry.transition_insight
    if entry.fallback_seq is not None:
        rec["fallback_seq"] = entry.fallback_seq
    last = store.retrieval_log.get(entry_key(entry))
    if last is not None:
        rec["last_retrieved"] = last
    return rec


def _record_to_entry(rec: dict) -> MemoryEntry:
    try:
        keys = RetrievalKeys(*(rec[name] for name in _SHARED_FIELDS))
        tier = rec["tier"]
        fallback_seq = rec.get("fallback_seq")
        if tier == "L1":
            return L1Entry(keys=keys, fix_patch=rec["fix_patch"], fallback_seq=fallback_seq)
        if tier == "L2":
            return L2Entry(
                keys=keys,
                fix_patch=rec["fix_patch"],
                rationale=rec["rationale"],
                fallback_seq=fallback_seq,
            )
        if tier == "L3":
            return L3Entry(
                keys=keys,
                fail_patch=rec["fail_patch"],
                correction_delta=rec["correction_delta"],
                transition_insight=rec["transition_insight"],
                fallback_seq=fallback_seq,
            )
    except KeyError as exc:
        raise CorruptMemoryFile(f"entry record missing field: {exc}") from exc
    raise CorruptMemoryFile(f"unknown tier tag: {rec.get('tier')!r}")


def _state_path(path: Path) -> Path:
    return path.with_name(path.name + ".state.json")


def save_store(store: MemoryStore, path: Path) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        for tier in TIERS:
            for entry in store.tier_entries(tier):
                fh.write(json.dumps(_entry_to_record(entry, store), sort_keys=True) + "\n")
    tmp.replace(path)
    if store.completed_tasks:
        _state_path(path).write_text(
            json.dumps({"completed_tasks": store.completed_tasks}), encoding="utf-8"
        )


def load_store(path: Path, embedder: CachingEmbedder | None = None) -> MemoryStore:
    path = Path(path)
    store = MemoryStore(embedder=embedder)
    if not path.exists():
        return store
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise CorruptMemoryFile(f"{path}:{lineno}: bad JSON ({exc})") from exc
            entry = _record_to_entry(rec)
            store.tier_entries(entry.tier).append(entry)
            if "last_retrieved" in rec:
                store.retrieval_log[entry_key(entry)] = rec["last_retrieved"]
            if entry.fallback_seq is not None:
                store._ingest_seq = max(store._ingest_seq, entry.fallback_seq + 1)
    state = _state_path(path)
    if state.exists():
        try:
            store.completed_tasks = int(json.loads(state.read_text())["completed_tasks"])
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise CorruptMemoryFile(f"{state}: bad state file ({exc})") from exc
    return store
