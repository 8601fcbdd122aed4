"""Three-tier repair-experience memory.

Tiers:
  * L1: historical fixes ingested from a vulnerability/patch corpus.
  * L2: successful repairs harvested at runtime, with a rationale.
  * L3: failure-to-success transitions harvested from repair sessions.

All tiers share the same retrieval keys (project, CWE, language, instance
id, description). Entries are persisted as line-delimited JSON, one entry
per line with a ``tier`` tag. L2/L3 grow at runtime and are therefore
subject to recency pruning; L1 is treated as a curated corpus and never
pruned. Writes are serialized through a single writer lock.

Each tier has a :class:`TierIndex` that follows its entry list: rows by
(CWE, language) and one embedding matrix per text field, so dedup and
retrieval each score a whole tier or a pool with one mat-vec. Every index
update, catching up with the list included, happens under the writer lock;
the embedder never runs under it.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import threading
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Union

import numpy as np

from . import diffutil
from .embedding import (
    CachingEmbedder,
    VectorRows,
    cosine,  # noqa: F401 - unused here, but bench/layers.py wraps this attribute
    default_embedder,
)
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
class _Entry:
    """What every tier's entry has: its retrieval keys, the ingestion
    sequence number that orders an id without a CVE timestamp, and the
    unified-diff fields named in ``DIFFS``. Each tier adds its own fields."""

    keys: RetrievalKeys
    fallback_seq: int | None = field(default=None, kw_only=True)

    DIFFS: ClassVar[tuple[str, ...]] = ()

    @property
    def patch_text(self) -> str:
        # Dedup compares the whole payload: an L3 entry's failed patch and its
        # correction delta, not just one side.
        return "\n".join(getattr(self, name) for name in self.DIFFS)

    def validate(self) -> None:
        self.keys.validate()
        for name in self.DIFFS:
            if not diffutil.looks_like_unified_diff(getattr(self, name)):
                raise InvariantViolation(f"{name} is not a unified diff")


@dataclass
class L1Entry(_Entry):
    fix_patch: str

    tier = "L1"
    DIFFS = ("fix_patch",)


@dataclass
class L2Entry(_Entry):
    fix_patch: str
    rationale: str

    tier = "L2"
    DIFFS = ("fix_patch",)

    def validate(self) -> None:
        super().validate()
        if not self.rationale.strip():
            raise InvariantViolation("rationale must be non-empty")


@dataclass
class L3Entry(_Entry):
    fail_patch: str
    correction_delta: str
    transition_insight: str

    tier = "L3"
    DIFFS = ("fail_patch", "correction_delta")

    def validate(self) -> None:
        super().validate()
        if self.fail_patch == self.correction_delta:
            raise InvariantViolation("fail_patch and correction_delta must differ")


MemoryEntry = Union[L1Entry, L2Entry, L3Entry]

ENTRY_TYPES = {cls.tier: cls for cls in (L1Entry, L2Entry, L3Entry)}
TIERS = tuple(ENTRY_TYPES)


def field_text(field: str, entry: MemoryEntry) -> str:
    """The text an index field embeds: ``"patch"`` (dedup), ``"fail_patch"``
    (refinement retrieval: an L3 entry's failed patch, any other entry's
    description) or ``"description"`` (dedup and retrieval)."""
    if field == "patch":
        return entry.patch_text
    if field == "fail_patch" and isinstance(entry, L3Entry):
        return entry.fail_patch
    return entry.keys.description


class TierIndex:
    """One tier's entries in store order, each one's :func:`entry_timestamp`,
    their rows by ``(cwe, language)``, and the raw embedding rows of each
    text field.

    Row ``i`` of ``stamps`` and of every field belongs to ``entries[i]``; a
    stamp is taken once, when its entry is added. A field's rows are
    embedded when first needed, each on its own: a read embeds only the
    rows it scores, and an embedding outage part-way leaves the rows
    stored so far.
    """

    def __init__(self, entries: Iterable[MemoryEntry] = ()) -> None:
        self.entries: list[MemoryEntry] = []
        self.stamps: list[tuple[float, float, float]] = []
        self.buckets: dict[tuple[str, str], list[int]] = {}
        self.fields: dict[str, VectorRows] = {}
        for entry in entries:
            self.add(entry)

    def add(self, entry: MemoryEntry) -> None:
        row = len(self.entries)
        self.entries.append(entry)
        self.stamps.append(entry_timestamp(entry))
        self.buckets.setdefault((entry.keys.cwe, entry.keys.language), []).append(row)

    def field(self, name: str) -> VectorRows:
        return self.fields.setdefault(name, VectorRows())

    def caught_up(self, live: list[MemoryEntry]) -> TierIndex:
        """This index extended by the entries appended to `live` since, or a
        new index of `live` if it changed otherwise."""
        head = live[: len(self.entries)]
        if head != self.entries:
            return TierIndex(live)
        # Equal entries embed alike; keep the list's own objects all the same.
        self.entries = head
        for entry in live[len(head):]:
            self.add(entry)
        return self


def entry_key(entry: MemoryEntry) -> str:
    """Stable identifier used by the retrieval log, survives persistence."""
    payload = f"{entry.keys.description}\x1f{entry.patch_text}".encode("utf-8")
    return f"{entry.tier}:{entry.keys.instance_id}:{hashlib.sha1(payload).hexdigest()[:12]}"


def entry_timestamp(entry: MemoryEntry) -> tuple[float, float, float]:
    """Total-order sort key: real CVE timestamps precede all fallbacks.

    Entries without a parseable CVE segment use their ingestion sequence
    number, namespaced after every real timestamp so the temporal filter
    stays a total order; without one they sort after everything.
    """
    ts = parse_timestamp(entry.keys.instance_id)
    if ts is not None:
        return (0.0, float(ts.year), float(ts.sequence))
    return (1.0, math.inf if entry.fallback_seq is None else float(entry.fallback_seq), 0.0)


def query_timestamp(keys: RetrievalKeys) -> tuple[float, float, float]:
    """Sort key for a query: :func:`entry_timestamp` of an entry with these
    keys and no sequence number."""
    return entry_timestamp(_Entry(keys))


class InsertOutcome(str, Enum):
    INSERTED = "inserted"
    MERGED = "merged"


class MemoryStore:
    """Holds the three tiers plus retrieval recency bookkeeping.

    Single-writer, multi-reader: mutating operations take the writer lock;
    retrieval takes it only to catch a tier index up, to store the vectors
    it embedded and to score. ``retrieval_log`` maps
    :func:`entry_key` to the completed-task counter at the entry's last
    retrieval (or insertion).

    The tier lists are the truth and may be appended to directly; each
    :class:`TierIndex` catches up with its list when next used, and is
    built anew, its vectors embedded again when needed, when the list
    changed in any other way. Entries are not to be
    edited in place once stored.
    """

    def __init__(self, embedder: CachingEmbedder | None = None) -> None:
        self.l1: list[L1Entry] = []
        self.l2: list[L2Entry] = []
        self.l3: list[L3Entry] = []
        self.retrieval_log: dict[str, int] = {}
        self.completed_tasks: int = 0
        self.embedder = default_embedder() if embedder is None else embedder
        self._write_lock = threading.Lock()
        self._ingest_seq = 0
        self._indexes = {tier: TierIndex() for tier in TIERS}

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

    def _index(self, tier: str) -> TierIndex:
        """The tier's index, caught up with its list; needs the writer lock."""
        index = self._indexes[tier] = self._indexes[tier].caught_up(self.tier_entries(tier))
        return index

    def bucket(self, tier: str, cwe: str, language: str) -> tuple[TierIndex, list[int]]:
        """The tier's caught-up index and its rows for ``(cwe, language)`` in
        store order. These rows never change: later writes append after them
        or go to a new index."""
        with self._write_lock:
            index = self._index(tier)
            return index, list(index.buckets.get((cwe, language), ()))

    def embed_rows(self, index: TierIndex, field: str, rows) -> None:
        """Store in `index` the vectors of `field` its `rows` lack.

        The embedder runs outside the writer lock, so a slow backend holds
        up no other reader or writer; the vectors are stored under it, those
        embedded before an outage included.
        """
        with self._write_lock:
            todo = index.field(field).missing(rows)
            texts = [field_text(field, index.entries[row]) for row in todo]
        vecs: list[np.ndarray] = []
        try:
            for text in texts:
                vecs.append(self.embedder.embed(text))
        finally:
            with self._write_lock:
                index.field(field).put(todo, vecs)

    def cosines(
        self, index: TierIndex, field: str, vec: np.ndarray, pools: list[list[int]]
    ) -> list[list[float]]:
        """Cosine of `vec` against each pool's rows of `field` in `index`."""
        rows = [row for pool in pools for row in pool]
        while True:
            with self._write_lock:
                vectors = index.field(field)
                if not vectors.missing(rows):
                    return [vectors.cosine(vec, pool).tolist() for pool in pools]
            self.embed_rows(index, field, rows)


def insert(store: MemoryStore, entry: MemoryEntry) -> InsertOutcome:
    """Insert with near-duplicate merging.

    An existing same-tier entry absorbs the new one when BOTH the
    description and the patch text have cosine similarity strictly above
    ``DEDUP_THRESHOLD``; of several, the first in store order does. The
    older entry is kept (stable identity) and its recency is refreshed.
    Both similarities come from one mat-vec each over the tier index.
    """
    entry.validate()
    desc_vec = store.embedder.embed(entry.keys.description)
    patch_vec = store.embedder.embed(entry.patch_text)
    while True:
        with store._write_lock:
            index = store._index(entry.tier)
            rows = np.arange(len(index.entries))
            if not (index.field("description").missing(rows) or index.field("patch").missing(rows)):
                return _merge_or_append(store, index, entry, desc_vec, patch_vec)
        # Embed what the tier lacks outside the lock, then look again: other
        # writers may have appended meanwhile.
        store.embed_rows(index, "description", rows)
        store.embed_rows(index, "patch", rows)


def _merge_or_append(
    store: MemoryStore, index: TierIndex, entry: MemoryEntry, desc_vec: np.ndarray, patch_vec: np.ndarray
) -> InsertOutcome:
    """The dedup decision of :func:`insert`, on a caught-up index whose rows
    are all embedded; needs the writer lock."""
    every = slice(0, len(index.entries))
    descs, patches = index.fields["description"], index.fields["patch"]
    hits = np.flatnonzero(
        (descs.cosine(desc_vec, every) > DEDUP_THRESHOLD)
        & (patches.cosine(patch_vec, every) > DEDUP_THRESHOLD)
    )
    if hits.size:
        existing = index.entries[hits[0]]
        store.retrieval_log[entry_key(existing)] = store.completed_tasks
        return InsertOutcome.MERGED
    if entry.fallback_seq is None and parse_timestamp(entry.keys.instance_id) is None:
        entry.fallback_seq = store.next_fallback_seq()
    row = len(index.entries)
    store.tier_entries(entry.tier).append(entry)
    index.add(entry)
    descs.put([row], [desc_vec])
    patches.put([row], [patch_vec])
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

_KEY_FIELDS = [f.name for f in fields(RetrievalKeys)]
# Each tier's own fields, in declaration order.
_TIER_FIELDS = {
    tier: [f.name for f in fields(cls) if f.name not in ("keys", "fallback_seq")]
    for tier, cls in ENTRY_TYPES.items()
}


def _entry_to_record(entry: MemoryEntry, store: MemoryStore) -> dict:
    rec: dict = {"tier": entry.tier}
    for name in _KEY_FIELDS:
        rec[name] = getattr(entry.keys, name)
    for name in _TIER_FIELDS[entry.tier]:
        rec[name] = getattr(entry, name)
    if entry.fallback_seq is not None:
        rec["fallback_seq"] = entry.fallback_seq
    last = store.retrieval_log.get(entry_key(entry))
    if last is not None:
        rec["last_retrieved"] = last
    return rec


def _record_to_entry(rec: dict) -> MemoryEntry:
    try:
        keys = RetrievalKeys(*(rec[name] for name in _KEY_FIELDS))
        tier = rec["tier"]
        cls = ENTRY_TYPES.get(tier) if isinstance(tier, str) else None
        if cls is None:
            raise CorruptMemoryFile(f"unknown tier tag: {tier!r}")
        own = {name: rec[name] for name in _TIER_FIELDS[tier]}
    except KeyError as exc:
        raise CorruptMemoryFile(f"entry record missing field: {exc}") from exc
    return cls(keys, fallback_seq=rec.get("fallback_seq"), **own)


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
