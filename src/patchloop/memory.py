"""Three-tier repair-experience memory.

Tiers:
  * L1: historical fixes ingested from a vulnerability/patch corpus.
  * L2: successful repairs harvested at runtime, with a rationale.
  * L3: failure-to-success transitions harvested from repair sessions.

All tiers share the same retrieval keys (project, CWE, language, instance
id, description). A store is persisted as one line-delimited JSON file:
an entry per line with a ``tier`` tag, then the completed-task counter.
L2/L3 grow at runtime and are therefore subject to recency pruning; L1
is treated as a curated corpus and never pruned. Writes are serialized
through a single writer lock; they include an entry's ``last_retrieved``,
the one field that changes once it is stored.

Each tier is held by one :class:`TierIndex`: its entries, their rows by
(CWE, language) and one embedding matrix per text field. Dedup scores the
whole tier's descriptions with one mat-vec and the patches only at the rows
whose description is a near-duplicate; a read scores its candidate rows
with one mat-vec. Every index update happens under the writer lock; the
embedder never runs under it.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import uuid
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
from .errors import CorruptMemoryFile, InvariantViolation

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
    sequence number that orders an id without a CVE timestamp, the task
    counter at its last retrieval or insertion (which reads change, so
    equality leaves it out), and the unified-diff fields named in ``DIFFS``.
    Each tier adds its own fields."""

    keys: RetrievalKeys
    fallback_seq: int | None = field(default=None, kw_only=True)
    last_retrieved: int | None = field(default=None, kw_only=True, compare=False)

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

# The text fields a tier index embeds; :func:`field_text` serves each one.
FIELDS = ("description", "patch", "fail_patch")


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
    """One tier's entries in store order, each one's :func:`entry_timestamp`
    and retrieval tie-break, their rows by ``(cwe, language)`` and then by
    project, and the raw embedding rows of each of the :data:`FIELDS`.

    ``buckets[(cwe, language)][project]`` lists that project's rows in store
    order. Rows are only ever appended to these lists, so a reader that
    recorded a list's length may slice it later without the writer lock.

    Row ``i`` of ``stamps``, ``ties`` and every field belongs to
    ``entries[i]``; a stamp is taken once, when its entry is added, and its
    tie-break ``(-stamp..., instance_id, i)`` with it. ``fields`` holds
    one :class:`VectorRows` per field from the start; a field's rows are
    embedded when first needed, each on its own: a read embeds only the
    rows it scores, and an embedding outage part-way leaves the rows
    stored so far.
    """

    def __init__(self, entries: Iterable[MemoryEntry] = ()) -> None:
        self.entries: list[MemoryEntry] = []
        self.stamps: list[tuple[float, float, float]] = []
        self.ties: list[tuple[float, float, float, str, int]] = []
        self.buckets: dict[tuple[str, str], dict[str, list[int]]] = {}
        self.fields = {name: VectorRows() for name in FIELDS}
        for entry in entries:
            self.add(entry, entry_timestamp(entry))

    def add(self, entry: MemoryEntry, stamp: tuple[float, float, float]) -> None:
        """Append `entry`, whose :func:`entry_timestamp` is `stamp`."""
        row = len(self.entries)
        self.entries.append(entry)
        keys = entry.keys
        self.stamps.append(stamp)
        self.ties.append((-stamp[0], -stamp[1], -stamp[2], keys.instance_id, row))
        self.buckets.setdefault((keys.cwe, keys.language), {}).setdefault(keys.project, []).append(row)


def entry_timestamp(entry: MemoryEntry) -> tuple[float, float, float]:
    """Total-order sort key: real CVE timestamps precede all fallbacks.

    Entries without a parseable CVE segment use their ingestion sequence
    number, namespaced after every real timestamp so the temporal filter
    stays a total order; without one they sort after everything.
    """
    return _stamp(parse_timestamp(entry.keys.instance_id), entry.fallback_seq)


def _stamp(ts: CveTimestamp | None, fallback_seq: int | None) -> tuple[float, float, float]:
    if ts is not None:
        return (0.0, float(ts.year), float(ts.sequence))
    return (1.0, math.inf if fallback_seq is None else float(fallback_seq), 0.0)


def query_timestamp(keys: RetrievalKeys) -> tuple[float, float, float]:
    """Sort key for a query: :func:`entry_timestamp` of an entry with these
    keys and no sequence number."""
    return _stamp(parse_timestamp(keys.instance_id), None)


class InsertOutcome(str, Enum):
    INSERTED = "inserted"
    MERGED = "merged"


class MemoryStore:
    """Holds the three tiers and the completed-task counter.

    Single-writer, multi-reader: mutating operations take the writer lock;
    retrieval takes it only to read a tier's bucket, to store the vectors
    it embedded and to score.

    Each tier's :class:`TierIndex` is the only holder of its entries. A row
    enters through :func:`insert`, :meth:`add` or :func:`load_store` and
    leaves only through :func:`prune`, which builds the tier a new index;
    ``tier_entries`` and ``l1``/``l2``/``l3`` return copies. Entries are not
    to be edited in place once stored, except for ``last_retrieved``, which
    :meth:`touch`, :func:`insert` and :func:`prune` set and read under the
    writer lock.
    """

    def __init__(self, embedder: CachingEmbedder | None = None) -> None:
        self.completed_tasks: int = 0
        self.embedder = default_embedder() if embedder is None else embedder
        self._write_lock = threading.Lock()
        self._ingest_seq = 0
        self._indexes = {tier: TierIndex() for tier in TIERS}

    def tier_entries(self, tier: str) -> list[MemoryEntry]:
        """A copy of the tier's entries in store order."""
        with self._write_lock:
            return list(self._indexes[tier].entries)

    l1 = property(lambda self: self.tier_entries("L1"))
    l2 = property(lambda self: self.tier_entries("L2"))
    l3 = property(lambda self: self.tier_entries("L3"))

    def __len__(self) -> int:
        return sum(len(index.entries) for index in self._indexes.values())

    def add(self, entry: MemoryEntry) -> None:
        """Append `entry` to its tier as it is, without dedup."""
        with self._write_lock:
            self._indexes[entry.tier].add(entry, entry_timestamp(entry))
            if entry.fallback_seq is not None:  # later fallbacks sort after it
                self._ingest_seq = max(self._ingest_seq, entry.fallback_seq + 1)

    def touch(self, entries: list[MemoryEntry]) -> None:
        """Record that `entries` were retrieved for the current task."""
        with self._write_lock:
            for entry in entries:
                entry.last_retrieved = self.completed_tasks

    def complete_task(self) -> None:
        with self._write_lock:
            self.completed_tasks += 1

    def next_fallback_seq(self) -> int:
        seq = self._ingest_seq
        self._ingest_seq += 1
        return seq

    def bucket(
        self, tier: str, cwe: str, language: str, project: str
    ) -> tuple[TierIndex, list[int], list[tuple[list[int], int]]]:
        """One consistent view of the tier's ``(cwe, language)`` bucket: the
        index, a copy of `project`'s rows, and each other project's row list
        with its current length, all in store order.

        The other projects' rows are ``rows[:length]``: later writes only
        append to those lists or go to a new index, so the view is cut in
        O(projects) however many rows it holds.
        """
        with self._write_lock:
            index = self._indexes[tier]
            by_project = index.buckets.get((cwe, language), {})
            others = [(rows, len(rows)) for name, rows in by_project.items() if name != project]
            return index, list(by_project.get(project, ())), others

    def embed_rows(self, index: TierIndex, field: str, rows) -> None:
        """Store in `index` the vectors of `field` its `rows` lack; nothing
        to look up when the field holds every row of the index.

        The embedder runs outside the writer lock, so a slow backend holds
        up no other reader or writer; the vectors are stored under it, those
        embedded before an outage included.
        """
        with self._write_lock:
            vectors = index.fields[field]
            if vectors.holds_first(len(index.entries)):
                return
            todo = vectors.missing(rows)
            texts = [field_text(field, index.entries[row]) for row in todo]
        vecs: list[np.ndarray] = []
        try:
            for text in texts:
                vecs.append(self.embedder.embed(text))
        finally:
            with self._write_lock:
                vectors.put(todo, vecs)

    def cosines(self, index: TierIndex, field: str, vec: np.ndarray, rows: list[int]) -> list[float]:
        """Cosine of `vec` against `field` at each of `rows` in `index`, in
        the given order, scored with one mat-vec."""
        rows = np.array(rows, dtype=np.intp)
        self.embed_rows(index, field, rows)
        with self._write_lock:
            return index.fields[field].cosine(vec, rows).tolist()


def insert(store: MemoryStore, entry: MemoryEntry) -> InsertOutcome:
    """Insert with near-duplicate merging.

    An existing same-tier entry absorbs the new one when BOTH the
    description and the patch text have cosine similarity strictly above
    ``DEDUP_THRESHOLD``; of several, the first in store order does. The
    older entry is kept (stable identity) and its recency is refreshed.
    One mat-vec scores the new description against the whole tier; the
    patch is scored only against the rows whose description is above the
    threshold, so an insert with no near-duplicate description reads no
    stored patch vector.
    """
    entry.validate()
    desc_vec = store.embedder.embed(entry.keys.description)
    patch_vec = store.embedder.embed(entry.patch_text)
    while True:
        with store._write_lock:
            index = store._indexes[entry.tier]
            n = len(index.entries)
            if index.fields["description"].holds_first(n) and index.fields["patch"].holds_first(n):
                return _merge_or_append(store, index, entry, desc_vec, patch_vec)
        # Embed what the tier lacks outside the lock, then look again: other
        # writers may have appended meanwhile.
        store.embed_rows(index, "description", range(n))
        store.embed_rows(index, "patch", range(n))


def _merge_or_append(
    store: MemoryStore, index: TierIndex, entry: MemoryEntry, desc_vec: np.ndarray, patch_vec: np.ndarray
) -> InsertOutcome:
    """The dedup decision of :func:`insert`, on the tier's index whose rows
    are all embedded; needs the writer lock."""
    descs, patches = index.fields["description"], index.fields["patch"]
    near = np.flatnonzero(descs.cosine(desc_vec, slice(0, len(index.entries))) > DEDUP_THRESHOLD)
    if near.size:
        near = near[patches.cosine(patch_vec, near) > DEDUP_THRESHOLD]
    if near.size:
        index.entries[near[0]].last_retrieved = store.completed_tasks
        return InsertOutcome.MERGED
    ts = parse_timestamp(entry.keys.instance_id)
    if ts is None and entry.fallback_seq is None:
        entry.fallback_seq = store.next_fallback_seq()
    row = len(index.entries)
    index.add(entry, _stamp(ts, entry.fallback_seq))
    descs.put([row], [desc_vec])
    patches.put([row], [patch_vec])
    entry.last_retrieved = store.completed_tasks
    return InsertOutcome.INSERTED


def prune(store: MemoryStore, window: float) -> int:
    """Drop L2/L3 entries not retrieved within the last `window` tasks.

    An entry is stale when ``completed_tasks - last_retrieved > window``
    (an entry never retrieved counts as last touched at task 0). L1 is a
    curated corpus and is never pruned. Returns the number removed.
    """
    if window < 1:
        raise InvariantViolation("prune window must be >= 1")
    removed = 0
    with store._write_lock:
        for tier in ("L2", "L3"):
            index, kept = store._indexes[tier], TierIndex()
            for entry, stamp in zip(index.entries, index.stamps):
                if store.completed_tasks - (entry.last_retrieved or 0) > window:
                    removed += 1
                else:
                    kept.add(entry, stamp)
            store._indexes[tier] = kept
    return removed


def default_rationale(accepted) -> str:
    summary = diffutil.hunk_summary(accepted.patch)
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
    keys: RetrievalKeys,
    accepted,
    failed,
    diff_trees: Callable[[str, str], str],
    rationale_fn: Callable[..., str] | None = None,
    insight_fn: Callable[..., str] | None = None,
) -> tuple[L2Entry, L3Entry | None]:
    """Harvest a successful session's failure-to-success pair into L2 and L3.

    `accepted` and `failed` are candidates, each with a ``patch`` (its diff
    against the pristine tree) and a git ``tree``; `failed` is the last
    rejected candidate with a non-empty diff, or None. The L2 entry records
    the accepted patch with a rationale (``rationale_fn(accepted)``). Given a
    failed candidate, an L3 entry additionally records it, the delta that
    corrected it (``diff_trees(failed.tree, accepted.tree)``), and a
    transition insight. A failed candidate whose tree equals the accepted
    one (a flaky oracle) corrected nothing, so only L2 is written. Both
    entries go through :func:`insert`.
    """
    rationale = (rationale_fn or default_rationale)(accepted)
    l2 = L2Entry(keys=keys, fix_patch=accepted.patch, rationale=rationale)
    insert(store, l2)

    if failed is None or failed.tree == accepted.tree:
        return l2, None
    insight = (insight_fn or default_insight)(failed.patch, accepted.patch)
    l3 = L3Entry(
        keys=keys,
        fail_patch=failed.patch,
        correction_delta=diff_trees(failed.tree, accepted.tree),
        transition_insight=insight,
    )
    insert(store, l3)
    return l2, l3


# ---------------------------------------------------------------------------
# Persistence: JSON lines, one entry per line with a tier tag, then the counter.
# ---------------------------------------------------------------------------

_KEY_FIELDS = [f.name for f in fields(RetrievalKeys)]
# Every entry's bookkeeping: optional integers, written only when set.
_BOOKKEEPING = ("fallback_seq", "last_retrieved")
# Each tier's own fields, in declaration order.
_TIER_FIELDS = {
    tier: [f.name for f in fields(cls) if f.name not in ("keys", *_BOOKKEEPING)]
    for tier, cls in ENTRY_TYPES.items()
}


def _entry_to_record(entry: MemoryEntry) -> dict:
    rec: dict = {"tier": entry.tier}
    for name in _KEY_FIELDS:
        rec[name] = getattr(entry.keys, name)
    for name in _TIER_FIELDS[entry.tier]:
        rec[name] = getattr(entry, name)
    for name in _BOOKKEEPING:
        if (value := getattr(entry, name)) is not None:
            rec[name] = value
    return rec


def _record_to_entry(rec) -> MemoryEntry:
    if not isinstance(rec, dict):
        raise CorruptMemoryFile(f"entry record is not an object: {rec!r:.80}")
    try:
        tier = rec["tier"]
        cls = ENTRY_TYPES.get(tier) if isinstance(tier, str) else None
        if cls is None:
            raise CorruptMemoryFile(f"unknown tier tag: {tier!r}")
        texts = {name: rec[name] for name in _KEY_FIELDS + _TIER_FIELDS[tier]}
    except KeyError as exc:
        raise CorruptMemoryFile(f"entry record missing field: {exc}") from exc
    for name, value in texts.items():
        if not isinstance(value, str):
            raise CorruptMemoryFile(f"entry field {name} is not a string: {value!r:.80}")
    bookkeeping = {name: rec.get(name) for name in _BOOKKEEPING}
    for name, value in bookkeeping.items():
        if value is not None and type(value) is not int:
            raise CorruptMemoryFile(f"{name} is not an integer: {value!r:.80}")
    keys = RetrievalKeys(*(texts.pop(name) for name in _KEY_FIELDS))
    return cls(keys, **bookkeeping, **texts)


def save_store(store: MemoryStore, path: Path) -> None:
    """Write the entries, then the completed-task counter if nonzero (read
    after them, so no saved ``last_retrieved`` is ahead of it), to a temp
    file of this call's own beside `path`, fsync it and rename it into
    place. A concurrent save never writes into or renames away this one's,
    and a save cut short leaves the old file whole; the last rename wins."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    fh = tmp.open("x", encoding="utf-8")  # created as open() does, under the umask
    try:
        with fh:
            records = (_entry_to_record(e) for tier in TIERS for e in store.tier_entries(tier))
            fh.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
            if done := store.completed_tasks:
                fh.write(json.dumps({"completed_tasks": done}) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_store(path: Path, embedder: CachingEmbedder | None = None) -> MemoryStore:
    """Read what :func:`save_store` wrote; an empty store if `path` does not
    exist. A line whose one key is ``completed_tasks`` sets the counter."""
    path = Path(path)
    if (sidecar := path.with_name(path.name + ".state.json")).exists():
        raise CorruptMemoryFile(
            f"{sidecar}: counter file of an older version; append its counter to {path} "
            f'as a last line {{"completed_tasks": N}}, then delete it'
        )
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
            if not (isinstance(rec, dict) and "completed_tasks" in rec):
                try:
                    store.add(_record_to_entry(rec))
                except CorruptMemoryFile as exc:
                    raise CorruptMemoryFile(f"{path}:{lineno}: {exc}") from exc
            elif type(rec["completed_tasks"]) is int and len(rec) == 1:
                store.completed_tasks = rec["completed_tasks"]
            else:
                raise CorruptMemoryFile(
                    f"{path}:{lineno}: completed_tasks is not an integer on a line of its own: {rec!r:.80}"
                )
    return store
