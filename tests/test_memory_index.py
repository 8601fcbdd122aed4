"""The per-tier memory index against scalar brute force, under concurrency
and embedding outages, and the bounded embedding cache."""

from __future__ import annotations

import random
import re
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patchloop.embedding import (
    CACHE_SIZE,
    CachingEmbedder,
    DeterministicEmbedder,
    cosine,
    jaccard_similarity,
)
from patchloop.errors import EmbeddingUnavailable
from patchloop.memory import (
    DEDUP_THRESHOLD,
    TIERS,
    InsertOutcome,
    L1Entry,
    L2Entry,
    L3Entry,
    MemoryStore,
    RetrievalKeys,
    TierIndex,
    entry_timestamp,
    field_text,
    insert,
    load_store,
    parse_timestamp,
    prune,
    query_timestamp,
    save_store,
)
from patchloop.retrieval import Priority, Query, retrieve

# ---------------------------------------------------------------------------
# A stub embedder with hand-picked integer vectors around the threshold
# ---------------------------------------------------------------------------

VECTORS = {
    "v0": (1, 0, 0, 0, 0, 0),
    "v1": (19, 6, 1, 1, 1, 0),  # cos(v0, v1) == 0.95 exactly: no merge
    "v2": (19, 6, 1, 1, 0, 0),  # cos(v0, v2) = 0.95119
    "v3": (19, 6, 1, 1, 1, 1),  # cos(v0, v3) = 0.94881
    "v4": (3, 1, 0, 2, 0, 0),
    "v5": (6, 4, 2, 5, 0, 0),  # cos(v4, v5) = 0.95026
    "v6": (6, 5, 0, 6, 0, 0),  # cos(v4, v6) = 0.94977
    "v7": (0, 0, 0, 0, 0, 3),
    "v8": (-1, 0, 0, 0, 0, 0),
}
_NAME_RE = re.compile(r"\bv\d\b")


class TableEmbedder:
    """Sum of the vectors of the names in a text; zeros when it has none."""

    dim = 6

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim)
        for name in _NAME_RE.findall(text):
            vec += VECTORS[name]
        return vec


def test_stub_vectors_sit_on_and_next_to_the_threshold():
    emb = TableEmbedder()
    sims = {
        pair: cosine(emb.embed(pair[0]), emb.embed(pair[1]))
        for pair in [("v0", "v1"), ("v0", "v2"), ("v0", "v3"), ("v4", "v5"), ("v4", "v6")]
    }
    assert sims[("v0", "v1")] == DEDUP_THRESHOLD
    assert DEDUP_THRESHOLD < sims[("v4", "v5")] < sims[("v0", "v2")] < DEDUP_THRESHOLD + 2e-3
    assert DEDUP_THRESHOLD - 2e-3 < sims[("v0", "v3")] < sims[("v4", "v6")] < DEDUP_THRESHOLD
    assert cosine(emb.embed("..."), emb.embed("v0")) == 0.0


# ---------------------------------------------------------------------------
# Scalar brute force: the loops the index replaced
# ---------------------------------------------------------------------------


def ref_insert(store: MemoryStore, entry, embed) -> InsertOutcome:
    entry.validate()
    for existing in store.tier_entries(entry.tier):
        if (
            cosine(embed(entry.keys.description), embed(existing.keys.description)) > DEDUP_THRESHOLD
            and cosine(embed(entry.patch_text), embed(existing.patch_text)) > DEDUP_THRESHOLD
        ):
            existing.last_retrieved = store.completed_tasks
            return InsertOutcome.MERGED
    if entry.fallback_seq is None and parse_timestamp(entry.keys.instance_id) is None:
        entry.fallback_seq = store.next_fallback_seq()
    store.add(entry)
    entry.last_retrieved = store.completed_tasks
    return InsertOutcome.INSERTED


def ref_retrieve(store: MemoryStore, tier, query, override, embed):
    """(row in the tier list, priority, similarity) for each result."""
    q = query.keys
    q_ts = query_timestamp(q)
    p1, p2 = [], []
    for row, e in enumerate(store.tier_entries(tier)):
        if e.keys.instance_id == q.instance_id:
            continue
        if e.keys.cwe != q.cwe or e.keys.language != q.language:
            continue
        if e.keys.project == q.project:
            if entry_timestamp(e) < q_ts:
                p1.append((row, e))
        else:
            p2.append((row, e))
    pools = [(1, p1)] + ([(2, p2)] if len(p1) < query.k_min else [])
    q_vec = embed(override if override is not None else q.description)
    scored = []
    for prio, pool in pools:
        for row, e in pool:
            text = e.fail_patch if override is not None and isinstance(e, L3Entry) else e.keys.description
            scored.append((prio, cosine(q_vec, embed(text)), row, e))
    scored.sort(key=lambda s: (s[0], -s[1], *(-x for x in entry_timestamp(s[3])), s[3].keys.instance_id))
    return [(row, prio, sim) for prio, sim, row, _ in scored[: query.top_n]]


def rows_of(store: MemoryStore, tier: str, ranked) -> list[tuple[int, int, float]]:
    """Results as (row in the tier list, priority, similarity); each entry
    must be one of the list's own objects."""
    entries = store.tier_entries(tier)
    out = []
    for r in ranked:
        row = next(i for i, e in enumerate(entries) if e is r.entry)
        out.append((row, int(r.priority_tier), r.similarity))
    return out


def diff(text: str, new: str = "fixed") -> str:
    return f"--- a/f.c\n+++ b/f.c\n@@ -1,1 +1,1 @@\n-{text}\n+{new}\n"


def make_entry(spec):
    tier, project, cwe, iid, desc, patch, fail = spec
    keys = RetrievalKeys(project, cwe, "c", iid, desc)
    if tier == "L1":
        return L1Entry(keys=keys, fix_patch=diff(patch))
    if tier == "L2":
        return L2Entry(keys=keys, fix_patch=diff(patch), rationale="r")
    return L3Entry(keys=keys, fail_patch=diff(fail), correction_delta=diff(patch, "delta"),
                   transition_insight="t")


# "..." has no names: a zero vector.
_TEXT = st.lists(st.sampled_from(sorted(VECTORS) + ["..."]), min_size=1, max_size=2).map(" ".join)
_IID = st.one_of(
    st.builds("p.cve-{}-{}".format, st.integers(2018, 2022), st.integers(1, 5)),
    st.builds("p.nots-{}".format, st.integers(1, 5)),
)
_SPEC = st.tuples(st.sampled_from(TIERS), st.sampled_from(["p", "q"]),
                  st.sampled_from(["CWE-787", "CWE-416"]), _IID, _TEXT, _TEXT, _TEXT)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _SPEC),
        st.tuples(st.just("append"), _SPEC),
        st.tuples(st.just("prune"), st.integers(1, 3)),
        st.tuples(st.just("roundtrip")),
        st.tuples(st.just("retrieve"), st.sampled_from(TIERS), _SPEC,
                  st.one_of(st.none(), _TEXT.map(diff)), st.integers(1, 3)),
    ),
    max_size=40,
)


@settings(max_examples=120, deadline=None)
@given(ops=_OPS)
# Ids without a CVE segment on both sides: only the inserted entry's
# sequence number puts it in the query's P1 pool.
@example(ops=[
    ("insert", ("L1", "p", "CWE-787", "p.nots-1", "v0", "v0", "v0")),
    ("retrieve", "L1", ("L1", "p", "CWE-787", "p.nots-2", "v0", "v0", "v0"), None, 1),
])
def test_index_matches_scalar_brute_force(ops):
    embed = TableEmbedder().embed
    store = MemoryStore(embedder=CachingEmbedder(TableEmbedder()))
    ref = MemoryStore()
    with tempfile.TemporaryDirectory() as tmp:
        for op in ops:
            kind = op[0]
            if kind == "insert":
                # A fresh counter value makes the merge target's recency visible.
                store.completed_tasks += 1
                ref.completed_tasks += 1
                assert insert(store, make_entry(op[1])) == ref_insert(ref, make_entry(op[1]), embed)
            elif kind == "append":
                store.add(make_entry(op[1]))
                ref.add(make_entry(op[1]))
            elif kind == "prune":
                assert prune(store, op[1]) == prune(ref, op[1])
            elif kind == "roundtrip":
                save_store(store, Path(tmp) / "real.jsonl")
                save_store(ref, Path(tmp) / "ref.jsonl")
                store = load_store(Path(tmp) / "real.jsonl", embedder=store.embedder)
                ref = load_store(Path(tmp) / "ref.jsonl")
            else:
                _, tier, spec, override, k_min = op
                query = Query(make_entry(spec).keys, k_min=k_min, top_n=k_min + 2)
                got = rows_of(store, tier, retrieve(store, tier, query, override))
                assert got == ref_retrieve(ref, tier, query, override, embed)
            for tier in TIERS:
                mine, theirs = store.tier_entries(tier), ref.tier_entries(tier)
                assert mine == theirs
                # Equality leaves last_retrieved out; compare it row by row,
                # on entry objects the two stores do not share.
                assert not {id(e) for e in mine} & {id(e) for e in theirs}
                assert [e.last_retrieved for e in mine] == [e.last_retrieved for e in theirs]
    # Dedup embeds stored patches only at near rows, so a column may be
    # sparse: each vector it holds is its own row's.
    for tier in TIERS:
        index = store._indexes[tier]
        patches = index.fields["patch"]
        for row in held_rows(patches, len(index.entries)):
            assert np.array_equal(patches.vectors[row], embed(field_text("patch", index.entries[row])))


def test_dedup_is_strict_at_the_threshold_and_merges_into_the_first_match():
    store = MemoryStore(embedder=CachingEmbedder(TableEmbedder()))
    first, second = (make_entry(("L1", "p", "CWE-787", f"p.cve-2020-{i}", "v0", "v0", "")) for i in (1, 2))
    store.add(first)  # added as they are, so neither absorbed the other
    store.add(second)
    on_edge = make_entry(("L1", "p", "CWE-787", "p.cve-2020-3", "v1", "v0", ""))
    assert insert(store, on_edge) == InsertOutcome.INSERTED  # description cosine == 0.95
    store.completed_tasks = 4
    assert insert(store, make_entry(("L1", "p", "CWE-787", "p.cve-2020-4", "v2", "v0", ""))) == (
        InsertOutcome.MERGED
    )
    assert first.last_retrieved == 4
    assert second.last_retrieved is None
    assert store.l1 == [first, second, on_edge]


def test_a_row_near_on_one_text_only_never_absorbs_an_insert():
    store = MemoryStore(embedder=CachingEmbedder(TableEmbedder()))
    desc_only = make_entry(("L1", "p", "CWE-787", "p.cve-2020-1", "v0", "v7", ""))
    patch_only = make_entry(("L1", "p", "CWE-787", "p.cve-2020-2", "v7", "v0", ""))
    store.add(desc_only)
    store.add(patch_only)
    new = make_entry(("L1", "p", "CWE-787", "p.cve-2020-3", "v2", "v2", ""))
    assert insert(store, new) == InsertOutcome.INSERTED
    assert store.l1 == [desc_only, patch_only, new]


def test_of_several_rows_near_on_both_texts_the_first_in_store_order_absorbs():
    store = MemoryStore(embedder=CachingEmbedder(TableEmbedder()))
    specs = [("v0", "v7"), ("v7", "v0"), ("v2", "v2"), ("v0", "v2"), ("v0", "v0")]
    rows = [make_entry(("L1", "p", "CWE-787", f"p.cve-2020-{i}", d, p, ""))
            for i, (d, p) in enumerate(specs)]
    for entry in rows:
        store.add(entry)
    store.completed_tasks = 7
    new = make_entry(("L1", "p", "CWE-787", "p.cve-2020-9", "v0", "v0", ""))
    assert insert(store, new) == InsertOutcome.MERGED
    assert [e.last_retrieved for e in rows] == [None, None, 7, None, None]
    assert store.l1 == rows


def test_dedup_scores_patches_only_at_the_description_hits(monkeypatch):
    import patchloop.memory as memory

    scored: list[tuple[object, list[int]]] = []
    original = memory.VectorRows.cosine

    def spy(self, vec, rows):
        got = original(self, vec, rows)
        scored.append((self, list(range(len(got))) if isinstance(rows, slice) else list(rows)))
        return got

    monkeypatch.setattr(memory.VectorRows, "cosine", spy)
    store = MemoryStore(embedder=CachingEmbedder(TableEmbedder()))
    for i, (d, p) in enumerate([("v7", "v0"), ("v0", "v7"), ("v4", "v0"), ("v2", "v7")]):
        store.add(make_entry(("L1", "p", "CWE-787", f"p.cve-2020-{i}", d, p, "")))

    def patch_rows() -> list[list[int]]:
        patches = store._indexes["L1"].fields["patch"]
        return [rows for column, rows in scored if column is patches]

    assert insert(store, make_entry(("L1", "p", "CWE-787", "p.cve-2021-1", "v6", "v0", ""))) == (
        InsertOutcome.INSERTED  # no stored description is near v6, v4 only just not
    )
    assert patch_rows() == []
    scored.clear()
    assert insert(store, make_entry(("L1", "p", "CWE-787", "p.cve-2021-2", "v0", "v0", ""))) == (
        InsertOutcome.INSERTED  # v0 and v2 are near, but neither row's patch is
    )
    assert patch_rows() == [[1, 3]]


# ---------------------------------------------------------------------------
# Coherence of the tier index
# ---------------------------------------------------------------------------


class CountingEmbedder:
    dim = 64

    def __init__(self) -> None:
        self.inner = DeterministicEmbedder()
        self.texts: list[str] = []

    def embed(self, text: str) -> np.ndarray:
        self.texts.append(text)
        return self.inner.embed(text)


def l2(iid: str, desc: str, project: str = "p") -> L2Entry:
    return L2Entry(keys=RetrievalKeys(project, "CWE-787", "c", iid, desc),
                   fix_patch=diff(desc.replace(" ", "_")), rationale="r")


QUERY = Query(RetrievalKeys("p", "CWE-787", "c", "p.cve-2030-1", "heap overflow in parser"),
              k_min=1, top_n=10)


def stored_column(index: TierIndex, field: str) -> tuple[np.ndarray, np.ndarray]:
    """The vectors and norms of a field whose every row is embedded."""
    rows, n = index.fields[field], len(index.entries)
    assert rows.missing(range(n)) == []
    return rows.vectors[:n], rows.norms[:n]


def fresh_column(entries, field: str) -> tuple[np.ndarray, np.ndarray]:
    emb = DeterministicEmbedder()
    vecs = [emb.embed(field_text(field, entry)) for entry in entries]
    return np.array(vecs).reshape(len(vecs), emb.dim), np.array([np.linalg.norm(v) for v in vecs])


def assert_same_column(got, want) -> None:
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def held_rows(column, n: int) -> list[int]:
    """The rows below `n` that hold a vector, in order."""
    missing = set(column.missing(range(n)))
    return [row for row in range(n) if row not in missing]


def test_appends_extend_the_index_and_other_changes_rebuild_it():
    store = MemoryStore()
    words = "heap overflow parser frame length copy tag size".split()
    for i in range(12):
        store.add(l2(f"p.cve-2020-{i}", " ".join(words[i % 8:] + words[: i % 8])))
    retrieve(store, "L2", QUERY)
    index = store._indexes["L2"]
    assert index.fields["patch"].missing(range(12)) == list(range(12))  # only descriptions were needed
    store.add(l2("p.cve-2021-1", "overflow in the frame parser"))
    retrieve(store, "L2", QUERY)
    assert store._indexes["L2"] is index
    assert_same_column(stored_column(index, "description"), fresh_column(store.l2, "description"))

    store.completed_tasks = 5
    for entry in store.l2[::2]:
        entry.last_retrieved = 5
    assert prune(store, 1) == 6
    ranked = retrieve(store, "L2", QUERY)
    assert all(r.entry in store.l2 for r in ranked)
    rebuilt = store._indexes["L2"]
    assert rebuilt is not index and rebuilt.entries == store.l2
    assert_same_column(stored_column(rebuilt, "description"), fresh_column(store.l2, "description"))


def test_the_tier_index_is_the_only_holder_of_its_entries(tmp_path):
    store = MemoryStore()
    kept, stray = l2("p.cve-2020-1", "heap overflow in parser"), l2("p.cve-2020-2", "frame copy")
    store.add(kept)
    store.tier_entries("L2").append(stray)  # copies: neither reaches the store
    store.l2.append(stray)
    assert store.l2 == [kept] and len(store) == 1
    assert [r.entry for r in retrieve(store, "L2", QUERY)] == [kept]

    store.add(stray)
    assert {id(r.entry) for r in retrieve(store, "L2", QUERY)} == {id(kept), id(stray)}
    save_store(store, tmp_path / "m.jsonl")
    assert load_store(tmp_path / "m.jsonl").l2 == [kept, stray]

    index = store._indexes["L2"]
    store.completed_tasks = 5
    kept.last_retrieved = 5
    assert prune(store, 1) == 1
    assert store._indexes["L2"] is not index and store._indexes["L2"].entries == [kept]


def test_row_stamps_are_taken_once_the_entry_has_its_sequence_number():
    store = MemoryStore()
    for i, desc in enumerate(["heap overflow in parser", "frame length copy", "tag size bound"]):
        insert(store, l2(f"p-local-{i}", desc))
    insert(store, l2("p.cve-2020-1", "overflow guard"))
    assert [e.fallback_seq for e in store.l2] == [0, 1, 2, None]
    index = store._indexes["L2"]
    assert index.stamps == [entry_timestamp(e) for e in store.l2]
    assert index.ties == [
        (*(-t for t in entry_timestamp(e)), e.keys.instance_id, row) for row, e in enumerate(store.l2)
    ]
    # An id without a CVE segment sorts after every numbered entry, so all
    # four are older than the query and share its project: all are P1.
    query = Query(replace(QUERY.keys, instance_id="p-local-query"), k_min=1, top_n=10)
    ranked = retrieve(store, "L2", query)
    assert len(ranked) == 4 and {r.priority_tier for r in ranked} == {Priority.P1}


def test_reads_embed_only_the_rows_they_score():
    counting = CountingEmbedder()
    store = MemoryStore(embedder=CachingEmbedder(counting))
    mine = [l2(f"p.cve-2020-{i}", f"heap overflow number {i}") for i in range(3)]
    theirs = [l2(f"q.cve-2020-{i}", f"use after free {i}", "q") for i in range(3)]
    other_cwe = [
        L2Entry(keys=RetrievalKeys("p", "CWE-416", "c", f"p.cve-2019-{i}", f"dangling {i}"),
                fix_patch=diff(f"x{i}"), rationale="r")
        for i in range(3)
    ]
    for entry in mine + theirs + other_cwe:
        store.add(entry)
    retrieve(store, "L2", Query(QUERY.keys, k_min=1, top_n=10))
    assert counting.texts == [QUERY.keys.description] + [e.keys.description for e in mine]
    counting.texts.clear()
    retrieve(store, "L2", Query(QUERY.keys, k_min=5, top_n=10))  # P1 is sparse: P2 joins
    assert counting.texts == [e.keys.description for e in theirs]

    # Dedup embeds every description, each once, and a stored patch only
    # where the description is near: here at no row.
    counting.texts.clear()
    new = l2("p.cve-2020-9", "heap overflow number 9")
    assert insert(store, new) == InsertOutcome.INSERTED
    assert counting.texts == [new.keys.description, new.fix_patch] + [e.keys.description for e in other_cwe]
    # A description equal to a stored one's: that row's patch, and no other.
    counting.texts.clear()
    twin = L2Entry(keys=replace(mine[1].keys, instance_id="p.cve-2020-10"), fix_patch=diff("other"),
                   rationale="r")
    assert insert(store, twin) == InsertOutcome.INSERTED
    assert counting.texts == [twin.fix_patch, mine[1].fix_patch]
    assert held_rows(store._indexes["L2"].fields["patch"], len(store.l2)) == [1, 9, 10]


class ReadRecordingList(list):
    """A list that records every index it is read at."""

    def __init__(self, items) -> None:
        super().__init__(items)
        self.read: set[int] = set()

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)


def test_a_full_p1_reads_no_other_project():
    counting = CountingEmbedder()
    store = MemoryStore(embedder=CachingEmbedder(counting))
    for i in range(4):
        store.add(l2(f"q.cve-2020-{i}", f"use after free {i}", "q"))
        store.add(l2(f"p.cve-2020-{i}", f"heap overflow number {i}"))
        store.add(l2(f"r.cve-2020-{i}", f"double free {i}", "r"))
    index = store._indexes["L2"]
    index.entries = ReadRecordingList(index.entries)
    index.stamps = ReadRecordingList(index.stamps)
    mine = {row for row, e in enumerate(store.l2) if e.keys.project == "p"}

    ranked = retrieve(store, "L2", Query(QUERY.keys, k_min=4, top_n=10))
    assert [r.priority_tier for r in ranked] == [Priority.P1] * 4
    assert counting.texts == [QUERY.keys.description] + [e.keys.description for e in store.l2
                                                         if e.keys.project == "p"]
    assert index.entries.read <= mine and index.stamps.read <= mine
    assert index.fields["description"].missing(range(12)) == sorted(set(range(12)) - mine)


class LockWatchingEmbedder:
    """Fails the test when it is called while its store's writer lock is held."""

    dim = 64

    def __init__(self) -> None:
        self.inner = DeterministicEmbedder()
        self.store: MemoryStore | None = None
        self.calls = 0

    def embed(self, text: str) -> np.ndarray:
        assert not self.store._write_lock.locked()
        self.calls += 1
        return self.inner.embed(text)


def test_the_embedder_never_runs_under_the_writer_lock():
    watching = LockWatchingEmbedder()
    store = MemoryStore(embedder=CachingEmbedder(watching))
    watching.store = store
    for i in range(8):
        store.add(l2(f"p.cve-2020-{i}", " ".join(random.Random(i).choices(WORDS, k=4))))
    retrieve(store, "L2", QUERY)
    insert(store, l2("p.cve-2020-50", "guard the frame copy"))
    store.add(L3Entry(keys=QUERY.keys, fail_patch=diff("frame"), correction_delta=diff("copy"),
                            transition_insight="t"))
    retrieve(store, "L3", Query(replace(QUERY.keys, instance_id="p.cve-2031-1"), k_min=1), diff("frame"))
    insert(store, L3Entry(keys=QUERY.keys, fail_patch=diff("tag"), correction_delta=diff("size"),
                          transition_insight="t"))
    assert watching.calls > 0


class AppendingEmbedder:
    """Adds `late` to its store when first asked for `trigger`, like another
    writer while an insert embeds outside the lock."""

    dim = 64

    def __init__(self, store: MemoryStore, trigger: str, late: L2Entry) -> None:
        self.inner = DeterministicEmbedder()
        self.store, self.trigger, self.late = store, trigger, late

    def embed(self, text: str) -> np.ndarray:
        if text == self.trigger and self.late not in self.store.l2:
            self.store.add(self.late)
        return self.inner.embed(text)


def test_insert_dedups_against_entries_appended_while_it_embeds():
    store = MemoryStore()
    first = l2("p.cve-2020-1", "heap overflow in parser")
    late = l2("p.cve-2020-2", "guard the frame copy")
    store.add(first)
    store.embedder = CachingEmbedder(AppendingEmbedder(store, first.keys.description, late))
    assert insert(store, l2("p.cve-2020-3", "guard the frame copy")) == InsertOutcome.MERGED
    assert store.l2 == [first, late]
    with store._write_lock:
        index = store._indexes["L2"]
    assert index.entries == [first, late]
    # Only the late row's description is near, so only its patch was read.
    patches = index.fields["patch"]
    assert held_rows(patches, 2) == [1]
    assert_same_column((patches.vectors[[1]], patches.norms[[1]]), fresh_column([late], "patch"))


def test_a_loaded_tier_embeds_a_stored_patch_only_where_a_description_is_near(tmp_path):
    saved = MemoryStore()
    stored = [l2(f"p.cve-2020-{i}", f"{word} in the frame parser") for i, word in enumerate(WORDS)]
    for entry in stored:
        saved.add(entry)
    save_store(saved, tmp_path / "m.jsonl")
    counting = CountingEmbedder()
    store = load_store(tmp_path / "m.jsonl", embedder=CachingEmbedder(counting))

    new = l2("p.cve-2021-1", "use after free of a session")
    assert insert(store, new) == InsertOutcome.INSERTED
    assert counting.texts == [new.keys.description, new.fix_patch] + [e.keys.description for e in stored]
    n = len(stored)
    assert held_rows(store._indexes["L2"].fields["patch"], n + 1) == [n]

    # One near-duplicate description: exactly its row's patch is added.
    counting.texts.clear()
    twin = L2Entry(keys=replace(stored[3].keys, instance_id="p.cve-2021-2"), fix_patch=diff("other"),
                   rationale="r")
    assert insert(store, twin) == InsertOutcome.INSERTED
    assert counting.texts == [twin.fix_patch, stored[3].fix_patch]
    assert held_rows(store._indexes["L2"].fields["patch"], n + 2) == [3, n, n + 1]


def test_store_keeps_the_embedder_it_is_given(tmp_path):
    emb = CachingEmbedder(DeterministicEmbedder())
    assert len(emb) == 0  # an empty cache is falsy
    assert MemoryStore(embedder=emb).embedder is emb
    assert load_store(tmp_path / "absent.jsonl", embedder=emb).embedder is emb


# ---------------------------------------------------------------------------
# Robustness: threads, outages, cache bound
# ---------------------------------------------------------------------------

WORDS = "heap overflow parser frame length copy tag size bound guard".split()


def test_concurrent_writers_and_readers_end_like_a_serial_rebuild():
    store = MemoryStore()
    errors: list[BaseException] = []

    def work(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for i in range(40):
                desc = " ".join(rng.choices(WORDS, k=3))  # few words: some merge
                project = rng.choice(["p", "q"])
                entry = l2(f"{project}.cve-2020-{seed * 100 + i}", desc, project)
                if rng.random() < 0.5:
                    entry = L1Entry(keys=entry.keys, fix_patch=entry.fix_patch)
                insert(store, entry)
                tier = rng.choice(["L1", "L2"])
                ranked = retrieve(store, tier, QUERY)
                store.touch([r.entry for r in ranked])
                store.complete_task()
                for r in ranked:
                    assert any(r.entry is e for e in store.tier_entries(tier))
        except BaseException as exc:  # reported below, on the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # Each insert and touch happens before its iteration completes a task.
    assert store.completed_tasks == 160
    assert all(0 <= e.last_retrieved < 160 for t in ("L1", "L2") for e in store.tier_entries(t))

    serial = MemoryStore()
    for tier in ("L1", "L2"):
        for entry in store.tier_entries(tier):
            assert insert(serial, entry) == InsertOutcome.INSERTED
        assert serial.tier_entries(tier) == store.tier_entries(tier)
        with store._write_lock:
            index = store._indexes[tier]
        assert index is store._indexes[tier]
        assert all(a is b for a, b in zip(index.entries, store.tier_entries(tier), strict=True))
        assert index.buckets == TierIndex(store.tier_entries(tier)).buckets
        for field in ("description", "patch"):
            assert_same_column(stored_column(index, field), fresh_column(index.entries, field))


class FlakyEmbedder:
    """Fails once `budget` embeddings have been served; None means never."""

    dim = 64

    def __init__(self) -> None:
        self.inner = DeterministicEmbedder()
        self.budget: int | None = None

    def embed(self, text: str) -> np.ndarray:
        if self.budget is not None:
            if self.budget == 0:
                raise EmbeddingUnavailable("backend down")
            self.budget -= 1
        return self.inner.embed(text)


def test_outage_part_way_through_a_column_leaves_the_index_consistent():
    flaky = FlakyEmbedder()
    store = MemoryStore(embedder=CachingEmbedder(flaky))
    descs = [" ".join(random.Random(i).choices(WORDS, k=4)) for i in range(10)]
    for i, desc in enumerate(descs):
        store.add(l2(f"p.cve-2020-{i}", desc))

    flaky.budget = 4  # the query, then three of the ten descriptions
    ranked = retrieve(store, "L2", QUERY)
    want = sorted(
        ((jaccard_similarity(QUERY.keys.description, d), i) for i, d in enumerate(descs)),
        key=lambda s: (-s[0], -s[1]),
    )
    assert [(r.similarity, int(r.entry.keys.instance_id.rsplit("-", 1)[1])) for r in ranked] == want
    column = store._indexes["L2"].fields["description"]
    assert column.missing(range(10)) == list(range(3, 10))
    for row in range(3):
        assert np.array_equal(column.vectors[row], flaky.inner.embed(descs[row]))

    flaky.budget = 4  # the insert's own two texts, then two more descriptions
    try:
        insert(store, l2("p.cve-2020-99", "guard the frame copy"))
    except EmbeddingUnavailable:
        pass
    else:
        raise AssertionError("insert should propagate the outage")
    assert len(store.l2) == 10 and column.missing(range(10)) == list(range(5, 10))
    assert all(e.last_retrieved is None for e in store.l2)
    for row in range(5):
        assert np.array_equal(column.vectors[row], flaky.inner.embed(descs[row]))

    flaky.budget = None
    ranked = retrieve(store, "L2", QUERY)
    emb = DeterministicEmbedder()
    q_vec = emb.embed(QUERY.keys.description)
    sims = sorted((cosine(q_vec, emb.embed(d)) for d in descs), reverse=True)
    assert [r.similarity for r in ranked] == sims
    assert column.missing(range(10)) == []


def test_caching_embedder_is_bounded_and_evicts_least_recent_first():
    counting = CountingEmbedder()
    emb = CachingEmbedder(counting)
    for i in range(3 * CACHE_SIZE):
        emb.embed(f"text {i}")
        assert len(emb) == min(i + 1, CACHE_SIZE)
    oldest = 2 * CACHE_SIZE
    first = emb.embed(f"text {oldest}")  # a hit, now the most recent
    assert emb.embed(f"text {oldest}") is first
    emb.embed("one more")  # evicts `text {oldest + 1}`, now the least recent
    assert len(emb) == CACHE_SIZE
    counting.texts.clear()
    emb.embed(f"text {oldest}")
    emb.embed(f"text {oldest + 2}")
    assert counting.texts == []
    emb.embed(f"text {oldest + 1}")
    assert counting.texts == [f"text {oldest + 1}"]


def test_caching_embedder_looks_the_inner_method_up_on_every_miss(monkeypatch):
    emb = CachingEmbedder(DeterministicEmbedder())
    emb.embed("before")
    seen: list[str] = []
    original = DeterministicEmbedder.embed

    def spy(self, text):
        seen.append(text)
        return original(self, text)

    # Replaced on the class after the cache exists, as a tracer does.
    monkeypatch.setattr(DeterministicEmbedder, "embed", spy)
    emb.embed("before")
    emb.embed("after")
    assert seen == ["after"]
