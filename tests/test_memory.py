from __future__ import annotations

import hashlib
import json
import math
import os
import re
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchloop import memory
from patchloop.embedding import DeterministicEmbedder
from patchloop.errors import InvariantViolation
from patchloop.memory import (
    CveTimestamp,
    InsertOutcome,
    L1Entry,
    L2Entry,
    L3Entry,
    MemoryStore,
    RetrievalKeys,
    insert,
    load_store,
    parse_timestamp,
    prune,
    save_store,
)

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def make_patch(path: str, old: str, new: str) -> str:
    return f"--- a/{path}\n+++ b/{path}\n@@ -1,1 +1,1 @@\n-{old}\n+{new}\n"


def keys(instance_id: str, project: str = "proj", desc: str = "a bug") -> RetrievalKeys:
    return RetrievalKeys(
        project=project, cwe="CWE-787", language="c", instance_id=instance_id, description=desc
    )


def l1(instance_id: str, desc: str = "a bug", patch: str | None = None) -> L1Entry:
    return L1Entry(
        keys=keys(instance_id, desc=desc),
        fix_patch=patch or make_patch("f.c", "x = 1;", "x = 2;"),
    )


# Independent similarity oracle: hand-rolled hashing + dot product, no numpy.
def oracle_cosine(a: str, b: str, dim: int = 64) -> float:
    def vec(text: str) -> list[float]:
        out = [0.0] * dim
        for token in re.findall(r"[a-z0-9]+", text.lower()):
            digest = hashlib.sha256(token.encode()).digest()
            bucket = int.from_bytes(digest[:4], "big") % dim
            out[bucket] += 1.0 if digest[4] % 2 == 0 else -1.0
        return out

    va, vb = vec(a), vec(b)
    dot = sum(x * y for x, y in zip(va, vb))
    na = math.sqrt(sum(x * x for x in va))
    nb = math.sqrt(sum(x * x for x in vb))
    return 0.0 if na == 0 or nb == 0 else dot / (na * nb)


# ---------------------------------------------------------------------------
# parse_timestamp
# ---------------------------------------------------------------------------


def test_parse_timestamp_documented_forms():
    assert parse_timestamp("njs.cve-2022-32414") == CveTimestamp(2022, 32414)
    assert parse_timestamp("gpac.CVE-2023-0841") == CveTimestamp(2023, 841)
    assert parse_timestamp("") is None
    assert parse_timestamp("no-cve-here") is None


def test_parse_timestamp_matches_regex_oracle_on_synthetic_ids():
    oracle = re.compile(r"cve-(\d{4})-(\d+)", re.IGNORECASE)
    synthetic = [
        "njs.cve-2022-32414",
        "gpac.CVE-2023-0841",
        "CVE-1999-0001",
        "lib/cve-2010-31337.patch",
        "double.cve-2001-44.cve-2009-99",
        "upper.CVE-2024-000123",
        "project",
        "cve-",
        "cve-20-1",
        "almostcve-2020',",
        "x.cVe-2015-8126",
        "v2.cve-2400-1",
        "cve2020-1234",
        "a.cve-2020-1234z",
        "cve-2020-1234",
        "weird..cve-2021-0",
        "",
        "CVE",
        "notacve-199-1",
        "tail-cve-2018-1000001",
    ]
    for instance_id in synthetic:
        m = oracle.search(instance_id)
        expected = CveTimestamp(int(m.group(1)), int(m.group(2))) if m else None
        assert parse_timestamp(instance_id) == expected, instance_id


def test_parse_timestamp_order_agrees_with_chronology():
    ids = ["a.cve-2019-5", "b.cve-2019-40", "c.cve-2020-1", "d.cve-2021-9999"]
    stamps = [parse_timestamp(i) for i in ids]
    assert stamps == sorted(stamps)


# ---------------------------------------------------------------------------
# insert / dedup
# ---------------------------------------------------------------------------

BASE_DESC = (
    "heap buffer overflow in the mp3 frame demuxer when the id3 tag size "
    "approaches the unsigned integer maximum causing the reallocation to "
    "wrap around and return a tiny buffer while the following copy still "
    "writes the original payload length past the end of the allocation"
)
NEAR_DESC = BASE_DESC + " observed during fuzzing"
FAR_DESC = "use after free in the websocket handshake parser when the client closes early"

BASE_PATCH = """--- a/reframe_mp3.c
+++ b/reframe_mp3.c
@@ -10,6 +10,9 @@
 static int mp3_dmx_process(ctx *c)
 {
+    if (tag_size > UINT_MAX - 10)
+        return GF_NON_COMPLIANT_BITSTREAM;
     buffer = gf_realloc(buffer, tag_size + 10);
"""
NEAR_PATCH = BASE_PATCH.replace("GF_NON_COMPLIANT_BITSTREAM", "GF_NOT_SUPPORTED")
FAR_PATCH = """--- a/ws.c
+++ b/ws.c
@@ -4,5 +4,6 @@
 void close_session(sess *s)
 {
+    s->parser = NULL;
     free(s->parser);
"""


def test_fixture_similarities_verified_by_independent_oracle():
    # The pairings below only make sense if they actually straddle 0.95.
    assert oracle_cosine(BASE_DESC, NEAR_DESC) > 0.95
    assert oracle_cosine(BASE_DESC, FAR_DESC) < 0.95
    assert oracle_cosine(BASE_PATCH, NEAR_PATCH) > 0.95
    assert oracle_cosine(BASE_PATCH, FAR_PATCH) < 0.95
    # and the production embedder agrees with the oracle
    emb = DeterministicEmbedder()
    for a, b in [(BASE_DESC, NEAR_DESC), (BASE_DESC, FAR_DESC), (BASE_PATCH, FAR_PATCH)]:
        got = float(
            (emb.embed(a) @ emb.embed(b))
            / ((emb.embed(a) @ emb.embed(a)) ** 0.5 * (emb.embed(b) @ emb.embed(b)) ** 0.5)
        )
        assert got == pytest.approx(oracle_cosine(a, b), abs=1e-9)


def entry_with(desc: str, patch: str, instance_id: str) -> L1Entry:
    return L1Entry(keys=keys(instance_id, desc=desc), fix_patch=patch)


def test_insert_exact_duplicate_merges():
    store = MemoryStore()
    assert insert(store, entry_with(BASE_DESC, BASE_PATCH, "p.cve-2023-1")) == InsertOutcome.INSERTED
    assert insert(store, entry_with(BASE_DESC, BASE_PATCH, "p.cve-2023-1")) == InsertOutcome.MERGED
    assert len(store.l1) == 1


def test_insert_orthogonal_entry_inserted():
    store = MemoryStore()
    insert(store, entry_with(BASE_DESC, BASE_PATCH, "p.cve-2023-1"))
    assert (
        insert(store, entry_with(FAR_DESC, FAR_PATCH, "p.cve-2023-2")) == InsertOutcome.INSERTED
    )
    assert len(store.l1) == 2


def test_insert_merges_only_when_both_similarities_exceed_threshold():
    cases = [
        (NEAR_DESC, NEAR_PATCH, InsertOutcome.MERGED),  # both > 0.95
        (NEAR_DESC, FAR_PATCH, InsertOutcome.INSERTED),  # patch below
        (FAR_DESC, NEAR_PATCH, InsertOutcome.INSERTED),  # description below
        (FAR_DESC, FAR_PATCH, InsertOutcome.INSERTED),  # both below
    ]
    for desc, patch, expected in cases:
        store = MemoryStore()
        insert(store, entry_with(BASE_DESC, BASE_PATCH, "p.cve-2023-1"))
        outcome = insert(store, entry_with(desc, patch, "p.cve-2023-2"))
        assert outcome == expected, (desc[:20], patch[:20])


def test_insert_merge_keeps_older_entry_and_refreshes_recency():
    store = MemoryStore()
    first = entry_with(BASE_DESC, BASE_PATCH, "p.cve-2023-1")
    insert(store, first)
    store.completed_tasks = 7
    insert(store, entry_with(BASE_DESC, BASE_PATCH, "p.cve-2023-9"))
    assert store.l1 == [first]
    assert first.last_retrieved == 7


def test_insert_validates_invariants():
    store = MemoryStore()
    bad = L1Entry(keys=keys("p.cve-2023-1"), fix_patch="not a diff")
    with pytest.raises(InvariantViolation):
        insert(store, bad)
    with pytest.raises(InvariantViolation):
        insert(store, L1Entry(keys=RetrievalKeys("p", "CWE-x", "c", "id", "d"),
                              fix_patch=make_patch("f.c", "a", "b")))
    with pytest.raises(InvariantViolation):
        insert(store, L2Entry(keys=keys("p.cve-2023-2"),
                              fix_patch=make_patch("f.c", "a", "b"), rationale="  "))
    with pytest.raises(InvariantViolation, match="fail_patch and correction_delta must differ"):
        insert(store, L3Entry(keys=keys("p.cve-2023-3"), fail_patch=make_patch("f.c", "a", "b"),
                              correction_delta=make_patch("f.c", "a", "b"), transition_insight="none"))


def test_insert_assigns_fallback_seq_for_unparseable_ids():
    store = MemoryStore()
    a = l1("no-cve-id-a", desc="alpha")
    b = l1("no-cve-id-b", desc="totally different beta words here")
    insert(store, a)
    insert(store, b)
    assert a.fallback_seq == 0 and b.fallback_seq == 1
    assert l1("x.cve-2020-1").fallback_seq is None


def test_dedup_idempotence_second_insert_never_grows_store():
    store = MemoryStore()
    entry = entry_with(BASE_DESC, BASE_PATCH, "p.cve-2023-1")
    insert(store, entry)
    size = len(store)
    insert(store, entry_with(BASE_DESC, BASE_PATCH, "p.cve-2023-1"))
    assert len(store) == size


# ---------------------------------------------------------------------------
# prune
# ---------------------------------------------------------------------------


def l2(instance_id: str, desc: str) -> L2Entry:
    return L2Entry(
        keys=keys(instance_id, desc=desc),
        fix_patch=make_patch("f.c", f"a_{instance_id}", "b"),
        rationale="guards the write",
    )


def l3(instance_id: str, desc: str) -> L3Entry:
    return L3Entry(
        keys=keys(instance_id, desc=desc),
        fail_patch=make_patch("f.c", f"c_{instance_id}", "d"),
        correction_delta=make_patch("f.c", f"e_{instance_id}", "f"),
        transition_insight="tighten the bound",
    )


def build_pruning_store() -> MemoryStore:
    """6 runtime entries with known last retrievals, plus one L1."""
    store = MemoryStore()
    descriptions = [
        "alpha null deref in parser",
        "beta overflow in decoder ring",
        "gamma race in cache eviction",
        "delta leak in session close",
        "epsilon truncation in header read",
        "zeta confusion in type lattice",
    ]
    entries = [
        l2("p.cve-2020-1", descriptions[0]),
        l2("p.cve-2020-2", descriptions[1]),
        l2("p.cve-2020-3", descriptions[2]),
        l3("p.cve-2020-4", descriptions[3]),
        l3("p.cve-2020-5", descriptions[4]),
        l3("p.cve-2020-6", descriptions[5]),
    ]
    for entry in entries:
        insert(store, entry)
    insert(store, l1("p.cve-2019-9", desc="historic fix kept forever"))
    # Hand-assigned last-retrieved task counters.
    last = [2, 5, 9, 1, 7, 10]
    for entry, task in zip(entries, last):
        entry.last_retrieved = task
    store.completed_tasks = 12
    return store


def brute_force_stale(store: MemoryStore, window: float) -> set[str]:
    stale = set()
    for tier in ("L2", "L3"):
        for entry in store.tier_entries(tier):
            last = entry.last_retrieved or 0
            if store.completed_tasks - last > window:
                stale.add(entry.keys.instance_id)
    return stale


def test_prune_window_larger_than_task_count_removes_nothing():
    store = build_pruning_store()
    assert prune(store, 100) == 0
    assert len(store.l2) == 3 and len(store.l3) == 3


def test_prune_removes_definitionally_stale_entry():
    store = MemoryStore()
    entry = l2("p.cve-2020-1", "stale thing")
    insert(store, entry)
    entry.last_retrieved = 0
    store.completed_tasks = 10
    assert prune(store, 5) == 1
    assert store.l2 == []


def test_prune_matches_brute_force_filter():
    for window in (1, 2, 3, 5, 7, 11):
        store = build_pruning_store()
        expected = brute_force_stale(store, window)
        removed = prune(store, window)
        assert removed == len(expected)
        survivors = {e.keys.instance_id for t in ("L2", "L3") for e in store.tier_entries(t)}
        assert survivors.isdisjoint(expected)


def test_prune_never_touches_l1():
    store = build_pruning_store()
    prune(store, 1)
    assert len(store.l1) == 1


def test_prune_monotonicity_smaller_window_removes_superset():
    for w_small, w_large in [(1, 2), (2, 5), (3, 11)]:
        a, b = build_pruning_store(), build_pruning_store()
        prune(a, w_small)
        prune(b, w_large)
        kept_small = {e.keys.instance_id for t in ("L2", "L3") for e in a.tier_entries(t)}
        kept_large = {e.keys.instance_id for t in ("L2", "L3") for e in b.tier_entries(t)}
        assert kept_small <= kept_large


def test_prune_rejects_bad_window():
    with pytest.raises(InvariantViolation):
        prune(MemoryStore(), 0)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def entries_as_tuples(store: MemoryStore):
    out = set()
    for tier in memory.TIERS:
        for e in store.tier_entries(tier):
            out.add((tier, e.keys, e.patch_text, e.fallback_seq))
    return out


def last_retrievals(store: MemoryStore) -> list:
    return [(e.keys, e.last_retrieved) for tier in memory.TIERS for e in store.tier_entries(tier)]


def test_save_load_round_trip(tmp_path):
    store = build_pruning_store()
    insert(store, l1("odd-id-without-cve", desc="fallback timestamped entry"))
    path = tmp_path / "memory.jsonl"
    save_store(store, path)
    loaded = load_store(path)
    assert entries_as_tuples(loaded) == entries_as_tuples(store)
    assert last_retrievals(loaded) == last_retrievals(store)
    assert loaded.completed_tasks == store.completed_tasks


def test_saved_file_is_jsonl_with_tier_tags(tmp_path):
    import json

    store = MemoryStore()
    insert(store, l1("p.cve-2020-1"))
    insert(store, l2("p.cve-2020-2", "two words"))
    path = tmp_path / "memory.jsonl"
    save_store(store, path)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert [l["tier"] for l in lines] == ["L1", "L2"]
    assert all(
        set(("project", "cwe", "language", "instance_id", "description")) <= set(l) for l in lines
    )


class PausingStore(MemoryStore):
    """Its save stops after the L1 lines until `resume` is set."""

    def __init__(self) -> None:
        super().__init__()
        self.paused, self.resume = threading.Event(), threading.Event()

    def tier_entries(self, tier):
        if tier == "L2":
            self.paused.set()
            assert self.resume.wait(10)
        return super().tier_entries(tier)


def test_a_save_midway_survives_another_save_to_the_same_path(tmp_path):
    path = tmp_path / "memory.jsonl"
    slow, fast = PausingStore(), MemoryStore()
    insert(slow, l1("p.cve-2020-1", desc="written by the slow save"))
    insert(fast, l1("p.cve-2020-2", desc="written by the fast save"))
    errors: list[BaseException] = []

    def save_slowly():
        try:
            save_store(slow, path)
        except BaseException as exc:
            errors.append(exc)

    thread = threading.Thread(target=save_slowly)
    thread.start()
    try:
        assert slow.paused.wait(10)
        save_store(fast, path)
        assert entries_as_tuples(load_store(path)) == entries_as_tuples(fast)
    finally:
        slow.resume.set()
        thread.join(10)
    assert not thread.is_alive() and errors == []
    assert entries_as_tuples(load_store(path)) == entries_as_tuples(slow)  # the last save wins
    assert [p.name for p in tmp_path.iterdir()] == ["memory.jsonl"]


def test_a_save_that_fails_leaves_the_file_and_no_temp_file(tmp_path):
    path = tmp_path / "memory.jsonl"
    store = MemoryStore()
    insert(store, l1("p.cve-2020-1"))
    save_store(store, path)
    before = path.read_bytes()

    class FailingStore(MemoryStore):
        def tier_entries(self, tier):
            raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        save_store(FailingStore(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["memory.jsonl"]


def test_a_save_that_fails_midway_keeps_the_old_entries_and_counter(tmp_path):
    class FailingAtL3(MemoryStore):
        fail = False

        def tier_entries(self, tier):
            if tier == "L3" and self.fail:
                raise OSError("disk full")
            return super().tier_entries(tier)

    path = tmp_path / "memory.jsonl"
    store = FailingAtL3()
    insert(store, l1("p.cve-2020-1"))
    store.completed_tasks = 3
    save_store(store, path)
    insert(store, l2("p.cve-2020-2", "a runtime fix"))
    store.completed_tasks, store.fail = 4, True
    with pytest.raises(OSError, match="disk full"):  # after the L1 and L2 lines were written
        save_store(store, path)
    loaded = load_store(path)
    assert [e.keys.instance_id for e in loaded.l1] == ["p.cve-2020-1"] and loaded.l2 == []
    assert loaded.completed_tasks == 3
    assert [p.name for p in tmp_path.iterdir()] == ["memory.jsonl"]


def test_save_reads_the_counter_after_the_entries(tmp_path):
    class CompletingDuringSave(MemoryStore):
        def tier_entries(self, tier):
            entries = super().tier_entries(tier)
            if tier == "L3":  # a task completes and retrieves while the save runs
                self.complete_task()
                self.touch(entries)
            return entries

    store = CompletingDuringSave()
    store.add(l3("p.cve-2020-1", "an earlier failure"))
    path = tmp_path / "memory.jsonl"
    save_store(store, path)
    *_, entry, counter = path.read_text().splitlines()
    assert json.loads(entry)["last_retrieved"] == 1
    assert json.loads(counter) == {"completed_tasks": 1}


def test_save_fsyncs_the_temp_file_before_renaming_it(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, Path.replace

    def spy_fsync(fd):
        real_fsync(fd)
        events.append(("fsync", os.fstat(fd).st_ino, os.fstat(fd).st_size))

    def spy_replace(self, target):
        events.append(("replace", self.stat().st_ino, self.stat().st_size))
        return real_replace(self, target)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(Path, "replace", spy_replace)
    store = MemoryStore()
    insert(store, l1("p.cve-2020-1"))
    store.completed_tasks = 2
    path = tmp_path / "memory.jsonl"
    save_store(store, path)
    size = path.stat().st_size
    assert [(name, n) for name, _, n in events] == [("fsync", size), ("replace", size)]
    assert events[0][1] == events[1][1] == path.stat().st_ino  # the file synced is the one renamed


def test_add_keeps_the_fallback_sequence_ahead_of_what_it_adds():
    store, stored = MemoryStore(), l1("p-local-a", desc="added as loaded")
    stored.fallback_seq = 7
    store.add(stored)
    assert insert(store, l1("p-local-b", desc="inserted after it", patch=make_patch("g.c", "y", "z"))) == (
        InsertOutcome.INSERTED
    )
    assert [e.fallback_seq for e in store.l1] == [7, 8]  # as load_store of the same line gives
    older, newer = store.l1
    assert memory.entry_timestamp(older) < memory.entry_timestamp(newer)


def test_identical_lines_keep_their_own_recency(tmp_path):
    path = tmp_path / "memory.jsonl"
    line = json.loads(GOLDEN_MEMORY.splitlines()[1])  # an L2 entry
    lines = [json.dumps({**line, "last_retrieved": 9}, sort_keys=True), json.dumps(line, sort_keys=True)]
    counter = '{"completed_tasks": 10}\n'
    path.write_text("\n".join(lines) + "\n" + counter)
    store = load_store(path)
    copy = tmp_path / "copy.jsonl"
    save_store(store, copy)
    assert copy.read_text() == path.read_text()
    assert prune(store, 5) == 1  # the copy never retrieved, last touched at task 0
    assert [e.last_retrieved for e in store.l2] == [9]
    save_store(store, copy)
    assert copy.read_text() == lines[0] + "\n" + counter


def test_insert_parses_each_appended_id_once(monkeypatch):
    calls = []
    real_parse = memory.parse_timestamp

    def counting_parse(instance_id):
        calls.append(instance_id)
        return real_parse(instance_id)

    monkeypatch.setattr(memory, "parse_timestamp", counting_parse)
    store = MemoryStore()
    ids = ["p.cve-2020-1", "p-local-2", "p.CVE-2021-3"]
    descs = ["alpha null deref in parser", "beta overflow in decoder", "gamma race in cache"]
    for instance_id, desc in zip(ids, descs):
        assert insert(store, l1(instance_id, desc=desc, patch=make_patch("f.c", desc, "x"))) == (
            InsertOutcome.INSERTED
        )
    assert calls == ids
    assert insert(store, l1("p.cve-2022-4", desc=descs[0], patch=make_patch("f.c", descs[0], "x"))) == (
        InsertOutcome.MERGED
    )
    assert calls == ids  # a merge appends nothing and parses nothing
    assert [e.fallback_seq for e in store.l1] == [None, 0, None]


def test_load_rejects_corrupt_file(tmp_path):
    path = tmp_path / "memory.jsonl"
    path.write_text('{"tier": "L9"}\n')
    with pytest.raises(memory.CorruptMemoryFile, match=re.escape(f"{path}:1: unknown tier tag")):
        load_store(path)
    path.write_text("not json at all\n")
    with pytest.raises(memory.CorruptMemoryFile, match=re.escape(f"{path}:1: bad JSON")):
        load_store(path)
    good = json.loads(GOLDEN_MEMORY.splitlines()[0])
    for bad, problem in (
        ([1, 2], "entry record is not an object"),
        ({"project": "p"}, "entry record missing field: 'tier'"),
        ({**good, "fallback_seq": "x"}, "fallback_seq is not an integer"),
        ({**good, "last_retrieved": "5"}, "last_retrieved is not an integer"),
        ({**good, "last_retrieved": 1.5}, "last_retrieved is not an integer"),
        ({**good, "project": 7}, "entry field project is not a string"),
        ({**good, "description": None}, "entry field description is not a string"),
        ({**good, "fix_patch": ["--- a/x"]}, "entry field fix_patch is not a string"),
    ):
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(memory.CorruptMemoryFile, match=re.escape(f"{path}:2: {problem}")):
            load_store(path)


@pytest.mark.parametrize(
    "state",
    ["[1]", "null", '{"completed_tasks": null}', '{"completed_tasks": 2.7}',
     '{"completed_tasks": true}', '{"completed_tasks": "5"}', '{"completed_tasks": 3, "tier": "L1"}'],
)
def test_load_rejects_a_state_file_of_the_wrong_shape(tmp_path, state):
    """As a line of the memory file a counter record of the wrong shape is
    corrupt; as a leftover sidecar of an older version any state is refused."""
    path = tmp_path / "memory.jsonl"
    path.write_text(GOLDEN_MEMORY + state + "\n")
    if "completed_tasks" in state:
        match = re.escape(f"{path}:4: completed_tasks is not an integer")
    else:
        match = re.escape(f"{path}:4: entry record is not an object")
    with pytest.raises(memory.CorruptMemoryFile, match=match):
        load_store(path)
    path.write_text(GOLDEN_MEMORY + '{"completed_tasks": 3}\n')
    assert load_store(path).completed_tasks == 3
    (tmp_path / "memory.jsonl.state.json").write_text(state)
    with pytest.raises(memory.CorruptMemoryFile, match=r"memory\.jsonl\.state\.json: .*older version"):
        load_store(path)


def test_a_leftover_state_file_is_refused_until_its_counter_moves_into_the_memory_file(tmp_path):
    path, sidecar = tmp_path / "memory.jsonl", tmp_path / "memory.jsonl.state.json"
    sidecar.write_text('{"completed_tasks": 6}')
    with pytest.raises(memory.CorruptMemoryFile) as err:  # with or without a memory file
        load_store(path)
    assert str(sidecar) in str(err.value)
    path.write_text(GOLDEN_MEMORY)
    with pytest.raises(memory.CorruptMemoryFile) as err:
        load_store(path)
    message = str(err.value)
    assert str(sidecar) in message and str(path) in message
    assert '{"completed_tasks": N}' in message and "delete" in message
    assert sidecar.read_text() == '{"completed_tasks": 6}'  # refused, not read or removed
    with path.open("a") as fh:  # the fix the message gives
        fh.write('{"completed_tasks": 6}\n')
    sidecar.unlink()
    assert load_store(path).completed_tasks == 6


# One entry per tier: a fallback_seq, two last_retrieved stamps and an escaped
# non-ASCII character. GOLDEN_COUNTER is the task counter's last line.
GOLDEN_MEMORY = r'''{"cwe": "CWE-787", "description": "heap overflow copying the frame \u2013 past cap", "fix_patch": "--- a/src/io.c\n+++ b/src/io.c\n@@ -3,1 +3,1 @@\n-  memcpy(dst, src, n);\n+  memcpy(dst, src, min(n, cap));\n", "instance_id": "libio.cve-2021-3141", "language": "c", "last_retrieved": 5, "project": "libio", "tier": "L1"}
{"cwe": "CWE-787", "description": "overflow found by the fuzzer", "fallback_seq": 4, "fix_patch": "--- a/src/io.c\n+++ b/src/io.c\n@@ -3,1 +3,1 @@\n-  memcpy(dst, src, n);\n+  if (n > cap) return -1;\n", "instance_id": "libio-local-7", "language": "c", "project": "libio", "rationale": "bound the copy by the capacity", "tier": "L2"}
{"correction_delta": "--- a/src/io.c\n+++ b/src/io.c\n@@ -3,1 +3,1 @@\n-  memcpy(dst, src, n);\n+  if (n > cap) return -1;\n", "cwe": "CWE-UNKNOWN", "description": "frame copy overflow", "fail_patch": "--- a/src/io.c\n+++ b/src/io.c\n@@ -3,1 +3,1 @@\n-  memcpy(dst, src, n);\n+  memcpy(dst, src, min(n, cap));\n", "instance_id": "libio.CVE-2022-18", "language": "c", "last_retrieved": 2, "project": "libio", "tier": "L3", "transition_insight": "return early instead of clamping"}
'''
GOLDEN_COUNTER = '{"completed_tasks": 6}\n'


def test_memory_file_format_round_trips_byte_for_byte(tmp_path):
    golden = tmp_path / "golden" / "memory.jsonl"
    golden.parent.mkdir()
    golden.write_bytes((GOLDEN_MEMORY + GOLDEN_COUNTER).encode("utf-8"))
    store = load_store(golden)
    assert [len(store.tier_entries(tier)) for tier in memory.TIERS] == [1, 1, 1]
    assert store.l2[0].fallback_seq == 4 and store.completed_tasks == 6
    out = tmp_path / "memory.jsonl"
    save_store(store, out)
    assert out.read_bytes() == golden.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["golden", "memory.jsonl"]
    store.completed_tasks = 0  # no counter line at task 0: the bytes of a store without one
    save_store(store, out)
    assert out.read_bytes() == GOLDEN_MEMORY.encode("utf-8")


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["L1", "L2", "L3"]),
            st.integers(min_value=1, max_value=99999),
            st.text(alphabet="abcdefghij ", min_size=1, max_size=40),
        ),
        max_size=8,
    )
)
def test_round_trip_property(tmp_path_factory, rows):
    store = MemoryStore()
    for i, (tier, seq, desc) in enumerate(rows):
        instance_id = f"p.cve-2020-{seq}"
        if tier == "L1":
            entry = L1Entry(keys=keys(instance_id, desc=desc or "d"),
                            fix_patch=make_patch("f.c", f"u{i}", "v"))
        elif tier == "L2":
            entry = L2Entry(keys=keys(instance_id, desc=desc or "d"),
                            fix_patch=make_patch("f.c", f"u{i}", "v"), rationale="r")
        else:
            entry = L3Entry(keys=keys(instance_id, desc=desc or "d"),
                            fail_patch=make_patch("f.c", f"w{i}", "x"),
                            correction_delta=make_patch("f.c", f"y{i}", "z"),
                            transition_insight="t")
        insert(store, entry)
    path = tmp_path_factory.mktemp("roundtrip") / "memory.jsonl"
    save_store(store, path)
    loaded = load_store(path)
    assert entries_as_tuples(loaded) == entries_as_tuples(store)


# ---------------------------------------------------------------------------
# consolidate_success
# ---------------------------------------------------------------------------

import difflib  # noqa: E402
import subprocess  # noqa: E402

from conftest import init_repo  # noqa: E402
from patchloop.memory import consolidate_success  # noqa: E402
from patchloop.oracle import VerificationVerdict  # noqa: E402
from patchloop.agent import Attempt  # noqa: E402
from patchloop.workspace import Workspace  # noqa: E402

PATH = "app/buffer.py"
PRISTINE = "def safe_copy(buf, src, length):\n    i = 0\n    return buf\n"
GOOD = (
    "def safe_copy(buf, src, length):\n    if length > buf.capacity:\n"
    "        raise ValueError('too big')\n    i = 0\n    return buf\n"
)
BAD = (
    "def safe_copy(buf, src, length):\n    if length > buf.capacity * 8:\n"
    "        raise ValueError('too big')\n    i = 0\n    return buf\n"
)
# Stand-in for git trees: a tree name maps to the content of PATH.
TREES = {"pristine": PRISTINE, "good": GOOD, "bad": BAD}


def diff_trees(old_tree: str, new_tree: str) -> str:
    return "".join(difflib.unified_diff(
        TREES[old_tree].splitlines(keepends=True),
        TREES[new_tree].splitlines(keepends=True),
        fromfile=f"a/{PATH}",
        tofile=f"b/{PATH}",
    ))


GOOD_PATCH = diff_trees("pristine", "good")
BAD_PATCH = diff_trees("pristine", "bad")

OK = VerificationVerdict(True, True, True, "clean")
NOT_FIXED = VerificationVerdict(False, True, True, "still crashes")


def good() -> Attempt:
    return Attempt(GOOD_PATCH, OK, "good")


def bad(verdict: VerificationVerdict = NOT_FIXED) -> Attempt:
    return Attempt(BAD_PATCH, verdict, "bad")


TASK_KEYS = keys("p.cve-2024-77", desc="overflow in copy helper")


def test_consolidate_first_try_success_writes_l2_only():
    store = MemoryStore()
    l2_entry, l3_entry = consolidate_success(store, TASK_KEYS, good(), None, diff_trees)
    assert l3_entry is None
    assert store.l2 == [l2_entry]
    assert store.l3 == []
    assert l2_entry.fix_patch == GOOD_PATCH
    assert l2_entry.rationale


def test_consolidate_fail_then_success_writes_l2_and_l3():
    store = MemoryStore()
    l2_entry, l3_entry = consolidate_success(store, TASK_KEYS, good(), bad(), diff_trees)
    assert l3_entry is not None
    assert l3_entry.fail_patch == BAD_PATCH
    assert l3_entry.correction_delta == diff_trees("bad", "good")
    assert l3_entry.correction_delta != l3_entry.fail_patch
    assert "replaced" in l3_entry.transition_insight
    assert store.l3 == [l3_entry]


def test_consolidated_delta_turns_failed_checkout_into_accepted(tmp_path):
    repo = init_repo(tmp_path / "repo", {PATH: PRISTINE})
    target = repo / PATH
    ws = Workspace(repo)
    try:
        pristine = ws.snapshot()
        attempts = []
        for text, verdict in ((BAD, NOT_FIXED), (GOOD, OK)):
            target.write_text(text)
            tree, patch = ws.submit(pristine)
            attempts.append(Attempt(patch, verdict, tree))
            ws.rollback(pristine)
        _, l3_entry = consolidate_success(MemoryStore(), TASK_KEYS, attempts[1], attempts[0], ws.diff)
    finally:
        ws.close()
    assert l3_entry.fail_patch == attempts[0].patch
    # reference: git itself applies the delta to the failed candidate's checkout
    target.write_text(BAD)
    proc = subprocess.run(
        ["git", "apply", "-"], cwd=repo, input=l3_entry.correction_delta,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert target.read_text() == GOOD


def test_consolidate_emits_l3_exactly_when_failures_precede_success():
    cases = [(good(), None, False), (good(), bad(), True)]
    # a flaky oracle: the same tree fails, then passes; nothing was corrected
    cases.append((bad(OK), bad(), False))
    for accepted, failed, want_l3 in cases:
        store = MemoryStore()
        _, l3_entry = consolidate_success(store, TASK_KEYS, accepted, failed, diff_trees)
        assert (l3_entry is not None) == want_l3
        assert len(store.l2) == 1 and len(store.l3) == int(want_l3)


@settings(max_examples=60, deadline=None)
@given(
    year=st.integers(min_value=1990, max_value=2099),
    seq=st.integers(min_value=0, max_value=9_999_999),
    prefix=st.text(alphabet="abcxyz.", max_size=8),
)
def test_parse_timestamp_roundtrip_property(year, seq, prefix):
    assert parse_timestamp(f"{prefix}cve-{year}-{seq}") == CveTimestamp(year, seq)


@settings(max_examples=40, deadline=None)
@given(
    years=st.lists(
        st.tuples(st.integers(2000, 2030), st.integers(0, 99999)), min_size=2, max_size=10
    )
)
def test_parse_timestamp_order_matches_chronology_property(years):
    ids = [f"p.cve-{y}-{s}" for y, s in years]
    stamps = [parse_timestamp(i) for i in ids]
    chronological = sorted(range(len(years)), key=lambda i: years[i])
    by_parser = sorted(range(len(years)), key=lambda i: stamps[i])
    assert [years[i] for i in chronological] == [years[i] for i in by_parser]
