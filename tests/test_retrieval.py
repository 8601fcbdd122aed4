from __future__ import annotations

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchloop.embedding import (
    TOKEN_MEMO_SIZE,
    CachingEmbedder,
    DeterministicEmbedder,
    _token_slot,
    cosine,
    default_embedder,
    jaccard_similarity,
    tokenize,
)
from patchloop.errors import EmbeddingUnavailable, InvariantViolation
from patchloop.memory import (
    L1Entry,
    L3Entry,
    MemoryStore,
    RetrievalKeys,
    entry_timestamp,
    insert,
    parse_timestamp,
    query_timestamp,
)
from patchloop.retrieval import Priority, Query, retrieve

# ---------------------------------------------------------------------------
# embedder
# ---------------------------------------------------------------------------


def test_embed_is_deterministic():
    emb = DeterministicEmbedder()
    text = "heap buffer overflow in demuxer"
    assert np.array_equal(emb.embed(text), emb.embed(text))


def test_self_similarity_is_one():
    emb = DeterministicEmbedder()
    vec = emb.embed("integer overflow wraps allocation size")
    assert cosine(vec, vec) == pytest.approx(1.0, abs=1e-9)


def test_zero_vector_similarity_is_zero():
    emb = DeterministicEmbedder()
    assert cosine(emb.embed("!!!"), emb.embed("words here")) == 0.0


FIXTURE_STRINGS = [
    "heap buffer overflow in the mp3 demuxer",
    "use after free when the session closes",
    "null pointer dereference in header parse",
    "integer overflow wraps the allocation size",
    "stack smashing in the recursive descent parser",
    "double free of the reassembly buffer",
    "off by one in the bounds check",
    "format string passed unchecked to printf",
    "race between flush and close on shutdown",
    "type confusion in the tagged union decoder",
]


def reference_embed(text: str, dim: int = 64) -> list[float]:
    """Independent re-implementation of the hashing scheme."""
    vec = [0.0] * dim
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "big") % dim
        vec[bucket] += 1.0 if digest[4] % 2 == 0 else -1.0
    return vec


def same_bits(got: np.ndarray, want: list[float]) -> bool:
    """Equal as stored: dtype, length and every bit, the sign of a zero too."""
    return got.dtype == np.float64 and got.tobytes() == np.array(want).tobytes()


def test_embedder_matches_reference_implementation():
    emb = DeterministicEmbedder()
    for text in FIXTURE_STRINGS:
        assert same_bits(emb.embed(text), reference_embed(text))


def test_a_bucket_whose_signs_cancel_holds_positive_zero():
    slots = {}
    for i in range(1000):
        digest = hashlib.sha256(f"t{i}".encode()).digest()
        slot = (int.from_bytes(digest[:4], "big") % 64, digest[4] % 2)
        if (slot[0], 1 - slot[1]) in slots:
            pair, bucket = [slots[(slot[0], 1 - slot[1])], f"t{i}"], slot[0]
            break
        slots[slot] = f"t{i}"
    text = " ".join(pair)
    vec = DeterministicEmbedder().embed(text)
    assert vec[bucket] == 0.0 and not np.signbit(vec[bucket])
    assert same_bits(vec, reference_embed(text))


@pytest.mark.parametrize("text", ["", "!!! ... --- ???"])
def test_a_text_without_tokens_embeds_as_64_positive_zeros(text):
    assert same_bits(DeterministicEmbedder().embed(text), [0.0] * 64)


def test_a_text_with_more_distinct_tokens_than_the_memo_holds():
    text = " ".join(f"w{i}" for i in range(TOKEN_MEMO_SIZE + 100)) + " w0 w1"
    _token_slot.cache_clear()
    assert same_bits(DeterministicEmbedder().embed(text), reference_embed(text))


_TOKENS = st.sampled_from(["heap", "overflow", "CWE", "787", "x1", "ÄßΩ", "İ", "名前", "", " ", "\n", "-"])


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), st.lists(_TOKENS, max_size=30).map(" ".join)))
def test_embedder_matches_reference_for_any_text(text):
    want = reference_embed(text)
    assert same_bits(DeterministicEmbedder().embed(text), want)
    assert same_bits(DeterministicEmbedder().embed(text), want)  # every slot memoized
    _token_slot.cache_clear()
    assert same_bits(DeterministicEmbedder().embed(text), want)


# Characters whose lowercase is ASCII (the Kelvin sign, dotted capital I),
# other non-ASCII letters and digits, Unicode line breaks and a lone surrogate.
_ODD_CHARS = st.sampled_from(["\u212a", "\u0130", "\u1e9e", "\u00df", "\uff21", "\u0663",
                              "\x85", "\u2028", "\x1c", "\ud800", "?", "_", "Z", "9"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.characters(), _ODD_CHARS), max_size=40).map("".join))
def test_tokenize_finds_the_runs_of_lowercase_ascii_letters_and_digits(text):
    assert tokenize(text) == re.findall(r"[a-z0-9]+", text.lower())


def test_token_memo_is_bounded():
    assert _token_slot.cache_info().maxsize == TOKEN_MEMO_SIZE
    _token_slot.cache_clear()
    DeterministicEmbedder().embed(" ".join(f"t{i}" for i in range(TOKEN_MEMO_SIZE + 10)))
    assert _token_slot.cache_info().currsize == TOKEN_MEMO_SIZE


def test_caching_embedder_caches_by_content():
    emb = CachingEmbedder(DeterministicEmbedder())
    a = emb.embed("one two three")
    b = emb.embed("one two three")
    assert a is b
    emb.embed("four")
    assert len(emb) == 2


class FailingEmbedder:
    dim = 64

    def embed(self, text):
        raise EmbeddingUnavailable("backend down")


def test_jaccard_values():
    assert jaccard_similarity("a b c", "a b c") == 1.0
    assert jaccard_similarity("a b", "c d") == 0.0
    assert jaccard_similarity("", "") == 0.0
    assert jaccard_similarity("a b c d", "a b") == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# retrieve
# ---------------------------------------------------------------------------


def make_patch(tag: str) -> str:
    return f"--- a/f.c\n+++ b/f.c\n@@ -1,1 +1,1 @@\n-{tag}\n+{tag}_fixed\n"


def entry(
    instance_id: str,
    project: str = "proj",
    cwe: str = "CWE-787",
    language: str = "c",
    desc: str = "overflow",
) -> L1Entry:
    return L1Entry(
        keys=RetrievalKeys(project, cwe, language, instance_id, desc),
        fix_patch=make_patch(instance_id.replace(".", "_").replace("-", "_")),
    )


QUERY_KEYS = RetrievalKeys(
    project="proj",
    cwe="CWE-787",
    language="c",
    instance_id="proj.cve-2023-500",
    description="overflow when copying attacker controlled payload",
)


def test_query_validation():
    with pytest.raises(InvariantViolation):
        Query(QUERY_KEYS, k_min=0).validate()
    with pytest.raises(InvariantViolation):
        Query(QUERY_KEYS, k_min=3, top_n=2).validate()


def test_empty_store_returns_empty():
    assert retrieve(MemoryStore(), "L1", Query(QUERY_KEYS)) == []


def test_p2_added_when_p1_sparse_and_p1_sorts_first():
    store = MemoryStore()
    insert(store, entry("proj.cve-2020-1"))  # P1: same project, older
    insert(store, entry("other.cve-2024-9", project="other"))  # P2: other project
    result = retrieve(store, "L1", Query(QUERY_KEYS, k_min=2))
    assert [r.priority_tier for r in result] == [Priority.P1, Priority.P2]
    assert result[0].entry.keys.project == "proj"


def test_p2_not_added_when_p1_satisfies_k_min():
    store = MemoryStore()
    insert(store, entry("proj.cve-2020-1", desc="overflow in copy path one"))
    insert(store, entry("proj.cve-2020-2", desc="overflow in copy path two"))
    insert(store, entry("other.cve-2020-3", project="other"))
    result = retrieve(store, "L1", Query(QUERY_KEYS, k_min=2))
    assert all(r.priority_tier == Priority.P1 for r in result)


def test_query_instance_id_always_excluded():
    store = MemoryStore()
    # same instance id as the query, once per pool: both must be excluded
    insert(store, entry("proj.cve-2023-500", desc="same id in project pool"))
    insert(store, entry("proj.cve-2023-500", project="other", desc="same id cross project"))
    result = retrieve(store, "L1", Query(QUERY_KEYS))
    assert result == []


def test_temporal_filter_applies_to_p1_only():
    store = MemoryStore()
    insert(store, entry("proj.cve-2024-1"))  # same project but newer: excluded
    insert(store, entry("other.cve-2024-2", project="other"))  # newer but P2: kept
    result = retrieve(store, "L1", Query(QUERY_KEYS, k_min=2))
    ids = [r.entry.keys.instance_id for r in result]
    assert ids == ["other.cve-2024-2"]


def test_language_and_cwe_must_match_in_both_pools():
    store = MemoryStore()
    insert(store, entry("proj.cve-2020-1", language="go"))
    insert(store, entry("proj.cve-2020-2", cwe="CWE-416"))
    insert(store, entry("other.cve-2020-3", project="other", language="go"))
    insert(store, entry("other.cve-2020-4", project="other", cwe="CWE-416"))
    assert retrieve(store, "L1", Query(QUERY_KEYS)) == []


def test_l3_refinement_scores_against_failed_patches():
    store = MemoryStore()
    near_fail = "--- a/f.c\n+++ b/f.c\n@@ -1,1 +1,1 @@\n-guard length only at allocation\n+site\n"
    far_fail = "--- a/g.c\n+++ b/g.c\n@@ -1,1 +1,1 @@\n-completely unrelated tokens entirely\n+zz\n"
    for iid, fail in [("a.cve-2020-1", near_fail), ("b.cve-2020-2", far_fail)]:
        insert(
            store,
            L3Entry(
                keys=RetrievalKeys("other", "CWE-787", "c", iid, f"desc {iid}"),
                fail_patch=fail,
                correction_delta=make_patch("fix_" + iid.replace(".", "_").replace("-", "_")),
                transition_insight="check after realloc",
            ),
        )
    override = "--- a/f.c\n+++ b/f.c\n@@ -1,1 +1,1 @@\n-guard length only at allocation\n+x\n"
    result = retrieve(store, "L3", Query(QUERY_KEYS), query_text_override=override)
    assert result[0].entry.keys.instance_id == "a.cve-2020-1"
    assert result[0].similarity > result[1].similarity


def test_embedding_outage_degrades_to_token_overlap():
    store = MemoryStore(embedder=FailingEmbedder())
    # Added as they are: insert would need the embedder for its dedup check.
    store.add(entry("proj.cve-2020-1", desc="overflow copying attacker payload"))
    store.add(entry("proj.cve-2020-2", desc="unrelated words entirely different"))
    result = retrieve(store, "L1", Query(QUERY_KEYS))
    assert [r.entry.keys.instance_id for r in result] == ["proj.cve-2020-1", "proj.cve-2020-2"]
    assert result[0].similarity > result[1].similarity


class ScaledEmbedder:
    def __init__(self, factor: float) -> None:
        self.inner = DeterministicEmbedder()
        self.dim = self.inner.dim
        self.factor = factor

    def embed(self, text):
        return self.inner.embed(text) * self.factor


def test_ranking_invariant_under_uniform_positive_scaling():
    store, scaled_store = MemoryStore(), MemoryStore(embedder=ScaledEmbedder(7.25))
    for i, desc in enumerate(
        [
            "overflow copying payload into packet buffer",
            "overflow in the length check of the copier",
            "heap corruption from unchecked memcpy call",
            "attacker controlled size reaches allocation",
        ]
    ):
        insert(store, entry(f"proj.cve-2019-{i + 1}", desc=desc))
        insert(scaled_store, entry(f"proj.cve-2019-{i + 1}", desc=desc))
    baseline = retrieve(store, "L1", Query(QUERY_KEYS))
    scaled = retrieve(scaled_store, "L1", Query(QUERY_KEYS))
    assert [r.entry.keys.instance_id for r in baseline] == [
        r.entry.keys.instance_id for r in scaled
    ]


# ---------------------------------------------------------------------------
# full ranking vs a brute-force reference (8 synthetic entries)
# ---------------------------------------------------------------------------


def brute_force_reference(store, tier, query, override=None):
    """Independent filter -> score -> sort -> truncate pipeline."""
    q = query.keys
    q_ts = query_timestamp(q)

    def ts(e):
        return entry_timestamp(e)

    candidates = [
        e
        for e in store.tier_entries(tier)
        if e.keys.instance_id != q.instance_id
        and e.keys.cwe == q.cwe
        and e.keys.language == q.language
    ]
    p1 = [e for e in candidates if e.keys.project == q.project and ts(e) < q_ts]
    p2 = [e for e in candidates if e.keys.project != q.project]
    pool = [(1, e) for e in p1]
    if len(p1) < query.k_min:
        pool += [(2, e) for e in p2]

    def text(e):
        if override is not None and isinstance(e, L3Entry):
            return e.fail_patch
        return e.keys.description

    qv = reference_embed(override if override is not None else q.description)

    def sim(e):
        ev = reference_embed(text(e))
        dot = sum(x * y for x, y in zip(qv, ev))
        na = math.sqrt(sum(x * x for x in qv))
        nb = math.sqrt(sum(x * x for x in ev))
        return 0.0 if na == 0 or nb == 0 else min(1.0, max(-1.0, dot / (na * nb)))

    ranked = sorted(
        ((p, sim(e), e) for p, e in pool),
        key=lambda t: (
            t[0],
            -t[1],
            tuple(-x for x in ts(t[2])),
            t[2].keys.instance_id,
        ),
    )
    return [(e.keys.instance_id, p, s) for p, s, e in ranked[: query.top_n]]


def ids_pools_sims(ranked) -> list[tuple[str, int, float]]:
    return [(r.entry.keys.instance_id, int(r.priority_tier), r.similarity) for r in ranked]


def test_full_ranking_matches_brute_force():
    store = MemoryStore()
    rows = [
        ("proj.cve-2019-10", "proj", "overflow copying payload"),
        ("proj.cve-2021-4", "proj", "overflow when parsing attacker packet"),
        ("proj.cve-2024-8", "proj", "future entry must be excluded"),
        ("alpha.cve-2018-3", "alpha", "overflow copying attacker controlled data"),
        ("beta.cve-2025-1", "beta", "overflow with controlled payload length"),
        ("gamma.noncve-id", "gamma", "entry without any timestamp segment"),
        ("delta.cve-2020-7", "delta", "completely unrelated description text"),
        ("proj.cve-2016-2", "proj", "ancient overflow in the same project"),
    ]
    for iid, proj, desc in rows:
        insert(store, entry(iid, project=proj, desc=desc))
    for k_min, top_n in [(1, 4), (2, 4), (3, 8), (2, 2)]:
        query = Query(QUERY_KEYS, k_min=k_min, top_n=top_n)
        got = ids_pools_sims(retrieve(store, "L1", query))
        assert got == brute_force_reference(store, "L1", query), (k_min, top_n)


def test_similarity_is_description_cosine():
    store = MemoryStore()
    insert(store, entry("proj.cve-2020-1", desc="overflow copying attacker controlled payload x"))
    result = retrieve(store, "L1", Query(QUERY_KEYS))
    emb = default_embedder()
    expected = cosine(
        emb.embed(QUERY_KEYS.description),
        emb.embed("overflow copying attacker controlled payload x"),
    )
    assert result[0].similarity == pytest.approx(expected, abs=1e-12)


_WORD = st.sampled_from(
    "overflow heap copy length buffer payload parser frame tag size write".split()
)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["proj", "other", "third"]),
            st.integers(min_value=2015, max_value=2026),
            st.integers(min_value=1, max_value=9999),
            st.lists(_WORD, min_size=2, max_size=8),
        ),
        max_size=10,
    ),
    k_min=st.integers(min_value=1, max_value=3),
)
def test_retrieval_invariants_property(rows, k_min):
    store = MemoryStore()
    for i, (proj, year, seq, words) in enumerate(rows):
        store.add(
            entry(f"{proj}.cve-{year}-{seq}.{i}", project=proj, desc=" ".join(words))
        )
    query = Query(QUERY_KEYS, k_min=k_min, top_n=6)
    result = retrieve(store, "L1", query)
    assert len(result) <= query.top_n
    # leakage exclusion holds for any store
    assert all(r.entry.keys.instance_id != QUERY_KEYS.instance_id for r in result)
    # every P1 entry precedes every P2 entry
    tiers = [int(r.priority_tier) for r in result]
    assert tiers == sorted(tiers)
    # temporal safety: P1 strictly predates the query
    q_ts = query_timestamp(QUERY_KEYS)
    for r in result:
        if r.priority_tier == Priority.P1:
            assert entry_timestamp(r.entry) < q_ts
    # P2 activation is exactly |filtered P1| < k_min
    p1_count = sum(
        1
        for e in store.l1
        if e.keys.project == QUERY_KEYS.project
        and e.keys.cwe == QUERY_KEYS.cwe
        and e.keys.language == QUERY_KEYS.language
        and e.keys.instance_id != QUERY_KEYS.instance_id
        and entry_timestamp(e) < q_ts
    )
    has_p2 = any(r.priority_tier == Priority.P2 for r in result)
    if has_p2:
        assert p1_count < k_min


# ---------------------------------------------------------------------------
# retrieve against the brute-force reference on random stores
# ---------------------------------------------------------------------------

_PROJECTS = ["proj", "alpha", "beta", "gamma"]
# One id in two projects; ids without a CVE segment take fallback stamps.
_IDS = st.one_of(
    st.builds("{}.cve-{}-{}".format, st.sampled_from(_PROJECTS), st.integers(2019, 2024),
              st.integers(1, 9)),
    st.builds("{}-local-{}".format, st.sampled_from(_PROJECTS), st.integers(1, 4)),
    st.just("shared.cve-2021-77"),
)
_DESC = st.lists(_WORD, min_size=0, max_size=6).map(" ".join)
_ROW = st.tuples(
    st.sampled_from(["L1", "L3"]), st.sampled_from(_PROJECTS), st.sampled_from(["CWE-787", "CWE-416"]),
    st.sampled_from(["c", "go"]), _IDS, st.one_of(st.none(), st.integers(0, 5)), _DESC, _DESC,
)


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(_ROW, max_size=30),
    query_keys=st.tuples(st.sampled_from(_PROJECTS), st.sampled_from(["CWE-787", "CWE-416"]),
                         st.sampled_from(["c", "go"]), _IDS, _DESC),
    override=_DESC.map(make_patch),
)
def test_retrieval_matches_brute_force_on_random_stores(rows, query_keys, override):
    store = MemoryStore()
    for tier, project, cwe, language, iid, seq, desc, fail in rows:
        if iid == "shared.cve-2021-77":
            project = project if project in ("alpha", "beta") else "alpha"
        keys = RetrievalKeys(project, cwe, language, iid, desc)
        fallback = seq if parse_timestamp(iid) is None else None
        if tier == "L1":
            store.add(L1Entry(keys=keys, fix_patch=make_patch(desc), fallback_seq=fallback))
        else:
            store.add(L3Entry(keys=keys, fail_patch=make_patch(fail), correction_delta=make_patch("d"),
                              transition_insight="t", fallback_seq=fallback))
    keys = RetrievalKeys(*query_keys)
    for k_min in range(1, 6):
        for top_n in range(k_min, 7):
            query = Query(keys, k_min=k_min, top_n=top_n)
            assert ids_pools_sims(retrieve(store, "L1", query)) == brute_force_reference(
                store, "L1", query
            ), (k_min, top_n)
            assert ids_pools_sims(retrieve(store, "L3", query, override)) == brute_force_reference(
                store, "L3", query, override
            ), (k_min, top_n)
