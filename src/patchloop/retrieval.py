"""Ranked retrieval over the memory store.

Candidate pools are built in two priority tiers: P1 draws from the same
project (same CWE and language, and strictly older than the query), and P2
widens to other projects (same CWE and language) only when P1 is sparse.
Candidates are scored by embedding cosine similarity on descriptions, with
a lexical token-overlap fallback when the embedding backend is down. Only
the query's ``(cwe, language)`` bucket of the tier index is filtered, and
each pool is scored with one mat-vec; only the pools' rows are embedded.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .embedding import (
    cosine,  # noqa: F401 - unused here, but bench/layers.py wraps this attribute
    jaccard_similarity,
)
from .errors import EmbeddingUnavailable, InvariantViolation
from .memory import (
    MemoryEntry,
    MemoryStore,
    RetrievalKeys,
    field_text,
    query_timestamp,
)

DEFAULT_K_MIN = 2
DEFAULT_TOP_N = 4


class Priority(IntEnum):
    P1 = 1
    P2 = 2


@dataclass(frozen=True)
class Query:
    keys: RetrievalKeys
    k_min: int = DEFAULT_K_MIN
    top_n: int = DEFAULT_TOP_N

    def validate(self) -> None:
        if self.k_min < 1:
            raise InvariantViolation("k_min must be >= 1")
        if self.top_n < self.k_min:
            raise InvariantViolation("top_n must be >= k_min")


@dataclass
class RankedEntry:
    entry: MemoryEntry
    similarity: float
    priority_tier: Priority


def retrieve(
    store: MemoryStore,
    tier: str,
    query: Query,
    query_text_override: str | None = None,
) -> list[RankedEntry]:
    """Rank one tier's entries for a query.

    Filters: candidates sharing the query's instance id are always
    excluded; P1 additionally requires a strictly older timestamp than the
    query. P2 is added exactly when the filtered P1 pool has fewer than
    ``k_min`` members. Results are ordered by (priority, similarity desc),
    with ties broken by newer timestamp first, then instance id, and the
    list is truncated to ``top_n``.

    ``query_text_override`` carries the failed-patch text during refinement
    retrieval; L3 candidates are then scored against their stored failed
    patches instead of their descriptions.
    """
    query.validate()
    q = query.keys
    q_ts = query_timestamp(q)

    index, bucket = store.bucket(tier, q.cwe, q.language)
    entries, stamps = index.entries, index.stamps
    p1: list[int] = []
    p2: list[int] = []
    for row in bucket:
        keys = entries[row].keys
        if keys.instance_id == q.instance_id:
            continue
        if keys.project == q.project:
            if stamps[row] < q_ts:
                p1.append(row)
        else:
            p2.append(row)

    pools = [(Priority.P1, p1)]
    if len(p1) < query.k_min:
        pools.append((Priority.P2, p2))

    query_text = query_text_override if query_text_override is not None else q.description
    field = "description" if query_text_override is None else "fail_patch"
    pool_rows = [rows for _, rows in pools]
    sims: list[list[float]] = [[] for _ in pools]
    try:
        if any(pool_rows):
            sims = store.cosines(index, field, store.embedder.embed(query_text), pool_rows)
    except EmbeddingUnavailable:
        sims = [
            [jaccard_similarity(query_text, field_text(field, entries[row])) for row in rows]
            for rows in pool_rows
        ]
    # Higher similarity first, then the newer timestamp, then the instance
    # id; the row number last keeps full ties in store order.
    scored = sorted(
        (priority, -sim, *(-t for t in stamps[row]), entries[row].keys.instance_id, row)
        for (priority, rows), pool_sims in zip(pools, sims)
        for row, sim in zip(rows, pool_sims)
    )
    return [
        RankedEntry(entries[row], -neg_sim, priority)
        for priority, neg_sim, *_, row in scored[: query.top_n]
    ]
