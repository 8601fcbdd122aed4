"""Ranked retrieval over the memory store.

Candidate pools are built in two priority tiers: P1 draws from the same
project (same CWE and language, and strictly older than the query), and P2
widens to other projects (same CWE and language) only when P1 is sparse.
Candidates are scored by embedding cosine similarity on descriptions, with
a lexical token-overlap fallback when the embedding backend is down.

A retrieval costs what its pools hold. The store picks the candidates
under its writer lock (:meth:`MemoryStore.candidates`): the tier index
keeps each ``(cwe, language)`` bucket's rows by project, so P1 is filtered
from the query project's rows alone, and the other projects' rows are read
only when P2 joins. The candidates are one list, P1's first and then, when
P2 joins, P2's in store order; the count of P1's tells the two apart. The
list is scored with one mat-vec, only its rows are embedded, and each
row's tie-break is built once, when the index adds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .embedding import (
    cosine,  # noqa: F401 - unused here, but bench/layers.py wraps this attribute
    jaccard_similarity,
)
from .errors import EmbeddingUnavailable, InvariantViolation
from .memory import L3Entry, MemoryEntry, MemoryStore, RetrievalKeys, field_text

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
    index, picked, n_p1 = store.candidates(tier, query.keys, query.k_min)
    query_text = query_text_override if query_text_override is not None else query.keys.description
    field = "fail_patch" if query_text_override is not None and tier == L3Entry.tier else "description"
    sims: list[float] = []
    try:
        if picked:
            rows = [tie[-1] for tie, _ in picked]
            sims = store.cosines(index, field, store.embedder.embed(query_text), rows)
    except EmbeddingUnavailable:
        sims = [jaccard_similarity(query_text, field_text(field, entry)) for _, entry in picked]
    # P1 first, then higher similarity, then the row's tie-break: the newer
    # timestamp, then the instance id, then the row number, which keeps full
    # ties in store order and leaves the entries uncompared.
    scored = sorted(
        (Priority.P1 if i < n_p1 else Priority.P2, -sim, tie, entry)
        for i, ((tie, entry), sim) in enumerate(zip(picked, sims))
    )
    return [
        RankedEntry(entry, -neg_sim, priority)
        for priority, neg_sim, _, entry in scored[: query.top_n]
    ]
