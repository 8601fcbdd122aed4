"""Text embedding backends, a bounded content-hash cache, and row-wise cosine.

Two backends share one interface: a deterministic local embedder used for
tests and offline runs (signed feature hashing over word tokens), and a
remote embedder speaking the common ``/embeddings`` JSON protocol. Both are
normally wrapped in :class:`CachingEmbedder`. Stored entries keep their
vectors in the memory store's tier indexes (:class:`VectorRows`), so the
cache mostly serves texts a session repeats, such as its queries.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import urllib.error
import urllib.request
from collections import OrderedDict

import numpy as np

from .errors import EmbeddingUnavailable

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Texts a CachingEmbedder keeps, least recently used evicted first.
CACHE_SIZE = 256

DEFAULT_REMOTE_TIMEOUT = 30.0  # seconds a RemoteEmbedder waits for a reply


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, 0.0 when either vector is all zeros."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def cosine_rows(rows: np.ndarray, norms: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """``cosine(vec, row)`` for every row, given each row's ``np.linalg.norm``.

    The float operations are those of :func:`cosine`: ``dot / (|vec| * |row|)``,
    clipped, and 0.0 where either norm is zero. Rows are not normalised in
    advance, because ``(a/|a|)·(b/|b|)`` can differ from that in the last bit.
    For integer-valued vectors (the deterministic embedder's) every dot
    product is exact, so the result equals :func:`cosine` bit for bit; for
    real-valued vectors (a remote embedder's) the mat-vec may sum in another
    order than ``np.dot`` and differ from it in the last bit.
    """
    out = np.zeros(len(norms))
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        return out
    np.divide(rows @ vec, norm * norms, out=out, where=norms != 0.0)
    return np.clip(out, -1.0, 1.0, out=out)


class VectorRows:
    """Raw vectors stored by row number, with each one's norm.

    Rows are stored in any order, each once, and ``stored`` marks which
    hold a vector. Capacity doubles when a row lies beyond it, and only the
    old rows are copied.
    """

    __slots__ = ("vectors", "norms", "stored")

    def __init__(self) -> None:
        self.vectors: np.ndarray | None = None
        self.norms = np.empty(0)
        self.stored = np.zeros(0, dtype=bool)

    def missing(self, rows) -> list[int]:
        """The given rows that hold no vector yet, in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        held = rows < len(self.stored)
        held[held] = self.stored[rows[held]]
        return rows[~held].tolist()

    def put(self, rows, vecs: list[np.ndarray]) -> None:
        """Store each vector at its row; a row already stored keeps its own."""
        for row, vec in zip(rows, vecs):
            if row >= len(self.stored):
                self._grow(row + 1, len(vec))
            if not self.stored[row]:
                self.vectors[row] = vec
                self.norms[row] = np.linalg.norm(vec)
                self.stored[row] = True

    def _grow(self, size: int, dim: int) -> None:
        old = len(self.stored)
        capacity = max(8, 2 * old, size)
        vectors, norms = np.empty((capacity, dim)), np.empty(capacity)
        stored = np.zeros(capacity, dtype=bool)
        if old:
            vectors[:old], norms[:old], stored[:old] = self.vectors, self.norms, self.stored
        self.vectors, self.norms, self.stored = vectors, norms, stored

    def cosine(self, vec: np.ndarray, rows) -> np.ndarray:
        """:func:`cosine_rows` of `vec` against `rows`, which must all be stored."""
        if self.vectors is None:
            return np.zeros(0)
        return cosine_rows(self.vectors[rows], self.norms[rows], vec)


def jaccard_similarity(a: str, b: str) -> float:
    """Token-overlap score used when the embedding backend is down."""
    sa, sb = set(tokenize(a)), set(tokenize(b))
    if not sa and not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


class DeterministicEmbedder:
    """Signed feature-hashing embedder: stable across runs and platforms.

    Each token is hashed with SHA-256; the first four digest bytes pick a
    bucket and the fifth byte's parity picks the sign. The vector is the
    signed token-count histogram (unnormalized; cosine is scale-invariant).
    """

    def __init__(self, dim: int = 64) -> None:
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        for token in tokenize(text):
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            bucket = int.from_bytes(digest[:4], "big") % self.dim
            sign = 1.0 if digest[4] % 2 == 0 else -1.0
            vec[bucket] += sign
        return vec


class RemoteEmbedder:
    """OpenAI-compatible embedding endpoint client."""

    def __init__(
        self,
        endpoint: str,
        model_name: str,
        api_key_env: str = "",
        timeout: float = DEFAULT_REMOTE_TIMEOUT,
        dim: int = 1536,
    ) -> None:
        self.endpoint = endpoint.rstrip("/")
        self.model_name = model_name
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        payload = json.dumps({"model": self.model_name, "input": [text]}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.api_key_env, "") if self.api_key_env else ""
        if key:
            headers["Authorization"] = f"Bearer {key}"
        req = urllib.request.Request(
            f"{self.endpoint}/embeddings", data=payload, headers=headers
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                body = json.loads(resp.read().decode("utf-8"))
            vec = np.asarray(body["data"][0]["embedding"], dtype=np.float64)
        except (urllib.error.URLError, OSError, KeyError, IndexError, ValueError) as exc:
            raise EmbeddingUnavailable(f"embedding request failed: {exc}") from exc
        return vec


class CachingEmbedder:
    """Wraps any embedder with a thread-safe cache keyed by content hash.

    The cache holds the :data:`CACHE_SIZE` most recently used texts.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.dim = inner.dim
        self._cache: OrderedDict[str, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()

    def embed(self, text: str) -> np.ndarray:
        key = hashlib.sha256(text.encode("utf-8")).hexdigest()
        with self._lock:
            hit = self._cache.get(key)
            if hit is not None:
                self._cache.move_to_end(key)
                return hit
        vec = self.inner.embed(text)
        with self._lock:
            self._cache[key] = vec
            self._cache.move_to_end(key)
            while len(self._cache) > CACHE_SIZE:
                self._cache.popitem(last=False)
        return vec

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)


def default_embedder() -> CachingEmbedder:
    return CachingEmbedder(DeterministicEmbedder())
