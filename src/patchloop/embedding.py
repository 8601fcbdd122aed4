"""Local text embedding: a deterministic hashing embedder, a bounded LRU cache, and row-wise cosine.

The deterministic embedder (signed feature hashing over word tokens) serves
tests and offline runs; the remote one is in :mod:`.gateway`, beside the one
HTTP client. Either is normally wrapped in :class:`CachingEmbedder`. Stored
entries keep their vectors in the memory store's tier indexes
(:class:`VectorRows`), and a session retrieves L1 and L2 once, so the cache
serves only texts embedded a second time: the session's description, which
its L2 retrieval and its consolidation's inserts embed after its L1
retrieval did, and patch texts that an insert or a refinement query meets
again.

Token hashing takes SHA-256 from CPython's built-in module (``_sha2`` on
3.12+, ``_sha256`` on 3.10 and 3.11), not from :mod:`hashlib`: importing
:mod:`hashlib` loads OpenSSL through ``_hashlib``, several MB of resident
memory that an offline run needs for nothing else. Both compute the same
digest, so every vector is the same bit for bit. An interpreter built
without the built-in module falls back to :mod:`hashlib`.
"""

from __future__ import annotations

import functools
import math
import string

import numpy as np

try:  # 3.12 and later
    from _sha2 import sha256 as _sha256
except ImportError:
    try:  # 3.10 and 3.11
        from _sha256 import sha256 as _sha256
    except ImportError:  # built without it (--with-builtin-hashlib-hashes)
        from hashlib import sha256 as _sha256

# Every byte but an ASCII lowercase letter or digit becomes a space.
_SEPARATE = bytes(b if chr(b) in string.ascii_lowercase + string.digits else 32 for b in range(256))

# Texts a CachingEmbedder keeps, least recently used evicted first.
CACHE_SIZE = 256

# Distinct tokens whose slot DeterministicEmbedder keeps, least
# recently used evicted first.
TOKEN_MEMO_SIZE = 1 << 14


def tokenize(text: str) -> list[str]:
    """The maximal runs of ``[a-z0-9]`` in the lowercased text, as
    ``re.findall(r"[a-z0-9]+", text.lower())`` finds them. Every other
    character separates: encoding replaces a non-ASCII one with ``?``, and
    one byte-table translation turns each separator into a space."""
    return text.lower().encode("ascii", "replace").translate(_SEPARATE).decode("ascii").split()


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, 0.0 when either vector is all zeros."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def _norm(vec: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D real vector by its own operations, the
    square root of ``vec.dot(vec)``, without its argument handling."""
    return math.sqrt(vec.dot(vec))


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

    def holds_first(self, n: int) -> bool:
        """Whether rows ``0 .. n-1`` all hold a vector."""
        return len(self.stored) >= n and bool(self.stored[:n].all())

    def put(self, rows, vecs: list[np.ndarray]) -> None:
        """Store each vector at its row; a row already stored keeps its own."""
        for row, vec in zip(rows, vecs):
            if row >= len(self.stored):
                self._grow(row + 1, len(vec))
            if not self.stored[row]:
                self.vectors[row] = vec
                self.norms[row] = _norm(vec)
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
        """``cosine(vec, row)`` for each of `rows`, which must all be stored.

        The float operations are those of :func:`cosine`: ``dot / (|vec| * |row|)``,
        clipped, and 0.0 where either norm is zero. Rows are not normalised in
        advance, because ``(a/|a|)·(b/|b|)`` can differ from that in the last bit.
        For integer-valued vectors (the deterministic embedder's) every dot
        product is exact, so the result equals :func:`cosine` bit for bit; for
        real-valued vectors (a remote embedder's) the mat-vec may sum in another
        order than ``np.dot`` and differ from it in the last bit.
        """
        norms = self.norms[rows]
        out = np.zeros(len(norms))
        norm = _norm(vec)
        if self.vectors is None or norm == 0.0:
            return out
        np.divide(self.vectors[rows] @ vec, norm * norms, out=out, where=norms != 0.0)
        return np.clip(out, -1.0, 1.0, out=out)


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
    A token's slot (its bucket and sign) is memoized process-wide for the
    :data:`TOKEN_MEMO_SIZE` most recently used distinct tokens, so a
    repeated token is hashed once. One ``np.bincount`` counts a text's slots
    and each bucket is its positive count minus its negative one: integers,
    so the vector is the same histogram bit for bit as adding +-1.0 per
    token, and a bucket whose signs cancel holds +0.0.
    """

    dim = 64

    def embed(self, text: str) -> np.ndarray:
        # An explicit dtype: an empty list would otherwise become float64,
        # which np.bincount rejects on older numpy.
        slots = np.array(list(map(_token_slot, tokenize(text))), dtype=np.intp)
        counts = np.bincount(slots, minlength=2 * self.dim)
        return (counts[: self.dim] - counts[self.dim :]).astype(np.float64)


@functools.lru_cache(maxsize=TOKEN_MEMO_SIZE)
def _token_slot(token: str) -> int:
    """The slot :class:`DeterministicEmbedder` counts `token` in: its bucket,
    plus ``dim`` when its sign is negative. The digest is CPython's built-in
    SHA-256, the same bytes as hashlib's, taken so that hashing loads no
    OpenSSL."""
    digest = _sha256(token.encode("utf-8")).digest()
    dim = DeterministicEmbedder.dim
    bucket = int.from_bytes(digest[:4], "big") % dim
    return bucket if digest[4] % 2 == 0 else bucket + dim


class CachingEmbedder:
    """Wraps any embedder with a thread-safe cache of the :data:`CACHE_SIZE`
    most recently used texts. A hit returns the cached array itself.

    Traced seed-1 runs of the benchmark's session workloads (8 sessions)
    make 45 embed calls, 33 of them hits: 18 repeat the session's
    description (8 from L2 retrievals, 10 from consolidation's inserts) and
    15 repeat a patch text, since the scripted candidates are the same in
    every session. On ``memory_mix`` (150 operations) none of 324 calls hits.

    A miss looks ``inner.embed`` up anew, so a method replaced on the inner
    embedder or its class takes effect at once.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self._cached = functools.lru_cache(maxsize=CACHE_SIZE)(lambda text: self.inner.embed(text))

    def embed(self, text: str) -> np.ndarray:
        return self._cached(text)

    def __len__(self) -> int:
        return self._cached.cache_info().currsize


def default_embedder() -> CachingEmbedder:
    return CachingEmbedder(DeterministicEmbedder())
