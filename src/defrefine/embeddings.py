"""Embedding providers, instruction prefixes, batching, and the persistent vector cache.

Documents and definitions go through the same gateway: the text is given a
role-specific instruction prefix, truncated to a fixed character budget, and
either served from the cache or shipped to the provider in batches. Vectors
are stored exactly as received; normalization is the classifier's concern.
"""

from __future__ import annotations

import fcntl
import hashlib
import logging
import os
import struct
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import requests

from ._http import post_json
from .errors import ConfigError, ProviderError

log = logging.getLogger(__name__)

ROLE_DOCUMENT = "document"
ROLE_DEFINITION = "definition"

API_KEY_ENV = "EMBED_API_KEY"


@dataclass
class EmbedderConfig:
    """Connection and preprocessing settings for one embedding model."""

    endpoint: str
    model_id: str
    document_prefix: str = ""
    definition_prefix: str = ""
    max_batch: int = 100
    max_input_chars: int = 8192
    timeout: float = 30.0
    retries: int = 3
    concurrency: int = 4
    backoff_base: float = 0.5

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_input_chars < 1:
            raise ValueError("max_input_chars must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")

    def prefix_for(self, role: str) -> str:
        if role == ROLE_DOCUMENT:
            return self.document_prefix
        if role == ROLE_DEFINITION:
            return self.definition_prefix
        raise ValueError(f"unknown role {role!r}")


def apply_prefix(text: str, role: str, cfg: EmbedderConfig) -> str:
    """Prepend the role's instruction prefix and cap the combined length."""
    return (cfg.prefix_for(role) + text)[: cfg.max_input_chars]


def cache_keys(cfg: EmbedderConfig, role: str, payloads: Sequence[str]) -> list[bytes]:
    """One 32-byte key per payload: sha256 over the length-delimited tuple
    (endpoint, model id, role prefix, post-truncation payload).

    The endpoint tells apart providers that share a model id; only the digest
    is stored, never the endpoint or prefix text.
    """
    head = _length_delimited(hashlib.sha256(), (cfg.endpoint, cfg.model_id, cfg.prefix_for(role)))
    return [_length_delimited(head.copy(), (p,)).digest() for p in payloads]


def _length_delimited(digest, fields: Sequence[str]):
    for field in fields:
        raw = field.encode("utf-8")
        digest.update(len(raw).to_bytes(8, "little"))
        digest.update(raw)
    return digest


STORE_MAGIC = b"DFRSTOR1"
_KEY_BYTES = 32
# Record header: sync marker, crc32, row count, dim. The crc covers the record
# from its row count (byte _CRC_FROM) to its last float.
_RECORD_SYNC = b"\x93REC"
_RECORD_HEAD = struct.Struct("<4sIII")
_CRC_FROM = 8


class EmbeddingCache:
    """In-memory vector index over an optional append-only binary store.

    The store is STORE_MAGIC followed by one record per put: a header (sync
    marker, crc32, row count, dim), the rows' fixed-width keys, then the
    float64 rows. Each record is appended with one write under an exclusive
    flock, so processes can share a store. On load the file is read once and
    every record becomes one array; a torn or corrupt record costs only
    itself, because the loader scans forward to the next sync marker. Puts
    are serialized by a lock; gets are lock-free.
    """

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path is not None else None
        self._index: dict[bytes, np.ndarray] = {}
        self._lock = threading.Lock()
        self._fd: int | None = None
        if self._path is not None and self._path.exists():
            self._load()

    def _load(self) -> None:
        with open(self._path, "rb") as fh:
            fcntl.flock(fh, fcntl.LOCK_SH)
            data = fh.read()
        if not data:
            return
        if not data.startswith(STORE_MAGIC):
            raise ConfigError(
                f"{self._path} is not an embedding store; move it away or set cache_file "
                "to another path (it is left unchanged)"
            )
        view = memoryview(data)
        records = []
        skipped = 0
        offset = len(STORE_MAGIC)
        while offset < len(data):
            record = _read_record(data, view, offset)
            if record is None:
                resync = data.find(_RECORD_SYNC, offset + 1)
                resync = len(data) if resync < 0 else resync
                skipped += resync - offset
                offset = resync
                continue
            keys, rows, offset = record
            records.append((keys, rows))
        # Reversed, so the first record to store a key wins, as in put.
        for keys, rows in reversed(records):
            self._index.update(zip(keys, rows))
        if skipped:
            log.warning("embedding cache %s: skipped %d bytes of damaged records", self._path, skipped)

    def get(self, key: bytes) -> np.ndarray | None:
        return self._index.get(key)

    def put(self, keys: Sequence[bytes], rows: np.ndarray) -> None:
        """Store row i under keys[i]; keys already present keep their vector."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] != len(keys) or rows.shape[1] == 0:
            raise ValueError(f"need one nonempty row per key, got {rows.shape} for {len(keys)} keys")
        if any(type(k) is not bytes or len(k) != _KEY_BYTES for k in keys):
            raise ValueError(f"cache keys must be {_KEY_BYTES}-byte strings")
        with self._lock:
            fresh = [i for i, k in enumerate(keys) if k not in self._index]
            if not fresh:
                return
            if len(fresh) < len(keys):
                keys, rows = [keys[i] for i in fresh], rows[fresh]
            self._index.update(zip(keys, rows))
            if self._path is not None:
                self._append(_encode_record(keys, rows))

    def _append(self, record: bytes) -> None:
        if self._fd is None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(self._path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        fcntl.flock(self._fd, fcntl.LOCK_EX)
        try:
            if os.fstat(self._fd).st_size == 0:
                record = STORE_MAGIC + record
            written = os.write(self._fd, record)
            while written < len(record):
                written += os.write(self._fd, record[written:])
        finally:
            fcntl.flock(self._fd, fcntl.LOCK_UN)

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __len__(self) -> int:
        return len(self._index)


def _encode_record(keys: Sequence[bytes], rows: np.ndarray) -> bytes:
    n, dim = rows.shape
    body = b"".join([*keys, rows.astype("<f8", copy=False).tobytes()])
    counts = struct.pack("<II", n, dim)
    crc = zlib.crc32(body, zlib.crc32(counts))
    return _RECORD_HEAD.pack(_RECORD_SYNC, crc, n, dim) + body


def _read_record(data: bytes, view: memoryview, offset: int):
    """(keys, rows, next offset) of an intact record at offset, else None."""
    start = offset + _RECORD_HEAD.size
    if start > len(data):
        return None
    sync, crc, n, dim = _RECORD_HEAD.unpack_from(data, offset)
    end = start + n * (_KEY_BYTES + 8 * dim)
    if sync != _RECORD_SYNC or n == 0 or dim == 0 or end > len(data):
        return None
    if zlib.crc32(view[offset + _CRC_FROM : end]) != crc:
        return None
    rows_at = start + n * _KEY_BYTES
    keys = [data[i : i + _KEY_BYTES] for i in range(start, rows_at, _KEY_BYTES)]
    rows = np.frombuffer(data, dtype="<f8", count=n * dim, offset=rows_at).reshape(n, dim)
    return keys, rows, end


class MockEmbeddingProvider:
    """Deterministic stand-in for a hosted model.

    Each payload is hashed (together with the provider seed) into the seed of
    a generator that emits a fixed-dimension gaussian vector, scaled to unit
    norm. Equal payloads always map to bitwise-equal vectors.
    """

    def __init__(self, dim: int = 64, seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.seed = seed
        self.requests = 0
        self._lock = threading.Lock()

    def embed_batch(self, texts: Sequence[str]) -> list[list[float]]:
        with self._lock:
            self.requests += 1
        out = []
        for text in texts:
            digest = hashlib.sha256(f"{self.seed}|{text}".encode("utf-8")).digest()
            gen = np.random.default_rng(int.from_bytes(digest[:8], "big"))
            vec = gen.standard_normal(self.dim)
            out.append((vec / np.linalg.norm(vec)).tolist())
        return out


class HttpEmbeddingProvider:
    """JSON-over-HTTP embeddings endpoint client.

    Request shape: {"model": str, "input": [str, ...]}. Response carries a
    "data" array of {"index": int, "embedding": [float, ...]}. The API key is
    read from the environment and sent as a bearer token; it is never logged.
    """

    def __init__(self, cfg: EmbedderConfig, api_key: str | None = None):
        self._cfg = cfg
        self._api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self._session = requests.Session()
        self.requests = 0
        self._lock = threading.Lock()

    def embed_batch(self, texts: Sequence[str]) -> list[list[float]]:
        body = {"model": self._cfg.model_id, "input": list(texts)}
        resp, _ = post_json(self._session, self._cfg, body, self._api_key, "embedding")
        with self._lock:
            self.requests += 1
        return self._parse(resp, len(texts))

    @staticmethod
    def _parse(resp, expected: int) -> list[list[float]]:
        try:
            payload = resp.json()
            data = payload["data"]
            rows: list[list[float] | None] = [None] * expected
            for item in data:
                index = item["index"]
                if type(index) is not int or not 0 <= index < expected or rows[index] is not None:
                    raise ProviderError(f"embedding response has a bad or repeated index {index!r}")
                rows[index] = item["embedding"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ProviderError(f"malformed embedding response: {exc}") from exc
        if any(r is None for r in rows):
            raise ProviderError("embedding response missing indices")
        return rows  # type: ignore[return-value]


class EmbeddingGateway:
    """Caching, batching front for an embedding provider.

    Output order always matches input order, regardless of how the misses
    were partitioned into batches or which requests completed first.
    """

    def __init__(self, cfg: EmbedderConfig, cache: EmbeddingCache, provider):
        self._cfg = cfg
        self._cache = cache
        self._provider = provider
        self._dim: int | None = None

    @property
    def cache(self) -> EmbeddingCache:
        return self._cache

    def _admit(self, vectors) -> np.ndarray:
        """Vectors as an (n, d) float64 array, once every row is checked."""
        try:
            rows = np.array(vectors, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ProviderError(f"provider returned ragged or non-numeric embeddings: {exc}") from exc
        if rows.ndim != 2 or rows.shape[1] == 0:
            raise ProviderError("provider returned a non-vector embedding")
        if not np.isfinite(rows).all():
            raise ProviderError("provider returned a non-finite embedding component")
        if self._dim is None:
            self._dim = rows.shape[1]
        elif rows.shape[1] != self._dim:
            raise ProviderError(f"embedding dimension mismatch: {rows.shape[1]} != {self._dim}")
        return rows

    def embed_texts(self, texts: Sequence[str], role: str) -> np.ndarray:
        """Embed texts under the given role as an (n, d) array; row i is input i."""
        if not texts:
            raise ValueError("texts must be nonempty")
        payloads = [apply_prefix(t, role, self._cfg) for t in texts]
        keys = cache_keys(self._cfg, role, payloads)

        pending: dict[bytes, str] = {}
        for key, payload in zip(keys, payloads):
            if self._cache.get(key) is None and key not in pending:
                pending[key] = payload
        if pending:
            self._fetch(list(pending.items()))

        rows = [self._cache.get(key) for key in keys]
        if any(row is None for row in rows):
            raise ProviderError("embedding missing after fetch")
        return self._admit(rows)

    def _fetch(self, items: list[tuple[bytes, str]]) -> None:
        """Embed (key, payload) misses in batches; each batch is admitted and
        cached as its reply arrives, so replies are not held until the last one."""
        cfg = self._cfg
        batches = [items[i : i + cfg.max_batch] for i in range(0, len(items), cfg.max_batch)]

        def run(batch):
            return self._provider.embed_batch([p for _, p in batch])

        def store(batch, vectors) -> None:
            if len(vectors) != len(batch):
                raise ProviderError("provider returned wrong number of embeddings")
            self._cache.put([k for k, _ in batch], self._admit(vectors))

        if len(batches) == 1 or cfg.concurrency <= 1:
            for batch in batches:
                store(batch, run(batch))
            return
        with ThreadPoolExecutor(max_workers=min(cfg.concurrency, len(batches))) as pool:
            for batch, vectors in zip(batches, pool.map(run, batches)):
                store(batch, vectors)

    def embed_definitions(self, definitions: Mapping[str, str], categories: Sequence[str]) -> np.ndarray:
        """A (k, d) array with one row per category, in category index order."""
        missing = [c for c in categories if c not in definitions]
        if missing:
            raise ValueError(f"definitions missing categories: {', '.join(missing)}")
        return self.embed_texts([definitions[c] for c in categories], ROLE_DEFINITION)
