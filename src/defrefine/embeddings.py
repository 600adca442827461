"""Embedding providers, instruction prefixes, batching, and the persistent vector cache.

Documents and definitions go through the same gateway: the text is given a
role-specific instruction prefix, truncated to a fixed character budget, and
either served from the cache or shipped to the provider in batches. Vectors
are stored exactly as received; normalization is the classifier's concern.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import requests

from .errors import ProviderError

log = logging.getLogger(__name__)

ROLE_DOCUMENT = "document"
ROLE_DEFINITION = "definition"

API_KEY_ENV = "EMBED_API_KEY"
_RETRYABLE_STATUS = {429} | set(range(500, 600))


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


def cache_key(model_id: str, prefix: str, payload: str) -> str:
    """Cache key over (model, role prefix, hash of the post-truncation text)."""
    content_hash = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return json.dumps([model_id, prefix, content_hash])


class EmbeddingCache:
    """In-memory vector index over an optional append-only JSONL store.

    The file is replayed at startup; malformed trailing lines (from a crash
    mid-append) are skipped. Writes are serialized; reads are lock-free.
    """

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path is not None else None
        self._index: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()
        self._handle = None
        if self._path is not None and self._path.exists():
            self._load()

    def _load(self) -> None:
        skipped = 0
        with open(self._path, "r", encoding="utf-8") as fh:
            for line in fh:
                try:
                    record = json.loads(line)
                    vector = np.asarray(record["vector"], dtype=np.float64)
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    skipped += 1
                    continue
                self._index[record["key"]] = vector
        if skipped:
            log.warning("embedding cache %s: skipped %d malformed lines", self._path, skipped)

    def get(self, key: str) -> np.ndarray | None:
        return self._index.get(key)

    def put(self, key: str, vector: np.ndarray) -> None:
        with self._lock:
            if key in self._index:
                return
            vector = np.asarray(vector, dtype=np.float64)
            self._index[key] = vector
            if self._path is None:
                return
            if self._handle is None:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self._path, "a", encoding="utf-8")
            self._handle.write(json.dumps({"key": key, "vector": vector.tolist()}) + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __len__(self) -> int:
        return len(self._index)


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

    def __init__(self, cfg: EmbedderConfig, api_key: str | None = None, session=None):
        self._cfg = cfg
        self._api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self._session = session or requests.Session()
        self.requests = 0
        self._lock = threading.Lock()

    def embed_batch(self, texts: Sequence[str]) -> list[list[float]]:
        cfg = self._cfg
        body = {"model": cfg.model_id, "input": list(texts)}
        headers = {}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        last_error = "no attempt made"
        for attempt in range(cfg.retries + 1):
            try:
                resp = self._session.post(
                    cfg.endpoint, json=body, headers=headers, timeout=cfg.timeout
                )
            except requests.RequestException as exc:
                last_error = f"request failed: {exc}"
            else:
                if resp.status_code < 400:
                    with self._lock:
                        self.requests += 1
                    return self._parse(resp, len(texts))
                if resp.status_code not in _RETRYABLE_STATUS:
                    raise ProviderError(
                        f"embedding request rejected with status {resp.status_code}"
                    )
                last_error = f"status {resp.status_code}"
            if attempt < cfg.retries:
                time.sleep(cfg.backoff_base * (2**attempt))
        raise ProviderError(
            f"embedding provider unreachable after {cfg.retries + 1} attempts ({last_error})"
        )

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

    def __init__(
        self,
        cfg: EmbedderConfig,
        cache: EmbeddingCache | None = None,
        provider=None,
    ):
        self._cfg = cfg
        self._cache = cache if cache is not None else EmbeddingCache()
        self._provider = provider if provider is not None else HttpEmbeddingProvider(cfg)
        self._dim: int | None = None

    @property
    def cache(self) -> EmbeddingCache:
        return self._cache

    def _admit(self, vector) -> np.ndarray:
        arr = np.asarray(vector, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ProviderError("provider returned a non-vector embedding")
        if not np.all(np.isfinite(arr)):
            raise ProviderError("provider returned a non-finite embedding component")
        if self._dim is None:
            self._dim = arr.size
        elif arr.size != self._dim:
            raise ProviderError(f"embedding dimension mismatch: {arr.size} != {self._dim}")
        return arr

    def embed_texts(self, texts: Sequence[str], role: str) -> np.ndarray:
        """Embed texts under the given role as an (n, d) array; row i is input i."""
        if not texts:
            raise ValueError("texts must be nonempty")
        cfg = self._cfg
        prefix = cfg.prefix_for(role)
        payloads = [apply_prefix(t, role, cfg) for t in texts]
        keys = [cache_key(cfg.model_id, prefix, p) for p in payloads]

        pending: dict[str, str] = {}
        for key, payload in zip(keys, payloads):
            if self._cache.get(key) is None and key not in pending:
                pending[key] = payload
        if pending:
            # A helper, so the provider's replies are freed before np.stack below
            # allocates the output: this keeps the peak memory of a cold embed down.
            self._fetch(list(pending.items()))

        rows = []
        for key in keys:
            vector = self._cache.get(key)
            if vector is None:
                raise ProviderError("embedding missing after fetch")
            rows.append(self._admit(vector))
        return np.stack(rows)

    def _fetch(self, items: list[tuple[str, str]]) -> None:
        """Embed (key, payload) misses in batches and admit them to the cache."""
        cfg = self._cfg
        batches = [items[i : i + cfg.max_batch] for i in range(0, len(items), cfg.max_batch)]

        def run(batch):
            return self._provider.embed_batch([p for _, p in batch])

        if len(batches) == 1 or cfg.concurrency <= 1:
            results = [run(b) for b in batches]
        else:
            workers = min(cfg.concurrency, len(batches))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(run, batches))
        for batch, vectors in zip(batches, results):
            if len(vectors) != len(batch):
                raise ProviderError("provider returned wrong number of embeddings")
            for (key, _), vector in zip(batch, vectors):
                self._cache.put(key, self._admit(vector))

    def embed_definitions(self, definitions: Mapping[str, str], categories: Sequence[str]) -> np.ndarray:
        """A (k, d) array with one row per category, in category index order."""
        missing = [c for c in categories if c not in definitions]
        if missing:
            raise ValueError(f"definitions missing categories: {', '.join(missing)}")
        return self.embed_texts([definitions[c] for c in categories], ROLE_DEFINITION)
