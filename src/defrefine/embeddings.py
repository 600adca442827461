"""Embedding providers, instruction prefixes, batching, and the persistent vector cache.

Documents and definitions go through the same gateway: the text is given a
role-specific instruction prefix, truncated to a fixed character budget, and
either served from the cache or shipped to the provider in batches. Vectors
are stored exactly as received. The gateway is the one place that checks and
normalises them: the classifier compares the unit rows it returns.
"""

from __future__ import annotations

import fcntl
import hashlib
import logging
import os
import struct
import threading
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from ._http import LazySession, check_retry_policy, post_json
from .errors import ConfigError, ProviderError

log = logging.getLogger(__name__)

ROLE_DOCUMENT = "document"
ROLE_DEFINITION = "definition"

API_KEY_ENV = "EMBED_API_KEY"

# The types json gives a number; true and false come back as bool.
_JSON_NUMBERS = frozenset({int, float})

# Rows per block hold about this many elements, which bounds the row-major
# scratch array of row_norms (256 KiB of float64).
_BLOCK_ELEMENTS = 1 << 15


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of the (n, d) float64 matrix.

    Each norm has the bits of `np.linalg.norm(m, axis=1)` for the row-major
    m of the same values, whatever the matrix's layout: the rows are squared
    into one row-major scratch array a block at a time and summed along it.
    A block holds at most `_BLOCK_ELEMENTS` elements (or one row), so the
    scratch stays small. A row divided by its norm then has the bits of
    `m / np.linalg.norm(m, axis=1)[:, None]`, and it can be normalised
    exactly when its norm is finite and positive.
    """
    n, d = matrix.shape
    step = max(1, _BLOCK_ELEMENTS // max(1, d))
    squares = np.empty((min(step, n), d))
    norms = np.empty(n)
    # np.linalg.norm's own sum for axis=1, without its full-size temporary;
    # a sum that overflows is an infinite norm, which the caller refuses.
    with np.errstate(over="ignore"):
        for start in range(0, n, step):
            block = matrix[start : start + step]
            rows = squares[: len(block)]
            np.multiply(block, block, out=rows)
            np.add.reduce(rows, axis=1, out=norms[start : start + step])
    return np.sqrt(norms, out=norms)


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
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        check_retry_policy(self)

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
    head = hashlib.sha256(b"".join(map(_length_delimited, (cfg.endpoint, cfg.model_id, cfg.prefix_for(role)))))
    keys = []
    for payload in payloads:
        digest = head.copy()
        digest.update(_length_delimited(payload))
        keys.append(digest.digest())
    return keys


def _length_delimited(field: str) -> bytes:
    raw = field.encode("utf-8")
    return len(raw).to_bytes(8, "little") + raw


STORE_MAGIC = b"DFRSTOR1"
_KEY_BYTES = 32
# Record header: sync marker, crc32, row count, dim. The crc covers the record
# from its row count (byte _CRC_FROM) to its last float.
_RECORD_SYNC = b"\x93REC"
_RECORD_HEAD = struct.Struct("<4sIII")
_CRC_FROM = 8
# The index keeps a stored key's place as one int, record number << _ROW_BITS
# | row (a row count is 32 bits): ints, unlike tuples, are not tracked by the
# garbage collector, so a large index does not slow its collections.
_ROW_BITS = 32
_ROW_MASK = (1 << _ROW_BITS) - 1

# After a damaged record, opening searches for the next sync marker in reads
# of at most this many bytes.
_SCAN_CHUNK = 1 << 20


def _not_a_store(path: Path) -> ConfigError:
    return ConfigError(
        f"{path} is not an embedding store; move it away or set cache_file to another path (it is left unchanged)"
    )


class EmbeddingCache:
    """Key index over an optional append-only binary store of vectors.

    The store is STORE_MAGIC followed by one record per put: a header (sync
    marker, crc32, row count, dim), the rows' fixed-width keys, then the
    float64 rows. Each record is appended with one writev under an exclusive
    flock, straight from the caller's keys and rows, so processes can share a
    store. Opening scans the file record by record under a shared flock,
    reading each record whole with one preadv into one reused row-major
    scratch array and checking it with the function that serves its rows; a
    torn or corrupt record costs only itself, because the scan resyncs at the
    next sync marker. Memory then holds only where each stored key's row is,
    and a put indexes the record it appends the same way, so no rows are
    kept: `read` yields the stored rows among the caller's keys record by
    record, reading each record it needs the same way and checking it again
    first, so a record damaged after open or after its put is dropped and
    its keys read as misses, to be fetched. The caller places the rows; the
    store never sees its output. A store removed (or replaced) at the path
    while open is forgotten at the next read or put, and the next put
    recreates it at the path. A cache without a path stores nothing, so
    every key is a miss. Puts are serialized by a lock.
    """

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path is not None else None
        # key -> its place in the store; record number -> (offset, row count,
        # dim), or None once the record is dropped.
        self._stored: dict[bytes, int] = {}
        self._records: list[tuple[int, int, int] | None] = []
        self._lock = threading.Lock()
        self._fd: int | None = None
        self._read_fd: int | None = None
        self._file: tuple[int, int] | None = None  # (st_dev, st_ino) of the store indexed
        if self._path is not None:
            self._load()

    def _load(self) -> None:
        """Index the store at the path; a missing store is an empty one."""
        try:
            fh = open(self._path, "rb")
        except FileNotFoundError:
            return
        except IsADirectoryError:
            raise _not_a_store(self._path) from None
        except OSError as exc:
            raise ConfigError(f"embedding store {self._path} cannot be read: {exc.strerror}") from None
        with fh:
            fcntl.flock(fh, fcntl.LOCK_SH)
            fd = fh.fileno()
            stat = os.fstat(fd)
            size = stat.st_size
            if not size:
                return
            self._file = stat.st_dev, stat.st_ino
            if os.pread(fd, len(STORE_MAGIC), 0) != STORE_MAGIC:
                raise _not_a_store(self._path)
            records = []
            skipped = 0
            scratch = np.empty(0)  # the rows of the record being checked
            offset = len(STORE_MAGIC)
            while offset < size:
                shape = _record_head(os.pread(fd, _RECORD_HEAD.size, offset), offset, size)
                keys = None
                if shape is not None:
                    n, dim = shape
                    if scratch.size < n * dim:
                        scratch = np.empty(n * dim)
                    keys = _read_record(fd, offset, scratch[: n * dim].reshape(n, dim))
                if keys is None:
                    resync = _next_sync(fd, offset + 1, size)
                    skipped += resync - offset
                    offset = resync
                    continue
                records.append((offset, shape, [keys[i : i + _KEY_BYTES] for i in range(0, len(keys), _KEY_BYTES)]))
                offset += _record_size(*shape)
        self._index(records)
        if skipped:
            log.warning("embedding cache %s: skipped %d bytes of damaged records", self._path, skipped)

    def _index(self, records: Sequence[tuple[int, tuple[int, int], Sequence[bytes]]]) -> None:
        """Number (offset, shape, keys) records in file order and point each
        record's keys[i] at its row i; a key in two records keeps the first,
        as in put."""
        base = len(self._records)
        self._records.extend((offset, *shape) for offset, shape, _ in records)
        for number in reversed(range(len(records))):
            keys = records[number][2]
            first = (base + number) << _ROW_BITS
            self._stored.update(zip(keys, range(first, first + len(keys))))

    def read(self, keys: Sequence[bytes]) -> Iterator[tuple[list[int], np.ndarray]]:
        """Yield (positions, rows) for the stored vectors among keys: rows[j]
        is the vector of keys[positions[j]], and the positions run up. Keys
        never yielded are misses.

        One pair comes per intact record, each read with one preadv into one
        row-major scratch array, reused for every record, and checked again
        (sync marker, size, crc, and the key at each row) before it is
        yielded; rows may be a view of that scratch, valid until the next
        pair is taken, which the caller may scale in place. A record that
        fails is dropped with a warning, so its keys are misses.
        """
        # The hits grouped by record, each group in key order. Plain lists: a
        # call of a few keys, as a definition set makes, costs far less than
        # the same grouping in numpy calls.
        groups: dict[int, tuple[list[int], list[int]]] = {}
        for i, place in enumerate(map(self._stored.get, keys)):
            if place is not None:
                group = groups.get(place >> _ROW_BITS)
                if group is None:
                    group = groups[place >> _ROW_BITS] = [], []
                group[0].append(i)
                group[1].append(place & _ROW_MASK)
        if not groups:
            return
        with self._lock:
            if not self._at_path():
                self._forget()
                return
            if self._read_fd is None:
                self._read_fd = os.open(self._path, os.O_RDONLY)
            fd = self._read_fd
        scratch = np.empty(max(self._records[number][1] * self._records[number][2] for number in groups))
        for number, (at, rows) in sorted(groups.items()):
            offset, n, dim = self._records[number]
            record = scratch[: n * dim].reshape(n, dim)
            whole = len(rows) == n and rows == list(range(n))
            stored = _read_record(fd, offset, record)
            if stored is not None and not whole:
                stored = b"".join([stored[row * _KEY_BYTES : (row + 1) * _KEY_BYTES] for row in rows])
            if stored != b"".join([keys[i] for i in at]):
                self._drop(number)
                continue
            yield at, record if whole else record[rows]

    def _at_path(self) -> bool:
        """Whether the path still names the store the index describes."""
        try:
            stat = os.stat(self._path)
        except FileNotFoundError:
            return False
        return (stat.st_dev, stat.st_ino) == self._file

    def _forget(self) -> None:
        """Close a store no longer at the path and drop its index, so its
        vectors are misses and the next put recreates the store at the path."""
        log.warning("embedding cache %s was removed after open; its vectors will be fetched again", self._path)
        self._close_fds()
        self._stored.clear()
        self._records.clear()
        self._file = None

    def _drop(self, number: int) -> None:
        with self._lock:
            offset, n, _ = self._records[number]
            self._records[number] = None
            for key in [k for k, where in self._stored.items() if where >> _ROW_BITS == number]:
                del self._stored[key]
        log.warning(
            "embedding cache %s: the record at byte %d changed after open; its %d vectors will be fetched again",
            self._path,
            offset,
            n,
        )

    def put(self, keys: Sequence[bytes], rows: np.ndarray) -> None:
        """Store row i under keys[i]; keys already present keep their vector.
        ConfigError naming the store if the append fails."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] != len(keys) or rows.shape[1] == 0:
            raise ValueError(f"need one nonempty row per key, got {rows.shape} for {len(keys)} keys")
        if any(type(k) is not bytes or len(k) != _KEY_BYTES for k in keys):
            raise ValueError(f"cache keys must be {_KEY_BYTES}-byte strings")
        if self._path is None:
            return
        with self._lock:
            if self._file is not None and not self._at_path():
                self._forget()
            fresh = [i for i, k in enumerate(keys) if k not in self._stored]
            if not fresh:
                return
            if len(fresh) < len(keys):
                keys, rows = [keys[i] for i in fresh], rows[fresh]
            try:
                self._index([(self._append(keys, rows), rows.shape, keys)])
            except OSError as exc:  # a full disk, say: a torn record costs only itself
                raise ConfigError(f"embedding store {self._path} cannot be written: {exc.strerror}") from None

    def _append(self, keys: Sequence[bytes], rows: np.ndarray) -> int:
        """Append one record of keys and rows; the offset it was written at.
        Its header, joined keys and the rows' own buffer go in one writev, a
        short write finished by more, so the rows are never copied first."""
        rows = np.ascontiguousarray(rows, dtype="<f8")
        n, dim = rows.shape
        joined = b"".join(keys)
        crc = zlib.crc32(rows, zlib.crc32(joined, zlib.crc32(struct.pack("<II", n, dim))))
        views = [memoryview(b).cast("B") for b in (_RECORD_HEAD.pack(_RECORD_SYNC, crc, n, dim), joined, rows)]
        if self._fd is None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(self._path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            stat = os.fstat(self._fd)
            self._file = stat.st_dev, stat.st_ino
        fcntl.flock(self._fd, fcntl.LOCK_EX)
        try:
            offset = os.fstat(self._fd).st_size
            if offset == 0:
                views.insert(0, memoryview(STORE_MAGIC))
                offset = len(STORE_MAGIC)
            while views:
                written = os.writev(self._fd, views)
                while views and written >= len(views[0]):
                    written -= len(views.pop(0))
                if written:
                    views[0] = views[0][written:]
        finally:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
        return offset

    def close(self) -> None:
        with self._lock:
            self._close_fds()

    def _close_fds(self) -> None:
        for fd in (self._fd, self._read_fd):
            if fd is not None:
                os.close(fd)
        self._fd = self._read_fd = None

    def __len__(self) -> int:
        return len(self._stored)


def _record_size(n: int, dim: int) -> int:
    return _RECORD_HEAD.size + n * (_KEY_BYTES + 8 * dim)


def _read_record(fd: int, offset: int, dest: np.ndarray) -> bytes | None:
    """Read the (n, dim) record at offset into dest, a C-contiguous (n, dim)
    float64 array (the store's row-major layout), with one preadv; its n
    keys, joined, if it is intact (sync marker, shape, size and crc), else
    None. Opening and `read` both check a record with this."""
    n, dim = dest.shape
    head, keys = bytearray(_RECORD_HEAD.size), bytearray(n * _KEY_BYTES)
    if os.preadv(fd, [head, keys, dest], offset) != _record_size(n, dim):
        return None
    sync, crc, *shape = _RECORD_HEAD.unpack(head)
    if sync != _RECORD_SYNC or shape != [n, dim]:
        return None
    if zlib.crc32(dest, zlib.crc32(keys, zlib.crc32(memoryview(head)[_CRC_FROM:]))) != crc:
        return None
    return bytes(keys)


def _record_head(head: bytes, offset: int, size: int) -> tuple[int, int] | None:
    """(row count, dim) from the header `head` of the record at offset, if
    the record is nonempty and ends within `size` bytes."""
    if len(head) < _RECORD_HEAD.size:
        return None
    sync, _, n, dim = _RECORD_HEAD.unpack(head)
    if sync != _RECORD_SYNC or n == 0 or dim == 0 or offset + _record_size(n, dim) > size:
        return None
    return n, dim


def _next_sync(fd: int, start: int, size: int) -> int:
    """Offset of the first sync marker at or after start, else size."""
    at = start
    while at < size:
        chunk = os.pread(fd, min(_SCAN_CHUNK, size - at), at)
        found = chunk.find(_RECORD_SYNC)
        if found >= 0:
            return at + found
        if not chunk or at + len(chunk) >= size:
            break
        # Step back so a marker split across two chunks is still found.
        at += max(1, len(chunk) - len(_RECORD_SYNC) + 1)
    return size


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

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """One new (len(texts), dim) float64 array; row i is the vector of
        texts[i]. The array is handed to the gateway, which may scale it in
        place once the store holds it."""
        with self._lock:
            self.requests += 1
        out = np.empty((len(texts), self.dim))
        for row, text in zip(out, texts):
            digest = hashlib.sha256(f"{self.seed}|{text}".encode("utf-8")).digest()
            gen = np.random.default_rng(int.from_bytes(digest[:8], "big"))
            gen.standard_normal(out=row)
            row /= np.linalg.norm(row)
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
        self._session = LazySession()
        self.requests = 0
        self._lock = threading.Lock()

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """One new (len(texts), d) float64 array; row i is the vector of
        texts[i]. The array is handed to the gateway, which may scale it in
        place once the store holds it."""
        body = {"model": self._cfg.model_id, "input": list(texts)}
        resp, _ = post_json(self._session.get(), self._cfg, body, self._api_key, "embedding")
        with self._lock:
            self.requests += 1
        return self._parse(resp, len(texts))

    @staticmethod
    def _parse(resp, expected: int) -> np.ndarray:
        """The reply's vectors as one (expected, d) float64 array, each item's
        embedding scattered to the row its index names."""
        rows: np.ndarray | None = None
        seen = [False] * expected
        try:
            for item in resp.json()["data"]:
                index = item["index"]
                if type(index) is not int or not 0 <= index < expected or seen[index]:
                    raise ProviderError(f"embedding response has a bad or repeated index {index!r}")
                vector = item["embedding"]
                # Checked by exact type: a float64 row takes None, "1.5" and
                # True too, as nan, 1.5 and 1.0.
                if not _JSON_NUMBERS.issuperset(map(type, vector)):
                    raise TypeError(f"item {index} has a component that is not a number")
                if rows is None:
                    rows = np.empty((expected, len(vector)))
                elif len(vector) != rows.shape[1]:
                    raise ProviderError(f"embedding response is ragged: {len(vector)} != {rows.shape[1]} components")
                rows[index] = vector
                seen[index] = True
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ProviderError(f"malformed embedding response: {exc}") from exc
        if rows is None or not all(seen):
            raise ProviderError("embedding response missing indices")
        return rows


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

    def _admit(self, vectors) -> tuple[np.ndarray, np.ndarray]:
        """Vectors as an (n, d) float64 array, once every row is checked, and
        the rows' norms; a float64 array is checked as it is, in its layout,
        not copied.

        Each block of rows is admitted once, where it enters the gateway: a
        record the store yields, or a provider batch. A row passes when its
        norm from `row_norms` is finite and positive, exactly when it can be
        scaled to unit length: a component that is not finite, or a sum of
        squares that overflows, is refused as non-finite, and one that is
        zero or underflows as all-zero. A store written by older code may
        hold such a row. Every block must have the gateway's width.
        """
        try:
            rows = np.asarray(vectors, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ProviderError(f"provider returned ragged or non-numeric embeddings: {exc}") from exc
        if rows.ndim != 2 or rows.shape[1] == 0:
            raise ProviderError("provider returned a non-vector embedding")
        if self._dim is not None and rows.shape[1] != self._dim:
            raise ProviderError(f"embedding dimension mismatch: {rows.shape[1]} != {self._dim}")
        norms = row_norms(rows)
        # A NaN norm is neither; max and min pass it on.
        if not norms.max() < np.inf:
            raise ProviderError("an embedding has a non-finite component or norm")
        if not norms.min() > 0.0:
            raise ProviderError("an embedding is all-zero (or its norm underflows), so it has no direction")
        self._dim = rows.shape[1]
        return rows, norms

    def embed_texts(self, texts: Sequence[str], role: str, *, unit: bool = False) -> np.ndarray:
        """Embed texts under the given role as an (n, d) array; row i is input i.

        With `unit`, each row is scaled to unit length, with the bits of
        `m / np.linalg.norm(m, axis=1)[:, None]` for the row-major m of the
        raw rows: the norms `_admit` takes as it checks each block, then one
        divide. These are the rows the classifier compares; it normalises
        nothing itself.

        The array is column-major: its `.T` is C-contiguous. A split of
        documents then enters the classifier's (k, n) product `defs @ docs.T`
        as an untransposed operand, which makes that gemm about 30% cheaper
        than from row-major rows; the values are the same in either layout.
        The output is allocated once: before the store is read when the
        gateway knows its width, else at the first block of rows. `place`
        takes each admitted block in its own row-major buffer, a record the
        store yields (its read scratch) or a provider batch once the store
        holds it, divides it in place with `unit`, and makes the one
        transposing copy into the output. The bookkeeping of a call is in
        Python ints, which for the few keys of a definition set cost less
        than numpy calls.
        """
        if not texts:
            raise ValueError("texts must be nonempty")
        payloads = [apply_prefix(t, role, self._cfg) for t in texts]
        keys = cache_keys(self._cfg, role, payloads)
        out = np.empty((len(keys), self._dim), order="F") if self._dim else None

        def place(at: list[int], rows: np.ndarray, norms: np.ndarray) -> None:
            """out[at] = rows, divided by their norms with `unit` first, in
            rows' own buffer: a row-major divide, then one copy into the
            column-major out. Positions that run up one by one are written as
            a slice, which into a column-major out is about three times
            cheaper than fancy indexing."""
            nonlocal out
            if out is None:
                out = np.empty((len(keys), rows.shape[1]), order="F")
            if unit:
                rows /= norms[:, None]
            start = at[0]
            if at == list(range(start, start + len(at))):
                out[start : start + len(at)] = rows
            else:
                out[at] = rows

        missing = bytearray(b"\x01") * len(keys)
        for at, rows in self._cache.read(keys):
            place(at, *self._admit(rows))
            for i in at:
                missing[i] = 0
        pending: dict[bytes, list[int]] = {}  # each missing key's positions
        for i in compress(range(len(keys)), missing):
            pending.setdefault(keys[i], []).append(i)
        for batch, rows, norms in self._fetch([(key, payloads[at[0]]) for key, at in pending.items()]):
            at = [i for key in batch for i in pending[key]]
            if len(at) > len(batch):  # a text given more than once
                repeats = [j for j, key in enumerate(batch) for _ in pending[key]]
                rows, norms = rows[repeats], norms[repeats]
            place(at, rows, norms)
        return out

    def _fetch(self, items: list[tuple[bytes, str]]) -> Iterator[tuple[list[bytes], np.ndarray, np.ndarray]]:
        """Embed (key, payload) misses in batches, yielding (keys, rows,
        norms) per batch once it is admitted and cached, in batch order.

        Up to `concurrency` requests are in flight: one more is sent each time
        a reply is taken, so at most `concurrency` replies wait for the
        consumer. A failed batch stops the rest; those before it stay cached.
        """
        cfg = self._cfg
        batches = [items[i : i + cfg.max_batch] for i in range(0, len(items), cfg.max_batch)]

        def run(batch):
            return self._provider.embed_batch([p for _, p in batch])

        def store(batch, vectors) -> tuple[list[bytes], np.ndarray, np.ndarray]:
            if len(vectors) != len(batch):
                raise ProviderError("provider returned wrong number of embeddings")
            keys, (rows, norms) = [k for k, _ in batch], self._admit(vectors)
            self._cache.put(keys, rows)
            return keys, rows, norms

        if len(batches) <= 1 or cfg.concurrency <= 1:
            for batch in batches:
                yield store(batch, run(batch))
            return
        with ThreadPoolExecutor(max_workers=min(cfg.concurrency, len(batches))) as pool:
            replies = deque(pool.submit(run, batch) for batch in batches[: cfg.concurrency])
            for i, batch in enumerate(batches):
                vectors = replies.popleft().result()
                if i + cfg.concurrency < len(batches):
                    replies.append(pool.submit(run, batches[i + cfg.concurrency]))
                yield store(batch, vectors)

    def embed_definitions(self, definitions: Mapping[str, str], categories: Sequence[str]) -> np.ndarray:
        """A (k, d) array of unit rows, one per category in category index
        order, in `embed_texts`'s column-major layout. Every caller passes a
        set that `refinement.validate_definitions` has checked."""
        return self.embed_texts([definitions[c] for c in categories], ROLE_DEFINITION, unit=True)
