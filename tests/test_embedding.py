"""Prefixing, batching, caching, retries, and the HTTP wire format."""

import hashlib
import json
import multiprocessing
import os
import random
import re
import shutil
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest

from defrefine import embeddings
from defrefine.embeddings import (
    EmbedderConfig,
    EmbeddingCache,
    EmbeddingGateway,
    HttpEmbeddingProvider,
    MockEmbeddingProvider,
    STORE_MAGIC,
    apply_prefix,
    cache_keys,
)
from defrefine.errors import ConfigError, ProviderError
from defrefine.refinement import validate_definitions

from conftest import mock_gateway

DATA = Path(__file__).parent / "data"


def _cfg(**kwargs):
    defaults = dict(endpoint="mock:", model_id="m")
    defaults.update(kwargs)
    return EmbedderConfig(**defaults)


class TestApplyPrefix:
    def test_document_prefix(self):
        cfg = _cfg(document_prefix="query: ")
        assert apply_prefix("hello", "document", cfg) == "query: hello"

    def test_empty_prefix_is_identity(self):
        assert apply_prefix("hello", "document", _cfg()) == "hello"

    def test_roles_use_their_own_prefix(self):
        cfg = _cfg(document_prefix="passage: ", definition_prefix="classification: ")
        assert apply_prefix("x", "document", cfg).startswith("passage: ")
        assert apply_prefix("x", "definition", cfg).startswith("classification: ")

    def test_truncation_after_concatenation(self):
        cfg = _cfg(document_prefix="query: ", max_input_chars=8192)
        out = apply_prefix("x" * 10_000, "document", cfg)
        assert len(out) == 8192
        assert out.startswith("query: ")


class TestCache:
    def test_second_call_hits_cache(self, tmp_path):
        gateway = mock_gateway(cache_path=tmp_path / "cache.bin")
        gateway.embed_texts(["same text"], "document")
        gateway.embed_texts(["same text"], "document")
        assert gateway._provider.requests == 1
        gateway.cache.close()

    def test_batch_count(self):
        gw = mock_gateway()
        gw._cfg.max_batch = 100
        gw.embed_texts([f"text {i}" for i in range(250)], "document")
        assert gw._provider.requests == 3

    def test_one_definition_change_adds_one_key(self, tmp_path):
        gateway = mock_gateway(cache_path=tmp_path / "cache.bin")
        defs = {c: f"def {c}" for c in ("a", "b", "c")}
        gateway.embed_definitions(defs, ("a", "b", "c"))
        before = len(gateway.cache)
        defs["b"] = "revised def b"
        gateway.embed_definitions(defs, ("a", "b", "c"))
        assert len(gateway.cache) == before + 1
        gateway.cache.close()

    def test_roles_do_not_share_cache_entries(self, tmp_path):
        gw = mock_gateway(cache_path=tmp_path / "cache.bin")
        gw._cfg.document_prefix = "query: "
        gw._cfg.definition_prefix = "label: "
        gw.embed_texts(["shared"], "document")
        gw.embed_texts(["shared"], "definition")
        assert len(gw.cache) == 2
        gw.cache.close()

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        gw1 = mock_gateway(cache_path=path)
        [vec] = gw1.embed_texts(["persisted"], "document")
        gw1.cache.close()
        gw2 = mock_gateway(cache_path=path)
        [again] = gw2.embed_texts(["persisted"], "document")
        assert gw2._provider.requests == 0
        np.testing.assert_array_equal(vec, again)

    def test_providers_sharing_a_model_id_do_not_share_vectors(self, tmp_path):
        path = tmp_path / "cache.bin"
        served = []
        for seed in (0, 1):
            cfg = _cfg(endpoint=f"mock:dim=8,seed={seed}", model_id="shared")
            provider = MockEmbeddingProvider(8, seed)
            gw = EmbeddingGateway(cfg, EmbeddingCache(path), provider)
            served.append(gw.embed_texts(["same text"], "document")[0])
            gw.cache.close()
            assert provider.requests == 1
            np.testing.assert_array_equal(served[-1], provider.embed_batch(["same text"])[0])
        assert not np.array_equal(served[0], served[1])

    def test_keys_are_pinned(self):
        # Digests of the two-update-per-field hashing the store was first
        # written with; a store's keys must never drift.
        cfg = _cfg(endpoint="https://embed.example/v1/embeddings", model_id="e5-large", document_prefix="query: ")
        keys = cache_keys(cfg, "document", ["Säure & Base — 42", ""])
        assert [k.hex() for k in keys] == [
            "6f6e7595c2253a41fb2316eb681428f4549076ca10ff1f3577e400565883a8e6",
            "d93fa1e4c82034e10a742aa8955142adf9ece1c3d75c2b77174a6218802ded29",
        ]

    def test_malformed_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "cache.bin"
        gw1 = mock_gateway(cache_path=path)
        gw1.embed_texts(["kept"], "document")
        gw1.cache.close()
        record = path.read_bytes()[len(STORE_MAGIC) :]
        with open(path, "ab") as fh:
            fh.write(record[: len(record) // 2])
        cache = EmbeddingCache(path)
        assert len(cache) == 1


def _batch(tag: int, n: int = 3, dim: int = 6):
    """n distinct 32-byte keys and an (n, dim) float64 block, both fixed by tag."""
    keys = [hashlib.sha256(f"{tag}-{i}".encode()).digest() for i in range(n)]
    return keys, np.random.default_rng(tag).standard_normal((n, dim))


def _write_store(path, tags) -> list[int]:
    """One put per tag; the file size after each, i.e. each record's end offset."""
    cache = EmbeddingCache(path)
    ends = []
    for tag in tags:
        cache.put(*_batch(tag))
        ends.append(path.stat().st_size)
    cache.close()
    return ends


def _served(cache, keys) -> list[bytes | None]:
    """The bytes of the row the cache serves for each key; None for a miss."""
    served: list[bytes | None] = [None] * len(keys)
    for at, rows in cache.read(keys):
        for i, row in zip(at, rows):
            served[i] = row.tobytes()
    return served


def _assert_holds_exactly(path, tags) -> None:
    cache = EmbeddingCache(path)
    assert len(cache) == 3 * len(tags)
    for tag in tags:
        keys, rows = _batch(tag)
        assert _served(cache, keys) == [row.tobytes() for row in rows]
    cache.close()


def _append_batches(path: str, tag_base: int, barrier) -> None:
    cache = EmbeddingCache(path)
    barrier.wait(timeout=60)
    for b in range(150):
        cache.put(*_batch(tag_base + b, n=40, dim=64))
    cache.close()


class TestStore:
    @pytest.mark.parametrize("kept", [1, 4, 8, 15, 16, 17, 50, 112, -1])
    def test_torn_last_record_costs_only_itself(self, tmp_path, kept):
        path = tmp_path / "cache.bin"
        ends = _write_store(path, [1, 2, 3])
        last = ends[2] - ends[1]
        with open(path, "r+b") as fh:
            fh.truncate(ends[1] + kept % last)
        _assert_holds_exactly(path, [1, 2])

    @pytest.mark.parametrize(
        "at", [0, 5, 8, 12, 16 + 40, 16 + 3 * 32 + 77], ids=["sync", "crc", "rows", "dim", "key", "vector"]
    )
    def test_corrupt_middle_record_costs_only_itself(self, tmp_path, at):
        path = tmp_path / "cache.bin"
        ends = _write_store(path, [1, 2, 3])
        data = bytearray(path.read_bytes())
        data[ends[0] + at] ^= 0xFF
        path.write_bytes(bytes(data))
        _assert_holds_exactly(path, [1, 3])

    @pytest.mark.parametrize("chunk", [4, 7, 61])
    def test_open_in_chunks_smaller_than_a_record(self, tmp_path, monkeypatch, chunk):
        # A 256-byte record spans many chunks, and so may the sync marker
        # that the scan resyncs at after the damaged record.
        monkeypatch.setattr(embeddings, "_SCAN_CHUNK", chunk)
        path = tmp_path / "cache.bin"
        ends = _write_store(path, [1, 2, 3, 4])
        data = bytearray(path.read_bytes())
        data[ends[0]] ^= 0xFF
        data[ends[2] + 16 + 3 * 32 + 77] ^= 0xFF
        path.write_bytes(bytes(data))
        _assert_holds_exactly(path, [1, 3])

    def test_open_reads_each_record_once(self, tmp_path, monkeypatch):
        # The store magic, then per record its 16-byte header, which sizes
        # the record, and the whole record, which is checked and indexed from
        # that one read; no byte of a record is read twice.
        path = tmp_path / "cache.bin"
        ends = _write_store(path, [1, 2, 3])
        reads = []
        pread, preadv = os.pread, os.preadv

        def spy_pread(fd, length, offset):
            reads.append((offset, length))
            return pread(fd, length, offset)

        def spy_preadv(fd, buffers, offset):
            reads.append((offset, sum(memoryview(b).nbytes for b in buffers)))
            return preadv(fd, buffers, offset)

        monkeypatch.setattr(embeddings.os, "pread", spy_pread)
        monkeypatch.setattr(embeddings.os, "preadv", spy_preadv)
        cache = EmbeddingCache(path)
        assert len(cache) == 9
        starts = [len(STORE_MAGIC), *ends[:-1]]
        expected = [(0, len(STORE_MAGIC))]
        for start, end in zip(starts, ends):
            expected += [(start, 16), (start, end - start)]
        assert reads == expected
        cache.close()

    def test_append_after_torn_tail(self, tmp_path):
        path = tmp_path / "cache.bin"
        ends = _write_store(path, [1, 2])
        with open(path, "r+b") as fh:
            fh.truncate(ends[1] - 10)
        _write_store(path, [3])
        _assert_holds_exactly(path, [1, 3])

    def test_short_writes_are_finished(self, tmp_path, monkeypatch):
        # Each writev writes at most 5 bytes, so every record, the file magic
        # too, takes many calls that stop inside a buffer.
        real_write = os.write
        calls = []

        def short_writev(fd, buffers):
            calls.append(fd)
            first = next(view for view in map(memoryview, buffers) if view.nbytes)
            return real_write(fd, first.cast("B")[:5])

        monkeypatch.setattr(os, "writev", short_writev)
        path = tmp_path / "cache.bin"
        cache = EmbeddingCache(path)
        for tag in (1, 2):
            cache.put(*_batch(tag))
            keys, rows = _batch(tag)
            assert _served(cache, keys) == [row.tobytes() for row in rows]
        cache.close()
        assert len(calls) >= path.stat().st_size // 5
        assert path.read_bytes() == (DATA / "store_two_records.bin").read_bytes()
        _assert_holds_exactly(path, [1, 2])

    def test_put_copies_no_rows(self, tmp_path):
        # The rows go to the file from the caller's array, not through an
        # encoded copy of the record.
        keys, rows = _batch(0, n=100, dim=1024)
        path = tmp_path / "cache.bin"
        tracemalloc.start()
        try:
            cache = EmbeddingCache(path)
            cache.put(keys, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cache.close()
        assert peak < rows.nbytes / 4
        reopened = EmbeddingCache(path)
        assert _served(reopened, keys) == [row.tobytes() for row in rows]
        reopened.close()

    def test_foreign_file_is_rejected_and_left_unchanged(self, tmp_path):
        path = tmp_path / "embedding_cache.jsonl"
        legacy = json.dumps({"key": "k", "vector": [0.5, 0.25]}).encode() + b"\n"
        path.write_bytes(legacy)
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            EmbeddingCache(path)
        assert path.read_bytes() == legacy

    def test_two_processes_append_at_once(self, tmp_path):
        path = tmp_path / "cache.bin"
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        writers = [ctx.Process(target=_append_batches, args=(str(path), base, barrier)) for base in (0, 1000)]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in writers] == [0, 0]
        assert path.read_bytes().startswith(STORE_MAGIC)
        cache = EmbeddingCache(path)
        assert len(cache) == 2 * 150 * 40
        for tag in [*range(150), *range(1000, 1150)]:
            keys, rows = _batch(tag, n=40, dim=64)
            assert _served(cache, keys) == [row.tobytes() for row in rows]
        cache.close()


class _RecordingMock(MockEmbeddingProvider):
    """The mock provider, recording every text it is asked to embed."""

    def __init__(self, dim: int = 8, seed: int = 0):
        super().__init__(dim, seed)
        self.texts: list[str] = []

    def embed_batch(self, texts):
        self.texts.extend(texts)
        return super().embed_batch(texts)


def _three_batch_gateway(path, provider):
    return EmbeddingGateway(_cfg(max_batch=3, concurrency=1), EmbeddingCache(path), provider)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestServedFromDisk:
    """Stored rows are read back from the file when used, and checked again."""

    TEXTS = [f"text {i}" for i in range(9)]

    def _store(self, path) -> int:
        """Three records of three texts each; returns one record's size."""
        gw = _three_batch_gateway(path, MockEmbeddingProvider(8))
        gw.embed_texts(self.TEXTS, "document")
        gw.cache.close()
        return (path.stat().st_size - len(STORE_MAGIC)) // 3

    @pytest.mark.parametrize(
        "damage", ["flipped-row-byte", "truncated", "flipped-row-byte-after-put", "truncated-after-put"]
    )
    def test_record_damaged_after_open_is_fetched_again(self, tmp_path, caplog, damage):
        # "-after-put": the damaged records were appended by this same cache.
        path = tmp_path / "cache.bin"
        provider = _RecordingMock()
        if damage.endswith("-after-put"):
            gw = _three_batch_gateway(path, provider)
            gw.embed_texts(self.TEXTS, "document")
            size = (path.stat().st_size - len(STORE_MAGIC)) // 3
            provider.texts.clear()
        else:
            size = self._store(path)
            gw = _three_batch_gateway(path, provider)
        gw.embed_texts(self.TEXTS, "document")  # served from the file; the reader is open
        assert provider.texts == []
        with open(path, "r+b") as fh:
            if damage.startswith("truncated"):
                fh.truncate(len(STORE_MAGIC) + 2 * size + size // 2)
            else:
                at = len(STORE_MAGIC) + size + size - 5  # in the second record's last row
                fh.seek(at)
                byte = fh.read(1)[0]
                fh.seek(at)
                fh.write(bytes([byte ^ 0xFF]))
        served = gw.embed_texts(self.TEXTS, "document")
        damaged = self.TEXTS[6:9] if damage.startswith("truncated") else self.TEXTS[3:6]
        assert provider.texts == damaged
        assert "changed after open" in caplog.text
        expected = np.array(MockEmbeddingProvider(8).embed_batch(self.TEXTS))
        assert served.tobytes() == expected.tobytes()
        gw.cache.close()
        # The re-fetched rows were appended, so a new open serves every text.
        again = _three_batch_gateway(path, _RecordingMock())
        assert again.embed_texts(self.TEXTS, "document").tobytes() == expected.tobytes()
        assert again._provider.texts == []
        again.cache.close()

    @staticmethod
    def _flip_a_byte_of_the_second_record(path, size) -> None:
        at = len(STORE_MAGIC) + size + size - 5  # in the second record's last row
        with open(path, "r+b") as fh:
            fh.seek(at)
            byte = fh.read(1)[0]
            fh.seek(at)
            fh.write(bytes([byte ^ 0xFF]))

    @staticmethod
    def _spy_reads(monkeypatch) -> list[np.ndarray]:
        """Record the array each record's rows are read into."""
        dests = []
        preadv = os.preadv

        def spy(fd, buffers, offset):
            dests.append(buffers[-1])
            return preadv(fd, buffers, offset)

        monkeypatch.setattr(embeddings.os, "preadv", spy)
        return dests

    @pytest.mark.parametrize(
        "pick",
        [
            slice(1, 2),
            slice(0, 2),
            slice(2, None, -1),
            [0, 0, 1],
            [0, 1, 2, 0, 1, 2],
            [7, 0, 4, 1, 7],
            slice(2, 5),
            slice(1, 8),
            slice(None),
        ],
        ids=[
            "one-row",
            "first-rows",
            "record-reversed",
            "repeated-text",
            "record-twice",
            "alternating-records-with-a-repeat",
            "across-two-records",
            "partial-whole-partial",
            "all-records",
        ],
    )
    def test_any_choice_of_stored_rows_is_served(self, tmp_path, monkeypatch, pick):
        # Every record is read into one row-major scratch array, never into
        # the column-major output.
        path = tmp_path / "cache.bin"
        self._store(path)
        texts = list(np.array(self.TEXTS)[pick])
        provider = _RecordingMock()
        gw = _three_batch_gateway(path, provider)
        dests = self._spy_reads(monkeypatch)
        served = gw.embed_texts(texts, "document")
        assert provider.texts == []
        assert served.tobytes() == MockEmbeddingProvider(8).embed_batch(texts).tobytes()
        assert served.T.flags.c_contiguous
        assert dests and all(dest.flags.c_contiguous and np.shares_memory(dest, dests[0]) for dest in dests)
        assert not any(np.shares_memory(dest, served) for dest in dests)
        keys = cache_keys(gw._cfg, "document", texts)
        assert _served(gw.cache, keys) == [row.tobytes() for row in served]
        gw.cache.close()

    CASES = {
        "warm-whole-records": TEXTS,
        "two-records-out-of-order": ["text 7", "text 1", "text 6", "text 0"],
        "text-twice": ["text 4", "text 2", "text 4"],
        "cold": ["new 0", "new 1", "new 2", "new 3", "new 0"],
        "warm-and-cold": ["new 0", "text 5", "new 1", "text 3", "text 5"],
        "damaged": TEXTS,
    }

    def _case_gateway(self, path, case, provider):
        """A gateway over a three-record store, its second record damaged
        after open in the "damaged" case; the case's texts."""
        size = self._store(path)
        gw = _three_batch_gateway(path, provider)
        if case == "damaged":
            self._flip_a_byte_of_the_second_record(path, size)
        return gw, self.CASES[case]

    @pytest.mark.parametrize("case", list(CASES))
    def test_output_is_column_major_with_the_providers_values(self, tmp_path, case):
        # `.T` is C-contiguous, and each row holds the bytes the provider gave
        # for its text, however the rows reached the output.
        provider = _RecordingMock()
        gw, texts = self._case_gateway(tmp_path / "cache.bin", case, provider)
        served = gw.embed_texts(texts, "document")
        assert served.shape == (len(texts), 8) and served.dtype == np.float64
        assert served.T.flags.c_contiguous
        assert served.tobytes() == MockEmbeddingProvider(8).embed_batch(texts).tobytes()
        fetched = {"cold": texts[:4], "warm-and-cold": ["new 0", "new 1"], "damaged": self.TEXTS[3:6]}
        assert provider.texts == fetched.get(case, [])
        gw.cache.close()

    @pytest.mark.parametrize("case", list(CASES))
    def test_unit_output_has_the_bits_of_unit_rows(self, tmp_path, case):
        # Each block is divided by the norms it was checked with, as it is
        # placed, and gets the bits of normalising the whole raw output.
        gw, texts = self._case_gateway(tmp_path / "cache.bin", case, _RecordingMock())
        units = gw.embed_texts(texts, "document", unit=True)
        assert units.T.flags.c_contiguous
        raw = MockEmbeddingProvider(8).embed_batch(texts)
        assert units.tobytes() == (raw / np.linalg.norm(raw, axis=1)[:, None]).tobytes()
        gw.cache.close()

    @pytest.mark.parametrize("source", ["stored", "fetched"])
    @pytest.mark.parametrize("positions", ["in-order", "scattered"])
    def test_unit_rows_of_blocks_wider_than_a_norm_block(self, tmp_path, source, positions):
        # At this width `row_norms` takes 8 rows at a time, so each 20-row
        # record or batch is checked in three blocks; its rows reach the
        # output as one slice, or by fancy indexing when scattered.
        dim, texts = 4096, [f"text {i}" for i in range(20)]
        assert len(texts) * dim > 2 * embeddings._BLOCK_ELEMENTS
        asked = texts if positions == "in-order" else texts[::-1] + texts[:2]
        path = tmp_path / "cache.bin"
        if source == "stored":
            writer = EmbeddingGateway(_cfg(max_batch=20), EmbeddingCache(path), MockEmbeddingProvider(dim))
            writer.embed_texts(texts, "document")
            writer.cache.close()
        provider = _RecordingMock(dim)
        gw = EmbeddingGateway(_cfg(max_batch=20), EmbeddingCache(path), provider)
        units = gw.embed_texts(asked, "document", unit=True)
        assert units.T.flags.c_contiguous
        assert provider.texts == ([] if source == "stored" else texts[::-1] if positions == "scattered" else texts)
        raw = MockEmbeddingProvider(dim).embed_batch(asked)
        assert units.tobytes() == (raw / np.linalg.norm(raw, axis=1)[:, None]).tobytes()
        gw.cache.close()

    @pytest.mark.parametrize("texts", [TEXTS, ["a", "b", "a", "c", "b", "a"]], ids=["distinct", "repeated"])
    def test_store_keeps_the_raw_rows_of_a_unit_split(self, tmp_path, texts):
        # The gateway scales a provider batch in place only once the store
        # holds it; with a repeated text the batch reaches the output by fancy
        # indexing. The rows are three times unit length, so a scaled row on
        # disk would show.
        path = tmp_path / "cache.bin"
        cold = EmbeddingGateway(_cfg(max_batch=2, concurrency=1), EmbeddingCache(path), _Longer(8))
        units = cold.embed_texts(texts, "document", unit=True)
        cold.cache.close()
        raw = _Longer(8).embed_batch(texts)
        assert units.tobytes() == (raw / np.linalg.norm(raw, axis=1)[:, None]).tobytes()

        class Refuses:
            def embed_batch(self, texts):
                raise AssertionError(f"asked to embed {texts}")

        warm = EmbeddingGateway(_cfg(), EmbeddingCache(path), Refuses())
        assert warm.embed_texts(texts, "document").tobytes() == raw.tobytes()
        warm.cache.close()

    def test_store_shared_by_embedders_of_two_dims(self, tmp_path):
        path = tmp_path / "cache.bin"
        cache = EmbeddingCache(path)
        dims = (8, 4)
        gateways = [
            EmbeddingGateway(_cfg(model_id=f"m{dim}", max_batch=3, concurrency=1), cache, _RecordingMock(dim))
            for dim in dims
        ]
        gateways[0].embed_texts(self.TEXTS[:4], "document")
        gateways[1].embed_texts(self.TEXTS, "document")
        gateways[0].embed_texts(self.TEXTS, "document")
        cache.close()
        for reopened in (cache, EmbeddingCache(path)):
            for dim in dims:
                provider = _RecordingMock(dim)
                gw = EmbeddingGateway(_cfg(model_id=f"m{dim}", max_batch=3), reopened, provider)
                served = gw.embed_texts(self.TEXTS, "document")
                assert served.tobytes() == MockEmbeddingProvider(dim).embed_batch(self.TEXTS).tobytes()
                assert provider.texts == []
            reopened.close()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_record_failing_its_crc_leaves_its_output_rows_alone(self, tmp_path, caplog, order):
        path = tmp_path / "cache.bin"
        size = self._store(path)
        provider = _RecordingMock()
        gw = _three_batch_gateway(path, provider)
        self._flip_a_byte_of_the_second_record(path, size)
        keys = cache_keys(gw._cfg, "document", self.TEXTS)
        out = np.full((len(keys), 8), np.nan, order=order)
        found = np.zeros(len(keys), dtype=bool)
        for at, rows in gw.cache.read(keys):
            out[at], found[at] = rows, True
        expected = MockEmbeddingProvider(8).embed_batch(self.TEXTS)
        assert found.tolist() == [True] * 3 + [False] * 3 + [True] * 3
        assert np.isnan(out[3:6]).all()
        assert out[found].tobytes() == expected[found].tobytes()
        served = gw.embed_texts(self.TEXTS, "document")
        assert provider.texts == self.TEXTS[3:6]
        assert "changed after open" in caplog.text
        assert served.tobytes() == MockEmbeddingProvider(8).embed_batch(self.TEXTS).tobytes()
        gw.cache.close()

    def test_records_swapped_after_open_are_not_served_under_other_keys(self, tmp_path):
        # Each swapped record is intact, so only the key check can tell.
        path = tmp_path / "cache.bin"
        size = self._store(path)
        provider = _RecordingMock()
        gw = _three_batch_gateway(path, provider)
        gw.embed_texts(self.TEXTS, "document")
        data = path.read_bytes()
        first, second = (data[len(STORE_MAGIC) + i * size :][:size] for i in (0, 1))
        with open(path, "r+b") as fh:
            fh.seek(len(STORE_MAGIC))
            fh.write(second + first)
        served = gw.embed_texts(self.TEXTS, "document")
        assert provider.texts == self.TEXTS[:6]
        assert served.tobytes() == np.array(MockEmbeddingProvider(8).embed_batch(self.TEXTS)).tobytes()
        gw.cache.close()

    def test_store_removed_after_open_is_fetched_again(self, tmp_path, caplog):
        path = tmp_path / "cache.bin"
        self._store(path)
        provider = _RecordingMock()
        gw = _three_batch_gateway(path, provider)
        path.unlink()
        served = gw.embed_texts(self.TEXTS, "document")
        assert provider.texts == self.TEXTS
        assert "removed after open" in caplog.text
        assert served.tobytes() == np.array(MockEmbeddingProvider(8).embed_batch(self.TEXTS)).tobytes()
        gw.cache.close()

    def test_store_removed_after_a_put_is_fetched_again(self, tmp_path, caplog):
        path = tmp_path / "cache.bin"
        provider = _RecordingMock()
        gw = _three_batch_gateway(path, provider)
        gw.embed_texts(self.TEXTS, "document")
        path.unlink()
        served = gw.embed_texts(self.TEXTS, "document")
        assert provider.texts == self.TEXTS + self.TEXTS
        assert "removed after open" in caplog.text
        assert served.tobytes() == np.array(MockEmbeddingProvider(8).embed_batch(self.TEXTS)).tobytes()
        gw.cache.close()

    @pytest.mark.parametrize("before", ["put", "put-then-read", "opened"])
    @pytest.mark.parametrize("again", ["same-texts", "new-texts"])
    def test_store_removed_while_open_is_recreated_at_its_path(self, tmp_path, caplog, before, again):
        # Before the removal, the cache wrote the store ("put"), also read it
        # back so that its read descriptor is open ("put-then-read"), or only
        # opened a store written by another cache ("opened").
        path = tmp_path / "cache.bin"
        provider = _RecordingMock()
        if before == "opened":
            self._store(path)
            provider.texts.extend(self.TEXTS)
        gw = _three_batch_gateway(path, provider)
        if before != "opened":
            gw.embed_texts(self.TEXTS, "document")
        if before == "put-then-read":
            gw.embed_texts(self.TEXTS, "document")
        path.unlink()
        texts = self.TEXTS[:3] if again == "same-texts" else ["new 0", "new 1", "new 2"]
        expected = np.array(MockEmbeddingProvider(8).embed_batch(texts)).tobytes()
        assert gw.embed_texts(texts, "document").tobytes() == expected
        assert gw.embed_texts(texts, "document").tobytes() == expected
        assert provider.texts == self.TEXTS + texts
        if again == "same-texts":
            assert "removed after open" in caplog.text
        gw.cache.close()
        fresh = _three_batch_gateway(path, _RecordingMock())
        assert fresh.embed_texts(texts, "document").tobytes() == expected
        assert fresh._provider.texts == []
        assert path.read_bytes().startswith(STORE_MAGIC)
        assert len(fresh.cache) == 3
        fresh.cache.close()

    def test_store_written_by_the_in_memory_cache_serves_identical_bytes(self, tmp_path):
        # Written by the cache that read the whole store into memory (commit
        # d7031dd): one put of _batch(1), then one of _batch(2).
        path = tmp_path / "cache.bin"
        shutil.copyfile(DATA / "store_two_records.bin", path)
        cache = EmbeddingCache(path)
        assert len(cache) == 6
        for tag in (1, 2):
            keys, rows = _batch(tag)
            assert _served(cache, keys) == [row.tobytes() for row in rows]
        cache.put(*_batch(3))
        cache.close()
        assert path.read_bytes().startswith((DATA / "store_two_records.bin").read_bytes())
        _assert_holds_exactly(path, [1, 2, 3])

    @staticmethod
    def _large_store(path) -> None:
        """20 records of 20 rows at dim 1024: 3.3 MB of rows."""
        writer = EmbeddingCache(path)
        for tag in range(20):
            writer.put(*_batch(tag, n=20, dim=1024))
        writer.close()

    def test_open_holds_only_keys(self, tmp_path):
        path = tmp_path / "cache.bin"
        self._large_store(path)
        row_bytes = 20 * 20 * 1024 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cache = EmbeddingCache(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(cache) == 400
        assert held < row_bytes / 10
        cache.close()

    def test_store_is_written_byte_for_byte_as_before(self, tmp_path):
        path = tmp_path / "cache.bin"
        _write_store(path, [1, 2])
        assert path.read_bytes() == (DATA / "store_two_records.bin").read_bytes()

    def test_open_reads_the_store_a_chunk_at_a_time(self, tmp_path):
        path = tmp_path / "cache.bin"
        self._large_store(path)
        size = path.stat().st_size
        assert size >= 3 * 2**20
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cache = EmbeddingCache(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(cache) == 400
        assert peak < size / 4
        cache.close()

    def test_cold_embed_leaves_no_rows_in_the_cache(self, tmp_path):
        texts = [f"text {i}" for i in range(200)]
        row_bytes = len(texts) * 1024 * 8
        # Made first, so that nothing the mock imports on its first use is traced.
        expected = np.array(MockEmbeddingProvider(1024).embed_batch(texts))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cache = EmbeddingCache(tmp_path / "cache.bin")
            gw = EmbeddingGateway(_cfg(concurrency=2), cache, MockEmbeddingProvider(1024))
            out = gw.embed_texts(texts, "document")
            assert out.nbytes == row_bytes
            del out
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < row_bytes / 10
        # The rows are served from the file.
        assert gw.embed_texts(texts, "document").tobytes() == expected.tobytes()
        assert gw._provider.requests == 2
        cache.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_close_releases_the_read_descriptor(self, tmp_path):
        path = tmp_path / "cache.bin"
        _write_store(path, [1])
        before = _open_fds()
        cache = EmbeddingCache(path)
        assert _open_fds() == before  # opened at the first read, not on open
        keys, rows = _batch(1)
        assert _served(cache, keys) == [row.tobytes() for row in rows]
        assert _open_fds() == before + 1
        cache.close()
        assert _open_fds() == before


class TestStoreDamage:
    """Seeded random damage, as a property: each text comes back with the
    exact bytes it was stored with, or is fetched again; never as another
    vector. The provider of the damaged store has another seed, so a fetched
    row tells itself apart from a stored one."""

    TEXTS = [f"text {i}" for i in range(12)]
    TRIALS = 300

    @staticmethod
    def _damage(path, rng) -> None:
        """One to three byte flips or truncations, each past the store magic."""
        with open(path, "r+b") as fh:
            for _ in range(rng.randint(1, 3)):
                size = os.fstat(fh.fileno()).st_size
                if size <= len(STORE_MAGIC):
                    return
                at = rng.randrange(len(STORE_MAGIC), size)
                if rng.random() < 0.25:
                    fh.truncate(at)
                    continue
                fh.seek(at)
                byte = fh.read(1)[0]
                fh.seek(at)
                fh.write(bytes([byte ^ rng.randrange(1, 256)]))

    @pytest.mark.parametrize("when", ["before-open", "after-open"])
    def test_random_damage_never_serves_another_vector(self, tmp_path, when):
        # "after-open" damages the store under a gateway that holds it open,
        # as a sweep does between its cells, after a read in half the trials.
        rng = random.Random(f"store-damage-{when}")
        path = tmp_path / "cache.bin"
        writer = _three_batch_gateway(path, MockEmbeddingProvider(8))
        writer.embed_texts(self.TEXTS, "document")
        writer.cache.close()
        pristine = path.read_bytes()
        stored = MockEmbeddingProvider(8).embed_batch(self.TEXTS)
        refetched = MockEmbeddingProvider(8, seed=1).embed_batch(self.TEXTS)
        outcomes = {"stored": 0, "fetched": 0}
        for trial in range(self.TRIALS):
            path.write_bytes(pristine)
            provider = _RecordingMock(8, seed=1)
            if when == "before-open":
                self._damage(path, rng)
                gw = _three_batch_gateway(path, provider)
            else:
                gw = _three_batch_gateway(path, provider)
                if rng.random() < 0.5:
                    gw.embed_texts(self.TEXTS, "document")
                self._damage(path, rng)
            served = gw.embed_texts(self.TEXTS, "document")
            fetched = [text in provider.texts for text in self.TEXTS]
            assert len(provider.texts) == sum(fetched), trial
            expected = np.where(np.array(fetched)[:, None], refetched, stored)
            assert served.tobytes() == expected.tobytes(), trial
            outcomes["fetched"] += sum(fetched)
            outcomes["stored"] += len(fetched) - sum(fetched)
            gw.cache.close()
            # The fetched rows were appended: a new open serves the same bytes.
            again = _three_batch_gateway(path, _RecordingMock(8, seed=2))
            assert again.embed_texts(self.TEXTS, "document").tobytes() == served.tobytes(), trial
            assert again._provider.texts == [], trial
            again.cache.close()
        assert min(outcomes.values()) > 0, outcomes


class TestMockProvider:
    def test_dimension_and_norm(self):
        gw = mock_gateway(dim=48)
        vecs = gw.embed_texts(["a", "b"], "document")
        for v in vecs:
            assert v.shape == (48,)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_identical_texts_identical_vectors(self, gateway):
        defs = {"a": "same words", "b": "same words"}
        va, vb = gateway.embed_definitions(defs, ("a", "b"))
        np.testing.assert_array_equal(va, vb)

    def test_bitwise_repeatable(self):
        a = mock_gateway().embed_texts(["stable"], "document")[0]
        b = mock_gateway().embed_texts(["stable"], "document")[0]
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "dim, digest",
        [
            (8, "4f7567d4362270c5a1031fb1cd4541eced7ac08556e35e18851362c29a31b282"),
            (1024, "1c81251d3d68d465398bf74f07fde21863aad5801c4e450b3ffc20094a6ea9de"),
        ],
    )
    def test_vectors_are_pinned(self, dim, digest):
        # sha256 of the vectors as the mock made them when it returned lists of
        # floats; the bench digests rest on these bytes.
        texts = [f"text {i}" for i in range(5)] + ["", "ünïcode ✓"]
        vectors = MockEmbeddingProvider(dim).embed_batch(texts)
        assert type(vectors) is np.ndarray and vectors.dtype == np.float64
        assert vectors.shape == (len(texts), dim) and vectors.flags.c_contiguous
        assert hashlib.sha256(vectors.tobytes()).hexdigest() == digest

    def test_batch_allocates_little_beyond_its_array(self):
        texts = [f"text {i}" for i in range(100)]
        provider = MockEmbeddingProvider(1024)
        provider.embed_batch(texts[:1])  # so that nothing imported on first use is traced
        tracemalloc.start()
        try:
            vectors = provider.embed_batch(texts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * vectors.nbytes


class TestAlignment:
    def test_output_aligned_with_input(self, gateway):
        texts = [f"t{i}" for i in range(10)]
        singles = [gateway.embed_texts([t], "document")[0] for t in texts]
        mixed = ["t3", "t3", "t7", "t0", "t9", "t7"]
        out = gateway.embed_texts(mixed, "document")
        for text, vec in zip(mixed, out):
            np.testing.assert_array_equal(vec, singles[int(text[1:])])

    def test_repeated_texts_missing_from_the_cache(self):
        texts = ["a", "b", "a", "c", "b", "a"]
        gw = mock_gateway()
        gw._cfg.max_batch = 2
        out = gw.embed_texts(texts, "document")
        assert gw._provider.requests == 2
        expected = np.array(MockEmbeddingProvider(32).embed_batch(texts))
        assert out.tobytes() == expected.tobytes()

    def test_alignment_across_batches_and_concurrency(self):
        texts = [f"item {i}" for i in range(57)]
        seq = mock_gateway()
        seq._cfg.max_batch = 10
        seq._cfg.concurrency = 1
        par = mock_gateway()
        par._cfg.max_batch = 10
        par._cfg.concurrency = 4
        for a, b in zip(seq.embed_texts(texts, "document"), par.embed_texts(texts, "document")):
            np.testing.assert_array_equal(a, b)

    def test_empty_input_rejected(self, gateway):
        with pytest.raises(ValueError):
            gateway.embed_texts([], "document")


class TestDefinitions:
    def test_order_and_length(self, gateway):
        cats = [f"c{i}" for i in range(10)]
        defs = {c: f"def {c}" for c in cats}
        vecs = gateway.embed_definitions(defs, cats)
        assert len(vecs) == 10
        direct = gateway.embed_texts([defs[c] for c in cats], "definition", unit=True)
        for a, b in zip(vecs, direct):
            np.testing.assert_array_equal(a, b)

    def test_missing_category_rejected(self):
        # Every set reaches embed_definitions through this rule.
        with pytest.raises(ValueError, match="missing or empty definition for category 'b'"):
            validate_definitions({"a": "x"}, ("a", "b"))

    @pytest.mark.parametrize("source", ["fetched", "stored"])
    def test_unit_rows_in_column_major_layout(self, tmp_path, source):
        # The provider's rows are three units long, so only rows the gateway
        # normalised have the bits `row_norms` documents for the row-major
        # raw rows; the store holds the raw rows.
        cats = [f"c{i}" for i in range(5)]
        defs = {c: f"def {c}" for c in cats}
        path = tmp_path / "cache.bin"
        if source == "stored":
            writer = EmbeddingGateway(_cfg(), EmbeddingCache(path), _Longer(8))
            writer.embed_definitions(defs, cats)
            writer.cache.close()
        provider = _Longer(8)
        gw = EmbeddingGateway(_cfg(), EmbeddingCache(path), provider)
        units = gw.embed_definitions(defs, cats)
        assert provider.requests == (0 if source == "stored" else 1)
        assert units.shape == (5, 8) and units.T.flags.c_contiguous
        raw = _Longer(8).embed_batch([defs[c] for c in cats])
        assert raw.flags.c_contiguous
        assert units.tobytes() == (raw / np.linalg.norm(raw, axis=1)[:, None]).tobytes()
        gw.cache.close()

    @pytest.mark.parametrize(
        "value, match",
        [(0.0, "all-zero"), (1e200, "non-finite"), (np.inf, "non-finite"), (np.nan, "non-finite")],
        ids=["zero", "norm-overflows", "inf", "nan"],
    )
    def test_definition_with_no_direction_refused(self, value, match):
        # The gateway, not the classifier, refuses a definition row that
        # cannot be scaled to unit length.
        class OneBad:
            def embed_batch(self, texts):
                return [[value, value] if t == "bad" else [1.0, 0.0] for t in texts]

        gw = EmbeddingGateway(_cfg(), EmbeddingCache(), OneBad())
        with pytest.raises(ProviderError, match=match):
            gw.embed_definitions({"a": "fine", "b": "bad"}, ("a", "b"))
        assert len(gw.cache) == 0


class _Longer(MockEmbeddingProvider):
    """The mock's vectors, three times as long."""

    def embed_batch(self, texts):
        return 3.0 * super().embed_batch(texts)


class _FlakyProvider:
    """Fails n times, then behaves like the mock."""

    def __init__(self, failures, dim=8):
        self.failures = failures
        self.inner = MockEmbeddingProvider(dim)

    def embed_batch(self, texts):
        if self.failures > 0:
            self.failures -= 1
            raise ProviderError("transient")
        return self.inner.embed_batch(texts)


class TestValidation:
    def test_dimension_mismatch_across_calls(self):
        cfg = _cfg()

        class Shifty:
            def __init__(self):
                self.dim = 8

            def embed_batch(self, texts):
                out = MockEmbeddingProvider(self.dim).embed_batch(texts)
                self.dim += 1
                return out

        gw = EmbeddingGateway(cfg, EmbeddingCache(), Shifty())
        gw.embed_texts(["a"], "document")
        with pytest.raises(ProviderError, match="dimension mismatch"):
            gw.embed_texts(["b"], "document")

    @pytest.mark.parametrize("concurrency", [1, 3])
    def test_batches_before_a_failed_one_stay_cached(self, tmp_path, concurrency):
        class FailsOnBad:
            inner = MockEmbeddingProvider(8)

            def embed_batch(self, texts):
                if "bad" in texts:
                    raise ProviderError("refused")
                return self.inner.embed_batch(texts)

        cache = EmbeddingCache(tmp_path / "cache.bin")
        gw = EmbeddingGateway(_cfg(max_batch=2, concurrency=concurrency), cache, FailsOnBad())
        with pytest.raises(ProviderError, match="refused"):
            gw.embed_texts(["a", "b", "bad", "c", "d", "e"], "document")
        assert len(gw.cache) == 2
        gw.embed_texts(["a", "b"], "document")
        assert len(gw.cache) == 2
        cache.close()

    @pytest.mark.parametrize("concurrency", [1, 2, 4])
    def test_requests_stay_concurrency_batches_ahead(self, concurrency):
        # The first put runs while the consumer holds the first reply.
        started = threading.Condition()

        class Counting(MockEmbeddingProvider):
            calls = 0

            def embed_batch(self, texts):
                with started:
                    self.calls += 1
                    started.notify_all()
                return super().embed_batch(texts)

        provider = Counting(8)

        class SlowFirstPut(EmbeddingCache):
            calls_while_held = None

            def put(self, keys, rows):
                if self.calls_while_held is None:
                    with started:
                        started.wait_for(lambda: provider.calls > concurrency + 1, timeout=0.5)
                        self.calls_while_held = provider.calls
                super().put(keys, rows)

        cache = SlowFirstPut()
        gw = EmbeddingGateway(_cfg(max_batch=2, concurrency=concurrency), cache, provider)
        texts = [f"t{i}" for i in range(20)]
        out = gw.embed_texts(texts, "document")
        assert cache.calls_while_held <= concurrency + 1
        assert provider.requests == 10
        assert out.tobytes() == np.array(MockEmbeddingProvider(8).embed_batch(texts)).tobytes()

    def test_non_finite_component_rejected(self):
        class BadProvider:
            def embed_batch(self, texts):
                return [[1.0, float("nan")] for _ in texts]

        gw = EmbeddingGateway(_cfg(), EmbeddingCache(), BadProvider())
        with pytest.raises(ProviderError, match="non-finite"):
            gw.embed_texts(["a"], "document")

    def test_zero_vector_rejected(self):
        class ZeroRow:
            def embed_batch(self, texts):
                return [[0.0, 0.0] if t == "blank" else [1.0, 0.0] for t in texts]

        gw = EmbeddingGateway(_cfg(), EmbeddingCache(), ZeroRow())
        with pytest.raises(ProviderError, match="all-zero"):
            gw.embed_texts(["a", "blank"], "document")
        assert len(gw.cache) == 0

    @pytest.mark.parametrize(
        "scale, match",
        [(1e200, "non-finite"), (1e-170, "all-zero")],
        ids=["norm-overflows", "norm-underflows"],
    )
    def test_row_that_unit_rows_cannot_normalise_is_rejected(self, scale, match):
        # Every component is finite and nonzero, but the sum of squares is not
        # finite and positive, so the row has no unit direction to score by.
        class Extreme:
            def embed_batch(self, texts):
                return [[scale, scale] if t == "extreme" else [1.0, 0.0] for t in texts]

        gw = EmbeddingGateway(_cfg(), EmbeddingCache(), Extreme())
        with pytest.raises(ProviderError, match=match):
            gw.embed_texts(["a", "extreme"], "document")
        assert len(gw.cache) == 0

    @pytest.mark.parametrize(
        "scale, match",
        [(1e200, "non-finite"), (1e-170, "all-zero")],
        ids=["norm-overflows", "norm-underflows"],
    )
    def test_stored_row_that_unit_rows_cannot_normalise_is_rejected(self, tmp_path, scale, match):
        # `put` takes any finite row, as a store written by older code may
        # hold; the gateway checks the rows the store serves as well.
        path = tmp_path / "cache.bin"
        cache = EmbeddingCache(path)
        cache.put(cache_keys(_cfg(), "document", ["a", "extreme"]), np.array([[1.0, 0.0], [scale, scale]]))
        cache.close()
        provider = MockEmbeddingProvider(2)
        gw = EmbeddingGateway(_cfg(), EmbeddingCache(path), provider)
        with pytest.raises(ProviderError, match=match):
            gw.embed_texts(["a", "extreme"], "document")
        assert provider.requests == 0
        gw.cache.close()

    @pytest.mark.parametrize("learned", [False, True], ids=["stored-and-fetched", "after-a-call"])
    def test_stored_and_fetched_rows_of_different_widths(self, tmp_path, learned):
        path = tmp_path / "cache.bin"
        stored = EmbeddingGateway(_cfg(), EmbeddingCache(path), MockEmbeddingProvider(8))
        stored.embed_texts(["a"], "document")
        stored.cache.close()
        gw = EmbeddingGateway(_cfg(), EmbeddingCache(path), MockEmbeddingProvider(4))
        if learned:
            gw.embed_texts(["b"], "document")
        texts = ["a"] if learned else ["a", "c"]
        with pytest.raises(ProviderError, match="embedding dimension mismatch"):
            gw.embed_texts(texts, "document")
        gw.cache.close()


class _ScriptedHttp(BaseHTTPRequestHandler):
    """Embeddings endpoint that records request bodies.

    Class attributes are (re)set per test: `statuses` is a queue of HTTP
    status codes to emit before serving real vectors, and `indices`, when
    set, replaces the `index` values of the reply, as `embeddings` replaces
    its vectors.
    """

    bodies: list = []
    statuses: list = []
    indices: list | None = None
    embeddings: list | None = None
    dim = 6

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).bodies.append(body)
        if type(self).statuses:
            code = type(self).statuses.pop(0)
            self.send_response(code)
            self.end_headers()
            return
        indices = type(self).indices or range(len(body["input"]))
        embeddings = type(self).embeddings or [[float(n + 1)] * type(self).dim for n in range(len(indices))]
        data = [{"index": i, "embedding": e} for i, e in zip(indices, embeddings)]
        payload = json.dumps({"data": data}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    _ScriptedHttp.bodies = []
    _ScriptedHttp.statuses = []
    _ScriptedHttp.indices = None
    _ScriptedHttp.embeddings = None
    server = HTTPServer(("127.0.0.1", 0), _ScriptedHttp)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/embeddings"
    server.shutdown()
    server.server_close()


class TestHttpProvider:
    def test_wire_format(self, http_server):
        cfg = _cfg(endpoint=http_server, model_id="remote-model", backoff_base=0.001)
        vectors = HttpEmbeddingProvider(cfg, api_key="").embed_batch(["a", "b"])
        assert vectors.tolist() == [[1.0] * 6, [2.0] * 6]
        assert vectors.dtype == np.float64 and vectors.flags.c_contiguous
        body = _ScriptedHttp.bodies[0]
        assert body == {"model": "remote-model", "input": ["a", "b"]}

    def test_retries_transient_status(self, http_server):
        _ScriptedHttp.statuses = [500, 429]
        cfg = _cfg(endpoint=http_server, retries=3, backoff_base=0.001)
        vectors = HttpEmbeddingProvider(cfg, api_key="").embed_batch(["a"])
        assert len(vectors) == 1
        assert len(_ScriptedHttp.bodies) == 3

    def test_retry_budget_exhausted(self, http_server):
        _ScriptedHttp.statuses = [500, 500, 500]
        cfg = _cfg(endpoint=http_server, retries=2, backoff_base=0.001)
        with pytest.raises(ProviderError, match="unreachable after 3 attempts"):
            HttpEmbeddingProvider(cfg, api_key="").embed_batch(["a"])

    def test_non_retryable_status_fails_fast(self, http_server):
        _ScriptedHttp.statuses = [401]
        cfg = _cfg(endpoint=http_server, retries=3, backoff_base=0.001)
        with pytest.raises(ProviderError, match="status 401"):
            HttpEmbeddingProvider(cfg, api_key="").embed_batch(["a"])
        assert len(_ScriptedHttp.bodies) == 1

    @pytest.mark.parametrize(
        "indices",
        [[0, -2, 2], [0, 1, 2, 1], [0, 1, 3], [0, True, 2]],
        ids=["negative", "duplicate", "out-of-range", "not-an-int"],
    )
    def test_bad_index_rejected(self, http_server, indices):
        _ScriptedHttp.indices = indices
        cfg = _cfg(endpoint=http_server, retries=0)
        with pytest.raises(ProviderError, match="index"):
            HttpEmbeddingProvider(cfg, api_key="").embed_batch(["a", "b", "c"])

    def test_shuffled_indices_come_back_in_input_order(self, http_server):
        # Reply item n carries the vector [n + 1] * 6.
        _ScriptedHttp.indices = [2, 0, 1]
        cfg = _cfg(endpoint=http_server, retries=0)
        vectors = HttpEmbeddingProvider(cfg, api_key="").embed_batch(["a", "b", "c"])
        assert vectors.tolist() == [[2.0] * 6, [3.0] * 6, [1.0] * 6]

    @pytest.mark.parametrize(
        "embeddings, match",
        [
            ([[1.0] * 6, [2.0] * 5, [3.0] * 6], "ragged"),
            ([[1.0] * 6, [2.0], [3.0] * 6], "ragged"),
            ([[1.0] * 6, [2.0] * 5 + ["x"], [3.0] * 6], "malformed"),
            ([[1.0] * 6, [2.0] * 5 + [None], [3.0] * 6], "malformed"),
            ([[1.0] * 6, [2.0] * 5 + ["1.5"], [3.0] * 6], "malformed"),
            ([[1.0] * 6, [2.0] * 5 + [True], [3.0] * 6], "malformed"),
            ([[1.0] * 6, [2.0] * 5 + [10**400], [3.0] * 6], "malformed"),
            ([[1.0] * 6, [[2.0]] * 6, [3.0] * 6], "malformed"),
            ([[1.0] * 6, 2.0, [3.0] * 6], "malformed"),
        ],
        ids=[
            "short-row",
            "one-component-row",
            "string-component",
            "null-component",
            "numeric-string-component",
            "bool-component",
            "huge-int-component",
            "nested-row",
            "scalar-row",
        ],
    )
    def test_ragged_or_non_numeric_reply_rejected(self, http_server, embeddings, match):
        _ScriptedHttp.embeddings = embeddings
        cfg = _cfg(endpoint=http_server, retries=0)
        gw = EmbeddingGateway(cfg, EmbeddingCache(), HttpEmbeddingProvider(cfg, api_key=""))
        with pytest.raises(ProviderError, match=match):
            gw.embed_texts(["a", "b", "c"], "document")
        assert len(gw.cache) == 0

    def test_integer_components_accepted(self, http_server):
        # JSON has one number type; a reply may write 0 or 1 without a point.
        _ScriptedHttp.embeddings = [[1, 0, 0, 0, 0, 0], [0.5, -2, 0, 0, 0, 1e-3]]
        cfg = _cfg(endpoint=http_server, retries=0)
        vectors = HttpEmbeddingProvider(cfg, api_key="").embed_batch(["a", "b"])
        assert vectors.dtype == np.float64
        assert vectors.tolist() == [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.5, -2.0, 0.0, 0.0, 0.0, 1e-3]]

    def test_missing_index_rejected(self, http_server):
        _ScriptedHttp.indices = [0, 2]
        cfg = _cfg(endpoint=http_server, retries=0)
        with pytest.raises(ProviderError, match="missing indices"):
            HttpEmbeddingProvider(cfg, api_key="").embed_batch(["a", "b", "c"])

    def test_unreachable_endpoint(self):
        cfg = _cfg(endpoint="http://127.0.0.1:9/none", retries=0, timeout=0.2)
        with pytest.raises(ProviderError, match="unreachable"):
            HttpEmbeddingProvider(cfg, api_key="").embed_batch(["a"])

    def test_gateway_over_http_with_flaky_provider(self):
        gw = EmbeddingGateway(_cfg(), EmbeddingCache(), _FlakyProvider(0))
        out = gw.embed_texts(["x", "y"], "document")
        assert len(out) == 2
