"""Prefixing, batching, caching, retries, and the HTTP wire format."""

import hashlib
import json
import multiprocessing
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from defrefine.embeddings import (
    EmbedderConfig,
    EmbeddingCache,
    EmbeddingGateway,
    HttpEmbeddingProvider,
    MockEmbeddingProvider,
    STORE_MAGIC,
    apply_prefix,
)
from defrefine.errors import ConfigError, ProviderError

from conftest import mock_gateway


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
    def test_second_call_hits_cache(self, gateway):
        gateway.embed_texts(["same text"], "document")
        gateway.embed_texts(["same text"], "document")
        assert gateway._provider.requests == 1

    def test_batch_count(self):
        gw = mock_gateway()
        gw._cfg.max_batch = 100
        gw.embed_texts([f"text {i}" for i in range(250)], "document")
        assert gw._provider.requests == 3

    def test_one_definition_change_adds_one_key(self, gateway):
        defs = {c: f"def {c}" for c in ("a", "b", "c")}
        gateway.embed_definitions(defs, ("a", "b", "c"))
        before = len(gateway.cache)
        defs["b"] = "revised def b"
        gateway.embed_definitions(defs, ("a", "b", "c"))
        assert len(gateway.cache) == before + 1

    def test_roles_do_not_share_cache_entries(self):
        gw = mock_gateway()
        gw._cfg.document_prefix = "query: "
        gw._cfg.definition_prefix = "label: "
        gw.embed_texts(["shared"], "document")
        gw.embed_texts(["shared"], "definition")
        assert len(gw.cache) == 2

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


def _assert_holds_exactly(path, tags) -> None:
    cache = EmbeddingCache(path)
    assert len(cache) == 3 * len(tags)
    for tag in tags:
        keys, rows = _batch(tag)
        for key, row in zip(keys, rows):
            assert cache.get(key).tobytes() == row.tobytes()


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

    def test_append_after_torn_tail(self, tmp_path):
        path = tmp_path / "cache.bin"
        ends = _write_store(path, [1, 2])
        with open(path, "r+b") as fh:
            fh.truncate(ends[1] - 10)
        _write_store(path, [3])
        _assert_holds_exactly(path, [1, 3])

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
            for key, row in zip(keys, rows):
                assert cache.get(key).tobytes() == row.tobytes()


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


class TestAlignment:
    def test_output_aligned_with_input(self, gateway):
        texts = [f"t{i}" for i in range(10)]
        singles = [gateway.embed_texts([t], "document")[0] for t in texts]
        mixed = ["t3", "t3", "t7", "t0", "t9", "t7"]
        out = gateway.embed_texts(mixed, "document")
        for text, vec in zip(mixed, out):
            np.testing.assert_array_equal(vec, singles[int(text[1:])])

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
        direct = gateway.embed_texts([defs[c] for c in cats], "definition")
        for a, b in zip(vecs, direct):
            np.testing.assert_array_equal(a, b)

    def test_missing_category_rejected(self, gateway):
        with pytest.raises(ValueError, match="missing"):
            gateway.embed_definitions({"a": "x"}, ("a", "b"))


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
    def test_batches_before_a_failed_one_stay_cached(self, concurrency):
        class FailsOnBad:
            inner = MockEmbeddingProvider(8)

            def embed_batch(self, texts):
                if "bad" in texts:
                    raise ProviderError("refused")
                return self.inner.embed_batch(texts)

        gw = EmbeddingGateway(_cfg(max_batch=2, concurrency=concurrency), EmbeddingCache(), FailsOnBad())
        with pytest.raises(ProviderError, match="refused"):
            gw.embed_texts(["a", "b", "bad", "c", "d", "e"], "document")
        assert len(gw.cache) == 2
        gw.embed_texts(["a", "b"], "document")
        assert len(gw.cache) == 2

    def test_non_finite_component_rejected(self):
        class BadProvider:
            def embed_batch(self, texts):
                return [[1.0, float("nan")] for _ in texts]

        gw = EmbeddingGateway(_cfg(), EmbeddingCache(), BadProvider())
        with pytest.raises(ProviderError, match="non-finite"):
            gw.embed_texts(["a"], "document")


class _ScriptedHttp(BaseHTTPRequestHandler):
    """Embeddings endpoint that records request bodies.

    Class attributes are (re)set per test: `statuses` is a queue of HTTP
    status codes to emit before serving real vectors, and `indices`, when
    set, replaces the `index` values of the reply.
    """

    bodies: list = []
    statuses: list = []
    indices: list | None = None
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
        data = [
            {"index": i, "embedding": [float(n + 1)] * type(self).dim}
            for n, i in enumerate(indices)
        ]
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
        assert vectors == [[1.0] * 6, [2.0] * 6]
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

    def test_unreachable_endpoint(self):
        cfg = _cfg(endpoint="http://127.0.0.1:9/none", retries=0, timeout=0.2)
        with pytest.raises(ProviderError, match="unreachable"):
            HttpEmbeddingProvider(cfg, api_key="").embed_batch(["a"])

    def test_gateway_over_http_with_flaky_provider(self):
        gw = EmbeddingGateway(_cfg(), EmbeddingCache(), _FlakyProvider(0))
        out = gw.embed_texts(["x", "y"], "document")
        assert len(out) == 2
