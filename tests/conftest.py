"""Shared fixtures: synthetic datasets and mock-backed gateways."""

from __future__ import annotations

import errno
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from defrefine import errors
from defrefine.corpus import Dataset, Document
from defrefine.embeddings import EmbedderConfig, EmbeddingCache, EmbeddingGateway, MockEmbeddingProvider, row_norms
from defrefine.llm import ScriptedLlm

TOY_CATEGORIES = ("alpha", "beta", "gamma")


def ideal_definitions(categories=TOY_CATEGORIES) -> dict[str, str]:
    """Per-class texts that the mock embedder maps onto distinct unit vectors."""
    return {c: f"ideal text for {c} pages" for c in categories}


def separable_dataset(
    categories=TOY_CATEGORIES, n_train=3, n_dev=2, n_test=2, name="toy"
) -> Dataset:
    """Every document's text equals its class's ideal definition.

    With the hash-based mock embedder this makes each class's documents
    collinear with the ideal definition, so the ideal definition set
    classifies perfectly while any other set is at the mercy of hashing.
    """
    ideal = ideal_definitions(categories)
    docs = []
    i = 0
    for c in categories:
        for split, n in (("train", n_train), ("dev", n_dev), ("test", n_test)):
            for _ in range(n):
                docs.append(Document(f"d{i}", ideal[c], c, split))
                i += 1
    return Dataset(name, tuple(categories), tuple(docs))


def last_category_only_in_test() -> Dataset:
    """`separable_dataset` with its last category's documents in test only."""
    docs = separable_dataset().documents
    return Dataset("toy", TOY_CATEGORIES, tuple(d for d in docs if d.label != TOY_CATEGORIES[-1] or d.split == "test"))


def unit(vectors) -> np.ndarray:
    """The rows scaled to unit length, as a new float64 array in their layout,
    with the bits the embedding gateway gives them: `row_norms`, then one
    divide, which is `m / np.linalg.norm(m, axis=1)[:, None]` for row-major m."""
    matrix = np.array(vectors, dtype=np.float64)
    matrix /= row_norms(matrix)[:, None]
    return matrix


def mock_gateway(dim=32, seed=0, cache_path=None) -> EmbeddingGateway:
    cfg = EmbedderConfig(endpoint="mock:", model_id=f"mock-{dim}")
    return EmbeddingGateway(cfg, EmbeddingCache(cache_path), MockEmbeddingProvider(dim, seed))


def write_jsonl_dataset(path: Path, dataset: Dataset) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for d in dataset.documents:
            fh.write(
                json.dumps({"id": d.id, "text": d.text, "label": d.label, "split": d.split}) + "\n"
            )
    return path


def write_config(base: Path, dataset: Dataset, script, t_max=6, seed=11, extra=None) -> Path:
    """A refine config in base, with the dataset and the LLM script it names
    beside it: a mock embedder, a scripted LLM, m3 with k = m = 2, and
    `extra` over the top-level keys."""
    write_jsonl_dataset(base / "data.jsonl", dataset)
    (base / "script.json").write_text(json.dumps(script))
    raw = {
        "dataset": {"path": "data.jsonl", "format": "jsonl"},
        "embedder": {"endpoint": "mock:dim=32,seed=0", "model_id": "mock-embed"},
        "llm": {"endpoint": "script:script.json", "model_id": "scripted"},
        "strategy": {"name": "m3", "k": 2, "m": 2},
        "seed": seed,
        "t_max": t_max,
        "out_dir": "runs",
    }
    if extra:
        raw.update(extra)
    path = base / "config.json"
    path.write_text(json.dumps(raw, indent=2))
    return path


class Killed(BaseException):
    """A kill, where a test stops a run."""


def asked(monkeypatch, client=ScriptedLlm) -> dict[str, list]:
    """Record, from now on, each call number that an LLM client of class
    `client` is asked for ("calls") and each text that the mock embedding
    provider embeds ("texts"); the caller may clear the lists."""
    found = {"calls": [], "texts": []}
    complete, embed_batch = client.complete, MockEmbeddingProvider.embed_batch

    def recording_complete(self, prompt, call):
        found["calls"].append(call)
        return complete(self, prompt, call)

    def recording_embed_batch(self, texts):
        found["texts"].extend(texts)
        return embed_batch(self, texts)

    monkeypatch.setattr(client, "complete", recording_complete)
    monkeypatch.setattr(MockEmbeddingProvider, "embed_batch", recording_embed_batch)
    return found


class UnreadableFile(io.RawIOBase):
    """A file that opens, and fails every read as one on a failing disk does."""

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        raise OSError(errno.EIO, os.strerror(errno.EIO))


def fail_input(monkeypatch, where: str, path: Path | None = None) -> str:
    """Make `errors.read_input` fail on the file at path, or on every file if
    None: at its open ("open"), as a denied permission would (root may read
    any file, whatever its mode), or at its read ("read") with EIO. Returns
    the reason that the error names."""
    real_open = open

    def stand_in(file, *args, **kwargs):
        if path is not None and Path(file).resolve() != path.resolve():
            return real_open(file, *args, **kwargs)
        if where == "open":
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))
        return UnreadableFile()

    monkeypatch.setattr(errors, "open", stand_in, raising=False)
    return os.strerror(errno.EACCES if where == "open" else errno.EIO)


def junk_definitions(tag, categories=TOY_CATEGORIES) -> dict[str, str]:
    return {c: f"cand-{tag} filler about {c}" for c in categories}


@pytest.fixture
def toy_dataset() -> Dataset:
    return separable_dataset()


@pytest.fixture
def gateway() -> EmbeddingGateway:
    return mock_gateway()
