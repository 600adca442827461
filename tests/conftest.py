"""Shared fixtures: synthetic datasets and mock-backed gateways."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from defrefine.corpus import Dataset, Document
from defrefine.embeddings import EmbedderConfig, EmbeddingCache, EmbeddingGateway, MockEmbeddingProvider

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


def junk_definitions(tag, categories=TOY_CATEGORIES) -> dict[str, str]:
    return {c: f"cand-{tag} filler about {c}" for c in categories}


@pytest.fixture
def toy_dataset() -> Dataset:
    return separable_dataset()


@pytest.fixture
def gateway() -> EmbeddingGateway:
    return mock_gateway()
