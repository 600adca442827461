"""Loader validation and seeded sampling behavior."""

import csv
import json
import random
import re

import pytest

from defrefine.corpus import Dataset, Document, load_dataset, sample_instance, split_view
from defrefine.errors import DataError

from conftest import write_jsonl_dataset

# Per-category dev/test sizes of the 17-class news benchmark shape; train is
# always 200. Used to build a synthetic file with the same split geometry.
NEWS17_CATEGORIES = [
    "Art & Design", "Books", "Dance", "Fashion & Style", "Food", "Health",
    "Media", "Movies", "Music", "Opinion", "Real Estate", "Science",
    "Sports", "Technology", "Television", "Theater", "Travel",
]
NEWS17_DEV = [257, 284, 318, 309, 326, 285, 312, 325, 299, 280, 289, 308, 314, 300, 301, 281, 301]
NEWS17_TEST = [313, 305, 318, 307, 290, 307, 326, 292, 286, 284, 299, 306, 280, 325, 281, 311, 287]


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def test_load_jsonl_roundtrip(tmp_path, toy_dataset):
    path = write_jsonl_dataset(tmp_path / "toy.jsonl", toy_dataset)
    loaded = load_dataset(path)
    assert loaded.categories == toy_dataset.categories
    assert loaded.documents == toy_dataset.documents
    assert loaded.name == "toy"


def test_categories_default_to_sorted_labels(tmp_path):
    rows = [
        {"id": "a", "text": "x", "label": "zed", "split": "train"},
        {"id": "b", "text": "y", "label": "ack", "split": "train"},
    ]
    ds = load_dataset(_write_rows(tmp_path / "d.jsonl", rows))
    assert ds.categories == ("ack", "zed")


def test_categories_sidecar_sets_order(tmp_path):
    rows = [
        {"id": "a", "text": "x", "label": "zed", "split": "train"},
        {"id": "b", "text": "y", "label": "ack", "split": "train"},
    ]
    path = _write_rows(tmp_path / "d.jsonl", rows)
    sidecar = tmp_path / "cats.txt"
    sidecar.write_text("zed\nack\n")
    ds = load_dataset(path, categories_path=sidecar)
    assert ds.categories == ("zed", "ack")


def test_news17_shape(tmp_path):
    rows = []
    i = 0
    for c, n_dev, n_test in zip(NEWS17_CATEGORIES, NEWS17_DEV, NEWS17_TEST):
        for split, n in (("train", 200), ("dev", n_dev), ("test", n_test)):
            for _ in range(n):
                rows.append({"id": f"r{i}", "text": "body", "label": c, "split": split})
                i += 1
    ds = load_dataset(_write_rows(tmp_path / "news.jsonl", rows))
    assert len(ds.categories) == 17
    art = [d for d in ds.documents if d.label == "Art & Design"]
    assert (
        sum(d.split == "train" for d in art),
        sum(d.split == "dev" for d in art),
        sum(d.split == "test" for d in art),
    ) == (200, 257, 313)
    # Sum of the dev column.
    assert len(split_view(ds, "dev")) == 5089
    assert len(split_view(ds, "dev")) == sum(NEWS17_DEV)


def test_url10_shape(tmp_path):
    rows = []
    i = 0
    for c in [f"cat{j:02d}" for j in range(10)]:
        for split, n in (("train", 200), ("dev", 200), ("test", 600)):
            for _ in range(n):
                rows.append({"id": f"r{i}", "text": "body", "label": c, "split": split})
                i += 1
    ds = load_dataset(_write_rows(tmp_path / "url10.jsonl", rows))
    assert len(split_view(ds, "test")) == 6000
    assert len(ds.documents) == 10000


def test_empty_file_errors(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(DataError, match="no records"):
        load_dataset(path)


def test_malformed_line_reports_row(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "x", "label": "l", "split": "train"}\n{oops\n')
    with pytest.raises(DataError, match="line 2"):
        load_dataset(path)


@pytest.mark.parametrize("line", ["[1, 2]", "5", '"x"', "null"])
def test_record_that_is_not_an_object_reports_row(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "x", "label": "l", "split": "train"}\n' + line + "\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: line 2: record is not a JSON object")):
        load_dataset(path)


def test_category_index_is_built_once(toy_dataset):
    index = toy_dataset.category_index
    assert index == {c: i for i, c in enumerate(toy_dataset.categories)}
    assert toy_dataset.category_index is index


def test_duplicate_id_errors(tmp_path):
    rows = [
        {"id": "a", "text": "x", "label": "l", "split": "train"},
        {"id": "a", "text": "y", "label": "l", "split": "dev"},
    ]
    with pytest.raises(DataError, match="duplicate id"):
        load_dataset(_write_rows(tmp_path / "d.jsonl", rows))


def test_unknown_split_errors(tmp_path):
    rows = [{"id": "a", "text": "x", "label": "l", "split": "validation"}]
    with pytest.raises(DataError, match="unknown split"):
        load_dataset(_write_rows(tmp_path / "d.jsonl", rows))


def test_label_outside_sidecar_errors(tmp_path):
    rows = [{"id": "a", "text": "x", "label": "mystery", "split": "train"}]
    path = _write_rows(tmp_path / "d.jsonl", rows)
    sidecar = tmp_path / "cats.txt"
    sidecar.write_text("known\n")
    with pytest.raises(DataError, match="not in declared categories"):
        load_dataset(path, categories_path=sidecar)


def test_csv_with_quoted_fields(tmp_path):
    path = tmp_path / "d.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text", "label", "split"])
        writer.writerow(["a", 'long text, with "quotes"\nand a newline', "l", "train"])
        writer.writerow(["b", "short", "l", "test"])
    ds = load_dataset(path, format="csv")
    assert len(ds.documents) == 2
    assert "newline" in ds.documents[0].text


def test_csv_missing_column_errors(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,text,label\na,x,l\n")
    with pytest.raises(DataError, match="missing columns"):
        load_dataset(path, format="csv")


def test_split_view_partition(toy_dataset):
    total = sum(len(split_view(toy_dataset, s)) for s in ("train", "dev", "test"))
    assert total == len(toy_dataset.documents)
    # Stable insertion order within a view.
    ids = [d.id for d in split_view(toy_dataset, "train")]
    assert ids == sorted(ids, key=lambda x: int(x[1:]))


def test_sample_requires_rng(toy_dataset):
    with pytest.raises(ValueError):
        sample_instance(toy_dataset, "train")


def test_sample_singleton_stratum():
    ds = Dataset(
        "one",
        ("a", "b"),
        (Document("x", "t", "a", "train"), Document("y", "t", "b", "dev")),
    )
    doc = sample_instance(ds, "train", rng=random.Random(0))
    assert doc.id == "x"


def test_sample_empty_stratum_errors(toy_dataset):
    with pytest.raises(DataError, match="empty stratum"):
        sample_instance(toy_dataset, "train", category="missing-cat", rng=random.Random(0))


def test_sample_respects_category(toy_dataset):
    rng = random.Random(3)
    for _ in range(50):
        assert sample_instance(toy_dataset, "train", category="beta", rng=rng).label == "beta"


def test_sample_deterministic_under_seed(toy_dataset):
    seq1 = [sample_instance(toy_dataset, "train", rng=random.Random(42)).id for _ in range(5)]
    rng_a, rng_b = random.Random(99), random.Random(99)
    draws_a = [sample_instance(toy_dataset, "train", rng=rng_a).id for _ in range(20)]
    draws_b = [sample_instance(toy_dataset, "train", rng=rng_b).id for _ in range(20)]
    assert draws_a == draws_b
    assert len(set(seq1)) == 1  # fresh rng each call repeats the same draw


def test_sample_consumes_exactly_one_draw(toy_dataset):
    rng = random.Random(5)
    ref = random.Random(5)
    sample_instance(toy_dataset, "train", rng=rng)
    ref.random()
    assert rng.getstate() == ref.getstate()


def test_sample_uniformity_over_small_stratum():
    docs = tuple(Document(f"d{i}", "t", "a", "train") for i in range(4))
    ds = Dataset("four", ("a", "b"), docs + (Document("e", "t", "b", "dev"),))
    rng = random.Random(2024)
    counts = {f"d{i}": 0 for i in range(4)}
    n = 10_000
    for _ in range(n):
        counts[sample_instance(ds, "train", rng=rng).id] += 1
    for c in counts.values():
        assert 0.23 <= c / n <= 0.27


def test_sample_picks_what_a_scan_of_the_corpus_picks():
    # Splits and labels interleave, so a stratum out of dataset order would
    # pick a different document for the same draw.
    docs = tuple(
        Document(f"d{i}", "t", "abc"[i % 3], ("train", "dev")[i % 2]) for i in range(60)
    )
    ds = Dataset("mixed", ("a", "b", "c"), docs)
    rng, ref = random.Random(8), random.Random(8)
    for split in ("train", "dev"):
        for category in (None, "a", "b", "c"):
            scan = [d for d in docs if d.split == split and category in (None, d.label)]
            for _ in range(20):
                expected = scan[min(int(ref.random() * len(scan)), len(scan) - 1)]
                assert sample_instance(ds, split, category=category, rng=rng) == expected
