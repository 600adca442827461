"""Loader validation and seeded sampling behavior."""

import csv
import dataclasses
import json
import random
import re

import pytest

from defrefine import runner
from defrefine.corpus import Dataset, Document, load_dataset, sample_instance, split_view
from defrefine.errors import ConfigError, DataError, read_input

from conftest import fail_input, write_jsonl_dataset

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


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_one_object_per_distinct_label_and_split(tmp_path, toy_dataset, fmt):
    path = tmp_path / f"toy.{fmt}"
    if fmt == "jsonl":
        write_jsonl_dataset(path, toy_dataset)
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(Document._fields)
            writer.writerows(toy_dataset.documents)
    loaded = load_dataset(path, format=fmt)
    assert loaded == dataclasses.replace(toy_dataset, name="toy")
    assert len({id(d.label) for d in loaded.documents}) == len(toy_dataset.categories)
    assert len({id(d.split) for d in loaded.documents}) == 3


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


_A = '{"id": "a", "text": "x", "label": "l", "split": "train"}'
_B = '{"id": "b", "text": "y", "label": "l", "split": "train"}'
_AB = [("a", "x", "l", "train"), ("b", "y", "l", "train")]


def _with(field, raw):
    """_A with one field's value replaced by the raw JSON text `raw`."""
    return re.sub(rf'"{field}": "[^"]*"', f'"{field}": {raw}', _A)


# Each file's documents, or its DataError text ("{path}" is the file), as the
# loader that parsed each line with json.loads gave them.
JSONL_PARITY = [
    ("leading-whitespace", "  \t" + _A + "\n" + _B + "\n", _AB),
    ("trailing-whitespace", _A + " \t \n" + _B + "\n", _AB),
    ("crlf", _A + "\r\n" + _B + "\r\n", _AB),
    ("lone-cr", _A + "\r" + _B + "\n", _AB),
    ("no-final-newline", _A + "\n" + _B, _AB),
    (
        "bom",
        "﻿" + _A + "\n",
        "{path}: line 1: malformed record: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
    ),
    (
        "trailing-garbage",
        _A + "\n" + _B + " x\n",
        "{path}: line 2: malformed record: Extra data: line 1 column 58 (char 57)",
    ),
    ("nbsp-after-record", _A + "\xa0\n", "{path}: line 1: malformed record: Extra data: line 1 column 57 (char 56)"),
    ("two-objects-on-a-line", _A + _B + "\n", "{path}: line 1: malformed record: Extra data: line 1 column 57 (char 56)"),
    (
        "truncated-object",
        _A[:-1] + "\n",
        "{path}: line 1: malformed record: Expecting ',' delimiter: line 2 column 1 (char 56)",
    ),
    ("nan-and-infinity", _A[:-1] + ', "s": NaN, "w": Infinity, "v": -Infinity}\n', _AB[:1]),
    ("nan-field", _with("text", "NaN") + "\n", "{path}: line 1: missing or empty field 'text'"),
    ("array-record", _A + "\n[1, 2]\n", "{path}: line 2: record is not a JSON object"),
    ("number-record", _A + "\n5\n", "{path}: line 2: record is not a JSON object"),
    ("whitespace-only-lines", _A + "\n   \n\t\n\r\n" + _B + "\n\n", _AB),
    (
        "blank-lines-then-error",
        "\n \n" + _A + "\n\n{oops\n",
        "{path}: line 5: malformed record: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    ("duplicate-key", '{"id": "a", "text": "x", "id": "z", "label": "l", "split": "train"}\n', [("z", "x", "l", "train")]),
    (
        "unicode-escapes",
        '{"id": "\\u00e9", "text": "caf\\u00e9 \\ud83d\\ude00", "label": "l", "split": "dev"}\n',
        [("é", "café \U0001f600", "l", "dev")],
    ),
    ("two-bad-fields", _with("split", '""').replace('"x"', "null") + "\n", "{path}: line 1: missing or empty field 'text'"),
] + [
    (f"{kind}-{field}", line + "\n", f"{{path}}: line 1: missing or empty field {field!r}")
    for field, bad in (("id", "5"), ("text", "null"), ("label", "[]"), ("split", "true"))
    for kind, line in (
        ("non-string", _with(field, bad)),
        ("empty", _with(field, '""')),
        ("missing", re.sub(rf'"{field}": "[^"]*", |, "{field}": "[^"]*"', "", _A)),
    )
]


@pytest.mark.parametrize("content, expected", [pytest.param(c, e, id=name) for name, c, e in JSONL_PARITY])
def test_jsonl_records_parse_as_json_loads_parses_each_line(tmp_path, content, expected):
    path = tmp_path / "d.jsonl"
    path.write_bytes(content.encode("utf-8"))
    if isinstance(expected, str):
        with pytest.raises(DataError) as exc:
            load_dataset(path)
        assert str(exc.value) == expected.replace("{path}", str(path))
    else:
        assert [(d.id, d.text, d.label, d.split) for d in load_dataset(path).documents] == expected


def test_document_is_a_tuple():
    doc = Document("a", "x", "l", "train")
    assert doc == ("a", "x", "l", "train")
    assert (doc.id, doc.text, doc.label, doc.split) == tuple(doc)
    with pytest.raises(AttributeError):
        doc.text = "y"


@pytest.mark.parametrize("lines_before", [1, 500])
def test_jsonl_that_is_not_utf8_names_the_line(tmp_path, lines_before):
    # 500 lines put the bad byte past the reader's first decoded chunk.
    path = tmp_path / "d.jsonl"
    good = "".join(_A.replace('"a"', f'"a{i}"') + "\n" for i in range(lines_before)).encode()
    path.write_bytes(good + b'{"id": "b", "text": "caf\xff", "label": "l", "split": "train"}\n' + _B.encode())
    with pytest.raises(DataError, match=re.escape(f"{path}: line {lines_before + 1}: not valid UTF-8")):
        load_dataset(path)


def test_jsonl_ending_in_a_cut_character_names_the_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_bytes(_A.encode() + b"\n" + "café".encode()[:-1])
    with pytest.raises(DataError, match=re.escape(f"{path}: line 2: not valid UTF-8")):
        load_dataset(path)


@pytest.mark.parametrize("old", ['"x"', '"l"'], ids=["text", "label"])
@pytest.mark.parametrize("value", ['"\\ud800"', '"caf\\u00e9 \\udc80"', '"\\ude00\\ud83d"'])
def test_jsonl_text_or_label_with_a_lone_surrogate_names_the_line(tmp_path, old, value):
    # The line is valid UTF-8, but its JSON escape decodes to a lone surrogate,
    # which UTF-8 cannot encode: the first embed of the split would fail.
    path = tmp_path / "d.jsonl"
    path.write_text(_B + "\n" + _A.replace(old, value) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}: line 2: its text or label is not valid Unicode")):
        load_dataset(path)


def test_csv_that_is_not_utf8_errors(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"id,text,label,split\na,caf\xff,l,train\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: not valid UTF-8")):
        load_dataset(path, format="csv")


def test_categories_sidecar_that_is_not_utf8_errors(tmp_path):
    path = _write_rows(tmp_path / "d.jsonl", [json.loads(_A)])
    sidecar = tmp_path / "cats.txt"
    sidecar.write_bytes(b"l\ncaf\xff\n")
    with pytest.raises(DataError, match=re.escape(f"{sidecar}: not valid UTF-8")):
        load_dataset(path, categories_path=sidecar)


@pytest.mark.parametrize("where", ["open", "read"])
@pytest.mark.parametrize("error", [ConfigError, DataError])
def test_read_input_names_a_file_it_may_not_read(tmp_path, monkeypatch, error, where):
    # The failure comes at the open or, as from a failing disk, at the read.
    path = _write_rows(tmp_path / "d.jsonl", [json.loads(_A)])
    reason = fail_input(monkeypatch, where)
    with pytest.raises(error, match=f"^dataset file {re.escape(str(path))} cannot be read: {reason}$"):
        read_input(path, "dataset file", error)
    with pytest.raises(DataError, match=f"^dataset file {re.escape(str(path))} cannot be read: {reason}$"):
        load_dataset(path)
    with pytest.raises(ConfigError, match=f"^config file {re.escape(str(path))} cannot be read: {reason}$"):
        runner._read_json(path, "config file")


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_input_path_that_is_not_a_readable_file_errors(tmp_path, fmt):
    data = tmp_path / f"dir.{fmt}"
    data.mkdir()
    with pytest.raises(DataError, match=f"^dataset file {re.escape(str(data))} cannot be read: Is a directory$"):
        load_dataset(data, format=fmt)
    path = _write_rows(tmp_path / "d.jsonl", [json.loads(_A)])
    sidecar = path / "cats.txt"  # under a regular file
    with pytest.raises(DataError, match=f"^categories file {re.escape(str(sidecar))} cannot be read: Not a directory$"):
        load_dataset(path, categories_path=sidecar)


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
