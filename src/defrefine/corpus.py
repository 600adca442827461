"""Labeled dataset loading, validation, and seeded sampling."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import json.scanner
import random
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import DataError, read_input

SPLITS = ("train", "dev", "test")
_REQUIRED_FIELDS = ("id", "text", "label", "split")
_STR_ONLY = frozenset({str})

# One JSON value from a given index of a string, with json.loads's semantics
# (json.loads strips the whitespace around the value and parses it with this
# scanner); raises StopIteration or ValueError where it finds no value.
_scan_value = json.scanner.make_scanner(json.JSONDecoder())
_JSON_WHITESPACE = " \t\r\n"
# What UTF-8 cannot encode: a "\ud800" JSON escape decodes to one.
LONE_SURROGATE = re.compile("[\ud800-\udfff]")


class Document(NamedTuple):
    """One labeled text sample; a tuple (id, text, label, split)."""

    id: str
    text: str
    label: str
    split: str


@dataclass(frozen=True)
class Dataset:
    """Immutable labeled corpus with a stable category order.

    The category tuple defines the index order used by every downstream
    matrix (similarities, confusion counts), so it must never be reordered
    after load. `load_dataset` checks ids, texts, labels and splits, and
    gives the sha256 of the bytes of the file and of the categories sidecar
    it read; the constructor trusts its caller.
    """

    name: str
    categories: tuple[str, ...]
    documents: tuple[Document, ...]
    sha256: str | None = field(default=None, compare=False)
    categories_sha256: str | None = field(default=None, compare=False)

    @cached_property
    def category_index(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.categories)}

    @cached_property
    def strata(self) -> dict[tuple[str, str | None], tuple[Document, ...]]:
        """Documents by (split, label) and by (split, None), in dataset order."""
        strata: dict[tuple[str, str | None], list[Document]] = {}
        for doc in self.documents:
            strata.setdefault((doc.split, None), []).append(doc)
            strata.setdefault((doc.split, doc.label), []).append(doc)
        return {key: tuple(docs) for key, docs in strata.items()}


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> DataError:
    return DataError(f"{path}: not valid UTF-8 ({exc.reason})")


def _read_categories_sidecar(path: Path) -> tuple[tuple[str, ...], str]:
    """The categories in a sidecar file, and the sha256 of its bytes."""
    raw = read_input(path, "categories file", DataError)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    lines = [line.strip() for line in text.splitlines()]
    categories = tuple(line for line in lines if line)
    if not categories:
        raise DataError(f"{path}: empty categories file")
    if len(set(categories)) != len(categories):
        raise DataError(f"{path}: duplicate category names")
    return categories, hashlib.sha256(raw).hexdigest()


def _iter_jsonl_records(path: Path, raw: bytes):
    """(line number, record) per nonblank line. Each line is first scanned as
    one JSON value at its start; unless only JSON whitespace follows it, the
    line goes to json.loads, so every message is json.loads's own."""
    # surrogateescape turns each byte that is not UTF-8 into a lone surrogate,
    # which UTF-8 text never decodes to, so the bad line can be named.
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and LONE_SURROGATE.search(line):
                raise DataError(f"{path}: line {lineno}: not valid UTF-8")
            try:
                record, end = _scan_value(line, 0)
            except (StopIteration, ValueError):
                end = -1
            if end < 0 or line[end:].strip(_JSON_WHITESPACE):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path}: line {lineno}: malformed record: {exc}") from exc
            if not isinstance(record, dict):
                raise DataError(f"{path}: line {lineno}: record is not a JSON object")
            yield lineno, record


def _iter_csv_records(path: Path, raw: bytes):
    try:
        with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                return
            missing = [f for f in _REQUIRED_FIELDS if f not in reader.fieldnames]
            if missing:
                raise DataError(f"{path}: missing columns: {', '.join(missing)}")
            for record in reader:
                yield reader.line_num, record
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def load_dataset(
    path: str | Path,
    format: str = "jsonl",
    categories_path: str | Path | None = None,
    name: str | None = None,
) -> Dataset:
    """Load and validate a dataset from a JSONL or CSV file.

    Each record carries id, text, label, and split. The category order is
    taken from the optional sidecar file (one category per line) or derived
    as the sorted set of labels. The file is read whole once: its bytes are
    both hashed and parsed.
    """
    path = Path(path)
    iter_records = {"jsonl": _iter_jsonl_records, "csv": _iter_csv_records}.get(format)
    if iter_records is None:
        raise DataError(f"unknown dataset format {format!r}")

    declared: Optional[tuple[str, ...]] = None
    categories_sha256 = None
    if categories_path is not None:
        declared, categories_sha256 = _read_categories_sidecar(Path(categories_path))
    raw = read_input(path, "dataset file", DataError)

    documents: list[Document] = []
    seen_ids: set[str] = set()
    declared_set = set(declared) if declared else None
    for lineno, record in iter_records(path, raw):
        get = record.get
        label, split = get("label"), get("split")
        # json makes a new str for every value: keep one object per distinct
        # label and split, not one per document.
        try:
            label, split = sys.intern(label), sys.intern(split)
        except TypeError:
            pass  # not a str, which the check below refuses
        doc = Document(get("id"), get("text"), label, split)
        if "" in doc or not _STR_ONLY.issuperset(map(type, doc)):
            field = next(f for f, v in zip(_REQUIRED_FIELDS, doc) if type(v) is not str or not v)
            raise DataError(f"{path}: line {lineno}: missing or empty field {field!r}")
        if not (doc.text.isascii() and doc.label.isascii()) and LONE_SURROGATE.search(doc.text + doc.label):
            raise DataError(f"{path}: line {lineno}: its text or label is not valid Unicode")
        if doc.split not in SPLITS:
            raise DataError(f"{path}: line {lineno}: unknown split {doc.split!r}")
        if doc.id in seen_ids:
            raise DataError(f"{path}: line {lineno}: duplicate id {doc.id!r}")
        seen_ids.add(doc.id)
        if declared_set is not None and doc.label not in declared_set:
            raise DataError(f"{path}: line {lineno}: label {doc.label!r} not in declared categories")
        documents.append(doc)

    if not documents:
        raise DataError(f"{path}: no records")

    categories = declared or tuple(sorted({d.label for d in documents}))
    return Dataset(
        name=name or path.stem,
        categories=categories,
        documents=tuple(documents),
        sha256=hashlib.sha256(raw).hexdigest(),
        categories_sha256=categories_sha256,
    )


def split_view(dataset: Dataset, split: str) -> list[Document]:
    """Documents of one split, in dataset insertion order."""
    if split not in SPLITS:
        raise DataError(f"unknown split {split!r}")
    return list(dataset.strata.get((split, None), ()))


def sample_instance(
    dataset: Dataset,
    split: str,
    category: str | None = None,
    rng: random.Random | None = None,
) -> Document:
    """Draw one document uniformly from a (split, category) stratum.

    Consumes exactly one uniform draw from `rng` per call, so stream
    positions stay predictable across strategies and resumes.
    """
    if rng is None:
        raise ValueError("sample_instance requires a seeded rng")
    stratum = dataset.strata.get((split, category), ())
    if not stratum:
        raise DataError(f"empty stratum: split={split!r} category={category!r}")
    u = rng.random()
    return stratum[min(int(u * len(stratum)), len(stratum) - 1)]
