"""Confusion matrices, macro-F1, and confused-pair mining."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import classifier


@dataclass
class ConfusionMatrix:
    """Gold-by-predicted counts; rows are gold, columns are predicted."""

    counts: np.ndarray
    category_order: tuple[str, ...]


@dataclass
class MetricsReport:
    per_class_precision: list[float]
    per_class_recall: list[float]
    per_class_f1: list[float]
    macro_f1: float


@dataclass(frozen=True)
class ConfusedPair:
    """Unordered class pair ranked by its symmetric off-diagonal count."""

    class_a: int
    class_b: int
    confusion_count: int


def confusion_matrix(gold: Sequence[int], predicted: Sequence[int], categories: Sequence[str]) -> ConfusionMatrix:
    gold_arr = np.asarray(gold, dtype=np.int64)
    pred_arr = np.asarray(predicted, dtype=np.int64)
    if gold_arr.shape != pred_arr.shape:
        raise ValueError("gold and predicted must have equal length")
    k = len(categories)
    if gold_arr.size and (
        gold_arr.min() < 0 or gold_arr.max() >= k or pred_arr.min() < 0 or pred_arr.max() >= k
    ):
        raise ValueError("category index out of range")
    counts = np.bincount(gold_arr * k + pred_arr, minlength=k * k).astype(np.int64, copy=False)
    return ConfusionMatrix(counts=counts.reshape(k, k), category_order=tuple(categories))


def macro_f1(cm: ConfusionMatrix) -> MetricsReport:
    """Per-class precision/recall/F1 and their unweighted mean.

    Any 0/0 ratio is defined as 0, and degenerate classes still count
    toward the average.
    """
    counts = cm.counts
    k = counts.shape[0]
    precision, recall, f1 = [], [], []
    for c in range(k):
        tp = int(counts[c, c])
        fp = int(counts[:, c].sum()) - tp
        fn = int(counts[c, :].sum()) - tp
        p = tp / (tp + fp) if (tp + fp) > 0 else 0.0
        r = tp / (tp + fn) if (tp + fn) > 0 else 0.0
        f = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(f)
    return MetricsReport(precision, recall, f1, sum(f1) / k)


def top_k_confused_pairs(cm: ConfusionMatrix, k_pairs: int) -> list[ConfusedPair]:
    """Most confused class pairs, count descending, ties lexicographic.

    Pairs with zero confusion are excluded, so fewer than k_pairs entries
    may come back.
    """
    if k_pairs < 1:
        raise ValueError("k_pairs must be >= 1")
    counts = cm.counts
    a, b = np.triu_indices(counts.shape[0], 1)
    totals = (counts + counts.T)[a, b]
    kept = totals > 0
    a, b, totals = a[kept], b[kept], totals[kept]
    top = np.lexsort((b, a, -totals))[:k_pairs]
    return [ConfusedPair(int(a[i]), int(b[i]), int(totals[i])) for i in top]


def score(def_vecs, categories: Sequence[str], docs, gold) -> tuple[MetricsReport, ConfusionMatrix]:
    """Classify the embedded documents under a definition set and score them.

    `def_vecs` is the definition set's (k, d) matrix, one row per category in
    `categories` order; `docs` is the split's (n, d) document matrix as unit
    rows, from `classifier.unit_rows` (column-major, as the gateway returns
    it, makes the product cheapest), and `gold` its category indices.
    Predictions are the argmax of the exact float64 product of `docs` as
    given, ties to the lowest index: `classifier.classify` takes them from
    the cheaper (k, n) product when every document's best score leads by
    more than the rounding bound `classifier._tie_margin(d)`, (14 d + 16)
    2**-53, and otherwise from `classifier.cosine_scores` for the whole split.
    """
    preds = classifier.classify(docs, def_vecs)
    cm = confusion_matrix(gold, preds, categories)
    return macro_f1(cm), cm


def confusion_to_csv(cm: ConfusionMatrix, path: str | Path) -> None:
    """Write the matrix as CSV with category ids on the header row and column."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(cm.category_order))
        for name, row in zip(cm.category_order, cm.counts):
            writer.writerow([name] + [int(x) for x in row])


def metrics_to_dict(report: MetricsReport, categories: Sequence[str]) -> dict:
    """JSON-ready view of a metrics report keyed by category."""
    return {
        "macro_f1": report.macro_f1,
        "per_class": {
            c: {
                "precision": report.per_class_precision[i],
                "recall": report.per_class_recall[i],
                "f1": report.per_class_f1[i],
            }
            for i, c in enumerate(categories)
        },
    }
