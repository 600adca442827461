"""Confusion matrices, macro-F1, and confused-pair mining."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np


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
    # Python ints from one tolist(): on a k x k matrix this is cheaper than
    # numpy's per-call overhead, and the ratios are the same exact ints.
    rows = cm.counts.tolist()
    k = len(rows)
    column_sums = [sum(column) for column in zip(*rows)]
    precision, recall, f1 = [], [], []
    for c, row in enumerate(rows):
        tp = row[c]
        fp = column_sums[c] - tp
        fn = sum(row) - tp
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
    rows = cm.counts.tolist()
    k = len(rows)
    kk = k * k
    # Each confused pair as one int, a * k + b - count * k², which sorts as
    # (-count, a, b) does; ints sort several times faster than tuples.
    ranked = [
        a * k + b - total * kk
        for a, (row, column) in enumerate(zip(rows, zip(*rows)))
        for b in range(a + 1, k)
        if (total := row[b] + column[b])
    ]
    ranked.sort()
    return [ConfusedPair(*divmod(key % kk, k), -(key // kk)) for key in ranked[:k_pairs]]


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
