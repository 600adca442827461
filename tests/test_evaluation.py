"""Metric correctness against independently coded oracles."""

import csv

import numpy as np
import pytest

from defrefine.evaluation import (
    ConfusedPair,
    ConfusionMatrix,
    confusion_matrix,
    confusion_to_csv,
    macro_f1,
    metrics_to_dict,
    top_k_confused_pairs,
)


def oracle_per_class_f1(counts):
    """Tally-based per-class F1, written without the library's helpers."""
    k = len(counts)
    out = []
    for c in range(k):
        tp = counts[c][c]
        fp = sum(counts[g][c] for g in range(k)) - tp
        fn = sum(counts[c][p] for p in range(k)) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        out.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return out


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        cm = confusion_matrix([0, 1, 2, 1], [0, 1, 2, 1], ("a", "b", "c"))
        assert np.array_equal(cm.counts, np.diag([1, 2, 1]))

    def test_direct_counting(self):
        cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], ("a", "b"))
        assert cm.counts.tolist() == [[1, 1], [0, 2]]

    def test_random_pairs_match_tally_oracle(self):
        rng = np.random.default_rng(5)
        k = 7
        gold = rng.integers(0, k, size=1000)
        pred = rng.integers(0, k, size=1000)
        cm = confusion_matrix(gold, pred, [f"c{i}" for i in range(k)])
        tally = [[0] * k for _ in range(k)]
        for g, p in zip(gold.tolist(), pred.tolist()):
            tally[g][p] += 1
        assert cm.counts.tolist() == tally
        assert int(cm.counts.sum()) == 1000

    def test_row_sums_are_gold_counts(self):
        rng = np.random.default_rng(8)
        gold = rng.integers(0, 4, size=200)
        pred = rng.integers(0, 4, size=200)
        cm = confusion_matrix(gold, pred, list("abcd"))
        for c in range(4):
            assert int(cm.counts[c].sum()) == int((gold == c).sum())

    @pytest.mark.parametrize("n", [0, 1, 17, 2000])
    def test_counts_match_add_at_oracle(self, n):
        rng = np.random.default_rng(n)
        for k in (1, 2, 7, 20):
            gold = rng.integers(0, k, size=n)
            pred = rng.integers(0, k, size=n)
            oracle = np.zeros((k, k), dtype=np.int64)
            np.add.at(oracle, (gold, pred), 1)
            for g, p in ((gold, pred), (gold.tolist(), pred.tolist())):
                counts = confusion_matrix(g, p, [f"c{i}" for i in range(k)]).counts
                assert counts.dtype == np.int64
                assert np.array_equal(counts, oracle)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 3], [0, 1], ("a", "b"))


class TestMacroF1:
    def test_diagonal_is_perfect(self):
        cm = ConfusionMatrix(np.diag([5, 3, 9]), ("a", "b", "c"))
        assert macro_f1(cm).macro_f1 == 1.0

    def test_worked_example(self):
        report = macro_f1(ConfusionMatrix(np.array([[1, 1], [0, 2]]), ("a", "b")))
        assert report.per_class_f1[0] == pytest.approx(2 / 3, abs=1e-12)
        assert report.per_class_f1[1] == pytest.approx(0.8, abs=1e-12)
        assert report.macro_f1 == pytest.approx(11 / 15, abs=1e-12)

    def test_degenerate_class_counts_as_zero(self):
        # Class b never occurs in gold or predictions; its F1 is 0 and still averaged.
        report = macro_f1(ConfusionMatrix(np.array([[2, 0], [0, 0]]), ("a", "b")))
        assert report.per_class_f1 == [1.0, 0.0]
        assert report.macro_f1 == 0.5

    def test_random_matrices_match_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            k = int(rng.integers(1, 11))
            counts = rng.integers(0, 50, size=(k, k))
            report = macro_f1(ConfusionMatrix(counts, tuple(f"c{i}" for i in range(k))))
            expected = oracle_per_class_f1(counts.tolist())
            assert report.per_class_f1 == pytest.approx(expected, abs=1e-9)
            assert report.macro_f1 == pytest.approx(sum(expected) / k, abs=1e-9)

    def test_macro_is_mean_of_per_class(self):
        rng = np.random.default_rng(23)
        counts = rng.integers(0, 30, size=(6, 6))
        report = macro_f1(ConfusionMatrix(counts, tuple("abcdef")))
        assert report.macro_f1 == pytest.approx(np.mean(report.per_class_f1), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(29)
        counts = rng.integers(0, 40, size=(5, 5))
        base = macro_f1(ConfusionMatrix(counts, tuple("abcde"))).macro_f1
        perm = rng.permutation(5)
        permuted = counts[perm][:, perm]
        shuffled = macro_f1(
            ConfusionMatrix(permuted, tuple(np.array(list("abcde"))[perm]))
        ).macro_f1
        assert shuffled == pytest.approx(base, abs=1e-12)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            counts = rng.integers(0, 20, size=(4, 4))
            report = macro_f1(ConfusionMatrix(counts, tuple("abcd")))
            for series in (report.per_class_precision, report.per_class_recall, report.per_class_f1):
                assert all(0.0 <= v <= 1.0 for v in series)
            assert 0.0 <= report.macro_f1 <= 1.0


def oracle_confused_pairs(counts, k_pairs):
    """The pair ranking as a double loop over the upper triangle."""
    k = len(counts)
    pairs = []
    for a in range(k):
        for b in range(a + 1, k):
            total = int(counts[a][b]) + int(counts[b][a])
            if total > 0:
                pairs.append(ConfusedPair(a, b, total))
    pairs.sort(key=lambda p: (-p.confusion_count, p.class_a, p.class_b))
    return pairs[:k_pairs]


class TestConfusedPairs:
    def test_worked_example(self):
        cm = ConfusionMatrix(np.array([[5, 3, 0], [1, 6, 2], [0, 4, 5]]), ("a", "b", "c"))
        [top] = top_k_confused_pairs(cm, 1)
        assert (top.class_a, top.class_b, top.confusion_count) == (1, 2, 6)

    def test_diagonal_has_no_pairs(self):
        cm = ConfusionMatrix(np.diag([3, 3, 3]), ("a", "b", "c"))
        assert top_k_confused_pairs(cm, 5) == []

    def test_truncates_to_available(self):
        cm = ConfusionMatrix(np.array([[5, 3, 0], [1, 6, 2], [0, 4, 5]]), ("a", "b", "c"))
        pairs = top_k_confused_pairs(cm, 5)
        assert len(pairs) == 2  # (0, 2) has zero confusion and is excluded

    def test_tie_breaks_lexicographic(self):
        counts = np.array([[0, 2, 2], [2, 0, 0], [2, 0, 0]])
        pairs = top_k_confused_pairs(ConfusionMatrix(counts, ("a", "b", "c")), 3)
        assert [(p.class_a, p.class_b) for p in pairs] == [(0, 1), (0, 2)]

    def test_deterministic(self):
        rng = np.random.default_rng(37)
        counts = rng.integers(0, 10, size=(6, 6))
        cm = ConfusionMatrix(counts, tuple("abcdef"))
        assert top_k_confused_pairs(cm, 4) == top_k_confused_pairs(cm, 4)

    def test_matches_the_loop_on_random_matrices(self):
        # Small counts with many zeros give ties in count and dropped pairs.
        rng = np.random.default_rng(41)
        for _ in range(600):
            k = int(rng.integers(1, 25))
            counts = rng.integers(0, 4, size=(k, k)) * (rng.random((k, k)) < 0.5)
            cm = ConfusionMatrix(counts, tuple(f"c{i}" for i in range(k)))
            for k_pairs in (1, 3, 5, k * k):
                pairs = top_k_confused_pairs(cm, k_pairs)
                assert pairs == oracle_confused_pairs(counts, k_pairs)
                assert all(type(v) is int for p in pairs for v in (p.class_a, p.class_b, p.confusion_count))

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_k_confused_pairs(ConfusionMatrix(np.zeros((2, 2), int), ("a", "b")), 0)


class TestExports:
    def test_csv_header_and_rows(self, tmp_path):
        cm = confusion_matrix([0, 0, 1], [0, 1, 1], ("x", "y"))
        path = tmp_path / "cm.csv"
        confusion_to_csv(cm, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["", "x", "y"]
        assert rows[1] == ["x", "1", "1"]
        assert rows[2] == ["y", "0", "1"]

    def test_metrics_dict_shape(self):
        report = macro_f1(confusion_matrix([0, 1], [0, 1], ("x", "y")))
        payload = metrics_to_dict(report, ("x", "y"))
        assert payload["macro_f1"] == 1.0
        assert set(payload["per_class"]) == {"x", "y"}
        assert payload["per_class"]["x"] == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
