"""Cosine classifier against a naive double-loop oracle."""

import math

import numpy as np
import pytest

from defrefine import classify


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1]; oracle for classify."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape:
        raise ValueError(f"vector dimension mismatch: {va.shape} vs {vb.shape}")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise ValueError("zero-norm vector")
    return float(np.clip(np.dot(va, vb) / (na * nb), -1.0, 1.0))


def oracle_cosine(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


def oracle_predict(docs, defs):
    """Double-loop argmax; strict greater-than keeps the lowest index on ties."""
    preds = []
    for d in docs:
        best_j, best_s = 0, -math.inf
        for j, c in enumerate(defs):
            s = oracle_cosine(d, c)
            if s > best_s:
                best_j, best_s = j, s
        preds.append(best_j)
    return preds


class TestCosine:
    def test_self_similarity(self):
        assert cosine_similarity([3.0, -1.0, 2.0], [3.0, -1.0, 2.0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_worked_value(self):
        value = cosine_similarity([1, 2, 3], [4, 5, 6])
        assert value == pytest.approx(32 / math.sqrt(14 * 77), abs=1e-12)
        assert value == pytest.approx(0.974631846, abs=1e-9)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine_similarity([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = rng.standard_normal(16), rng.standard_normal(16)
            assert abs(cosine_similarity(a, b) - cosine_similarity(b, a)) < 1e-12

    def test_accepts_embedding_vectors(self):
        a, b = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert cosine_similarity(a, b) == 1.0


class TestClassify:
    def test_dominant_axis(self):
        _, preds = classify([[0.9, 0.1]], [[1.0, 0.0], [0.0, 1.0]])
        assert preds.tolist() == [0]

    def test_exact_tie_breaks_low(self):
        _, preds = classify([[1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
        assert preds.tolist() == [0]

    def test_needs_two_definitions(self):
        with pytest.raises(ValueError):
            classify([[1.0, 0.0]], [[1.0, 0.0]])

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n, k, d = rng.integers(1, 51), rng.integers(2, 9), rng.integers(2, 33)
            docs = rng.standard_normal((n, d))
            defs = rng.standard_normal((k, d))
            _, preds = classify(docs, defs)
            assert preds.tolist() == oracle_predict(docs.tolist(), defs.tolist())

    def test_scores_in_range_and_match_pairwise_cosine(self):
        rng = np.random.default_rng(3)
        docs = rng.standard_normal((8, 12))
        defs = rng.standard_normal((4, 12))
        scores, _ = classify(docs, defs)
        assert np.all(scores >= -1.0) and np.all(scores <= 1.0)
        for i in range(8):
            for j in range(4):
                assert scores[i, j] == pytest.approx(
                    cosine_similarity(docs[i], defs[j]), abs=1e-12
                )

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        docs = rng.standard_normal((20, 10))
        defs = rng.standard_normal((5, 10))
        scores, preds = classify(docs, defs)
        scores2, preds2 = classify(docs * 37.5, defs)
        assert preds.tolist() == preds2.tolist()
        np.testing.assert_allclose(scores, scores2, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        docs = rng.standard_normal((30, 9))
        defs = rng.standard_normal((6, 9))
        perm = rng.permutation(6)
        _, preds = classify(docs, defs)
        _, preds_p = classify(docs, defs[perm])
        # Category j moved to position inv[j] in the permuted list.
        inv = np.argsort(perm)
        assert preds_p.tolist() == inv[preds].tolist()

    def test_identity_setup(self):
        rng = np.random.default_rng(19)
        defs = rng.standard_normal((7, 15))
        _, preds = classify(defs, defs)
        assert preds.tolist() == list(range(7))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            classify([[1.0, 0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
