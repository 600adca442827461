"""Cosine classifier against a naive double-loop oracle."""

import math
import os
import select
import signal
import threading
import time

import numpy as np
import pytest

from defrefine import classifier
from defrefine.classifier import classify, cosine_scores, unit_rows


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


def classify_normalising_inside(doc_vecs, def_vecs):
    """classify as it was before documents came in as unit rows: it normalised
    both matrices on every call. Reference for the bit-identity test."""
    docs = np.asarray(doc_vecs, dtype=np.float64)
    defs = np.asarray(def_vecs, dtype=np.float64)
    docs_unit = docs / np.linalg.norm(docs, axis=1)[:, None]
    defs_unit = defs / np.linalg.norm(defs, axis=1)[:, None]
    scores = np.clip(docs_unit @ defs_unit.T, -1.0, 1.0)
    return scores, np.argmax(scores, axis=1)


class TestUnitRows:
    def test_rows_have_unit_length(self):
        rng = np.random.default_rng(5)
        units = unit_rows(rng.standard_normal((40, 7)) * 1e3, "document")
        np.testing.assert_allclose(np.linalg.norm(units, axis=1), 1.0, atol=1e-15)

    def test_returns_a_new_array(self):
        docs = np.array([[1.0, 0.0], [0.0, 2.0]])
        before = docs.copy()
        units = unit_rows(docs, "document")
        assert units is not docs
        np.testing.assert_array_equal(docs, before)

    def test_in_place_writes_into_the_callers_array(self):
        docs = np.array([[3.0, 4.0], [0.0, 2.0]])
        units = unit_rows(docs, "document", in_place=True)
        assert units is docs
        np.testing.assert_array_equal(docs, [[0.6, 0.8], [0.0, 1.0]])

    def test_uses_only_numpy_1_copy_modes(self, monkeypatch):
        # pyproject allows numpy>=1.24: there np.array rejects copy=None and
        # np.asarray takes no copy argument at all.
        def numpy_1(real, copy_allowed):
            def call(*args, **kwargs):
                if "copy" in kwargs and (not copy_allowed or kwargs["copy"] is None):
                    raise ValueError("NoneType copy mode not allowed.")
                return real(*args, **kwargs)

            return call

        monkeypatch.setattr(np, "array", numpy_1(np.array, True))
        monkeypatch.setattr(np, "asarray", numpy_1(np.asarray, False))
        docs = np.array([[3.0, 4.0], [0.0, 2.0]])
        np.testing.assert_array_equal(unit_rows(docs, "document"), [[0.6, 0.8], [0.0, 1.0]])
        assert unit_rows(docs, "document", in_place=True) is docs
        predictions = classify(docs, [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(predictions, [1, 1])

    def test_zero_norm_row_rejected(self):
        with pytest.raises(ValueError, match="zero-norm document vector"):
            unit_rows([[1.0, 0.0], [0.0, 0.0]], "document")

    @pytest.mark.parametrize("value", [1e200, np.inf, np.nan])
    def test_row_with_a_non_finite_norm_rejected(self, value):
        # Divided by an infinite norm, a row would become zeros.
        with pytest.raises(ValueError, match="non-finite norm of a document vector"):
            unit_rows([[1.0, 0.0], [value, value]], "document")

    def test_zero_norm_definition_rejected_by_classify(self):
        with pytest.raises(ValueError, match="zero-norm definition vector"):
            classify([[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])


class TestBitIdentity:
    """Unit rows made once give the same bits as normalising on every call,
    and classify's certified argmax is the argmax of those scores."""

    @staticmethod
    def _assert_same(docs, defs):
        units = unit_rows(docs, "document")
        scores = cosine_scores(units, defs)
        ref_scores, ref_preds = classify_normalising_inside(docs, defs)
        assert np.array_equal(scores, ref_scores)
        assert np.array_equal(np.argmax(scores, axis=1), ref_preds)
        assert np.array_equal(classify(units, defs), np.argmax(ref_scores, axis=1))

    # The same product taken as (defs @ docs.T).T differs in the last bits at
    # (250, 64, 20) under OpenBLAS with one or two threads, and at
    # (250, 1024, 20) with one.
    @pytest.mark.parametrize(
        "n, d, k", [(1, 2, 2), (37, 5, 3), (500, 256, 20), (250, 1024, 20), (250, 64, 20), (64, 33, 9)]
    )
    def test_random_shapes(self, n, d, k):
        rng = np.random.default_rng(n * 1000 + d + k)
        self._assert_same(rng.standard_normal((n, d)), rng.standard_normal((k, d)))

    def test_random_small_shapes(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n, k, d = rng.integers(1, 80), rng.integers(2, 12), rng.integers(2, 70)
            self._assert_same(rng.standard_normal((n, d)), rng.standard_normal((k, d)))

    def test_scaled_rows(self):
        rng = np.random.default_rng(29)
        docs = rng.standard_normal((300, 48)) * 10.0 ** rng.uniform(-150, 150, size=(300, 1))
        defs = rng.standard_normal((6, 48)) * 10.0 ** rng.uniform(-150, 150, size=(6, 1))
        self._assert_same(docs, defs)

    def test_near_ties(self):
        rng = np.random.default_rng(31)
        base = rng.standard_normal((1, 64))
        defs = np.vstack([base + 1e-13 * rng.standard_normal((1, 64)) for _ in range(5)])
        docs = np.vstack([base + 1e-12 * rng.standard_normal((200, 64)), defs, defs * 3.0])
        self._assert_same(docs, defs)

    @pytest.mark.parametrize(
        "blocks, order",
        [
            pytest.param(blocks, order, id=name + suffix)
            for order, suffix in (("C", ""), ("F", "-column-major"))
            for blocks, name in ((0.5, "below-a-block"), (1, "one-block"), (2.37, "not-a-multiple"))
        ],
    )
    def test_in_place_blockwise_unit_rows(self, blocks, order):
        # A column-major matrix gets the bits of the row-major one, and keeps
        # its layout.
        d = 64
        n = int(blocks * (classifier._BLOCK_ELEMENTS // d))
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-150, 150, size=(n, 1))
        reference = m / np.linalg.norm(m, axis=1)[:, None]
        given = np.array(m, order=order)
        owned = np.array(m, order=order)
        units = unit_rows(owned, "document", in_place=True)
        assert units is owned
        assert np.array_equal(units, reference)
        copied = unit_rows(given, "document")
        assert np.array_equal(copied, reference)
        assert copied.flags[order + "_CONTIGUOUS"]
        assert np.array_equal(given, m)

    def test_list_and_float32_inputs(self):
        rng = np.random.default_rng(37)
        docs = rng.standard_normal((20, 8)).astype(np.float32)
        defs = rng.standard_normal((4, 8))
        self._assert_same(docs, defs.tolist())
        self._assert_same(docs.tolist(), defs.astype(np.float32))


def swapped_pair(rng, n, d, k, tied, dtype=np.float64):
    """Random rows, except that definition 1 is definition 0 with components
    0 and 1 swapped, and the last `tied` documents have those two components
    equal: both definitions score them alike in exact arithmetic, so the
    rounding of each product breaks the tie."""
    defs = rng.standard_normal((k, d))
    defs[1] = defs[0, [1, 0] + list(range(2, d))]
    docs = rng.standard_normal((n, d))
    docs[n - tied :, 1] = docs[n - tied :, 0]
    return docs.astype(dtype), defs.astype(dtype)


def near_duplicates(rng, n, d, k, dups, near):
    """Random rows, except that the first `dups` definitions are one base
    vector plus noise of 1e-15 and the last `near` documents lie near it."""
    base = rng.standard_normal((1, d))
    defs = rng.standard_normal((k, d))
    defs[:dups] = base + 1e-15 * rng.standard_normal((dups, d))
    docs = rng.standard_normal((n, d))
    docs[n - near :] = base + 1e-2 * rng.standard_normal((near, d))
    return docs, defs


class TestCertifiedArgmax:
    """classify takes its argmax from the (k, n) product only where the
    margin proves it equal to the exact product's. These inputs put rows
    within rounding of a tie, where the two products can pick different
    categories: under OpenBLAS 0.3 at (250, 64, 20), (250, 1024, 20) and
    (500, 256, 20) with one thread, and at (250, 64, 20) with two. Near ties
    in only the last two rows, which gemm's edge kernel sums in its own
    order, also catch a margin of 0: with more, some row ties exactly in the
    (k, n) product too, which sends the whole split to the fallback."""

    @staticmethod
    def _assert_exact(units, defs):
        expected = np.argmax(cosine_scores(units, defs), axis=1)
        assert np.array_equal(classify(units, defs), expected)

    @pytest.mark.parametrize("n, d, k", [(37, 5, 3), (64, 33, 9), (250, 64, 20), (250, 1024, 20), (500, 256, 20)])
    def test_random_shapes(self, n, d, k):
        for seed in range(40):
            rng = np.random.default_rng([n, d, k, seed])
            docs, defs = rng.standard_normal((n, d)), rng.standard_normal((k, d))
            self._assert_exact(unit_rows(docs, "document"), defs)
            for docs, defs in (swapped_pair(rng, n, d, k, tied=n), near_duplicates(rng, n, d, k, dups=2, near=2)):
                self._assert_exact(unit_rows(docs, "document"), defs)

    # The gateway's layout: classify is the argmax of the exact product of
    # the column-major matrix itself, whose bits may differ from those of a
    # row-major copy at a near tie.
    @pytest.mark.parametrize("n, d, k", [(37, 5, 3), (64, 33, 9), (250, 64, 20), (250, 1024, 20), (500, 256, 20)])
    def test_random_shapes_column_major(self, n, d, k):
        for seed in range(40):
            rng = np.random.default_rng([n, d, k, seed])
            docs, defs = rng.standard_normal((n, d)), rng.standard_normal((k, d))
            cases = ((docs, defs), swapped_pair(rng, n, d, k, tied=n), near_duplicates(rng, n, d, k, dups=2, near=2))
            for docs, defs in cases:
                units = unit_rows(np.asfortranarray(docs), "document")
                assert units.T.flags.c_contiguous
                self._assert_exact(units, defs)
                self._assert_exact(units, np.asfortranarray(defs))

    def test_exact_ties_go_to_the_lower_index_column_major(self):
        rng = np.random.default_rng(41)
        defs = rng.standard_normal((4, 16))
        defs[2] = defs[0]
        docs = np.vstack([defs[0], defs[0] + 0.01 * rng.standard_normal((30, 16))])
        units = unit_rows(np.asfortranarray(docs), "document")
        assert set(classify(units, defs).tolist()) == {0}
        self._assert_exact(units, defs)

    def test_exact_ties_go_to_the_lower_index(self):
        rng = np.random.default_rng(41)
        defs = rng.standard_normal((4, 16))
        defs[2] = defs[0]
        units = unit_rows(np.vstack([defs[0], defs[0] + 0.01 * rng.standard_normal((30, 16))]), "document")
        preds = classify(units, defs)
        assert set(preds.tolist()) == {0}
        self._assert_exact(units, defs)

    def test_near_ties(self):
        for seed in range(40):
            rng = np.random.default_rng([43, seed])
            for docs, defs in (
                near_duplicates(rng, 250, 64, 20, dups=20, near=250),
                near_duplicates(rng, 250, 64, 20, dups=2, near=2),
            ):
                self._assert_exact(unit_rows(docs, "document"), defs)

    def test_clip_ties_go_to_the_lower_index(self):
        # A document equal to definition a, and b one ulp from a: both exact
        # scores may reach 1.0 or beyond and clip to a tie that index 0 wins,
        # while the unclipped (k, n) product still ranks them apart.
        rng = np.random.default_rng(47)
        clipped = 0
        for _ in range(200):
            a = unit_rows(rng.standard_normal((1, 8)), "definition")[0]
            b = a.copy()
            b[0] = np.nextafter(b[0], np.copysign(np.inf, b[0]))
            for defs in (np.array([a, b]), np.array([b, a])):
                units = unit_rows(defs[:1], "document")
                scores = cosine_scores(units, defs)
                clipped += bool(np.all(scores == 1.0))
                self._assert_exact(units, defs)
        assert clipped > 0

    def test_scaled_rows(self):
        for seed in range(40):
            rng = np.random.default_rng([53, seed])
            docs, defs = near_duplicates(rng, 250, 64, 20, dups=2, near=2)
            docs *= 10.0 ** rng.uniform(-150, 150, size=(250, 1))
            defs *= 10.0 ** rng.uniform(-150, 150, size=(20, 1))
            self._assert_exact(unit_rows(docs, "document"), defs)

    def test_float32_and_list_inputs(self):
        for seed in range(40):
            docs, defs = swapped_pair(np.random.default_rng([59, seed]), 250, 64, 20, tied=2, dtype=np.float32)
            units = unit_rows(docs, "document")
            self._assert_exact(units, defs)
            self._assert_exact(units.tolist(), defs.tolist())

    def test_exact_product_only_when_not_certain(self, monkeypatch):
        calls = []
        exact = classifier.cosine_scores

        def spy(doc_units, def_vecs):
            calls.append(len(doc_units))
            return exact(doc_units, def_vecs)

        monkeypatch.setattr(classifier, "cosine_scores", spy)
        rng = np.random.default_rng(61)
        units = unit_rows(rng.standard_normal((2000, 32)), "document")
        defs = rng.standard_normal((10, 32))
        classify(units, defs)
        assert calls == []
        defs[7] = defs[3]
        classify(units, defs)
        assert calls == [2000]


class TestClassify:
    def test_dominant_axis(self):
        preds = classify([[0.9, 0.1]], [[1.0, 0.0], [0.0, 1.0]])
        assert preds.tolist() == [0]

    def test_exact_tie_breaks_low(self):
        preds = classify([[1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
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
            preds = classify(unit_rows(docs, "document"), defs)
            assert preds.tolist() == oracle_predict(docs.tolist(), defs.tolist())

    def test_scores_in_range_and_match_pairwise_cosine(self):
        rng = np.random.default_rng(3)
        docs = rng.standard_normal((8, 12))
        defs = rng.standard_normal((4, 12))
        scores = cosine_scores(unit_rows(docs, "document"), defs)
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
        units, units2 = unit_rows(docs, "document"), unit_rows(docs * 37.5, "document")
        scores, preds = cosine_scores(units, defs), classify(units, defs)
        scores2, preds2 = cosine_scores(units2, defs), classify(units2, defs)
        assert preds.tolist() == preds2.tolist()
        np.testing.assert_allclose(scores, scores2, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        docs = rng.standard_normal((30, 9))
        defs = rng.standard_normal((6, 9))
        perm = rng.permutation(6)
        preds = classify(unit_rows(docs, "document"), defs)
        preds_p = classify(unit_rows(docs, "document"), defs[perm])
        # Category j moved to position inv[j] in the permuted list.
        inv = np.argsort(perm)
        assert preds_p.tolist() == inv[preds].tolist()

    def test_identity_setup(self):
        rng = np.random.default_rng(19)
        defs = rng.standard_normal((7, 15))
        preds = classify(unit_rows(defs, "document"), defs)
        assert preds.tolist() == list(range(7))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            classify([[1.0, 0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])


class _BlockRecorder:
    """The classify pool, recording the width of each block it is given."""

    def __init__(self, pool):
        self.pool, self.widths = pool, []

    def submit(self, fn, *args, **kwargs):
        self.widths.append(kwargs["out"].shape[1])
        return self.pool.submit(fn, *args, **kwargs)


@pytest.fixture
def split_into(monkeypatch):
    """Make classify split every product into up to `blocks` column blocks;
    returns the recorder of the blocks the pool computes."""

    def split(blocks):
        recorder = _BlockRecorder(classifier._workers())
        monkeypatch.setattr(classifier, "_SPLIT_MULTIPLY_ADDS", 1)
        monkeypatch.setattr(classifier, "_max_blocks", lambda: blocks)
        monkeypatch.setattr(classifier, "_workers", lambda: recorder)
        return recorder

    return split


def _assert_exact(units, defs):
    expected = np.argmax(cosine_scores(units, defs), axis=1)
    assert np.array_equal(classify(units, defs), expected)


class TestSplitProduct:
    """Above `_SPLIT_MULTIPLY_ADDS` per block, classify computes its (k, n)
    product in up to `_max_blocks()` column blocks, on the calling thread and
    the pool. The certificate then covers each block's bits as it covers the
    unsplit gemm's."""

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_near_ties_in_the_last_block_and_at_a_boundary(self, split_into, cpus, order):
        n, d, k = 250, 64, 20
        recorder = split_into(cpus)
        boundary = n * (cpus - 1) // cpus
        for seed in range(20):
            rng = np.random.default_rng([67, cpus, seed])
            for docs, defs in (
                swapped_pair(rng, n, d, k, tied=2),
                near_duplicates(rng, n, d, k, dups=2, near=2),
                swapped_pair(rng, n, d, k, tied=n - boundary + 1),
                near_duplicates(rng, n, d, k, dups=2, near=n - boundary + 1),
            ):
                _assert_exact(unit_rows(np.array(docs, order=order), "document"), defs)
        bounds = [n * i // cpus for i in range(cpus + 1)]
        pool_widths = [b - a for a, b in zip(bounds[1:-1], bounds[2:])]
        assert recorder.widths == pool_widths * 80

    def test_exact_product_once_for_an_uncertain_column_in_a_later_block(self, split_into, monkeypatch):
        calls = []
        exact = classifier.cosine_scores

        def spy(doc_units, def_vecs):
            calls.append(len(doc_units))
            return exact(doc_units, def_vecs)

        monkeypatch.setattr(classifier, "cosine_scores", spy)
        recorder = split_into(3)
        rng = np.random.default_rng(73)
        defs = rng.standard_normal((10, 32))
        defs[7] = defs[3]
        others = [j for j in range(10) if j not in (3, 7)]
        docs = defs[[others[i % len(others)] for i in range(300)]] + 0.01 * rng.standard_normal((300, 32))
        for tied in (299, 200):  # the last column, and the first of the last block
            case = docs.copy()
            case[tied] = defs[3]
            units = unit_rows(np.asfortranarray(case), "document")
            calls.clear()
            preds = classify(units, defs)
            assert calls == [300]
            assert preds[tied] == 3
            assert np.array_equal(preds, np.argmax(exact(units, defs), axis=1))
        calls.clear()
        classify(unit_rows(np.asfortranarray(docs), "document"), defs)
        assert calls == []
        assert recorder.widths == [100, 100] * 3

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs sched_getaffinity")
    @pytest.mark.parametrize("one_thread", [True, False])
    def test_blocks_follow_the_affinity_mask_and_the_blas(self, monkeypatch, one_thread):
        # The real CPU count: under `taskset -c 0` no block reaches the pool.
        recorder = _BlockRecorder(classifier._workers())
        monkeypatch.setattr(classifier, "_SPLIT_MULTIPLY_ADDS", 1)
        monkeypatch.setattr(classifier, "_BLAS_ONE_THREAD", one_thread)
        monkeypatch.setattr(classifier, "_workers", lambda: recorder)
        rng = np.random.default_rng(97)
        docs, defs = swapped_pair(rng, 100, 16, 5, tied=3)
        _assert_exact(unit_rows(docs, "document"), defs)
        blocks = min(classifier._MAX_BLOCKS, len(os.sched_getaffinity(0))) if one_thread else 1
        assert recorder.widths == [50] * (blocks - 1)

    @pytest.mark.parametrize(
        "env, one_thread",
        [
            ({}, False),
            ({"OPENBLAS_NUM_THREADS": "1"}, True),
            ({"OPENBLAS_NUM_THREADS": " 1 "}, True),
            ({"OPENBLAS_NUM_THREADS": "2"}, False),
            ({"OMP_NUM_THREADS": "1"}, True),
            ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False),
            ({"OPENBLAS_NUM_THREADS": "", "GOTO_NUM_THREADS": "1"}, True),
            ({"MKL_NUM_THREADS": "1"}, False),
        ],
    )
    def test_one_thread_blas_from_the_environment(self, monkeypatch, env, one_thread):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert classifier._blas_one_thread() is one_thread

    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_columns_than_cpus(self, split_into, n):
        recorder = split_into(3)
        rng = np.random.default_rng([79, n])
        docs, defs = swapped_pair(rng, n, 16, 5, tied=1)
        _assert_exact(unit_rows(docs, "document"), defs)
        assert recorder.widths == [1] * (n - 1)

    def test_concurrent_callers(self, split_into):
        split_into(3)
        cases = []
        for seed in range(2):
            rng = np.random.default_rng([83, seed])
            docs, defs = near_duplicates(rng, 400, 64, 12, dups=2, near=2)
            units = unit_rows(np.asfortranarray(docs), "document")
            cases.append((units, defs, np.argmax(cosine_scores(units, defs), axis=1)))
            units = unit_rows(np.asfortranarray(rng.standard_normal((400, 64))), "document")
            defs = rng.standard_normal((12, 64))
            cases.append((units, defs, np.argmax(cosine_scores(units, defs), axis=1)))
        wrong = []

        def run(i):
            for _ in range(30):
                for units, defs, expected in cases[i::2]:
                    if not np.array_equal(classify(units, defs), expected):
                        wrong.append(i)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert wrong == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_classifies(self, monkeypatch):
        # The parent's pool threads do not exist in a forked child.
        monkeypatch.setattr(classifier, "_SPLIT_MULTIPLY_ADDS", 1)
        monkeypatch.setattr(classifier, "_max_blocks", lambda: 2)
        rng = np.random.default_rng(89)
        units = unit_rows(np.asfortranarray(rng.standard_normal((500, 32))), "document")
        defs = rng.standard_normal((8, 32))
        expected = classify(units, defs)
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            try:
                signal.alarm(5)
                os.write(write, classify(units, defs).astype(np.int64).tobytes())
            finally:
                os._exit(0)
        os.close(write)
        try:
            got = b""
            deadline = time.monotonic() + 10
            while len(got) < 8 * len(expected) and time.monotonic() < deadline:
                ready, _, _ = select.select([read], [], [], max(0.0, deadline - time.monotonic()))
                chunk = os.read(read, 1 << 16) if ready else b""
                if not chunk:
                    break
                got += chunk
        finally:
            os.close(read)
            if os.waitpid(pid, os.WNOHANG) == (0, 0):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        assert np.array_equal(np.frombuffer(got, dtype=np.int64), expected)
