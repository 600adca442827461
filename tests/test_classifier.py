"""Cosine classifier against a naive double-loop oracle."""

import math
import os
import select
import signal
import threading
import time

import numpy as np
import pytest

from defrefine import classifier, embeddings
from defrefine.classifier import classify, cosine_scores

from conftest import unit


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


class TestBitIdentity:
    """Unit rows made once give the same bits as normalising on every call,
    and classify's certified argmax is the argmax of those scores."""

    @staticmethod
    def _assert_same(docs, defs):
        units, def_units = unit(docs), unit(defs)
        scores = cosine_scores(units, def_units)
        ref_scores, ref_preds = classify_normalising_inside(docs, defs)
        assert np.array_equal(scores, ref_scores)
        assert np.array_equal(np.argmax(scores, axis=1), ref_preds)
        assert np.array_equal(classify(units, def_units), np.argmax(ref_scores, axis=1))

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
        # A column-major matrix divided in place by its `row_norms`, as the
        # embedding gateway makes unit rows, gets the bits of the row-major
        # one and keeps its layout.
        d = 64
        n = int(blocks * (embeddings._BLOCK_ELEMENTS // d))
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-150, 150, size=(n, 1))
        reference = m / np.linalg.norm(m, axis=1)[:, None]
        owned = np.array(m, order=order)
        owned /= embeddings.row_norms(owned)[:, None]
        assert np.array_equal(owned, reference)
        assert owned.flags[order + "_CONTIGUOUS"]

    def test_list_and_float32_inputs(self):
        rng = np.random.default_rng(37)
        docs = rng.standard_normal((20, 8)).astype(np.float32)
        defs = rng.standard_normal((4, 8))
        self._assert_same(docs, defs.tolist())
        self._assert_same(docs.tolist(), defs.astype(np.float32))
        units, def_units = unit(docs), unit(defs)
        assert np.array_equal(classify(units.tolist(), def_units.tolist()), classify(units, def_units))
        assert np.array_equal(cosine_scores(units.tolist(), def_units.tolist()), cosine_scores(units, def_units))


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
    def _assert_exact(units, def_units):
        expected = np.argmax(cosine_scores(units, def_units), axis=1)
        assert np.array_equal(classify(units, def_units), expected)

    @pytest.mark.parametrize("n, d, k", [(37, 5, 3), (64, 33, 9), (250, 64, 20), (250, 1024, 20), (500, 256, 20)])
    def test_random_shapes(self, n, d, k):
        for seed in range(40):
            rng = np.random.default_rng([n, d, k, seed])
            docs, defs = rng.standard_normal((n, d)), rng.standard_normal((k, d))
            self._assert_exact(unit(docs), unit(defs))
            for docs, defs in (swapped_pair(rng, n, d, k, tied=n), near_duplicates(rng, n, d, k, dups=2, near=2)):
                self._assert_exact(unit(docs), unit(defs))

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
                units = unit(np.asfortranarray(docs))
                assert units.T.flags.c_contiguous
                self._assert_exact(units, unit(defs))
                self._assert_exact(units, unit(np.asfortranarray(defs)))

    def test_exact_ties_go_to_the_lower_index_column_major(self):
        rng = np.random.default_rng(41)
        defs = rng.standard_normal((4, 16))
        defs[2] = defs[0]
        docs = np.vstack([defs[0], defs[0] + 0.01 * rng.standard_normal((30, 16))])
        units = unit(np.asfortranarray(docs))
        assert set(classify(units, unit(defs)).tolist()) == {0}
        self._assert_exact(units, unit(defs))

    def test_exact_ties_go_to_the_lower_index(self):
        rng = np.random.default_rng(41)
        defs = rng.standard_normal((4, 16))
        defs[2] = defs[0]
        units = unit(np.vstack([defs[0], defs[0] + 0.01 * rng.standard_normal((30, 16))]))
        preds = classify(units, unit(defs))
        assert set(preds.tolist()) == {0}
        self._assert_exact(units, unit(defs))

    def test_near_ties(self):
        for seed in range(40):
            rng = np.random.default_rng([43, seed])
            for docs, defs in (
                near_duplicates(rng, 250, 64, 20, dups=20, near=250),
                near_duplicates(rng, 250, 64, 20, dups=2, near=2),
            ):
                self._assert_exact(unit(docs), unit(defs))

    def test_clip_ties_go_to_the_lower_index(self):
        # A document equal to definition a, and b one ulp from a: both exact
        # scores may reach 1.0 or beyond and clip to a tie that index 0 wins,
        # while the unclipped (k, n) product still ranks them apart.
        rng = np.random.default_rng(47)
        clipped = 0
        for _ in range(200):
            a = unit(rng.standard_normal((1, 8)))[0]
            b = a.copy()
            b[0] = np.nextafter(b[0], np.copysign(np.inf, b[0]))
            for defs in (np.array([a, b]), np.array([b, a])):
                units = unit(defs[:1])
                scores = cosine_scores(units, unit(defs))
                clipped += bool(np.all(scores == 1.0))
                self._assert_exact(units, unit(defs))
        assert clipped > 0

    def test_scaled_rows(self):
        for seed in range(40):
            rng = np.random.default_rng([53, seed])
            docs, defs = near_duplicates(rng, 250, 64, 20, dups=2, near=2)
            docs *= 10.0 ** rng.uniform(-150, 150, size=(250, 1))
            defs *= 10.0 ** rng.uniform(-150, 150, size=(20, 1))
            self._assert_exact(unit(docs), unit(defs))

    def test_float32_and_list_inputs(self):
        for seed in range(40):
            docs, defs = swapped_pair(np.random.default_rng([59, seed]), 250, 64, 20, tied=2, dtype=np.float32)
            units, def_units = unit(docs), unit(defs)
            self._assert_exact(units, def_units)
            self._assert_exact(units.tolist(), def_units.tolist())

    def test_exact_product_only_when_not_certain(self, monkeypatch):
        calls = []
        exact = classifier.cosine_scores

        def spy(doc_units, def_units):
            calls.append(len(doc_units))
            return exact(doc_units, def_units)

        monkeypatch.setattr(classifier, "cosine_scores", spy)
        rng = np.random.default_rng(61)
        units = unit(rng.standard_normal((2000, 32)))
        defs = rng.standard_normal((10, 32))
        classify(units, unit(defs))
        assert calls == []
        defs[7] = defs[3]
        classify(units, unit(defs))
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
            preds = classify(unit(docs), unit(defs))
            assert preds.tolist() == oracle_predict(docs.tolist(), defs.tolist())

    def test_scores_in_range_and_match_pairwise_cosine(self):
        rng = np.random.default_rng(3)
        docs = rng.standard_normal((8, 12))
        defs = rng.standard_normal((4, 12))
        scores = cosine_scores(unit(docs), unit(defs))
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
        units, units2, def_units = unit(docs), unit(docs * 37.5), unit(defs)
        scores, preds = cosine_scores(units, def_units), classify(units, def_units)
        scores2, preds2 = cosine_scores(units2, def_units), classify(units2, def_units)
        assert preds.tolist() == preds2.tolist()
        np.testing.assert_allclose(scores, scores2, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        docs = rng.standard_normal((30, 9))
        defs = rng.standard_normal((6, 9))
        perm = rng.permutation(6)
        preds = classify(unit(docs), unit(defs))
        preds_p = classify(unit(docs), unit(defs[perm]))
        # Category j moved to position inv[j] in the permuted list.
        inv = np.argsort(perm)
        assert preds_p.tolist() == inv[preds].tolist()

    def test_identity_setup(self):
        rng = np.random.default_rng(19)
        defs = rng.standard_normal((7, 15))
        preds = classify(unit(defs), unit(defs))
        assert preds.tolist() == list(range(7))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            classify([[1.0, 0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])

    def test_definition_rows_are_compared_as_given(self):
        # The embedding gateway makes the unit rows; classify scales nothing.
        scores = cosine_scores([[0.6, 0.8]], [[0.5, 0.0], [0.0, 0.25]])
        assert scores.tolist() == [[0.3, 0.2]]
        assert classify([[0.6, 0.8]], [[0.5, 0.0], [0.0, 0.25]]).tolist() == [0]


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


def _assert_exact(units, def_units):
    expected = np.argmax(cosine_scores(units, def_units), axis=1)
    assert np.array_equal(classify(units, def_units), expected)


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
                _assert_exact(unit(np.array(docs, order=order)), unit(defs))
        bounds = [n * i // cpus for i in range(cpus + 1)]
        pool_widths = [b - a for a, b in zip(bounds[1:-1], bounds[2:])]
        assert recorder.widths == pool_widths * 80

    def test_exact_product_once_for_an_uncertain_column_in_a_later_block(self, split_into, monkeypatch):
        calls = []
        exact = classifier.cosine_scores

        def spy(doc_units, def_units):
            calls.append(len(doc_units))
            return exact(doc_units, def_units)

        monkeypatch.setattr(classifier, "cosine_scores", spy)
        recorder = split_into(3)
        rng = np.random.default_rng(73)
        defs = rng.standard_normal((10, 32))
        defs[7] = defs[3]
        def_units = unit(defs)
        others = [j for j in range(10) if j not in (3, 7)]
        docs = defs[[others[i % len(others)] for i in range(300)]] + 0.01 * rng.standard_normal((300, 32))
        for tied in (299, 200):  # the last column, and the first of the last block
            case = docs.copy()
            case[tied] = defs[3]
            units = unit(np.asfortranarray(case))
            calls.clear()
            preds = classify(units, def_units)
            assert calls == [300]
            assert preds[tied] == 3
            assert np.array_equal(preds, np.argmax(exact(units, def_units), axis=1))
        calls.clear()
        classify(unit(np.asfortranarray(docs)), def_units)
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
        _assert_exact(unit(docs), unit(defs))
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
        _assert_exact(unit(docs), unit(defs))
        assert recorder.widths == [1] * (n - 1)

    def test_concurrent_callers(self, split_into):
        split_into(3)
        cases = []
        for seed in range(2):
            rng = np.random.default_rng([83, seed])
            docs, defs = near_duplicates(rng, 400, 64, 12, dups=2, near=2)
            units, def_units = unit(np.asfortranarray(docs)), unit(defs)
            cases.append((units, def_units, np.argmax(cosine_scores(units, def_units), axis=1)))
            units = unit(np.asfortranarray(rng.standard_normal((400, 64))))
            def_units = unit(rng.standard_normal((12, 64)))
            cases.append((units, def_units, np.argmax(cosine_scores(units, def_units), axis=1)))
        wrong = []

        def run(i):
            for _ in range(30):
                for units, def_units, expected in cases[i::2]:
                    if not np.array_equal(classify(units, def_units), expected):
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
        units = unit(np.asfortranarray(rng.standard_normal((500, 32))))
        def_units = unit(rng.standard_normal((8, 32)))
        expected = classify(units, def_units)
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            try:
                signal.alarm(5)
                os.write(write, classify(units, def_units).astype(np.int64).tobytes())
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
