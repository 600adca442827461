"""Nearest-definition cosine classifier."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np


# Rows per block hold about this many elements, which bounds the row-major
# scratch array of row_norms (256 KiB of float64).
_BLOCK_ELEMENTS = 1 << 15

# classify splits its (k, n) product into one column block per this many
# multiply-adds: on 2 CPUs with OpenBLAS 0.3 at one thread a split lost at
# 4.9 M and won from 6.6 M up.
_SPLIT_MULTIPLY_ADDS = 1 << 22

# ...and into at most this many blocks, the most that has been timed.
_MAX_BLOCKS = 2


def _blas_one_thread() -> bool:
    """Whether the environment holds OpenBLAS to one thread. Its variables
    are read in OpenBLAS's order, the first that is set winning; the BLAS
    reads them when numpy loads it, which is before this module runs."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value:
            return value == "1"
    return False


# A split pays only beside a one-thread BLAS: with OpenBLAS's own threads on
# both CPUs the unsplit product was 4-16% faster.
_BLAS_ONE_THREAD = _blas_one_thread()

# The pool that computes all column blocks but the caller's, one per process.
_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None


def _max_blocks() -> int:
    """The most column blocks classify may split a product into: one per CPU
    in the affinity mask up to `_MAX_BLOCKS` beside a one-thread BLAS, else
    one."""
    if not _BLAS_ONE_THREAD:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(_MAX_BLOCKS, cpus)


def _workers() -> ThreadPoolExecutor:
    """This process's block pool, made at first use. A forked child makes its
    own, since the parent's threads are gone: `_forget_pool` drops the
    parent's."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_MAX_BLOCKS - 1, thread_name_prefix="classify")
        return _pool


def _forget_pool() -> None:
    # A thread of the parent may have held the lock at the fork.
    global _pool_lock, _pool
    _pool_lock = threading.Lock()
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)


def _as_matrix(vectors, copy: bool = False) -> np.ndarray:
    try:
        if copy:
            matrix = np.array(vectors, dtype=np.float64)
        else:
            matrix = np.asarray(vectors, dtype=np.float64)
    except ValueError as exc:
        raise ValueError("vector dimension mismatch") from exc
    if matrix.shape[:1] == (0,):
        raise ValueError("vector list must be nonempty")
    if matrix.ndim != 2:
        raise ValueError("vector dimension mismatch")
    return matrix


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of the (n, d) float64 matrix.

    Each norm has the bits of `np.linalg.norm(m, axis=1)` for the row-major
    m of the same values, whatever the matrix's layout: the rows are squared
    into one row-major scratch array a block at a time and summed along it.
    A block holds at most `_BLOCK_ELEMENTS` elements (or one row), so the
    scratch stays small. A row can be normalised exactly when its norm is
    finite and positive.
    """
    n, d = matrix.shape
    step = max(1, _BLOCK_ELEMENTS // max(1, d))
    squares = np.empty((min(step, n), d))
    norms = np.empty(n)
    for start in range(0, n, step):
        block = matrix[start : start + step]
        rows = squares[: len(block)]
        np.copyto(rows, block)
        # np.linalg.norm's own sum for axis=1, without its full-size temporary;
        # a sum that overflows is an infinite norm, which the caller refuses.
        with np.errstate(over="ignore"):
            np.multiply(rows, rows, out=rows)
        np.add.reduce(rows, axis=1, out=norms[start : start + step])
    return np.sqrt(norms, out=norms)


def unit_rows(vectors, what: str, *, in_place: bool = False) -> np.ndarray:
    """The rows scaled to unit length, as a float64 (n, d) array.

    The result is a new array in the layout of `vectors` (a column-major
    matrix stays column-major), unless `in_place` is set: then a float64
    array the caller owns is normalised in its own memory and returned. The
    norms come from `row_norms`, so the temporaries stay small, and each row
    gets the same bits as `m / np.linalg.norm(m, axis=1)[:, None]` for the
    row-major m of the same values. `what` names the rows in the error
    raised for a row whose norm is zero or not finite; the array is then
    left as it was.
    """
    matrix = _as_matrix(vectors, copy=not in_place)
    norms = row_norms(matrix)
    if not np.all(norms < np.inf):
        raise ValueError(f"non-finite norm of a {what} vector")
    if not np.all(norms > 0.0):
        raise ValueError(f"zero-norm {what} vector")
    matrix /= norms[:, None]
    return matrix


def _operands(doc_units, def_vecs) -> tuple[np.ndarray, np.ndarray]:
    docs = _as_matrix(doc_units)
    defs = unit_rows(def_vecs, "definition")
    if defs.shape[0] < 2:
        raise ValueError("need at least 2 definition vectors")
    if docs.shape[1] != defs.shape[1]:
        raise ValueError(f"dimension mismatch: docs d={docs.shape[1]}, defs d={defs.shape[1]}")
    return docs, defs


def cosine_scores(doc_units, def_vecs) -> np.ndarray:
    """The n-by-k cosine score matrix, `np.clip(docs @ defs.T, -1, 1)`.

    Takes the same arguments as `classify`. This is the exact product, the
    float64 product of the document matrix as given: its row-wise argmax,
    ties to the lowest index, is what `classify` returns, and `classify`
    computes it, for the whole split and with no copy of it, when some
    document's best score in the faster (k, n) product does not lead every
    other by more than `_tie_margin(d)`. Its bits can depend on the layout:
    at a near tie, a column-major and a row-major matrix of the same values
    may round to different scores. All arithmetic is double precision.
    """
    docs, defs = _operands(doc_units, def_vecs)
    scores = docs @ defs.T
    return np.clip(scores, -1.0, 1.0, out=scores)


def _tie_margin(d: int) -> float:
    """The score gap above which the (k, n) and (n, k) products agree.

    For rows of norm at most 1 + e, e = (d + 4) u, u = 2**-53 (unit_rows
    gives those), any floating-point evaluation of a length-d dot product is
    within g (1 + e)**2 of the exact one, g = d u / (1 - d u) (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.1), so two evaluations
    differ by at most `spread`, and a score passes +-1 by at most
    `overshoot`. A best score ahead of every other by more than 2 spread +
    overshoot is strictly ahead in the other product too, and stays ahead
    after the clip to [-1, 1]. The factor 2 covers the rounding of this
    arithmetic and of the subtraction in `_certain_argmax`.
    """
    u = 2.0**-53
    gamma = d * u / (1.0 - d * u)
    norms = (1.0 + (d + 4) * u) ** 2
    spread = 2.0 * gamma * norms
    overshoot = norms * (1.0 + gamma) - 1.0
    return 2.0 * (2.0 * spread + overshoot)


def classify(doc_units, def_vecs) -> np.ndarray:
    """Assign each document the category with the most similar definition.

    `doc_units` holds the documents as unit rows, `unit_rows(vectors,
    "document")`, so a caller that classifies one split many times normalises
    it once. `def_vecs` is an array-like of definition row vectors, an (k, d)
    array or a list of d-vectors, and is unit-normalised here. Returns the
    predicted category index per document: always the row-wise argmax of
    `cosine_scores(doc_units, def_vecs)`, ties to the lowest index, for the
    document matrix as given, in either layout.

    The scores come from the cheaper (k, n) product `defs @ docs.T`, whose
    bits may differ from the exact (n, k) one. It runs fastest on a
    column-major document matrix, as the embedding gateway returns: `docs.T`
    is then C-contiguous and the product a plain, untransposed gemm. A
    large product may run in column blocks on two CPUs (`_product`). A
    document's prediction is certain when its best score beats every other
    by more than `_tie_margin(d)`, (14 d + 16) 2**-53 (4e-13 at d = 256): no
    rounding can then reorder the two products, nor can the clip make two
    exact scores tie. If any document is not certain (an exact or near tie,
    such as two (near-)duplicate definitions give), the whole split is
    classified from `cosine_scores`, since a subset of rows is not known to
    give the full product's bits. The proof needs document rows of norm at
    most 1 + (d + 4) 2**-53, which `unit_rows` gives; shorter rows are fine
    too.
    """
    docs, defs = _operands(doc_units, def_vecs)
    predictions = _certain_argmax(_product(defs, docs.T), _tie_margin(docs.shape[1]))
    if predictions is None:
        return np.argmax(cosine_scores(doc_units, def_vecs), axis=1)
    return predictions


def _product(defs: np.ndarray, docs_t: np.ndarray) -> np.ndarray:
    """`defs @ docs_t`, a (k, n) product, in column blocks on several CPUs.

    There is a block per `_SPLIT_MULTIPLY_ADDS` multiply-adds, up to
    `_max_blocks()` (and one per column). The calling thread computes the
    first and the pool the others, each into its own columns of the one
    result array, so a worker allocates no array. Each column's bits may
    differ from those of the unsplit product; `_tie_margin` bounds any
    evaluation of a dot product, so the certificate holds for both.
    """
    (k, d), n = defs.shape, docs_t.shape[1]
    blocks = min(_max_blocks(), n * d * k // _SPLIT_MULTIPLY_ADDS, n)
    if blocks < 2:
        return defs @ docs_t
    scores = np.empty((k, n))
    bounds = [n * i // blocks for i in range(blocks + 1)]
    pool = _workers()
    jobs = [
        pool.submit(np.matmul, defs, docs_t[:, a:b], out=scores[:, a:b])
        for a, b in zip(bounds[1:-1], bounds[2:])
    ]
    try:
        np.matmul(defs, docs_t[:, : bounds[1]], out=scores[:, : bounds[1]])
    finally:
        for job in jobs:
            job.result()
    return scores


def _certain_argmax(scores: np.ndarray, margin: float) -> np.ndarray | None:
    """Column-wise argmax of the (k, n) `scores`, or None unless every
    column's best score beats all others in it by more than `margin`."""
    k = scores.shape[0]
    # Counts are at most k and indices below it, so the narrowest type that
    # holds k sums them; a NaN column has no near entry, so is not certain.
    small = np.min_scalar_type(k)
    near = scores >= scores.max(axis=0) - margin
    if not np.all(near.sum(axis=0, dtype=small) == 1):
        return None
    rows = np.arange(k, dtype=small)[:, None]
    return np.add.reduce(near * rows, axis=0, dtype=small).astype(np.intp)
