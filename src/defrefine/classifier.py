"""Nearest-definition cosine classifier."""

from __future__ import annotations

import numpy as np


# Rows per block hold about this many elements, which bounds the squares
# temporary that unit_rows needs (2 MiB of float64).
_BLOCK_ELEMENTS = 1 << 18


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


def unit_rows(vectors, what: str, *, in_place: bool = False) -> np.ndarray:
    """The rows scaled to unit length, as a float64 (n, d) array.

    The result is a new array, unless `in_place` is set: then a float64
    array the caller owns is normalised in its own memory and returned.
    Rows are normalised in blocks, so the temporary stays small; each row
    gets the same bits as `m / np.linalg.norm(m, axis=1)[:, None]`. `what`
    names the rows in the error raised for a zero-norm row, which may leave
    an in-place array partly normalised.
    """
    matrix = _as_matrix(vectors, copy=not in_place)
    step = max(1, _BLOCK_ELEMENTS // max(1, matrix.shape[1]))
    for start in range(0, matrix.shape[0], step):
        block = matrix[start : start + step]
        # np.linalg.norm's own sum for axis=1, without its full-size temporary.
        norms = np.sqrt(np.add.reduce(block * block, axis=1))
        if np.any(norms == 0.0):
            raise ValueError(f"zero-norm {what} vector")
        block /= norms[:, None]
    return matrix


def classify(doc_units, def_vecs) -> tuple[np.ndarray, np.ndarray]:
    """Assign each document the category with the most similar definition.

    `doc_units` holds the documents as unit rows, `unit_rows(vectors,
    "document")`, so a caller that classifies one split many times normalises
    it once. `def_vecs` is an array-like of definition row vectors, an (k, d)
    array or a list of d-vectors, and is unit-normalised here. Returns the
    n-by-k cosine score matrix and the predicted category index per document.
    Ties break to the lowest index. All arithmetic is double precision so the
    argmax is stable near ties.
    """
    docs = _as_matrix(doc_units)
    defs = unit_rows(def_vecs, "definition")
    if defs.shape[0] < 2:
        raise ValueError("need at least 2 definition vectors")
    if docs.shape[1] != defs.shape[1]:
        raise ValueError(f"dimension mismatch: docs d={docs.shape[1]}, defs d={defs.shape[1]}")
    scores = np.clip(docs @ defs.T, -1.0, 1.0)
    predictions = np.argmax(scores, axis=1)
    return scores, predictions
