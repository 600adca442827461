"""Nearest-definition cosine classifier."""

from __future__ import annotations

import numpy as np


def _as_matrix(vectors) -> np.ndarray:
    try:
        matrix = np.asarray(vectors, dtype=np.float64)
    except ValueError as exc:
        raise ValueError("vector dimension mismatch") from exc
    if matrix.shape[:1] == (0,):
        raise ValueError("vector list must be nonempty")
    if matrix.ndim != 2:
        raise ValueError("vector dimension mismatch")
    return matrix


def _row_norms(matrix: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1)
    if np.any(norms == 0.0):
        raise ValueError(f"zero-norm {what} vector")
    return norms


def classify(doc_vecs, def_vecs) -> tuple[np.ndarray, np.ndarray]:
    """Assign each document the category with the most similar definition.

    Both inputs are array-likes of row vectors, an (n, d) array or a list of
    d-vectors, and are unit-normalised here. Returns the n-by-k cosine score
    matrix and the predicted category index per document. Ties break to the
    lowest index. All arithmetic is double precision so the argmax is stable
    near ties.
    """
    docs = _as_matrix(doc_vecs)
    defs = _as_matrix(def_vecs)
    if defs.shape[0] < 2:
        raise ValueError("need at least 2 definition vectors")
    if docs.shape[1] != defs.shape[1]:
        raise ValueError(f"dimension mismatch: docs d={docs.shape[1]}, defs d={defs.shape[1]}")
    docs_unit = docs / _row_norms(docs, "document")[:, None]
    defs_unit = defs / _row_norms(defs, "definition")[:, None]
    scores = np.clip(docs_unit @ defs_unit.T, -1.0, 1.0)
    predictions = np.argmax(scores, axis=1)
    return scores, predictions
