"""Dense linear-algebra kernels: masked attention, PCA, spectral norm.

Matrices are 2-D float64 C-order ndarrays throughout. Everything computes in
float64 regardless of how traces are stored, so results do not depend on
accumulation order quirks of narrower types.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyInputError


def _as_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def _require_finite(a: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains NaN/Inf entries")
    return a


@dataclass(frozen=True)
class AttentionInputs:
    """Per-head query/key/value states.

    `keys` and `values` have shape (seq_len, head_dim). `queries` holds the
    last rows of the sequence, from `first_query` on: every row, or only the
    trailing rows a caller attends from. Data a caller
    passes in is checked to be finite; `checked=True` marks data already
    checked, such as a trace's, and skips that pass.
    """

    queries: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    checked: bool = False

    def __post_init__(self):
        q = _as_matrix(self.queries, "queries")
        k = _as_matrix(self.keys, "keys")
        v = _as_matrix(self.values, "values")
        object.__setattr__(self, "queries", q)
        object.__setattr__(self, "keys", k)
        object.__setattr__(self, "values", v)
        if q.shape[0] == 0 or k.shape[0] == 0 or k.shape[1] == 0:
            raise EmptyInputError("attention inputs need seq_len >= 1 and head_dim >= 1")
        if not (k.shape == v.shape and q.shape[1] == k.shape[1] and q.shape[0] <= k.shape[0]):
            raise DimensionError(f"Q/K/V shapes differ: {q.shape}, {k.shape}, {v.shape}")
        if not self.checked:
            for name, m in (("queries", q), ("keys", k), ("values", v)):
                _require_finite(m, name)

    @property
    def seq_len(self) -> int:
        return self.keys.shape[0]

    @property
    def first_query(self) -> int:
        return len(self.keys) - len(self.queries)

    @property
    def head_dim(self) -> int:
        return self.keys.shape[1]


@dataclass(frozen=True)
class CausalMask:
    """Causal visibility for a block of query rows against key columns.

    Entry (i, j) is allowed iff j <= offset + i, where `offset` is the
    absolute sequence position of the first query row.
    """

    query_rows: int
    key_cols: int
    offset: int = 0

    def __post_init__(self):
        if self.query_rows < 1 or self.key_cols < 1:
            raise EmptyInputError("mask needs at least one row and one column")
        if self.offset < 0:
            raise DimensionError("mask offset must be >= 0")

    @classmethod
    def full(cls, seq_len: int) -> "CausalMask":
        return cls(query_rows=seq_len, key_cols=seq_len, offset=0)

    @classmethod
    def window(cls, window_len: int, seq_len: int) -> "CausalMask":
        """Mask for the last `window_len` query rows of a `seq_len` sequence."""
        if not 1 <= window_len <= seq_len:
            raise DimensionError(
                f"window_len {window_len} outside [1, {seq_len}]"
            )
        return cls(query_rows=window_len, key_cols=seq_len, offset=seq_len - window_len)

    def allowed(self) -> np.ndarray:
        rows = np.arange(self.query_rows)[:, None] + self.offset
        cols = np.arange(self.key_cols)[None, :]
        return cols <= rows


def masked_softmax(scores: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Row-wise softmax over allowed entries; blocked entries are exactly 0.

    Subtracts the per-row max of the allowed entries before exponentiating
    so large score magnitudes cannot overflow.
    """
    scores = _as_matrix(scores, "scores")
    if allowed.shape != scores.shape:
        raise DimensionError(
            f"mask shape {allowed.shape} does not match scores {scores.shape}"
        )
    if not allowed.any(axis=1).all():
        raise EmptyInputError("every row must have at least one allowed entry")
    neg = np.where(allowed, scores, -np.inf)
    shifted = neg - np.max(neg, axis=1, keepdims=True)
    expd = np.exp(shifted)
    out = expd / np.sum(expd, axis=1, keepdims=True)
    return _require_finite(out, "softmax output")


def attention_weights(
    inputs: AttentionInputs,
    mask: CausalMask,
    query_rows: range | None = None,
) -> np.ndarray:
    """Row-stochastic attention matrix softmax(Q K^T / sqrt(d)) under `mask`.

    `query_rows` selects a contiguous block of the query rows `inputs` holds
    (default: all of them); the mask must describe exactly that block.
    """
    n, first = inputs.seq_len, inputs.first_query
    if query_rows is None:
        query_rows = range(first, n)
    if len(query_rows) == 0:
        raise EmptyInputError("query_rows selects no rows")
    if query_rows.step != 1 or query_rows.start < first or query_rows.stop > n:
        raise DimensionError(
            f"query_rows {query_rows} outside [{first}, {n}) or non-contiguous"
        )
    if mask.query_rows != len(query_rows) or mask.key_cols != n:
        raise DimensionError(
            f"mask is {mask.query_rows}x{mask.key_cols}, "
            f"selection needs {len(query_rows)}x{n}"
        )
    if mask.offset != query_rows.start:
        raise DimensionError(
            f"mask offset {mask.offset} does not match first query row {query_rows.start}"
        )
    q = inputs.queries[query_rows.start - first : query_rows.stop - first]
    scores = (q @ inputs.keys.T) / np.sqrt(float(inputs.head_dim))
    return masked_softmax(scores, mask.allowed())


def attention_output(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Weighted sum of value rows: result[i] = sum_j weights[i, j] * values[j]."""
    w = _as_matrix(weights, "weights")
    v = _as_matrix(values, "values")
    if w.shape[1] != v.shape[0]:
        raise DimensionError(
            f"weights cols {w.shape[1]} != values rows {v.shape[0]}"
        )
    return _require_finite(w @ v, "attention output")


def _fix_sign(axis: np.ndarray) -> np.ndarray:
    """Flip so the first loading with magnitude > 1e-12 is positive."""
    for x in axis:
        if abs(x) > 1e-12:
            return axis if x > 0 else -axis
    return axis


def pca_2d(points) -> np.ndarray:
    """Project d-dim points onto their top-2 principal axes.

    Axes are eigenvectors of the mean-centered covariance from LAPACK's
    symmetric eigensolver (np.linalg.eigh), ordered by descending eigenvalue,
    each sign-fixed so its first nonzero loading is positive. Returns an
    (n_points, 2) array; 1-D points get a zero second column.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None] if pts.size else pts.reshape(0, 0)
    if pts.shape[0] == 0:
        raise EmptyInputError("pca_2d needs at least one point")
    _require_finite(pts, "points")
    centered = pts - pts.mean(axis=0)
    cov = (centered.T @ centered) / pts.shape[0]
    _, vecs = np.linalg.eigh(cov)  # ascending eigenvalues
    axes = [_fix_sign(vecs[:, -1 - i]) for i in range(min(2, pts.shape[1]))]
    coords = np.zeros((pts.shape[0], 2))
    if axes:
        coords[:, : len(axes)] = centered @ np.column_stack(axes)
    return coords


def spectral_norm(matrix) -> float:
    """Largest singular value, from LAPACK's SVD (np.linalg.norm(w, 2)).

    An all-zero matrix returns 0.0.
    """
    w = _as_matrix(matrix, "matrix")
    if w.size == 0:
        raise EmptyInputError("spectral_norm needs a non-empty matrix")
    _require_finite(w, "matrix")
    return float(np.linalg.norm(w, 2))
