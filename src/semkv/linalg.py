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
    last rows of the sequence: every row, or only the trailing rows a caller
    attends from. Data a caller passes in is checked to be finite;
    `checked=True` marks data already checked, such as a trace's, and skips
    that pass.
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
    def head_dim(self) -> int:
        return self.keys.shape[1]


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
    # one buffer, updated in place: the same values as fresh arrays, with
    # no page faults for three more score-sized temporaries
    out = np.where(allowed, scores, -np.inf)
    out -= np.max(out, axis=1, keepdims=True)
    np.exp(out, out=out)
    out /= np.sum(out, axis=1, keepdims=True)
    return _require_finite(out, "softmax output")


def attention_weights(inputs: AttentionInputs, rows: int | None = None) -> np.ndarray:
    """Causal attention softmax(Q K^T / sqrt(d)) of the last `rows` query
    rows over every key, shape (rows, N); `rows` defaults to every query row
    `inputs` holds. Row i attends the keys up to its own position."""
    n, held = inputs.seq_len, len(inputs.queries)
    rows = held if rows is None else rows
    if not 1 <= rows <= held:
        raise DimensionError(f"rows {rows} outside [1, {held}]")
    scores = (inputs.queries[held - rows :] @ inputs.keys.T) / np.sqrt(float(inputs.head_dim))
    allowed = np.arange(n)[None, :] <= np.arange(n - rows, n)[:, None]
    return masked_softmax(scores, allowed)


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


def spectral_norm(matrix):
    """Largest singular value, from LAPACK's SVD (np.linalg.norm(w, 2)), of a
    matrix (a float) or of each matrix in a (k, m, n) stack (a (k,) array).

    Each matrix of a stack gets the bits it gets on its own. An all-zero
    matrix returns 0.0.
    """
    w = np.asarray(matrix, dtype=np.float64)
    if w.ndim not in (2, 3):
        raise DimensionError(f"matrix must be 2-D or a 3-D stack, got shape {w.shape}")
    if w.size == 0:
        raise EmptyInputError("spectral_norm needs a non-empty matrix")
    _require_finite(w, "matrix")
    if w.ndim == 2:
        return float(np.linalg.norm(w, 2))
    return np.linalg.norm(w, 2, axis=(1, 2))
