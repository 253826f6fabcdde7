"""Dense linear-algebra kernels: causal scores and softmax numerators, PCA,
spectral norm.

Everything computes in float64 regardless of how traces are stored, so
results do not depend on accumulation order quirks of narrower types.
The kernels read a trace's float32 rows at rest and widen what they read,
K one `_KEY_BLOCK` of keys at a time into the score matrix. Widening is
exact, so the bits are those of a float64 trace of the same values. A
walk over a mapped trace's rows gives their pages back (`give_back_pages`)
each `_GIVE_BACK_BYTES` it has read, so it holds that much of an array at
a time, not all of it.
"""

from __future__ import annotations

import mmap
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyInputError


def _as_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a)
    if m.dtype != np.float32:
        m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {m.shape}")
    return m


# Values are checked this many at a time: a chunk's max is taken while its
# min has left it in cache, so the data crosses memory once.
_FINITE_CHUNK = 1 << 17


def _require_finite(a: np.ndarray, name: str, error: type[Exception] = ValueError) -> None:
    """Raise `error` unless every value of `a` is finite.

    NaN propagates through min/max and an infinity is one of them, so no
    mask as large as `a` is made: `a` is read in memory order, one chunk
    at a time, and only a chunk of a strided or unaligned `a` is copied.
    """
    chunks = np.nditer(
        a, flags=["external_loop", "buffered", "zerosize_ok"], buffersize=_FINITE_CHUNK
    )
    for chunk in chunks:
        if not (np.isfinite(chunk.min()) and np.isfinite(chunk.max())):
            raise error(f"{name} contains NaN/Inf entries")


@dataclass(frozen=True)
class AttentionInputs:
    """Per-head query/key/value states. No library code builds one: the
    class stays only because the benchmark's span tracer wraps its
    constructor, and it goes with that tracer (ROADMAP item 19).

    `keys` and `values` have shape (seq_len, head_dim). `queries` holds the
    last rows of the sequence: every row, or only the trailing rows a caller
    attends from. float32 states stay float32, the form a trace holds at
    rest; any other dtype is widened to float64. Data a caller passes in is
    checked to be finite; `checked=True` marks data already checked, such as
    a trace's, and skips that pass.
    """

    queries: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    checked: bool = False

    def __post_init__(self):
        names = ("queries", "keys", "values")
        for name in names:
            object.__setattr__(self, name, _as_matrix(getattr(self, name), name))
        q, k, v = self.queries, self.keys, self.values
        if q.shape[0] == 0 or k.shape[0] == 0 or k.shape[1] == 0:
            raise EmptyInputError("attention inputs need seq_len >= 1 and head_dim >= 1")
        if not (k.shape == v.shape and q.shape[1] == k.shape[1] and q.shape[0] <= k.shape[0]):
            raise DimensionError(f"Q/K/V shapes differ: {q.shape}, {k.shape}, {v.shape}")
        if not self.checked:
            for name, m in zip(names, (q, k, v)):
                _require_finite(m, name)

    @property
    def seq_len(self) -> int:
        return self.keys.shape[0]

    @property
    def head_dim(self) -> int:
        return self.keys.shape[1]


def give_back_pages(view: np.ndarray) -> None:
    """Give back the process's pages that lie wholly inside `view`, a
    C-contiguous view of a trace file that `TraceReader` maps; the file's
    values come back from the page cache if the view is read again. Any
    other array, one held in memory, is left as it is."""
    owner = view
    while isinstance(owner, np.ndarray):
        owner = owner.base
    mapped = owner.obj if isinstance(owner, memoryview) else None
    if not isinstance(mapped, mmap.mmap) or not view.flags.c_contiguous:
        return
    first = view.ctypes.data - np.frombuffer(owner, np.uint8, 1).ctypes.data
    start = -(-first // mmap.PAGESIZE) * mmap.PAGESIZE
    stop = (first + view.nbytes) // mmap.PAGESIZE * mmap.PAGESIZE
    if stop > start:
        mapped.madvise(mmap.MADV_DONTNEED, start, stop - start)


# A walk over a mapped array's rows gives back the rows it has read each
# time they reach this many bytes, so it holds this much of the array.
_GIVE_BACK_BYTES = 2 << 20

# Keys are widened and scored this many at a time, so each widened block
# is still in cache when it is scored.
_KEY_BLOCK = 512


def _rows_per_give_back(rows: np.ndarray) -> int:
    """How many of `rows`' rows make `_GIVE_BACK_BYTES`, at least one."""
    return max(_GIVE_BACK_BYTES // max(rows.shape[1] * rows.itemsize, 1), 1)


def _key_blocks(rows: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """`rows` (N, d) in float64, `_KEY_BLOCK` rows at a time: each block's
    slice of the N rows and its rows, widened into one buffer that the next
    block overwrites, so one block is alive at a time. The rows read so far
    are given back each time they reach `_GIVE_BACK_BYTES`, and at the end."""
    buffer = np.empty((min(_KEY_BLOCK, len(rows)), rows.shape[1]))
    per_give_back, given = _rows_per_give_back(rows), 0
    for a in range(0, len(rows), _KEY_BLOCK):
        block = buffer[: len(rows) - a]
        np.copyto(block, rows[a : a + _KEY_BLOCK])
        yield slice(a, a + _KEY_BLOCK), block
        if a + _KEY_BLOCK - given >= per_give_back:
            given = a + _KEY_BLOCK
            give_back_pages(rows[:given])
    give_back_pages(rows)


def gathered_rows(rows: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """`rows[picks]` of sorted `picks`, widened to float64, (len(picks), d):
    gathered one `_GIVE_BACK_BYTES` stretch of rows at a time, each stretch
    given back once its picks are copied."""
    out = np.empty((len(picks), rows.shape[1]))
    per_give_back = _rows_per_give_back(rows)
    stops = np.arange(per_give_back, len(rows) + per_give_back, per_give_back)
    lo = 0
    for stop, hi in zip(stops, np.searchsorted(picks, stops)):
        if hi > lo:
            out[lo:hi] = rows[picks[lo:hi]]
            give_back_pages(rows[:stop])
        lo = hi
    return out


def _hidden_keys(rows: int) -> np.ndarray:
    """Key-major causal triangle of the last `rows` keys: key N - rows + t
    is hidden from query row i, at position N - rows + i, when t > i."""
    return np.arange(rows)[:, None] > np.arange(rows)


def causal_scores(queries: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one product of queries and keys: key-major scores
    S = K (Q^T / sqrt(d)), (N, rows), of the trailing query `rows` of the
    sequence whose (N, d) `keys` they attend, and each row's max over the
    keys it sees, (rows,). K is widened one `_KEY_BLOCK` at a time into S.
    S holds the hidden keys' scores too; only the max leaves them out.
    """
    n, rows = len(keys), len(queries)
    q = np.asarray(queries, dtype=np.float64).T / np.sqrt(float(keys.shape[1]))
    scores, shift = np.empty((n, rows)), np.empty(rows)
    for at, block in _key_blocks(keys):
        np.matmul(block, q, out=scores[at])
    # a masked max, so no float copy of the (rows, rows) tail is made
    scores[n - rows :].max(axis=0, initial=-np.inf, where=~_hidden_keys(rows), out=shift)
    if n > rows:
        np.maximum(shift, scores[: n - rows].max(axis=0), out=shift)
    return scores, shift


def causal_numerators(scores: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The softmax numerators E = exp(S - shift) of a `causal_scores` pair,
    formed in place on S and returned: 0 where a row does not see the key,
    at most 1 elsewhere. With finite scores, a finite row max means a
    finite softmax row, so the max is checked first."""
    _require_finite(shift, "attention row max")
    rows = len(shift)
    np.subtract(scores, shift, out=scores)
    np.copyto(scores[len(scores) - rows :], -np.inf, where=_hidden_keys(rows))
    return np.exp(scores, out=scores)


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
