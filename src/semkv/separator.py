"""Semantic vectors, per-layer head distances, and heterogeneity classification.

A head's semantic vector is the column-mean of its causal attention matrix
weighted into its value states. The production path approximates it from an
observation window of the last L query rows, keeping only the top-t scoring
key positions; the exact full-sequence form is kept for verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptyInputError, ParameterError
from .linalg import AttentionInputs, attention_weights


class HeadClass(str, Enum):
    HETEROGENEOUS = "heterogeneous"
    NON_HETEROGENEOUS = "non-heterogeneous"


@dataclass(frozen=True)
class HeterogeneitySchedule:
    """Per-layer heterogeneous-head counts, linearly interpolated.

    Layer 0 gets round(n * beta) heads, the top layer gets `top_m`, interior
    layers follow the line between them, rounded half-away-from-zero and
    clamped to [0, n].
    """

    beta: float
    top_m: int
    per_layer_counts: tuple[int, ...]


def semantic_vector_full(inputs: AttentionInputs) -> np.ndarray:
    """Exact (d,) semantic vector: (column-mean of full causal attention) @ V."""
    return attention_weights(inputs, inputs.seq_len).mean(axis=0) @ inputs.values


def check_window_len(window_len: int, seq_len: int) -> None:
    if not 1 <= window_len <= seq_len:
        raise ParameterError(f"window_len {window_len} outside [1, {seq_len}]")


def window_column_scores(
    inputs: AttentionInputs, window_len: int, out: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """(N,) per-key attention mass averaged over the last `window_len` query rows.

    The scores sum to at most 1: each averaged row sums to 1, and a column
    blocked for every window row gets 0. `out` keeps the window's causal
    scores and their row max, as `attention_weights` leaves them.
    """
    check_window_len(window_len, inputs.seq_len)
    return attention_weights(inputs, window_len, out).mean(axis=0)


def check_top_t(t: int) -> None:
    if t < 1:
        raise ParameterError(f"top_t must be >= 1, got {t}")


def top_t_indices(values: np.ndarray, t: int) -> np.ndarray:
    """Sorted indices of the min(t, len) largest entries; ties favor lower index.

    One `np.partition` finds the t-th largest value, with no full sort:
    every entry above it is kept, then the lowest-index entries equal to
    it until t are kept (-0.0 equals 0.0).
    """
    check_top_t(t)
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if t >= n:
        return np.arange(n)
    kth = np.partition(values, n - t)[n - t]
    keep = values > kth
    ties = np.flatnonzero(values == kth)
    keep[ties[: t - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def approx_semantic_vector(scores: np.ndarray, values: np.ndarray, t: int) -> np.ndarray:
    """Windowed top-t (d,) semantic vector: sum of C[i] * V[i] over the
    top-t window scores C.

    Weights are the raw column means, deliberately not renormalized. Only
    the selected V rows are widened to float64.
    """
    values = np.asarray(values)
    if values.shape[0] != scores.shape[0]:
        raise ParameterError(f"values rows {values.shape[0]} != score length {scores.shape[0]}")
    selected = top_t_indices(scores, t)
    return scores[selected] @ np.asarray(values[selected], dtype=np.float64)


def head_distances(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A layer's semantic center (the mean of its (n, d) head vectors) and
    each head's Euclidean distance to it."""
    stacked = np.asarray(vectors, dtype=np.float64)
    if len(stacked) == 0:
        raise EmptyInputError("head_distances needs at least one vector")
    center = stacked.mean(axis=0)
    return center, np.linalg.norm(stacked - center, axis=1)


def _round_half_away(x: float) -> int:
    # values here are always >= 0
    return int(np.floor(x + 0.5))


def heterogeneous_schedule(
    n: int, beta: float, m: int, num_layers: int
) -> HeterogeneitySchedule:
    """Heterogeneous-head count per layer: n*beta at the bottom, m at the top.

    f(r) = n*beta - (n*beta - m) / (R - 1) * r, rounded half-away-from-zero
    and clamped to [0, n]. A single-layer model degenerates to f(0) = m.
    """
    if num_layers < 1:
        raise ParameterError("num_layers must be >= 1")
    if not 0 < beta <= 1:
        raise ParameterError(f"beta {beta} outside (0, 1]")
    if not 0 <= m <= n:
        raise ParameterError(f"m {m} outside [0, {n}]")
    if num_layers == 1:
        counts = (min(max(m, 0), n),)
    else:
        nb = n * beta
        slope = (nb - m) / (num_layers - 1)
        counts = tuple(
            min(max(_round_half_away(nb - slope * r), 0), n)
            for r in range(num_layers)
        )
    return HeterogeneitySchedule(beta=beta, top_m=m, per_layer_counts=counts)


def classify_heads(distances: np.ndarray, f_r: int) -> list[HeadClass]:
    """Mark the f_r - 1 farthest-from-center heads plus the single closest one.

    The closest head is drawn from the remaining (non-heterogeneous) set so
    the result always has exactly f_r heterogeneous heads. Distance ties
    break toward the lower head index.
    """
    distances = np.asarray(distances, dtype=np.float64)
    n = distances.shape[0]
    if not 1 <= f_r <= n:
        raise ParameterError(f"f_r {f_r} outside [1, {n}]")
    classes = [HeadClass.NON_HETEROGENEOUS] * n
    by_far = np.argsort(-distances, kind="stable")
    chosen = set(by_far[: f_r - 1].tolist())
    for idx in np.argsort(distances, kind="stable"):
        if int(idx) not in chosen:
            chosen.add(int(idx))
            break
    for idx in chosen:
        classes[idx] = HeadClass.HETEROGENEOUS
    return classes


def build_layer_profiles(vectors: np.ndarray, f_r: int) -> tuple[np.ndarray, list[HeadClass]]:
    """One layer's classification from its (n, d) semantic vectors: each
    head's distance to the layer's semantic center, and its class.

    f_r == 0 marks every head non-heterogeneous without invoking the
    ranking rule.
    """
    _, distances = head_distances(vectors)
    if f_r == 0:
        return distances, [HeadClass.NON_HETEROGENEOUS] * len(distances)
    return distances, classify_heads(distances, f_r)
