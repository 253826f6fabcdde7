"""Semantic vectors, per-layer head distances, and heterogeneity classification.

A head's semantic vector is the column-mean of its causal attention matrix
weighted into its value states. It is approximated from an observation
window of the last L query rows, keeping only the top-t scoring key
positions (the exact full-sequence form is the test reference's).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptyInputError, ParameterError
from .linalg import _rows_per_give_back, gathered_rows


class HeadClass(str, Enum):
    HETEROGENEOUS = "heterogeneous"
    NON_HETEROGENEOUS = "non-heterogeneous"


@dataclass(frozen=True)
class HeterogeneitySchedule:
    """Per-layer heterogeneous-head counts, linearly interpolated.

    Layer 0 gets round(n * beta) heads, the top layer gets `top_m`, interior
    layers follow the line between them, rounded half-away-from-zero.
    """

    beta: float
    top_m: int
    per_layer_counts: tuple[int, ...]


def check_window_len(window_len: int, seq_len: int) -> None:
    if not 1 <= window_len <= seq_len:
        raise ParameterError(f"window_len {window_len} outside [1, {seq_len}]")


def column_scores(numerators: np.ndarray) -> np.ndarray:
    """(N,) per-key attention mass averaged over the window rows whose
    (N, rows) causal softmax numerators E are given: the mean over the rows
    of E / (its column sums), divided `_GIVE_BACK_BYTES` of weights at a
    time, so no (N, rows) array of weights is made.

    The scores sum to at most 1: each averaged row sums to 1, and a key
    hidden from every window row gets 0.
    """
    totals = numerators.sum(axis=0)
    scores = np.empty(len(numerators))
    step = _rows_per_give_back(numerators)
    for a in range(0, len(numerators), step):
        keys = slice(a, a + step)
        np.divide(numerators[keys], totals).mean(axis=1, out=scores[keys])
    return scores


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
    the selected V rows are widened to float64, gathered (`gathered_rows`)
    one stretch of V at a time.
    """
    values = np.asarray(values)
    if values.shape[0] != scores.shape[0]:
        raise ParameterError(f"values rows {values.shape[0]} != score length {scores.shape[0]}")
    selected = top_t_indices(scores, t)
    return scores[selected] @ gathered_rows(values, selected)


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

    f(r) = n*beta - (n*beta - m) / (R - 1) * r, rounded half-away-from-zero,
    which lies in [0, n] since both ends do. A single-layer model
    degenerates to f(0) = m.
    """
    if num_layers < 1:
        raise ParameterError("num_layers must be >= 1")
    if not 0 < beta <= 1:
        raise ParameterError(f"beta {beta} outside (0, 1]")
    if not 0 <= m <= n:
        raise ParameterError(f"top_m {m} outside [0, {n}]")
    if num_layers == 1:
        counts = (m,)
    else:
        nb = n * beta
        slope = (nb - m) / (num_layers - 1)
        counts = tuple(_round_half_away(nb - slope * r) for r in range(num_layers))
    return HeterogeneitySchedule(beta=beta, top_m=m, per_layer_counts=counts)


# Distances at most this many float64 epsilons of a layer's longest semantic
# vector apart are tied: rounding the center moves each distance by about
# one, so two heads the same distance from it (two heads always are) are
# told apart by the tie rule, not by rounding.
_TIE_EPS = 16


def classify_heads(distances: np.ndarray, f_r: int, tie: float = 0.0) -> list[HeadClass]:
    """Mark the f_r - 1 farthest-from-center heads plus the single closest one.

    The closest head is drawn from the remaining (non-heterogeneous) set so
    the result always has exactly f_r heterogeneous heads. Distances at
    most `tie` apart are ties, which break toward the lower head index.
    """
    distances = np.asarray(distances, dtype=np.float64)
    n = distances.shape[0]
    if not 1 <= f_r <= n:
        raise ParameterError(f"f_r {f_r} outside [1, {n}]")
    remaining = list(range(n))

    def pick(target: float) -> int:
        head = min(h for h in remaining if abs(distances[h] - target) <= tie)
        remaining.remove(head)
        return head

    chosen = [pick(distances[remaining].max()) for _ in range(f_r - 1)]
    chosen.append(pick(distances[remaining].min()))
    return [
        HeadClass.HETEROGENEOUS if h in chosen else HeadClass.NON_HETEROGENEOUS for h in range(n)
    ]


def build_layer_profiles(vectors: np.ndarray, f_r: int) -> tuple[np.ndarray, list[HeadClass]]:
    """One layer's classification from its (n, d) semantic vectors: each
    head's distance to the layer's semantic center, and its class, with
    distances within `_TIE_EPS` epsilons of the longest vector tied.

    f_r == 0 marks every head non-heterogeneous without invoking the
    ranking rule.
    """
    _, distances = head_distances(vectors)
    if f_r == 0:
        return distances, [HeadClass.NON_HETEROGENEOUS] * len(distances)
    tie = _TIE_EPS * np.finfo(np.float64).eps * np.linalg.norm(vectors, axis=1).max()
    return distances, classify_heads(distances, f_r, tie)
