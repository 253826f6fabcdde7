"""Empirical check of the head-removal contribution bound on one-layer MHA.

A head's contribution to the combined output is the squared L2 change when
the head is removed. With per-head outputs v_j and output-projection blocks
W_j this collapses to ||v_j W_j||^2, and splitting v_j into the across-head
mean plus an offset bounds it by (||mean|| + ||offset_j||)^2 * C^2 where C
caps every block's operator norm. The suite samples random instances and
verifies the bound never fails when C is realized as the max spectral norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .linalg import spectral_norm
from .trace import seeded_rng


@dataclass(frozen=True)
class MHAInstance:
    """One-layer multi-head attention output stage.

    head_values: (n, d) per-head attention results (single-token case).
    out_blocks:  (n, d, out_dim) blocks of the output projection.
    """

    head_values: np.ndarray
    out_blocks: np.ndarray

    def __post_init__(self):
        hv = np.asarray(self.head_values, dtype=np.float64)
        wb = np.asarray(self.out_blocks, dtype=np.float64)
        if hv.ndim != 2 or wb.ndim != 3:
            raise DimensionError("head_values must be (n, d), out_blocks (n, d, out)")
        if hv.shape[0] != wb.shape[0] or hv.shape[1] != wb.shape[1]:
            raise DimensionError(
                f"inconsistent shapes: values {hv.shape}, blocks {wb.shape}"
            )
        object.__setattr__(self, "head_values", hv)
        object.__setattr__(self, "out_blocks", wb)

    @property
    def num_heads(self) -> int:
        return self.head_values.shape[0]


def _projected(instance: MHAInstance) -> np.ndarray:
    """Every head's projected row v_j W_j, (n, out)."""
    return np.einsum("nd,ndo->no", instance.head_values, instance.out_blocks)


def head_contributions(instance: MHAInstance) -> np.ndarray:
    """Closed-form removal contribution ||v_j W_j||^2 of every head, (n,)."""
    projected = _projected(instance)
    return np.einsum("no,no->n", projected, projected)


def head_contributions_longform(instance: MHAInstance) -> np.ndarray:
    """Removal contribution of every head the long way, ||y - y_without_j||^2.

    y sums every head's projected row and y_without_j the other heads'
    rows: the rows before j (a prefix sum) plus the rows after j (a suffix
    sum), so no (n, n * d) masked copy is built.
    """
    projected = _projected(instance)
    zero = np.zeros((1, projected.shape[1]))
    before = np.cumsum(np.concatenate([zero, projected]), axis=0)  # row j: heads < j
    after = np.cumsum(np.concatenate([zero, projected[::-1]]), axis=0)[::-1]  # row j: heads >= j
    delta = before[-1] - (before[:-1] + after[1:])
    return np.einsum("no,no->n", delta, delta)


def _center_and_offset_norms(instance: MHAInstance) -> tuple[float, np.ndarray]:
    """||center|| of the mean head-value vector and every head's ||offset_j|| from it."""
    center = instance.head_values.mean(axis=0)
    return np.linalg.norm(center), np.linalg.norm(instance.head_values - center, axis=1)


def contribution_bounds(
    instance: MHAInstance, c_bound: float | np.ndarray | None = None
) -> np.ndarray:
    """Upper bound (||center|| + ||offset_j||)^2 * C^2 on every head's
    removal contribution, (n,).

    C defaults to the largest block spectral norm (the uniform bound); it
    may also be a float, or the (n,) per-head block norms.
    """
    if c_bound is None:
        c_bound = spectral_norm(instance.out_blocks).max()
    center_norm, offset_norms = _center_and_offset_norms(instance)
    radius = center_norm + offset_norms
    return radius * radius * c_bound * c_bound


def _positive_ratios(contribs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """contribution/bound of the heads whose bound is positive."""
    positive = bounds > 0
    return contribs[positive] / bounds[positive]


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    ra = np.argsort(np.argsort(a)).astype(np.float64)
    rb = np.argsort(np.argsort(b)).astype(np.float64)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra @ ra) * (rb @ rb))
    if denom == 0:
        return 0.0
    return float((ra @ rb) / denom)


def random_instance(rng: np.random.Generator, n: int, d: int, out_dim: int) -> MHAInstance:
    """Instance whose head values share a common component plus unit per-head noise."""
    common = rng.standard_normal(d)
    head_values = common + rng.standard_normal((n, d))
    out_blocks = rng.standard_normal((n, d, out_dim)) / np.sqrt(d)
    return MHAInstance(head_values, out_blocks)


@dataclass(frozen=True)
class BoundSuiteReport:
    trials: int
    num_heads: int
    head_dim: int
    out_dim: int
    seed: int
    violations: int
    max_ratio: float
    rank_corr: float
    max_form_gap: float
    mean_tightness_uniform: float
    mean_tightness_per_head: float


def verify_bound_suite(
    seed: int, trials: int, n: int = 8, d: int = 16, out_dim: int = 32
) -> BoundSuiteReport:
    """Run seeded random instances and tally bound violations.

    Reports the worst contribution/bound ratio, the mean Spearman rank
    correlation between offset norms and contributions (descriptive only),
    the worst closed-form vs long-form relative gap, and mean tightness for
    the uniform-C and per-head-norm variants of the bound.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if min(n, d, out_dim) < 1:
        raise ParameterError(f"heads, dim and out_dim must be >= 1, got {n}, {d}, {out_dim}")
    if n * d * out_dim * 8 > np.iinfo(np.intp).max:
        raise ParameterError(f"{n} x {d} x {out_dim} float64 blocks exceed the address space")
    violations, max_ratio, max_form_gap = 0, 0.0, 0.0
    corrs = []
    # sum and count of contribution/bound over positive bounds: uniform C, per-head C
    tight_sum, tight_count = np.zeros(2), np.zeros(2)
    for trial in range(trials):
        inst = random_instance(seeded_rng(seed, trial), n, d, out_dim)
        block_norms = spectral_norm(inst.out_blocks)
        contribs = head_contributions(inst)
        longform = head_contributions_longform(inst)
        scale = np.maximum(np.maximum(np.abs(contribs), np.abs(longform)), 1e-300)
        max_form_gap = max(max_form_gap, float((np.abs(contribs - longform) / scale).max()))
        uniform = contribution_bounds(inst, block_norms.max())
        violations += int(np.count_nonzero(contribs > uniform * (1 + 1e-9)))
        ratios = _positive_ratios(contribs, uniform)
        per_head = _positive_ratios(contribs, contribution_bounds(inst, block_norms))
        max_ratio = max(max_ratio, float(ratios.max(initial=0.0)))
        tight_sum += ratios.sum(), per_head.sum()
        tight_count += ratios.size, per_head.size
        corrs.append(_spearman(_center_and_offset_norms(inst)[1], contribs))
    mean_uniform, mean_per_head = tight_sum / tight_count
    return BoundSuiteReport(
        trials=trials,
        num_heads=n,
        head_dim=d,
        out_dim=out_dim,
        seed=seed,
        violations=violations,
        max_ratio=max_ratio,
        rank_corr=float(np.mean(corrs)),
        max_form_gap=max_form_gap,
        mean_tightness_uniform=float(mean_uniform),
        mean_tightness_per_head=float(mean_per_head),
    )
