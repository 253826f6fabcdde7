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

    def combined_output(self) -> np.ndarray:
        return np.einsum("nd,ndo->o", self.head_values, self.out_blocks)

    def output_without(self, j: int) -> np.ndarray:
        keep = [i for i in range(self.num_heads) if i != j]
        return np.einsum("nd,ndo->o", self.head_values[keep], self.out_blocks[keep])


def head_contribution(instance: MHAInstance, j: int) -> float:
    """Closed-form removal contribution ||v_j W_j||^2."""
    if not 0 <= j < instance.num_heads:
        raise IndexError(f"head {j} outside [0, {instance.num_heads})")
    projected = instance.head_values[j] @ instance.out_blocks[j]
    return float(projected @ projected)


def head_contribution_longform(instance: MHAInstance, j: int) -> float:
    """Removal contribution computed the long way: ||y - y_without_j||^2."""
    if not 0 <= j < instance.num_heads:
        raise IndexError(f"head {j} outside [0, {instance.num_heads})")
    delta = instance.combined_output() - instance.output_without(j)
    return float(delta @ delta)


def offsets_from_center(instance: MHAInstance) -> tuple[np.ndarray, np.ndarray]:
    """Mean head-value vector and per-head offsets from it."""
    center = instance.head_values.mean(axis=0)
    return center, instance.head_values - center


def contribution_bound(instance: MHAInstance, j: int, c_bound: float | None = None) -> float:
    """Upper bound (||mean|| + ||offset_j||)^2 * C^2 on the removal contribution.

    C defaults to the max spectral norm over all blocks (the uniform bound);
    pass a precomputed value when bounding many heads of one instance.
    """
    if not 0 <= j < instance.num_heads:
        raise IndexError(f"head {j} outside [0, {instance.num_heads})")
    if c_bound is None:
        c_bound = max_block_norm(instance)
    center, offsets = offsets_from_center(instance)
    radius = np.linalg.norm(center) + np.linalg.norm(offsets[j])
    return float(radius * radius * c_bound * c_bound)


def max_block_norm(instance: MHAInstance) -> float:
    return float(spectral_norm(instance.out_blocks).max())


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    ra = np.argsort(np.argsort(a)).astype(np.float64)
    rb = np.argsort(np.argsort(b)).astype(np.float64)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra @ ra) * (rb @ rb))
    if denom == 0:
        return 0.0
    return float((ra @ rb) / denom)


def random_instance(
    rng: np.random.Generator, n: int, d: int, out_dim: int, spread: float = 1.0
) -> MHAInstance:
    """Instance whose head values share a common component plus per-head noise."""
    common = rng.standard_normal(d)
    head_values = common[None, :] + spread * rng.standard_normal((n, d))
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
    seed: int,
    trials: int,
    n: int = 8,
    d: int = 16,
    out_dim: int = 32,
    spread: float = 1.0,
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
    violations = 0
    max_ratio = 0.0
    max_form_gap = 0.0
    corrs = []
    tight_uniform = []
    tight_per_head = []
    for trial in range(trials):
        rng = seeded_rng(seed, trial)
        inst = random_instance(rng, n, d, out_dim, spread)
        block_norms = spectral_norm(inst.out_blocks)
        c_uniform = float(block_norms.max())
        _, offsets = offsets_from_center(inst)
        contribs = np.empty(n)
        for j in range(n):
            contrib = head_contribution(inst, j)
            longform = head_contribution_longform(inst, j)
            scale = max(abs(contrib), abs(longform), 1e-300)
            max_form_gap = max(max_form_gap, abs(contrib - longform) / scale)
            bound = contribution_bound(inst, j, c_bound=c_uniform)
            bound_per_head = contribution_bound(inst, j, c_bound=block_norms[j])
            if contrib > bound * (1 + 1e-9):
                violations += 1
            if bound > 0:
                max_ratio = max(max_ratio, contrib / bound)
                tight_uniform.append(contrib / bound)
            if bound_per_head > 0:
                tight_per_head.append(contrib / bound_per_head)
            contribs[j] = contrib
        offset_norms = np.linalg.norm(offsets, axis=1)
        corrs.append(_spearman(offset_norms, contribs))
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
        mean_tightness_uniform=float(np.mean(tight_uniform)),
        mean_tightness_per_head=float(np.mean(tight_per_head)),
    )
