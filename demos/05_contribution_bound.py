"""Head-removal contributions and their offset-driven upper bound.

Builds one single-layer MHA instance, takes every head's exact output change
on removal (closed form and long form) and its (||center|| + ||offset||)^2 * C^2
bound as arrays over the heads, and prints them side by side. Then runs the
randomized suite to confirm the bound never fails and to report how offset
norms track contributions.
"""

import numpy as np

from semkv import (
    contribution_bounds,
    head_contributions,
    head_contributions_longform,
    verify_bound_suite,
)
from semkv.contribution import random_instance

rng = np.random.default_rng(5)
inst = random_instance(rng, n=8, d=16, out_dim=32)
offset_norms = np.linalg.norm(inst.head_values - inst.head_values.mean(axis=0), axis=1)
closed = head_contributions(inst)
longform = head_contributions_longform(inst)
bounds = contribution_bounds(inst)

print("per-head removal contribution vs bound (one seeded instance):")
print(f"{'head':>4s} {'|offset|':>9s} {'closed':>9s} {'long form':>9s} {'bound':>9s} {'ratio':>6s}")
for j, (offset, c, lf, b) in enumerate(zip(offset_norms, closed, longform, bounds)):
    print(f"{j:>4d} {offset:>9.3f} {c:>9.3f} {lf:>9.3f} {b:>9.3f} {c / b:>6.3f}")

print("\nrandomized suite (200 instances, n=8, d=16, out_dim=32):")
report = verify_bound_suite(seed=5, trials=200, n=8, d=16, out_dim=32)
print(f"  violations:           {report.violations}")
print(f"  worst closed/long gap: {report.max_form_gap:.2e}")
print(f"  worst contribution/bound ratio: {report.max_ratio:.3f}")
print(f"  mean offset-vs-contribution rank correlation: {report.rank_corr:.3f}")
print(f"  mean tightness, uniform C vs per-head C: "
      f"{report.mean_tightness_uniform:.3f} vs {report.mean_tightness_per_head:.3f}")
print("\nthe rank correlation is reported, not asserted: the theory gives an")
print("upper bound governed by the offset, not a monotone relationship.")
