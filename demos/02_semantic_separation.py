"""Semantic separation: vectors, distances, the layer schedule, classification.

Walks one clustered trace through the separator: exact vs windowed top-t
semantic vectors, distance to the layer center, the per-layer heterogeneous
head counts, and the final classification against the generator's ground
truth. Ends with the 2-D PCA coordinates used for scatter plots.
"""

import dataclasses

import numpy as np

from semkv import (
    PolicyKind,
    RunConfig,
    SyntheticProfile,
    clustered_planted_heads,
    compress_run,
    gen_synthetic_trace,
    heterogeneous_schedule,
    pca_2d,
)
from semkv.linalg import causal_numerators, causal_scores
from semkv.separator import column_scores

shape = (4, 8, 256, 16)
profile = SyntheticProfile("clustered-heads", seed=11, planted=2)
trace = gen_synthetic_trace(profile, shape)
planted = clustered_planted_heads(profile, shape[0], shape[1])
config = RunConfig(
    profile=profile, shape=shape, policies=(PolicyKind.FULL,), budget_ratios=(1.0,),
    beta=0.375, top_m=2, top_t=256, window_len=32,
)


def exact_vector(block):
    """A head's exact semantic vector: the column means of its whole
    causal softmax, weighted into V."""
    q, k, v = block.astype(np.float64)
    return column_scores(causal_numerators(*causal_scores(q, k))) @ v


print("exact vs approximated semantic vectors (layer 0, window 32, top-t 64):")
print("(top-t keeps raw column-mean weights, so diffuse heads shrink in norm;")
print(" directions survive, which is what the distance ranking uses)")
approximated = compress_run(dataclasses.replace(config, top_t=64), trace).vectors[0]
for h, (approx, block) in enumerate(zip(approximated, trace.data[0])):
    exact = exact_vector(block)
    rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
    cos = float(approx @ exact / (np.linalg.norm(approx) * np.linalg.norm(exact)))
    print(f"  head {h}: |exact|={np.linalg.norm(exact):6.3f}  "
          f"rel err {rel:.2e}  direction cos {cos:+.4f}")

schedule = heterogeneous_schedule(shape[1], beta=0.375, m=2, num_layers=shape[0])
print(f"\nschedule beta=0.375, m=2 over {shape[0]} layers -> f(r) = "
      f"{list(schedule.per_layer_counts)}")

print("\nclassification per layer (windowed top-t vectors, top-t 256):")
result = compress_run(config, trace)
for r, (classes, distances) in enumerate(zip(result.classes, result.distances)):
    het = [h for h, c in enumerate(classes) if c.value == "heterogeneous"]
    print(f"  layer {r}: heterogeneous {het}  (planted {planted[r]}, "
          f"closest head {int(np.argmin(distances))})")

print("\nPCA coordinates, layer 0 (x, y, class) — planted heads sit far out:")
coords = pca_2d(result.vectors[0])
for h, head_class in enumerate(result.classes[0]):
    print(f"  head {h}: ({coords[h, 0]:+7.3f}, {coords[h, 1]:+7.3f})  {head_class.value}")
