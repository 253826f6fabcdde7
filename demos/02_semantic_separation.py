"""Semantic separation: vectors, distances, the layer schedule, classification.

Walks one clustered trace through the separator: exact vs windowed top-t
semantic vectors, distance to the layer center, the per-layer heterogeneous
head counts, and the final classification against the generator's ground
truth. Ends with the 2-D PCA coordinates used for scatter plots.
"""

import numpy as np

from semkv import (
    HeadClass,
    SyntheticProfile,
    approx_semantic_vector,
    classify_heads,
    clustered_planted_heads,
    gen_synthetic_trace,
    head_distances,
    heterogeneous_schedule,
    pca_2d,
    semantic_vector_full,
    window_column_scores,
)

shape = (4, 8, 256, 16)
profile = SyntheticProfile("clustered-heads", seed=11, planted=2)
trace = gen_synthetic_trace(profile, shape)
planted = clustered_planted_heads(profile, shape[0], shape[1])

print("exact vs approximated semantic vectors (layer 0, window 32, top-t 64):")
print("(top-t keeps raw column-mean weights, so diffuse heads shrink in norm;")
print(" directions survive, which is what the distance ranking uses)")
for h in range(shape[1]):
    inputs = trace.head_inputs(0, h)
    exact = semantic_vector_full(inputs)
    scores = window_column_scores(inputs, 32)
    approx = approx_semantic_vector(scores, inputs.values, 64)
    rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
    cos = float(approx @ exact / (np.linalg.norm(approx) * np.linalg.norm(exact)))
    print(f"  head {h}: |exact|={np.linalg.norm(exact):6.3f}  "
          f"rel err {rel:.2e}  direction cos {cos:+.4f}")

schedule = heterogeneous_schedule(shape[1], beta=0.375, m=2, num_layers=shape[0])
print(f"\nschedule beta=0.375, m=2 over {shape[0]} layers -> f(r) = "
      f"{list(schedule.per_layer_counts)}")


def layer_vectors(r):
    """Layer r's (n, d) windowed top-t semantic vectors, one row per head."""
    rows = []
    for h in range(shape[1]):
        inputs = trace.head_inputs(r, h)
        rows.append(approx_semantic_vector(window_column_scores(inputs, 32), inputs.values, 256))
    return np.asarray(rows)


print("\nclassification per layer (windowed top-t path):")
for r in range(shape[0]):
    _, distances = head_distances(layer_vectors(r))
    classes = classify_heads(distances, schedule.per_layer_counts[r])
    het = [h for h, c in enumerate(classes) if c == HeadClass.HETEROGENEOUS]
    print(f"  layer {r}: heterogeneous {het}  (planted {planted[r]}, "
          f"closest head {int(np.argmin(distances))})")

print("\nPCA coordinates, layer 0 (x, y, class) — planted heads sit far out:")
vectors = layer_vectors(0)
coords = pca_2d(vectors)
_, distances = head_distances(vectors)
classes = classify_heads(distances, schedule.per_layer_counts[0])
for h in range(shape[1]):
    print(f"  head {h}: ({coords[h, 0]:+7.3f}, {coords[h, 1]:+7.3f})  {classes[h].value}")
