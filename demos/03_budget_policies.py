"""Budget policies side by side: what each one keeps, and what it costs.

Builds one layer's plans under every policy at a 40% budget and prints the
[start, stop) runs each head keeps plus the memory accounting. Also shows the
middle-activation arithmetic at the reference operating point.
"""

import numpy as np

from semkv import (
    HeadClass,
    PolicyKind,
    SyntheticProfile,
    apply_policy,
    clustered_planted_heads,
    gen_synthetic_trace,
    middle_activation_count,
    pool_scores,
    window_column_scores,
)

print("middle activations at the reference point "
      "(B=floor(0.4*4096*32), N=4096, f_r=8, n=32, s1=16, s2=256):")
res = middle_activation_count(52428, 4096, 8, 32, 16, 256)
print(f"  k = {res.k} per non-heterogeneous head (clamped: {res.clamped})\n")

shape = (1, 8, 256, 16)
profile = SyntheticProfile("clustered-heads", seed=23, planted=2)
trace = gen_synthetic_trace(profile, shape)
planted = set(clustered_planted_heads(profile, 1, 8)[0])
classes = [
    HeadClass.HETEROGENEOUS if h in planted else HeadClass.NON_HETEROGENEOUS
    for h in range(8)
]
sinks, recents, window, kernel = 4, 16, 16, 7
pooled = [
    pool_scores(window_column_scores(h, window), kernel)
    for h in (trace.head_inputs(0, i) for i in range(8))
]
budget = int(np.floor(0.4 * 256 * 8))
print(f"one layer, n=8, N=256, planted heads {sorted(planted)} heterogeneous, "
      f"budget 40% -> B={budget}\n")


def describe(plan, head):
    runs = plan.per_head_runs[head]
    text = ", ".join(f"[{a}, {b})" for a, b in runs[:4].tolist())
    text += ", ..." if len(runs) > 4 else ""
    groups = plan.per_head_groups[head] if plan.per_head_groups else []
    if len(groups):
        text += f" + {len(groups)} synthetic group means"
    return f"{plan.head_tokens(head):>3} rows, {len(runs)} run(s): {text}"


for policy in PolicyKind:
    plan = apply_policy(0, classes, policy, 0.4, sinks, recents, window, pooled)
    # each head's cache rows: its retained K/V rows plus any group means
    tokens = plan.retained_tokens()
    print(f"== {policy.value} (retained {tokens} tokens, "
          f"{tokens * 2 * 16 * 4} bytes of float32 K/V, {tokens / (256 * 8):.1%} of full)")
    for h in (sorted(planted)[0], [h for h in range(8) if h not in planted][0]):
        kind = "het" if classes[h] == HeadClass.HETEROGENEOUS else "non"
        print(f"   head {h} ({kind}): {describe(plan, h)}")
    print()
