"""Budget policies side by side: what each one keeps, and what it costs.

Plans one layer under every policy at a 50% budget and prints the
[start, stop) runs each head keeps plus the memory accounting. Also shows the
middle-activation arithmetic at the reference operating point.
"""

from semkv import (
    HeadClass,
    PolicyKind,
    RunConfig,
    SyntheticProfile,
    clustered_planted_heads,
    compress_run,
    gen_synthetic_trace,
    middle_activation_count,
)

print("middle activations at the reference point "
      "(B=floor(0.4*4096*32), N=4096, f_r=8, n=32, s1=16, s2=256):")
res = middle_activation_count(52428, 4096, 8, 32, 16, 256)
print(f"  k = {res.k} per non-heterogeneous head (clamped: {res.clamped})\n")

shape = (1, 8, 256, 16)
profile = SyntheticProfile("clustered-heads", seed=23, planted=2)
planted = clustered_planted_heads(profile, 1, 8)[0]
# f = 3: the two planted heads and the one closest to the layer's center
config = RunConfig(
    profile=profile, shape=shape, policies=tuple(PolicyKind), budget_ratios=(0.5,),
    beta=3 / 8, top_m=3, window_len=16, kernel=7, sinks=4, recents=16,
)
result = compress_run(config, gen_synthetic_trace(profile, shape))
classes = result.classes[0]
het = [h for h, c in enumerate(classes) if c == HeadClass.HETEROGENEOUS]
print(f"one layer, n=8, N=256, planted heads {planted}; heterogeneous {het}; "
      f"budget 50% -> B={result.plans[('full', 0.5)][0].total_budget}\n")


def describe(plan, head):
    runs = plan.per_head_runs[head]
    text = ", ".join(f"[{a}, {b})" for a, b in runs[:4].tolist())
    text += ", ..." if len(runs) > 4 else ""
    groups = plan.per_head_groups[head] if plan.per_head_groups else []
    if len(groups):
        text += f" + {len(groups)} synthetic group means"
    return f"{plan.head_tokens(head):>3} rows, {len(runs)} run(s): {text}"


for policy in PolicyKind:
    cell = (policy.value, 0.5)
    (plan,) = result.plans[cell]
    # each head's cache rows: its retained K/V rows plus any group means
    memory = result.memory(cell)
    print(f"== {policy.value} (retained {memory.tokens_retained} tokens, {memory.bytes} bytes "
          f"of float32 K/V, {memory.ratio_vs_full:.1%} of full)")
    for h in (het[0], classes.index(HeadClass.NON_HETEROGENEOUS)):
        kind = "het" if classes[h] == HeadClass.HETEROGENEOUS else "non"
        print(f"   head {h} ({kind}): {describe(plan, h)}")
    print()
