"""The memory/fidelity frontier: decode reconstruction error versus budget.

Runs the full pipeline over a clustered trace for several policies and
budgets and prints the frontier. The full cache is always the zero-error,
ratio-1.0 corner; the head-aware policy should sit below the uniform
baselines wherever planted structure exists.
"""

from semkv import PolicyKind, RunConfig, SyntheticProfile, load_trace_for, run_all

config = RunConfig(
    profile=SyntheticProfile("clustered-heads", seed=31, planted=2),
    shape=(2, 16, 512, 16),
    policies=(
        PolicyKind.TASK_KV,
        PolicyKind.STREAMING,
        PolicyKind.UNIFORM_TOPK,
        PolicyKind.NO_CACHE,
        PolicyKind.COMPRESSED_CACHE,
        PolicyKind.FULL,
    ),
    budget_ratios=(0.3, 0.5, 0.7, 1.0),
    beta=3 / 16,
    top_m=3,
    top_t=256,
    window_len=32,
    kernel=7,
    sinks=4,
    recents=16,
    decode_queries=32,
)

trace = load_trace_for(config)
report = run_all(config, trace)

print(f"trace {config.shape}, schedule f(r) = {report['schedule']['per_layer_counts']}\n")
print(f"{'policy':18s} {'budget':>6s} {'mem ratio':>9s} {'mean L2':>9s} {'mean cos':>9s}")
rows = sorted(
    report["policies"], key=lambda p: (p["budget_ratio"], p["fidelity"]["mean_l2"])
)
for row in rows:
    print(
        f"{row['policy']:18s} {row['budget_ratio']:>6.0%} "
        f"{row['memory']['ratio_vs_full']:>9.3f} "
        f"{row['fidelity']['mean_l2']:>9.5f} "
        f"{row['fidelity']['mean_cosine']:>9.5f}"
    )

print("\nnotes: heterogeneous heads are exact under the head-aware policies, so")
print("their rows contribute zero error; at 100% every policy collapses to full.")
