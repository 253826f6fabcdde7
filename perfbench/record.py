"""Run every workload with tracing off and on, and write one results file.

    python3 perfbench/record.py --seed 1 --out perfbench/results/baseline.json

Each run lasts BENCHMARK.json's `run_seconds`, as in the benchmark itself.

The file holds, per workload, the environment, the end-to-end and per-layer
metrics, the run details (samples, output hash, failures), and for `sweep`
the stage table that ROADMAP.md measured by hand, side by side with the
traced numbers.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

# (stage, ROADMAP value, unit, metric measured here, factor from metric to
# stage, how they differ)
ROADMAP_SWEEP_TABLE = (
    ("gen_synthetic_trace", 2.1, "s", "trace.gen_s", 1, ""),
    ("write_trace", 0.37, "s", "trace.write_s", 1, ""),
    ("read_trace", 0.37, "s", "trace.read_s", 1, ""),
    ("compress_run", 8.7, "s", "harness.compress_run_total_s", 1, ""),
    ("run_all (total)", 17.5, "s", "harness.run_all_s", 1,
     "here run_all also runs the 250-trial bound suite (contribution.suite_s); ROADMAP's did not"),
    ("build_compressed_cache, 18 caches (cumulative)", 6.5, "s", "allocator.cache_build_s", 1,
     "ROADMAP figure is under cProfile"),
    ("fidelity_eval, 18 calls (cumulative)", 6.8, "s", "harness.fidelity_s", 1,
     "ROADMAP figure is under cProfile"),
    ("_require_finite", 2.9, "s", "linalg.attention_inputs_s", 1,
     "here: AttentionInputs.__post_init__ only, the bulk of _require_finite calls"),
    ("read_trace peak (tracemalloc)", 662, "MB", "trace.read_peak_mb", 1, ""),
    ("AttentionInputs constructions", 2368, "count", "linalg.attention_inputs.count", 1, ""),
    ("group .mean calls", 317_000, "count", "allocator.synthetic_rows", 2,
     "two .mean calls (K and V) per synthetic row"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True, help="results JSON to write")
    args = parser.parse_args(argv)

    spec = run.load_spec()
    seconds = spec["run_seconds"]
    results = {}
    for name, workload in run.WORKLOADS.items():
        entry = {}
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run_workload(workload, args.seed, seconds, trace)
            run.report(workload, args.seed, trace, result, spec[key])
            entry[key] = result.pop("metrics")
            entry["traced" if trace else "untraced"] = result
        results[name] = entry

    sweep = results["sweep"]["per_layer"]
    table = [
        {"stage": stage, "roadmap": value, "unit": unit, "metric": metric,
         "measured": factor * sweep[metric], "note": note}
        for stage, value, unit, metric, factor, note in ROADMAP_SWEEP_TABLE
    ]
    print("ROADMAP baseline table vs the traced sweep run:")
    for row in table:
        print(f"  {row['stage']:48s} {row['roadmap']:>10} {row['unit']:5s} "
              f"{row['measured']:>14.4f}  ({row['metric']})")

    payload = {
        "command": " ".join(["python3", "perfbench/record.py", *(argv or sys.argv[1:])]),
        "seed": args.seed,
        "seconds": seconds,
        "workloads": results,
        "roadmap_sweep_table": table,
    }
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}")
    ok = all(r[k]["correct"] for r in results.values() for k in ("untraced", "traced"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
