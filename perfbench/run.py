"""semkv benchmark: seeded workloads through the real CLI entry points.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds `src/semkv` and `BENCHMARK.json`.
Each run sets up the workload's input five times (each set-up in a fresh
process), then runs the measured command in a closed loop, one process per
command, until `--seconds` have passed. Every command's outputs are checked
after it returns, outside the timed region. With `--trace 1` each command
also runs a second time with every public semkv function wrapped in spans
(see tracer.py), which gives the per-layer metrics.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`, where
`metrics` holds the end-to-end metrics of BENCHMARK.json (tracing off) or
its per-layer metrics (tracing on). Inputs and outputs live in a temporary
directory under the checkout that is deleted when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import median_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_tmp"
STATE_ROOT = ROOT / ".perfbench_state"

SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170
# One BLAS thread keeps runs steady on a shared machine; it is at or below
# nproc everywhere and is recorded with every result.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ALL_POLICIES = ("full", "task-kv", "streaming", "uniform-topk", "no-cache", "compressed-cache")


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple[int, int, int, int]  # clustered-heads trace (R, n, N, d)
    policies: tuple[str, ...]
    budgets: tuple[float, ...]
    contrib_trials: int = 0  # bound-suite trials inside `all`, seeded by --seed
    extra_flags: tuple[str, ...] = ()

    @property
    def cells(self) -> int:
        return len(self.policies) * len(self.budgets)

    def setup_argv(self, seed: int) -> list[str]:
        return [
            "gen", "--profile", "clustered-heads", "--shape", ",".join(map(str, self.shape)),
            "--planted", "2", "--spread", "0.1", "--seed", str(seed), "--out", "trace.tkv",
        ]

    def command_argv(self, seed: int) -> list[str]:
        return [
            "all", "--trace", "trace.tkv", "--policy", ",".join(self.policies),
            "--budget", ",".join(f"{b:g}" for b in self.budgets),
            "--seed", str(seed), "--contrib-trials", str(self.contrib_trials),
            *self.extra_flags, "--out", "out",
        ]

    def check(self) -> dict:
        return {
            "out": "out", "policies": list(self.policies), "budgets": list(self.budgets),
            "contrib_trials": self.contrib_trials,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", (4, 16, 4096, 64), ALL_POLICIES, (0.3, 0.5, 0.7), contrib_trials=250),
        Workload(
            "long-context", (1, 8, 32768, 128), ("task-kv", "streaming"), (0.4,),
            extra_flags=("--m-top", "2"),
        ),
    )
}


class StepError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({key: BLAS_THREADS for key in BLAS_VARS})
    return env


def _run_child(workdir: Path, label: str, spec: dict) -> dict:
    spec_path, result_path = workdir / f"{label}.spec.json", workdir / f"{label}.result.json"
    result_path.unlink(missing_ok=True)
    spec = {**spec, "src": str(ROOT / "src"), "result": str(result_path)}
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        cwd=workdir, env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.is_file():
        raise StepError(f"{label} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text())


def _source_digest() -> str:
    """Digest of the program and benchmark sources, which fix the outputs."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _recorded_sha(workload: str, seed: int, sha: str) -> str | None:
    """Record the output hash of this source, workload and seed; return an
    earlier run's hash if it differs."""
    path = STATE_ROOT / "output_sha256.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    seen = table.setdefault(_source_digest(), {}).setdefault(workload, {})
    earlier = seen.setdefault(str(seed), sha)
    STATE_ROOT.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(table, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return earlier if earlier != sha else None


def _machine() -> dict:
    mem_total_mb = None
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    mem_total_mb = int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_mb": mem_total_mb,
    }


def _tail_percentile(samples: list[float]) -> str:
    """Highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n={n})"
    ordered = sorted(samples)
    return f"p{100 * (n - 10) / n:.0f} = {ordered[n - 11]:.4f} s"


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run and check one workload; returns metrics and run details."""
    workdir = WORK_ROOT / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spans_dir = STATE_ROOT / "spans"
    if trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
    run_id = f"{workload.name}-seed{seed}"

    def step(label, argv, traced, check=None, environment=False):
        spec = {"argv": argv, "trace": traced, "check": check, "environment": environment,
                "command_id": f"{run_id}-{label}", "trace_file": "trace.tkv"}
        if traced:
            spec["spans"] = str(spans_dir / f"{run_id}-{label}.json")
        return _run_child(workdir, label, spec)

    def command(label, traced):
        shutil.rmtree(workdir / "out", ignore_errors=True)
        try:
            return step(label, workload.command_argv(seed), traced, workload.check())
        except (StepError, subprocess.TimeoutExpired) as exc:
            n = workload.cells
            return {"crashed": str(exc), "attempted": n, "failed": n,
                    "problems": [f"{label}: {exc}"], "sha256": None}

    try:
        setups = [
            step(f"setup{i}", workload.setup_argv(seed), trace, environment=i == 0)
            for i in range(SETUP_RUNS)
        ]
        plain, traced = [], []
        start = time.perf_counter()
        i = 0
        while True:
            plain.append(command(f"run{i}", False))
            if trace:
                traced.append(command(f"traced{i}", True))
            i += 1
            if time.perf_counter() - start >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    bad_setups = [s["rc"] for s in setups if s["rc"] != 0]
    if bad_setups:
        raise StepError(f"set-up exited {bad_setups}")
    commands = plain + traced
    timed = [c for c in plain if "crashed" not in c]
    if not timed or (trace and not any("crashed" not in c for c in traced)):
        raise StepError("; ".join(p for c in commands for p in c["problems"]))
    attempted = sum(c["attempted"] for c in commands)
    failed = sum(c["failed"] for c in commands)
    problems = [p for c in commands for p in c["problems"]]

    shas = sorted({c["sha256"] for c in commands if "crashed" not in c}, key=str)
    sha = shas[0] if len(shas) == 1 else None
    if sha is None:
        problems.append(f"output hashes differ between commands of this run: {shas}")
        failed = attempted
    else:
        earlier = _recorded_sha(workload.name, seed, sha)
        if earlier is not None:
            problems.append(f"output sha256 {sha} differs from earlier run's {earlier}")
            failed = attempted

    run_samples = [c["elapsed_s"] for c in timed]
    run_s = statistics.median(run_samples)
    environment = {
        **setups[0]["environment"],
        **_machine(),
        "workload": workload.name,
        "seed": seed,
        "shape": list(workload.shape),
        "trace_file_bytes": setups[0]["trace_file_bytes"],
        "argv": workload.command_argv(seed),
        "run_seconds": seconds,
        "setup_runs": len(setups),
    }
    result = {
        "environment": environment,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems,
        "output_sha256": sha,
        "run_s_samples": run_samples,
        "setup_s_samples": [s["elapsed_s"] for s in setups],
    }
    if not trace:
        result["metrics"] = {
            "setup_s": statistics.median(s["elapsed_s"] for s in setups),
            "setup_peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in setups),
            "run_s": run_s,
            "cells_per_s": workload.cells / run_s,
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in timed),
        }
        return result

    traced_ok = [c for c in traced if "crashed" not in c]
    layers = median_metrics([s["layers"] for s in setups])
    layers.update(median_metrics([c["layers"] for c in traced_ok]))
    layers["tracing_overhead_s"] = (
        statistics.median(c["elapsed_s"] for c in traced_ok) - run_s
    )
    result["metrics"] = layers
    result["traced_run_s_samples"] = [c["elapsed_s"] for c in traced_ok]
    return result


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def report(workload: Workload, seed: int, trace: bool, result: dict, declared: list) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    computed = result["metrics"]
    if set(computed) != set(units):
        raise StepError(
            f"metrics {sorted(set(computed) ^ set(units))} differ from BENCHMARK.json"
        )
    print(f"semkv perfbench: workload {workload.name}, seed {seed}, "
          f"tracing {'on' if trace else 'off'}")
    print("environment: " + json.dumps(result["environment"]))
    for name in units:
        value = computed[name]
        note = ""
        if name == "run_s":
            samples = result["run_s_samples"]
            note = (f" (median of {len(samples)}; {_tail_percentile(samples)}; "
                    f"samples {[round(x, 4) for x in samples]})")
        elif name == "setup_s":
            note = f" (median of {len(result['setup_s_samples'])})"
        elif name == "cells_per_s":
            note = f" ({workload.cells} cells per command)"
        elif name == "harness.fidelity.full_output_reuse":
            note = (f" ({computed['harness.fidelity.distinct_heads']} distinct heads "
                    f"/ {computed['harness.fidelity.full_outputs']} full outputs computed)")
        print(f"  {name} = {value!r} {units[name]}{note}")
    ratio = result["failed"] / result["attempted"]
    print(f"  fail_ratio = {result['failed']}/{result['attempted']} = {ratio!r} cells")
    print(f"  output sha256 = {result['output_sha256']}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def _on_sigterm(signum, frame):
    # unwinds through subprocess.run, which kills and reaps its child
    sys.exit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "semkv" / "cli.py").is_file():
        print(f"no semkv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _on_sigterm)

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    try:
        declared = load_spec()["per_layer" if trace else "end_to_end"]
        result = run_workload(workload, args.seed, args.seconds, trace)
        report(workload, args.seed, trace, result, declared)
    except (StepError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in declared}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
