"""One benchmark step in a process of its own.

    python3 perfbench/child.py SPEC.json

The spec names a semkv CLI argv to run through `semkv.cli.main`, whether to
trace it, what to check afterwards (nothing for a set-up) and where to write
the result. The step is timed from the call to its return; the process's
peak RSS is read right after, before any check runs, so checks and tracing
summaries never count toward time or memory.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import resource
import sys
import time

import checks
import tracer as tracing

MB = 1e6


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def main(spec_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)

    import semkv.cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(semkv.cli.__file__).startswith(src + os.sep):
        print(f"semkv imported from {semkv.cli.__file__}, not under {src}", file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    start = time.perf_counter()
    rc = semkv.cli.main(spec["argv"])
    elapsed = time.perf_counter() - start
    peak_rss_mb = _peak_rss_mb()

    result = {"elapsed_s": elapsed, "rc": rc, "peak_rss_mb": peak_rss_mb}
    if spec.get("environment"):
        result["environment"] = _environment()
    if os.path.isfile(spec["trace_file"]):
        result["trace_file_bytes"] = os.path.getsize(spec["trace_file"])

    check = spec["check"]
    if check is not None:
        result["attempted"], result["failed"], result["problems"] = checks.check_all(
            rc, check["out"], check["policies"], check["budgets"], check["contrib_trials"]
        )
        result["sha256"] = checks.sha256_of(os.path.join(check["out"], "report.json"))

    if tracer is not None:
        tracer.uninstall()
        if check is None:
            result["layers"] = tracing.setup_metrics(tracer.spans)
        else:
            plans = glob.glob(os.path.join(check["out"], "plans_*.json"))
            plans_bytes = sum(os.path.getsize(path) for path in plans)
            result["layers"] = tracing.command_metrics(tracer.spans, plans_bytes)
        if tracer.spans:
            with open(spec["spans"], "w") as f:
                json.dump({"command_id": spec["command_id"], "spans": tracer.spans}, f)

    with open(spec["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
