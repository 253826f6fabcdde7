"""Span tracing of semkv's public functions, installed from outside the package.

`Tracer.install()` wraps every public function defined in the seven layer
modules, and `AttentionInputs.__post_init__`, at every name a caller can
resolve: each attribute of any loaded `semkv` module that holds the original
function object is rebound to its wrapper. A span is
`[name, start, end, parent_index, counters]`; spans live in a list in memory
and are written out by the caller when the command ends.

`setup_metrics()` and `command_metrics()` turn one process's spans into the
per-layer metrics that BENCHMARK.json declares.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
import tracemalloc
import types

LAYERS = ("trace", "separator", "linalg", "allocator", "harness", "contribution", "cli")
POST_INIT = "linalg.AttentionInputs.__post_init__"

# Spans whose tracemalloc peak is recorded. tracemalloc runs only inside these
# calls, so the rest of the command pays no allocation-tracking cost.
PEAK_TRACKED = ("trace.gen_synthetic_trace", "trace.write_trace", "trace.read_trace")

MB = 1e6


def _file_bytes_of_trace(args, kwargs, result):
    return {"file_bytes": result.header.file_bytes}


def _cache_counters(args, kwargs, result):
    entries = [e for layer in result.entries for e in layer]
    return {
        "synthetic_rows": sum(int(e.synthetic.sum()) for e in entries),
        "kv_bytes": sum(e.keys.nbytes + e.values.nbytes for e in entries),
    }


def _heads_of_trace(args, kwargs, result):
    trace = args[0] if args else kwargs["trace"]
    return {"heads": trace.num_layers * trace.num_heads}


# Counters read at a span's boundary from its arguments or result.
PROBES = {
    "trace.gen_synthetic_trace": _file_bytes_of_trace,
    "trace.read_trace": _file_bytes_of_trace,
    "trace.write_trace": lambda a, k, r: {"file_bytes": r},
    "allocator.build_compressed_cache": _cache_counters,
    "harness.fidelity_eval": _heads_of_trace,
    "harness.export_report": lambda a, k, r: {"bytes": r},
    "harness.export_pca_csv": lambda a, k, r: {"bytes": r},
    "contribution.verify_bound_suite": lambda a, k, r: {"trials": r.trials},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        track_peak = name in PEAK_TRACKED
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            if track_peak:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if track_peak:
                    span[4] = {"peak_bytes": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
            if probe is not None:
                span[4] = {**(span[4] or {}), **probe(args, kwargs, result)}
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(f"semkv.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        semkv_modules = [
            m for key, m in sys.modules.items() if key == "semkv" or key.startswith("semkv.")
        ]
        for module in semkv_modules:
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._undo.append((module, name, obj))
                    setattr(module, name, wrappers[obj])
        cls = sys.modules["semkv.linalg"].AttentionInputs
        self._undo.append((cls, "__post_init__", cls.__post_init__))
        cls.__post_init__ = self._wrap(POST_INIT, cls.__post_init__)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Calls are synchronous, so children never overlap and their union is the
    sum of their durations.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def setup_metrics(spans) -> dict:
    """Metrics of one traced set-up (`semkv gen`): generator and writer."""
    by_name = _group(spans)
    gen, write = by_name.get("trace.gen_synthetic_trace", []), by_name.get("trace.write_trace", [])
    return {
        "trace.gen_s": _total(gen),
        "trace.write_s": _total(write),
        "trace.gen_peak_over_file": _peak_over_file(gen),
        "trace.write_peak_over_file": _peak_over_file(write),
    }


def command_metrics(spans, plans_bytes: int) -> dict:
    """Per-layer metrics of one traced command."""
    by_name = _group(spans)
    own = self_times(spans)
    own_by_name: dict[str, float] = {}
    for span, seconds in zip(spans, own):
        own_by_name[span[0]] = own_by_name.get(span[0], 0.0) + seconds

    def spans_of(name):
        return by_name.get(name, [])

    def calls(name):
        return len(spans_of(name))

    def total(name):
        return _total(spans_of(name))

    def counter(name, key):
        return sum(s[4][key] for s in spans_of(name))

    read = spans_of("trace.read_trace")
    read_s = _total(read)
    read_bytes = counter("trace.read_trace", "file_bytes")
    read_peak = max((s[4]["peak_bytes"] for s in read), default=0)

    fidelity_index = {i for i, s in enumerate(spans) if s[0] == "harness.fidelity_eval"}
    full_outputs = sum(
        1 for s in spans_of("linalg.attention_weights") if s[3] in fidelity_index
    )
    heads = max((s[4]["heads"] for s in spans_of("harness.fidelity_eval")), default=0)

    suite_s = total("contribution.verify_bound_suite")
    suite_index = {i for i, s in enumerate(spans) if s[0] == "contribution.verify_bound_suite"}
    spectral_in_suite = sum(
        s[2] - s[1]
        for s in spans_of("linalg.spectral_norm")
        if _has_ancestor(spans, s, suite_index)
    )

    return {
        "trace.read_s": read_s,
        "trace.read_mb_per_s": read_bytes / MB / read_s if read_s > 0 else 0.0,
        "trace.read_peak_over_file": read_peak / read_bytes if read_bytes else 0.0,
        "trace.read_peak_mb": read_peak / MB,
        "separator.window_scores.calls": calls("separator.window_column_scores"),
        "separator.window_scores_s": total("separator.window_column_scores"),
        "separator.profiles_s": total("separator.build_layer_profiles"),
        "linalg.attention_weights.calls": calls("linalg.attention_weights"),
        "linalg.attention_weights_s": total("linalg.attention_weights"),
        "linalg.masked_softmax_s": total("linalg.masked_softmax"),
        "linalg.attention_inputs.count": calls(POST_INIT),
        "linalg.attention_inputs_s": total(POST_INIT),
        "linalg.spectral_norm.calls": calls("linalg.spectral_norm"),
        "linalg.spectral_norm_s": total("linalg.spectral_norm"),
        "linalg.pca_2d_s": total("linalg.pca_2d"),
        "allocator.apply_policy.calls": calls("allocator.apply_policy"),
        "allocator.apply_policy_s": total("allocator.apply_policy"),
        "allocator.cache_build.calls": calls("allocator.build_compressed_cache"),
        "allocator.cache_build_s": total("allocator.build_compressed_cache"),
        "allocator.synthetic_rows": counter("allocator.build_compressed_cache", "synthetic_rows"),
        "allocator.cache_mb": counter("allocator.build_compressed_cache", "kv_bytes") / MB,
        "harness.compress_run_s": own_by_name.get("harness.compress_run", 0.0),
        "harness.compress_run_total_s": total("harness.compress_run"),
        "harness.fidelity.calls": calls("harness.fidelity_eval"),
        "harness.fidelity_s": total("harness.fidelity_eval"),
        "harness.fidelity.full_outputs": full_outputs,
        "harness.fidelity.full_output_reuse": heads / full_outputs if full_outputs else 0.0,
        "harness.fidelity.distinct_heads": heads,
        "harness.report_s": total("harness.build_eval_report"),
        "harness.export_s": total("harness.export_report") + total("harness.export_pca_csv"),
        "harness.export_bytes": counter("harness.export_report", "bytes")
        + counter("harness.export_pca_csv", "bytes"),
        "harness.run_all_s": total("harness.run_all"),
        "cli.self_s": own_by_name.get("cli.main", 0.0),
        "cli.plans_bytes": plans_bytes,
        "contribution.suite_s": suite_s,
        "contribution.trials": counter("contribution.verify_bound_suite", "trials"),
        "contribution.spectral_share": spectral_in_suite / suite_s if suite_s > 0 else 0.0,
    }


def median_metrics(samples: list[dict]) -> dict:
    if not samples:
        return {}
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def _group(spans) -> dict[str, list]:
    out: dict[str, list] = {}
    for span in spans:
        out.setdefault(span[0], []).append(span)
    return out


def _total(spans) -> float:
    return sum((end - start for _, start, end, _, _ in spans), 0.0)


def _peak_over_file(spans) -> float:
    file_bytes = sum(s[4]["file_bytes"] for s in spans)
    peak = max((s[4]["peak_bytes"] for s in spans), default=0)
    return peak / file_bytes if file_bytes else 0.0


def _has_ancestor(spans, span, indices) -> bool:
    parent = span[3]
    while parent is not None:
        if parent in indices:
            return True
        parent = spans[parent][3]
    return False
