"""Pipeline orchestration: classify heads, plan budgets, score fidelity, export.

Fidelity is measured the way a decoder with an evicted cache behaves: for the
last `decode_queries` query rows, attention outputs over the retained K/V
entries (softmax renormalized over the retained, causally visible set) are
compared against outputs over the full cache. This is a proxy for task-level
quality; it needs no language model.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .allocator import (
    BudgetPlan,
    MemoryFootprint,
    PolicyKind,
    apply_policy,
    build_head_entry,
    check_plans,
    keeps_every_position,
    plans_footprint,
    pool_scores,
)
from .contribution import BoundSuiteReport, verify_bound_suite
from .errors import InfeasibleBudgetError, ParameterError, SemkvError
from .linalg import AttentionInputs, masked_softmax, pca_2d
from .separator import (
    HeadProfile,
    HeterogeneitySchedule,
    SemanticVector,
    WindowScores,
    approx_semantic_vector,
    build_layer_profiles,
    heterogeneous_schedule,
    window_weights,
)
from .trace import AttentionTrace, SyntheticProfile, gen_synthetic_trace, read_trace

DEFAULT_POLICIES = (PolicyKind.TASK_KV, PolicyKind.STREAMING)
DEFAULT_BUDGETS = (0.4,)


@dataclass
class RunConfig:
    """Everything a run needs; defaults follow the reference setup
    (window 32, kernel 7, 16 sinks, 256 recents, top-t 256)."""

    trace_path: str | None = None
    profile: SyntheticProfile | None = None
    shape: tuple[int, int, int, int] | None = None
    policies: tuple[PolicyKind, ...] = DEFAULT_POLICIES
    budget_ratios: tuple[float, ...] = DEFAULT_BUDGETS
    beta: float = 0.25
    top_m: int = 4
    top_t: int = 256
    window_len: int = 32
    kernel: int = 7
    sinks: int = 16
    recents: int = 256
    decode_queries: int | None = None  # None -> window_len
    seed: int = 0
    contrib_trials: int = 0  # 0 skips the bound suite in `all` runs

    def resolved_decode_queries(self) -> int:
        return self.window_len if self.decode_queries is None else self.decode_queries

    def to_json_dict(self) -> dict:
        return {
            "trace_path": self.trace_path,
            "profile": None
            if self.profile is None
            else {
                "kind": self.profile.kind,
                "seed": self.profile.seed,
                "planted": self.profile.planted,
                "spread": self.profile.spread,
                "needle_position": self.profile.needle_position,
                "needle_strength": self.profile.needle_strength,
                "tail_len": self.profile.tail_len,
            },
            "shape": None if self.shape is None else list(self.shape),
            "policies": [p.value for p in self.policies],
            "budget_ratios": list(self.budget_ratios),
            "beta": self.beta,
            "top_m": self.top_m,
            "top_t": self.top_t,
            "window_len": self.window_len,
            "kernel": self.kernel,
            "sinks": self.sinks,
            "recents": self.recents,
            "decode_queries": self.decode_queries,
            "seed": self.seed,
            "contrib_trials": self.contrib_trials,
        }


def load_trace_for(config: RunConfig) -> AttentionTrace:
    if config.trace_path is not None:
        return read_trace(config.trace_path)
    if config.profile is not None and config.shape is not None:
        return gen_synthetic_trace(config.profile, config.shape)
    raise ParameterError("config needs either trace_path or profile+shape")


@dataclass
class RunResult:
    schedule: HeterogeneitySchedule
    profiles: list[list[HeadProfile]]
    plans: dict[tuple[str, float], list[BudgetPlan]]
    # one {"policy", "budget_ratio", "message"} entry per cell left unplanned
    # because its budget cannot hold the heterogeneous heads
    infeasible: list[dict] = field(default_factory=list)


def _window_pass(
    inputs: AttentionInputs, window_len: int, top_t: int, decode_out: np.ndarray | None
) -> tuple[WindowScores, SemanticVector]:
    """One head's window scores and top-t semantic vector; with `decode_out`,
    also the window rows' attention outputs, written into it. The widened
    inputs die with the call, so one head's float64 copy is alive at a time."""
    weights = window_weights(inputs, window_len)
    scores = WindowScores.from_weights(weights)
    if decode_out is not None:
        decode_out[...] = weights @ inputs.values
    return scores, approx_semantic_vector(scores, inputs.values, top_t)


def compress_run(config: RunConfig, trace: AttentionTrace) -> RunResult:
    """Window scores -> semantic vectors -> classification -> plans.

    One pass over the heads widens each head's Q/K/V once and takes, from
    one masked softmax over its observation window, the pooled window
    scores, the top-t semantic vector and, when the decode rows are the
    window rows (the default), the head's full-cache decode output, which
    the trace keeps for `fidelity_eval`. The policies then plan every
    (policy, budget) cell from the pooled scores alone. A cell whose budget
    cannot hold its heterogeneous heads is recorded in `infeasible` and the
    other cells are planned; when no cell is feasible the first cell's
    error is raised.
    """
    n = trace.num_heads
    schedule = heterogeneous_schedule(n, config.beta, config.top_m, trace.num_layers)
    window_len = min(config.window_len, trace.seq_len)
    decode = None
    if min(config.resolved_decode_queries(), trace.seq_len) == window_len >= 1:
        decode = np.empty((trace.num_layers, n, window_len, trace.head_dim))
    profiles: list[list[HeadProfile]] = []
    pooled = []
    for r in range(trace.num_layers):
        layer_pooled, vectors = [], []
        try:
            for h in range(n):
                # no local name holds the widened inputs past the call
                score, vector = _window_pass(
                    trace.head_inputs(r, h),
                    window_len,
                    config.top_t,
                    None if decode is None else decode[r, h],
                )
                layer_pooled.append(pool_scores(score.column_means, config.kernel))
                vectors.append(vector)
            profiles.append(build_layer_profiles(r, vectors, schedule.count_for_layer(r)))
        except SemkvError as exc:
            raise type(exc)(f"layer {r}: {exc}") from exc
        pooled.append(layer_pooled)
    if decode is not None:
        trace.keep_decode_outputs(window_len, decode)

    result = RunResult(schedule, profiles, {})
    for policy in config.policies:
        for ratio in config.budget_ratios:
            key = (PolicyKind(policy).value, ratio)
            try:
                result.plans[key] = [
                    apply_policy(
                        r,
                        [p.head_class for p in profiles[r]],
                        policy,
                        ratio,
                        config.sinks,
                        config.recents,
                        window_len,
                        pooled[r],
                    )
                    for r in range(trace.num_layers)
                ]
            except InfeasibleBudgetError as exc:
                result.infeasible.append(
                    {"policy": key[0], "budget_ratio": ratio, "message": str(exc)}
                )
    if result.infeasible and not result.plans:
        raise InfeasibleBudgetError(result.infeasible[0]["message"])
    return result


@dataclass
class FidelityReport:
    decode_queries: int
    per_head_l2: np.ndarray  # (R, n) mean L2 error over decode rows
    per_head_cosine: np.ndarray  # (R, n)

    @property
    def mean_l2(self) -> float:
        return float(self.per_head_l2.mean())

    @property
    def mean_cosine(self) -> float:
        return float(self.per_head_cosine.mean())


def _rows_cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    out = np.ones(a.shape[0])
    both = (na > 0) & (nb > 0)
    out[both] = np.sum(a[both] * b[both], axis=1) / (na[both] * nb[both])
    out[(na > 0) ^ (nb > 0)] = 0.0
    return out


def fidelity_eval(
    trace: AttentionTrace, plans: list[BudgetPlan], decode_queries: int
) -> FidelityReport:
    """Decode-attention reconstruction error of the plans' cache vs the full one.

    Each head's cache entry is built, scored and dropped before the next, so
    at most one head's entry is alive at a time; its rows and the decode
    queries are gathered from the trace and widened to float64. A head that
    keeps every position attends exactly like the full cache, so its scores
    come from the memoized full outputs without building its entry.
    """
    plans = check_plans(trace, plans)
    full = trace.full_decode_outputs(decode_queries)  # validates decode_queries
    first_row = trace.seq_len - decode_queries
    l2 = np.empty((trace.num_layers, trace.num_heads))
    cos = np.empty((trace.num_layers, trace.num_heads))
    for r, plan in enumerate(plans):
        for h in range(trace.num_heads):
            full_out = full[r, h]
            if keeps_every_position(plan, h, trace.seq_len):
                l2[r, h] = 0.0
                # the self-cosine of a row is not always exactly 1
                cos[r, h] = float(_rows_cosine(full_out, full_out).mean())
                continue
            entry = build_head_entry(trace, plan, r, h)
            q = np.asarray(trace.data[r, h, 0, first_row:], dtype=np.float64)
            scores = (q @ entry.keys.T) / np.sqrt(float(trace.head_dim))
            visible = (
                entry.positions[None, :]
                <= (first_row + np.arange(decode_queries))[:, None]
            )
            retained_w = masked_softmax(scores, visible)
            retained_out = retained_w @ entry.values
            diff = full_out - retained_out
            l2[r, h] = float(np.linalg.norm(diff, axis=1).mean())
            cos[r, h] = float(_rows_cosine(full_out, retained_out).mean())
    return FidelityReport(decode_queries, l2, cos)


@dataclass
class EvalReport:
    """Run results in one serializable bundle."""

    config: dict
    trace_info: dict
    schedule: dict
    classifications: list[list[str]]
    distances: list[list[float]]
    pca: list[dict]
    policies: list[dict]
    contribution: dict | None = None
    infeasible: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        out = {
            "config": self.config,
            "trace": self.trace_info,
            "schedule": self.schedule,
            "classifications": self.classifications,
            "distances": self.distances,
            "pca": self.pca,
            "policies": self.policies,
        }
        if self.infeasible:
            out["infeasible"] = self.infeasible
        if self.contribution is not None:
            out["contribution"] = self.contribution
        return out

    def csv_rows(self) -> list[list]:
        rows = []
        for entry in self.policies:
            per_head = entry["fidelity"]["per_head"]
            for r, layer_rows in enumerate(per_head):
                for h, cell in enumerate(layer_rows):
                    rows.append(
                        [
                            entry["policy"],
                            entry["budget_ratio"],
                            r,
                            h,
                            self.classifications[r][h],
                            cell["retained_tokens"],
                            cell["l2_error"],
                            cell["cosine_similarity"],
                        ]
                    )
        return rows


CSV_HEADER = [
    "policy",
    "budget_ratio",
    "layer",
    "head",
    "head_class",
    "retained_tokens",
    "l2_error",
    "cosine_similarity",
]
PCA_HEADER = ["layer", "head", "x", "y", "class"]


def build_eval_report(
    config: RunConfig,
    trace: AttentionTrace,
    result: RunResult,
    fidelity: dict[tuple[str, float], FidelityReport],
    memory: dict[tuple[str, float], MemoryFootprint],
    contribution: BoundSuiteReport | None = None,
) -> EvalReport:
    classifications = [
        [p.head_class.value for p in layer] for layer in result.profiles
    ]
    distances = [
        [p.distance_to_center for p in layer] for layer in result.profiles
    ]
    pca_blocks = []
    for r, layer in enumerate(result.profiles):
        coords = pca_2d(np.asarray([p.semantic.values for p in layer]))
        pca_blocks.append(
            {
                "layer": r,
                "points": [
                    {
                        "head": h,
                        "x": float(coords[h, 0]),
                        "y": float(coords[h, 1]),
                        "class": layer[h].head_class.value,
                    }
                    for h in range(len(layer))
                ],
            }
        )
    policy_entries = []
    for (policy, ratio), fid in sorted(fidelity.items()):
        mem = memory[(policy, ratio)]
        plans = result.plans[(policy, ratio)]
        per_head = [
            [
                {
                    "retained_tokens": plans[r].head_tokens(h),
                    "l2_error": float(fid.per_head_l2[r, h]),
                    "cosine_similarity": float(fid.per_head_cosine[r, h]),
                }
                for h in range(trace.num_heads)
            ]
            for r in range(trace.num_layers)
        ]
        policy_entries.append(
            {
                "policy": policy,
                "budget_ratio": ratio,
                "memory": {
                    "tokens_retained": mem.tokens_retained,
                    "bytes": mem.bytes,
                    "ratio_vs_full": mem.ratio_vs_full,
                },
                "fidelity": {
                    "decode_queries": fid.decode_queries,
                    "mean_l2": fid.mean_l2,
                    "mean_cosine": fid.mean_cosine,
                    "per_head": per_head,
                },
            }
        )
    return EvalReport(
        config=config.to_json_dict(),
        trace_info={
            "num_layers": trace.num_layers,
            "num_heads": trace.num_heads,
            "seq_len": trace.seq_len,
            "head_dim": trace.head_dim,
            "source": config.trace_path or "synthetic",
        },
        schedule={
            "beta": result.schedule.beta,
            "top_m": result.schedule.top_m,
            "per_layer_counts": list(result.schedule.per_layer_counts),
        },
        classifications=classifications,
        distances=distances,
        pca=pca_blocks,
        policies=policy_entries,
        contribution=None if contribution is None else contribution.to_json_dict(),
        infeasible=result.infeasible,
    )


def _write_bytes(destination, payload: bytes) -> int:
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "wb") as f:
            return f.write(payload)
    return destination.write(payload)


def export_report(report: EvalReport, fmt: str, destination) -> int:
    """Serialize a report as canonical JSON or flat CSV; returns bytes written."""
    if fmt == "json":
        payload = (json.dumps(report.to_json_dict(), indent=2) + "\n").encode()
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in report.csv_rows():
            writer.writerow([_csv_cell(c) for c in row])
        payload = buf.getvalue().encode()
    else:
        raise ParameterError(f"unknown report format {fmt!r}")
    return _write_bytes(destination, payload)


def export_pca_csv(report: EvalReport, destination) -> int:
    """Per-head 2-D semantic coordinates, one row per (layer, head)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PCA_HEADER)
    for block in report.pca:
        for point in block["points"]:
            writer.writerow(
                [
                    block["layer"],
                    point["head"],
                    _csv_cell(point["x"]),
                    _csv_cell(point["y"]),
                    point["class"],
                ]
            )
    return _write_bytes(destination, buf.getvalue().encode())


def _csv_cell(value):
    if isinstance(value, float):
        return repr(value)
    return value


def run_all(config: RunConfig, trace: AttentionTrace, return_result: bool = False):
    """The full pipeline over one trace, including the optional bound suite."""
    result = compress_run(config, trace)
    dq = min(config.resolved_decode_queries(), trace.seq_len)
    fidelity = {key: fidelity_eval(trace, plans, dq) for key, plans in result.plans.items()}
    memory = {key: plans_footprint(trace, plans) for key, plans in result.plans.items()}
    contrib = None
    if config.contrib_trials > 0:
        contrib = verify_bound_suite(config.seed, config.contrib_trials)
    report = build_eval_report(config, trace, result, fidelity, memory, contrib)
    if return_result:
        return report, result
    return report
