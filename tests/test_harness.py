"""Pipeline orchestration, fidelity metrics, and report export."""

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semkv import harness
from semkv.allocator import (
    HEAD_AWARE_SLOTS,
    BudgetPlan,
    PolicyKind,
    apply_policy,
    check_plans,
    expand_runs,
    footprint,
    group_means,
    pool_scores,
)
from semkv.errors import (
    CacheConsistencyError,
    InfeasibleBudgetError,
    ParameterError,
    TraceTruncationError,
)
from semkv.harness import (
    RunConfig,
    _SAFE,
    _HeadNumerators,
    _rows_cosine,
    build_eval_report,
    check_decode_queries,
    compress_run,
    export_pca_csv,
    export_report,
    fidelity_eval,
    open_source,
    run_all,
    score_layer,
    score_plans,
)
from semkv.linalg import _KEY_BLOCK, AttentionInputs, _key_blocks
from semkv.separator import (
    HeadClass,
    approx_semantic_vector,
    build_layer_profiles,
    column_scores,
    top_t_indices,
)
from semkv.trace import (
    AttentionTrace,
    SyntheticProfile,
    TraceHeader,
    clustered_planted_heads,
    gen_synthetic_trace,
    read_trace,
    widen_head,
)

# the softmax oracles that mask the whole score matrix
from test_linalg import masked_softmax, row_major_attention_weights

ALL_POLICIES = tuple(PolicyKind)


def clustered_config(seed=0, planted=2, shape=(2, 8, 128, 8), **overrides):
    base = dict(
        profile=SyntheticProfile("clustered-heads", seed=seed, planted=planted),
        shape=shape,
        policies=(PolicyKind.TASK_KV, PolicyKind.STREAMING, PolicyKind.FULL),
        budget_ratios=(0.6,),
        beta=(planted + 1) / shape[1],
        top_m=planted + 1,
        top_t=shape[2],
        window_len=16,
        kernel=3,
        sinks=4,
        recents=8,
        decode_queries=8,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestCompressRun:
    def test_full_policy_retains_everything(self):
        cfg = clustered_config(policies=(PolicyKind.FULL,), budget_ratios=(1.0,))
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        result = compress_run(cfg, trace)
        for plan in result.plans[("full", 1.0)]:
            for runs in plan.per_head_runs:
                np.testing.assert_array_equal(expand_runs(runs), np.arange(trace.seq_len))
                np.testing.assert_array_equal(runs, [[0, trace.seq_len]])

    def test_deterministic_plans(self):
        cfg = clustered_config(seed=3)
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        a = compress_run(cfg, trace)
        b = compress_run(cfg, trace)
        for key in a.plans:
            ser_a = [json.dumps(p.to_json_dict()) for p in a.plans[key]]
            ser_b = [json.dumps(p.to_json_dict()) for p in b.plans[key]]
            assert ser_a == ser_b

    def test_classification_matches_planted_heads(self):
        cfg = clustered_config(seed=4)
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        result = compress_run(cfg, trace)
        planted = clustered_planted_heads(cfg.profile, 2, 8)
        for r, (classes, distances) in enumerate(zip(result.classes, result.distances)):
            het = {h for h, c in enumerate(classes) if c == HeadClass.HETEROGENEOUS}
            closest = int(np.argmin(distances))
            assert het == set(planted[r]) | {closest}

    def test_schedule_follows_layer_counts(self):
        cfg = clustered_config(seed=5, shape=(3, 8, 96, 8), beta=0.5, top_m=2)
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        result = compress_run(cfg, trace)
        for r, classes in enumerate(result.classes):
            het = sum(c == HeadClass.HETEROGENEOUS for c in classes)
            assert het == result.schedule.per_layer_counts[r]


    def test_infeasible_cells_are_recorded_and_the_rest_planned(self):
        cfg = clustered_config(
            seed=10, policies=(PolicyKind.TASK_KV, PolicyKind.STREAMING), budget_ratios=(0.2, 0.6)
        )
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        result = compress_run(cfg, trace)
        assert sorted(result.plans) == [("streaming", 0.2), ("streaming", 0.6), ("task-kv", 0.6)]
        assert result.infeasible == [
            {
                "policy": "task-kv",
                "budget_ratio": 0.2,
                "message": "layer 0: budget 204 < 384 needed by 3 heterogeneous heads",
            }
        ]
        report = run_all(cfg, trace)
        assert report["infeasible"] == result.infeasible
        cells = [(p["policy"], p["budget_ratio"]) for p in report["policies"]]
        assert cells == sorted(result.plans)

    def test_feasible_run_reports_no_infeasible_cells(self):
        cfg = clustered_config(seed=10)
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        assert compress_run(cfg, trace).infeasible == []
        assert "infeasible" not in run_all(cfg, trace)

    def test_run_with_no_feasible_cell_raises(self):
        cfg = clustered_config(
            seed=10, policies=(PolicyKind.TASK_KV, PolicyKind.NO_CACHE), budget_ratios=(0.1, 0.2)
        )
        with pytest.raises(InfeasibleBudgetError, match="^layer 0: budget 102 < 384"):
            compress_run(cfg, gen_synthetic_trace(cfg.profile, cfg.shape))


class TestFidelityEval:
    def test_full_cache_is_exact(self):
        cfg = clustered_config(seed=6, policies=(PolicyKind.FULL,), budget_ratios=(1.0,))
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        result = compress_run(cfg, trace)
        fid = fidelity_eval(trace, result.plans[("full", 1.0)], 8)
        assert fid.mean_l2 == 0.0
        assert fid.mean_cosine == 1.0

    def test_heterogeneous_heads_exact_under_task_kv(self):
        cfg = clustered_config(seed=7, policies=(PolicyKind.TASK_KV,), budget_ratios=(0.6,))
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        result = compress_run(cfg, trace)
        fid = fidelity_eval(trace, result.plans[("task-kv", 0.6)], 8)
        for r, classes in enumerate(result.classes):
            for h, head_class in enumerate(classes):
                if head_class == HeadClass.HETEROGENEOUS:
                    assert fid.per_head_l2[r, h] == 0.0
                    assert fid.per_head_cosine[r, h] == 1.0

    def test_error_shrinks_with_budget(self):
        cfg = clustered_config(
            seed=8, shape=(1, 16, 256, 8), planted=1,
            policies=(PolicyKind.TASK_KV,), budget_ratios=(0.2, 0.4, 0.6, 0.8),
            beta=2 / 16, top_m=2,
        )
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        result = compress_run(cfg, trace)
        errors = []
        for ratio in cfg.budget_ratios:
            fid = fidelity_eval(trace, result.plans[("task-kv", ratio)], 8)
            errors.append(fid.mean_l2)
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_decode_queries_validated(self):
        cfg = clustered_config(seed=9, shape=(1, 8, 64, 8))
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        result = compress_run(cfg, trace)
        key = ("task-kv", 0.6)
        with pytest.raises(ParameterError):
            fidelity_eval(trace, result.plans[key], 65)

    def test_compressed_cache_attends_synthetic_rows(self):
        cfg = clustered_config(
            seed=10, policies=(PolicyKind.COMPRESSED_CACHE,), budget_ratios=(0.6,)
        )
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        result = compress_run(cfg, trace)
        fid = fidelity_eval(trace, result.plans[("compressed-cache", 0.6)], 8)
        assert np.isfinite(fid.per_head_l2).all()
        assert (fid.per_head_cosine <= 1 + 1e-12).all()

    def test_result_independent_of_call_order(self):
        cfg = clustered_config(
            seed=17,
            policies=(PolicyKind.TASK_KV, PolicyKind.STREAMING, PolicyKind.COMPRESSED_CACHE),
        )
        key = ("task-kv", 0.6)
        others = [("streaming", 0.6), ("compressed-cache", 0.6)]

        def evaluate(before):
            trace = gen_synthetic_trace(cfg.profile, cfg.shape)
            result = compress_run(cfg, trace)
            for other, dq in before:
                fidelity_eval(trace, result.plans[other], dq)
            return fidelity_eval(trace, result.plans[key], 8)

        first = evaluate([])
        for before in ([(k, 8) for k in others], [(key, 5)], [(others[0], 12)]):
            again = evaluate(before)
            assert np.array_equal(again.per_head_l2, first.per_head_l2)
            assert np.array_equal(again.per_head_cosine, first.per_head_cosine)


@dataclasses.dataclass
class CacheEntry:
    """Retained K/V rows for one head, ordered by original position: the
    cache a plan describes, as the fidelity oracle attends over it.

    `positions[i]` is the original index of row i; synthetic group-mean rows
    carry their group's start position and are flagged in `synthetic`.
    """

    keys: np.ndarray
    values: np.ndarray
    positions: np.ndarray
    synthetic: np.ndarray

    def __post_init__(self):
        if not (
            len(self.keys) == len(self.values) == len(self.positions) == len(self.synthetic)
        ):
            raise CacheConsistencyError("cache entry arrays disagree on row count")
        if np.any(np.diff(self.positions) <= 0):
            raise CacheConsistencyError("cache positions must be strictly increasing")


def keeps_every_position(plan, head, seq_len) -> bool:
    """Whether the head's cache is the whole sequence and nothing else: its
    runs are the one run [0, N) and it has no groups. Scoring branched on
    it before the full cache was a plan of the block pass."""
    runs = plan.per_head_runs[head]
    whole = runs.shape == (1, 2) and runs[0, 0] == 0 and runs[0, 1] == seq_len
    return bool(whole) and (plan.per_head_groups is None or not len(plan.per_head_groups[head]))


def build_head_entry(block, plan, head) -> CacheEntry:
    """One head's retained K/V rows (plus synthetic group means) out of its
    (3, N, d) Q/K/V block.

    `plan` is the block's layer plan, already passed through `check_plans`. A
    head that keeps every position holds read-only views of the block's
    rows, in its dtype; other heads hold float64 copies of the rows they
    keep, gathered from the block and then widened.
    """
    n_seq = block.shape[1]
    idx, groups = plan.head_plan(head)
    keys, values = block[1], block[2]
    synthetic = np.zeros(idx.size, dtype=bool)
    if keeps_every_position(plan, head, n_seq):
        return CacheEntry(keys, values, idx, synthetic)
    k_rows = np.asarray(keys[idx], dtype=np.float64)
    v_rows = np.asarray(values[idx], dtype=np.float64)
    positions = idx
    if len(groups):
        k_rows = np.concatenate([k_rows, group_means(keys, groups)])
        v_rows = np.concatenate([v_rows, group_means(values, groups)])
        positions = np.concatenate([positions, groups[:, 0]])
        synthetic = np.concatenate([synthetic, np.ones(len(groups), dtype=bool)])
        order = np.argsort(positions, kind="stable")
        k_rows, v_rows = k_rows[order], v_rows[order]
        positions, synthetic = positions[order], synthetic[order]
    return CacheEntry(k_rows, v_rows, positions, synthetic)


def decode_output(inputs: AttentionInputs, decode_queries: int) -> np.ndarray:
    """Full-cache attention outputs of the last `decode_queries` query rows,
    shape (decode_queries, d): one row-major masked softmax over every key,
    times V."""
    return row_major_attention_weights(inputs, decode_queries) @ inputs.values


def decode_outputs(layer, decode_queries):
    """`decode_output` of every head of a checked (n, 3, N, d) layer, shape
    (n, decode_queries, d)."""
    return np.stack(
        [decode_output(widen_head(block, decode_queries), decode_queries) for block in layer]
    )


def built_entries(trace, plans):
    """Every head's `build_head_entry`, [layer][head]: the whole cache the
    plans describe, built at once, once they pass `check_plans`."""
    return [
        [build_head_entry(trace.data[r, h], plan, h) for h in range(trace.num_heads)]
        for r, plan in enumerate(check_plans(trace, plans))
    ]


def cache_oracle_fidelity(trace, plans, decode_queries):
    """Reference fidelity: build the whole cache, then score every head's
    entry with its own masked softmax."""
    cache = built_entries(trace, plans)
    full = np.stack([decode_outputs(layer, decode_queries) for layer in trace.data])
    first_row = trace.seq_len - decode_queries
    l2 = np.empty((trace.num_layers, trace.num_heads))
    cos = np.empty((trace.num_layers, trace.num_heads))
    for r in range(trace.num_layers):
        for h in range(trace.num_heads):
            inputs = trace.head_inputs(r, h)
            entry = cache[r][h]
            q = inputs.queries[first_row:]
            scores = (q @ entry.keys.T) / np.sqrt(float(trace.head_dim))
            visible = (
                entry.positions[None, :] <= (first_row + np.arange(decode_queries))[:, None]
            )
            retained_out = masked_softmax(scores, visible) @ entry.values
            diff = full[r, h] - retained_out
            l2[r, h] = float(np.linalg.norm(diff, axis=1).mean())
            cos[r, h] = float(_rows_cosine(full[r, h], retained_out).mean())
    return l2, cos


# How far head-major scoring may move from the cache oracle: it sums the
# softmax in another order, under a shared shift. Measured maxima over the
# `TestFidelityFromPlans` traces: L2 4.5e-13 relative, 1.7e-15 of the
# head's mean full-output norm (an L2 the oracle scores exactly 0), and
# cosine 1.7e-16 absolute.
ORACLE_RTOL, ORACLE_ATOL = 1e-12, 1e-14


def assert_matches_cache_oracle(trace, plans, decode_queries):
    """`fidelity_eval` of `plans` agrees with `cache_oracle_fidelity`: per
    head within ORACLE_RTOL relative plus ORACLE_ATOL of the head's mean
    full-output norm (L2), or ORACLE_ATOL absolute (cosine)."""
    fid = fidelity_eval(trace, plans, decode_queries)
    l2, cos = cache_oracle_fidelity(trace, plans, decode_queries)
    full = np.stack([decode_outputs(layer, decode_queries) for layer in trace.data])
    scale = np.linalg.norm(full, axis=-1).mean(axis=-1)
    assert np.all(np.abs(fid.per_head_l2 - l2) <= ORACLE_RTOL * l2 + ORACLE_ATOL * scale)
    assert np.all(np.abs(fid.per_head_cosine - cos) <= ORACLE_RTOL * np.abs(cos) + ORACLE_ATOL)
    return fid


def fortran_float64_trace(seed, shape):
    """Fortran-ordered float64 trace with magnitudes spread over six decades."""
    rng = np.random.default_rng(seed)
    r, n, seq_len, d = shape
    size = (r, n, 3, seq_len, d)
    data = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3, size)
    return AttentionTrace(TraceHeader(r, n, seq_len, d), np.asfortranarray(data))


class TestConfigTraces:
    def test_pipe_claiming_more_layers_than_arrive_is_truncated(self, tmp_path):
        # the header claims 6 PiB; one layer arrives before the end of the stream
        fifo = tmp_path / "pipe.tkv"
        os.mkfifo(fifo)
        header = TraceHeader(2**32 - 1, 8, 128, 128)
        layer = np.zeros((8, 3, 128, 128), dtype="<f4")

        def feed():
            with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as f:
                f.write(header.pack() + layer.tobytes())

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            with pytest.raises(TraceTruncationError):
                read_trace(str(fifo))
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()

    def test_needs_a_trace_or_a_profile_and_shape(self):
        with pytest.raises(ParameterError):
            open_source(RunConfig(profile=SyntheticProfile("uniform-random")))

    def test_library_runs_take_any_layer_source(self):
        cfg = clustered_config(seed=9)
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        cell = (cfg.policies[0].value, cfg.budget_ratios[0])
        plans = compress_run(cfg, trace).plans[cell]
        with open_source(cfg) as source:
            drawn = compress_run(cfg, source).plans[cell]
        assert [p.to_json_dict() for p in drawn] == [p.to_json_dict() for p in plans]
        with open_source(cfg) as source:
            assert run_all(cfg, source) == run_all(cfg, trace)
        with open_source(cfg) as source:
            mapped = fidelity_eval(source, plans, 8).to_json_dict()
        assert mapped == fidelity_eval(trace, plans, 8).to_json_dict()


class TestFidelityFromPlans:
    TRACES = {
        "clustered": lambda: gen_synthetic_trace(
            SyntheticProfile("clustered-heads", seed=20, planted=2), (2, 8, 128, 8)
        ),
        "head-dim-1": lambda: gen_synthetic_trace(
            SyntheticProfile("uniform-random", seed=21), (2, 8, 128, 1)
        ),
        "fortran-float64": lambda: fortran_float64_trace(22, (2, 8, 128, 6)),
    }

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_matches_whole_cache_oracle(self, name):
        trace = self.TRACES[name]()
        cfg = clustered_config(policies=ALL_POLICIES, budget_ratios=(0.4, 0.7, 1.0))
        result = compress_run(cfg, trace)
        assert len(result.plans) == 18
        for plans in result.plans.values():
            assert_matches_cache_oracle(trace, plans, 8)

    def test_rows_whose_retained_keys_underflow_are_rescored(self):
        trace = underflow_trace()
        for groups in (None, [[4, 20], [20, 56]]):
            fid = assert_matches_cache_oracle(trace, [head_plan([[0, 4], [56, 64]], groups)], 8)
            assert np.isfinite(fid.per_head_l2).all() and np.isfinite(fid.per_head_cosine).all()
            # a blind row would score cosine 0 and L2 ||o||; these rows see
            # retained keys, whose values point the way the full output does
            assert fid.per_head_cosine[0, 0] > 0.9
            full_norm = np.linalg.norm(decode_outputs(trace.data[0], 8)[0], axis=1).mean()
            assert fid.per_head_l2[0, 0] < full_norm / 2

    def test_layer_count_mismatch_rejected(self):
        cfg = clustered_config(seed=23)
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        plans = compress_run(cfg, trace).plans[("task-kv", 0.6)]
        with pytest.raises(CacheConsistencyError):
            fidelity_eval(trace, plans[:1], 8)


# How far `_HeadNumerators.full` may move from the `decode_output` oracle,
# per head, as a fraction of the head's largest |o|: it sums the softmax
# and its V product in blocks of keys under the same row max, and divides
# after the V product. Measured maxima: 2.5e-15 over the
# `TestFidelityFromPlans` traces at every decode count below, 1.2e-15 on
# the benchmark's two traces (1.2e-14 with `PreChangeFull`'s denominator).
FULL_OUTPUT_TOL = 5e-14


class TestFullOutputs:
    """The full-cache decode outputs have one home, `_HeadNumerators`; the
    one masked softmax per head they replaced is the oracle."""

    @pytest.mark.parametrize("decode_queries", [1, 5, 16, 128])  # 16 is the window, 128 N
    @pytest.mark.parametrize("name", sorted(TestFidelityFromPlans.TRACES))
    def test_full_outputs_match_decode_output_oracle(self, name, decode_queries):
        trace = TestFidelityFromPlans.TRACES[name]()
        for layer in trace.data:
            expected = decode_outputs(layer, decode_queries)
            for h, block in enumerate(layer):
                full = full_outputs(block, decode_queries)
                scale = np.abs(expected[h]).max()
                assert np.all(np.abs(full - expected[h]) <= FULL_OUTPUT_TOL * scale)

    @pytest.mark.parametrize("count", [0, 129])
    def test_decode_count_outside_one_to_n_rejected(self, count):
        trace = TestFidelityFromPlans.TRACES["clustered"]()
        plans = compress_run(clustered_config(), trace).plans[("task-kv", 0.6)]
        message = f"decode_queries {count} outside \\[1, 128\\]"
        with pytest.raises(ParameterError, match=message):
            check_decode_queries(count, trace.seq_len)
        with pytest.raises(ParameterError, match=message):
            fidelity_eval(trace, plans, count)
        with pytest.raises(ParameterError, match=message):
            score_plans(trace, [plans], count)
        assert check_decode_queries(128, 128) == 128


def full_outputs(block, decode_queries):
    """A head's full-cache decode outputs, the first of `_HeadNumerators.outputs`."""
    return _HeadNumerators(block, decode_queries).outputs()[0]


def head_outputs(block, decode_queries, heads):
    """One `_HeadNumerators` over the head's decode rows with the groups of
    `heads` (each a `HeadPlan`), its full outputs and each head's retained
    outputs, from one value pass."""
    numerators = _HeadNumerators(block, decode_queries, [head.groups for head in heads])
    full, *retained = numerators.outputs(heads)
    return numerators, full, retained


def oracle_retained_output(head, values, plan) -> np.ndarray:
    """Decode outputs over a checked plan's `HeadPlan`'s retained rows and
    group means, (decode_queries, d), from `head`'s numerators (a
    `_HeadNumerators`), with every retained V row gathered and widened and
    one product over all of them: the per-cell scoring the block pass
    replaced, kept bit for bit. The first cache position is the first of
    the sorted positions of its cache rows."""
    out = np.zeros((len(head.rows), values.shape[1]))
    positions = np.sort(np.concatenate([plan.retained, plan.groups[:, 0]]))
    first = int(positions[0]) if positions.size else int(head.rows[-1]) + 1
    blind = min(max(first - int(head.rows[0]), 0), len(head.rows))
    if blind == len(head.rows):
        return out
    idx, groups, rows = plan.retained, plan.groups, head.rows[blind:]
    starts = groups[:, 0]
    group_scores = np.empty((0, len(rows)))
    weights = head.numerators[idx, blind:]
    v = np.asarray(values[idx], dtype=np.float64)
    if len(groups):
        group_scores = group_means(head.scores(), groups)[:, blind:]
        with np.errstate(over="ignore"):
            group_weights = np.exp(group_scores - head.shift[blind:])
        group_weights[starts[:, None] > rows] = 0.0
        weights = np.concatenate([weights, group_weights])
        v = np.concatenate([v, group_means(values, groups)])
    total = weights.sum(axis=0)
    rescue = ~((total >= 1 / _SAFE) & (total <= _SAFE))
    if rescue.any():
        own = np.concatenate([head.scores()[idx, blind:][:, rescue], group_scores[:, rescue]])
        own[np.concatenate([idx, starts])[:, None] > rows[rescue]] = -np.inf
        weights[:, rescue] = np.exp(own - own.max(axis=0))
        total[rescue] = weights[:, rescue].sum(axis=0)
    out[blind:] = (weights.T @ v) / total[:, None]
    return out


class PreChangeFull(_HeadNumerators):
    """Numerators whose full-cache outputs are summed as they were before
    the full cache was a plan of the block pass: each key block's
    E[b]^T V[b] added up, then divided by one sum of every numerator,
    E^T V / sum E, where the block pass adds up each block's row sums."""

    def outputs(self, heads=()):
        outputs = super().outputs(heads)
        full = np.zeros_like(outputs[0])
        for at, rows in _key_blocks(self._block[2]):
            full += self.numerators[at].T @ rows
        full /= self.numerators.sum(axis=0)[:, None]
        outputs[0] = full
        return outputs


def pre_change_score_layer(data, plans, decode_queries):
    """`score_layer` as it was before the full cache was a plan of the
    block pass, kept bit for bit: `PreChangeFull`'s full outputs, and a
    head that keeps every position scored L2 0 and their self-cosine
    without a pass of its own."""
    n_heads, _, seq_len, _ = data.shape
    scores = [(np.empty(n_heads), np.empty(n_heads)) for _ in plans]
    for h, block in enumerate(data):
        cells = {
            c: plan.head_plan(h)
            for c, plan in enumerate(plans)
            if not keeps_every_position(plan, h, seq_len)
        }
        heads = list(cells.values())
        head = PreChangeFull(block, decode_queries, [c.groups for c in heads])
        full, *retained = head.outputs(heads)
        retained = dict(zip(cells, retained))
        self_cosine = float(_rows_cosine(full, full).mean())
        for c, (l2, cos) in enumerate(scores):
            if c not in retained:
                l2[h], cos[h] = 0.0, self_cosine
                continue
            l2[h] = float(np.linalg.norm(full - retained[c], axis=1).mean())
            cos[h] = float(_rows_cosine(full, retained[c]).mean())
    return scores


def oracle_score_layer(data, plans, decode_queries, numerators=PreChangeFull):
    """`score_layer` as it was before the block pass: each head's full
    outputs from `numerators(block, decode_queries).outputs()`, and each
    cell's retained outputs from `oracle_retained_output`."""
    n_heads, _, seq_len, _ = data.shape
    scores = [(np.empty(n_heads), np.empty(n_heads)) for _ in plans]
    for h, block in enumerate(data):
        head = numerators(block, decode_queries)
        full = head.outputs()[0]
        self_cosine = float(_rows_cosine(full, full).mean())
        for (l2, cos), plan in zip(scores, plans):
            if keeps_every_position(plan, h, seq_len):
                l2[h], cos[h] = 0.0, self_cosine
                continue
            retained_out = oracle_retained_output(head, block[2], plan.head_plan(h))
            l2[h] = float(np.linalg.norm(full - retained_out, axis=1).mean())
            cos[h] = float(_rows_cosine(full, retained_out).mean())
    return scores


def underflow_trace(seq_len=64, head_dim=4):
    """One head whose decode rows 56..63 score key 10 at 1000 and every
    other key within a few units of 0, so every retained exponential of a
    plan without key 10 underflows under the full-cache row max."""
    rng = np.random.default_rng(26)
    data = np.zeros((1, 1, 3, seq_len, head_dim))
    data[0, 0, 0, :, 0] = 40.0
    data[0, 0, 1] = 0.1 * rng.standard_normal((seq_len, head_dim))
    data[0, 0, 1, 10] = [50.0, 0.0, 0.0, 0.0]
    data[0, 0, 2] = 0.1 * rng.standard_normal((seq_len, head_dim))
    data[0, 0, 2, :, 0] = 1.0
    return AttentionTrace(TraceHeader(1, 1, seq_len, head_dim), data)


def head_plan(runs, groups=None, heads=1):
    """A one-layer compressed-cache plan whose every head keeps `runs` and,
    if given, summarises `groups`."""
    return BudgetPlan(
        0, PolicyKind.COMPRESSED_CACHE, 0, 0, 0, 0, False,
        [HeadClass.NON_HETEROGENEOUS] * heads,
        [np.array(runs)] * heads,
        None if groups is None else [np.array(groups)] * heads,
    )


# How far the block pass's retained outputs may move from
# `oracle_retained_output`, per head, as a fraction of the head's largest
# |o|: it adds each key block's product and row sums in turn (a whole-kept
# block's are the full outputs' own) where the oracle makes one product
# over every retained row. Measured maxima over `TestBlockPass`: outputs
# 2.2e-15, L2 1.5e-16 of sqrt(d) times the layer's largest |o| (the bound an
# output move puts on it), cosine 1.1e-16 absolute.
BLOCK_PASS_TOL = 2e-14


class TestBlockPass:
    """One pass over each head's V key blocks gives the full outputs and
    every cell's retained outputs; the per-cell gather is the oracle."""

    @staticmethod
    def assert_matches_oracle(trace, plans, decode_queries):
        """Every head of every plan: the block pass's retained outputs
        against `oracle_retained_output` within BLOCK_PASS_TOL, and
        `score_layer` against `oracle_score_layer` on the same scale.
        Returns how many (head, key block) pairs a cell keeps whole and in
        part."""
        for plan in plans:
            check_plans(trace, plan)  # hand-made plans too
        whole = partial = 0
        sizes = np.bincount(np.arange(trace.seq_len) // _KEY_BLOCK)  # each key block's length
        for r, layer in enumerate(trace.data):
            for h, block in enumerate(layer):
                heads = [plan[r].head_plan(h) for plan in plans]
                _, full, retained_outputs = head_outputs(block, decode_queries, heads)
                oracle = _HeadNumerators(block, decode_queries)
                assert np.array_equal(full, oracle.outputs()[0])
                scale = np.abs(full).max()
                for plan, retained in zip(heads, retained_outputs):
                    expected = oracle_retained_output(oracle, block[2], plan)
                    assert np.all(np.abs(retained - expected) <= BLOCK_PASS_TOL * scale)
                    counts = np.bincount(plan.retained // _KEY_BLOCK, minlength=len(sizes))
                    whole += int(np.sum(counts == sizes))
                    partial += int(np.sum((counts > 0) & (counts < sizes)))
        # the scores: full outputs are equal, so each L2 moves by at most
        # sqrt(d) of the outputs' largest move
        full = np.stack([decode_outputs(layer, decode_queries) for layer in trace.data])
        scale = np.sqrt(trace.head_dim) * np.abs(full).max(axis=(-2, -1))
        for r, layer in enumerate(trace.data):
            layer_plans = [plan[r] for plan in plans]
            expected = oracle_score_layer(layer, layer_plans, decode_queries)
            for (l2, cos), (l2_oracle, cos_oracle) in zip(
                score_layer(layer, layer_plans, decode_queries), expected
            ):
                assert np.all(np.abs(l2 - l2_oracle) <= BLOCK_PASS_TOL * scale[r])
                assert np.all(np.abs(cos - cos_oracle) <= BLOCK_PASS_TOL)
        return whole, partial

    @pytest.mark.parametrize("decode_queries", [1, 16, _KEY_BLOCK + 40])  # 16 is the window, N
    def test_every_policy_off_the_block_grid(self, decode_queries):
        # N = 552 is one whole key block and a 40-key one
        cfg = clustered_config(
            seed=40, shape=(1, 4, _KEY_BLOCK + 40, 8), planted=1, beta=2 / 4, top_m=2,
            policies=ALL_POLICIES, budget_ratios=(0.2, 0.5, 0.95), decode_queries=decode_queries,
        )
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        plans = list(compress_run(cfg, trace).plans.values())
        assert any(plan[0].per_head_groups is not None for plan in plans)
        whole, partial = self.assert_matches_oracle(trace, plans, decode_queries)
        assert whole and partial

    def test_hand_made_plans_cover_whole_partial_and_grouped_blocks(self):
        seq_len = 2 * _KEY_BLOCK + 40
        trace = fortran_float64_trace(41, (1, 2, seq_len, 6))
        plans = [
            [head_plan([[0, _KEY_BLOCK], [_KEY_BLOCK + 7, seq_len]], heads=2)],
            [head_plan([[3, 2 * _KEY_BLOCK], [seq_len - 1, seq_len]], heads=2)],
            [head_plan([[0, 4], [seq_len - 300, seq_len]], [[4, 600], [600, 764]], heads=2)],
            [head_plan([[0, _KEY_BLOCK + 1]], [[_KEY_BLOCK + 1, seq_len]], heads=2)],
        ]
        for decode_queries in (1, 16, seq_len):
            self.assert_matches_oracle(trace, plans, decode_queries)

    def test_head_dim_one(self):
        cfg = clustered_config(
            profile=SyntheticProfile("uniform-random", seed=42), shape=(2, 4, _KEY_BLOCK + 40, 1),
            beta=2 / 4, top_m=2, policies=ALL_POLICIES, budget_ratios=(0.3, 0.95),
        )
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        self.assert_matches_oracle(trace, list(compress_run(cfg, trace).plans.values()), 8)

    def test_blind_decode_rows(self):
        # decode rows 544..551 see nothing before position 549 (or group start 547)
        trace = fortran_float64_trace(43, (1, 2, _KEY_BLOCK + 40, 4))
        seq_len = trace.seq_len
        plans = [
            [head_plan([[seq_len - 3, seq_len]], heads=2)],
            [head_plan([[seq_len - 3, seq_len]], [[seq_len - 5, seq_len - 3]], heads=2)],
        ]
        self.assert_matches_oracle(trace, plans, 8)
        for plan in plans:
            head = plan[0].head_plan(0)
            out = head_outputs(trace.data[0, 0], 8, [head])[2][0]
            blind = 5 if plan[0].per_head_groups is None else 3
            assert not out[:blind].any() and np.all(np.abs(out[blind:]).sum(axis=1) > 0)

    def test_rows_whose_retained_keys_underflow_are_rescued(self):
        trace = underflow_trace()
        plans = [
            [head_plan([[0, 4], [56, 64]])],
            [head_plan([[0, 4], [56, 64]], [[4, 20], [20, 56]])],
        ]
        for plan in plans:
            head = _HeadNumerators(trace.data[0, 0], 8)
            total = head.numerators[plan[0].head_plan(0).retained].sum(axis=0)
            assert np.all(total < 1 / _SAFE)  # every decode row is rescued
        self.assert_matches_oracle(trace, plans, 8)


def head_window_scores(block, window_len):
    """One head's (N,) window scores as the run's head visit takes them:
    `column_scores` of the window rows' numerators, formed over K."""
    return column_scores(_HeadNumerators(block, window_len).numerators)


def two_pass_layer_step(window_scores=head_window_scores, score=score_layer):
    """`layer_step` as two passes over a layer's heads, as it ran before
    each head was visited once: each head's window scores
    (`window_scores(block, window_len)`) and semantic vector, the layer's
    classes, `apply_policy` of every cell from the pooled scores, then
    `score(data, plans, decode_queries)`. With the defaults it is the
    oracle of the one visit; with the oracles of earlier steps it is their
    report's path."""

    def step(config, result, layer, data):
        window_len, cells = result.window_len, result.facts
        scores = [window_scores(block, window_len) for block in data]
        pooled = [pool_scores(score, config.kernel) for score in scores] if cells else []
        vectors = np.array([
            approx_semantic_vector(score, block[2], config.top_t)
            for score, block in zip(scores, data)
        ])
        f_r = result.schedule.per_layer_counts[layer]
        distances, classes = build_layer_profiles(vectors, f_r)
        plans = {
            cell: apply_policy(
                layer, classes, *cell, config.sinks, config.recents, window_len, pooled
            )
            for cell in cells
        }
        result.vectors.append(vectors)
        result.distances.append(distances)
        result.classes.append(classes)
        result.add_head_tokens(plans)
        if result.decode_queries is not None:
            scored = score(data, list(plans.values()), result.decode_queries)
            for cell, cell_scores in zip(plans, scored):
                result.scores.setdefault(cell, []).append(cell_scores)
        return plans

    return step


def report_and_plans(cfg, trace):
    """`run_all`'s report bytes over `trace` and every plan it built, as JSON."""
    report, result = run_all(cfg, trace, return_result=True)
    buf = io.BytesIO()
    export_report(report, "json", buf)
    plans = {
        cell: [json.dumps(p.to_json_dict()) for p in kept] for cell, kept in result.plans.items()
    }
    return buf.getvalue(), plans


class TestOneVisit:
    """`layer_step` visits each head once: it plans the head under each
    class, scores each distinct keep, and picks the keeps and scores of
    the head's class once the layer is classified. Its reports and plans
    are those of the two-pass step, bit for bit, and no layer-wide buffer
    is alive while a head's V is read."""

    @staticmethod
    def assert_one_visit_is_two_passes(monkeypatch, cfg, trace):
        one = report_and_plans(cfg, trace)
        monkeypatch.setattr(harness, "layer_step", two_pass_layer_step())
        two = report_and_plans(cfg, trace)
        monkeypatch.undo()
        assert one == two

    @pytest.mark.parametrize("decode_queries", [16, 5, _KEY_BLOCK + 40])  # the window, N
    def test_every_policy_gets_the_bits_of_two_passes(self, monkeypatch, decode_queries):
        cfg = clustered_config(
            seed=47, shape=(2, 4, _KEY_BLOCK + 40, 8), planted=1, beta=2 / 4, top_m=2,
            policies=ALL_POLICIES, budget_ratios=(0.3, 0.6, 0.95), decode_queries=decode_queries,
        )
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        self.assert_one_visit_is_two_passes(monkeypatch, cfg, trace)

    def test_a_layer_of_heterogeneous_heads(self, monkeypatch):
        # f(0) = n: every head of layer 0 keeps everything
        cfg = clustered_config(
            seed=49, shape=(3, 4, 128, 8), planted=1, beta=1.0, top_m=1,
            policies=ALL_POLICIES, budget_ratios=(1.0,),
        )
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        plans = compress_run(cfg, trace).plans[("task-kv", 1.0)]
        assert plans[0].head_classes == [HeadClass.HETEROGENEOUS] * 4
        self.assert_one_visit_is_two_passes(monkeypatch, cfg, trace)

    def test_a_clamped_layer(self, monkeypatch):
        # layer 0: k = (281 - 2 * 128) // 2 - 4 - 16 < 0
        cfg = clustered_config(
            seed=50, shape=(2, 4, 128, 8), planted=1, beta=0.5, top_m=1, recents=16,
            policies=ALL_POLICIES, budget_ratios=(0.55,),
        )
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        plans = compress_run(cfg, trace).plans[("task-kv", 0.55)]
        assert [plan.clamped for plan in plans] == [True, False]
        self.assert_one_visit_is_two_passes(monkeypatch, cfg, trace)

    def test_rescued_rows_get_the_bits_of_two_passes(self, monkeypatch):
        # streaming keeps [0, 4) and [52, 64) of `underflow_trace`, not key 10
        trace = underflow_trace()
        cfg = clustered_config(
            shape=(1, 1, 64, 4), beta=1.0, top_m=0,
            window_len=8, decode_queries=8, top_t=8, budget_ratios=(0.2,),
            policies=(PolicyKind.STREAMING, PolicyKind.COMPRESSED_CACHE),
        )
        plan = compress_run(cfg, trace).plans[("streaming", 0.2)][0]
        head = _HeadNumerators(trace.data[0, 0], 8)
        total = head.numerators[plan.head_plan(0).retained].sum(axis=0)
        assert np.all(total < 1 / _SAFE)  # every decode row is rescued
        self.assert_one_visit_is_two_passes(monkeypatch, cfg, trace)

    @pytest.mark.parametrize("decode_queries", [32, 8])  # the window, other rows
    def test_the_run_holds_one_heads_numerators(self, monkeypatch, decode_queries):
        # one head's window numerators, or its decode rows', are one array
        shape, window_len = (2, 4, 4096, 8), 32
        cfg = clustered_config(
            seed=48, shape=shape, window_len=window_len, decode_queries=decode_queries,
            policies=(PolicyKind.TASK_KV, PolicyKind.STREAMING, PolicyKind.COMPRESSED_CACHE),
        )
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        _, n, seq_len, _ = shape
        softmax_bytes = seq_len * decode_queries * 8
        alive = []
        value_pass = _HeadNumerators._value_pass

        def sampled(head, values, heads):
            traces = tracemalloc.take_snapshot().traces
            alive.append(sorted(t.size for t in traces if t.size >= softmax_bytes))
            return value_pass(head, values, heads)

        monkeypatch.setattr(_HeadNumerators, "_value_pass", sampled)
        tracemalloc.start()
        try:
            run_all(cfg, trace)
        finally:
            tracemalloc.stop()
        # while each head's V is read, its own numerators are the one
        # softmax-sized allocation alive
        assert alive == [[softmax_bytes]] * shape[0] * n


class TestKeepAllHeads:
    """A head that keeps every position is scored as one more plan of the
    block pass, like the full cache itself, so it scores L2 exactly 0 and
    the full outputs' own cosine, which is not always exactly 1."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        policy=st.sampled_from(ALL_POLICIES),
        ratio=st.sampled_from((0.5, 0.7, 1.0)),
        decode=st.sampled_from(("one", "window", "all")),
    )
    def test_full_and_heterogeneous_heads_score_the_full_cache(
        self, seed, policy, ratio, decode
    ):
        cfg = clustered_config(seed=seed, policies=(policy,), budget_ratios=(ratio,))
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        decode_queries = {"one": 1, "window": cfg.window_len, "all": trace.seq_len}[decode]
        cfg = dataclasses.replace(cfg, decode_queries=decode_queries)
        _, result = run_all(cfg, trace, return_result=True)
        fid = result.fidelity((policy.value, ratio))
        checked = 0
        for r, classes in enumerate(result.classes):
            for h, head_class in enumerate(classes):
                keeps_all = policy == PolicyKind.FULL or (
                    policy in HEAD_AWARE_SLOTS and head_class == HeadClass.HETEROGENEOUS
                )
                if not keeps_all:
                    continue
                full = full_outputs(trace.data[r, h], decode_queries)
                assert fid.per_head_l2[r, h] == 0.0
                assert fid.per_head_cosine[r, h] == _rows_cosine(full, full).mean()
                checked += 1
        assert checked or policy in (PolicyKind.STREAMING, PolicyKind.UNIFORM_TOPK)


class TestPlanMemory:
    def test_memory_tokens_equal_built_cache_rows(self):
        cfg = clustered_config(
            seed=24, policies=ALL_POLICIES, budget_ratios=(0.4, 0.7, 1.0)
        )
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        report, result = run_all(cfg, trace, return_result=True)
        assert len(report["policies"]) == 18
        for entry in report["policies"]:
            plans = result.plans[(entry["policy"], entry["budget_ratio"])]
            cache = built_entries(trace, plans)
            mem = footprint(sum(len(e.positions) for layer in cache for e in layer), trace)
            assert entry["memory"] == {
                "tokens_retained": mem.tokens_retained,
                "bytes": mem.bytes,
                "ratio_vs_full": mem.ratio_vs_full,
            }
            for r, layer in enumerate(entry["fidelity"]["per_head"]):
                rows = [len(e.positions) for e in cache[r]]
                assert [cell["retained_tokens"] for cell in layer] == rows

    @pytest.mark.parametrize("decode_queries", [8, 16])  # 16 is the window
    def test_run_all_holds_one_head_entry_at_a_time(self, decode_queries):
        shape = (2, 16, 256, 128)
        cfg = clustered_config(
            seed=25, shape=shape, policies=ALL_POLICIES, budget_ratios=(0.5, 0.7),
            beta=3 / 16, top_t=256, decode_queries=decode_queries,
        )
        # a small run first, so modules numpy imports on first use are not counted
        small = dataclasses.replace(cfg, shape=(2, 16, 64, 8), top_t=64)
        run_all(small, gen_synthetic_trace(small.profile, small.shape))
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        tracemalloc.start()
        try:
            kept = run_all(cfg, trace, return_result=True)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # above what the run keeps (plans and report), the peak is one
        # head's entry with its gather and sort temporaries, whatever the
        # decode rows: no layer's window numerators are held
        head_kv_bytes = 2 * shape[2] * shape[3] * 8
        allowance = 4 * head_kv_bytes
        assert peak - held <= allowance
        # and far below the rows any single cell other than full copies
        for (policy, _), plans in kept[1].plans.items():
            entries = [e for layer in built_entries(trace, plans) for e in layer]
            owned = sum(
                e.keys.nbytes + e.values.nbytes
                for e in entries
                if not np.shares_memory(e.keys, trace.data)
            )
            assert policy == "full" or allowance < owned / 2


    @pytest.mark.parametrize("ratio", [0.3, 0.9])
    def test_score_layer_peak_does_not_grow_with_the_budget(self, ratio):
        shape, decode_queries = (1, 4, 4096, 128), 32
        cfg = clustered_config(
            seed=45, shape=shape, planted=1, beta=2 / 4, top_m=2, window_len=32, top_t=256,
            policies=(PolicyKind.TASK_KV, PolicyKind.STREAMING, PolicyKind.UNIFORM_TOPK),
            budget_ratios=(ratio,), decode_queries=decode_queries,
        )
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        plans = [plan[0] for plan in compress_run(cfg, trace).plans.values()]
        score_layer(trace.data[0], plans, decode_queries)  # numpy's first-use imports
        tracemalloc.start()
        try:
            score_layer(trace.data[0], plans, decode_queries)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # above what it keeps, the peak is one head's numerators (formed in
        # place on its scores), one widened V block and the rows gathered
        # from it (with their numerators), each cell's retained positions
        # and its (decode_queries, d) outputs (the last head's too), and
        # four more such arrays (q, the full outputs and two products); a
        # cell's whole retained V (R d 8 bytes) would exceed it
        n, d = shape[2], shape[3]
        bound = (
            n * decode_queries * 8
            + 2 * _KEY_BLOCK * (d + decode_queries) * 8
            + len(plans) * 2 * n * 8
            + (2 * len(plans) + 4) * decode_queries * d * 8
        )
        assert peak - held <= bound


class TestFloat32Storage:
    """A float32 trace and the same values held in float64 run alike."""

    @staticmethod
    def widened(trace):
        return AttentionTrace(trace.header, trace.data.astype(np.float64))

    def test_report_bytes_equal_float64_copy(self):
        cfg = clustered_config(seed=30, policies=ALL_POLICIES, budget_ratios=(0.4, 0.7))
        single = gen_synthetic_trace(cfg.profile, cfg.shape)
        assert single.data.dtype == np.float32
        reports = []
        for trace in (single, self.widened(single)):
            buf = io.BytesIO()
            export_report(run_all(cfg, trace), "json", buf)
            reports.append(buf.getvalue())
        assert reports[0] == reports[1]

    @staticmethod
    def count_causal_scores(monkeypatch):
        """Count `causal_scores` calls, at every module that holds it."""
        import semkv.harness
        import semkv.linalg

        calls = []
        original = semkv.linalg.causal_scores

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (semkv.linalg, semkv.harness):
            monkeypatch.setattr(module, "causal_scores", counted)
        return calls

    @staticmethod
    def assert_report_fidelity_equals_standalone(cfg, trace, report, result):
        """The per-head fidelity `run_all` reports equals `fidelity_eval`'s bit for bit."""
        for entry in report["policies"]:
            plans = result.plans[(entry["policy"], entry["budget_ratio"])]
            fid = fidelity_eval(trace, plans, cfg.decode_queries)
            per_head = entry["fidelity"]["per_head"]
            assert [[c["l2_error"] for c in layer] for layer in per_head] == (
                fid.per_head_l2.tolist()
            )
            assert [[c["cosine_similarity"] for c in layer] for layer in per_head] == (
                fid.per_head_cosine.tolist()
            )

    @pytest.mark.parametrize("decode_queries", [16, 5, 1, 128])
    def test_fused_decode_outputs_equal_standalone(self, decode_queries, monkeypatch):
        cfg = clustered_config(seed=31, decode_queries=decode_queries)
        assert cfg.window_len == 16
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        calls = self.count_causal_scores(monkeypatch)
        report, result = run_all(cfg, trace, return_result=True)
        # one per head when the decode rows are the window's, whose scores
        # the head pass holds for fidelity scoring; else two, the window's
        # and the decode rows'
        per_head = 1 if decode_queries == cfg.window_len else 2
        assert len(calls) == per_head * trace.num_layers * trace.num_heads
        self.assert_report_fidelity_equals_standalone(cfg, trace, report, result)

    def test_compress_run_scores_each_head_once(self, monkeypatch):
        cfg = clustered_config(seed=31)
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        calls = self.count_causal_scores(monkeypatch)
        compress_run(cfg, trace)
        assert len(calls) == trace.num_layers * trace.num_heads

    def test_fused_outputs_match_float64_trace(self):
        for decode_queries in (16, 5):
            cfg = clustered_config(seed=32, decode_queries=decode_queries)
            wide = self.widened(gen_synthetic_trace(cfg.profile, cfg.shape))
            report, result = run_all(cfg, wide, return_result=True)
            self.assert_report_fidelity_equals_standalone(cfg, wide, report, result)

    @staticmethod
    def compress_run_peak(window_len):
        """`compress_run`'s peak above what it keeps, and the head pass's
        working set: the window's float64 scores, one widened key block,
        the top-t V rows (gathered in float32, then widened) and eight
        key-length float64 vectors (column means, their ranking, pooling)."""
        shape = (1, 4, 2048, 64)
        cfg = clustered_config(seed=33, planted=1, shape=shape, top_t=256, window_len=window_len)
        small = dataclasses.replace(cfg, shape=(1, 4, 64, 8))
        compress_run(small, gen_synthetic_trace(small.profile, small.shape))
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        tracemalloc.start()
        try:
            compress_run(cfg, trace)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n, d = shape[2], shape[3]
        working_set = (window_len * n + _KEY_BLOCK * d) * 8 + cfg.top_t * d * 12 + 8 * n * 8
        return peak - held, working_set

    def test_compress_run_widens_one_head_at_a_time(self):
        # a head's whole float64 K or V (N d 8 bytes) would exceed it
        peak, working_set = self.compress_run_peak(16)
        assert peak <= working_set

    def test_head_pass_widens_keys_values_and_window_rows_only(self):
        # and so would its widened query block
        peak, working_set = self.compress_run_peak(4)
        assert peak <= working_set

    def test_run_all_holds_one_head_entry_on_float64_values(self):
        shape = (2, 16, 256, 128)
        cfg = clustered_config(
            seed=25, shape=shape, policies=ALL_POLICIES, budget_ratios=(0.5, 0.7),
            beta=3 / 16, top_t=256,
        )
        small = dataclasses.replace(cfg, shape=(2, 16, 64, 8), top_t=64)
        run_all(small, gen_synthetic_trace(small.profile, small.shape))
        trace = self.widened(gen_synthetic_trace(cfg.profile, cfg.shape))
        tracemalloc.start()
        try:
            run_all(cfg, trace)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the same allowance as on the float32 trace: one head's entry
        assert peak - held <= 4 * (2 * shape[2] * shape[3] * 8)


def whole_window_scores(block, window_len):
    """The window scores of the head pass that widens the whole head:
    `widen_head`'s float64 K and V and one row-major masked softmax under
    the full (window, N) causal mask; these are the head pass's bits before
    `causal_scores`."""
    inputs = widen_head(block, window_len)
    return row_major_attention_weights(inputs, window_len).mean(axis=0)


def whole_head_pass(block, window_len, top_t):
    """`whole_window_scores` and the semantic vector from the top-t rows of
    the widened V."""
    column_means = whole_window_scores(block, window_len)
    selected = top_t_indices(column_means, top_t)
    return column_means, column_means[selected] @ widen_head(block).values[selected]


def head_pass(block, window_len, top_t):
    """The head pass of one head: its window scores and its top-t semantic
    vector."""
    scores = head_window_scores(block, window_len)
    return scores, approx_semantic_vector(scores, block[2], top_t)


# How far the head pass may move from `whole_head_pass`: its key-major
# scores scale Q before the product and sum each row's exponentials down a
# column. Measured maxima over the cases below: 5.9e-15 relative on window
# scores, 2.3e-15 of the largest semantic-vector entry.
HEAD_PASS_RTOL, HEAD_PASS_TOL = 1e-13, 1e-13


def assert_near_whole_head_pass(block, window_len, top_t, scores, vector):
    column_means, semantic = whole_head_pass(block, window_len, top_t)
    assert np.all(np.abs(scores - column_means) <= HEAD_PASS_RTOL * column_means)
    assert np.all(np.abs(vector - semantic) <= HEAD_PASS_TOL * np.abs(semantic).max())


class TestLeanHeadPass:
    """The head pass widens K one key block at a time and V only at its
    top-t rows, and masks only the window's causal tail: every layout of a
    head gives the bits of its float32 form, within HEAD_PASS_RTOL and
    HEAD_PASS_TOL of the whole-head pass."""

    LAYOUTS = {
        "float32": lambda block: block,
        "float64": lambda block: block.astype(np.float64),
        "fortran-float32": np.asfortranarray,
        "fortran-float64": lambda block: np.asfortranarray(block, dtype=np.float64),
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize(
        "seq_len, head_dim, window_len, top_t",
        [
            (2 * _KEY_BLOCK + 77, 16, 32, 64),  # N not a multiple of the key block
            (_KEY_BLOCK // 5, 16, 8, 16),  # N below one key block
            (_KEY_BLOCK + 3, 1, 16, 32),  # head_dim 1
            (96, 8, 96, 24),  # the window is every row
            (96, 8, 16, 96),  # top-t is N
            (96, 8, 16, 500),  # top-t past N
        ],
    )
    def test_equals_the_whole_head_pass(self, layout, seq_len, head_dim, window_len, top_t):
        rng = np.random.default_rng(seq_len * head_dim + window_len)
        raw = 3 * rng.standard_normal((3, seq_len, head_dim)).astype(np.float32)
        scores, vector = head_pass(self.LAYOUTS[layout](raw), window_len, top_t)
        narrow_scores, narrow_vector = head_pass(raw, window_len, top_t)
        assert scores.tobytes() == narrow_scores.tobytes()
        assert vector.tobytes() == narrow_vector.tobytes()
        assert_near_whole_head_pass(raw, window_len, top_t, scores, vector)

    def test_trace_heads_equal_the_whole_head_pass(self):
        # every head of a float32 trace, of its float64 copy and of a trace
        # built from a Fortran-order array
        cfg = clustered_config(seed=34, shape=(2, 4, _KEY_BLOCK + 40, 16))
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        blocks = trace.data.reshape(-1, *trace.data.shape[2:])
        for block in blocks:
            scores, vector = head_pass(block, 16, 64)
            for same in (block.astype(np.float64), np.asfortranarray(block)):
                again = head_pass(same, 16, 64)
                assert scores.tobytes() == again[0].tobytes()
                assert vector.tobytes() == again[1].tobytes()
            assert_near_whole_head_pass(block, 16, 64, scores, vector)


class TestEvalReport:
    def make_report(self, seed=11):
        cfg = clustered_config(seed=seed)
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        return run_all(cfg, trace), cfg, trace

    def test_full_policy_rows_are_exact(self):
        report, _, _ = self.make_report()
        full = [p for p in report["policies"] if p["policy"] == "full"][0]
        assert full["fidelity"]["mean_l2"] <= 1e-9
        assert full["fidelity"]["mean_cosine"] >= 1 - 1e-9
        assert full["memory"]["ratio_vs_full"] == 1.0

    def test_json_round_trip(self):
        report, _, _ = self.make_report(seed=12)
        buf, again = io.BytesIO(), io.BytesIO()
        export_report(report, "json", buf)
        export_report(json.loads(buf.getvalue()), "json", again)
        assert again.getvalue() == buf.getvalue()

    def test_csv_rows_cover_every_cell(self):
        report, cfg, trace = self.make_report(seed=13)
        buf = io.BytesIO()
        export_report(report, "csv", buf)
        lines = buf.getvalue().decode().splitlines()
        expected = len(cfg.policies) * len(cfg.budget_ratios) * trace.num_layers * trace.num_heads
        assert len(lines) == 1 + expected
        assert lines[0] == "policy,budget_ratio,layer,head,head_class,retained_tokens,l2_error,cosine_similarity"

    def test_empty_report_is_header_only(self):
        report = {"classifications": [], "policies": []}
        buf = io.BytesIO()
        export_report(report, "csv", buf)
        assert buf.getvalue().decode() == (
            "policy,budget_ratio,layer,head,head_class,retained_tokens,"
            "l2_error,cosine_similarity\n"
        )

    def test_pca_csv_shape(self):
        report, _, trace = self.make_report(seed=14)
        buf = io.BytesIO()
        export_pca_csv(report, buf)
        lines = buf.getvalue().decode().splitlines()
        assert len(lines) == 1 + trace.num_layers * trace.num_heads
        assert lines[0] == "layer,head,x,y,class"

    def test_unknown_format_rejected(self):
        report, _, _ = self.make_report(seed=15)
        with pytest.raises(ParameterError):
            export_report(report, "xml", io.BytesIO())

    def test_memory_counts_match_plan_accounting(self):
        report, cfg, trace = self.make_report(seed=16)
        for entry in report["policies"]:
            per_head = entry["fidelity"]["per_head"]
            total = sum(cell["retained_tokens"] for layer in per_head for cell in layer)
            assert total == entry["memory"]["tokens_retained"]


class TestReportFixture:
    FIXTURE_CONFIG = dict(
        profile=SyntheticProfile("uniform-random", seed=7),
        shape=(2, 8, 1024, 8),
        policies=(PolicyKind.TASK_KV, PolicyKind.STREAMING),
        budget_ratios=(0.7,),
    )

    def test_report_bytes_are_reproducible(self):
        cfg = RunConfig(**self.FIXTURE_CONFIG)
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        bufs = []
        for _ in range(2):
            buf = io.BytesIO()
            export_report(run_all(cfg, trace), "json", buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_report_hash_matches_frozen_fixture(self):
        cfg = RunConfig(**self.FIXTURE_CONFIG)
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        buf = io.BytesIO()
        export_report(run_all(cfg, trace), "json", buf)
        digest = hashlib.sha256(buf.getvalue()).hexdigest()
        assert digest == REPORT_FIXTURE_SHA256

    class OracleFull(_HeadNumerators):
        """Numerators whose full-cache outputs come from the `decode_output`
        oracle, one masked softmax per head."""

        def outputs(self, heads=()):
            outputs = super().outputs(heads)
            outputs[0] = decode_output(widen_head(self._block, len(self.rows)), len(self.rows))
            return outputs

    def patched_report(self, monkeypatch, **passes):
        """The fixture report of `two_pass_layer_step(**passes)`, and its SHA-256."""
        cfg = RunConfig(**self.FIXTURE_CONFIG)
        monkeypatch.setattr(harness, "layer_step", two_pass_layer_step(**passes))
        report = self.report_and_hash(cfg, gen_synthetic_trace(cfg.profile, cfg.shape))
        monkeypatch.undo()
        return report

    def oracle_reports(self, monkeypatch):
        """The fixture report scored by `oracle_score_layer` (the per-cell
        gather the block pass replaced), then by it with `OracleFull`
        numerators as well (the masked softmax `_HeadNumerators` replaced),
        each with its SHA-256. Both take their window scores from
        `whole_window_scores`, as the head pass did before `causal_scores`."""
        return [
            self.patched_report(
                monkeypatch,
                window_scores=whole_window_scores,
                score=functools.partial(oracle_score_layer, numerators=numerators),
            )
            for numerators in (PreChangeFull, self.OracleFull)
        ]

    def before_one_kernel(self, monkeypatch):
        """The fixture report with the window scores of `whole_window_scores`, the
        row-major softmax `causal_scores` replaced, scored by
        `pre_change_score_layer`, and its SHA-256."""
        return self.patched_report(
            monkeypatch, window_scores=whole_window_scores, score=pre_change_score_layer
        )

    def before_full_plan(self, monkeypatch):
        """The fixture report scored by `pre_change_score_layer`, before the
        full cache was a plan of the block pass, and its SHA-256."""
        return self.patched_report(monkeypatch, score=pre_change_score_layer)

    @staticmethod
    def report_and_hash(cfg, trace):
        report = run_all(cfg, trace)
        buf = io.BytesIO()
        export_report(report, "json", buf)
        return report, hashlib.sha256(buf.getvalue()).hexdigest()

    @staticmethod
    def moved_floats(old, new, bounds) -> list:
        """Every value of the two reports is equal but the floats under the
        keys of `bounds`, each of which moves by at most its key's
        rtol * |old| + atol; returns, for each of those floats, whether it
        moved."""
        moved = []

        def compare(a, b, key=None):
            assert type(a) is type(b), key
            if isinstance(a, dict):
                assert list(a) == list(b)
                for k in a:
                    compare(a[k], b[k], k)
            elif isinstance(a, list):
                assert len(a) == len(b)
                for x, y in zip(a, b):
                    compare(x, y, key)
            elif key in bounds and isinstance(a, float):
                rtol, atol = bounds[key]
                assert abs(a - b) <= rtol * abs(a) + atol, (key, a, b)
                moved.append(a != b)
            else:
                assert a == b, key

        compare(json.loads(json.dumps(old)), json.loads(json.dumps(new)))
        return moved

    def assert_only_fidelity_floats_moved(self, old, new, rtol, atol) -> int:
        """Every key of the two reports but `l2_error` and `mean_l2` (within
        `rtol` relative) and `cosine_similarity` and `mean_cosine` (within
        `atol`) is equal; returns how many of those four moved."""
        l2, cosine = (rtol, 0.0), (0.0, atol)
        bounds = {"l2_error": l2, "mean_l2": l2, "cosine_similarity": cosine, "mean_cosine": cosine}
        moved = self.moved_floats(old, new, bounds)
        assert len(moved) == 2 * (2 + 2 * 8 * 2)  # means and per-head cells of 2 cells
        return sum(moved)

    def test_oracle_paths_reproduce_the_earlier_fixtures(self, monkeypatch):
        # the two-pass step with today's window scores and scoring is the fixture
        assert self.patched_report(monkeypatch)[1] == REPORT_FIXTURE_SHA256
        (_, before_block_pass), (_, before_one_home) = self.oracle_reports(monkeypatch)
        assert before_block_pass == REPORT_BEFORE_BLOCK_PASS_SHA256
        assert before_one_home == REPORT_BEFORE_ONE_HOME_SHA256
        assert self.before_one_kernel(monkeypatch)[1] == REPORT_BEFORE_ONE_KERNEL_SHA256
        assert self.before_full_plan(monkeypatch)[1] == REPORT_BEFORE_FULL_PLAN_SHA256

    def test_one_home_moved_only_fidelity_floats(self, monkeypatch):
        """The parse-compare behind the re-freeze that gave the full-cache
        outputs one home: against the report whose full outputs came from
        one masked softmax per head, moving them into `_HeadNumerators`
        moved only the four fidelity floats, each within FIXTURE_RTOL (L2)
        or FIXTURE_ATOL (cosine)."""
        (after, _), (before, _) = self.oracle_reports(monkeypatch)
        assert self.assert_only_fidelity_floats_moved(before, after, FIXTURE_RTOL, FIXTURE_ATOL)

    def test_block_pass_moved_only_fidelity_floats(self, monkeypatch):
        """The parse-compare behind the block pass's re-freeze: against the
        report scored by the per-cell gather, the block pass moves only the
        four fidelity floats, each within BLOCK_FIXTURE_RTOL (L2) or
        FIXTURE_ATOL (cosine)."""
        (before, _), _ = self.oracle_reports(monkeypatch)
        after, _ = self.before_one_kernel(monkeypatch)
        moved = self.assert_only_fidelity_floats_moved(
            before, after, BLOCK_FIXTURE_RTOL, FIXTURE_ATOL
        )
        assert moved == 37

    def test_one_kernel_moved_only_distances_and_pca(self, monkeypatch):
        """The parse-compare behind the re-freeze before last: against the
        report whose window scores came from the row-major softmax, the head
        pass through `causal_scores` moves only `distances` (within
        KERNEL_FIXTURE_RTOL) and the pca `x` and `y` (within
        KERNEL_FIXTURE_ATOL); plans, classes and fidelity keep their bits."""
        before, _ = self.before_one_kernel(monkeypatch)
        after, _ = self.before_full_plan(monkeypatch)
        coordinate = (0.0, KERNEL_FIXTURE_ATOL)
        bounds = {"distances": (KERNEL_FIXTURE_RTOL, 0.0), "x": coordinate, "y": coordinate}
        moved = self.moved_floats(before, after, bounds)
        assert len(moved) == 2 * 8 * 3  # each head's distance and two coordinates
        assert any(moved)

    def test_full_plan_moved_only_fidelity_floats(self, monkeypatch):
        """The parse-compare behind the last re-freeze: against the report
        scored by `pre_change_score_layer`, scoring the full cache as a plan
        of the block pass moves only the four fidelity floats, each within
        BLOCK_FIXTURE_RTOL (L2) or FIXTURE_ATOL (cosine)."""
        before, _ = self.before_full_plan(monkeypatch)
        cfg = RunConfig(**self.FIXTURE_CONFIG)
        after = run_all(cfg, gen_synthetic_trace(cfg.profile, cfg.shape))
        moved = self.assert_only_fidelity_floats_moved(
            before, after, BLOCK_FIXTURE_RTOL, FIXTURE_ATOL
        )
        assert moved == 19


# The fidelity floats this pins score the full cache as one more plan of
# the block pass: its denominator is the sum of each key block's row sums,
# and a head that keeps every position adds the same products and sums.
# Against the report whose full outputs divided by one sum of every
# numerator, with keep-all heads scored apart
# (`REPORT_BEFORE_FULL_PLAN_SHA256`, reproduced through
# `pre_change_score_layer`), only `l2_error`, `cosine_similarity`,
# `mean_l2` and `mean_cosine` moved (19 of their 68 values): L2 by at most
# 3.5e-16 relative, cosine by at most 1.1e-16 absolute. On the benchmark's
# two traces (seeds 606 and 7) L2 moved by up to 1.4e-13 relative and
# cosine by 2.2e-16 absolute, within BLOCK_FIXTURE_RTOL and FIXTURE_ATOL.
#
# The `pca` block agrees with the power-iteration oracle to 3.0e-10 of the
# largest coordinate (tests/test_linalg.py::TestPCAOracle). Its window
# scores come from `causal_scores`, the key-major product that fidelity
# scoring shares. Against the report whose head pass took the
# row-major softmax (`REPORT_BEFORE_ONE_KERNEL_SHA256`, reproduced through
# `whole_window_scores`), only `distances` and the pca `x` and `y` moved:
# distances by at most 6.1e-16 relative, coordinates by 1.0e-16 absolute
# (of coordinates up to 0.076); every class, plan and fidelity float kept
# its bits. On the benchmark's two traces (seed 606) distances moved by up
# to 6.1e-15 relative, so KERNEL_FIXTURE_RTOL is 1e-13.
#
# Before that, the fidelity floats came from the block pass: one pass over
# each head's V key blocks gives the full-cache outputs and every cell's
# retained outputs. Against the report scored by the per-cell gather of
# every retained V row (`REPORT_BEFORE_BLOCK_PASS_SHA256`, reproduced
# through `oracle_score_layer`), only `l2_error`, `cosine_similarity`,
# `mean_l2` and `mean_cosine` moved (37 of their 68 values): L2 by at most
# 5.5e-16 relative, cosine by at most 2.2e-16 absolute. On the benchmark's
# two traces (seed 606) L2 moved by up to 5.3e-14 relative and cosine by
# 1.1e-16 absolute, so BLOCK_FIXTURE_RTOL is 1e-12. The report before that
# had moved from `REPORT_BEFORE_ONE_HOME_SHA256`, whose full outputs came
# from one masked softmax per head, by at most 7.0e-16 relative (L2) and
# 2.2e-16 absolute (cosine): FIXTURE_RTOL and FIXTURE_ATOL.
REPORT_FIXTURE_SHA256 = "7792533c10621c73af23c88009a04b324696aecc96d5a97ac38f4d6f481822dc"
REPORT_BEFORE_FULL_PLAN_SHA256 = "4005cac7e6bdbebce33248b451837041a7db5049a7bc722870894bbde94d03f0"
REPORT_BEFORE_ONE_KERNEL_SHA256 = "31306f77d6c0bbba1c30d8100938442ccf6fed02c876852aa69f13ffe9cbb937"
REPORT_BEFORE_BLOCK_PASS_SHA256 = "439b2eb471f7a74b048fafeebca7dbd34cb75308e140b20d0af644d14fc064c7"
REPORT_BEFORE_ONE_HOME_SHA256 = "b35e6fd206825a517f36a25bdc98d54b5623812277acb3dee47f65f8668a9eed"
FIXTURE_RTOL, FIXTURE_ATOL = 1e-14, 1e-15
BLOCK_FIXTURE_RTOL = 1e-12
KERNEL_FIXTURE_RTOL, KERNEL_FIXTURE_ATOL = 1e-13, 1e-15
