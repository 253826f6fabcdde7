"""Pipeline orchestration, fidelity metrics, and report export."""

import contextlib
import dataclasses
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

from semkv.allocator import HEAD_AWARE_SLOTS, BudgetPlan, PolicyKind, check_plans, expand_runs
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
    check_decode_queries,
    compress_run,
    export_pca_csv,
    export_report,
    fidelity_eval,
    open_source,
    run_all,
    score_plans,
)
from semkv.linalg import _KEY_BLOCK
from semkv.separator import HeadClass, approx_semantic_vector
from semkv.trace import (
    AttentionTrace,
    SyntheticProfile,
    TraceHeader,
    clustered_planted_heads,
    gen_synthetic_trace,
    read_trace,
)

import reference
from conftest import window_scores
from test_reference import assert_run_matches_reference, assert_scores_match, reference_fidelity

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
    def test_matches_the_reference(self, name):
        trace = self.TRACES[name]()
        cfg = clustered_config(policies=ALL_POLICIES, budget_ratios=(0.4, 0.7, 1.0))
        plans = list(compress_run(cfg, trace).plans.values())
        assert len(plans) == 18
        TestBlockPass.assert_matches_reference(trace, plans, 8)

    def test_rows_whose_retained_keys_underflow_are_rescored(self):
        trace = underflow_trace()
        for groups in (None, [[4, 20], [20, 56]]):
            plan = head_plan([[0, 4], [56, 64]], groups)
            fid = fidelity_eval(trace, [plan], 8)
            expected = reference_fidelity(trace.data[0, 0], 8, plan.head_plan(0))
            assert_scores_match(fid.per_head_l2, fid.per_head_cosine, [[expected]])
            assert np.isfinite(fid.per_head_l2).all() and np.isfinite(fid.per_head_cosine).all()
            # a blind row would score cosine 0 and L2 ||o||; these rows see
            # retained keys, whose values point the way the full output does
            assert fid.per_head_cosine[0, 0] > 0.9
            full_norm = np.linalg.norm(reference_outputs(trace.data[0, 0], 8), axis=1).mean()
            assert fid.per_head_l2[0, 0] < full_norm / 2

    def test_layer_count_mismatch_rejected(self):
        cfg = clustered_config(seed=23)
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        plans = compress_run(cfg, trace).plans[("task-kv", 0.6)]
        with pytest.raises(CacheConsistencyError):
            fidelity_eval(trace, plans[:1], 8)


def reference_outputs(block, decode_queries):
    """The reference's full-cache decode outputs of a (3, N, d) block, (decode_queries, d)."""
    q, k, v = block.astype(np.float64)
    rows = np.arange(len(k) - decode_queries, len(k))
    return reference.attention(q[rows], rows, k, np.arange(len(k))) @ v


# How far `_HeadNumerators`' full outputs may move from the reference's,
# per head, as a fraction of the head's largest |o|: it sums the softmax
# and its V product in blocks of keys under the same row max, and divides
# after the V product.
FULL_OUTPUT_TOL = 5e-14


class TestFullOutputs:
    """The full-cache decode outputs have one home, `_HeadNumerators`."""

    @pytest.mark.parametrize("decode_queries", [1, 5, 16, 128])  # 16 is the window, 128 N
    @pytest.mark.parametrize("name", sorted(TestFidelityFromPlans.TRACES))
    def test_full_outputs_match_the_reference(self, name, decode_queries):
        trace = TestFidelityFromPlans.TRACES[name]()
        for block in trace.data.reshape(-1, *trace.data.shape[2:]):
            expected = reference_outputs(block, decode_queries)
            full = full_outputs(block, decode_queries)
            assert np.all(np.abs(full - expected) <= FULL_OUTPUT_TOL * np.abs(expected).max())

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


# How far the block pass's retained outputs may move from the reference's,
# per head, as a fraction of the head's largest full |o|: 4.8e-14 at
# decode = N over the Fortran float64 trace's hand-made plans, at most
# 3e-15 elsewhere.
RETAINED_OUTPUT_TOL = 1e-13


class TestBlockPass:
    """One pass over each head's V key blocks gives the full outputs and
    every cell's retained outputs, whatever whole, partial and grouped key
    blocks the cells keep, within the reference's bounds."""

    @staticmethod
    def assert_matches_reference(trace, plans, decode_queries):
        """Every head of every plan: the block pass's retained outputs
        against the reference's within RETAINED_OUTPUT_TOL, and
        `score_plans` against the reference's scores; the full outputs are
        the same bits whatever plans are scored beside them. Returns how
        many (head, key block) pairs a cell keeps whole and in part."""
        for plan in plans:
            check_plans(trace, plan)  # hand-made plans too
        whole = partial = 0
        sizes = np.bincount(np.arange(trace.seq_len) // _KEY_BLOCK)  # each key block's length
        reports = score_plans(trace, plans, decode_queries)
        for r, layer in enumerate(trace.data):
            for h, block in enumerate(layer):
                heads = [plan[r].head_plan(h) for plan in plans]
                _, full, retained = head_outputs(block, decode_queries, heads)
                assert np.array_equal(full, full_outputs(block, decode_queries))
                for head, out, report in zip(heads, retained, reports):
                    groups = [(a, b) for a, b in head.groups.tolist()]
                    want_full, want = reference.outputs(
                        block.astype(np.float64), decode_queries, head.retained, groups
                    )
                    assert np.all(np.abs(out - want) <= RETAINED_OUTPUT_TOL * np.abs(want_full).max())
                    expected = reference_fidelity(block, decode_queries, head)
                    scored = report.per_head_l2[r, h], report.per_head_cosine[r, h]
                    assert_scores_match(*scored, expected)
                    counts = np.bincount(head.retained // _KEY_BLOCK, minlength=len(sizes))
                    whole += int(np.sum(counts == sizes))
                    partial += int(np.sum((counts > 0) & (counts < sizes)))
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
        whole, partial = self.assert_matches_reference(trace, plans, decode_queries)
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
            self.assert_matches_reference(trace, plans, decode_queries)

    def test_head_dim_one(self):
        cfg = clustered_config(
            profile=SyntheticProfile("uniform-random", seed=42), shape=(2, 4, _KEY_BLOCK + 40, 1),
            beta=2 / 4, top_m=2, policies=ALL_POLICIES, budget_ratios=(0.3, 0.95),
        )
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        self.assert_matches_reference(trace, list(compress_run(cfg, trace).plans.values()), 8)

    def test_blind_decode_rows(self):
        # decode rows 544..551 see nothing before position 549 (or group start 547)
        trace = fortran_float64_trace(43, (1, 2, _KEY_BLOCK + 40, 4))
        seq_len = trace.seq_len
        plans = [
            [head_plan([[seq_len - 3, seq_len]], heads=2)],
            [head_plan([[seq_len - 3, seq_len]], [[seq_len - 5, seq_len - 3]], heads=2)],
        ]
        self.assert_matches_reference(trace, plans, 8)
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
        self.assert_matches_reference(trace, plans, 8)


class TestOneVisit:
    """A run visits each head once: it plans the head under each class,
    scores each distinct keep, and `layer_step` picks the keeps and scores
    of the head's class once the layer is classified. Its classes, plans
    and scores are the reference's, and no layer-wide buffer is alive
    while a head's V is read."""

    @pytest.mark.parametrize("decode_queries", [16, 5, _KEY_BLOCK + 40])  # the window, N
    def test_every_policy_matches_the_reference(self, decode_queries):
        cfg = clustered_config(
            seed=47, shape=(2, 4, _KEY_BLOCK + 40, 8), planted=1, beta=2 / 4, top_m=2,
            policies=ALL_POLICIES, budget_ratios=(0.3, 0.6, 0.95), decode_queries=decode_queries,
        )
        assert_run_matches_reference(cfg, gen_synthetic_trace(cfg.profile, cfg.shape))

    def test_a_layer_of_heterogeneous_heads(self):
        # f(0) = n: every head of layer 0 keeps everything
        cfg = clustered_config(
            seed=49, shape=(3, 4, 128, 8), planted=1, beta=1.0, top_m=1,
            policies=ALL_POLICIES, budget_ratios=(1.0,),
        )
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        plans = compress_run(cfg, trace).plans[("task-kv", 1.0)]
        assert plans[0].head_classes == [HeadClass.HETEROGENEOUS] * 4
        assert_run_matches_reference(cfg, trace)

    def test_a_clamped_layer(self):
        # layer 0: k = (281 - 2 * 128) // 2 - 4 - 16 < 0
        cfg = clustered_config(
            seed=50, shape=(2, 4, 128, 8), planted=1, beta=0.5, top_m=1, recents=16,
            policies=ALL_POLICIES, budget_ratios=(0.55,),
        )
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        plans = compress_run(cfg, trace).plans[("task-kv", 0.55)]
        assert [plan.clamped for plan in plans] == [True, False]
        assert_run_matches_reference(cfg, trace)

    def test_rescued_rows_match_the_reference(self):
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
        assert_run_matches_reference(cfg, trace)

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

    def test_sinks_plus_recents_covering_the_sequence(self):
        # f(0) = 2 of 4 heads at B = N f: k = 0, and 6 + 6 slots cover N = 10
        cfg = clustered_config(
            seed=47, planted=1, shape=(1, 4, 10, 6), sinks=6, recents=6, budget_ratios=(0.5,),
            policies=(PolicyKind.TASK_KV, PolicyKind.NO_CACHE, PolicyKind.COMPRESSED_CACHE),
        )
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        _, result = run_all(cfg, trace, return_result=True)
        assert len(result.plans) == 3
        full = [full_outputs(block, 8) for block in trace.data[0]]
        for cell, (plan,) in result.plans.items():
            assert [runs.tolist() for runs in plan.per_head_runs] == [[[0, 10]]] * 4
            fid = result.fidelity(cell)
            assert fid.per_head_l2.tolist() == [[0.0] * 4]
            assert fid.per_head_cosine.tolist() == [[_rows_cosine(o, o).mean() for o in full]]


class TestPlanMemory:
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
        # and far below the float64 K and V rows that any single cell but
        # full's would copy, had it gathered its cache whole
        for (policy, _), plans in kept[1].plans.items():
            owned = sum(
                2 * plan.head_tokens(h) * shape[3] * 8
                for plan in plans
                for h, runs in enumerate(plan.per_head_runs)
                if runs.tolist() != [[0, shape[2]]]
            )
            assert policy == "full" or allowance < owned / 2


    @pytest.mark.parametrize("ratio", [0.3, 0.9])
    def test_scoring_peak_does_not_grow_with_the_budget(self, ratio):
        shape, decode_queries = (1, 4, 4096, 128), 32
        cfg = clustered_config(
            seed=45, shape=shape, planted=1, beta=2 / 4, top_m=2, window_len=32, top_t=256,
            policies=(PolicyKind.TASK_KV, PolicyKind.STREAMING, PolicyKind.UNIFORM_TOPK),
            budget_ratios=(ratio,), decode_queries=decode_queries,
        )
        trace = gen_synthetic_trace(cfg.profile, cfg.shape)
        plans = list(compress_run(cfg, trace).plans.values())
        score_plans(trace, plans, decode_queries)  # numpy's first-use imports
        tracemalloc.start()
        try:
            score_plans(trace, plans, decode_queries)
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


def head_pass(block, window_len, top_t):
    """The head pass of one head: its window scores and its top-t semantic
    vector."""
    scores = window_scores(block[0], block[1], window_len)
    return scores, approx_semantic_vector(scores, block[2], top_t)


# How far the head pass may move from the reference's row-major softmax:
# its key-major scores scale Q before the product and sum each row's
# exponentials down a column.
HEAD_PASS_RTOL, HEAD_PASS_TOL = 1e-13, 1e-13


def assert_near_the_reference(block, window_len, top_t, scores, vector):
    q, k, v = block.astype(np.float64)
    column_means = reference.window_scores(q, k, window_len)
    semantic = reference.semantic_vector(column_means, v, top_t)
    assert np.all(np.abs(scores - column_means) <= HEAD_PASS_RTOL * column_means)
    assert np.all(np.abs(vector - semantic) <= HEAD_PASS_TOL * np.abs(semantic).max())


class TestLeanHeadPass:
    """The head pass widens K one key block at a time and V only at its
    top-t rows, and masks only the window's causal tail: every layout of a
    head gives the bits of its float32 form, within HEAD_PASS_RTOL and
    HEAD_PASS_TOL of the reference."""

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
    def test_layouts_give_the_same_bits(self, layout, seq_len, head_dim, window_len, top_t):
        rng = np.random.default_rng(seq_len * head_dim + window_len)
        raw = 3 * rng.standard_normal((3, seq_len, head_dim)).astype(np.float32)
        scores, vector = head_pass(self.LAYOUTS[layout](raw), window_len, top_t)
        narrow_scores, narrow_vector = head_pass(raw, window_len, top_t)
        assert scores.tobytes() == narrow_scores.tobytes()
        assert vector.tobytes() == narrow_vector.tobytes()
        assert_near_the_reference(raw, window_len, top_t, scores, vector)

    def test_trace_heads_give_the_same_bits(self):
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
            assert_near_the_reference(block, 16, 64, scores, vector)


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


# The SHA-256 of the fixture config's `report.json`. It pins the bits of
# every float; `test_reference.py` pins what they mean.
REPORT_FIXTURE_SHA256 = "7792533c10621c73af23c88009a04b324696aecc96d5a97ac38f4d6f481822dc"
