"""Pipeline orchestration, fidelity metrics, and report export."""

import hashlib
import io
import json

import numpy as np
import pytest

from semkv.allocator import PolicyKind, build_compressed_cache, memory_footprint
from semkv.errors import ParameterError
from semkv.harness import (
    EvalReport,
    RunConfig,
    build_eval_report,
    compress_run,
    export_pca_csv,
    export_report,
    fidelity_eval,
    load_trace_for,
    run_all,
)
from semkv.separator import HeadClass
from semkv.trace import SyntheticProfile, clustered_planted_heads, gen_synthetic_trace


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
        trace = load_trace_for(cfg)
        result = compress_run(cfg, trace)
        for plan in result.plans[("full", 1.0)]:
            for idx in plan.per_head_retained:
                np.testing.assert_array_equal(idx, np.arange(trace.seq_len))

    def test_deterministic_plans(self):
        cfg = clustered_config(seed=3)
        trace = load_trace_for(cfg)
        a = compress_run(cfg, trace)
        b = compress_run(cfg, trace)
        for key in a.plans:
            ser_a = [json.dumps(p.to_json_dict()) for p in a.plans[key]]
            ser_b = [json.dumps(p.to_json_dict()) for p in b.plans[key]]
            assert ser_a == ser_b

    def test_classification_matches_planted_heads(self):
        cfg = clustered_config(seed=4)
        trace = load_trace_for(cfg)
        result = compress_run(cfg, trace)
        planted = clustered_planted_heads(cfg.profile, 2, 8)
        for r, layer in enumerate(result.profiles):
            het = {p.head for p in layer if p.head_class == HeadClass.HETEROGENEOUS}
            distances = [p.distance_to_center for p in layer]
            closest = int(np.argmin(distances))
            assert het == set(planted[r]) | {closest}

    def test_schedule_follows_layer_counts(self):
        cfg = clustered_config(seed=5, shape=(3, 8, 96, 8), beta=0.5, top_m=2)
        trace = load_trace_for(cfg)
        result = compress_run(cfg, trace)
        for r, layer in enumerate(result.profiles):
            het = sum(p.head_class == HeadClass.HETEROGENEOUS for p in layer)
            assert het == result.schedule.per_layer_counts[r]


class TestFidelityEval:
    def test_full_cache_is_exact(self):
        cfg = clustered_config(seed=6, policies=(PolicyKind.FULL,), budget_ratios=(1.0,))
        trace = load_trace_for(cfg)
        result = compress_run(cfg, trace)
        fid = fidelity_eval(trace, result.caches[("full", 1.0)],
                            result.plans[("full", 1.0)], 8)
        assert fid.mean_l2 == 0.0
        assert fid.mean_cosine == 1.0

    def test_heterogeneous_heads_exact_under_task_kv(self):
        cfg = clustered_config(seed=7, policies=(PolicyKind.TASK_KV,), budget_ratios=(0.6,))
        trace = load_trace_for(cfg)
        result = compress_run(cfg, trace)
        fid = fidelity_eval(trace, result.caches[("task-kv", 0.6)],
                            result.plans[("task-kv", 0.6)], 8)
        for r, layer in enumerate(result.profiles):
            for p in layer:
                if p.head_class == HeadClass.HETEROGENEOUS:
                    assert fid.per_head_l2[r, p.head] == 0.0
                    assert fid.per_head_cosine[r, p.head] == 1.0

    def test_error_shrinks_with_budget(self):
        cfg = clustered_config(
            seed=8, shape=(1, 16, 256, 8), planted=1,
            policies=(PolicyKind.TASK_KV,), budget_ratios=(0.2, 0.4, 0.6, 0.8),
            beta=2 / 16, top_m=2,
        )
        trace = load_trace_for(cfg)
        result = compress_run(cfg, trace)
        errors = []
        for ratio in cfg.budget_ratios:
            fid = fidelity_eval(trace, result.caches[("task-kv", ratio)],
                                result.plans[("task-kv", ratio)], 8)
            errors.append(fid.mean_l2)
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_decode_queries_validated(self):
        cfg = clustered_config(seed=9, shape=(1, 8, 64, 8))
        trace = load_trace_for(cfg)
        result = compress_run(cfg, trace)
        key = ("task-kv", 0.6)
        with pytest.raises(ParameterError):
            fidelity_eval(trace, result.caches[key], result.plans[key], 65)

    def test_compressed_cache_attends_synthetic_rows(self):
        cfg = clustered_config(
            seed=10, policies=(PolicyKind.COMPRESSED_CACHE,), budget_ratios=(0.6,)
        )
        trace = load_trace_for(cfg)
        result = compress_run(cfg, trace)
        fid = fidelity_eval(trace, result.caches[("compressed-cache", 0.6)],
                            result.plans[("compressed-cache", 0.6)], 8)
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
            trace = load_trace_for(cfg)
            result = compress_run(cfg, trace)
            for other, dq in before:
                fidelity_eval(trace, result.caches[other], result.plans[other], dq)
            return fidelity_eval(trace, result.caches[key], result.plans[key], 8)

        first = evaluate([])
        for before in ([(k, 8) for k in others], [(key, 5)], [(others[0], 12)]):
            again = evaluate(before)
            assert np.array_equal(again.per_head_l2, first.per_head_l2)
            assert np.array_equal(again.per_head_cosine, first.per_head_cosine)


class TestEvalReport:
    def make_report(self, seed=11):
        cfg = clustered_config(seed=seed)
        trace = load_trace_for(cfg)
        return run_all(cfg, trace), cfg, trace

    def test_full_policy_rows_are_exact(self):
        report, _, _ = self.make_report()
        full = [p for p in report.policies if p["policy"] == "full"][0]
        assert full["fidelity"]["mean_l2"] <= 1e-9
        assert full["fidelity"]["mean_cosine"] >= 1 - 1e-9
        assert full["memory"]["ratio_vs_full"] == 1.0

    def test_json_round_trip(self):
        report, _, _ = self.make_report(seed=12)
        buf = io.BytesIO()
        export_report(report, "json", buf)
        parsed = json.loads(buf.getvalue())
        assert parsed == report.to_json_dict()

    def test_csv_rows_cover_every_cell(self):
        report, cfg, trace = self.make_report(seed=13)
        buf = io.BytesIO()
        export_report(report, "csv", buf)
        lines = buf.getvalue().decode().splitlines()
        expected = len(cfg.policies) * len(cfg.budget_ratios) * trace.num_layers * trace.num_heads
        assert len(lines) == 1 + expected
        assert lines[0] == "policy,budget_ratio,layer,head,head_class,retained_tokens,l2_error,cosine_similarity"

    def test_empty_report_is_header_only(self):
        report = EvalReport(
            config={}, trace_info={}, schedule={}, classifications=[],
            distances=[], pca=[], policies=[],
        )
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
        for entry in report.policies:
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
        trace = load_trace_for(cfg)
        bufs = []
        for _ in range(2):
            buf = io.BytesIO()
            export_report(run_all(cfg, trace), "json", buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_report_hash_matches_frozen_fixture(self):
        cfg = RunConfig(**self.FIXTURE_CONFIG)
        trace = load_trace_for(cfg)
        buf = io.BytesIO()
        export_report(run_all(cfg, trace), "json", buf)
        digest = hashlib.sha256(buf.getvalue()).hexdigest()
        assert digest == REPORT_FIXTURE_SHA256


REPORT_FIXTURE_SHA256 = "6817d96b85b3fe885559d6facf46725205717665d2426e4c97b247a5c9778b9b"
