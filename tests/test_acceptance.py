"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion lines.
"""

import io
import os
import time

import numpy as np
import pytest

import reference
from conftest import layer_plan, window_scores
from semkv.allocator import PolicyKind, middle_activation_count, pool_scores
from semkv.cli import main as cli_main
from semkv.errors import InfeasibleBudgetError
from semkv.harness import RunConfig, compress_run, fidelity_eval
from semkv.separator import (
    HeadClass,
    classify_heads,
    head_distances,
    heterogeneous_schedule,
)
from semkv.trace import (
    SyntheticProfile,
    clustered_planted_heads,
    gen_synthetic_trace,
    read_trace,
    write_trace,
)


def announce(num, text):
    print(f"ACCEPTANCE {num:02d} PASS — {text}")


def test_criterion_01_approximation_oracle():
    """Windowed top-t with L=N, t=N reproduces the exact semantic vector."""
    start = time.monotonic()
    shapes = [(n, d) for n in (8, 64, 512) for d in (4, 32)]
    worst = 0.0
    for i in range(50):
        seq_len, dim = shapes[i % len(shapes)]
        config = RunConfig(
            profile=SyntheticProfile("uniform-random", seed=1000 + i),
            shape=(1, 2, seq_len, dim),
            policies=(PolicyKind.FULL,),
            budget_ratios=(1.0,),
            top_m=1,
            top_t=seq_len,
            window_len=seq_len,
        )
        trace = gen_synthetic_trace(config.profile, config.shape)
        vectors = compress_run(config, trace).vectors[0]
        for approx, block in zip(vectors, trace.data[0].astype(np.float64)):
            exact = reference.exact_semantic_vector(*block)
            rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
            worst = max(worst, rel)
            assert rel <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    announce(1, f"50 traces, worst relative error {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_contribution_bound():
    """1000 random MHA instances: bound never violated, closed == long form."""
    from semkv.contribution import verify_bound_suite

    start = time.monotonic()
    report = verify_bound_suite(seed=1234, trials=1000, n=8, d=16, out_dim=32)
    elapsed = time.monotonic() - start
    assert report.violations == 0
    assert report.max_form_gap <= 1e-9
    assert elapsed < 30.0
    announce(
        2,
        f"0/{8 * 1000} violations, worst form gap {report.max_form_gap:.3e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_03_schedule_endpoints():
    """Layer-count schedule hits its exact endpoints for both reference setups."""
    llama = heterogeneous_schedule(32, 0.25, 4, 32)
    assert llama.per_layer_counts[0] == 8
    assert llama.per_layer_counts[31] == 4
    mistral = heterogeneous_schedule(32, 0.3, 1, 32)
    assert mistral.per_layer_counts[31] == 1
    announce(3, "f(0)=8, f(31)=4 at beta=0.25/m=4; f(31)=1 at beta=0.3/m=1")


def test_criterion_04_budget_arithmetic():
    """Middle-activation count: exact value, infeasible raise, clamp flag."""
    res = middle_activation_count(52428, 4096, 8, 32, 16, 256)
    assert res.k == 547 and not res.clamped
    with pytest.raises(InfeasibleBudgetError):
        middle_activation_count(4096 * 8 - 1, 4096, 8, 32, 16, 256)
    clamped = middle_activation_count(4096 * 8, 4096, 8, 32, 16, 256)
    assert clamped.k == 0 and clamped.clamped
    announce(4, "k=547 at the 40% reference point; infeasible raises; clamp flagged")


def test_criterion_05_budget_soundness():
    """>=200 random configurations: retained <= B; task-kv slack < n - f_r + 1."""
    policies = [
        PolicyKind.TASK_KV,
        PolicyKind.STREAMING,
        PolicyKind.UNIFORM_TOPK,
        PolicyKind.NO_CACHE,
        PolicyKind.COMPRESSED_CACHE,
    ]
    checked = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([4, 8]))
        seq = int(rng.integers(48, 128))
        ratio = float(rng.choice([0.2, 0.4, 0.6, 0.8]))
        budget = int(np.floor(ratio * seq * n))
        f_r = min(int(rng.integers(0, budget // seq + 1)), n - 1)
        share = (budget - seq * f_r) // (n - f_r)
        if share < 3:
            f_r, share = 0, budget // n
        sinks = int(rng.integers(1, max(share // 2, 2)))
        recents = int(rng.integers(1, max(share - sinks, 2)))
        trace = gen_synthetic_trace(
            SyntheticProfile("uniform-random", seed=seed), (1, n, seq, 4)
        )
        classes = [
            HeadClass.HETEROGENEOUS if h < f_r else HeadClass.NON_HETEROGENEOUS
            for h in range(n)
        ]
        window = min(8, seq)
        pooled = [pool_scores(window_scores(q, k, window), 3) for q, k, _ in trace.data[0]]
        for policy in policies:
            plan = layer_plan(0, classes, policy, ratio, sinks, recents, window, pooled)
            assert plan.retained_tokens() <= budget
            if policy == PolicyKind.TASK_KV:
                assert not plan.clamped
                slack = budget - plan.retained_tokens()
                assert slack < n - f_r + 1
            checked += 1
    assert checked >= 200
    announce(5, f"{checked} random configurations sound; task-kv slack within floor bound")


def test_criterion_06_classifier_oracle():
    """Zero-noise clusters: planted heads plus the closest, exactly, 20/20 seeds."""
    for planted in (1, 2, 4):
        for seed in range(20):
            profile = SyntheticProfile(
                "clustered-heads", seed=3000 + seed, planted=planted
            )
            data = gen_synthetic_trace(profile, (2, 8, 64, 8)).data.astype(np.float64)
            expected = clustered_planted_heads(profile, 2, 8)
            for r in range(2):
                vecs = [reference.exact_semantic_vector(*block) for block in data[r]]
                _, dist = head_distances(vecs)
                classes = classify_heads(dist, planted + 1)
                het = {h for h, c in enumerate(classes) if c == HeadClass.HETEROGENEOUS}
                assert het == set(expected[r]) | {int(np.argmin(dist))}
    announce(6, "planted ∪ {closest} recovered for p in {1,2,4}, 20/20 seeds each")


def _clustered_run(seed, planted, budget_ratios, n=16, seq=512, dim=16):
    config = RunConfig(
        profile=SyntheticProfile("clustered-heads", seed=seed, planted=planted),
        shape=(1, n, seq, dim),
        policies=(PolicyKind.TASK_KV, PolicyKind.STREAMING),
        budget_ratios=budget_ratios,
        beta=(planted + 1) / n,
        top_m=planted + 1,
        top_t=256,
        window_len=32,
        kernel=7,
        sinks=4,
        recents=16,
        decode_queries=32,
    )
    trace = gen_synthetic_trace(config.profile, config.shape)
    return config, trace, compress_run(config, trace)


def test_criterion_07_heterogeneous_exactness():
    """Heterogeneous heads under task-kv reproduce decode outputs exactly."""
    config, trace, result = _clustered_run(seed=4000, planted=2, budget_ratios=(0.4,))
    key = ("task-kv", 0.4)
    fid = fidelity_eval(trace, result.plans[key], 32)
    het_errors = []
    for r, classes in enumerate(result.classes):
        for h, head_class in enumerate(classes):
            if head_class == HeadClass.HETEROGENEOUS:
                err = fid.per_head_l2[r, h]
                assert err <= 1e-9
                het_errors.append(err)
    assert het_errors
    announce(7, f"{len(het_errors)} heterogeneous heads, max decode error "
                f"{max(het_errors):.1e}")


def test_criterion_08_monotone_fidelity():
    """Task-kv decode error never rises with budget; zero at full budget."""
    budgets = (0.2, 0.4, 0.6, 0.8, 1.0)
    config, trace, result = _clustered_run(seed=4100, planted=1, budget_ratios=budgets)
    errors = []
    for ratio in budgets:
        key = ("task-kv", ratio)
        fid = fidelity_eval(trace, result.plans[key], 32)
        errors.append(fid.mean_l2)
    for a, b in zip(errors, errors[1:]):
        assert b <= a + 1e-12
    assert errors[-1] == 0.0
    announce(8, "mean L2 over budgets 0.2..1.0: "
                + " >= ".join(f"{e:.4f}" for e in errors))


def test_criterion_09_comparative_dominance():
    """Task-kv beats streaming at 40% on the planted-cluster construction, 10/10."""
    wins = []
    for seed in range(10):
        config, trace, result = _clustered_run(
            seed=4200 + seed, planted=2, budget_ratios=(0.4,)
        )
        task = fidelity_eval(trace, result.plans[("task-kv", 0.4)], 32).mean_l2
        stream = fidelity_eval(trace, result.plans[("streaming", 0.4)], 32).mean_l2
        assert task < stream
        wins.append((task, stream))
    announce(9, "task-kv < streaming mean decode error, 10/10 seeds "
                f"(e.g. {wins[0][0]:.4f} < {wins[0][1]:.4f})")


def test_criterion_10_selective_beats_compressed():
    """Top-k middle tokens dominate group-mean compensation at equal cache size."""
    for seed in range(10):
        config = RunConfig(
            profile=SyntheticProfile(
                "planted-needle", seed=4300 + seed, needle_position=137, tail_len=32
            ),
            shape=(1, 8, 512, 16),
            policies=(PolicyKind.TASK_KV, PolicyKind.COMPRESSED_CACHE),
            budget_ratios=(0.4,),
            beta=2 / 8,
            top_m=2,
            top_t=256,
            window_len=32,
            kernel=7,
            sinks=4,
            recents=16,
            decode_queries=32,
        )
        trace = gen_synthetic_trace(config.profile, config.shape)
        result = compress_run(config, trace)
        tokens = []
        for cell in (("task-kv", 0.4), ("compressed-cache", 0.4)):
            (plan,) = result.plans[cell]
            rows = plan.retained_tokens()
            assert rows == result.memory(cell).tokens_retained
            tokens.append(rows)
        assert tokens[0] == tokens[1]  # budget-matched comparison
        sel = fidelity_eval(trace, result.plans[("task-kv", 0.4)], 32).mean_l2
        comp = fidelity_eval(trace, result.plans[("compressed-cache", 0.4)], 32).mean_l2
        assert sel <= comp
    announce(10, "selective middle activations <= compressed group means, 10/10 seeds")


def test_criterion_11_trace_round_trip():
    """write -> read is bit-identical across 20 traces including edge shapes."""
    shapes = [(1, 1, 1, 1), (1, 2, 1, 3), (2, 1, 4, 1), (1, 1, 7, 2)]
    rng = np.random.default_rng(11)
    while len(shapes) < 20:
        shapes.append(tuple(int(rng.integers(1, 6)) for _ in range(4)))
    for i, shape in enumerate(shapes):
        trace = gen_synthetic_trace(
            SyntheticProfile("uniform-random", seed=5000 + i), shape
        )
        buf = io.BytesIO()
        write_trace(trace, buf)
        again = read_trace(buf.getvalue())
        assert again == trace
        second = io.BytesIO()
        write_trace(again, second)
        assert second.getvalue() == buf.getvalue()
    announce(11, f"{len(shapes)} traces round-tripped bit-identically")


def test_criterion_12_end_to_end_determinism(tmp_path, capsys):
    """Two identical `all` runs produce byte-identical artifacts."""
    argv_base = [
        "all",
        "--profile", "clustered-heads",
        "--shape", "1,8,96,8",
        "--planted", "2",
        "--seed", "12",
        "--policy", "task-kv,streaming",
        "--budget", "0.5",
        "--beta", "0.375",
        "--m-top", "3",
        "--top-t", "96",
        "--window", "16",
        "--kernel", "3",
        "--sinks", "4",
        "--recents", "8",
        "--decode-queries", "8",
    ]
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main(argv_base + ["--out", str(out)]) == 0
        outs.append(out)
    capsys.readouterr()
    files = sorted(os.listdir(outs[0]))
    assert files == sorted(os.listdir(outs[1]))
    assert "report.json" in files and "trace.tkv" in files
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    announce(12, f"{len(files)} artifacts byte-identical across two runs")
