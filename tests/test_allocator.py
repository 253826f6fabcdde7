"""Budget arithmetic, token selection, policy plans, cache assembly, accounting."""

import collections
import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semkv.allocator import (
    HEAD_AWARE_SLOTS,
    POLICIES,
    BudgetPlan,
    PolicyKind,
    apply_policy,
    check_plans,
    expand_runs,
    footprint,
    group_means,
    layer_facts,
    middle_activation_count,
    pool_scores,
    runs_of,
    select_retained_runs,
)
from semkv.errors import (
    AllHeadsHeterogeneousError,
    CacheConsistencyError,
    InfeasibleBudgetError,
    ParameterError,
    PlanFormatError,
    SemkvError,
)
from semkv import harness
from semkv.harness import RunConfig, RunResult, run_steps, start_run
from semkv.separator import HeadClass, heterogeneous_schedule, window_column_scores
from semkv.trace import (
    AttentionTrace,
    SyntheticProfile,
    TraceHeader,
    clustered_planted_heads,
    gen_synthetic_trace,
)

# the cache oracle: a plan's rows, gathered per head as fidelity scoring sees them
from test_harness import built_entries


def classes_with_het(n, het):
    return [
        HeadClass.HETEROGENEOUS if h in het else HeadClass.NON_HETEROGENEOUS
        for h in range(n)
    ]


def retained(plan):
    """Each head's retained positions: its runs expanded."""
    return [expand_runs(runs) for runs in plan.per_head_runs]


class TestMiddleActivationCount:
    def test_reference_budget_arithmetic(self):
        # floor(0.4 * 4096 * 32) = 52428; floor(19660 / 24) - 272 = 547
        res = middle_activation_count(52428, 4096, 8, 32, 16, 256)
        assert res.k == 547
        assert not res.clamped

    def test_exact_heterogeneous_budget_clamps(self):
        res = middle_activation_count(4096 * 8, 4096, 8, 32, 16, 256)
        assert res.k == 0
        assert res.clamped

    def test_infeasible_budget_raises(self):
        with pytest.raises(InfeasibleBudgetError):
            middle_activation_count(4096 * 8 - 1, 4096, 8, 32, 16, 256)

    def test_all_heads_heterogeneous_raises(self):
        with pytest.raises(AllHeadsHeterogeneousError):
            middle_activation_count(1000, 10, 4, 4, 1, 1)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ParameterError):
            middle_activation_count(100, 10, 1, 4, -1, 0)


class TestPoolScores:
    def test_constant_vector_unchanged(self):
        c = np.full(9, 0.25)
        np.testing.assert_allclose(pool_scores(c, 3), c, rtol=1e-12)

    def test_kernel_one_is_identity(self):
        c = np.array([0.1, 0.9, 0.3])
        np.testing.assert_array_equal(pool_scores(c, 1), c)

    def test_impulse_with_edge_truncation(self):
        c = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(
            pool_scores(c, 3), [0.0, 1 / 3, 1 / 3, 1 / 3, 0.0], rtol=1e-12
        )

    def test_edge_divisor_is_window_overlap(self):
        c = np.array([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(pool_scores(c, 5), np.ones(4), rtol=1e-12)

    def test_even_kernel_rejected(self):
        with pytest.raises(ParameterError):
            pool_scores(np.ones(4), 2)


class TestSelectRetainedIndices:
    def test_sinks_recents_and_peaks(self):
        pooled = np.zeros(10)
        pooled[4], pooled[6] = 0.9, 0.8
        runs = select_retained_runs(HeadClass.NON_HETEROGENEOUS, pooled, 10, 2, 3, 2)
        np.testing.assert_array_equal(expand_runs(runs), [0, 1, 4, 6, 7, 8, 9])
        np.testing.assert_array_equal(runs, [[0, 2], [4, 5], [6, 10]])

    def test_heterogeneous_keeps_everything(self):
        runs = select_retained_runs(HeadClass.HETEROGENEOUS, np.zeros(7), 7, 1, 1, 1)
        np.testing.assert_array_equal(expand_runs(runs), np.arange(7))
        np.testing.assert_array_equal(runs, [[0, 7]])

    def test_overlapping_sinks_recents_collapse_to_all(self):
        runs = select_retained_runs(HeadClass.NON_HETEROGENEOUS, np.zeros(5), 5, 4, 4, 2)
        np.testing.assert_array_equal(expand_runs(runs), np.arange(5))
        np.testing.assert_array_equal(runs, [[0, 5]])

    def test_middle_ties_break_low(self):
        pooled = np.zeros(8)
        pooled[2:6] = 0.5
        runs = select_retained_runs(HeadClass.NON_HETEROGENEOUS, pooled, 8, 1, 1, 2)
        np.testing.assert_array_equal(expand_runs(runs), [0, 2, 3, 7])
        np.testing.assert_array_equal(runs, [[0, 1], [2, 4], [7, 8]])


def small_trace(seed=0, shape=(1, 4, 48, 6), kind="uniform-random", **kw):
    return gen_synthetic_trace(SyntheticProfile(kind, seed=seed, **kw), shape)


def layer_pooled(trace, layer, window, kernel):
    """The layer's per-head pooled window scores, as `compress_run` computes them."""
    return [
        pool_scores(window_column_scores(h, window), kernel)
        for h in (trace.head_inputs(layer, i) for i in range(trace.num_heads))
    ]


def plan_for(trace, classes, policy, ratio, sinks=2, recents=4, window=8, kernel=3, layer=0):
    return apply_policy(
        layer, classes, policy, ratio, sinks, recents, window,
        layer_pooled(trace, layer, window, kernel),
    )


class TestApplyPolicy:
    def test_full_keeps_everything(self):
        trace = small_trace()
        plan = plan_for(trace, classes_with_het(4, set()), PolicyKind.FULL, 1.0)
        for idx in retained(plan):
            np.testing.assert_array_equal(idx, np.arange(48))

    def test_streaming_reference_sizes(self):
        # b = B/n = 272 per head: 16 sinks + 256 recents
        trace = small_trace(shape=(1, 1, 1024, 4))
        plan = plan_for(
            trace, classes_with_het(1, set()), PolicyKind.STREAMING,
            272 / 1024, sinks=16, recents=256,
        )
        idx = retained(plan)[0]
        np.testing.assert_array_equal(
            idx, np.concatenate([np.arange(16), np.arange(1024 - 256, 1024)])
        )

    def test_task_kv_on_clean_clusters_matches_budget_formula(self):
        shape = (1, 8, 128, 8)
        profile = SyntheticProfile("clustered-heads", seed=21, planted=2)
        trace = gen_synthetic_trace(profile, shape)
        planted = clustered_planted_heads(profile, 1, 8)[0]
        classes = classes_with_het(8, set(planted) | {0 if 0 not in planted else 1})
        f_r = sum(c == HeadClass.HETEROGENEOUS for c in classes)
        plan = plan_for(trace, classes, PolicyKind.TASK_KV, 0.6, sinks=4, recents=8)
        budget = int(np.floor(0.6 * 128 * 8))
        expected_k = (budget - 128 * f_r) // (8 - f_r) - 4 - 8
        assert plan.middle_k == expected_k and not plan.clamped
        for h in range(8):
            if classes[h] == HeadClass.HETEROGENEOUS:
                assert len(retained(plan)[h]) == 128
            else:
                assert len(retained(plan)[h]) == 4 + 8 + expected_k

    def test_task_kv_retains_sinks_and_recents(self):
        trace = small_trace(seed=5)
        plan = plan_for(trace, classes_with_het(4, {1}), PolicyKind.TASK_KV, 0.5)
        for h in (0, 2, 3):
            idx = set(retained(plan)[h].tolist())
            assert set(range(2)) <= idx
            assert set(range(44, 48)) <= idx

    def test_no_cache_extends_recents(self):
        trace = small_trace(seed=6)
        plan = plan_for(trace, classes_with_het(4, {0}), PolicyKind.NO_CACHE, 0.5)
        k = plan.middle_k
        for h in (1, 2, 3):
            idx = retained(plan)[h]
            np.testing.assert_array_equal(
                idx, np.concatenate([np.arange(2), np.arange(48 - 4 - k, 48)])
            )

    def test_compressed_cache_groups_cover_middle(self):
        trace = small_trace(seed=7)
        plan = plan_for(trace, classes_with_het(4, {3}), PolicyKind.COMPRESSED_CACHE, 0.5)
        k = plan.middle_k
        for h in (0, 1, 2):
            groups = plan.per_head_groups[h]
            assert len(groups) == k
            assert groups[0][0] == 2 and groups[-1][1] == 44
            for (a1, b1), (a2, b2) in zip(groups, groups[1:]):
                assert b1 == a2 and a1 < b1
        assert plan.per_head_groups[3].shape == (0, 2)

    def test_uniform_topk_keeps_observation_window(self):
        trace = small_trace(seed=8)
        plan = plan_for(trace, classes_with_het(4, set()), PolicyKind.UNIFORM_TOPK, 0.5)
        per_head = int(0.5 * 48)
        for idx in retained(plan):
            assert len(idx) == per_head
            assert set(range(40, 48)) <= set(idx.tolist())

    def test_infeasible_budget_propagates(self):
        trace = small_trace(seed=9)
        with pytest.raises(InfeasibleBudgetError):
            plan_for(trace, classes_with_het(4, {0, 1, 2}), PolicyKind.TASK_KV, 0.3)

    def test_bad_ratio_rejected(self):
        trace = small_trace(seed=10)
        with pytest.raises(ParameterError):
            plan_for(trace, classes_with_het(4, set()), PolicyKind.TASK_KV, 0.0)

    def test_clamped_budget_degrades_to_sinks_recents(self):
        trace = small_trace(seed=11, shape=(1, 4, 64, 6))
        # budget leaves < sinks+recents per non-het head -> clamp, keep s1+s2
        plan = plan_for(
            trace, classes_with_het(4, {0}), PolicyKind.TASK_KV, 0.3,
            sinks=4, recents=8,
        )
        assert plan.clamped and plan.middle_k == 0
        for h in (1, 2, 3):
            assert len(retained(plan)[h]) == 12


    def test_all_heterogeneous_layer_at_ratio_one_keeps_everything(self):
        trace = small_trace(seed=12)
        for policy in (PolicyKind.TASK_KV, PolicyKind.NO_CACHE, PolicyKind.COMPRESSED_CACHE):
            plan = plan_for(trace, classes_with_het(4, {0, 1, 2, 3}), policy, 1.0)
            assert (plan.middle_k, plan.clamped, plan.per_head_groups) == (0, False, None)
            for idx in retained(plan):
                np.testing.assert_array_equal(idx, np.arange(48))

    def test_infeasible_error_names_the_layer(self):
        trace = small_trace(seed=13, shape=(2, 4, 48, 6))
        with pytest.raises(InfeasibleBudgetError, match=r"^layer 1: budget 57 < 144"):
            plan_for(trace, classes_with_het(4, {0, 1, 2}), PolicyKind.NO_CACHE, 0.3, layer=1)


def cell_config(policies, ratios, sinks=2, recents=4, window=8, beta=0.25, top_m=1):
    return RunConfig(
        policies=tuple(policies), budget_ratios=tuple(ratios), beta=beta, top_m=top_m,
        window_len=window, kernel=3, sinks=sinks, recents=recents,
    )


class TestCellFacts:
    """`start_run` fixes each cell's facts for every layer, and decides its
    feasibility, from the shape and f(r) before any layer is read."""

    @pytest.mark.parametrize("policy", list(PolicyKind))
    @pytest.mark.parametrize("sinks, recents", [(-3, 4), (2, -3)])
    def test_negative_sinks_or_recents_rejected_for_every_policy(self, policy, sinks, recents):
        config = cell_config([policy], [0.5], sinks=sinks, recents=recents)
        with pytest.raises(ParameterError, match="sinks and recents must be >= 0"):
            start_run(config, TraceHeader(1, 4, 64, 6))
        trace = small_trace(seed=14, shape=(1, 4, 64, 6))
        with pytest.raises(ParameterError, match="sinks and recents must be >= 0"):
            plan_for(trace, classes_with_het(4, {0}), policy, 0.5, sinks=sinks, recents=recents)

    @pytest.mark.parametrize("policy", list(PolicyKind))
    def test_infeasible_layers_match_apply_policy(self, policy):
        # f(r) = 1, 2, 3 over three layers; B = 57 holds one heterogeneous head of 48
        config = cell_config([policy, PolicyKind.FULL], [0.3], top_m=3)
        result = start_run(config, TraceHeader(3, 4, 48, 6), score=False)
        assert result.schedule.per_layer_counts == (1, 2, 3)
        trace = small_trace(seed=15, shape=(3, 4, 48, 6))
        errors = []
        for layer, f_r in enumerate(result.schedule.per_layer_counts):
            try:
                plan_for(
                    trace, classes_with_het(4, set(range(f_r))), policy, 0.3, layer=layer
                )
            except InfeasibleBudgetError as exc:
                errors.append(str(exc))
        assert (PolicyKind.FULL.value, 0.3) in result.facts
        if not errors:
            assert (policy.value, 0.3) in result.facts and not result.infeasible
            return
        assert (policy.value, 0.3) not in result.facts
        assert result.infeasible == [
            {"policy": policy.value, "budget_ratio": 0.3, "message": errors[0]}
        ]
        assert errors[0] == "layer 1: budget 57 < 96 needed by 2 heterogeneous heads"

    def test_bad_ratio_and_policy_rejected(self):
        header = TraceHeader(1, 4, 48, 6)
        with pytest.raises(ParameterError, match=r"budget_ratio 1.5 outside \(0, 1\]"):
            start_run(cell_config([PolicyKind.FULL], [1.5]), header)
        with pytest.raises(ParameterError, match="'magic' is not a valid PolicyKind"):
            start_run(cell_config(["magic"], [0.5]), header)

    @settings(max_examples=150, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 40)),
        policies=st.lists(st.sampled_from(list(PolicyKind)), min_size=1, max_size=4),
        ratios=st.lists(
            st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.8, 1.0, 1.2]),
            min_size=1, max_size=3,
        ),
        beta=st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0]),
        top_m=st.integers(0, 6),
        sinks=st.sampled_from([-1, 0, 1, 2, 3, 4, 6, 8, 10]),
        recents=st.sampled_from([-2, 0, 1, 2, 4, 8, 12, 16, 20]),
        window=st.integers(1, 48),
    )
    def test_cells_are_layer_facts_over_the_schedule(
        self, dims, policies, ratios, beta, top_m, sinks, recents, window
    ):
        layers, n, seq_len = dims
        top_m = min(top_m, n)
        config = cell_config(policies, ratios, sinks, recents, window, beta=beta, top_m=top_m)
        header = TraceHeader(layers, n, seq_len, 2)
        counts = heterogeneous_schedule(n, beta, top_m, layers).per_layer_counts
        facts, infeasible, error = {}, [], None
        cells = dict.fromkeys((PolicyKind(p).value, ratio) for p in policies for ratio in ratios)
        for cell in cells:
            try:
                facts[cell] = [
                    layer_facts(layer, *cell, seq_len, n, f_r, sinks, recents, min(window, seq_len))
                    for layer, f_r in enumerate(counts)
                ]
            except InfeasibleBudgetError as exc:
                infeasible.append({"policy": cell[0], "budget_ratio": cell[1], "message": str(exc)})
            except ParameterError as exc:
                error = exc
                break
        if error is None and not facts:
            error = InfeasibleBudgetError(infeasible[0]["message"])
        if error is not None:
            with pytest.raises(type(error)) as raised:
                start_run(config, header)
            assert str(raised.value) == str(error)
            return
        result = start_run(config, header)
        assert result.facts == facts
        assert result.infeasible == infeasible

    def test_a_run_fixes_each_cells_facts_once_per_layer(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[:3])
            return layer_facts(*args)

        monkeypatch.setattr(harness, "layer_facts", counted)
        config = cell_config([PolicyKind.TASK_KV, PolicyKind.STREAMING], [0.4, 0.6])
        trace = small_trace(seed=16, shape=(3, 4, 48, 6))
        result = start_run(config, trace.header)
        cells = [(p, r) for p in ("task-kv", "streaming") for r in (0.4, 0.6)]
        assert calls == [(layer, *cell) for cell in cells for layer in range(3)]
        for _ in run_steps(config, result, trace):
            pass
        assert len(calls) == len(cells) * 3  # the visits and `layer_step` read the run's facts
        assert sorted(result.scores) == sorted(cells)


class TestPolicyTable:
    def test_one_entry_per_policy(self):
        assert set(POLICIES) == set(PolicyKind)

    @staticmethod
    def grid():
        """Plans (or error classes) over a seeded grid of layer shapes and budgets.

        It covers every policy at f_r = 0, 1, n/2 and n, sinks + recents >= N
        (at N = 8), clamped budgets, window 1, 4 and N, kernels 1 and 3, tied
        pooled scores, and infeasible budgets.
        """
        rng = np.random.default_rng(20261018)
        cells = itertools.product(
            (1, 2, 4, 8), (8, 33), (0.1, 0.35, 0.5, 1.0), ((0, 0), (1, 2), (2, 5), (6, 4))
        )
        for i, (n, seq, ratio, (sinks, recents)) in enumerate(cells):
            for f_r in sorted({0, 1, n // 2, n}):
                for window in (1, 4, seq):
                    kernel = (1, 3)[i % 2]
                    het = set(rng.permutation(n)[:f_r].tolist())
                    classes = classes_with_het(n, het)
                    means = [rng.integers(0, 4, size=seq) / 8 for _ in range(n)]
                    pooled = [pool_scores(m, kernel) for m in means]
                    for policy in PolicyKind:
                        try:
                            yield apply_policy(
                                i % 3, classes, policy, ratio, sinks, recents, window, pooled
                            ).to_json_dict()
                        except SemkvError as exc:
                            yield {"error": type(exc).__name__}

    @staticmethod
    def legacy(record):
        """A plans record in the form the plans digest was frozen over: each
        head's runs expanded, here in plain Python, into its sorted index
        list under `per_head_retained`. The runs must be maximal: sorted,
        non-empty and apart."""
        if "error" in record:
            return record
        legacy = dict(record)
        runs = legacy.pop("per_head_runs")
        for head in runs:
            assert all(a < b for a, b in head)
            assert all(b < a for (_, b), (a, _) in zip(head, head[1:]))
        legacy["per_head_retained"] = [[p for a, b in head for p in range(a, b)] for head in runs]
        return legacy

    def test_frozen_plans_digest(self):
        # `PLANS_GRID_SHA256` is frozen from the branch-tree `apply_policy`
        # the policy table replaced, over index lists: the grid's plans keep
        # the same positions and groups as before they were held as runs.
        # `PLANS_RUNS_GRID_SHA256` freezes the records a plans file holds.
        digest, runs_digest = hashlib.sha256(), hashlib.sha256()
        counts = collections.Counter()
        for record in self.grid():
            digest.update(json.dumps(self.legacy(record), sort_keys=True).encode())
            runs_digest.update(json.dumps(record, sort_keys=True).encode())
            counts[record.get("error", record.get("policy"))] += 1
            counts["clamped"] += bool(record.get("clamped"))
            counts["groups"] += "per_head_groups" in record
        assert counts == {
            "InfeasibleBudgetError": 1440,
            "full": 1248,
            "streaming": 1248,
            "uniform-topk": 1248,
            "task-kv": 768,
            "no-cache": 768,
            "compressed-cache": 768,
            "clamped": 729,
            "groups": 672,
        }
        assert digest.hexdigest() == PLANS_GRID_SHA256
        assert runs_digest.hexdigest() == PLANS_RUNS_GRID_SHA256


PLANS_GRID_SHA256 = "932bb9efa6cf4015a1be3a72027744630ddbf37c3536f267af1ee6a9380128af"
PLANS_RUNS_GRID_SHA256 = "26900e9ef903c67d0c36ac49fc79bd39bf428e3e599430970995795feb1fa59d"


@st.composite
def policy_layers(draw):
    """A layer's (n heads, N, head classes, pooled window scores) and a
    cell's budget ratio, sinks, recents and window: scores are eighths, so
    ties are common, pooled with an odd kernel."""
    n = draw(st.integers(1, 8))
    seq_len = draw(st.integers(1, 64))
    het = draw(st.sets(st.integers(0, n - 1)))
    kernel = draw(st.sampled_from([1, 3, 5, 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pooled = [pool_scores(rng.integers(0, 8, size=seq_len) / 8, kernel) for _ in range(n)]
    ratio = draw(st.floats(0.0, 1.0, exclude_min=True))
    sinks, recents = draw(st.integers(0, seq_len + 2)), draw(st.integers(0, seq_len + 2))
    window = draw(st.integers(1, seq_len))
    return n, seq_len, classes_with_het(n, het), pooled, ratio, sinks, recents, window


class TestPlansPassTheirCheck:
    """Scoring reads the plans `apply_policy` builds without checking them:
    every feasible cell's plans pass `check_plans`, clamped ones too, and
    a cell raises exactly when its policy is head-aware and B < N f(r)."""

    @settings(max_examples=300, deadline=None)
    @given(policy_layers())
    # a clamped task-kv cell (B = 57: k = floor(9 / 3) - 2 - 4 < 0), an
    # infeasible one (57 < 3 * 48), and every head heterogeneous
    @example((4, 48, classes_with_het(4, {0}), [np.arange(48.0)] * 4, 0.3, 2, 4, 8))
    @example((4, 48, classes_with_het(4, {0, 1, 2}), [np.ones(48)] * 4, 0.3, 2, 4, 48))
    @example((2, 8, classes_with_het(2, {0, 1}), [np.ones(8)] * 2, 1.0, 0, 0, 1))
    def test_every_feasible_plan_passes_check_plans(self, layer):
        n, seq_len, classes, pooled, ratio, sinks, recents, window = layer
        header = TraceHeader(1, n, seq_len, 1)
        f_r = classes.count(HeadClass.HETEROGENEOUS)
        budget = int(np.floor(ratio * seq_len * n))
        for policy in PolicyKind:
            if policy in HEAD_AWARE_SLOTS and budget < seq_len * f_r:
                needed = f"budget {budget} < {seq_len * f_r} needed by {f_r} heterogeneous heads"
                with pytest.raises(InfeasibleBudgetError, match=f"^layer 0: {needed}$"):
                    apply_policy(0, classes, policy, ratio, sinks, recents, window, pooled)
                continue
            plan = apply_policy(0, classes, policy, ratio, sinks, recents, window, pooled)
            assert check_plans(header, [plan]) == [plan]


class TestKeepsByClass:
    """A run plans each head under each class before the layer is
    classified (`LayerFacts.keep_by_class`, from the layer's facts, which
    need only the shape and f(r)), then takes each head's keep under its
    class: whichever f(r) heads turn out heterogeneous, the plan is
    `apply_policy`'s, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(policy_layers(), st.randoms(use_true_random=False))
    @example((4, 48, classes_with_het(4, {0}), [np.arange(48.0)] * 4, 0.3, 2, 4, 8), None)
    @example((2, 8, classes_with_het(2, {0, 1}), [np.ones(8)] * 2, 1.0, 0, 0, 1), None)
    @example((3, 40, classes_with_het(3, set()), [np.arange(40.0)] * 3, 0.5, 30, 20, 40), None)
    def test_keeps_assembled_by_class_are_apply_policys_plans(self, layer, random):
        n, seq_len, classes, pooled, ratio, sinks, recents, window = layer
        f_r = classes.count(HeadClass.HETEROGENEOUS)
        # the drawn classes, and another layer of the same f(r)
        shuffled = classes[:] if random is None else random.sample(classes, n)
        for policy in PolicyKind:
            try:
                facts = layer_facts(0, policy, ratio, seq_len, n, f_r, sinks, recents, window)
            except InfeasibleBudgetError:
                continue
            by_class = [facts.keep_by_class(p) for p in pooled]
            for head_classes in (classes, shuffled):
                keeps = [keep[c] for keep, c in zip(by_class, head_classes)]
                plan = facts.plan(0, head_classes, keeps)
                expected = apply_policy(
                    0, head_classes, policy, ratio, sinks, recents, window, pooled
                )
                assert json.dumps(plan.to_json_dict()) == json.dumps(expected.to_json_dict())


class TestBudgetProperties:
    POLICIES = [
        PolicyKind.TASK_KV,
        PolicyKind.STREAMING,
        PolicyKind.UNIFORM_TOPK,
        PolicyKind.NO_CACHE,
        PolicyKind.COMPRESSED_CACHE,
    ]

    @pytest.mark.parametrize("seed", range(8))
    def test_soundness_and_tightness(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([4, 8]))
        seq = int(rng.integers(48, 128))
        ratio = float(rng.choice([0.2, 0.4, 0.6, 0.8]))
        budget = int(np.floor(ratio * seq * n))
        f_r = int(rng.integers(0, max(budget // seq, 1) + 1))
        f_r = min(f_r, n - 1)
        share = (budget - seq * f_r) // (n - f_r)
        if share < 2:
            f_r = 0
            share = budget // n
        sinks = int(rng.integers(1, max(share // 2, 2)))
        recents = int(rng.integers(1, max(share - sinks, 2)))
        trace = small_trace(seed=seed, shape=(1, n, seq, 4))
        classes = classes_with_het(n, set(range(f_r)))
        for policy in self.POLICIES:
            plan = plan_for(
                trace, classes, policy, ratio, sinks=sinks, recents=recents,
                window=min(8, seq), kernel=3,
            )
            assert plan.retained_tokens() <= budget, policy
            if policy == PolicyKind.TASK_KV and not plan.clamped:
                slack = budget - plan.retained_tokens()
                assert slack < n - f_r + 1

    def test_subset_monotone_in_budget(self):
        trace = small_trace(seed=30, shape=(1, 4, 96, 6))
        classes = classes_with_het(4, {2})
        previous = None
        for ratio in (0.3, 0.5, 0.7, 0.9, 1.0):
            plan = plan_for(trace, classes, PolicyKind.TASK_KV, ratio, sinks=2, recents=4)
            current = [set(idx.tolist()) for idx in retained(plan)]
            if previous is not None:
                for prev, cur in zip(previous, current):
                    assert prev <= cur
            previous = current

    def test_ratio_one_equivalence(self):
        trace = small_trace(seed=31)
        classes = classes_with_het(4, {1})
        for policy in (PolicyKind.TASK_KV, PolicyKind.UNIFORM_TOPK, PolicyKind.FULL):
            plan = plan_for(trace, classes, policy, 1.0)
            for idx in retained(plan):
                np.testing.assert_array_equal(idx, np.arange(48))


def built_footprint(trace, plans):
    """`footprint` of the rows the built cache holds."""
    entries = built_entries(trace, plans)
    return footprint(sum(len(e.positions) for layer in entries for e in layer), trace)


class TestCompressedCacheBuild:
    def test_full_policy_copies_trace(self):
        trace = small_trace(seed=40)
        plan = plan_for(trace, classes_with_het(4, set()), PolicyKind.FULL, 1.0)
        cache = built_entries(trace, [plan])
        for h in range(4):
            entry = cache[0][h]
            np.testing.assert_array_equal(entry.keys, trace.data[0, h, 1])
            np.testing.assert_array_equal(entry.values, trace.data[0, h, 2])
            assert not entry.synthetic.any()

    def test_zero_middle_keeps_sinks_plus_recents(self):
        trace = small_trace(seed=41, shape=(1, 4, 64, 6))
        plan = plan_for(
            trace, classes_with_het(4, {0}), PolicyKind.TASK_KV, 0.3, sinks=4, recents=8
        )
        assert plan.middle_k == 0
        cache = built_entries(trace, [plan])
        for h in (1, 2, 3):
            assert len(cache[0][h].positions) == 12

    def test_rows_match_mapped_positions(self):
        trace = small_trace(seed=42)
        plan = plan_for(trace, classes_with_het(4, {0}), PolicyKind.TASK_KV, 0.5)
        cache = built_entries(trace, [plan])
        for h in range(4):
            entry = cache[0][h]
            for row, pos in enumerate(entry.positions):
                np.testing.assert_array_equal(entry.keys[row], trace.data[0, h, 1, pos])
                np.testing.assert_array_equal(entry.values[row], trace.data[0, h, 2, pos])

    def test_synthetic_rows_are_group_means(self):
        trace = small_trace(seed=43)
        plan = plan_for(trace, classes_with_het(4, {0}), PolicyKind.COMPRESSED_CACHE, 0.5)
        cache = built_entries(trace, [plan])
        entry = cache[0][1]
        assert entry.synthetic.sum() == len(plan.per_head_groups[1])
        groups = iter(plan.per_head_groups[1])
        wide = trace.data.astype(np.float64)
        for row in range(len(entry.positions)):
            if entry.synthetic[row]:
                a, b = next(groups)
                assert entry.positions[row] == a
                np.testing.assert_allclose(
                    entry.keys[row], wide[0, 1, 1, a:b].mean(axis=0), rtol=1e-12
                )
                np.testing.assert_allclose(
                    entry.values[row], wide[0, 1, 2, a:b].mean(axis=0), rtol=1e-12
                )

    def test_positions_strictly_increasing(self):
        trace = small_trace(seed=44)
        for policy in TestBudgetProperties.POLICIES:
            plan = plan_for(trace, classes_with_het(4, {0}), policy, 0.5)
            cache = built_entries(trace, [plan])
            for h in range(4):
                pos = cache[0][h].positions
                assert (np.diff(pos) > 0).all()

    def test_layer_count_mismatch_rejected(self):
        trace = small_trace(seed=45, shape=(2, 4, 48, 6))
        plan = plan_for(trace, classes_with_het(4, set()), PolicyKind.FULL, 1.0)
        with pytest.raises(CacheConsistencyError):
            built_entries(trace, [plan])

    def test_full_keep_entries_share_trace_rows(self):
        trace = small_trace(seed=46)
        plan = plan_for(trace, classes_with_het(4, {0}), PolicyKind.TASK_KV, 0.5)
        cache = built_entries(trace, [plan])
        full_keep, partial = cache[0][0], cache[0][1]
        assert len(full_keep.positions) == 48 and len(partial.positions) < 48
        for arr in (full_keep.keys, full_keep.values):
            assert np.shares_memory(arr, trace.data)
            assert not arr.flags.writeable
        for arr in (partial.keys, partial.values):
            assert not np.shares_memory(arr, trace.data)

    def test_sinks_plus_recents_covering_sequence_share_rows(self):
        trace = small_trace(seed=47, shape=(1, 4, 10, 6))
        plan = plan_for(
            trace, classes_with_het(4, set()), PolicyKind.TASK_KV, 0.5, sinks=6, recents=6
        )
        cache = built_entries(trace, [plan])
        for h in range(4):
            assert np.shares_memory(cache[0][h].keys, trace.data)


def _ranges(pairs):
    return np.asarray(pairs, dtype=np.intp).reshape(-1, 2)


def _plan_with(retained, groups=None, runs=None):
    """A layer-0 plan of the heads' `retained` positions, or of their
    `runs` as given, and their `groups` pairs."""
    n = len(retained)
    runs = [runs_of(r) for r in retained] if runs is None else [_ranges(r) for r in runs]
    groups = None if groups is None else [_ranges(g) for g in groups]
    return BudgetPlan(
        0, PolicyKind.COMPRESSED_CACHE, 0, 0, 0, 0, False,
        classes_with_het(n, set()), runs, groups,
    )


class TestGroupMeans:
    """Synthetic rows equal the per-group `.mean(axis=0)` loop bit for bit.

    The traces are float64 with a wide magnitude spread, so a sum taken in
    any other order than row by row rounds differently and shows up here.
    """

    N = 40
    CASES = {
        "adjacent-long": [(2, 9), (9, 17), (17, 30)],
        "gapped-long": [(1, 4), (10, 19), (25, 26), (31, 35)],
        "ends-at-n-long": [(3, 20), (20, 40)],
        "whole": [(0, 40)],
        "adjacent-short": [(2, 4), (4, 6), (6, 9), (9, 11), (11, 12)],
        "gapped-short": [(0, 2), (5, 7), (9, 10), (12, 15), (20, 22), (30, 31)],
        "one-row": [(0, 1), (5, 6), (6, 7), (39, 40)],
        "ends-at-n-short": [(31, 34), (34, 36), (36, 38), (38, 40)],
        # more groups than rows per group, several of 9+ rows (pairwise
        # summation when head_dim == 1)
        "many-long": [(0, 9), (9, 18), (18, 28), (28, 37), (37, 40)],
    }

    @staticmethod
    def oracle(rows, groups):
        return np.asarray([rows[a:b].mean(axis=0) for a, b in groups])

    @staticmethod
    def float64_trace(seed, shape, order="C"):
        rng = np.random.default_rng(seed)
        r, n, seq_len, d = shape
        size = (r, n, 3, seq_len, d)
        data = rng.standard_normal(size) * 10.0 ** rng.uniform(-6, 6, size)
        return AttentionTrace(TraceHeader(r, n, seq_len, d), np.asarray(data, order=order))

    def assert_means(self, trace, groups, heads):
        plan = _plan_with([[]] * heads, [groups] * heads)
        cache = built_entries(trace, [plan])
        for h in range(heads):
            entry = cache[0][h]
            assert entry.synthetic.all()
            np.testing.assert_array_equal(entry.positions, [a for a, _ in groups])
            assert np.array_equal(entry.keys, self.oracle(trace.data[0, h, 1], groups))
            assert np.array_equal(entry.values, self.oracle(trace.data[0, h, 2], groups))

    @pytest.mark.parametrize("head_dim", [1, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_per_group_mean(self, case, seed, head_dim):
        trace = self.float64_trace(70 + seed, (1, 2, self.N, head_dim))
        self.assert_means(trace, self.CASES[case], heads=2)

    @pytest.mark.parametrize("head_dim", [1, 2, 5])
    def test_long_groups_in_many_groups(self, head_dim):
        # 40 groups of 9-16 rows over N=600
        bounds = np.cumsum([0] + [9 + (i * 7) % 8 for i in range(40)])
        groups = [(int(a) + 3, int(b) + 3) for a, b in zip(bounds[:-1], bounds[1:])]
        trace = self.float64_trace(75, (1, 2, 600, head_dim))
        self.assert_means(trace, groups, heads=2)

    @pytest.mark.parametrize("head_dim", [1, 5])
    def test_signed_zero_rows_mean_plus_zero(self, head_dim):
        # a per-group mean adds from 0.0, short groups summed a row at a
        # time too, so a group of -0.0 rows means +0.0
        rows = np.full((self.N, head_dim), -0.0)
        groups = np.array(self.CASES["adjacent-short"] + [(12, 30)], dtype=np.intp)
        expected = self.oracle(rows, groups)
        assert not np.signbit(expected).any()
        assert group_means(rows, groups).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("head_dim", [1, 5])
    def test_fortran_ordered_input(self, head_dim):
        # the trace keeps a C-contiguous copy, so the means match the
        # per-group loop over its rows whatever the caller's layout was
        trace = self.float64_trace(76, (1, 2, self.N, head_dim), order="F")
        assert trace.data.flags.c_contiguous
        self.assert_means(trace, self.CASES["many-long"], heads=2)

    @pytest.mark.parametrize("ratio", [0.3, 0.6, 0.9])
    def test_policy_groups_equal_per_group_mean(self, ratio):
        trace = self.float64_trace(74, (1, 4, 300, 6))
        plan = plan_for(
            trace, classes_with_het(4, {0}), PolicyKind.COMPRESSED_CACHE, ratio,
            sinks=4, recents=8,
        )
        cache = built_entries(trace, [plan])
        for h in (1, 2, 3):
            groups = plan.per_head_groups[h]
            entry = cache[0][h]
            assert np.array_equal(
                entry.keys[entry.synthetic], self.oracle(trace.data[0, h, 1], groups)
            )
            assert np.array_equal(
                entry.values[entry.synthetic], self.oracle(trace.data[0, h, 2], groups)
            )

    def test_interleaves_with_retained_rows(self):
        trace = small_trace(seed=73, shape=(1, 1, self.N, 5))
        groups = self.CASES["gapped-long"]
        plan = _plan_with([[0, 5, 20, 39]], [groups])
        entry = built_entries(trace, [plan])[0][0]
        np.testing.assert_array_equal(entry.positions, [0, 1, 5, 10, 20, 25, 31, 39])
        wide_keys = trace.data[0, 0, 1].astype(np.float64)
        expected = dict(zip([a for a, _ in groups], self.oracle(wide_keys, groups)))
        for row, pos in enumerate(entry.positions):
            want = expected[pos] if entry.synthetic[row] else trace.data[0, 0, 1, pos]
            assert np.array_equal(entry.keys[row], want)


class TestPlanConsistency:
    @pytest.mark.parametrize(
        "retained, groups",
        [
            ([[0, 1]] * 3, None),  # fewer heads than the trace
            ([[0, 1]] * 5, None),  # more heads than the trace
            ([[0, 1]] * 4, [[]] * 3),  # groups cover fewer heads
        ],
    )
    def test_head_count_mismatch_rejected(self, retained, groups):
        trace = small_trace(seed=80)
        with pytest.raises(CacheConsistencyError, match="heads"):
            check_plans(trace, [_plan_with(retained, groups)])

    @pytest.mark.parametrize(
        "bad",
        [
            [(10, 20), (5, 8)],  # unsorted
            [(5, 12), (11, 20)],  # overlapping
            [(5, 12), (5, 12)],  # repeated
            [(-1, 3)],
            [(40, 49)],
            [(7, 7)],  # empty
            [(9, 3)],
        ],
    )
    def test_bad_groups_rejected(self, bad):
        trace = small_trace(seed=81)
        groups = [[], bad, [], []]
        with pytest.raises(CacheConsistencyError, match="layer 0 head 1: group"):
            check_plans(trace, [_plan_with([[0]] * 4, groups)])

    @pytest.mark.parametrize(
        "runs, groups, message",
        [
            ([(10, 20), (2, 5)], [], r"run \[2, 5\) unsorted or overlapping"),
            ([(2, 8), (6, 10)], [], r"run \[6, 10\) unsorted or overlapping"),
            ([(0, 5), (5, 48)], [], r"run \[5, 48\) touches the run before it"),
            ([(2, 4), (6, 6)], [], r"run \[6, 6\) out of range"),
            ([(-1, 3)], [], r"run \[-1, 3\) out of range"),
            ([(40, 49)], [], r"run \[40, 49\) out of range"),
            ([(0, 10)], [(5, 8)], "cache positions must be strictly increasing"),
        ],
        ids=["unsorted", "overlapping", "touching", "empty", "negative", "past-n", "group-start"],
    )
    def test_bad_runs_rejected(self, runs, groups, message):
        trace = small_trace(seed=82)
        plan = _plan_with([[0]] * 4, [[], groups, [], []], runs=[[(0, 1)], runs, [], []])
        with pytest.raises(CacheConsistencyError, match="^layer 0 head 1: " + message):
            check_plans(trace, [plan])

    @given(st.data())
    def test_group_starts_are_checked_against_the_expanded_positions(self, data):
        # the expansion `check_plans` leaves out: a group may not start on
        # any retained position, and may start anywhere else
        seq_len = 24
        kept = sorted(data.draw(st.sets(st.integers(0, seq_len - 1))))
        bounds = sorted(data.draw(st.sets(st.integers(0, seq_len))))
        groups = list(zip(bounds[0::2], bounds[1::2]))
        plan = _plan_with([kept], [groups])
        header = TraceHeader(1, 1, seq_len, 1)
        if set(kept) & {a for a, _ in groups}:
            with pytest.raises(CacheConsistencyError, match="strictly increasing"):
                check_plans(header, [plan])
        else:
            assert check_plans(header, [plan]) == [plan]

    def test_head_classes_count_mismatch_rejected(self):
        trace = small_trace(seed=83)
        plan = _plan_with([[0, 1]] * 4)
        plan.head_classes.pop()
        with pytest.raises(CacheConsistencyError, match="head classes cover 3 heads"):
            check_plans(trace, [plan])

    def test_plan_for_another_layer_rejected(self):
        trace = small_trace(seed=84, shape=(2, 4, 48, 6))
        plans = [_plan_with([[0, 1]] * 4), _plan_with([[0, 1]] * 4)]
        with pytest.raises(CacheConsistencyError, match="plan 1 is for layer 0"):
            check_plans(trace, plans)


@st.composite
def position_sets(draw):
    """(N, sorted unique positions in [0, N))."""
    seq_len = draw(st.integers(1, 64))
    positions = draw(st.sets(st.integers(0, seq_len - 1)))
    return seq_len, sorted(positions)


class TestRuns:
    @settings(max_examples=300, deadline=None)
    @given(position_sets())
    @example((8, []))
    @example((8, list(range(8))))
    @example((1, [0]))
    @example((8, [5]))
    @example((9, [0, 1, 3, 4, 5, 8]))
    def test_runs_are_maximal_and_expand_to_the_set(self, case):
        _, positions = case
        runs = runs_of(positions)
        assert runs.dtype == np.intp and runs.shape == (len(runs), 2)
        assert (runs[:, 1] > runs[:, 0]).all()  # non-empty
        assert (runs[1:, 0] > runs[:-1, 1]).all()  # apart, so maximal
        expanded = expand_runs(runs)
        assert expanded.dtype == np.intp
        assert expanded.tolist() == positions
        plan = BudgetPlan(
            0, PolicyKind.TASK_KV, 0, 0, 0, 0, False, [HeadClass.NON_HETEROGENEOUS], [runs]
        )
        assert plan.head_tokens(0) == len(positions)
        # the same ranges as groups: one more cache row each
        grouped = dataclasses.replace(plan, per_head_groups=[runs])
        assert grouped.head_tokens(0) == len(positions) + len(runs)
        for original in (plan, grouped):
            clone = BudgetPlan.from_json_dict(json.loads(json.dumps(original.to_json_dict())))
            assert clone.to_json_dict() == original.to_json_dict()
            pairs = [(clone.per_head_runs[0], runs)]
            if original.per_head_groups is not None:
                pairs.append((clone.per_head_groups[0], runs))
            for got, want in pairs:
                assert got.dtype == np.intp and got.shape == want.shape
                np.testing.assert_array_equal(got, want)



class TestMemoryFootprint:
    def test_full_cache_ratio_one(self):
        trace = small_trace(seed=50)
        plan = plan_for(trace, classes_with_het(4, set()), PolicyKind.FULL, 1.0)
        mem = built_footprint(trace, [plan])
        assert mem.ratio_vs_full == 1.0
        assert mem.tokens_retained == 4 * 48
        assert mem.bytes == 4 * 48 * 2 * 6 * 4

    def test_streaming_ratio_arithmetic(self):
        trace = small_trace(seed=51, shape=(1, 1, 1024, 4))
        plan = plan_for(
            trace, classes_with_het(1, set()), PolicyKind.STREAMING,
            272 / 1024, sinks=16, recents=256,
        )
        mem = built_footprint(trace, [plan])
        assert mem.ratio_vs_full == pytest.approx(272 / 1024)

    def test_task_kv_ratio_bounded_by_budget(self):
        shape = (2, 8, 128, 8)
        trace = small_trace(seed=52, shape=shape, kind="clustered-heads", planted=2)
        plans = []
        for r in range(2):
            classes = classes_with_het(8, {0, 1})
            plans.append(
                apply_policy(
                    r, classes, PolicyKind.TASK_KV, 0.4, 2, 4, 8, layer_pooled(trace, r, 8, 3)
                )
            )
        mem = built_footprint(trace, plans)
        assert mem.ratio_vs_full <= 0.4 + 8 / (128 * 8)


    @pytest.mark.parametrize("policy", list(PolicyKind))
    def test_plan_accounting_equals_built_cache_rows(self, policy):
        trace = small_trace(seed=53, shape=(2, 8, 128, 8), kind="clustered-heads", planted=2)
        classes = classes_with_het(8, {0, 1})
        plans = [
            apply_policy(r, classes, policy, 0.5, 2, 4, 8, layer_pooled(trace, r, 8, 3))
            for r in range(2)
        ]
        # the accounting a run reports, gathered layer by layer
        result = RunResult(trace.header, schedule=None, window_len=8)
        for plan in plans:
            result.add_head_tokens({(policy.value, 0.5): plan})
        assert result.memory((policy.value, 0.5)) == built_footprint(trace, plans)
        cache = built_entries(trace, plans)
        for r, plan in enumerate(plans):
            for h in range(8):
                assert plan.head_tokens(h) == len(cache[r][h].positions)


class TestPlanSerialization:
    def test_json_round_trip(self):
        trace = small_trace(seed=60)
        for policy in TestBudgetProperties.POLICIES:
            plan = plan_for(trace, classes_with_het(4, {1}), policy, 0.5)
            clone = BudgetPlan.from_json_dict(plan.to_json_dict())
            assert clone.policy == plan.policy
            assert clone.middle_k == plan.middle_k
            for a, b in zip(clone.per_head_runs, plan.per_head_runs):
                assert a.dtype == np.intp
                np.testing.assert_array_equal(a, b)
            if plan.per_head_groups is None:
                assert clone.per_head_groups is None
            else:
                for a, b in zip(clone.per_head_groups, plan.per_head_groups, strict=True):
                    assert a.dtype == np.intp and a.shape == b.shape
                    np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "edit, needle",
        [
            (lambda d: d.update(policy="magic"), "magic"),
            (lambda d: d["head_classes"].__setitem__(0, "chaotic"), "chaotic"),
            (lambda d: d.pop("middle_k"), "middle_k"),
            (lambda d: d.update(per_head_groups=[[[1]]] * 4), "bad plan"),
            (lambda d: d.update(total_budget="lots"), "total_budget must be a non-negative"),
            (lambda d: d.update(middle_k=-5), "middle_k must be a non-negative integer"),
            (lambda d: d.update(sinks=True), "sinks must be a non-negative integer"),
            (lambda d: d.update(clamped="maybe"), "clamped must be true or false"),
            (lambda d: d.update(clamped=0), "clamped must be true or false"),
            (lambda d: d.update(per_head_group=d.pop("per_head_groups")),
             r"^plan has unknown key\(s\) per_head_group$"),
            (lambda d: d.update(sink=d.pop("sinks")), "^plan is missing key 'sinks'$"),
        ],
        ids=["policy", "head-class", "missing-key", "group-shape", "budget-text",
             "negative-k", "bool-sinks", "clamped-text", "clamped-int", "unknown-key",
             "missing-before-unknown"],
    )
    def test_malformed_plan_raises_plan_format_error(self, edit, needle):
        trace = small_trace(seed=61)
        plan = plan_for(trace, classes_with_het(4, {1}), PolicyKind.COMPRESSED_CACHE, 0.5)
        d = plan.to_json_dict()
        edit(d)
        with pytest.raises(PlanFormatError, match=needle):
            BudgetPlan.from_json_dict(d)
