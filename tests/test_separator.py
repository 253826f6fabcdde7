"""Semantic vectors, window/top-t approximation, distances, schedule, classifier."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import window_scores
from semkv.errors import EmptyInputError, ParameterError
from semkv.separator import (
    HeadClass,
    approx_semantic_vector,
    build_layer_profiles,
    check_window_len,
    classify_heads,
    head_distances,
    heterogeneous_schedule,
    top_t_indices,
)
from semkv.trace import SyntheticProfile, clustered_planted_heads, gen_synthetic_trace


def naive_semantic_vector(q, k, v):
    """Direct evaluation: causal softmax, column means, weighted sum over V."""
    n, d = q.shape
    weights = np.zeros((n, n))
    for i in range(n):
        scores = [
            sum(q[i][a] * k[j][a] for a in range(d)) / math.sqrt(d) for j in range(i + 1)
        ]
        total = sum(math.exp(s) for s in scores)
        for j in range(i + 1):
            weights[i, j] = math.exp(scores[j]) / total
    col_means = weights.sum(axis=0) / n
    return col_means @ v


class TestReferenceSemanticVector:
    """The test reference's exact semantic vector, which the windowed one is held to."""

    def test_single_token_returns_first_value_row(self):
        q, k, v = np.random.default_rng(0).standard_normal((3, 1, 4))
        np.testing.assert_array_equal(reference.exact_semantic_vector(q, k, v), v[0])

    def test_two_tokens_zero_queries(self):
        rng = np.random.default_rng(1)
        k, v = rng.standard_normal((2, 2, 3))
        vec = reference.exact_semantic_vector(np.zeros((2, 3)), k, v)
        np.testing.assert_allclose(vec, 0.75 * v[0] + 0.25 * v[1], rtol=1e-12)

    def test_matches_direct_formula(self):
        q, k, v = np.random.default_rng(16).standard_normal((3, 16, 8))
        expected = naive_semantic_vector(q, k, v)
        np.testing.assert_allclose(reference.exact_semantic_vector(q, k, v), expected, rtol=1e-12)


class TestWindowColumnScores:
    def test_full_window_equals_full_column_means(self):
        q, k, v = np.random.default_rng(2).standard_normal((3, 12, 4))
        scores = window_scores(q, k, 12)
        exact = reference.exact_semantic_vector(q, k, v)
        np.testing.assert_allclose(scores @ v, exact, rtol=1e-12)

    def test_window_one_is_last_query_row(self):
        q, k = np.random.default_rng(3).standard_normal((2, 9, 4))
        last = reference.attention(q[-1:], np.array([8]), k, np.arange(9))[0]
        np.testing.assert_allclose(window_scores(q, k, 1), last, rtol=1e-12)

    def test_mass_sums_to_one(self):
        q, k = np.random.default_rng(4).standard_normal((2, 20, 4))
        scores = window_scores(q, k, 5)
        assert scores.sum() == pytest.approx(1.0, abs=1e-9)
        assert (scores >= 0).all()

    def test_needle_is_argmax(self):
        profile = SyntheticProfile("planted-needle", seed=5, needle_position=11, tail_len=8)
        trace = gen_synthetic_trace(profile, (1, 3, 48, 4))
        for q, k, _ in trace.data[0]:
            assert int(np.argmax(window_scores(q, k, 8))) == 11

    def test_window_out_of_range(self):
        with pytest.raises(ParameterError):
            check_window_len(5, 4)
        with pytest.raises(ParameterError):
            check_window_len(0, 4)


class TestTopTSelection:
    def test_ties_break_to_lower_index(self):
        idx = top_t_indices(np.array([0.5, 0.2, 0.5, 0.5]), 2)
        np.testing.assert_array_equal(idx, [0, 2])

    def test_t_larger_than_length(self):
        idx = top_t_indices(np.array([3.0, 1.0]), 10)
        np.testing.assert_array_equal(idx, [0, 1])

    @given(
        values=st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -2.5, np.inf, -np.inf]) | st.floats(allow_nan=False),
            max_size=40,
        ),
        t=st.integers(1, 50),
    )
    @example(values=[0.0, -0.0, 0.0, -0.0, 1.0], t=3)
    @example(values=[-0.0, 0.0, -1.0], t=1)
    @example(values=[2.0, 1.0, 2.0], t=3)
    @example(values=[], t=1)
    def test_matches_the_argsort_oracle(self, values, t):
        # the full stable sort it replaced: every tie, +-0.0 included, to the lower index
        values = np.array(values, dtype=np.float64)
        expected = np.sort(np.argsort(-values, kind="stable")[: min(t, len(values))])
        np.testing.assert_array_equal(top_t_indices(values, t), expected)

    def test_selected_mass_monotone_in_t(self):
        c = window_scores(*np.random.default_rng(7).standard_normal((2, 64, 4)), 16)
        masses = [c[top_t_indices(c, t)].sum() for t in (1, 4, 16, 64)]
        assert all(a <= b + 1e-12 for a, b in zip(masses, masses[1:]))
        assert masses[-1] == pytest.approx(c.sum(), abs=1e-12)


class TestApproxSemanticVector:
    def test_full_selection_collapses_to_exact(self):
        q, k, v = np.random.default_rng(8).standard_normal((3, 32, 8))
        approx = approx_semantic_vector(window_scores(q, k, 32), v, 32)
        exact = reference.exact_semantic_vector(q, k, v)
        rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
        assert rel <= 1e-9

    def test_t_one_is_single_weighted_row(self):
        q, k, v = np.random.default_rng(9).standard_normal((3, 10, 4))
        scores = window_scores(q, k, 4)
        best = int(np.argmax(scores))
        approx = approx_semantic_vector(scores, v, 1)
        np.testing.assert_allclose(approx, scores[best] * v[best], rtol=1e-12)

    def test_error_decreases_with_t(self):
        q, k, v = np.random.default_rng(512).standard_normal((3, 512, 16))
        scores = window_scores(q, k, 512)
        exact = reference.exact_semantic_vector(q, k, v)
        errs = []
        for t in (16, 64, 256, 512):
            approx = approx_semantic_vector(scores, v, t)
            errs.append(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
        assert errs[0] > errs[1] > errs[2] > errs[3]
        assert errs[3] <= 1e-12

    def test_weights_not_renormalized(self):
        approx = approx_semantic_vector(np.array([0.5, 0.3, 0.2]), np.eye(3, 2), 1)
        # raw C value 0.5 scales the picked row; no renormalization to 1
        np.testing.assert_allclose(approx, [0.5, 0.0])


class TestHeadDistances:
    def test_identical_vectors_zero_distance(self):
        vecs = np.ones((5, 4))
        center, dist = head_distances(vecs)
        np.testing.assert_array_equal(dist, np.zeros(5))
        np.testing.assert_array_equal(center, np.ones(4))

    def test_symmetric_pair_equal_distance(self):
        u = np.array([1.0, -2.0, 0.5])
        vecs = np.array([u, -u])
        _, dist = head_distances(vecs)
        assert dist[0] == pytest.approx(dist[1], rel=1e-12)

    def test_matches_manual_norms(self):
        rng = np.random.default_rng(10)
        arrs = rng.standard_normal((6, 8))
        center, dist = head_distances(arrs)
        expected_center = arrs.mean(axis=0)
        np.testing.assert_allclose(center, expected_center, rtol=1e-12)
        for j in range(6):
            manual = math.sqrt(sum((arrs[j][a] - expected_center[a]) ** 2 for a in range(8)))
            assert dist[j] == pytest.approx(manual, rel=1e-12)

    def test_translation_leaves_distances_unchanged(self):
        rng = np.random.default_rng(11)
        arrs = rng.standard_normal((5, 6))
        _, base = head_distances(arrs)
        shift = rng.standard_normal(6) * 10
        _, moved = head_distances(arrs + shift)
        np.testing.assert_allclose(base, moved, atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            head_distances([])


class TestHeterogeneitySchedule:
    def test_reference_32_head_endpoints(self):
        sched = heterogeneous_schedule(32, 0.25, 4, 32)
        assert sched.per_layer_counts[0] == 8
        assert sched.per_layer_counts[31] == 4

    def test_reference_interior_rounding(self):
        sched = heterogeneous_schedule(32, 0.25, 4, 32)
        # 8 - (4/31)*15 = 6.06... rounds to 6
        assert sched.per_layer_counts[15] == 6

    def test_reference_32_head_low_top(self):
        sched = heterogeneous_schedule(32, 0.3, 1, 32)
        assert sched.per_layer_counts[0] == 10  # round of 9.6
        assert sched.per_layer_counts[31] == 1

    def test_single_layer_degenerates_to_m(self):
        assert heterogeneous_schedule(16, 0.5, 3, 1).per_layer_counts == (3,)

    def test_monotone_when_bottom_exceeds_top(self):
        counts = heterogeneous_schedule(32, 0.25, 4, 32).per_layer_counts
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_counts_stay_within_endpoint_range(self):
        for beta, m in [(0.3, 1), (0.25, 4), (0.9, 2), (0.1, 7)]:
            sched = heterogeneous_schedule(8, beta, m, 12)
            lo = min(m, round(8 * beta + 1e-12))
            hi = max(m, int(np.floor(8 * beta + 0.5)))
            lo = min(lo, hi)
            assert all(lo <= c <= hi for c in sched.per_layer_counts)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            heterogeneous_schedule(8, 0.0, 2, 4)
        with pytest.raises(ParameterError):
            heterogeneous_schedule(8, 1.5, 2, 4)
        with pytest.raises(ParameterError, match=r"^top_m 9 outside \[0, 8\]$"):
            heterogeneous_schedule(8, 0.5, 9, 4)
        with pytest.raises(ParameterError, match=r"^top_m -1 outside \[0, 8\]$"):
            heterogeneous_schedule(8, 0.5, -1, 4)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 128),
        beta=st.floats(0, 1, exclude_min=True),
        top=st.floats(0, 1),
        layers=st.integers(1, 80),
    )
    def test_counts_lie_in_range_between_fixed_ends(self, n, beta, top, layers):
        m = round(top * n)
        counts = heterogeneous_schedule(n, beta, m, layers).per_layer_counts
        assert len(counts) == layers
        assert all(type(c) is int and 0 <= c <= n for c in counts)
        if layers >= 2:
            assert counts[0] == int(np.floor(n * beta + 0.5))
        assert counts[-1] == m


class TestClassifyHeads:
    def test_two_farthest_plus_closest(self):
        classes = classify_heads(np.array([5.0, 4.0, 3.0, 1.0, 0.5, 0.2]), 3)
        het = {i for i, c in enumerate(classes) if c == HeadClass.HETEROGENEOUS}
        assert het == {0, 1, 5}

    def test_all_heads_when_f_equals_n(self):
        classes = classify_heads(np.array([3.0, 2.0, 1.0]), 3)
        assert all(c == HeadClass.HETEROGENEOUS for c in classes)

    def test_exactly_f_r_heads_even_with_ties(self):
        classes = classify_heads(np.ones(5), 3)
        assert sum(c == HeadClass.HETEROGENEOUS for c in classes) == 3

    def test_tie_breaks_to_lower_index(self):
        classes = classify_heads(np.array([2.0, 2.0, 2.0, 0.1, 0.1]), 2)
        het = {i for i, c in enumerate(classes) if c == HeadClass.HETEROGENEOUS}
        assert het == {0, 3}  # farthest tie -> head 0, closest tie -> head 3

    def test_distances_within_the_tie_are_tied(self):
        dist = np.array([3.0, 1.0 + 4e-16, 3.0 - 4e-16, 1.0])
        het = HeadClass.HETEROGENEOUS
        untied = classify_heads(dist, 2)
        tied = classify_heads(dist, 2, tie=1e-15)
        assert [i for i, c in enumerate(untied) if c == het] == [0, 3]
        assert [i for i, c in enumerate(tied) if c == het] == [0, 1]
        tied = classify_heads(dist, 3, tie=1e-15)
        assert [i for i, c in enumerate(tied) if c == het] == [0, 1, 2]

    @pytest.mark.parametrize("seed", range(8))
    def test_two_heads_are_equidistant_so_head_0_is_the_closer(self, seed):
        # rounding the center alone sets the two distances apart
        vectors = np.random.default_rng(seed).standard_normal((2, 5)) * 10.0 ** seed
        _, classes = build_layer_profiles(vectors, 1)
        assert classes == [HeadClass.HETEROGENEOUS, HeadClass.NON_HETEROGENEOUS]

    def test_permutation_consistency(self):
        rng = np.random.default_rng(12)
        dist = rng.uniform(0.1, 9.0, size=7)  # distinct distances
        classes = classify_heads(dist, 4)
        perm = rng.permutation(7)
        permuted = classify_heads(dist[perm], 4)
        for new_pos, old_pos in enumerate(perm):
            assert permuted[new_pos] == classes[old_pos]

    def test_f_r_out_of_range(self):
        with pytest.raises(ParameterError):
            classify_heads(np.ones(4), 0)
        with pytest.raises(ParameterError):
            classify_heads(np.ones(4), 5)

    @pytest.mark.parametrize("planted", [1, 2, 4])
    def test_recovers_planted_heads_on_clean_clusters(self, planted):
        profile = SyntheticProfile("clustered-heads", seed=100 + planted, planted=planted)
        data = gen_synthetic_trace(profile, (2, 8, 64, 8)).data.astype(np.float64)
        expected = clustered_planted_heads(profile, 2, 8)
        for r in range(2):
            vecs = [reference.exact_semantic_vector(*block) for block in data[r]]
            _, dist = head_distances(vecs)
            classes = classify_heads(dist, planted + 1)
            het = {i for i, c in enumerate(classes) if c == HeadClass.HETEROGENEOUS}
            assert het == set(expected[r]) | {int(np.argmin(dist))}
