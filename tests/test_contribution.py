"""Head-removal contribution: closed form vs long form, and the offset bound."""

import tracemalloc

import numpy as np
import pytest

from semkv.contribution import (
    BoundSuiteReport,
    MHAInstance,
    _spearman,
    contribution_bounds,
    head_contributions,
    head_contributions_longform,
    random_instance,
    verify_bound_suite,
)
from semkv.errors import DimensionError, ParameterError
from semkv.linalg import spectral_norm
from semkv.trace import seeded_rng


def stacked_removal_contribution(instance, j):
    """Independent route: assemble the full projection, zero head j, diff outputs."""
    n, d = instance.head_values.shape
    out_dim = instance.out_blocks.shape[2]
    w_full = instance.out_blocks.reshape(n * d, out_dim)
    flat = instance.head_values.reshape(1, n * d)
    flat_without = instance.head_values.copy()
    flat_without[j] = 0.0
    y = flat @ w_full
    y_without = flat_without.reshape(1, n * d) @ w_full
    delta = (y - y_without).ravel()
    return float(delta @ delta)


# The per-head oracle: one head at a time, as the suite computed it before
# its formulas became array passes over every head.


def oracle_contribution(instance, j):
    projected = instance.head_values[j] @ instance.out_blocks[j]
    return float(projected @ projected)


def oracle_contribution_longform(instance, j):
    y = np.einsum("nd,ndo->o", instance.head_values, instance.out_blocks)
    keep = [i for i in range(instance.num_heads) if i != j]
    y_without = np.einsum("nd,ndo->o", instance.head_values[keep], instance.out_blocks[keep])
    delta = y - y_without
    return float(delta @ delta)


def oracle_bound(instance, j, c_bound):
    center = instance.head_values.mean(axis=0)
    radius = np.linalg.norm(center) + np.linalg.norm(instance.head_values[j] - center)
    return float(radius * radius * c_bound * c_bound)


def oracle_bound_suite(seed, trials, n=8, d=16, out_dim=32):
    """`verify_bound_suite` as a loop over the heads of each trial."""
    violations = 0
    max_ratio = 0.0
    max_form_gap = 0.0
    corrs, tight_uniform, tight_per_head = [], [], []
    for trial in range(trials):
        inst = random_instance(seeded_rng(seed, trial), n, d, out_dim)
        block_norms = spectral_norm(inst.out_blocks)
        c_uniform = float(block_norms.max())
        center = inst.head_values.mean(axis=0)
        contribs = np.empty(n)
        for j in range(n):
            contrib = oracle_contribution(inst, j)
            longform = oracle_contribution_longform(inst, j)
            scale = max(abs(contrib), abs(longform), 1e-300)
            max_form_gap = max(max_form_gap, abs(contrib - longform) / scale)
            bound = oracle_bound(inst, j, c_uniform)
            bound_per_head = oracle_bound(inst, j, block_norms[j])
            if contrib > bound * (1 + 1e-9):
                violations += 1
            if bound > 0:
                max_ratio = max(max_ratio, contrib / bound)
                tight_uniform.append(contrib / bound)
            if bound_per_head > 0:
                tight_per_head.append(contrib / bound_per_head)
            contribs[j] = contrib
        offset_norms = np.linalg.norm(inst.head_values - center, axis=1)
        corrs.append(_spearman(offset_norms, contribs))
    return BoundSuiteReport(
        trials=trials,
        num_heads=n,
        head_dim=d,
        out_dim=out_dim,
        seed=seed,
        violations=violations,
        max_ratio=max_ratio,
        rank_corr=float(np.mean(corrs)),
        max_form_gap=max_form_gap,
        mean_tightness_uniform=float(np.mean(tight_uniform)),
        mean_tightness_per_head=float(np.mean(tight_per_head)),
    )


# How far the array suite may move from the per-head oracle: the array
# forms sum in another order (einsum projections, norms along an axis,
# running tightness sums), and the long form is built from prefix and
# suffix sums. Measured over 250 trials at seeds 606, 42, 7 and 1: at most
# 8.5e-16 relative on max_ratio, rank_corr and both tightness means, and
# max_form_gap at most 8.4e-16 (2.4e-15 for the oracle).
SUITE_RTOL = 1e-12
FORM_GAP_MAX = 1e-12


class TestHeadContribution:
    def test_zero_head_value_contributes_nothing(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng, 4, 3, 5)
        values = inst.head_values.copy()
        values[2] = 0.0
        inst = MHAInstance(values, inst.out_blocks)
        assert head_contributions(inst)[2] == 0.0
        assert head_contributions_longform(inst)[2] == 0.0

    def test_single_head_identity_block_unit_value(self):
        v = np.zeros((1, 4))
        v[0, 0] = 1.0
        inst = MHAInstance(v, np.eye(4)[None, :, :])
        np.testing.assert_allclose(head_contributions(inst), [1.0], rtol=1e-12)
        np.testing.assert_allclose(head_contributions_longform(inst), [1.0], rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_closed_form_equals_long_form(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, 8, 16, 32)
        closed = head_contributions(inst)
        longform = head_contributions_longform(inst)
        assert closed.shape == longform.shape == (8,)
        for j in range(8):
            assert closed[j] == pytest.approx(longform[j], rel=1e-9)
            assert closed[j] == pytest.approx(stacked_removal_contribution(inst, j), rel=1e-9)
            assert closed[j] == pytest.approx(oracle_contribution(inst, j), rel=1e-12)
            assert longform[j] == pytest.approx(oracle_contribution_longform(inst, j), rel=1e-9)

    def test_long_form_memory_is_linear_in_heads(self):
        # a masked (n, n * d) copy of the values would take 128 MB here
        n, d, out_dim = 2000, 4, 8
        inst = random_instance(np.random.default_rng(1), n, d, out_dim)
        tracemalloc.start()
        try:
            longform = head_contributions_longform(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n * out_dim * 8
        np.testing.assert_allclose(longform, head_contributions(inst), rtol=1e-9)

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            MHAInstance(np.zeros((2, 3)), np.zeros((2, 4, 5)))


class TestContributionBound:
    def test_identical_heads_bound_is_center_term(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(6)
        values = np.tile(v, (4, 1))
        blocks = rng.standard_normal((4, 6, 9))
        inst = MHAInstance(values, blocks)
        c = float(spectral_norm(blocks).max())
        expected = float(v @ v) * c * c
        np.testing.assert_allclose(contribution_bounds(inst), np.full(4, expected), rtol=1e-9)

    def test_scaling_values_scales_bound_quadratically(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, 5, 4, 7)
        doubled = MHAInstance(2.0 * inst.head_values, inst.out_blocks)
        np.testing.assert_allclose(
            contribution_bounds(doubled), 4.0 * contribution_bounds(inst), rtol=1e-9
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_bound_dominates_contribution(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, 8, 16, 32)
        assert np.all(head_contributions(inst) <= contribution_bounds(inst) * (1 + 1e-9))

    def test_c_bound_forms(self):
        # the default C is the largest block norm; a float and the per-head
        # norms are used as given, head by head
        inst = random_instance(np.random.default_rng(4), 7, 5, 6)
        norms = spectral_norm(inst.out_blocks)
        default = contribution_bounds(inst)
        assert np.array_equal(default, contribution_bounds(inst, norms.max()))
        per_head = contribution_bounds(inst, norms)
        assert np.all(per_head <= default)
        for j in range(7):
            assert default[j] == pytest.approx(oracle_bound(inst, j, norms.max()), rel=1e-12)
            assert per_head[j] == pytest.approx(oracle_bound(inst, j, norms[j]), rel=1e-12)
        np.testing.assert_allclose(
            contribution_bounds(inst, 2.0), default * 4.0 / norms.max() ** 2, rtol=1e-12
        )


class TestSpearman:
    def test_perfect_monotone(self):
        a = np.array([0.1, 0.5, 0.9, 2.0])
        assert _spearman(a, a**3) == pytest.approx(1.0)

    def test_perfect_inverse(self):
        a = np.array([0.1, 0.5, 0.9, 2.0])
        assert _spearman(a, -a) == pytest.approx(-1.0)


class TestBoundSuite:
    def test_no_violations_on_random_instances(self):
        report = verify_bound_suite(seed=7, trials=50, n=8, d=16, out_dim=32)
        assert report.violations == 0
        assert 0 < report.max_ratio <= 1.0
        assert report.max_form_gap <= 1e-9

    def test_per_head_bound_is_tighter_on_average(self):
        report = verify_bound_suite(seed=8, trials=30, n=6, d=8, out_dim=12)
        assert report.mean_tightness_per_head >= report.mean_tightness_uniform

    def test_deterministic_given_seed(self):
        a = verify_bound_suite(seed=9, trials=10, n=4, d=6, out_dim=8)
        b = verify_bound_suite(seed=9, trials=10, n=4, d=6, out_dim=8)
        assert a == b

    def test_identical_heads_degenerate_symmetry(self):
        rng = np.random.default_rng(5)
        v = np.tile(rng.standard_normal(6), (4, 1))
        inst = MHAInstance(v, rng.standard_normal((4, 6, 9)))
        bounds = contribution_bounds(inst)
        assert np.all(bounds > 0)
        assert np.max(head_contributions(inst) / bounds) <= 1 + 1e-9

    def test_trials_must_be_positive(self):
        with pytest.raises(ParameterError):
            verify_bound_suite(seed=0, trials=0)

    def test_rank_corr_regression_fixture(self):
        # frozen from the first verified run of this configuration
        report = verify_bound_suite(seed=42, trials=100, n=8, d=16, out_dim=32)
        assert report.rank_corr == pytest.approx(RANK_CORR_FIXTURE, abs=1e-12)
        assert report.violations == 0

    @pytest.mark.parametrize("seed, trials", [(606, 250), (42, 250), (7, 250), (42, 100)])
    def test_array_suite_matches_the_per_head_loop(self, seed, trials):
        array = verify_bound_suite(seed=seed, trials=trials)
        loop = oracle_bound_suite(seed=seed, trials=trials)
        assert array.violations == loop.violations
        for key in ("max_ratio", "rank_corr", "mean_tightness_uniform", "mean_tightness_per_head"):
            assert getattr(array, key) == pytest.approx(getattr(loop, key), rel=SUITE_RTOL), key
        assert array.max_form_gap <= FORM_GAP_MAX
        assert loop.max_form_gap <= FORM_GAP_MAX


RANK_CORR_FIXTURE = 0.35428571428571426
