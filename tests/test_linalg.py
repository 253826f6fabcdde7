"""Kernel tests: causal scores and numerators, PCA, spectral norm against independent oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from semkv.allocator import PolicyKind
from semkv.contribution import random_instance
from semkv.errors import DimensionError, EmptyInputError
from semkv.harness import RunConfig, compress_run
from semkv.trace import SyntheticProfile, gen_synthetic_trace
from semkv.linalg import (
    _KEY_BLOCK,
    AttentionInputs,
    _fix_sign,
    causal_numerators,
    causal_scores,
    pca_2d,
    spectral_norm,
)

import reference


def causal_weights(q, k, rows=None):
    """Causal attention of the last `rows` query rows over every key,
    (rows, N): `causal_numerators` of `causal_scores`, over their column
    sums."""
    rows = len(q) if rows is None else rows
    numerators = causal_numerators(*causal_scores(q[len(q) - rows :], k))
    return (numerators / numerators.sum(axis=0)).T


def reference_weights(q, k, rows=None):
    """The same rows of the reference's row-major softmax."""
    n, rows = len(k), len(q) if rows is None else rows
    return reference.attention(q[len(q) - rows :], np.arange(n - rows, n), k, np.arange(n))


def naive_attention_weights(q, k, offset):
    """Direct softmax(QK^T/sqrt(d) + M) via plain Python loops (no max shift)."""
    rows, d = q.shape
    n = k.shape[0]
    out = [[0.0] * n for _ in range(rows)]
    for i in range(rows):
        scores = []
        for j in range(n):
            s = sum(q[i][a] * k[j][a] for a in range(d)) / math.sqrt(d)
            scores.append(s if j <= offset + i else None)
        total = sum(math.exp(s) for s in scores if s is not None)
        for j in range(n):
            if scores[j] is not None:
                out[i][j] = math.exp(scores[j]) / total
    return np.array(out)


class TestAttentionWeights:
    def test_single_token(self):
        q, k = np.random.default_rng(0).standard_normal((2, 1, 3))
        w = causal_weights(q, k)
        assert w.shape == (1, 1)
        assert w[0, 0] == 1.0

    def test_zero_queries_uniform_causal(self):
        w = causal_weights(np.zeros((2, 3)), np.arange(6.0).reshape(2, 3))
        np.testing.assert_allclose(w, [[1.0, 0.0], [0.5, 0.5]], atol=1e-15)

    def test_matches_direct_formula(self):
        q, k = np.random.default_rng(42).standard_normal((2, 8, 4))
        expected = naive_attention_weights(q, k, offset=0)
        np.testing.assert_allclose(causal_weights(q, k), expected, rtol=1e-12, atol=1e-15)

    def test_window_matches_direct_formula(self):
        q, k = np.random.default_rng(7).standard_normal((2, 10, 4))
        expected = naive_attention_weights(q[7:], k, offset=7)
        np.testing.assert_allclose(causal_weights(q, k, 3), expected, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_stochastic_and_causal(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        w = causal_weights(*rng.standard_normal((2, n, 5)))
        np.testing.assert_allclose(w.sum(axis=1), np.ones(n), atol=1e-9)
        assert (w >= 0).all()
        blocked = np.triu(np.ones((n, n), dtype=bool), k=1)
        assert (w[blocked] == 0.0).all()

    @pytest.mark.parametrize("weights", [causal_weights, reference_weights])
    def test_softmax_shift_invariance(self, weights):
        # c added to every key entry adds c sum(q) / sqrt(d) to each of q's scores,
        # which then leave exp's range unless each row is shifted by its max
        q, k = np.random.default_rng(3).standard_normal((2, 6, 4))
        np.testing.assert_allclose(weights(q, k, 4), weights(q, k + 1234.56, 4), atol=1e-9)

    @pytest.mark.parametrize("weights", [causal_weights, reference_weights])
    def test_large_scores_do_not_overflow(self, weights):
        w = weights(np.ones((3, 1)), np.array([[1e4], [9.9e3], [-1e4]]), 1)
        assert np.isfinite(w).all()
        assert abs(w.sum() - 1) < 1e-9

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyInputError):
            AttentionInputs(
                queries=np.zeros((0, 2)), keys=np.zeros((0, 2)), values=np.zeros((0, 2))
            )

    def test_queries_are_the_trailing_rows(self):
        inputs = AttentionInputs(np.zeros((3, 2)), np.zeros((5, 2)), np.zeros((5, 2)))
        assert inputs.seq_len == 5 and len(inputs.queries) == 3
        with pytest.raises(DimensionError):
            AttentionInputs(np.zeros((6, 2)), np.zeros((5, 2)), np.zeros((5, 2)))

    def test_checked_inputs_skip_the_finiteness_pass(self):
        keys = np.zeros((3, 2))
        keys[1, 0] = np.nan
        with pytest.raises(ValueError):
            AttentionInputs(np.zeros((3, 2)), keys, np.zeros((3, 2)))
        inputs = AttentionInputs(np.zeros((3, 2)), keys, np.zeros((3, 2)), checked=True)
        assert np.isnan(inputs.keys[1, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("layout", ["c", "transposed", "strided"])
    def test_finiteness_pass_finds_a_value_in_any_chunk(self, bad, layout):
        # past the first chunk of values, and in a view that is not C-contiguous
        states = np.zeros((3, 4096, 64))
        view = {
            "c": lambda a: a,
            "transposed": lambda a: a.T.copy().T,
            "strided": lambda a: np.repeat(a, 2, axis=1)[:, ::2],
        }[layout]
        keys = view(states[1])
        keys[4000, 63] = bad
        with pytest.raises(ValueError, match="keys contains NaN/Inf entries"):
            AttentionInputs(view(states[0]), keys, view(states[2]))

    def test_finiteness_pass_makes_no_mask_as_large_as_its_input(self):
        q, k, v = np.random.default_rng(4).standard_normal((3, 4096, 64))
        tracemalloc.start()
        try:
            AttentionInputs(q, k, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < q.nbytes / 64

    def test_mismatched_qkv_shapes(self):
        with pytest.raises(DimensionError):
            AttentionInputs(
                queries=np.zeros((2, 2)), keys=np.zeros((2, 3)), values=np.zeros((2, 2))
            )


class TestCausalScores:
    """`causal_scores`, the one product of queries and keys."""

    @staticmethod
    def draw(seq_len, rows, head_dim=8, seed=0):
        rng = np.random.default_rng(seed)
        queries = 3 * rng.standard_normal((rows, head_dim)).astype(np.float32)
        keys = 3 * rng.standard_normal((seq_len, head_dim)).astype(np.float32)
        return queries, keys

    @pytest.mark.parametrize(
        "seq_len, rows",
        [
            (2 * _KEY_BLOCK + 77, 16),  # N not a multiple of the key block
            (_KEY_BLOCK // 5, 8),  # N below one key block
            (_KEY_BLOCK + 3, 1),  # one row
            (_KEY_BLOCK + 3, _KEY_BLOCK + 3),  # every row
        ],
    )
    def test_scores_and_shift_against_the_whole_product(self, seq_len, rows):
        queries, keys = self.draw(seq_len, rows)
        scores, shift = causal_scores(queries, keys)
        assert scores.shape == (seq_len, rows) and shift.shape == (rows,)
        q = queries.astype(np.float64).T / np.sqrt(8.0)
        whole = keys.astype(np.float64) @ q
        np.testing.assert_allclose(scores, whole, rtol=1e-13, atol=1e-13)
        # the shift is exactly the max over the keys each row sees
        seen = np.arange(seq_len)[:, None] <= np.arange(seq_len - rows, seq_len)
        assert np.array_equal(shift, np.where(seen, scores, -np.inf).max(axis=0))

    def test_float32_and_float64_keys_give_the_same_bits(self):
        queries, keys = self.draw(2 * _KEY_BLOCK + 77, 16, seed=1)
        narrow = causal_scores(queries, keys)
        for wide in (
            causal_scores(queries.astype(np.float64), keys.astype(np.float64)),
            causal_scores(queries, np.asfortranarray(keys, dtype=np.float64)),
        ):
            assert narrow[0].tobytes() == wide[0].tobytes()
            assert narrow[1].tobytes() == wide[1].tobytes()

    @pytest.mark.parametrize("seq_len, rows", [(_KEY_BLOCK + 40, 16), (96, 96)])
    def test_numerators_are_exp_of_the_shifted_scores(self, seq_len, rows):
        queries, keys = self.draw(seq_len, rows, seed=4)
        scores, shift = causal_scores(queries, keys)
        # exactly exp(S - m) where a row sees the key, exactly 0 elsewhere
        seen = np.arange(seq_len)[:, None] <= np.arange(seq_len - rows, seq_len)
        with np.errstate(over="ignore"):  # a hidden key's exponential is discarded
            expected = np.where(seen, np.exp(scores - shift), 0.0)
        assert causal_numerators(scores, shift).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seq_len, rows", [(_KEY_BLOCK + 40, 16), (96, 96)])
    def test_weights_finish_the_softmax_of_the_reference(self, seq_len, rows):
        queries, keys = self.draw(seq_len, rows, seed=2)
        expected = reference_weights(queries.astype(np.float64), keys.astype(np.float64))
        np.testing.assert_allclose(causal_weights(queries, keys), expected, rtol=1e-13, atol=1e-300)

    def test_every_row_holds_one_score_matrix(self):
        # the scores, finished in place, plus two (N, N) bool masks of the
        # causal triangle: no float copy of it
        queries, keys = self.draw(1024, 1024, seed=3)
        causal_numerators(*causal_scores(queries[-8:], keys))
        tracemalloc.start()
        try:
            numerators = causal_numerators(*causal_scores(queries, keys))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= numerators.nbytes + 2 * 1024 * 1024 + (1 << 18)

    def test_non_finite_row_max_rejected(self):
        keys = np.ones((4, 2))
        keys[1, 0] = np.inf  # seen by both rows
        with pytest.raises(ValueError, match="attention row max"):
            causal_numerators(*causal_scores(np.ones((2, 2)), keys))


def _dominant_eigpair(sym, need_vector=False):
    """Largest eigenpair of a symmetric PSD matrix by power iteration.

    The power iteration that `spectral_norm` and `pca_2d` used before LAPACK,
    kept as their oracle. Deterministic ramp start vector; stops once the
    Rayleigh quotient has settled to 1e-12 relative (and, with need_vector,
    the iterate moves by at most 1e-10), capped at 1000 iterations. Where
    the top two eigenvalues nearly coincide it stops long before converging.
    """
    m = sym.shape[0]
    v = np.arange(1.0, m + 1.0)
    v /= np.linalg.norm(v)
    lam = float(v @ sym @ v)
    for _ in range(1000):
        w = sym @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0, v
        v_new = w / norm
        lam_new = float(v_new @ sym @ v_new)
        settled = abs(lam_new - lam) <= 1e-12 * max(abs(lam_new), 1e-300)
        if need_vector:
            settled = settled and np.max(np.abs(v_new - v)) <= 1e-10
        v, lam = v_new, lam_new
        if settled:
            break
    return lam, v


def power_pca_2d(points):
    """Top-2 PCA coordinates by power iteration and deflation (full-rank points)."""
    centered = points - points.mean(axis=0)
    cov = centered.T @ centered / points.shape[0]
    lam1, v1 = _dominant_eigpair(cov, need_vector=True)
    v1 = _fix_sign(v1)
    _, v2 = _dominant_eigpair(cov - lam1 * np.outer(v1, v1), need_vector=True)
    v2 = v2 - (v2 @ v1) * v1
    v2 = _fix_sign(v2 / np.linalg.norm(v2))
    return centered @ np.column_stack([v1, v2])


def sylvester_hadamard(order):
    h = np.array([[1.0]])
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return h


class TestPCA2D:
    def test_identical_points(self):
        pts = np.tile([1.0, 2.0, 3.0], (6, 1))
        coords = pca_2d(pts)
        np.testing.assert_allclose(coords, np.zeros((6, 2)), atol=1e-12)

    def test_rank2_plane_preserves_distances(self):
        rng = np.random.default_rng(5)
        basis, _ = np.linalg.qr(rng.standard_normal((16, 2)))
        flat = rng.standard_normal((20, 2)) @ basis.T  # exactly rank-2 in d=16
        coords = pca_2d(flat)
        orig = np.linalg.norm(flat[:, None] - flat[None, :], axis=2)
        proj = np.linalg.norm(coords[:, None] - coords[None, :], axis=2)
        np.testing.assert_allclose(proj, orig, atol=1e-6)

    def test_rank2_captures_all_variance(self):
        rng = np.random.default_rng(6)
        basis, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        flat = rng.standard_normal((30, 2)) @ basis.T
        coords = pca_2d(flat)
        total = ((flat - flat.mean(axis=0)) ** 2).sum()
        captured = (coords**2).sum()
        assert captured >= (1 - 1e-9) * total

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(123)
        pts = rng.standard_normal((32, 64)) * np.linspace(3, 0.1, 64)
        coords = pca_2d(pts)
        centered = pts - pts.mean(axis=0)
        cov = centered.T @ centered / pts.shape[0]
        evals, evecs = np.linalg.eigh(cov)
        axes = evecs[:, np.argsort(evals)[::-1][:2]]
        for col in range(2):
            v = axes[:, col]
            nz = np.flatnonzero(np.abs(v) > 1e-12)[0]
            if v[nz] < 0:
                axes[:, col] = -v
        np.testing.assert_allclose(coords, centered @ axes, atol=1e-6)

    def test_deterministic_sign(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((12, 5))
        a, b = pca_2d(pts), pca_2d(pts)
        np.testing.assert_array_equal(a, b)

    def test_one_dimensional_points(self):
        coords = pca_2d(np.array([[1.0], [3.0], [5.0]]))
        np.testing.assert_allclose(coords[:, 0], [-2.0, 0.0, 2.0], atol=1e-12)
        np.testing.assert_array_equal(coords[:, 1], np.zeros(3))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            pca_2d(np.zeros((0, 4)))


class TestPCAOracle:
    # Agreement with power iteration, relative to the largest coordinate. On
    # semantic vectors the worst layer reaches 3.0e-10 (the report fixture);
    # on the random decaying spectra, whose gaps are closer, 1.3e-9 (seed 3).
    TOL = 1e-9

    @staticmethod
    def semantic_vectors(cfg):
        result = compress_run(cfg, gen_synthetic_trace(cfg.profile, cfg.shape))
        return result.vectors

    @pytest.mark.parametrize(
        "cfg",
        [
            RunConfig(
                profile=SyntheticProfile("uniform-random", seed=7),
                shape=(2, 8, 1024, 8),
                policies=(PolicyKind.FULL,),
                budget_ratios=(1.0,),
            ),
            RunConfig(
                profile=SyntheticProfile("clustered-heads", seed=1, planted=2),
                shape=(2, 16, 512, 64),
                policies=(PolicyKind.FULL,),
                budget_ratios=(1.0,),
            ),
        ],
        ids=["report-fixture", "clustered"],
    )
    def test_matches_power_iteration_on_semantic_vectors(self, cfg):
        for points in self.semantic_vectors(cfg):
            lapack, power = pca_2d(points), power_pca_2d(points)
            assert np.abs(lapack - power).max() <= self.TOL * np.abs(power).max()

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_power_iteration_on_decaying_spectra(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((16, 64)) * np.geomspace(4, 0.01, 64)
        lapack, power = pca_2d(points), power_pca_2d(points)
        assert np.abs(lapack - power).max() <= 10 * self.TOL * np.abs(power).max()

    def test_near_degenerate_top_pair_recovers_the_true_axes(self):
        # centered points with covariance Q diag(s^2) Q^T: the top two
        # variances differ by 2e-6 relative, where power iteration stalls at
        # its 1000-iteration cap with the two axes still mixed
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))
        scales = np.array([2.0, 2.0 * (1 - 1e-6), 1.0, 0.5, 0.25, 0.125])
        points = 5.0 + sylvester_hadamard(8)[:, 1:7] * scales @ q.T
        axes = np.column_stack([_fix_sign(q[:, 0]), _fix_sign(q[:, 1])])
        expected = (points - points.mean(axis=0)) @ axes
        np.testing.assert_allclose(pca_2d(points), expected, rtol=0, atol=1e-8)
        assert np.abs(power_pca_2d(points) - expected).max() > 0.1


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(5)) == pytest.approx(1.0, rel=1e-8)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-8)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 4))) == 0.0

    def test_matches_svd(self):
        rng = np.random.default_rng(77)
        w = rng.standard_normal((8, 8))
        expected = np.linalg.svd(w, compute_uv=False)[0]
        assert spectral_norm(w) == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_dominates_random_unit_vectors(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((6, 9))
        bound = spectral_norm(w)
        for _ in range(100):
            v = rng.standard_normal(6)
            v /= np.linalg.norm(v)
            assert np.linalg.norm(v @ w) <= bound * (1 + 1e-9)

    def test_rectangular_matches_svd(self):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((5, 12))
        expected = np.linalg.svd(w, compute_uv=False)[0]
        assert spectral_norm(w) == pytest.approx(expected, rel=1e-6)

    def test_stack_gives_each_matrix_its_own_bits(self):
        # the blocks `verify_bound_suite(seed=606, trials=250)` draws
        for trial in range(250):
            rng = np.random.Generator(np.random.Philox(key=[606, trial]))
            blocks = random_instance(rng, 8, 16, 32).out_blocks
            one_by_one = [spectral_norm(w) for w in blocks]
            assert spectral_norm(blocks).tolist() == one_by_one

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 3, 3)])
    def test_other_ranks_rejected(self, shape):
        with pytest.raises(DimensionError):
            spectral_norm(np.ones(shape))


class TestSpectralNormOracle:
    def test_power_iteration_reads_low_on_bound_suite_blocks(self):
        # the 2,000 blocks `verify_bound_suite(seed=1, trials=250)` draws;
        # power iteration on W^T W stops early where the top singular values
        # nearly coincide, so it can only read low (other seeds reach 4e-4)
        worst = 0.0
        for trial in range(250):
            rng = np.random.Generator(np.random.Philox(key=[1, trial]))
            for w in random_instance(rng, 8, 16, 32).out_blocks:
                lapack = spectral_norm(w)
                power = float(np.sqrt(_dominant_eigpair(w.T @ w)[0]))
                assert power <= lapack
                worst = max(worst, (lapack - power) / lapack)
        assert worst <= 2e-6
