"""Multiplicative-update steppers and the fit driver."""

import numpy as np
import pytest

import simplexnmf as snf
from simplexnmf import mu
from simplexnmf import objectives
from simplexnmf.errors import DeadTopicError, MonotonicityError
from simplexnmf.errors import NumericalError

from helpers import planted_matrix, random_count_matrix, shared_inits


def _exact_product_factorization(seed, mode):
    rng = np.random.default_rng(seed)
    W = rng.dirichlet(np.ones(6), size=2).T
    if mode == snf.ConstraintMode.BOTH_SIMPLEX:
        H = rng.dirichlet(np.ones(2), size=4).T
    else:
        H = rng.gamma(1.0, 1.0, size=(2, 4)) + 0.2
        if mode == snf.ConstraintMode.UNCONSTRAINED:
            W = W * rng.uniform(0.5, 2.0, size=(1, 2))
    X = snf.TermDocMatrix.from_dense(W @ H)
    return X, snf.Factorization(W, H, mode)


class TestAlternating:
    def test_fixed_point_at_exact_reconstruction(self):
        X, f = _exact_product_factorization(0, snf.ConstraintMode.UNCONSTRAINED)
        out = snf.mu_step_alternating(X, f)
        assert np.allclose(out.factorization.W, f.W, rtol=1e-12, atol=0)
        assert np.allclose(out.factorization.H, f.H, rtol=1e-12, atol=0)
        assert out.recon_evals == 2

    def test_scalar_hand_trace(self):
        # 1x1, K=1, X=3, W=H=1: the first update is w <- 1 * (3*1/1)/1 = 3,
        # the reconstruction is recomputed (3), then h <- 1 * (3*3/3)/3 = 1
        X = snf.TermDocMatrix.from_dense([[3.0]])
        f = snf.Factorization([[1.0]], [[1.0]])
        out = snf.mu_step_alternating(X, f)
        assert out.factorization.W[0, 0] == pytest.approx(3.0, rel=1e-15)
        assert out.factorization.H[0, 0] == pytest.approx(1.0, rel=1e-15)
        assert out.objective == pytest.approx(0.0, abs=1e-12)

    def test_monotone_descent(self):
        for seed in range(10):
            X = random_count_matrix(seed, n_terms=15, n_docs=10)
            config = snf.FitConfig(n_topics=4, method="mu", max_iters=40, seed=seed)
            _, trace = snf.fit(X, config)
            for before, after in zip(trace.objectives, trace.objectives[1:]):
                assert after <= before + 1e-9 * max(1.0, abs(before))

    def test_dead_topic(self):
        X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [3.0, 4.0]])
        f = snf.Factorization(np.full((2, 2), 0.5), np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DeadTopicError, match="dead topic 1"):
            snf.mu_step_alternating(X, f)

    def test_requires_unconstrained(self):
        X = random_count_matrix(1, n_terms=4, n_docs=3)
        W, _ = snf.normalize_columns(np.ones((4, 2)))
        f = snf.Factorization(W, np.ones((2, 3)), snf.ConstraintMode.W_SIMPLEX)
        with pytest.raises(ValueError, match="constraint mode"):
            snf.mu_step_alternating(X, f)


class TestJointWnorm:
    def test_single_topic_hand_values(self):
        # K=1 on X=[[1,2],[3,4]]: responsibilities are one, so after one step
        # w is the normalized row sums and h the document totals
        X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [3.0, 4.0]])
        f = snf.Factorization([[0.25], [0.75]], [[2.0, 2.0]], snf.ConstraintMode.W_SIMPLEX)
        out = snf.mu_step_joint_wnorm(X, f)
        assert np.allclose(out.factorization.W, [[0.3], [0.7]], rtol=1e-13)
        assert np.allclose(out.factorization.H, [[4.0, 6.0]], rtol=1e-13)
        assert out.recon_evals == 1

    def test_fixed_point(self):
        X, f = _exact_product_factorization(2, snf.ConstraintMode.W_SIMPLEX)
        out = snf.mu_step_joint_wnorm(X, f)
        assert np.allclose(out.factorization.W, f.W, rtol=1e-12, atol=0)
        assert np.allclose(out.factorization.H, f.H, rtol=1e-12, atol=0)

    def test_h_columns_sum_to_document_totals(self):
        # from the first step on, sum_k h_kd equals the document total
        X = random_count_matrix(3, n_terms=12, n_docs=8)
        _, f = shared_inits(X, 3, n_topics=4)
        for _ in range(5):
            f = snf.mu_step_joint_wnorm(X, f).factorization
            assert np.allclose(f.H.sum(axis=0), X.col_sums, rtol=1e-11)

    def test_constraint_preserved(self):
        X = random_count_matrix(4, n_terms=12, n_docs=8)
        _, f = shared_inits(X, 4, n_topics=4)
        for _ in range(3):
            f = snf.mu_step_joint_wnorm(X, f).factorization
            assert np.abs(f.W.sum(axis=0) - 1.0).max() <= 1e-12


class TestJointBothnorm:
    def test_single_topic_hand_values(self):
        X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [3.0, 4.0]])
        f = snf.Factorization([[0.25], [0.75]], [[1.0, 1.0]], snf.ConstraintMode.BOTH_SIMPLEX)
        out = snf.mu_step_joint_bothnorm(X, f)
        assert np.allclose(out.factorization.W, [[0.3], [0.7]], rtol=1e-13)
        assert np.allclose(out.factorization.H, [[1.0, 1.0]], rtol=1e-15)

    def test_fixed_point(self):
        X, f = _exact_product_factorization(5, snf.ConstraintMode.BOTH_SIMPLEX)
        out = snf.mu_step_joint_bothnorm(X, f)
        assert np.allclose(out.factorization.W, f.W, rtol=1e-12, atol=0)
        assert np.allclose(out.factorization.H, f.H, rtol=1e-12, atol=0)

    def test_matches_explicit_responsibility_reference(self):
        X = random_count_matrix(6, n_terms=12, n_docs=8)
        dense = X.to_dense()
        f, _ = shared_inits(X, 6, n_topics=3)
        W_ref, H_ref = f.W.copy(), f.H.copy()
        for _ in range(25):
            f = snf.mu_step_joint_bothnorm(X, f, epsilon_floor=0.0).factorization
            W_ref, H_ref = snf.plsa_step_reference(dense, W_ref, H_ref)
            assert np.abs(f.W - W_ref).max() <= 1e-12
            assert np.abs(f.H - H_ref).max() <= 1e-12

    def test_scaling_relation_to_wnorm(self):
        X = random_count_matrix(7, n_terms=12, n_docs=8)
        both, wnorm = shared_inits(X, 7, n_topics=3)
        lam = X.col_sums
        for _ in range(25):
            both = snf.mu_step_joint_bothnorm(X, both, epsilon_floor=0.0).factorization
            wnorm = snf.mu_step_joint_wnorm(X, wnorm, epsilon_floor=0.0).factorization
            assert np.abs(both.W - wnorm.W).max() <= 1e-12
            assert np.abs(wnorm.H / lam[None, :] - both.H).max() <= 1e-12


class TestSparse:
    def test_lambda_zero_is_plain_update(self):
        X = random_count_matrix(8, n_terms=10, n_docs=6)
        _, f = shared_inits(X, 8, n_topics=3)
        plain = snf.mu_step_joint_wnorm(X, f)
        sparse = snf.mu_step_sparse(X, f, 0.0)
        assert np.array_equal(plain.factorization.W, sparse.factorization.W)
        assert np.array_equal(plain.factorization.H, sparse.factorization.H)

    def test_single_topic_hand_values(self):
        # lambda = 1 halves the document totals
        X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [3.0, 4.0]])
        f = snf.Factorization([[0.25], [0.75]], [[2.0, 2.0]], snf.ConstraintMode.W_SIMPLEX)
        out = snf.mu_step_sparse(X, f, 1.0)
        assert np.allclose(out.factorization.H, [[2.0, 3.0]], rtol=1e-13)

    @pytest.mark.parametrize("lam", [-0.5, np.nan, np.inf])
    def test_invalid_lambda_rejected(self, lam):
        X = random_count_matrix(8, n_terms=10, n_docs=6)
        _, f = shared_inits(X, 8, n_topics=3)
        with pytest.raises(ValueError, match="lambda_sparsity"):
            snf.mu_step_sparse(X, f, lam)

    def test_iterate_scaling_identity(self):
        # every iterate of the penalized run is the plain iterate over 1 + lambda
        X = random_count_matrix(9, n_terms=12, n_docs=8)
        lam = 0.7
        _, f = shared_inits(X, 9, n_topics=3)
        plain, penalized = f, f
        for _ in range(25):
            plain = snf.mu_step_joint_wnorm(X, plain, epsilon_floor=0.0).factorization
            penalized = snf.mu_step_sparse(X, penalized, lam, epsilon_floor=0.0).factorization
            assert np.abs(plain.W - penalized.W).max() <= 1e-12
            assert np.abs(penalized.H * (1.0 + lam) - plain.H).max() <= 1e-12 * max(
                1.0, np.abs(plain.H).max()
            )

    def test_penalized_objective_monotone(self):
        for seed in range(5):
            X = random_count_matrix(40 + seed, n_terms=15, n_docs=10)
            config = snf.FitConfig(
                n_topics=4, method="sparse", lambda_sparsity=0.6, max_iters=40, seed=seed
            )
            _, trace = snf.fit(X, config)
            for before, after in zip(trace.objectives, trace.objectives[1:]):
                assert after <= before + 1e-9 * max(1.0, abs(before))


class TestFit:
    def test_single_iteration(self):
        X = random_count_matrix(10, n_terms=10, n_docs=6)
        config = snf.FitConfig(n_topics=3, method="mu-joint", max_iters=1, seed=0)
        _, trace = snf.fit(X, config)
        assert trace.n_iterations == 1

    def test_rank_one_converges_to_zero_divergence(self):
        rng = np.random.default_rng(11)
        w = rng.dirichlet(np.ones(10))
        h = rng.gamma(2.0, 3.0, size=6) + 0.5
        X = snf.TermDocMatrix.from_dense(np.outer(w, h))
        config = snf.FitConfig(
            n_topics=1, method="mu", max_iters=200, rel_tolerance=1e-14, seed=2
        )
        _, trace = snf.fit(X, config)
        assert trace.objectives[-1] <= 1e-8

    def test_reconstruction_counts_per_method(self):
        X = random_count_matrix(12, n_terms=10, n_docs=6)
        expected = {"mu": 2, "mu-joint": 1, "plsa": 1, "sparse": 1}
        for method, count in expected.items():
            config = snf.FitConfig(
                n_topics=3, method=method, max_iters=5, seed=1, lambda_sparsity=0.4
            )
            _, trace = snf.fit(X, config)
            assert set(trace.recon_evals) == {count}

    def test_deterministic_given_seed(self):
        X = random_count_matrix(13, n_terms=10, n_docs=6)
        config = snf.FitConfig(n_topics=3, method="mu-joint", max_iters=20, seed=42)
        f1, t1 = snf.fit(X, config)
        f2, t2 = snf.fit(X, config)
        assert np.array_equal(f1.W, f2.W) and np.array_equal(f1.H, f2.H)
        assert t1.objectives == t2.objectives

    def test_mode_mismatch_rejected(self):
        X = random_count_matrix(14, n_terms=10, n_docs=6)
        config = snf.FitConfig(n_topics=3, method="plsa", max_iters=5)
        init = snf.initialize_factorization(
            X, snf.FitConfig(n_topics=3, method="mu-joint")
        )
        with pytest.raises(ValueError, match="constraint mode"):
            snf.fit(X, config, init)

    def test_vi_methods_rejected(self):
        X = random_count_matrix(15, n_terms=10, n_docs=6)
        with pytest.raises(ValueError, match="fit_vi"):
            snf.fit(X, snf.FitConfig(n_topics=3, method="lda"))

    def test_no_progress_is_an_error(self, monkeypatch):
        X = random_count_matrix(16, n_terms=10, n_docs=6)

        def broken_step(X_, f, **kwargs):
            return mu.StepOutcome(f, 1e9, 1)

        monkeypatch.setattr(mu, "mu_step_joint_wnorm", broken_step)
        config = snf.FitConfig(n_topics=3, method="mu-joint", max_iters=5, seed=3)
        with pytest.raises(MonotonicityError, match="no progress"):
            mu.fit(X, config)

    def test_planted_data_reaches_small_divergence(self):
        X = planted_matrix(17, n_topics=3)
        config = snf.FitConfig(
            n_topics=3, method="mu-joint", max_iters=3000, rel_tolerance=1e-12, seed=5
        )
        _, trace = snf.fit(X, config)
        assert trace.objectives[-1] <= 1e-6 * X.total


class TestDescend:
    def test_non_finite_objective_is_an_error(self, monkeypatch):
        X = random_count_matrix(16, n_terms=10, n_docs=6)

        def nan_step(X_, f, **kwargs):
            return mu.StepOutcome(f, float("nan"), 1)

        monkeypatch.setattr(mu, "mu_step_joint_wnorm", nan_step)
        config = snf.FitConfig(n_topics=3, method="mu-joint", max_iters=5, seed=3)
        with pytest.raises(NumericalError, match="non-finite objective nan after 1 iterations"):
            mu.fit(X, config)

    def test_non_finite_initial_objective_is_an_error(self, monkeypatch):
        X = random_count_matrix(17, n_terms=10, n_docs=6)
        monkeypatch.setattr(objectives, "kl_divergence", lambda X_, W, H: float("inf"))
        config = snf.FitConfig(n_topics=3, method="plsa", max_iters=5, seed=3)
        with pytest.raises(NumericalError, match="non-finite initial objective inf"):
            mu.fit(X, config)

    def test_sign_selects_the_direction(self):
        config = snf.FitConfig(n_topics=1, max_iters=3, rel_tolerance=1e-12)

        def rising(state):
            return state + 1, float(state + 1), 1

        state, trace = mu.descend(rising, 0, 0.0, config, -1)
        assert state == 3 and trace.objectives == [1.0, 2.0, 3.0] and trace.recon_evals == [1, 1, 1]
        with pytest.raises(MonotonicityError, match="objective rose from 0.0 to 1.0"):
            mu.descend(rising, 0, 0.0, config, +1)
        with pytest.raises(MonotonicityError, match="bound fell from 0.0 to -1.0"):
            mu.descend(lambda s: (s, -1.0, 1), 0, 0.0, config, -1)
