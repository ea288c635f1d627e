"""Rescaling maps, penalty absorption, fixed-point residuals, and the matched-iterate pairs."""

from itertools import islice

import numpy as np
import pytest

import simplexnmf as snf
from simplexnmf.equivalence import PAIRS
from simplexnmf.errors import DegenerateColumnError

from helpers import planted_matrix, random_count_matrix, refine_mu, shared_inits


class TestAbsorbScaling:
    def test_hand_example(self):
        W_tilde, H_tilde = snf.absorb_scaling([[2.0], [2.0]], [[1.0, 1.0]])
        assert np.array_equal(W_tilde, [[0.5], [0.5]])
        assert np.array_equal(H_tilde, [[4.0, 4.0]])

    def test_identity_on_normalized(self):
        W = np.array([[0.25, 0.5], [0.75, 0.5]])
        H = np.array([[1.0, 2.0], [3.0, 4.0]])
        W_tilde, H_tilde = snf.absorb_scaling(W, H)
        assert np.array_equal(W_tilde, W)
        assert np.array_equal(H_tilde, H)

    def test_product_preserved(self):
        rng = np.random.default_rng(0)
        W = rng.gamma(1.0, 1.0, size=(3, 2))
        H = rng.gamma(1.0, 1.0, size=(2, 4))
        W_tilde, H_tilde = snf.absorb_scaling(W, H)
        assert np.allclose(W_tilde @ H_tilde, W @ H, rtol=1e-15)
        assert np.abs(W_tilde.sum(axis=0) - 1.0).max() <= 1e-15

    def test_zero_column(self):
        with pytest.raises(DegenerateColumnError):
            snf.absorb_scaling([[1.0, 0.0], [1.0, 0.0]], np.ones((2, 2)))


class TestDocumentScaleMaps:
    def test_single_topic_example(self):
        X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [3.0, 4.0]])
        _, H_new = snf.map_c1_to_c2(X, [[0.3], [0.7]], [[4.0, 6.0]])
        assert np.array_equal(H_new, [[1.0, 1.0]])

    def test_round_trip(self):
        X = random_count_matrix(1, n_terms=8, n_docs=5)
        rng = np.random.default_rng(1)
        W = rng.dirichlet(np.ones(8), size=3).T
        H = rng.gamma(1.0, 1.0, size=(3, 5))
        W2, H2 = snf.map_c1_to_c2(X, W, H)
        W3, H3 = snf.map_c2_to_c1(X, W2, H2)
        assert np.array_equal(W3, W)
        assert np.allclose(H3, H, rtol=1e-15)

    def test_zero_document_column(self):
        X = snf.TermDocMatrix.from_entries(2, 2, [(0, 0, 1.0)])
        with pytest.raises(DegenerateColumnError, match="document column 1"):
            snf.map_c1_to_c2(X, np.full((2, 1), 0.5), np.ones((1, 2)))


class TestSparseSolutionMap:
    def test_forward_halves(self):
        _, H = snf.map_sparse_solution(np.full((2, 1), 0.5), [[4.0, 6.0]], 1.0, "forward")
        assert np.array_equal(H, [[2.0, 3.0]])

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        H = rng.gamma(1.0, 1.0, size=(3, 4))
        W = rng.dirichlet(np.ones(5), size=3).T
        _, H_fwd = snf.map_sparse_solution(W, H, 0.7, "forward")
        _, H_back = snf.map_sparse_solution(W, H_fwd, 0.7, "inverse")
        assert np.allclose(H_back, H, rtol=1e-15)

    def test_objective_offset_identity(self):
        # penalized objective of the mapped pair minus the plain objective of
        # the original equals log(1 + lambda) * sum(X)
        lam = 0.9
        for seed in range(6):
            X = random_count_matrix(10 + seed, n_terms=9, n_docs=6)
            rng = np.random.default_rng(seed)
            W = rng.dirichlet(np.ones(9), size=3).T
            H = rng.gamma(1.0, 1.0, size=(3, 6)) + 0.1
            _, H_mapped = snf.map_sparse_solution(W, H, lam, "forward")
            offset = snf.sparse_objective(X, W, H_mapped, lam) - snf.kl_divergence(X, W, H)
            expected = np.log1p(lam) * X.total
            assert offset == pytest.approx(expected, rel=1e-10)


class TestGapLdaStateMap:
    def test_attach_rates(self):
        priors = snf.Priors(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        state = snf.VariationalState(np.ones((2, 3)))
        mapped = snf.map_gap_lda_state(state, priors, "to_gap")
        assert np.array_equal(mapped.b_rate, np.full((2, 1), 1.5))

    def test_round_trip_preserves_beta(self):
        priors = snf.Priors(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        state = snf.VariationalState(np.array([[1.0, 2.0], [3.0, 4.0]]))
        mapped = snf.map_gap_lda_state(state, priors, "to_gap")
        back = snf.map_gap_lda_state(mapped, priors, "to_lda")
        assert np.array_equal(back.beta, state.beta)
        assert back.b_rate is None

    def test_non_uniform_rate_warns(self):
        priors = snf.Priors(np.array([1.0, 2.0]), np.array([0.5, 0.9]))
        state = snf.VariationalState(np.ones((2, 3)))
        with pytest.warns(UserWarning, match="non-uniform"):
            snf.map_gap_lda_state(state, priors, "to_gap")


class TestPenaltyAbsorption:
    def test_l1_specializes_to_scaling_absorption(self):
        rng = np.random.default_rng(3)
        W = rng.gamma(1.0, 1.0, size=(4, 2))
        H = rng.gamma(1.0, 1.0, size=(2, 3))
        lam = 0.8
        W_tilde, H_tilde, scales, (general, constrained) = snf.absorb_penalty_general(
            W, H, 1.0, lambda M: lam * np.abs(M).sum()
        )
        W_ref, H_ref = snf.absorb_scaling(W, H)
        assert np.allclose(W_tilde, W_ref, rtol=1e-15)
        assert np.allclose(H_tilde, H_ref, rtol=1e-15)
        assert np.allclose(scales, np.abs(W).sum(axis=0), rtol=1e-15)
        assert general == pytest.approx(constrained, rel=1e-12)

    def test_l2_l1_competing_penalty_formula(self):
        # p=2, q=1: the absorbed penalty equals lambda * sum_k ||w_k||_2 ||h_k||_1
        rng = np.random.default_rng(4)
        W = rng.gamma(1.0, 1.0, size=(3, 2))
        H = rng.gamma(1.0, 1.0, size=(2, 4))
        lam = 0.6
        _, H_tilde, _, (general, _) = snf.absorb_penalty_general(
            W, H, 2.0, lambda M: lam * np.abs(M).sum()
        )
        explicit = lam * sum(
            np.linalg.norm(W[:, k]) * np.abs(H[k, :]).sum() for k in range(2)
        )
        assert general == pytest.approx(explicit, rel=1e-12)
        assert lam * np.abs(H_tilde).sum() == pytest.approx(explicit, rel=1e-12)

    def test_identity_when_already_normalized(self):
        rng = np.random.default_rng(5)
        W = rng.gamma(1.0, 1.0, size=(4, 2))
        W = W / np.sqrt((W ** 2).sum(axis=0, keepdims=True))
        H = rng.gamma(1.0, 1.0, size=(2, 3))
        W_tilde, H_tilde, scales, _ = snf.absorb_penalty_general(
            W, H, 2.0, lambda M: np.abs(M).sum()
        )
        assert np.allclose(W_tilde, W, rtol=1e-14)
        assert np.allclose(H_tilde, H, rtol=1e-14)
        assert np.allclose(scales, 1.0, rtol=1e-14)

    def test_full_objective_equality_with_data(self):
        X = random_count_matrix(6, n_terms=6, n_docs=5)
        rng = np.random.default_rng(6)
        W = rng.gamma(1.0, 1.0, size=(6, 3)) + 0.05
        H = rng.gamma(1.0, 1.0, size=(3, 5)) + 0.05
        for p, q in [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0)]:
            penalty = lambda M, q=q: 0.8 * (np.abs(M) ** q).sum()
            _, _, _, (general, constrained) = snf.absorb_penalty_general(
                W, H, p, penalty, X=X
            )
            assert abs(general - constrained) <= 1e-10 * max(1.0, abs(general))

    def test_zero_column_rejected(self):
        with pytest.raises(DegenerateColumnError):
            snf.absorb_penalty_general(
                np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones((2, 2)), 2.0, np.sum
            )

    @pytest.mark.parametrize("with_data", [False, True], ids=["penalty-only", "with-X"])
    @pytest.mark.parametrize("bad", ["negative-W", "negative-H", "nan-W", "inf-H"])
    def test_bad_factors_refused_with_or_without_data(self, with_data, bad):
        W, H = np.array([[1.0, 0.5], [0.5, 0.5]]), np.ones((2, 2))
        factor, value = {"negative-W": (W, -0.5), "negative-H": (H, -0.5),
                         "nan-W": (W, np.nan), "inf-H": (H, np.inf)}[bad]
        factor[0, 1] = value
        X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]]) if with_data else None
        with pytest.raises(ValueError, match="factor matrices must be finite and non-negative"):
            snf.absorb_penalty_general(W, H, 1.0, lambda M: float(np.abs(M).sum()), X=X)


class TestFixedPointResidual:
    def test_exact_fixed_point(self):
        rng = np.random.default_rng(7)
        W = rng.dirichlet(np.ones(6), size=2).T
        H = rng.gamma(2.0, 2.0, size=(2, 4)) + 0.5
        X = snf.TermDocMatrix.from_dense(W @ H)
        f = snf.Factorization(W, H, snf.ConstraintMode.W_SIMPLEX)
        assert snf.fixed_point_residual(X, "mu-joint", f) <= 1e-14 * max(1.0, H.max())

    def test_random_model_moves(self):
        X = random_count_matrix(8, n_terms=8, n_docs=5)
        _, f = shared_inits(X, 8, n_topics=3)
        assert snf.fixed_point_residual(X, "mu-joint", f) > 1e-6

    def test_variational_residual_requires_priors(self):
        X = random_count_matrix(9, n_terms=6, n_docs=4)
        with pytest.raises(ValueError, match="priors"):
            snf.fixed_point_residual(X, "lda", (np.ones((6, 1)), None))

    def test_unknown_method(self):
        X = random_count_matrix(10, n_terms=6, n_docs=4)
        with pytest.raises(ValueError, match="unknown method"):
            snf.fixed_point_residual(X, "bogus", None)

    def test_sparse_requires_its_weight(self):
        X = random_count_matrix(13, n_terms=6, n_docs=4)
        _, f = shared_inits(X, 13, n_topics=2)
        with pytest.raises(ValueError, match="'sparse' requires lambda_sparsity"):
            snf.fixed_point_residual(X, "sparse", f)

    @pytest.mark.parametrize("method", ["mu", "mu-joint", "plsa", "lda", "gap"])
    def test_weight_refused_for_other_methods(self, method):
        X = random_count_matrix(14, n_terms=6, n_docs=4)
        with pytest.raises(ValueError, match=f"'{method}' takes no lambda_sparsity"):
            snf.fixed_point_residual(X, method, None, lambda_sparsity=0.0)

    def test_converged_sparse_fit_reads_small_residual_with_its_weight(self):
        lam = 0.5
        X = planted_matrix(15, n_terms=20, n_docs=15, n_topics=3)
        config = snf.FitConfig(
            n_topics=3, method="sparse", lambda_sparsity=lam, max_iters=4000, rel_tolerance=1e-12, seed=1
        )
        f, _ = snf.fit(X, config)
        f, _ = refine_mu(X, lambda X_, m: snf.mu_step_sparse(X_, m, lam), f, 1e-12)
        assert snf.fixed_point_residual(X, "sparse", f, lambda_sparsity=lam) < 1e-10

    def test_transfer_between_constrained_solvers(self):
        # refine each constrained solver to a near-fixed point, rescale the
        # topic weights by the document totals, and verify the mapped model
        # barely moves under the partner stepper (both directions)
        X = planted_matrix(11, n_topics=3)
        config = snf.FitConfig(
            n_topics=3, method="mu-joint", max_iters=4000, rel_tolerance=1e-12, seed=1
        )
        f, _ = snf.fit(X, config)
        f, _ = refine_mu(X, lambda X_, m: snf.mu_step_joint_wnorm(X_, m), f, 1e-12)
        W_mapped, H_mapped = snf.map_c1_to_c2(X, f.W, f.H)
        H_cols, _ = snf.normalize_columns(H_mapped)
        mapped = snf.Factorization(W_mapped, H_cols, snf.ConstraintMode.BOTH_SIMPLEX)
        assert snf.fixed_point_residual(X, "plsa", mapped) < 1e-10

        config = snf.FitConfig(
            n_topics=3, method="plsa", max_iters=4000, rel_tolerance=1e-12, seed=1
        )
        f, _ = snf.fit(X, config)
        f, _ = refine_mu(X, lambda X_, m: snf.mu_step_joint_bothnorm(X_, m), f, 1e-12)
        W_mapped, H_mapped = snf.map_c2_to_c1(X, f.W, f.H)
        mapped = snf.Factorization(W_mapped, H_mapped, snf.ConstraintMode.W_SIMPLEX)
        assert snf.fixed_point_residual(X, "mu-joint", mapped) < 1e-10


@pytest.mark.parametrize("name", list(PAIRS))
def test_pair_deviations_within_tolerance(name):
    deviations, lines = PAIRS[name]
    X = random_count_matrix(12, n_terms=15, n_docs=10)
    steps = list(islice(deviations(X, 5), 20))
    assert len(steps) == 20
    for current in steps:
        assert len(current) == len(lines)
        for (line, tol), value in zip(lines, current):
            assert value <= (1e-12 if tol is None else tol), line
