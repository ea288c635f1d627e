"""Core containers and the reconstruction evaluator."""

import numpy as np
import pytest

import simplexnmf as snf
from simplexnmf.errors import DataError, DegenerateColumnError

from helpers import random_count_matrix


class TestReconstructAt:
    def test_identity_like_product(self):
        W = np.array([[1.0, 0.0], [0.0, 1.0]])
        H = np.array([[2.0, 0.0], [0.0, 3.0]])
        assert snf.reconstruct_at(W, H, 0, 0) == 2.0

    def test_single_topic_product(self):
        W = np.array([[0.5], [0.5]])
        H = np.array([[4.0, 6.0]])
        assert snf.reconstruct_at(W, H, 1, 1) == pytest.approx(3.0)

    def test_zero_column(self):
        W = np.array([[0.3], [0.7]])
        H = np.array([[0.0]])
        assert snf.reconstruct_at(W, H, 0, 0) == 0.0
        assert snf.reconstruct_at(W, H, 1, 0) == 0.0

    def test_out_of_range(self):
        W = np.ones((2, 1))
        H = np.ones((1, 2))
        with pytest.raises(IndexError):
            snf.reconstruct_at(W, H, 2, 0)
        with pytest.raises(IndexError):
            snf.reconstruct_at(W, H, 0, -1)

    def test_scaling_ambiguity(self):
        rng = np.random.default_rng(0)
        W = rng.gamma(1.0, 1.0, size=(6, 3))
        H = rng.gamma(1.0, 1.0, size=(3, 4))
        scales = rng.uniform(0.1, 10.0, size=3)
        for v, d in [(0, 0), (5, 3), (2, 1)]:
            plain = snf.reconstruct_at(W, H, v, d)
            scaled = snf.reconstruct_at(W * scales[None, :], H / scales[:, None], v, d)
            assert abs(plain - scaled) <= 1e-12 * max(1.0, plain)


class TestColumnSums:
    def test_small(self):
        assert np.array_equal(snf.column_sums([[1.0, 2.0], [3.0, 4.0]]), [4.0, 6.0])

    def test_zero_matrix(self):
        assert np.array_equal(snf.column_sums(np.zeros((3, 2))), [0.0, 0.0])

    def test_single_column(self):
        assert np.array_equal(snf.column_sums([[0.3], [0.7]]), [1.0])


class TestNormalizeColumns:
    def test_basic(self):
        out, scales = snf.normalize_columns([[2.0], [2.0]])
        assert np.array_equal(out, [[0.5], [0.5]])
        assert np.array_equal(scales, [4.0])

    def test_idempotent(self):
        M = np.array([[0.25, 0.0], [0.75, 1.0]])
        out, scales = snf.normalize_columns(M)
        assert np.array_equal(out, M)
        assert np.array_equal(scales, [1.0, 1.0])

    def test_hand_division(self):
        out, scales = snf.normalize_columns([[1.0, 0.0], [3.0, 2.0]])
        assert np.allclose(out, [[0.25, 0.0], [0.75, 1.0]], rtol=0, atol=1e-15)
        assert np.array_equal(scales, [4.0, 2.0])

    def test_product_preserving(self):
        rng = np.random.default_rng(1)
        M = rng.gamma(1.0, 1.0, size=(7, 4))
        out, scales = snf.normalize_columns(M)
        assert np.allclose(out * scales[None, :], M, rtol=1e-15, atol=0)

    def test_degenerate_column(self):
        with pytest.raises(DegenerateColumnError, match="column 1"):
            snf.normalize_columns([[1.0, 0.0], [1.0, 0.0]])


class TestTermDocMatrix:
    def test_from_entries_round_trip(self):
        X = snf.TermDocMatrix.from_entries(3, 2, [(0, 0, 1.0), (2, 1, 4.0), (1, 1, 2.5)])
        dense = X.to_dense()
        assert dense[0, 0] == 1.0 and dense[2, 1] == 4.0 and dense[1, 1] == 2.5
        assert X.nnz == 3
        again = snf.TermDocMatrix.from_dense(dense)
        assert np.array_equal(again.vals, X.vals)

    def test_zero_entries_dropped(self):
        X = snf.TermDocMatrix.from_entries(2, 2, [(0, 0, 0.0), (1, 1, 3.0)])
        assert X.nnz == 1

    def test_cached_column_sums_exact(self):
        X = random_count_matrix(3)
        assert np.array_equal(X.col_sums, X.recompute_column_sums())
        assert np.allclose(X.col_sums, X.to_dense().sum(axis=0), rtol=1e-15)

    def test_duplicate_entry(self):
        with pytest.raises(DataError, match="duplicate"):
            snf.TermDocMatrix.from_entries(2, 2, [(0, 0, 1.0), (0, 0, 2.0)])

    def test_negative_count(self):
        with pytest.raises(DataError, match="negative"):
            snf.TermDocMatrix.from_entries(2, 2, [(0, 0, -1.0)])

    def test_index_out_of_range(self):
        with pytest.raises(DataError, match="out of range"):
            snf.TermDocMatrix.from_entries(2, 2, [(2, 0, 1.0)])

    def test_columns_may_be_empty(self):
        # all-zero documents are legal in the container; only ingestion rejects them
        X = snf.TermDocMatrix.from_entries(2, 3, [(0, 0, 1.0)])
        assert X.col_sums[1] == 0.0


class TestFactorization:
    def test_mode_validation(self):
        W = np.array([[0.5, 1.0], [0.5, 0.0]])
        H = np.ones((2, 3))
        f = snf.Factorization(W, H, snf.ConstraintMode.W_SIMPLEX)
        assert f.n_topics == 2 and f.n_terms == 2 and f.n_docs == 3
        with pytest.raises(ValueError, match="sums to"):
            snf.Factorization(W * 2.0, H, snf.ConstraintMode.W_SIMPLEX)
        with pytest.raises(ValueError, match="sums to"):
            snf.Factorization(W, H, snf.ConstraintMode.BOTH_SIMPLEX)

    def test_negativity_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            snf.Factorization(np.array([[-0.1]]), np.array([[1.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            snf.Factorization(np.ones((2, 2)), np.ones((3, 2)))

    def test_arrays_read_only(self):
        f = snf.Factorization(np.ones((2, 1)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            f.W[0, 0] = 7.0


class TestConfigAndState:
    def test_fit_config_validation(self):
        with pytest.raises(ValueError):
            snf.FitConfig(n_topics=2, max_iters=0)
        with pytest.raises(ValueError):
            snf.FitConfig(n_topics=2, rel_tolerance=0.0)
        with pytest.raises(ValueError):
            snf.FitConfig(n_topics=2, lambda_sparsity=-0.5)
        with pytest.raises(ValueError):
            snf.FitConfig(n_topics=2, method="nope")
        with pytest.raises(ValueError):
            snf.FitConfig(n_topics=0)
        snf.FitConfig(n_topics=2, max_iters=1)

    def test_priors_validation(self):
        with pytest.raises(ValueError):
            snf.Priors(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            snf.Priors(np.array([1.0, 1.0]), np.array([1.0, -1.0]))
        p = snf.Priors(np.array([0.5, 0.5]), np.array([1.0, 2.0]))
        assert p.n_topics == 2

    def test_variational_state_validation(self):
        with pytest.raises(ValueError):
            snf.VariationalState(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            snf.VariationalState(np.ones((2, 2)), np.zeros((2, 2)))
        s = snf.VariationalState(np.ones((2, 3)))
        assert s.n_topics == 2 and s.n_docs == 3


class TestSparseEvaluator:
    def test_reconstruct_nonzeros_matches_dense(self):
        X = random_count_matrix(5, n_terms=9, n_docs=7)
        rng = np.random.default_rng(2)
        W = rng.gamma(1.0, 1.0, size=(9, 3))
        H = rng.gamma(1.0, 1.0, size=(3, 7))
        dense = (W @ H)[X.rows, X.cols]
        assert np.allclose(snf.reconstruct_nonzeros(X, W, H), dense, rtol=1e-14)

    def test_column_sum_closed_form(self):
        rng = np.random.default_rng(3)
        W = rng.gamma(1.0, 1.0, size=(9, 3))
        H = rng.gamma(1.0, 1.0, size=(3, 7))
        assert np.allclose(snf.reconstruction_column_sums(W, H), (W @ H).sum(axis=0), rtol=1e-13)
        assert snf.reconstruction_total(W, H) == pytest.approx((W @ H).sum(), rel=1e-13)
        # with W column-normalized, the column sums collapse to the column sums of H
        Wn, _ = snf.normalize_columns(W)
        assert np.allclose(snf.reconstruction_column_sums(Wn, H), H.sum(axis=0), rtol=1e-12)

    def test_accumulators_thread_invariant(self):
        # > 2 shards so threading actually matters; reduction order is fixed
        rng = np.random.default_rng(4)
        dense = (rng.random((4, 2500)) < 0.3) * rng.poisson(2.0, size=(4, 2500))
        X = snf.TermDocMatrix.from_dense(dense.astype(float))
        W = rng.gamma(1.0, 1.0, size=(4, 3))
        H = rng.gamma(1.0, 1.0, size=(3, 2500))
        weights = rng.gamma(1.0, 1.0, size=X.nnz)
        a1 = snf.types.term_topic_sums(X, weights, H, n_threads=1)
        a4 = snf.types.term_topic_sums(X, weights, H, n_threads=4)
        assert np.array_equal(a1, a4)
        b1 = snf.types.topic_doc_sums(X, weights, W, n_threads=1)
        b4 = snf.types.topic_doc_sums(X, weights, W, n_threads=4)
        assert np.array_equal(b1, b4)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_from_entries(self, value):
        with pytest.raises(DataError, match=r"non-finite count at entry \(1, 0\)"):
            snf.TermDocMatrix.from_entries(2, 2, [(0, 0, 1.0), (1, 0, value)])

    def test_factorization(self):
        with pytest.raises(ValueError, match="finite"):
            snf.Factorization(np.array([[np.nan]]), np.array([[1.0]]))
        with pytest.raises(ValueError, match="finite"):
            snf.Factorization(np.array([[1.0]]), np.array([[np.inf]]))

    def test_variational_state_and_priors(self):
        with pytest.raises(ValueError, match="beta"):
            snf.VariationalState(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="b_rate"):
            snf.VariationalState(np.ones((1, 2)), np.array([[1.0, np.inf]]))
        with pytest.raises(ValueError, match="alpha"):
            snf.Priors(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="rate_a"):
            snf.Priors(np.array([1.0, 1.0]), np.array([np.inf, 1.0]))
