"""Variational steppers: expectations, updates, and the fit driver."""

import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import simplexnmf as snf
from simplexnmf.errors import DeadTopicError, UnrepresentableTermError

from helpers import random_count_matrix

mp.mp.dps = 30

EXP_NEG_GAMMA = float(mp.exp(-mp.euler))  # exp(psi(1))
PSI_2 = float(mp.digamma(2))
PSI_4 = float(mp.digamma(4))


class TestExpectedLogH:
    def test_dirichlet_single_topic_is_one(self):
        beta = np.array([[3.0, 7.5, 0.4]])
        assert np.array_equal(snf.expected_log_h_dirichlet(beta), np.ones((1, 3)))

    def test_dirichlet_symmetric_pair(self):
        # beta column (1, 1): exp(psi(1) - psi(2)) = exp(-1)
        h = snf.expected_log_h_dirichlet(np.ones((2, 1)))
        assert np.allclose(h, math.exp(-1.0), rtol=1e-13)

    def test_dirichlet_two_twos(self):
        h = snf.expected_log_h_dirichlet(np.full((2, 1), 2.0))
        assert np.allclose(h, math.exp(PSI_2 - PSI_4), rtol=1e-12)

    def test_dirichlet_values_in_unit_interval(self):
        rng = np.random.default_rng(0)
        beta = rng.uniform(0.2, 9.0, size=(4, 6))
        h = snf.expected_log_h_dirichlet(beta)
        assert np.all(h > 0) and np.all(h < 1)

    def test_gamma_unit_parameters(self):
        h = snf.expected_log_h_gamma(np.ones((1, 1)), np.ones((1, 1)))
        assert h[0, 0] == pytest.approx(EXP_NEG_GAMMA, rel=1e-13)

    def test_gamma_two_two(self):
        expected = float(mp.exp(mp.digamma(2)) / 2)
        h = snf.expected_log_h_gamma(np.full((1, 1), 2.0), np.full((1, 1), 2.0))
        assert h[0, 0] == pytest.approx(expected, rel=1e-13)

    def test_gamma_rate_scaling(self):
        rng = np.random.default_rng(1)
        beta = rng.uniform(0.3, 8.0, size=(3, 4))
        b = rng.uniform(0.3, 4.0, size=(3, 4))
        base = snf.expected_log_h_gamma(beta, b)
        assert np.array_equal(snf.expected_log_h_gamma(beta, 2.0 * b), base / 2.0)
        assert np.allclose(snf.expected_log_h_gamma(beta, 1.7 * b), base / 1.7, rtol=1e-15)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            snf.expected_log_h_dirichlet(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            snf.expected_log_h_gamma(np.ones((1, 1)), np.zeros((1, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_a_non_finite_or_non_positive_entry_is_refused(self, bad):
        # beta as a VariationalState checks it; the rates, a column or a K x D array, finite and positive
        beta = np.ones((2, 3))
        off = beta.copy()
        off[1, 2] = bad
        with pytest.raises(ValueError, match="^beta must be a strictly positive, finite 2-d array$"):
            snf.expected_log_h_dirichlet(off)
        with pytest.raises(ValueError, match="^beta must be a strictly positive, finite 2-d array$"):
            snf.expected_log_h_gamma(off, np.ones((2, 1)))
        for rates in (np.array([[1.0], [bad]]), off):
            with pytest.raises(ValueError, match="^b_rate must be strictly positive"):
                snf.expected_log_h_gamma(beta, rates)

    def test_gamma_takes_a_column_of_per_topic_rates(self):
        # the K x 1 column a gap state holds gives the h~ of its broadcast over the documents
        rng = np.random.default_rng(2)
        beta = rng.uniform(0.3, 8.0, size=(3, 4))
        b = rng.uniform(0.3, 4.0, size=(3, 1))
        h = snf.expected_log_h_gamma(beta, b)
        assert np.array_equal(h, snf.expected_log_h_gamma(beta, np.tile(b, (1, 4))))
        for shape in [(3, 2), (1, 4), (4, 1), (3,)]:
            with pytest.raises(ValueError, match="b_rate"):
                snf.expected_log_h_gamma(beta, np.ones(shape))


class TestDpStep:
    def test_single_topic_shape_update(self):
        # K=1: responsibilities are one, so beta' = alpha + document totals
        X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [3.0, 4.0]])
        W = np.array([[0.3], [0.7]])
        priors = snf.Priors(np.array([0.5]))
        state = snf.VariationalState(np.array([[2.0, 9.0]]))
        _, new_state, evals = snf.dp_vi_step(X, W, priors, state)
        assert np.allclose(new_state.beta, [[4.5, 6.5]], rtol=1e-13)
        assert evals == 1

    def test_matches_explicit_responsibility_reference(self):
        X = random_count_matrix(2, n_terms=12, n_docs=8)
        dense = X.to_dense()
        rng = np.random.default_rng(2)
        W = rng.dirichlet(np.ones(12), size=3).T
        priors = snf.Priors(np.array([0.6, 1.1, 0.9]))
        beta = rng.uniform(0.5, 6.0, size=(3, 8))
        W_ref, beta_ref = W.copy(), beta.copy()
        state = snf.VariationalState(beta)
        for _ in range(30):
            W, state, _ = snf.dp_vi_step(X, W, priors, state, epsilon_floor=0.0)
            W_ref, beta_ref = snf.lda_vi_step_reference(dense, W_ref, priors.alpha, beta_ref)
            assert np.abs(W - W_ref).max() <= 1e-12
            assert np.abs(state.beta - beta_ref).max() <= 1e-12

    def test_beta_column_sums(self):
        # sum_k beta'_kd = sum_k alpha_k + lambda_d because responsibilities
        # sum to one within each word
        X = random_count_matrix(3, n_terms=12, n_docs=8)
        rng = np.random.default_rng(3)
        W = rng.dirichlet(np.ones(12), size=4).T
        priors = snf.Priors(rng.uniform(0.3, 2.0, size=4))
        state = snf.VariationalState(rng.uniform(0.5, 5.0, size=(4, 8)))
        _, new_state, _ = snf.dp_vi_step(X, W, priors, state)
        expected = priors.alpha.sum() + X.col_sums
        assert np.allclose(new_state.beta.sum(axis=0), expected, rtol=1e-12)

    def test_zero_matrix_collapses_topics(self):
        X = snf.TermDocMatrix.from_dense(np.zeros((3, 2)))
        rng = np.random.default_rng(4)
        W = rng.dirichlet(np.ones(3), size=2).T
        priors = snf.Priors(np.ones(2))
        state = snf.VariationalState(np.ones((2, 2)))
        with pytest.raises(DeadTopicError):
            snf.dp_vi_step(X, W, priors, state)


class TestGapStep:
    def test_requires_rates(self):
        X = random_count_matrix(5, n_terms=6, n_docs=4)
        rng = np.random.default_rng(5)
        W = rng.dirichlet(np.ones(6), size=2).T
        priors = snf.Priors(np.ones(2), np.ones(2))
        with pytest.raises(ValueError, match="b_rate"):
            snf.gap_vi_step(X, W, priors, snf.VariationalState(np.ones((2, 4))))

    def test_rate_initialization(self):
        X = random_count_matrix(6, n_terms=6, n_docs=4)
        priors = snf.Priors(np.array([0.5, 1.5]), np.array([0.4, 2.0]))
        config = snf.FitConfig(n_topics=2, method="gap", seed=0)
        _, state = snf.initialize_variational(X, config, priors)
        assert np.array_equal(state.b_rate, 1.0 + priors.rate_a[:, None])

    def test_single_topic_shape_update(self):
        X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [3.0, 4.0]])
        W = np.array([[0.3], [0.7]])
        priors = snf.Priors(np.array([0.5]), np.array([1.0]))
        state = snf.VariationalState(np.array([[2.0, 9.0]]), np.full((1, 1), 2.0))
        _, new_state, _ = snf.gap_vi_step(X, W, priors, state)
        assert np.allclose(new_state.beta, [[4.5, 6.5]], rtol=1e-13)
        assert np.array_equal(new_state.b_rate, state.b_rate)

    def test_rates_are_shared_not_copied(self):
        X = random_count_matrix(5, n_terms=6, n_docs=4)
        priors = snf.Priors(np.full(2, 1.0), np.full(2, 0.5))
        W, state = snf.initialize_variational(X, snf.FitConfig(n_topics=2, method="gap"), priors)
        _, state2, _ = snf.gap_vi_step(X, W, priors, state)
        assert np.shares_memory(state2.b_rate, state.b_rate)
        # a writable input, or a read-only view, is still copied
        rates = np.array(state.b_rate)
        assert not np.shares_memory(snf.VariationalState(state.beta, rates).b_rate, rates)
        rates.setflags(write=False)
        view = rates[:, :]
        assert not np.shares_memory(snf.VariationalState(state.beta, view).b_rate, view)

    def test_uniform_rate_matches_dirichlet_iterates(self):
        # with a_k = a, the two h~ differ per document by a constant that
        # cancels, so the (W, beta) iterates coincide from the first step on
        X = random_count_matrix(7, n_terms=12, n_docs=8)
        rng = np.random.default_rng(7)
        W_lda = rng.dirichlet(np.ones(12), size=3).T
        W_gap = W_lda.copy()
        beta0 = rng.uniform(0.5, 6.0, size=(3, 8))
        priors_lda = snf.Priors(np.array([0.6, 1.1, 0.9]))
        priors_gap = snf.Priors(np.array([0.6, 1.1, 0.9]), np.full(3, 1.4))
        state_lda = snf.VariationalState(beta0)
        state_gap = snf.VariationalState(beta0, np.full((3, 1), 2.4))
        for _ in range(30):
            W_lda, state_lda, _ = snf.dp_vi_step(X, W_lda, priors_lda, state_lda, epsilon_floor=0.0)
            W_gap, state_gap, _ = snf.gap_vi_step(X, W_gap, priors_gap, state_gap, epsilon_floor=0.0)
            assert np.abs(W_lda - W_gap).max() <= 1e-12
            scale = np.maximum(1.0, np.abs(state_lda.beta))
            assert (np.abs(state_lda.beta - state_gap.beta) / scale).max() <= 1e-12


class TestFitVi:
    def test_single_iteration(self):
        X = random_count_matrix(8, n_terms=10, n_docs=6)
        priors = snf.Priors(np.full(3, 0.8))
        config = snf.FitConfig(n_topics=3, method="lda", max_iters=1, seed=1)
        _, _, trace = snf.fit_vi(X, config, priors)
        assert trace.n_iterations == 1
        assert set(trace.recon_evals) == {1}

    def test_bound_monotone_over_full_runs(self):
        for seed in range(8):
            X = random_count_matrix(60 + seed, n_terms=12, n_docs=8)
            priors = snf.Priors(np.full(3, 0.7), np.full(3, 1.1))
            for method in ("lda", "gap"):
                config = snf.FitConfig(n_topics=3, method=method, max_iters=40, seed=seed)
                _, _, trace = snf.fit_vi(X, config, priors)
                for before, after in zip(trace.objectives, trace.objectives[1:]):
                    assert after >= before - 1e-9 * max(1.0, abs(before))

    def test_uniform_rate_full_fits_coincide(self):
        X = random_count_matrix(9, n_terms=12, n_docs=8)
        priors = snf.Priors(np.array([0.5, 0.9, 1.3]), np.full(3, 1.0))
        config_lda = snf.FitConfig(n_topics=3, method="lda", max_iters=60, seed=11)
        config_gap = snf.FitConfig(n_topics=3, method="gap", max_iters=60, seed=11)
        W_lda, state_lda, _ = snf.fit_vi(X, config_lda, priors)
        W_gap, state_gap, _ = snf.fit_vi(X, config_gap, priors)
        assert np.abs(W_lda - W_gap).max() <= 1e-11
        scale = np.maximum(1.0, np.abs(state_lda.beta))
        assert (np.abs(state_lda.beta - state_gap.beta) / scale).max() <= 1e-11
        assert np.array_equal(state_gap.b_rate, np.full((3, 1), 2.0))

    def test_mu_methods_rejected(self):
        X = random_count_matrix(10, n_terms=8, n_docs=5)
        priors = snf.Priors(np.ones(2))
        with pytest.raises(ValueError, match="fit handles|fit_vi handles"):
            snf.fit_vi(X, snf.FitConfig(n_topics=2, method="mu"), priors)

    def test_deterministic_given_seed(self):
        X = random_count_matrix(11, n_terms=8, n_docs=5)
        priors = snf.Priors(np.full(2, 0.9))
        config = snf.FitConfig(n_topics=2, method="lda", max_iters=15, seed=21)
        W1, s1, t1 = snf.fit_vi(X, config, priors)
        W2, s2, t2 = snf.fit_vi(X, config, priors)
        assert np.array_equal(W1, W2)
        assert np.array_equal(s1.beta, s2.beta)
        assert t1.objectives == t2.objectives

    @pytest.mark.parametrize("method", ["lda", "gap"])
    def test_previous_state_is_freed_before_the_next_is_evaluated(self, method):
        # 20 x 4000 cells against about 16k entries, so the peak is counted in K x D float64 arrays:
        # keeping the previous beta, h~ and (W h~) through the next bound took it past 10 of them
        rng = np.random.default_rng(0)
        rows, cols = np.nonzero(rng.random((400, 4000)) < 0.01)
        X = snf.TermDocMatrix.from_arrays(400, 4000, rows, cols, rng.integers(1, 4, size=rows.size))
        config = snf.FitConfig(n_topics=20, method=method, max_iters=3, rel_tolerance=1e-300)
        tracemalloc.start()
        try:
            _, _, trace = snf.fit_vi(X, config, snf.Priors(np.ones(20), np.ones(20)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.n_iterations == 3
        assert peak < 8.5 * 20 * 4000 * 8, f"peaked at {peak / (20 * 4000 * 8):.2f} x K x D x 8 bytes"


def test_non_finite_bound_is_an_error(monkeypatch):
    from simplexnmf import objectives
    from simplexnmf.errors import NumericalError

    X = random_count_matrix(13, n_terms=8, n_docs=5)
    monkeypatch.setattr(objectives, "lda_elbo", lambda X_, W, priors, state, terms=None: float("nan"))
    config = snf.FitConfig(n_topics=2, method="lda", max_iters=5, seed=1)
    with pytest.raises(NumericalError, match="non-finite initial objective nan"):
        snf.fit_vi(X, config, snf.Priors(np.full(2, 0.9)))


@pytest.mark.parametrize("method", ["lda", "gap"])
def test_unrepresentable_term_fails_as_in_the_bound(method):
    # a step that computes its own (W h~) raises what the bound raises on the same state
    X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [3.0, 0.0], [0.0, 1.0]])
    W = np.array([[0.0, 0.0], [0.5, 0.25], [0.5, 0.75]])  # term 0 carried by no topic
    priors = snf.Priors(np.ones(2), np.ones(2))
    state = snf.VariationalState(np.ones((2, 2)), np.full((2, 1), 2.0) if method == "gap" else None)
    bound, step = {"lda": (snf.lda_elbo, snf.dp_vi_step), "gap": (snf.gap_elbo, snf.gap_vi_step)}[method]
    with pytest.raises(UnrepresentableTermError, match="term 0"):
        bound(X, W, priors, state)
    with pytest.raises(UnrepresentableTermError, match="term 0"):
        step(X, W, priors, state)
    with pytest.raises(UnrepresentableTermError, match="term 0"):
        snf.fixed_point_residual(X, method, (W, state), priors)


# one-topic priors on a two-topic state, whose alpha would otherwise broadcast over both topics
ONE_TOPIC_PRIORS = snf.Priors(np.ones(1), np.ones(1))
OTHER_TOPIC_COUNT = {
    "lda_elbo": lambda X, W, state: snf.lda_elbo(X, W, ONE_TOPIC_PRIORS, state),
    "gap_elbo": lambda X, W, state: snf.gap_elbo(X, W, ONE_TOPIC_PRIORS, state),
    "dp_vi_step": lambda X, W, state: snf.dp_vi_step(X, W, ONE_TOPIC_PRIORS, state),
    "gap_vi_step": lambda X, W, state: snf.gap_vi_step(X, W, ONE_TOPIC_PRIORS, state),
    "fixed_point_residual lda": lambda X, W, state: snf.fixed_point_residual(X, "lda", (W, state), ONE_TOPIC_PRIORS),
    "fixed_point_residual gap": lambda X, W, state: snf.fixed_point_residual(X, "gap", (W, state), ONE_TOPIC_PRIORS),
}


@pytest.mark.parametrize("call", OTHER_TOPIC_COUNT.values(), ids=OTHER_TOPIC_COUNT.keys())
def test_priors_of_another_topic_count_are_refused(call):
    X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
    W = np.array([[0.25, 0.5], [0.75, 0.5]])
    state = snf.VariationalState(np.ones((2, 2)), np.full((2, 1), 2.0))
    with pytest.raises(ValueError, match=r"^priors have 1 topics, the state has 2$"):
        call(X, W, state)


@pytest.mark.parametrize("step", [snf.dp_vi_step, snf.gap_vi_step])
def test_a_misshapen_w_is_refused_by_the_step(step):
    X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
    W = np.full((3, 2), 1.0 / 3.0)  # a term too many
    state = snf.VariationalState(np.ones((2, 2)), np.full((2, 1), 2.0))
    with pytest.raises(ValueError, match=r"^factors of shapes \(3, 2\) and \(2, 2\) do not reconstruct a 2 x 2 matrix$"):
        step(X, W, snf.Priors(np.ones(2), np.ones(2)), state)


@pytest.mark.parametrize("method, n_topics, message", [
    ("mu", 2, "initialize_variational handles methods ('lda', 'gap')"),
    ("lda", 3, "priors have 2 topics, config expects 3"),
    ("gap", 2, "the gap method requires priors with rate_a"),
])
def test_the_variational_start_refuses_what_it_cannot_start(method, n_topics, message):
    # the priors have two topics and no rate_a
    X = random_count_matrix(23, n_terms=6, n_docs=4)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        snf.initialize_variational(X, snf.FitConfig(n_topics=n_topics, method=method), snf.Priors(np.ones(2)))
