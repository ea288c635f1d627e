"""Objective and bound evaluators against independent oracles."""

import itertools
import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import simplexnmf as snf
from simplexnmf.errors import DataError, InfiniteDivergenceError, UnrepresentableTermError

from helpers import random_count_matrix, random_simplex_pair

LOG2 = math.log(2.0)

# the oracles' special functions come from mpmath, not from the SciPy functions that specfun calls
psi = np.vectorize(lambda x: float(mp.digamma(x)))
gammaln = np.vectorize(lambda x: float(mp.loggamma(x)))


class TestKLDivergence:
    def test_zero_at_exact_reconstruction(self):
        rng = np.random.default_rng(0)
        W = rng.gamma(1.0, 1.0, size=(5, 2))
        H = rng.gamma(1.0, 1.0, size=(2, 4))
        X = snf.TermDocMatrix.from_dense(W @ H)
        assert abs(snf.kl_divergence(X, W, H)) <= 1e-10 * X.total

    def test_half_reconstruction(self):
        # X = I_2, WH identically 0.5: each positive entry gives log 2 - 0.5,
        # each zero entry +0.5, total 2 log 2 (brute-force oracle below)
        X = snf.TermDocMatrix.from_dense(np.eye(2))
        W = np.array([[0.5], [0.5]])
        H = np.array([[1.0, 1.0]])
        brute = sum(
            x * math.log(x / 0.5) - x + 0.5 if x > 0 else 0.5
            for x in np.eye(2).ravel()
        )
        assert brute == pytest.approx(2 * LOG2, abs=1e-14)
        assert snf.kl_divergence(X, W, H) == pytest.approx(brute, abs=1e-12)

    def test_single_cell(self):
        X = snf.TermDocMatrix.from_dense([[2.0]])
        assert snf.kl_divergence(X, [[1.0]], [[1.0]]) == pytest.approx(2 * LOG2 - 1.0, abs=1e-12)

    def test_infinite_divergence_error(self):
        X = snf.TermDocMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        W = np.array([[0.0], [1.0]])
        H = np.array([[1.0, 0.0]])
        with pytest.raises(InfiniteDivergenceError) as err:
            snf.kl_divergence(X, W, H)
        assert (err.value.term, err.value.doc) == (0, 1)


class TestPlsaLogLikelihood:
    def test_all_zeros(self):
        X = snf.TermDocMatrix.from_dense(np.zeros((2, 2)))
        assert snf.plsa_log_likelihood(X, np.full((2, 1), 0.5), np.ones((1, 2))) == 0.0

    def test_half_reconstruction(self):
        X = snf.TermDocMatrix.from_dense(np.eye(2))
        W = np.array([[0.5], [0.5]])
        H = np.array([[1.0, 1.0]])
        assert snf.plsa_log_likelihood(X, W, H) == pytest.approx(-2 * LOG2, abs=1e-12)

    def test_objective_identity_under_both_constraints(self):
        # with both factors column-normalized, sum_vd (WH)_vd = n_docs, so
        # kl + plsa_ll = sum x log x - sum x + n_docs for every such pair
        X = random_count_matrix(7, n_terms=12, n_docs=9)
        expected = float(np.sum(X.vals * np.log(X.vals) - X.vals)) + X.n_docs
        for seed in range(8):
            W, H = random_simplex_pair(seed, 12, 4, 9)
            value = snf.kl_divergence(X, W, H) + snf.plsa_log_likelihood(X, W, H)
            assert value == pytest.approx(expected, rel=1e-10)


class TestJointAux:
    def test_tight_at_anchor(self):
        X = random_count_matrix(1, n_terms=8, n_docs=6)
        counts_constant = float(np.sum(X.vals * np.log(X.vals) - X.vals))
        rng = np.random.default_rng(5)
        anchor = (rng.gamma(1.0, 1.0, size=(8, 3)), rng.gamma(1.0, 1.0, size=(3, 6)))
        value = snf.joint_aux(X, anchor, anchor)
        kl = snf.kl_divergence(X, *anchor)
        assert value + counts_constant == pytest.approx(kl, rel=1e-12)

    def test_majorizes_everywhere(self):
        X = random_count_matrix(2, n_terms=8, n_docs=6)
        counts_constant = float(np.sum(X.vals * np.log(X.vals) - X.vals))
        rng = np.random.default_rng(6)
        anchor = (rng.gamma(1.0, 1.0, size=(8, 3)), rng.gamma(1.0, 1.0, size=(3, 6)))
        for _ in range(100):
            candidate = (rng.gamma(1.0, 1.0, size=(8, 3)), rng.gamma(1.0, 1.0, size=(3, 6)))
            gap = snf.joint_aux(X, candidate, anchor) + counts_constant - snf.kl_divergence(X, *candidate)
            assert gap >= -1e-10 * max(1.0, abs(gap))

    def test_single_topic_scalar(self):
        # K = 1 responsibilities are identically one, so the bound is exact
        X = snf.TermDocMatrix.from_dense([[2.0]])
        counts_constant = 2 * math.log(2.0) - 2.0
        candidate = (np.array([[2.0]]), np.array([[3.0]]))
        anchor = (np.array([[1.0]]), np.array([[1.0]]))
        value = snf.joint_aux(X, candidate, anchor)
        assert value == pytest.approx(-2 * math.log(6.0) + 6.0, abs=1e-12)
        assert value + counts_constant == pytest.approx(snf.kl_divergence(X, *candidate), abs=1e-12)

    def test_zero_anchor_reconstruction(self):
        X = snf.TermDocMatrix.from_dense([[1.0]])
        with pytest.raises(InfiniteDivergenceError):
            snf.joint_aux(X, ([[1.0]], [[1.0]]), ([[0.0]], [[1.0]]))


def _half(*shape):
    return np.full(shape, 0.5)


# X = [[1, 2], [0, 3]] with a factor a row, a column or a topic off, which an evaluator
# would otherwise read past (an extra row counted in the totals, a topic dropped)
_TWO_TOPIC_PRIORS = snf.Priors(np.ones(2), np.ones(2))
_TWO_TOPIC_STATE = snf.VariationalState(np.ones((2, 2)), np.full((2, 1), 2.0))
MISSHAPEN = {
    "kl_divergence, a row too many in W": lambda X: snf.kl_divergence(X, _half(3, 2), _half(2, 2)),
    "kl_divergence, a column too many in H": lambda X: snf.kl_divergence(X, _half(2, 2), _half(2, 3)),
    "kl_divergence, a row too few in W": lambda X: snf.kl_divergence(X, _half(1, 2), _half(2, 2)),
    "sparse_objective": lambda X: snf.sparse_objective(X, _half(3, 2), _half(2, 2), 0.5),
    "plsa_log_likelihood, a topic too few in H": lambda X: snf.plsa_log_likelihood(X, _half(2, 2), _half(1, 2)),
    "joint_aux": lambda X: snf.joint_aux(X, (_half(3, 2), _half(2, 2)), (_half(3, 2), _half(2, 2))),
    "lda_elbo": lambda X: snf.lda_elbo(X, _half(3, 2), _TWO_TOPIC_PRIORS, _TWO_TOPIC_STATE),
    "gap_elbo": lambda X: snf.gap_elbo(X, _half(3, 2), _TWO_TOPIC_PRIORS, _TWO_TOPIC_STATE),
}


@pytest.mark.parametrize("evaluate", MISSHAPEN.values(), ids=MISSHAPEN.keys())
def test_misshapen_factors_are_refused(evaluate):
    X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
    with pytest.raises(ValueError, match=r"^factors of shapes \(.*\) and \(.*\) do not reconstruct a 2 x 2 matrix$"):
        evaluate(X)


@pytest.mark.parametrize("candidate", [(_half(3, 2), _half(2, 2)), (_half(2, 2), _half(2, 3)),
                                       (_half(2, 1), _half(1, 2))])
def test_joint_aux_refuses_a_candidate_unlike_its_anchor(candidate):
    X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
    with pytest.raises(ValueError, match=r"do not match the anchor's \(2, 2\) and \(2, 2\)$"):
        snf.joint_aux(X, candidate, (_half(2, 2), _half(2, 2)))


@pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
@pytest.mark.parametrize("factor", [0, 1])
def test_joint_aux_refuses_a_negative_or_non_finite_candidate(factor, bad):
    # a negative entry would reach the log of the candidate over the anchor as nan
    X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
    candidate = [_half(2, 2), _half(2, 2)]
    candidate[factor][0, 0] = bad
    with pytest.raises(ValueError, match="^candidate factors must be finite and non-negative$"):
        snf.joint_aux(X, tuple(candidate), (_half(2, 2), _half(2, 2)))


@pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
@pytest.mark.parametrize("factor", [0, 1])
def test_joint_aux_refuses_a_negative_or_non_finite_anchor(factor, bad):
    # a NaN anchor would reach the responsibilities and return nan
    X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
    anchor = [_half(2, 2), _half(2, 2)]
    anchor[factor][0, 0] = bad
    with pytest.raises(ValueError, match="^anchor factors must be finite and non-negative$"):
        snf.joint_aux(X, (_half(2, 2), _half(2, 2)), tuple(anchor))


# every evaluator and variational step that computes its own carry from the factors it is given,
# and both marginals, with the factors (W, H) that each one reads; H is a column for the marginals
_LDA_STATE = snf.VariationalState(np.ones((2, 2)))
FACTOR_READERS = {
    "kl_divergence": (lambda X, W, H: snf.kl_divergence(X, W, H), "WH"),
    "plsa_log_likelihood": (lambda X, W, H: snf.plsa_log_likelihood(X, W, H), "WH"),
    "sparse_objective": (lambda X, W, H: snf.sparse_objective(X, W, H, 0.5), "WH"),
    "lda_elbo": (lambda X, W, H: snf.lda_elbo(X, W, _TWO_TOPIC_PRIORS, _LDA_STATE), "W"),
    "gap_elbo": (lambda X, W, H: snf.gap_elbo(X, W, _TWO_TOPIC_PRIORS, _TWO_TOPIC_STATE), "W"),
    "dp_vi_step": (lambda X, W, H: snf.dp_vi_step(X, W, _TWO_TOPIC_PRIORS, _LDA_STATE), "W"),
    "gap_vi_step": (lambda X, W, H: snf.gap_vi_step(X, W, _TWO_TOPIC_PRIORS, _TWO_TOPIC_STATE), "W"),
    "poisson_marginal_loglik": (lambda X, W, H: snf.poisson_marginal_loglik([1.0, 2.0], W, H[:, 0]), "WH"),
    "multinomial_marginal_loglik": (
        lambda X, W, H: snf.multinomial_marginal_loglik([1.0, 2.0], W, H[:, 0], 3.0), "WH"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
@pytest.mark.parametrize("reader", FACTOR_READERS.values(), ids=FACTOR_READERS.keys())
def test_an_evaluator_refuses_a_non_finite_or_negative_factor_from_its_caller(reader, bad):
    # on the good factors each one returns; with one entry off, ValueError, not a value or a numerical failure
    evaluate, reads = reader
    X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
    W, H = np.array([[0.6, 0.5], [0.4, 0.5]]), np.array([[2.0, 1.0], [1.0, 1.0]])
    evaluate(X, W, H)
    for name in reads:
        W_bad, H_bad = W.copy(), H.copy()
        (W_bad if name == "W" else H_bad)[1, 0] = bad
        with pytest.raises(ValueError, match="^factor matrices must be finite and non-negative$"):
            evaluate(X, W_bad, H_bad)


@pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
def test_every_entry_point_refuses_a_negative_or_non_finite_lambda(lam):
    X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
    message = "^lambda_sparsity must be non-negative and finite$"
    with pytest.raises(ValueError, match=message):
        snf.FitConfig(n_topics=2, method="sparse", lambda_sparsity=lam)
    with pytest.raises(ValueError, match=message):
        snf.mu_step_sparse(X, snf.Factorization(_half(2, 2), np.ones((2, 2)), snf.ConstraintMode.W_SIMPLEX), lam)
    with pytest.raises(ValueError, match=message):
        snf.sparse_objective(X, _half(2, 2), np.ones((2, 2)), lam)
    model = snf.ModelFile(method="sparse", n_terms=2, n_docs=2, n_topics=2, constraint_mode="w-simplex",
                          W=_half(2, 2), H=np.ones((2, 2)), lambda_sparsity=lam)
    with pytest.raises(DataError, match="^schema violation at lambda_sparsity: must be non-negative and finite$"):
        model.validate()


def _elbo_explicit(X_dense, W, alpha, beta):
    """Brute-force bound with materialized responsibilities and mpmath specials."""
    elog = psi(beta) - psi(beta.sum(axis=0, keepdims=True))
    h_tilde = np.exp(elog)
    recon = W @ h_tilde
    phi = W[:, :, None] * h_tilde[None, :, :] / recon[:, None, :]
    total = 0.0
    V, K, D = phi.shape
    for v in range(V):
        for k in range(K):
            for d in range(D):
                if X_dense[v, d] > 0 and phi[v, k, d] > 0:
                    total += X_dense[v, d] * phi[v, k, d] * math.log(
                        W[v, k] * h_tilde[k, d] / phi[v, k, d]
                    )
    total += D * gammaln(alpha.sum()) - gammaln(beta.sum(axis=0)).sum()
    total += (gammaln(beta) - gammaln(alpha)[:, None] + (alpha[:, None] - beta) * elog).sum()
    return total


class TestLdaElbo:
    def test_single_topic_scalar_script(self):
        # K = 1: every responsibility and h~ is one and the Gamma terms cancel,
        # leaving sum_v,d x log w_v
        X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [3.0, 4.0]])
        W = np.array([[0.3], [0.7]])
        priors = snf.Priors(np.array([1.0]))
        state = snf.VariationalState(np.array([[5.0, 7.0]]))
        expected = (1 + 2) * math.log(0.3) + (3 + 4) * math.log(0.7)
        assert snf.lda_elbo(X, W, priors, state) == pytest.approx(expected, abs=1e-10)

    def test_matches_explicit_responsibility_oracle(self):
        X = random_count_matrix(9, n_terms=10, n_docs=6)
        rng = np.random.default_rng(9)
        W = rng.dirichlet(np.ones(10), size=3).T
        alpha = rng.uniform(0.3, 2.0, size=3)
        beta = rng.uniform(0.5, 8.0, size=(3, 6))
        ours = snf.lda_elbo(X, W, snf.Priors(alpha), snf.VariationalState(beta))
        brute = _elbo_explicit(X.to_dense(), W, alpha, beta)
        assert ours == pytest.approx(brute, rel=1e-10)

    def test_matched_parameters_cancel(self):
        # beta equal to alpha columnwise: the (alpha - beta) terms vanish and
        # the log-Gamma terms cancel pairwise, leaving only the mixture part
        X = random_count_matrix(10, n_terms=8, n_docs=5)
        rng = np.random.default_rng(10)
        W = rng.dirichlet(np.ones(8), size=3).T
        alpha = np.array([0.7, 1.3, 2.1])
        beta = np.tile(alpha[:, None], (1, 5))
        h_tilde = snf.expected_log_h_dirichlet(beta)
        mixture = float(np.sum(X.vals * np.log(snf.reconstruct_nonzeros(X, W, h_tilde))))
        value = snf.lda_elbo(X, W, snf.Priors(alpha), snf.VariationalState(beta))
        assert value == pytest.approx(mixture, rel=1e-12)

    def test_step_never_decreases_bound(self):
        for seed in range(20):
            X = random_count_matrix(100 + seed, n_terms=12, n_docs=8)
            priors = snf.Priors(np.full(3, 0.8))
            config = snf.FitConfig(n_topics=3, method="lda", seed=seed)
            W, state = snf.initialize_variational(X, config, priors, perturb=True)
            before = snf.lda_elbo(X, W, priors, state)
            W2, state2, _ = snf.dp_vi_step(X, W, priors, state)
            after = snf.lda_elbo(X, W2, priors, state2)
            assert after >= before - 1e-9 * max(1.0, abs(before))

    def test_unrepresentable_term(self):
        X = snf.TermDocMatrix.from_dense([[1.0], [1.0]])
        W = np.array([[0.0, 0.0], [0.6, 0.4]])  # term 0 carried by no topic
        priors = snf.Priors(np.ones(2))
        state = snf.VariationalState(np.ones((2, 1)))
        with pytest.raises(UnrepresentableTermError):
            snf.lda_elbo(X, W, priors, state)


class TestGapElbo:
    def test_single_topic_scalar_script(self):
        X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [3.0, 4.0]])
        W = np.array([[0.3], [0.7]])
        alpha, a = np.array([1.5]), np.array([0.8])
        beta = np.array([[5.0, 7.0]])
        b = np.full((1, 1), 1.8)
        # independent scalar evaluation of every term
        expected = 0.0
        for d, lam in enumerate([4.0, 6.0]):
            elog = psi(beta[0, d]) - math.log(b[0, 0])
            eh = beta[0, d] / b[0, 0]
            mixture = sum(
                X.to_dense()[v, d] * math.log(W[v, 0] * math.exp(elog)) for v in range(2)
            )
            expected += mixture - eh + alpha[0] * math.log(a[0]) - beta[0, d] * math.log(b[0, 0])
            expected += (
                gammaln(beta[0, d])
                - gammaln(alpha[0])
                + (alpha[0] - beta[0, d]) * elog
                + (b[0, 0] - a[0]) * eh
            )
        value = snf.gap_elbo(
            X, W, snf.Priors(alpha, a), snf.VariationalState(beta, b)
        )
        assert value == pytest.approx(expected, rel=1e-10)

    def test_matched_parameters_cancel(self):
        # (beta, b) = (alpha, a) columnwise: mismatch terms vanish, leaving the
        # mixture part minus sum E[h] plus the alpha log a - beta log b offset (zero)
        X = random_count_matrix(11, n_terms=8, n_docs=5)
        rng = np.random.default_rng(11)
        W = rng.dirichlet(np.ones(8), size=3).T
        alpha = np.array([0.7, 1.3, 2.1])
        a = np.array([0.9, 1.1, 1.4])
        beta = np.tile(alpha[:, None], (1, 5))
        b = a[:, None]
        h_tilde = snf.expected_log_h_gamma(beta, b)
        mixture = float(np.sum(X.vals * np.log(snf.reconstruct_nonzeros(X, W, h_tilde))))
        expected = mixture - float((beta / b).sum())
        value = snf.gap_elbo(X, W, snf.Priors(alpha, a), snf.VariationalState(beta, b))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_step_never_decreases_bound(self):
        for seed in range(20):
            X = random_count_matrix(200 + seed, n_terms=12, n_docs=8)
            priors = snf.Priors(np.full(3, 0.8), np.full(3, 1.2))
            config = snf.FitConfig(n_topics=3, method="gap", seed=seed)
            W, state = snf.initialize_variational(X, config, priors, perturb=True)
            before = snf.gap_elbo(X, W, priors, state)
            W2, state2, _ = snf.gap_vi_step(X, W, priors, state)
            after = snf.gap_elbo(X, W2, priors, state2)
            assert after >= before - 1e-9 * max(1.0, abs(before))

    def test_bound_from_terms_is_formed_in_place(self):
        # log_gamma(beta) alone peaks at about 5.1 K x D arrays; the terms added in place stay below that
        X = random_count_matrix(13, n_terms=40, n_docs=2000, mean=0.05)
        priors = snf.Priors(np.full(50, 0.5), np.full(50, 1.0))
        config = snf.FitConfig(n_topics=50, method="gap", seed=0)
        W, state = snf.initialize_variational(X, config, priors, perturb=True)
        terms = snf.objectives.gap_elbo_terms(X, W, state)
        tracemalloc.start()
        try:
            value = snf.gap_elbo(X, W, priors, state, terms=terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == snf.gap_elbo(X, W, priors, state)
        assert peak < 5.5 * state.beta.nbytes, f"peaked at {peak / state.beta.nbytes:.2f} x K x D x 8 bytes"

    def test_priors_without_rates_are_refused_before_any_term_is_computed(self, monkeypatch):
        from simplexnmf import objectives

        calls = []
        monkeypatch.setattr(objectives, "digamma", lambda x: calls.append("digamma"))
        monkeypatch.setattr(objectives, "reconstruct_nonzeros", lambda *args: calls.append("reconstruction"))
        X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
        W = np.array([[0.25, 0.5], [0.75, 0.5]])
        state = snf.VariationalState(np.ones((2, 2)), np.full((2, 1), 2.0))
        with pytest.raises(ValueError, match="^gap_elbo requires priors with rate_a$"):
            snf.gap_elbo(X, W, snf.Priors(np.ones(2)), state)
        assert calls == []

    def test_no_nan_on_valid_inputs(self):
        rng = np.random.default_rng(12)
        for seed in range(10):
            X = random_count_matrix(300 + seed, n_terms=9, n_docs=6)
            W = rng.dirichlet(np.ones(9), size=2).T
            alpha = rng.uniform(0.2, 3.0, size=2)
            a = rng.uniform(0.2, 3.0, size=2)
            beta = rng.uniform(0.1, 20.0, size=(2, 6))
            b = rng.uniform(0.1, 5.0, size=(2, 1))
            lda = snf.lda_elbo(X, W, snf.Priors(alpha), snf.VariationalState(beta))
            gap = snf.gap_elbo(X, W, snf.Priors(alpha, a), snf.VariationalState(beta, b))
            assert math.isfinite(lda) and math.isfinite(gap)


class TestMarginals:
    def test_poisson_hand_value(self):
        # (Wh) = (1, 0), x = (2, 0): mass e^{-1} / 2
        value = snf.poisson_marginal_loglik([2.0, 0.0], [[1.0], [0.0]], [1.0])
        assert value == pytest.approx(math.log(math.exp(-1) / 2), abs=1e-12)

    def test_poisson_zero_counts(self):
        rng = np.random.default_rng(13)
        W = rng.gamma(1.0, 1.0, size=(4, 2))
        h = rng.gamma(1.0, 1.0, size=2)
        assert snf.poisson_marginal_loglik(np.zeros(4), W, h) == pytest.approx(
            -float((W @ h).sum()), rel=1e-14
        )

    def test_poisson_mass_over_fixed_total(self):
        # for normalized W, h the total mass over all x with sum x = N is the
        # Poisson(1) weight e^{-1} / N!
        rng = np.random.default_rng(14)
        W = rng.dirichlet(np.ones(3), size=2).T
        h = rng.dirichlet(np.ones(2))
        for N in range(5):
            mass = sum(
                math.exp(snf.poisson_marginal_loglik(np.array(x, float), W, h))
                for x in itertools.product(range(N + 1), repeat=3)
                if sum(x) == N
            )
            assert mass == pytest.approx(math.exp(-1) / math.factorial(N), rel=1e-12)

    def test_multinomial_certain_outcome(self):
        value = snf.multinomial_marginal_loglik([2.0, 0.0], [[1.0], [0.0]], [1.0], 2)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_multinomial_hand_value(self):
        value = snf.multinomial_marginal_loglik(
            [1.0, 1.0], [[0.5], [0.5]], [1.0], 2
        )
        assert value == pytest.approx(math.log(0.5), abs=1e-12)

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="count mismatch"):
            snf.multinomial_marginal_loglik([1.0, 1.0], [[0.5], [0.5]], [1.0], 3)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_counts_rejected(self, bad):
        W, h = [[0.5], [0.5]], [1.0]
        with pytest.raises(ValueError, match="counts must be finite: count 0 is"):
            snf.poisson_marginal_loglik([bad, 1.0], W, h)
        with pytest.raises(ValueError, match="counts must be finite: count 0 is"):
            snf.multinomial_marginal_loglik([bad, 1.0], W, h, 2)

    def test_poisson_multinomial_offset(self):
        # normalized parameters: the log-marginals differ by log(e^{-1}/N!)
        # for every x, independent of (W, h)
        for seed in range(4):
            rng = np.random.default_rng(20 + seed)
            W = rng.dirichlet(np.ones(3), size=2).T
            h = rng.dirichlet(np.ones(2))
            for N in range(1, 5):
                for x in itertools.product(range(N + 1), repeat=3):
                    if sum(x) != N:
                        continue
                    x = np.array(x, float)
                    diff = snf.poisson_marginal_loglik(x, W, h) - snf.multinomial_marginal_loglik(x, W, h, N)
                    assert diff == pytest.approx(-1.0 - math.log(math.factorial(N)), abs=1e-12)


# (1, 0) reconstructs the two counts (1, 1): a positive count on a zero of the reconstruction
_ZERO_UNDER_A_COUNT = ([1.0, 1.0], [[1.0], [0.0]], [1.0])
_INFINITE_AT_1 = "infinite divergence: zero reconstruction under a positive count at (v=1)"


@pytest.mark.parametrize("refused, error, message", [
    pytest.param(
        lambda: snf.objectives.gap_elbo_terms(
            snf.TermDocMatrix.from_dense([[1.0, 2.0], [3.0, 0.0]]), np.full((2, 2), 0.5),
            snf.VariationalState(np.ones((2, 2)))),
        ValueError, "gap_elbo requires a state with b_rate", id="gap bound terms of a state without rates"),
    pytest.param(lambda: snf.poisson_marginal_loglik([-1.0, 1.0], [[0.5], [0.5]], [1.0]),
                 ValueError, "counts must be non-negative", id="a negative count in a marginal"),
    pytest.param(lambda: snf.poisson_marginal_loglik(*_ZERO_UNDER_A_COUNT),
                 InfiniteDivergenceError, _INFINITE_AT_1, id="poisson marginal of a zero under a count"),
    pytest.param(lambda: snf.multinomial_marginal_loglik(*_ZERO_UNDER_A_COUNT, 2),
                 InfiniteDivergenceError, _INFINITE_AT_1, id="multinomial marginal of a zero under a count"),
])
def test_each_refusal_names_its_fault(refused, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        refused()
