"""Multiplicative-update steppers and the fit driver."""

import inspect
import re
import weakref
from functools import partial

import numpy as np
import pytest

import simplexnmf as snf
from simplexnmf import mu
from simplexnmf import objectives
from simplexnmf import vi
from simplexnmf.errors import DeadTopicError, DegenerateColumnError, MonotonicityError
from simplexnmf.errors import NumericalError
from simplexnmf.types import METHOD_SPECS

from helpers import after_the_start, planted_matrix, random_count_matrix, shared_inits, zero_block_matrix

# document 1 has no entries and term 2 none either
EMPTY_DOC_1 = [[2.0, 0.0, 3.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]


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


def _priors(method, n_topics, alpha=1.0, rate_a=1.0):
    """The priors ``fit`` takes for ``method``, uniform: ``None`` for a multiplicative method."""
    spec = METHOD_SPECS[method]
    if not spec.variational:
        return None
    return snf.Priors(np.full(n_topics, alpha), np.full(n_topics, rate_a) if spec.uses_rates else None)


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
        assert snf.kl_divergence(X, out.factorization.W, out.factorization.H) == pytest.approx(0.0, abs=1e-12)

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

    def test_empty_document_is_named_as_a_document(self):
        X = snf.TermDocMatrix.from_dense(EMPTY_DOC_1)
        with pytest.raises(DegenerateColumnError, match=r"^degenerate document 1$") as info:
            snf.fit(X, snf.FitConfig(n_topics=2, method="plsa"))
        assert isinstance(info.value, NumericalError) and info.value.column == 1


@pytest.mark.parametrize("method", snf.METHODS)
def test_every_stepper_floors_at_the_one_constant(method):
    spec = METHOD_SPECS[method]
    default = inspect.signature(spec.function(spec.stepper)).parameters["epsilon_floor"].default
    assert default is mu.EPSILON_FLOOR


@pytest.mark.parametrize("method", [m for m in snf.METHODS if m != "plsa"])
def test_other_methods_fit_an_empty_document(method):
    X = snf.TermDocMatrix.from_dense(EMPTY_DOC_1)
    config = snf.FitConfig(n_topics=2, method=method, max_iters=30, lambda_sparsity=0.5 * (method == "sparse"))
    if method in snf.VI_METHODS:
        W, state, trace = snf.fit_vi(X, config, snf.Priors(np.ones(2), np.ones(2) if method == "gap" else None))
        assert np.all(np.isfinite(state.beta))
    else:
        f, trace = snf.fit(X, config)
        W = f.W
        assert not f.H[:, 1].any()
    assert np.all(np.isfinite(W)) and np.all(np.isfinite(trace.objectives))


@pytest.mark.parametrize("method", snf.METHODS)
def test_every_fit_keeps_its_iterates_in_c_order(method):
    # column sums round according to the layout, and the joint update's
    # topic x document sums arrive transposed
    X = random_count_matrix(4, n_terms=12, n_docs=9)
    config = snf.FitConfig(n_topics=3, method=method, max_iters=2, lambda_sparsity=0.5 * (method == "sparse"))
    priors = _priors(method, 3)
    state, _ = snf.fit(X, config, priors)
    arrays = METHOD_SPECS[method].family(X, priors).arrays(state)
    assert arrays.keys() == {"W", "beta" if METHOD_SPECS[method].variational else "H"}
    assert all(M.flags.c_contiguous for M in arrays.values())


def test_overflowing_update_is_a_numerical_failure():
    # each document total is finite, but W h < 1 makes the ratios 1e308 / (W h) overflow
    X = snf.TermDocMatrix.from_entries(2, 2, [(0, 0, 1e308), (1, 1, 1e308)])
    f = snf.initialize_factorization(X, snf.FitConfig(n_topics=2, method="plsa"))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=r"^non-finite iterate: .* entry in W$"):
            snf.mu_step_joint_bothnorm(X, f)


@pytest.mark.parametrize("method", snf.METHODS)
def test_an_overflowing_fit_is_a_numerical_failure_not_a_warning(method):
    # under the suite's warnings-as-errors filter, with no errstate here: the
    # overflow reaches the objective and is raised as NumericalError, never as
    # numpy's RuntimeWarning
    X = snf.TermDocMatrix.from_entries(2, 2, [(0, 0, 1e308), (1, 1, 1e308)])
    config = snf.FitConfig(n_topics=2, method=method, lambda_sparsity=0.5 * (method == "sparse"))
    with pytest.raises(NumericalError, match="^non-finite initial objective"):
        snf.fit(X, config, _priors(method, 2))


def _simplex_columns(M):
    return M / M.sum(axis=0, keepdims=True)


@pytest.mark.parametrize("method", ["mu-joint", "plsa", "sparse"])
def test_each_joint_step_minimizes_the_joint_majorizer(method):
    # the joint update is the minimizer of joint_aux(., anchor) (plus lambda * sum H
    # for sparse) over the method's simplex constraints: no log-normal perturbation
    # of the step's output that keeps those constraints may lower it
    X = random_count_matrix(11, n_terms=10, n_docs=7)
    lam = 0.5 if method == "sparse" else 0.0
    anchor = snf.initialize_factorization(X, snf.FitConfig(n_topics=3, method=method, seed=11))
    step = {"mu-joint": snf.mu_step_joint_wnorm, "plsa": snf.mu_step_joint_bothnorm,
            "sparse": partial(snf.mu_step_sparse, lambda_sparsity=lam)}[method]
    out = step(X, anchor, epsilon_floor=0.0).factorization

    def majorizer(W, H):
        return snf.joint_aux(X, (W, H), (anchor.W, anchor.H)) + lam * float(H.sum())

    least = majorizer(out.W, out.H)
    rng = np.random.default_rng(11)
    for _ in range(300):
        W = _simplex_columns(out.W * rng.lognormal(0.0, 1e-3, size=out.W.shape))
        H = out.H * rng.lognormal(0.0, 1e-3, size=out.H.shape)
        if method == "plsa":
            H = _simplex_columns(H)
        assert majorizer(W, H) >= least - 1e-12 * abs(least)


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
        start = snf.initialize_factorization(X, snf.FitConfig(n_topics=3, method="mu-joint"))
        with pytest.raises(ValueError, match="constraint mode"):
            snf.mu_step_joint_bothnorm(X, start)

    @pytest.mark.parametrize("method", snf.VI_METHODS)
    def test_a_variational_fit_is_the_fit_vi_fit(self, method):
        X = random_count_matrix(15, n_terms=10, n_docs=6)
        config = snf.FitConfig(n_topics=3, method=method, max_iters=4, seed=6)
        priors = _priors(method, 3, alpha=0.7, rate_a=1.4)
        (W, state), trace = snf.fit(X, config, priors)
        W_vi, state_vi, trace_vi = snf.fit_vi(X, config, priors)
        assert W.tobytes() == W_vi.tobytes() and state.beta.tobytes() == state_vi.beta.tobytes()
        assert (trace.objectives, trace.recon_evals) == (trace_vi.objectives, trace_vi.recon_evals)
        with pytest.raises(ValueError, match="^variational fits and residuals require priors$"):
            snf.fit(X, config)

    def test_no_progress_is_an_error(self, monkeypatch):
        X = random_count_matrix(16, n_terms=10, n_docs=6)
        monkeypatch.setattr(objectives, "kl_divergence", after_the_start(objectives.kl_divergence, 1e9))
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
        monkeypatch.setattr(objectives, "kl_divergence", after_the_start(objectives.kl_divergence, float("nan")))
        config = snf.FitConfig(n_topics=3, method="mu-joint", max_iters=5, seed=3)
        with pytest.raises(NumericalError, match="non-finite objective nan after 1 iterations"):
            mu.fit(X, config)

    def test_non_finite_initial_objective_is_an_error(self, monkeypatch):
        X = random_count_matrix(17, n_terms=10, n_docs=6)
        monkeypatch.setattr(objectives, "kl_divergence", lambda X_, W, H, recon=None: float("inf"))
        config = snf.FitConfig(n_topics=3, method="plsa", max_iters=5, seed=3)
        with pytest.raises(NumericalError, match="non-finite initial objective inf"):
            mu.fit(X, config)

    def test_sign_selects_the_direction(self, monkeypatch):
        """One loop minimizes the objectives and maximizes the bounds."""
        X = random_count_matrix(18, n_terms=10, n_docs=6)
        priors = snf.Priors(np.ones(2))
        config = snf.FitConfig(n_topics=2, method="lda", max_iters=3, rel_tolerance=1e-12, seed=4)
        monkeypatch.setattr(objectives, "lda_elbo", _in_turn(0.0, 1.0, 2.0, 3.0))
        W, state, trace = snf.fit_vi(X, config, priors)
        assert trace.objectives == [1.0, 2.0, 3.0] and trace.recon_evals == [1, 1, 1]
        # the returned state is the third step's
        W_ref, state_ref = snf.initialize_variational(X, config, priors)
        for _ in range(3):
            W_ref, state_ref, _ = snf.dp_vi_step(X, W_ref, priors, state_ref)
        assert np.array_equal(W, W_ref) and np.array_equal(state.beta, state_ref.beta)
        monkeypatch.setattr(objectives, "lda_elbo", _in_turn(0.0, -1.0))
        with pytest.raises(MonotonicityError, match="bound fell from 0.0 to -1.0"):
            snf.fit_vi(X, config, priors)
        monkeypatch.setattr(objectives, "kl_divergence", _in_turn(0.0, 1.0))
        with pytest.raises(MonotonicityError, match="objective rose from 0.0 to 1.0"):
            snf.fit(X, snf.FitConfig(n_topics=2, method="mu-joint", max_iters=3, rel_tolerance=1e-12, seed=4))

    @pytest.mark.parametrize("rise, refused", [(2.0, True), (0.5, False)])
    def test_the_descent_gate_is_one_part_in_a_billion(self, monkeypatch, rise, refused):
        # the documented slack is written out, so that a changed DESCENT_SLACK fails here
        X = random_count_matrix(19, n_terms=10, n_docs=6)
        config = snf.FitConfig(n_topics=2, method="mu-joint", max_iters=5, rel_tolerance=1e-12, seed=4)
        start = snf.initialize_factorization(X, config)
        initial = objectives.kl_divergence(X, start.W, start.H)
        risen = initial + rise * 1e-9 * max(1.0, abs(initial))
        monkeypatch.setattr(objectives, "kl_divergence", after_the_start(objectives.kl_divergence, risen))
        if refused:
            with pytest.raises(MonotonicityError, match="no progress: objective rose"):
                mu.fit(X, config)
        else:
            _, trace = mu.fit(X, config)
            assert trace.objectives == [risen, risen]  # no change at the second step: converged

    def test_the_floor_leaves_a_vanishing_entry_at_one_trillionth_of_its_column_maximum(self):
        # each document of a block-diagonal matrix drops its other block's topic, down to the
        # documented floor, 1e-12 of the column maximum; the floor is the last operation on H
        f, _ = snf.fit(zero_block_matrix(), snf.FitConfig(n_topics=2, method="mu-joint"))
        floor = 1e-12 * f.H.max(axis=0)
        assert np.all(f.H >= floor)
        at_floor = f.H <= floor
        assert at_floor.any()
        assert np.array_equal(f.H[at_floor], np.broadcast_to(floor, f.H.shape)[at_floor])

    @pytest.mark.parametrize("method", snf.METHODS)
    def test_a_fit_hands_every_evaluator_its_carry(self, monkeypatch, method):
        # the factor scan of an evaluator that computes its own carry never runs inside a fit
        def refuse(*factors):
            raise AssertionError("a fit scanned its factors again")

        monkeypatch.setattr(objectives, "_require_factors", refuse)
        monkeypatch.setattr(vi, "_require_factors", refuse)
        X = random_count_matrix(20, n_terms=10, n_docs=6)
        config = snf.FitConfig(n_topics=2, method=method, max_iters=3, lambda_sparsity=0.5)
        snf.fit(X, config, _priors(method, 2))


def _in_turn(*values):
    """A stand-in for a registry objective that returns ``values`` in turn, one per state."""
    values = iter(values)
    return lambda *args, **kwargs: next(values)


@pytest.mark.parametrize("method", snf.METHODS)
def test_every_fit_lets_go_of_earlier_states(monkeypatch, method):
    """While a fit evaluates a state, where its memory peaks, no earlier state's ``W`` is alive."""
    n = 4
    name = METHOD_SPECS[method].objective.partition(".")[2]
    objective, seen, alive = getattr(objectives, name), [], []

    def watching(X_, W, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in seen))
        seen.append(weakref.ref(W))
        return objective(X_, W, *args, **kwargs)

    monkeypatch.setattr(objectives, name, watching)
    X = random_count_matrix(19, n_terms=12, n_docs=8)
    config = snf.FitConfig(
        n_topics=3, method=method, max_iters=n, rel_tolerance=1e-300, seed=2,
        lambda_sparsity=0.4 if method == "sparse" else 0.0,
    )
    snf.fit(X, config, _priors(method, 3, alpha=0.8, rate_a=1.3))
    assert alive == [0] * (n + 1)


def _alternating_step_with_a_zero_w_column():
    X = random_count_matrix(21, n_terms=6, n_docs=4)
    W = np.column_stack([np.full(6, 0.5), np.zeros(6)])
    return snf.mu_step_alternating(X, snf.Factorization(W, np.ones((2, 4))))


@pytest.mark.parametrize("refused, error, message", [
    pytest.param(_alternating_step_with_a_zero_w_column, DeadTopicError, "dead topic 1: zero column sum in W",
                 id="an alternating step on a zero column of W"),
    pytest.param(lambda: snf.initialize_factorization(random_count_matrix(22), snf.FitConfig(n_topics=2, method="lda")),
                 ValueError, "initialize_factorization handles methods ('mu', 'mu-joint', 'plsa', 'sparse')",
                 id="a multiplicative start of lda"),
])
def test_each_refusal_names_its_fault(refused, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        refused()
