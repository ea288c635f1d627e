"""Acceptance suite: one test per criterion, at desk scale (30 x 20, K=5).

Every test prints a single pass/fail line via the ``criterion`` context
manager.  Matched-iterate comparisons run the steppers with the
zero-absorption floor disabled so that both routes compute the ideal
iteration; production fits keep the default floor.
"""

import itertools
import math
from contextlib import contextmanager

import numpy as np

import simplexnmf as snf

from helpers import (
    planted_matrix,
    random_count_matrix,
    refine_mu,
    refine_vi,
    shared_inits,
)

NO_FLOOR = 0.0
DESCENT_SLACK = 1e-9
MATCH_TOL = 1e-12


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} [{label}]: FAIL")
        raise
    print(f"criterion {number:2d} [{label}]: PASS")


def test_01_monotone_descent():
    with criterion(1, "monotone descent of KL and penalized KL"):
        for seed in range(50):
            X = random_count_matrix(seed)
            for method, lam in (("mu", 0.0), ("mu-joint", 0.0), ("plsa", 0.0), ("sparse", 0.7)):
                config = snf.FitConfig(
                    n_topics=5, method=method, lambda_sparsity=lam,
                    max_iters=40, rel_tolerance=1e-15, seed=seed,
                )
                _, trace = snf.fit(X, config)
                for before, after in zip(trace.objectives, trace.objectives[1:]):
                    assert after <= before + DESCENT_SLACK * max(1.0, abs(before))


def test_02_plsa_transcript_equivalence():
    with criterion(2, "both-normalized joint updates match the explicit-phi EM transcript"):
        for seed in range(20):
            X = random_count_matrix(1000 + seed)
            dense = X.to_dense()
            current, _ = shared_inits(X, seed)
            W_ref, H_ref = current.W.copy(), current.H.copy()
            for _ in range(100):
                current = snf.mu_step_joint_bothnorm(X, current, epsilon_floor=NO_FLOOR).factorization
                W_ref, H_ref = snf.plsa_step_reference(dense, W_ref, H_ref)
                assert np.abs(current.W - W_ref).max() <= MATCH_TOL
                assert np.abs(current.H - H_ref).max() <= MATCH_TOL


def test_03_w_normalized_vs_both_normalized_scaling():
    with criterion(3, "shared inits: W iterates equal, H iterates differ by document totals"):
        for seed in range(20):
            X = random_count_matrix(2000 + seed)
            lam = X.col_sums
            both, wnorm = shared_inits(X, seed)
            for _ in range(100):
                both = snf.mu_step_joint_bothnorm(X, both, epsilon_floor=NO_FLOOR).factorization
                wnorm = snf.mu_step_joint_wnorm(X, wnorm, epsilon_floor=NO_FLOOR).factorization
                assert np.abs(wnorm.W - both.W).max() <= MATCH_TOL
                assert np.abs(wnorm.H / lam[None, :] - both.H).max() <= MATCH_TOL


def test_04_sparse_penalty_has_no_effect():
    lam = 0.8
    with criterion(4, "l1 penalty only rescales the topic weights"):
        for seed in range(10):
            X = random_count_matrix(3000 + seed)
            totals = X.col_sums
            _, start = shared_inits(X, seed)
            plain, penalized = start, start
            for _ in range(100):
                plain = snf.mu_step_joint_wnorm(X, plain, epsilon_floor=NO_FLOOR).factorization
                penalized = snf.mu_step_sparse(X, penalized, lam, epsilon_floor=NO_FLOOR).factorization
                assert np.abs(plain.W - penalized.W).max() <= MATCH_TOL
                # deviation measured relative to the document totals, the
                # natural scale of the unnormalized topic weights
                assert (np.abs(penalized.H * (1.0 + lam) - plain.H) / totals[None, :]).max() <= MATCH_TOL
                offset = snf.sparse_objective(X, penalized.W, penalized.H, lam) - snf.kl_divergence(
                    X, plain.W, plain.H
                )
                expected = np.log1p(lam) * X.total
                assert abs(offset - expected) <= 1e-10 * max(1.0, abs(expected))
        # zero-support equality after long matched runs with the production
        # floor on (the floor scales with each column, so it commutes with
        # the 1/(1+lambda) rescaling and cannot split the supports)
        for seed in range(3):
            X = random_count_matrix(3100 + seed)
            _, start = shared_inits(X, seed)
            plain, penalized = start, start
            for _ in range(1500):
                plain = snf.mu_step_joint_wnorm(X, plain).factorization
                penalized = snf.mu_step_sparse(X, penalized, lam).factorization
            threshold = 1e-8 * X.col_sums[None, :]
            support_plain = plain.H > threshold
            support_sparse = penalized.H * (1.0 + lam) > threshold
            assert np.array_equal(support_plain, support_sparse)


def test_05_dirichlet_updates_match_lda_transcript():
    with criterion(5, "responsibility-free Dirichlet updates match the explicit transcript; bound ascends"):
        for seed in range(20):
            X = random_count_matrix(4000 + seed)
            dense = X.to_dense()
            priors = snf.Priors(np.full(5, 0.7))
            config = snf.FitConfig(n_topics=5, method="lda", seed=seed)
            W, state = snf.initialize_variational(X, config, priors, perturb=True)
            W_ref, beta_ref = W.copy(), state.beta.copy()
            for _ in range(50):
                W, state, _ = snf.dp_vi_step(X, W, priors, state, epsilon_floor=NO_FLOOR)
                W_ref, beta_ref = snf.lda_vi_step_reference(dense, W_ref, priors.alpha, beta_ref)
                assert np.abs(W - W_ref).max() <= MATCH_TOL
                assert np.abs(state.beta - beta_ref).max() <= MATCH_TOL
        for seed in range(20):
            X = random_count_matrix(4100 + seed)
            priors = snf.Priors(np.full(5, 0.7))
            config = snf.FitConfig(n_topics=5, method="lda", max_iters=40,
                                   rel_tolerance=1e-15, seed=seed)
            _, _, trace = snf.fit_vi(X, config, priors)
            for before, after in zip(trace.objectives, trace.objectives[1:]):
                assert after >= before - DESCENT_SLACK * max(1.0, abs(before))


def test_06_gamma_matches_dirichlet_for_uniform_rates():
    with criterion(6, "Gamma-weight updates equal Dirichlet-weight updates for uniform rates"):
        rate = 1.2
        for seed in range(20):
            X = random_count_matrix(5000 + seed)
            priors_lda = snf.Priors(np.full(5, 0.8))
            priors_gap = snf.Priors(np.full(5, 0.8), np.full(5, rate))
            config = snf.FitConfig(n_topics=5, method="lda", seed=seed)
            W_lda, state_lda = snf.initialize_variational(X, config, priors_lda, perturb=True)
            W_gap = W_lda.copy()
            state_gap = snf.map_gap_lda_state(state_lda, priors_gap, "to_gap")
            for _ in range(40):
                W_lda, state_lda, _ = snf.dp_vi_step(X, W_lda, priors_lda, state_lda, epsilon_floor=NO_FLOOR)
                W_gap, state_gap, _ = snf.gap_vi_step(X, W_gap, priors_gap, state_gap, epsilon_floor=NO_FLOOR)
                assert np.abs(W_lda - W_gap).max() <= MATCH_TOL
                assert np.abs(state_lda.beta - state_gap.beta).max() <= MATCH_TOL
        # the rates of a converged Gamma fit sit at 1 + a
        X = random_count_matrix(5100)
        priors = snf.Priors(np.full(5, 0.8), np.full(5, rate))
        config = snf.FitConfig(n_topics=5, method="gap", max_iters=500, rel_tolerance=1e-10, seed=0)
        _, state, _ = snf.fit_vi(X, config, priors)
        assert np.array_equal(state.b_rate, np.full((5, 1), 1.0 + rate))


def test_07_joint_majorizer():
    with criterion(7, "joint auxiliary majorizes the objective and is tight at the anchor"):
        X = random_count_matrix(6000)
        counts_constant = float(np.sum(X.vals * np.log(X.vals) - X.vals))
        rng = np.random.default_rng(6000)
        for _ in range(5):
            anchor = (rng.gamma(1.0, 1.0, size=(30, 5)) + 0.05,
                      rng.gamma(1.0, 1.0, size=(5, 20)) + 0.05)
            anchor_value = snf.joint_aux(X, anchor, anchor)
            anchor_kl = snf.kl_divergence(X, *anchor)
            assert abs(anchor_value + counts_constant - anchor_kl) <= 1e-12 * max(1.0, abs(anchor_kl))
            for _ in range(20):
                probe = (rng.gamma(1.0, 1.0, size=(30, 5)) + 0.05,
                         rng.gamma(1.0, 1.0, size=(5, 20)) + 0.05)
                bound = snf.joint_aux(X, probe, anchor) + counts_constant
                objective = snf.kl_divergence(X, *probe)
                assert bound - objective >= -1e-10 * max(1.0, abs(objective))


def test_08_column_sum_preservation():
    with criterion(8, "converged W-normalized fits preserve the document totals"):
        for seed in range(10):
            X = random_count_matrix(7000 + seed)
            config = snf.FitConfig(n_topics=5, method="mu-joint", max_iters=5000,
                                   rel_tolerance=1e-10, seed=seed)
            f, _ = snf.fit(X, config)
            recon_sums = (f.W @ f.H).sum(axis=0)
            assert (np.abs(recon_sums - X.col_sums) / X.col_sums).max() <= 1e-6


def test_09_reconstruction_accounting():
    with criterion(9, "two reconstructions per alternating iteration, one per joint iteration"):
        X = random_count_matrix(8000)
        for method, expected in (("mu", 2), ("mu-joint", 1), ("plsa", 1), ("sparse", 1)):
            config = snf.FitConfig(n_topics=5, method=method, lambda_sparsity=0.5,
                                   max_iters=10, rel_tolerance=1e-15, seed=1)
            _, trace = snf.fit(X, config)
            assert trace.recon_evals == [expected] * trace.n_iterations
        for method, rate_a in (("lda", None), ("gap", np.full(5, 1.0))):
            config = snf.FitConfig(n_topics=5, method=method, max_iters=10,
                                   rel_tolerance=1e-15, seed=1)
            _, _, trace = snf.fit_vi(X, config, snf.Priors(np.full(5, 0.9), rate_a))
            assert trace.recon_evals == [1] * trace.n_iterations


def test_10_marginal_model_equivalences():
    with criterion(10, "Poisson and multinomial marginals differ by log(e^-1/N!) for all counts"):
        for seed in range(5):
            rng = np.random.default_rng(9000 + seed)
            W = rng.dirichlet(np.ones(3), size=2).T
            h = rng.dirichlet(np.ones(2))
            for N in range(5):
                mass = 0.0
                for x in itertools.product(range(N + 1), repeat=3):
                    if sum(x) != N:
                        continue
                    x = np.asarray(x, dtype=float)
                    poisson = snf.poisson_marginal_loglik(x, W, h)
                    multinomial = snf.multinomial_marginal_loglik(x, W, h, N)
                    expected = -1.0 - snf.log_gamma(N + 1.0)
                    assert abs(poisson - multinomial - expected) <= 1e-12
                    mass += math.exp(multinomial)
                assert abs(mass - 1.0) <= 1e-12


def test_11_penalty_absorption():
    with criterion(11, "lp normalization constraints absorb into the penalty"):
        lam = 0.8
        for seed in range(20):
            rng = np.random.default_rng(9500 + seed)
            X = random_count_matrix(9500 + seed, n_terms=10, n_docs=8)
            W = rng.gamma(1.0, 1.0, size=(10, 4)) + 0.05
            H = rng.gamma(1.0, 1.0, size=(4, 8)) + 0.05
            for p, q in ((1.0, 1.0), (2.0, 1.0), (2.0, 2.0)):
                penalty = lambda M, q=q: lam * float((np.abs(M) ** q).sum())
                _, _, _, (general, constrained) = snf.absorb_penalty_general(W, H, p, penalty, X=X)
                assert abs(general - constrained) <= 1e-10 * max(1.0, abs(general))


def test_12_fixed_point_transfer():
    with criterion(12, "converged models map to fixed points of the partner solver"):
        residual_bound = 1e-8
        own_target = 5e-11

        X = planted_matrix(42, n_topics=3)
        config = snf.FitConfig(n_topics=3, method="mu-joint", max_iters=20000,
                               rel_tolerance=1e-12, seed=1)
        f, _ = snf.fit(X, config)
        # the objective stalls at float64 resolution before the parameters do,
        # so push on to a genuine fixed point in parameter space
        f, _ = refine_mu(X, lambda X_, m: snf.mu_step_joint_wnorm(X_, m), f, own_target)
        W_mapped, H_mapped = snf.map_c1_to_c2(X, f.W, f.H)
        H_cols, _ = snf.normalize_columns(H_mapped)
        mapped = snf.Factorization(W_mapped, H_cols, snf.ConstraintMode.BOTH_SIMPLEX)
        assert snf.fixed_point_residual(X, "plsa", mapped) < residual_bound

        config = snf.FitConfig(n_topics=3, method="plsa", max_iters=20000,
                               rel_tolerance=1e-12, seed=1)
        f, _ = snf.fit(X, config)
        f, _ = refine_mu(X, lambda X_, m: snf.mu_step_joint_bothnorm(X_, m), f, own_target)
        W_mapped, H_mapped = snf.map_c2_to_c1(X, f.W, f.H)
        mapped = snf.Factorization(W_mapped, H_mapped, snf.ConstraintMode.W_SIMPLEX)
        assert snf.fixed_point_residual(X, "mu-joint", mapped) < residual_bound

        Xr = random_count_matrix(43)
        priors = snf.Priors(np.full(3, 0.8), np.full(3, 1.0))
        lda_priors = snf.Priors(priors.alpha)  # lda has no rates
        config = snf.FitConfig(n_topics=3, method="lda", max_iters=20000,
                               rel_tolerance=1e-12, seed=2)
        W, state, _ = snf.fit_vi(Xr, config, lda_priors)
        W, state, _ = refine_vi(Xr, lambda X_, W_, s: snf.dp_vi_step(X_, W_, lda_priors, s),
                                W, state, own_target)
        mapped_state = snf.map_gap_lda_state(state, priors, "to_gap")
        assert snf.fixed_point_residual(Xr, "gap", (W, mapped_state), priors=priors) < residual_bound

        config = snf.FitConfig(n_topics=3, method="gap", max_iters=20000,
                               rel_tolerance=1e-12, seed=2)
        W, state, _ = snf.fit_vi(Xr, config, priors)
        W, state, _ = refine_vi(Xr, lambda X_, W_, s: snf.gap_vi_step(X_, W_, priors, s),
                                W, state, own_target)
        mapped_state = snf.map_gap_lda_state(state, priors, "to_lda")
        assert snf.fixed_point_residual(Xr, "lda", (W, mapped_state), priors=lda_priors) < residual_bound
