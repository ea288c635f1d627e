"""Shared test utilities: seeded instance generators and fixed-point refinement."""

from __future__ import annotations

import numpy as np

import simplexnmf as snf


def random_count_matrix(seed, n_terms=30, n_docs=20, mean=1.3):
    """Poisson count matrix with every row and column guaranteed non-empty."""
    rng = np.random.default_rng(seed)
    dense = rng.poisson(mean, size=(n_terms, n_docs)).astype(float)
    for v in range(n_terms):
        if dense[v].sum() == 0:
            dense[v, int(rng.integers(n_docs))] = 1.0
    for d in range(n_docs):
        if dense[:, d].sum() == 0:
            dense[int(rng.integers(n_terms)), d] = 1.0
    return snf.TermDocMatrix.from_dense(dense)


def planted_matrix(seed, n_terms=30, n_docs=20, n_topics=3):
    """Real-valued matrix with an exact rank-K factorization (strictly positive)."""
    rng = np.random.default_rng(seed)
    W = rng.dirichlet(np.full(n_terms, 2.0), size=n_topics).T
    H = rng.gamma(2.0, 4.0, size=(n_topics, n_docs)) + 0.5
    return snf.TermDocMatrix.from_dense(W @ H)


def zero_block_matrix():
    """12 terms x 10 documents: terms 0-5 occur only in documents 0-4, terms 6-11 only in 5-9."""
    rng = np.random.default_rng(0)
    dense = np.zeros((12, 10))
    dense[:6, :5] = rng.poisson(3.0, size=(6, 5)) + 1
    dense[6:, 5:] = rng.poisson(3.0, size=(6, 5)) + 1
    return snf.TermDocMatrix.from_dense(dense)


def random_simplex_pair(seed, n_terms, n_topics, n_docs):
    """Strictly positive (W, H) with both column constraints satisfied."""
    rng = np.random.default_rng(seed)
    W = rng.dirichlet(np.ones(n_terms), size=n_topics).T
    H = rng.dirichlet(np.ones(n_topics), size=n_docs).T
    return W, H


def shared_inits(X, seed, n_topics=5):
    """A both-simplex start plus its document-scaled w-simplex counterpart."""
    config = snf.FitConfig(n_topics=n_topics, method="plsa", seed=seed)
    both = snf.initialize_factorization(X, config)
    wnorm = snf.Factorization(
        both.W, X.col_sums[None, :] * both.H, snf.ConstraintMode.W_SIMPLEX
    )
    return both, wnorm


def refine_mu(X, step, model, residual_tol, max_iters=100000):
    """Iterate a multiplicative stepper until its own one-step residual is small."""
    residual = np.inf
    for _ in range(max_iters):
        out = step(X, model)
        residual = max(
            np.abs(out.factorization.W - model.W).max(),
            np.abs(out.factorization.H - model.H).max(),
        )
        model = out.factorization
        if residual < residual_tol:
            break
    return model, residual


def refine_vi(X, step, W, state, residual_tol, max_iters=100000):
    """Iterate a variational stepper until its own one-step residual is small."""
    residual = np.inf
    for _ in range(max_iters):
        W_next, state_next, _ = step(X, W, state)
        residual = max(
            np.abs(W_next - W).max(), np.abs(state_next.beta - state.beta).max()
        )
        W, state = W_next, state_next
        if residual < residual_tol:
            break
    return W, state, residual


def after_the_start(objective, value):
    """A stand-in for a registry objective: ``objective`` itself at a fit's
    start, ``value`` at every later state."""
    calls = []

    def evaluate(*args, **kwargs):
        calls.append(None)
        return objective(*args, **kwargs) if len(calls) == 1 else value

    return evaluate
