"""Variational solvers for the Dirichlet- and Gamma-prior topic models.

Both steppers work without ever materializing per-word responsibilities:
the expected-log topic weights ``h~ = exp(E[log h])`` stand in for ``H``,
one shared reconstruction ``(W h~)`` at the nonzeros of ``X`` serves both
the ``W`` update and the shape update

    w_vk     <- normalize_k( w_vk * sum_d x_vd h~_kd / (W h~)_vd ),
    beta_kd  <- alpha_k + h~_kd * sum_v x_vd w_vk / (W h~)_vd,

which is :func:`simplexnmf.mu.joint_step` with ``h~`` for ``H`` and
``alpha_k + (.)`` as the map on the ``H`` side, so the per-iteration
reconstruction count is 1.  The Gamma variant keeps its rate parameters
pinned at ``b = 1 + a``, which is the stationary value of the bound in
``b``; with a uniform rate vector its iterates coincide with the
Dirichlet ones because the two ``h~`` differ only by a per-document
constant that cancels everywhere.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .mu import descend, joint_step
from .objectives import expected_log_h_dirichlet, expected_log_h_gamma
from .types import (
    FitConfig,
    FitTrace,
    METHOD_SPECS,
    Priors,
    TermDocMatrix,
    VariationalState,
    VI_METHODS,
)


def dp_vi_step(
    X: TermDocMatrix,
    W,
    priors: Priors,
    state: VariationalState,
    *,
    epsilon_floor: float = 1e-12,
) -> tuple[np.ndarray, VariationalState, int]:
    """One update of the Dirichlet-weight model; returns ``(W', state', recon_evals)``."""
    h_tilde = expected_log_h_dirichlet(state.beta)
    h_map = partial(np.add, priors.alpha[:, None])
    W, beta = joint_step(X, np.asarray(W, dtype=float), h_tilde, h_map, epsilon_floor)
    return W, VariationalState(beta), 1


def gap_vi_step(
    X: TermDocMatrix,
    W,
    priors: Priors,
    state: VariationalState,
    *,
    epsilon_floor: float = 1e-12,
) -> tuple[np.ndarray, VariationalState, int]:
    """One update of the Gamma-weight model; the rates ``b`` stay fixed."""
    if state.b_rate is None:
        raise ValueError("gap_vi_step requires a state with b_rate (fixed at 1 + rate_a)")
    h_tilde = expected_log_h_gamma(state.beta, state.b_rate)
    h_map = partial(np.add, priors.alpha[:, None])
    W, beta = joint_step(X, np.asarray(W, dtype=float), h_tilde, h_map, epsilon_floor)
    return W, VariationalState(beta, state.b_rate), 1


# ---------------------------------------------------------------------------
# Driver


def _pinned_rates(method: str, priors: Priors, shape) -> np.ndarray | None:
    """The Gamma rates ``b = 1 + rate_a`` for a method that has them, else ``None``."""
    if not METHOD_SPECS[method].uses_rates:
        return None
    if priors.rate_a is None:
        raise ValueError(f"the {method} method requires priors with rate_a")
    return np.broadcast_to((1.0 + priors.rate_a)[:, None], shape).copy()


def initialize_variational(
    X: TermDocMatrix,
    config: FitConfig,
    priors: Priors,
    perturb: bool = False,
) -> tuple[np.ndarray, VariationalState]:
    """Seeded start: Dirichlet columns for ``W``; ``beta = alpha + lambda_d / K``.

    With ``perturb`` the per-document mass ``lambda_d`` is split across
    topics at random instead of evenly.  The Gamma method also pins
    ``b = 1 + rate_a``.
    """
    if not METHOD_SPECS[config.method].variational:
        raise ValueError(f"initialize_variational handles methods {VI_METHODS}")
    K = config.n_topics
    if priors.n_topics != K:
        raise ValueError(f"priors have {priors.n_topics} topics, config expects {K}")
    rng = np.random.default_rng(config.seed)
    W = rng.dirichlet(np.ones(X.n_terms), size=K).T
    if perturb:
        split = rng.gamma(1.0, 1.0, size=(K, X.n_docs))
        split = split / split.sum(axis=0, keepdims=True)
    else:
        split = np.full((K, X.n_docs), 1.0 / K)
    beta = priors.alpha[:, None] + X.col_sums[None, :] * split
    return W, VariationalState(beta, _pinned_rates(config.method, priors, beta.shape))


def fit_vi(
    X: TermDocMatrix,
    config: FitConfig,
    priors: Priors,
    w_init: np.ndarray | None = None,
    beta_init: np.ndarray | None = None,
) -> tuple[np.ndarray, VariationalState, FitTrace]:
    """Run the configured variational stepper until the bound stalls.

    The bound is evaluated after every iteration and recorded in the
    trace; it must not decrease by more than ``DESCENT_SLACK`` relative,
    otherwise ``MonotonicityError`` is raised, and a non-finite bound
    raises ``NumericalError``.  Convergence is the same relative-change
    rule as the multiplicative driver; both run :func:`descend`.

    Returns ``(W, state, trace)``.
    """
    spec = METHOD_SPECS[config.method]
    if not spec.variational:
        raise ValueError(f"fit_vi handles methods {VI_METHODS}; use fit for {config.method!r}")
    if w_init is None or beta_init is None:
        W_default, state_default = initialize_variational(X, config, priors)
        w_init = W_default if w_init is None else w_init
        beta_init = state_default.beta if beta_init is None else beta_init
    W = np.array(w_init, dtype=float)
    beta = np.array(beta_init, dtype=float)
    if W.shape != (X.n_terms, config.n_topics):
        raise ValueError(f"w_init has shape {W.shape}, expected {(X.n_terms, config.n_topics)}")
    if beta.shape != (config.n_topics, X.n_docs):
        raise ValueError(f"beta_init has shape {beta.shape}, expected {(config.n_topics, X.n_docs)}")
    state = VariationalState(beta, _pinned_rates(config.method, priors, beta.shape))

    stepper = spec.function(spec.stepper)
    bound = spec.function(spec.objective)

    def step(current):
        W, state = current
        W, state, recon_evals = stepper(X, W, priors, state, epsilon_floor=config.epsilon_floor)
        return (W, state), bound(X, W, priors, state), recon_evals

    (W, state), trace = descend(step, (W, state), bound(X, W, priors, state), config, -1)
    return W, state, trace
