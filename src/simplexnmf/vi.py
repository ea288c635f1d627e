"""Variational solvers for the Dirichlet- and Gamma-prior topic models.

Both steppers work without ever materializing per-word responsibilities:
the expected-log topic weights ``h~ = exp(E[log h])`` stand in for ``H``,
one shared reconstruction ``(W h~)`` at the nonzeros of ``X`` serves both
the ``W`` update and the shape update

    w_vk     <- normalize_k( w_vk * sum_d x_vd h~_kd / (W h~)_vd ),
    beta_kd  <- alpha_k + h~_kd * sum_v x_vd w_vk / (W h~)_vd,

which is :func:`simplexnmf.mu.joint_step` with ``h~`` for ``H`` and
``alpha_k + (.)`` as the map on the ``H`` side, so the per-iteration
reconstruction count is 1.  :func:`fit_vi` evaluates the bound at every
state from its :class:`~simplexnmf.objectives.BoundTerms` (one ``digamma``
pass over ``beta``, ``h~`` and the checked ``(W h~)``) and hands ``h~`` and
``(W h~)`` to the next step, so each state's one reconstruction and one
``digamma`` pass serve both the bound and the update: ``n + 1`` of each
in a fit of ``n`` iterations.  The Gamma variant keeps its rate parameters
pinned at ``b = 1 + a``, which is the stationary value of the bound in
``b``; with a uniform rate vector its iterates coincide with the
Dirichlet ones because the two ``h~`` differ only by a per-document
constant that cancels everywhere.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import UnrepresentableTermError
from .mu import EPSILON_FLOOR, descend, joint_step
from .objectives import _checked_reconstruction, expected_log_h_dirichlet, expected_log_h_gamma
from .types import (
    FitConfig,
    FitTrace,
    METHOD_SPECS,
    Priors,
    TermDocMatrix,
    VariationalState,
    VI_METHODS,
)


def _vi_update(X: TermDocMatrix, W, priors: Priors, h_tilde, epsilon_floor: float, recon):
    """:func:`~simplexnmf.mu.joint_step` on ``h~`` with the map ``alpha_k + (.)``; returns ``(W', beta')``.

    A ``recon`` of ``None`` is computed and checked as the bounds check it:
    a zero under a positive count raises ``UnrepresentableTermError``.
    """
    W = np.asarray(W, dtype=float)
    if recon is None:
        recon = _checked_reconstruction(X, W, h_tilde, error=UnrepresentableTermError)
    return joint_step(X, W, h_tilde, partial(np.add, priors.alpha[:, None]), epsilon_floor, recon)


def dp_vi_step(
    X: TermDocMatrix,
    W,
    priors: Priors,
    state: VariationalState,
    *,
    epsilon_floor: float = EPSILON_FLOOR,
    h_tilde: np.ndarray | None = None,
    recon: np.ndarray | None = None,
) -> tuple[np.ndarray, VariationalState, int]:
    """One update of the Dirichlet-weight model; returns ``(W', state', recon_evals)``.

    ``h_tilde`` and ``recon`` are ``h~`` and ``(W h~)`` at the input state,
    as in :func:`~simplexnmf.objectives.lda_elbo_terms`; each is computed
    when ``None``.
    """
    if h_tilde is None:
        h_tilde = expected_log_h_dirichlet(state.beta)
    W, beta = _vi_update(X, W, priors, h_tilde, epsilon_floor, recon)
    return W, VariationalState(beta), 1


def gap_vi_step(
    X: TermDocMatrix,
    W,
    priors: Priors,
    state: VariationalState,
    *,
    epsilon_floor: float = EPSILON_FLOOR,
    h_tilde: np.ndarray | None = None,
    recon: np.ndarray | None = None,
) -> tuple[np.ndarray, VariationalState, int]:
    """One update of the Gamma-weight model; the rates ``b`` stay fixed.

    ``h_tilde`` and ``recon`` are as for :func:`dp_vi_step`, with ``h~ =
    exp(psi(beta)) / b`` (:func:`~simplexnmf.objectives.gap_elbo_terms`).
    """
    if state.b_rate is None:
        raise ValueError("gap_vi_step requires a state with b_rate (fixed at 1 + rate_a)")
    if h_tilde is None:
        h_tilde = expected_log_h_gamma(state.beta, state.b_rate)
    W, beta = _vi_update(X, W, priors, h_tilde, epsilon_floor, recon)
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


def fit_vi(X: TermDocMatrix, config: FitConfig, priors: Priors) -> tuple[np.ndarray, VariationalState, FitTrace]:
    """Run the configured variational stepper until the bound stalls.

    The run starts from :func:`initialize_variational`.  The bound is
    evaluated at every state from the two parts of the registry bound
    (``lda_elbo_terms`` and ``lda_elbo_at``, or the ``gap_elbo`` pair) and
    recorded in the trace; the terms' ``h~`` and ``(W h~)`` are the next
    step's inputs.  The bound must not decrease
    by more than ``DESCENT_SLACK`` relative, otherwise
    ``MonotonicityError`` is raised, and a non-finite bound raises
    ``NumericalError``.  Convergence is the same relative-change
    rule as the multiplicative driver; both run :func:`descend`.

    Returns ``(W, state, trace)``.
    """
    spec = METHOD_SPECS[config.method]
    if not spec.variational:
        raise ValueError(f"fit_vi handles methods {VI_METHODS}; use fit for {config.method!r}")
    stepper = spec.function(spec.stepper)
    terms_of = spec.function(spec.objective + "_terms")
    bound_at = spec.function(spec.objective + "_at")

    def evaluated(W, state):
        terms = terms_of(X, W, state)
        return (W, state, terms.h_tilde, terms.recon), bound_at(X, W, priors, state, terms)

    def step(current):
        W, state, h_tilde, recon = current
        W, state, recon_evals = stepper(X, W, priors, state, h_tilde=h_tilde, recon=recon)
        return *evaluated(W, state), recon_evals

    # the start goes straight into its evaluation, so nothing holds it once the first step replaces it
    (W, state, _, _), trace = descend(step, *evaluated(*initialize_variational(X, config, priors)), config, -1)
    return W, state, trace
