"""Variational solvers for the Dirichlet- and Gamma-prior topic models.

Both steppers work without ever materializing per-word responsibilities:
the expected-log topic weights ``h~ = exp(E[log h])`` stand in for ``H``,
one shared reconstruction ``(W h~)`` at the nonzeros of ``X`` serves both
the ``W`` update and the shape update

    w_vk     <- normalize_k( w_vk * sum_d x_vd h~_kd / (W h~)_vd ),
    beta_kd  <- alpha_k + h~_kd * sum_v x_vd w_vk / (W h~)_vd,

which is :func:`simplexnmf.mu.joint_step` with ``h~`` for ``H`` and
``alpha_k + (.)`` as the map on the ``H`` side, so the per-iteration
reconstruction count is 1.  A step only maps: it takes the
:class:`~simplexnmf.objectives.BoundTerms` of its bound at its input state
as ``terms`` (computed by ``lda_elbo_terms`` or ``gap_elbo_terms`` when
``None``, so ``h~`` is formed in one place) and returns the new state
without evaluating it.  :func:`fit_vi` computes the terms at every state
(one ``digamma`` pass over ``beta``, ``h~`` and the checked ``(W h~)``),
evaluates the registry bound with ``terms=`` and hands the terms to the
next step, so each state's one reconstruction and one ``digamma`` pass
serve both the bound and the update: ``n + 1`` of each in a fit of ``n``
iterations.  The Gamma variant keeps its rate parameters
pinned at ``b = 1 + a``, which is the stationary value of the bound in
``b``; with a uniform rate vector its iterates coincide with the
Dirichlet ones because the two ``h~`` differ only by a per-document
constant that cancels everywhere.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .mu import EPSILON_FLOOR, descend, joint_step
from .objectives import BoundTerms, gap_elbo_terms, lda_elbo_terms
from .types import (
    FitConfig,
    FitTrace,
    METHOD_SPECS,
    Priors,
    TermDocMatrix,
    VariationalState,
    VI_METHODS,
)


def _vi_update(X: TermDocMatrix, W, priors: Priors, terms: BoundTerms, epsilon_floor: float):
    """:func:`~simplexnmf.mu.joint_step` on ``h~`` with the map ``alpha_k + (.)``; returns ``(W', beta')``."""
    h_map = partial(np.add, priors.alpha[:, None], order="C")
    return joint_step(X, np.asarray(W, dtype=float), terms.h_tilde, h_map, epsilon_floor, terms.recon)


def dp_vi_step(
    X: TermDocMatrix,
    W,
    priors: Priors,
    state: VariationalState,
    *,
    epsilon_floor: float = EPSILON_FLOOR,
    terms: BoundTerms | None = None,
) -> tuple[np.ndarray, VariationalState, int]:
    """One update of the Dirichlet-weight model; returns ``(W', state', recon_evals)``.

    ``terms`` are the :class:`~simplexnmf.objectives.BoundTerms` of
    :func:`~simplexnmf.objectives.lda_elbo` at the input state, of which
    the step reads ``h~`` and ``(W h~)``; they are computed by
    :func:`~simplexnmf.objectives.lda_elbo_terms` when ``None``.
    """
    if terms is None:
        terms = lda_elbo_terms(X, W, state)
    W, beta = _vi_update(X, W, priors, terms, epsilon_floor)
    return W, VariationalState(beta), 1


def gap_vi_step(
    X: TermDocMatrix,
    W,
    priors: Priors,
    state: VariationalState,
    *,
    epsilon_floor: float = EPSILON_FLOOR,
    terms: BoundTerms | None = None,
) -> tuple[np.ndarray, VariationalState, int]:
    """One update of the Gamma-weight model; the rates ``b`` stay fixed.

    ``terms`` are as for :func:`dp_vi_step`, those of
    :func:`~simplexnmf.objectives.gap_elbo`, with ``h~ = exp(psi(beta)) / b``
    (:func:`~simplexnmf.objectives.gap_elbo_terms`).
    """
    if state.b_rate is None:
        raise ValueError("gap_vi_step requires a state with b_rate (fixed at 1 + rate_a)")
    if terms is None:
        terms = gap_elbo_terms(X, W, state)
    W, beta = _vi_update(X, W, priors, terms, epsilon_floor)
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

    The run starts from :func:`initialize_variational`.  Every state is
    evaluated here: its :class:`~simplexnmf.objectives.BoundTerms`
    (``lda_elbo_terms`` or ``gap_elbo_terms``), then the registry bound
    (``lda_elbo``, ``gap_elbo``) with ``terms=``, recorded in the trace;
    the terms, without ``E[log h]``, are the next step's input, and the step
    lets go of the previous state and its terms before the new state is
    evaluated, where the fit's memory peaks.  The bound
    must not decrease by more than ``DESCENT_SLACK`` relative, otherwise
    ``MonotonicityError`` is raised, and a non-finite bound raises
    ``NumericalError``.  Convergence is the same relative-change rule as
    the multiplicative driver; both run :func:`descend`.

    Returns ``(W, state, trace)``.
    """
    spec = METHOD_SPECS[config.method]
    if not spec.variational:
        raise ValueError(f"fit_vi handles methods {VI_METHODS}; use fit for {config.method!r}")
    stepper = spec.function(spec.stepper)
    bound = spec.function(spec.objective)
    terms_of = spec.function(spec.objective + "_terms")

    def evaluated(W, state):
        terms = terms_of(X, W, state)
        value = bound(X, W, priors, state, terms)
        # E[log h] is the bound's alone: dropped here, it is freed before the step runs
        return [W, state, terms._replace(elog=None)], value

    def step(current):
        # emptied, so that neither descend nor this frame keeps the previous
        # state, h~ and (W h~) alive while the next state is evaluated
        W, state, terms = current
        current.clear()
        W, state, recon_evals = stepper(X, W, priors, state, terms=terms)
        del terms
        return *evaluated(W, state), recon_evals

    # the start goes straight into its evaluation, so nothing holds it once the first step replaces it
    (W, state, _), trace = descend(step, *evaluated(*initialize_variational(X, config, priors)), config, -1)
    return W, state, trace
