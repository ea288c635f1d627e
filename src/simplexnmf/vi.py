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
without evaluating it.  The fit driver, :func:`simplexnmf.mu.fit`, runs
these methods as it runs the other four.  Its :class:`_Variational`
computes the terms at every state (one ``digamma`` pass over ``beta``,
``h~`` and the checked ``(W h~)``), evaluates the registry bound with
``terms=`` and hands the terms to the next step, so each state's one
reconstruction and one ``digamma`` pass serve both the bound and the
update: ``n + 1`` of each in a fit of ``n`` iterations.  The Gamma
variant keeps its rate parameters pinned at ``b = 1 + a``, which is the stationary value of the bound in
``b``; with a uniform rate vector its iterates coincide with the
Dirichlet ones because the two ``h~`` differ only by a per-document
constant that cancels everywhere.  Since the columns of ``W`` are
l1-normalized, the pinned rate is one value per topic, and a ``gap`` state
holds it as one K x 1 column (:func:`_pinned_rates`), which the bound
broadcasts over the documents.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .mu import EPSILON_FLOOR, _seeded_start, fit, joint_step
from .objectives import BoundTerms, _require_factors, _require_prior_topics, gap_elbo_terms, lda_elbo_terms
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
    """:func:`~simplexnmf.mu.joint_step` on ``h~`` with the map ``alpha_k + (.)``; returns ``(W', beta')``.

    Priors of another topic count than ``h~`` raise ``ValueError``.
    """
    _require_prior_topics(priors, terms.h_tilde.shape[0])
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
        _require_factors(W)
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
        _require_factors(W)
        terms = gap_elbo_terms(X, W, state)
    W, beta = _vi_update(X, W, priors, terms, epsilon_floor)
    return W, VariationalState(beta, state.b_rate), 1


# ---------------------------------------------------------------------------
# Driver


def initialize_variational(
    X: TermDocMatrix,
    config: FitConfig,
    priors: Priors,
    perturb: bool = False,
) -> tuple[np.ndarray, VariationalState]:
    """Seeded start: Dirichlet columns for ``W``; ``beta = alpha + lambda_d / K``.

    With ``perturb`` the per-document mass ``lambda_d`` is split across
    topics at random instead of evenly, by the draw of the multiplicative
    methods' ``H``.  The Gamma method also pins ``b = 1 + rate_a``.
    """
    if not METHOD_SPECS[config.method].variational:
        raise ValueError(f"initialize_variational handles methods {VI_METHODS}")
    if priors.n_topics != config.n_topics:
        raise ValueError(f"priors have {priors.n_topics} topics, config expects {config.n_topics}")
    W, split = _seeded_start(X, config, perturb)
    beta = priors.alpha[:, None] + X.col_sums[None, :] * split
    b_rate = None
    if METHOD_SPECS[config.method].uses_rates:
        if priors.rate_a is None:
            raise ValueError(f"the {config.method} method requires priors with rate_a")
        b_rate = _pinned_rates(priors.rate_a)
    return W, VariationalState(beta, b_rate)


def _pinned_rates(rate_a: np.ndarray) -> np.ndarray:
    """The Gamma method's rates ``b = 1 + rate_a`` as a K x 1 column, the
    stationary ``b_kd = a_k + sum_v w_vk`` of the bound for l1-normalized
    topics: one rate per topic, the same for every document."""
    return np.add(1.0, np.asarray(rate_a, dtype=float)[:, None])


class _Variational:
    """The fit driver's record for ``(W, VariationalState)`` states: the
    bound is maximized, and a state's carry into its step is its
    :class:`~simplexnmf.objectives.BoundTerms` without ``E[log h]``; its
    ``eval`` lines take the whole terms."""

    sign = -1

    def __init__(self, X: TermDocMatrix, spec, priors: Priors | None, lambda_sparsity: float = 0.0):
        if priors is None:
            raise ValueError("variational fits and residuals require priors")
        self.X, self.spec, self.priors, self.terms_of = X, spec, priors, spec.function(spec.objective + "_terms")
        self.stepper, self.bound = spec.function(spec.stepper), spec.function(spec.objective)

    @classmethod
    def rebuild(cls, X: TermDocMatrix, spec, fields: dict, lambda_sparsity: float = 0.0):
        """The inverse of :meth:`arrays` and of the priors' fields: ``(record, state)`` of a model's ``fields``."""
        priors = Priors(fields["alpha"], fields.get("rate_a"))
        b_rate = _pinned_rates(priors.rate_a) if spec.uses_rates else None
        return cls(X, spec, priors), (fields["W"], VariationalState(fields["beta"], b_rate))

    def start(self, config: FitConfig):
        return initialize_variational(self.X, config, self.priors)

    def evaluate(self, state):
        terms = self.terms_of(self.X, *state)
        # E[log h] is the bound's alone: dropped here, it is freed before the step runs
        return self.bound(self.X, state[0], self.priors, state[1], terms), terms._replace(elog=None)

    def step(self, state, terms):
        W, vstate, recon_evals = self.stepper(self.X, state[0], self.priors, state[1], terms=terms)
        return (W, vstate), recon_evals

    def eval_lines(self, state) -> list[tuple[str, float]]:
        """The method's ``eval_lines`` at ``state``, every one from one computation of the bound's terms."""
        terms = self.terms_of(self.X, *state)
        return [
            (label, self.spec.function(name)(self.X, state[0], self.priors, state[1], terms=terms))
            for label, name in self.spec.eval_lines
        ]

    @staticmethod
    def arrays(state) -> dict:
        return {"W": state[0], "beta": state[1].beta}


def fit_vi(X: TermDocMatrix, config: FitConfig, priors: Priors) -> tuple[np.ndarray, VariationalState, FitTrace]:
    """:func:`simplexnmf.mu.fit` of ``lda`` or ``gap``, the same fit, returned as
    ``(W, state, trace)``; another method raises ``ValueError``."""
    if not METHOD_SPECS[config.method].variational:
        raise ValueError(f"fit_vi handles methods {VI_METHODS}; use fit for {config.method!r}")
    (W, state), trace = fit(X, config, priors)
    return W, state, trace
