"""Objective, likelihood, and bound evaluators.

All values drop additive constants that depend only on the observed counts
(the multinomial "bagging" constant, ``log x!`` terms, and so on), so they
are comparable across iterations of a fit but not across data sets.  The
convention ``0 * log 0 = 0`` is built in: stored entries of a
``TermDocMatrix`` are strictly positive, and absent entries contribute only
through reconstruction totals.

The objectives and bounds that fits monitor take their costly part as an
optional last argument, computed when it is ``None``, so that a fit
computes it once per state and hands it on to the next step, and ``eval``
computes it once for all of its lines: ``kl_divergence``,
``plsa_log_likelihood`` and ``sparse_objective`` take the checked
reconstruction ``recon``, ``lda_elbo`` and ``gap_elbo`` the :class:`BoundTerms`
(``E[log h]``, ``h~`` and ``(W h~)``) of ``lda_elbo_terms`` and
``gap_elbo_terms`` as ``terms``.  The variational steppers form ``h~``
through the same ``*_elbo_terms``, so it is computed in one place.

An evaluator, or a variational step, that computes its own carry first
checks the factors its caller passed in (``W`` and ``H``, or ``W`` beside
a checked state) with ``types._finite_positive``: a negative or non-finite
entry raises ``ValueError``.  Given a carry it scans nothing again, since
whoever built the carry (the fit driver, ``eval``) checked its state.  The
marginal likelihoods, which take no carry, always check ``W`` and ``h``.

Every sum over the stored entries goes through the kernels of
:mod:`simplexnmf.types`.  The data term ``sum x log (WH)`` is written
once, in :func:`plsa_log_likelihood`: the bounds' data term is that
log-likelihood at ``h~``, and :func:`joint_aux` takes it at its anchor.
The majorizer's other sums are over the anchor's expected counts
(:func:`_expected_counts`), which are also the numerators of the joint
update (:func:`simplexnmf.mu.joint_step`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InfiniteDivergenceError, UnrepresentableTermError
from .specfun import digamma, log_gamma
from .types import (
    Priors,
    TermDocMatrix,
    VariationalState,
    reconstruct_nonzeros,
    reconstruction_total,
    term_topic_sums,
    topic_doc_sums,
    _check_lambda,
    _finite_positive,
)


def _require_factors(*factors) -> None:
    """``ValueError`` unless every factor is finite and non-negative: the check of
    the factors an evaluator takes from its caller without a carry."""
    if not all(_finite_positive(np.asarray(M, dtype=float), zero_ok=True) for M in factors):
        raise ValueError("factor matrices must be finite and non-negative")


def _checked_reconstruction(X: TermDocMatrix, W, H, error=InfiniteDivergenceError) -> np.ndarray:
    recon = reconstruct_nonzeros(X, W, H)
    bad = recon <= 0.0
    if bad.any():
        e = int(np.argmax(bad))
        raise error(int(X.rows[e]), int(X.cols[e]))
    return recon


def kl_divergence(X: TermDocMatrix, W, H, recon: np.ndarray | None = None) -> float:
    """Generalized KL divergence ``sum x log(x / (WH)) - x + (WH)``.

    The sum over ``x log(x/..) - x`` runs over the nonzeros of ``X``, from
    the checked reconstruction ``recon`` of ``(W, H)`` at them (computed
    when ``None``); the ``+ (WH)`` term is added in closed form over the
    full matrix.
    """
    if recon is None:
        _require_factors(W, H)
        recon = _checked_reconstruction(X, W, H)
    x = X.vals
    return float(np.sum(x * np.log(x / recon) - x) + reconstruction_total(W, H))


def plsa_log_likelihood(X: TermDocMatrix, W, H, recon: np.ndarray | None = None) -> float:
    """Count-weighted log reconstruction ``sum x log (WH)``; ``recon`` as for :func:`kl_divergence`.

    This is the document/word log-likelihood of the mixture model when both
    factors are column-normalized, but the formula is evaluated for any
    non-negative pair.
    """
    if recon is None:
        _require_factors(W, H)
        recon = _checked_reconstruction(X, W, H)
    return float(np.sum(X.vals * np.log(recon)))


def sparse_objective(X: TermDocMatrix, W, H, lambda_sparsity: float, recon: np.ndarray | None = None) -> float:
    """KL divergence plus the l1 penalty ``lambda * sum |h|``; ``recon`` as for :func:`kl_divergence`."""
    _check_lambda(lambda_sparsity)
    return kl_divergence(X, W, H, recon) + float(lambda_sparsity) * float(np.sum(np.abs(H)))


def _expected_counts(X: TermDocMatrix, W, H, recon: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The expected counts ``sum_d x phi`` (terms x topics) and ``sum_v x phi`` (topics x documents).

    ``phi_vkd = w_vk h_kd / (WH)_vd`` are the responsibilities at ``(W, H)``;
    with ``r = x / (WH)`` from the checked reconstruction ``recon``
    (computed when ``None``) the counts are ``W * sum_d r h`` and ``H *
    sum_v r w``.  The second is SciPy's documents x topics sums transposed
    and multiplied in place by ``H``, so it is in Fortran order.  They are
    the numerators of the joint update and the weights of :func:`joint_aux`.
    """
    if recon is None:
        recon = _checked_reconstruction(X, W, H)
    ratio = X.vals / recon
    doc_counts = topic_doc_sums(X, ratio, W)
    doc_counts *= H
    return W * term_topic_sums(X, ratio, H), doc_counts


def joint_aux(X: TermDocMatrix, candidate, anchor) -> float:
    """Majorizer of the KL objective in both factors jointly.

    With responsibilities ``phi_vkd = w'_vk h'_kd / (W'H')_vd`` taken at the
    anchor, returns

        - sum_{v,k,d} x_vd phi_vkd log(w_vk h_kd / phi_vkd) + sum_{v,d} (WH)_vd.

    At ``candidate == anchor`` this equals the KL divergence up to the
    dropped count-only constant ``sum x log x - sum x``.

    The sum is taken on the anchor's expected counts ``A = sum_d x phi``
    and ``B = sum_v x phi``, those of the joint update
    (:func:`_expected_counts`):

        - [ sum x log (W'H') + sum_{A>0} A log(W/W') + sum_{B>0} B log(H/H') ] + sum WH,

    so it needs one reconstruction and two accumulations at the anchor and
    no ``nnz x K`` array.  A candidate of other shapes than the anchor's,
    or a candidate or an anchor with a negative or non-finite entry, raises
    ``ValueError``.
    """
    W, H = (np.asarray(m, dtype=float) for m in candidate)
    Wa, Ha = (np.asarray(m, dtype=float) for m in anchor)
    if (W.shape, H.shape) != (Wa.shape, Ha.shape):
        raise ValueError(f"candidate factors of shapes {W.shape} and {H.shape} do not match "
                         f"the anchor's {Wa.shape} and {Ha.shape}")
    for which, pair in (("candidate", (W, H)), ("anchor", (Wa, Ha))):
        if not all(_finite_positive(M, zero_ok=True) for M in pair):
            raise ValueError(f"{which} factors must be finite and non-negative")
    recon = _checked_reconstruction(X, Wa, Ha)
    total = plsa_log_likelihood(X, Wa, Ha, recon)
    with np.errstate(divide="ignore"):
        for counts, M, M_anchor in zip(_expected_counts(X, Wa, Ha, recon), (W, H), (Wa, Ha)):
            held = counts > 0
            total += float(counts[held] @ np.log(M[held] / M_anchor[held]))
    return -total + reconstruction_total(W, H)


# ---------------------------------------------------------------------------
# Posterior expectations of the topic weights


def _dirichlet_elog(beta: np.ndarray) -> np.ndarray:
    return digamma(beta) - digamma(beta.sum(axis=0, keepdims=True))


def expected_log_h_dirichlet(beta) -> np.ndarray:
    """``exp(E[log h])`` under columnwise Dirichlet(beta_d): ``exp(psi(beta) - psi(sum_k beta))``."""
    return np.exp(_dirichlet_elog(VariationalState(beta).beta))


def expected_log_h_gamma(beta, b_rate) -> np.ndarray:
    """``exp(E[log h])`` under entrywise Gamma(beta, b): ``exp(psi(beta)) / b``.

    ``b_rate`` is a K x 1 column of per-topic rates, as a ``gap`` state
    holds it, or an array of the shape of ``beta``.
    """
    beta = VariationalState(beta).beta
    b = np.asarray(b_rate, dtype=float)
    if b.shape not in (beta.shape, (beta.shape[0], 1)) or not _finite_positive(b):
        raise ValueError("b_rate must be strictly positive, a column of one rate per topic or the shape of beta")
    return np.exp(digamma(beta)) / b


# ---------------------------------------------------------------------------
# Variational lower bounds


def _require_prior_topics(priors: Priors, n_topics: int) -> None:
    if priors.n_topics != n_topics:
        raise ValueError(f"priors have {priors.n_topics} topics, the state has {n_topics}")


class BoundTerms(NamedTuple):
    """The parts of a variational bound at one state that take ``digamma`` or a reconstruction.

    They are also the input of a variational step from this state, which
    reads only ``h_tilde`` and ``recon``; a fit carries them to the next
    step with ``elog`` set to ``None``, so that array is freed once the
    bound is evaluated.
    """

    elog: np.ndarray | None  # E[log h]
    h_tilde: np.ndarray  # exp(E[log h])
    recon: np.ndarray  # (W h~) at the nonzeros, checked positive


def lda_elbo_terms(X: TermDocMatrix, W, state: VariationalState) -> BoundTerms:
    """The :class:`BoundTerms` of :func:`lda_elbo` at ``(W, state)``."""
    elog = _dirichlet_elog(state.beta)
    h_tilde = np.exp(elog)
    return BoundTerms(elog, h_tilde, _checked_reconstruction(X, W, h_tilde, error=UnrepresentableTermError))


def lda_elbo(X: TermDocMatrix, W, priors: Priors, state: VariationalState, terms: BoundTerms | None = None) -> float:
    """Variational bound of the Dirichlet topic model, count-only constants dropped.

    The responsibilities are the optimal ``phi_vkd ∝ w_vk h~_kd``, for which
    the mixture term collapses to ``sum x log (W h~)``:

        sum_{v,d} x log (W h~)_vd
        + sum_d [ logG(sum alpha) - logG(sum beta_d) ]
        + sum_{k,d} [ logG(beta) - logG(alpha) + (alpha - beta) E[log h] ].

    ``terms`` are the :class:`BoundTerms` at ``(W, state)``, computed when ``None``.
    """
    _require_prior_topics(priors, state.n_topics)
    if terms is None:
        _require_factors(W)
        terms = lda_elbo_terms(X, W, state)
    beta = state.beta
    alpha = priors.alpha
    mixture = plsa_log_likelihood(X, W, terms.h_tilde, terms.recon)
    per_doc = log_gamma(float(alpha.sum())) - log_gamma(beta.sum(axis=0))
    per_cell = log_gamma(beta) - log_gamma(alpha)[:, None] + (alpha[:, None] - beta) * terms.elog
    return mixture + float(per_doc.sum()) + float(per_cell.sum())


def gap_elbo_terms(X: TermDocMatrix, W, state: VariationalState) -> BoundTerms:
    """The :class:`BoundTerms` of :func:`gap_elbo` at ``(W, state)``; ``h~ = exp(psi(beta)) / b``.

    The state's K x 1 rates are broadcast over the documents; ``log b`` is
    taken over the K rates alone.
    """
    if state.b_rate is None:
        raise ValueError("gap_elbo requires a state with b_rate")
    psi = digamma(state.beta)
    h_tilde = np.exp(psi)
    h_tilde /= state.b_rate
    elog = np.subtract(psi, np.log(state.b_rate), out=psi)
    return BoundTerms(elog, h_tilde, _checked_reconstruction(X, W, h_tilde, error=UnrepresentableTermError))


def gap_elbo(X: TermDocMatrix, W, priors: Priors, state: VariationalState, terms: BoundTerms | None = None) -> float:
    """Variational bound of the Gamma topic-weight model, count-only constants dropped.

    Uses ``E[h] = beta / b`` and ``E[log h] = psi(beta) - log b``; the
    unnormalized weights add ``- sum E[h]`` and the Gamma entropy terms:

        sum_{v,d} x log (W h~)_vd - sum_{k,d} E[h]
        + sum_{k,d} [ alpha log a - beta log b ]
        + sum_{k,d} [ logG(beta) - logG(alpha) + (alpha - beta) E[log h] + (b - a) E[h] ].

    ``terms`` are the :class:`BoundTerms` at ``(W, state)``, computed when
    ``None``.  The state's rates ``b`` are a K x 1 column: ``log b`` and
    ``b - a`` are taken over the K topics and broadcast over the documents.
    """
    _require_prior_topics(priors, state.n_topics)
    if priors.rate_a is None:
        raise ValueError("gap_elbo requires priors with rate_a")
    if terms is None:
        _require_factors(W)
        terms = gap_elbo_terms(X, W, state)
    beta, b = state.beta, state.b_rate
    alpha, a = priors.alpha, priors.rate_a
    mixture = plsa_log_likelihood(X, W, terms.h_tilde, terms.recon)
    # each K x D term is formed as in the formula, and added into one array in place
    per_cell = log_gamma(beta)
    per_cell -= log_gamma(alpha)[:, None]
    per_cell += (alpha * np.log(a))[:, None]
    term = np.multiply(np.log(b), beta)
    per_cell -= term
    np.subtract(alpha[:, None], beta, out=term)
    term *= terms.elog
    per_cell += term
    eh = np.divide(beta, b, out=term)
    per_cell -= eh
    eh *= b - a[:, None]  # (b - a) E[h]
    per_cell += eh
    return mixture + float(per_cell.sum())


# ---------------------------------------------------------------------------
# Marginal likelihoods of the single-document generative models


def _counts(x) -> np.ndarray:
    """The counts of one document as a flat float array, checked finite and non-negative."""
    x = np.asarray(x, dtype=float).reshape(-1)
    finite = np.isfinite(x)
    if not finite.all():
        v = int(np.argmin(finite))
        raise ValueError(f"counts must be finite: count {v} is {x[v]!r}")
    if not _finite_positive(x, zero_ok=True):
        raise ValueError("counts must be non-negative")
    return x


def poisson_marginal_loglik(x, W, h) -> float:
    """Log marginal of independent Poisson counts with mean ``(Wh)_v``.

    Includes the ``exp(-sum (Wh))`` and ``1/x!`` factors.  The counts must
    be finite and non-negative, and so must ``W`` and ``h`` (``ValueError`` otherwise).
    """
    x = _counts(x)
    _require_factors(W, h)
    y = np.asarray(W, dtype=float) @ np.asarray(h, dtype=float).reshape(-1)
    pos = x > 0
    if np.any(pos & (y <= 0)):
        raise InfiniteDivergenceError(int(np.argmax(pos & (y <= 0))))
    ll = -float(y.sum()) - float(log_gamma(x + 1.0).sum())
    ll += float(np.sum(x[pos] * np.log(y[pos])))
    return ll


def multinomial_marginal_loglik(x, W, h, n_total) -> float:
    """Log marginal of multinomial counts with cell probabilities ``(Wh) / sum(Wh)``.

    The counts must be finite and non-negative and sum to ``n_total``, and
    ``W`` and ``h`` must be finite and non-negative (``ValueError`` otherwise).
    """
    x = _counts(x)
    _require_factors(W, h)
    if abs(float(x.sum()) - float(n_total)) > 1e-9 * max(1.0, float(n_total)):
        raise ValueError(f"count mismatch: entries sum to {x.sum()}, expected {n_total}")
    y = np.asarray(W, dtype=float) @ np.asarray(h, dtype=float).reshape(-1)
    total = float(y.sum())
    pos = x > 0
    if np.any(pos & (y <= 0)) or (pos.any() and total <= 0):
        raise InfiniteDivergenceError(int(np.argmax(pos & (y <= 0))))
    ll = float(log_gamma(float(n_total) + 1.0)) - float(log_gamma(x + 1.0).sum())
    ll += float(np.sum(x[pos] * np.log(y[pos] / total)))
    return ll
