"""Maps between the differently constrained problems, and fixed-point checks.

Each map is a columnwise rescaling that preserves the reconstruction or
shifts the objective by a known constant, so solutions, iterates, and
fixed points travel between the unconstrained, W-normalized,
both-normalized, penalized, and Bayesian formulations.  Global optimality
itself is not certifiable; everything here is stated and checked at the
level of objective-value identities and one-step residuals.

:data:`PAIRS` runs the iterate-level identities: each pair steps two
solvers from matched starts and yields, after every step, how far the
maps above leave the two routes apart.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DegenerateColumnError, NumericalError
from .mu import initialize_factorization, mu_step_joint_bothnorm, mu_step_joint_wnorm, mu_step_sparse
from .objectives import _require_factors, kl_divergence, sparse_objective
from .reference import plsa_step_reference
from .types import (
    METHOD_SPECS,
    Factorization,
    FitConfig,
    Priors,
    TermDocMatrix,
    VariationalState,
    normalize_columns,
)
from .vi import _pinned_rates, dp_vi_step, gap_vi_step, initialize_variational


def absorb_scaling(W, H) -> tuple[np.ndarray, np.ndarray]:
    """Push the column scales of ``W`` into ``H``: ``(W / s_k, s_k * H)``.

    The product is unchanged; the returned ``W`` is columnwise normalized.
    """
    W = np.asarray(W, dtype=float)
    H = np.asarray(H, dtype=float)
    W_tilde, scales = normalize_columns(W)
    return W_tilde, scales[:, None] * H


def map_c1_to_c2(X: TermDocMatrix, W, H) -> tuple[np.ndarray, np.ndarray]:
    """Rescale topic weights by the document totals: ``h_kd -> h_kd / lambda_d``.

    For a converged (or fixed-point) W-normalized model the result has
    simplex columns, because such models satisfy ``sum_k h_kd =
    lambda_d``; for arbitrary input the rescaling is still exact but the
    columns need not sum to one.
    """
    lam = X.col_sums
    if np.any(lam == 0):
        raise DegenerateColumnError(int(np.argmax(lam == 0)), "document column")
    return np.asarray(W, dtype=float).copy(), np.asarray(H, dtype=float) / lam[None, :]


def map_c2_to_c1(X: TermDocMatrix, W, H) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`map_c1_to_c2`: ``h_kd -> lambda_d * h_kd``."""
    lam = X.col_sums
    if np.any(lam == 0):
        raise DegenerateColumnError(int(np.argmax(lam == 0)), "document column")
    return np.asarray(W, dtype=float).copy(), np.asarray(H, dtype=float) * lam[None, :]


def map_sparse_solution(W, H, lambda_sparsity: float, direction: str) -> tuple[np.ndarray, np.ndarray]:
    """Move between the plain and l1-penalized problems: ``H -> H / (1 + lambda)``
    (forward) or ``H -> (1 + lambda) H`` (inverse).

    On the mapped pair the penalized objective exceeds the plain objective
    of the original by exactly ``log(1 + lambda) * sum(X)``.
    """
    if lambda_sparsity <= 0:
        raise ValueError("lambda_sparsity must be positive for the solution map")
    W = np.asarray(W, dtype=float).copy()
    H = np.asarray(H, dtype=float)
    if direction == "forward":
        return W, H / (1.0 + lambda_sparsity)
    if direction == "inverse":
        return W, H * (1.0 + lambda_sparsity)
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def map_gap_lda_state(state: VariationalState, priors: Priors, direction: str) -> VariationalState:
    """Attach or drop the Gamma rates: ``b = 1 + rate_a`` (to_gap) or none (to_lda).

    ``beta`` is carried over untouched.  The iterate/fixed-point identity
    between the two models holds only for a uniform rate vector; a
    non-uniform one triggers a warning.
    """
    if direction == "to_gap":
        if priors.rate_a is None:
            raise ValueError("to_gap requires priors with rate_a")
        if not np.all(priors.rate_a == priors.rate_a[0]):
            warnings.warn(
                "non-uniform rate_a: the Gamma/Dirichlet iterate identity is not guaranteed",
                UserWarning,
                stacklevel=2,
            )
        return VariationalState(state.beta, _pinned_rates(priors.rate_a))
    if direction == "to_lda":
        return VariationalState(state.beta, None)
    raise ValueError(f"direction must be 'to_gap' or 'to_lda', got {direction!r}")


def absorb_penalty_general(W, H, p: float, penalty, X: TermDocMatrix | None = None):
    """Absorb an lp normalization constraint on ``W`` into the penalty on ``H``.

    With ``s_k = ||w_k||_p``, maps ``(W, H)`` to ``(W / s, s * H)`` and
    evaluates the penalty both as ``penalty(D_p(W) H)`` on the original
    pair and as ``penalty(H~)`` on the mapped pair.  When ``X`` is given,
    the full objectives (KL term included) are compared instead.  The two
    values must agree to 1e-10 relative; disagreement raises
    ``NumericalError``.  Factors that are not finite and non-negative raise
    ``ValueError``, with ``X`` or without.

    Returns ``(W~, H~, s, (value_general, value_constrained))``, ``s`` the
    column norms, the diagonal of the normalization matrix ``D_p(W)``.
    """
    W = np.asarray(W, dtype=float)
    H = np.asarray(H, dtype=float)
    _require_factors(W, H)
    if not p > 0:
        raise ValueError("the norm exponent must be positive")
    scales = np.sum(np.abs(W) ** p, axis=0) ** (1.0 / p)
    if np.any(scales == 0):
        raise DegenerateColumnError(int(np.argmax(scales == 0)))
    W_tilde = W / scales[None, :]
    H_tilde = scales[:, None] * H

    value_general = float(penalty(scales[:, None] * H))
    value_constrained = float(penalty(H_tilde))
    if X is not None:
        value_general += kl_divergence(X, W, H)
        value_constrained += kl_divergence(X, W_tilde, H_tilde)
    gap = abs(value_general - value_constrained)
    if gap > 1e-10 * max(1.0, abs(value_general)):
        raise NumericalError(
            f"penalty absorption objectives disagree by {gap!r}: "
            f"{value_general!r} vs {value_constrained!r}"
        )
    return W_tilde, H_tilde, scales, (value_general, value_constrained)


def fixed_point_residual(
    X: TermDocMatrix,
    method: str,
    model,
    priors: Priors | None = None,
    lambda_sparsity: float | None = None,
) -> float:
    """Max-norm parameter change under one step of the named solver, with its
    default floor ``mu.EPSILON_FLOOR``.

    ``model`` is a :class:`Factorization` for the multiplicative methods
    and a ``(W, VariationalState)`` pair for ``lda`` / ``gap``.
    ``lambda_sparsity`` is the ``sparse`` model's weight, required for
    ``sparse`` and refused for every other method (``ValueError`` each).
    """
    spec = METHOD_SPECS.get(method)
    if spec is None:
        raise ValueError(f"unknown method {method!r}")
    if spec.uses_lambda and lambda_sparsity is None:
        raise ValueError(f"method {method!r} requires lambda_sparsity")
    if not spec.uses_lambda and lambda_sparsity is not None:
        raise ValueError(f"method {method!r} takes no lambda_sparsity")
    family = spec.family(X, priors, lambda_sparsity or 0.0)  # the variational family requires priors
    before, after = family.arrays(model), family.arrays(family.step(model, None)[0])
    return float(max(np.abs(after[name] - M).max() for name, M in before.items()))


# ---------------------------------------------------------------------------
# Matched-iterate pairs

# settings shared by the pairs; the zero-absorbing floor is disabled so that
# both routes follow the ideal iteration bit for bit
PAIR_TOPICS = 4
PAIR_LAMBDA = 0.5
PAIR_ALPHA = 0.7
PAIR_RATE = 1.3
_NO_FLOOR = 0.0


def _start(X: TermDocMatrix, method: str, seed: int) -> Factorization:
    """The seeded start of ``method``; the ``mu-joint`` and ``plsa`` ones differ
    only by the document totals in ``H``."""
    return initialize_factorization(X, FitConfig(n_topics=PAIR_TOPICS, method=method, seed=seed))


def _alg4_alg5(X: TermDocMatrix, seed: int):
    wnorm, both = _start(X, "mu-joint", seed), _start(X, "plsa", seed)
    while True:
        wnorm = mu_step_joint_wnorm(X, wnorm, epsilon_floor=_NO_FLOOR).factorization
        both = mu_step_joint_bothnorm(X, both, epsilon_floor=_NO_FLOOR).factorization
        # mapped after both steps, so that an empty document fails as plsa's degenerate document
        W, H = map_c1_to_c2(X, wnorm.W, wnorm.H)
        yield np.abs(W - both.W).max(), np.abs(H - both.H).max()


def _sparse_plain(X: TermDocMatrix, seed: int):
    plain = penalized = _start(X, "mu-joint", seed)
    lam = PAIR_LAMBDA
    while True:
        plain = mu_step_joint_wnorm(X, plain, epsilon_floor=_NO_FLOOR).factorization
        penalized = mu_step_sparse(X, penalized, lam, epsilon_floor=_NO_FLOOR).factorization
        W, H = map_sparse_solution(penalized.W, penalized.H, lam, "inverse")
        dev_h = np.abs(H - plain.H).max() / np.maximum(1.0, np.abs(plain.H).max())
        offset = sparse_objective(X, penalized.W, penalized.H, lam) - kl_divergence(X, plain.W, plain.H)
        dev_obj = abs(offset - np.log1p(lam) * X.total) / np.maximum(1.0, abs(offset))
        yield np.abs(plain.W - W).max(), dev_h, dev_obj


def _gap_lda(X: TermDocMatrix, seed: int):
    config_lda = FitConfig(n_topics=PAIR_TOPICS, method="lda", seed=seed)
    priors_lda = Priors(np.full(PAIR_TOPICS, PAIR_ALPHA))
    priors_gap = Priors(np.full(PAIR_TOPICS, PAIR_ALPHA), np.full(PAIR_TOPICS, PAIR_RATE))
    W_lda, state_lda = initialize_variational(X, config_lda, priors_lda, perturb=True)
    W_gap = W_lda.copy()
    state_gap = map_gap_lda_state(state_lda, priors_gap, "to_gap")
    while True:
        W_lda, state_lda, _ = dp_vi_step(X, W_lda, priors_lda, state_lda, epsilon_floor=_NO_FLOOR)
        W_gap, state_gap, _ = gap_vi_step(X, W_gap, priors_gap, state_gap, epsilon_floor=_NO_FLOOR)
        scale = np.maximum(1.0, np.abs(state_lda.beta))
        yield np.abs(W_lda - W_gap).max(), (np.abs(state_lda.beta - state_gap.beta) / scale).max()


def _plsa_ref(X: TermDocMatrix, seed: int):
    current = _start(X, "plsa", seed)
    dense = X.to_dense()
    W_ref, H_ref = current.W.copy(), current.H.copy()
    while True:
        current = mu_step_joint_bothnorm(X, current, epsilon_floor=_NO_FLOOR).factorization
        W_ref, H_ref = plsa_step_reference(dense, W_ref, H_ref)
        yield (np.maximum(np.abs(current.W - W_ref).max(), np.abs(current.H - H_ref).max()),)


# pair name -> (the generator of its deviations, ``deviations(X, seed)``,
# which yields one tuple per step and never stops; the name and tolerance of
# each deviation in the tuple, in order, None leaving the tolerance to the caller)
PAIRS = {
    "alg4-alg5": (_alg4_alg5, (("W iterates", None), ("H iterates / lambda_d", None))),
    "sparse-plain": (
        _sparse_plain,
        (
            ("W iterates", None),
            ("H iterates * (1+lambda)", None),
            ("objective offset vs log(1+lambda)*sum(X)", 1e-10),
        ),
    ),
    "gap-lda": (_gap_lda, (("W iterates", None), ("beta iterates (relative)", None))),
    "plsa-ref": (_plsa_ref, (("factor iterates vs explicit-responsibility reference", None),)),
}
