"""Multiplicative-update solvers for KL-divergence factorization, and the fit driver.

Every method but ``mu`` is one update, :func:`joint_step`: one
reconstruction ``(WH)`` at the nonzeros of ``X`` serves both factors, ``W``
is renormalized columnwise, and the methods differ only in the map
``h_map`` applied to the raw ``H``-side update:

    mu-joint    floor
    sparse      divide by ``1 + lambda``, then floor
    plsa        floor, then normalize every document column
    lda, gap    ``alpha_k + (.)``, with the expected-log weights ``h~``
                in place of ``H`` (see :mod:`simplexnmf.vi`)

The alternating stepper (``mu``) has a body of its own: it recomputes the
reconstruction after its ``W`` update, two evaluations per iteration
against one for the joint methods.  ``StepOutcome.recon_evals`` counts
exactly these update-path evaluations; the objective value returned with
each step is monitoring on top and is not counted.

After every multiplicative update, entries are floored at
``epsilon_floor * (column max)`` before any normalization.  Multiplicative
updates cannot revive an exact zero, so the floor keeps topics alive
without disturbing healthy entries; because it is relative to the column
maximum it also commutes with the columnwise rescalings that relate the
constrained solvers to each other.

:func:`descend` is the one iteration loop: :func:`fit` runs it on the
objective and :func:`simplexnmf.vi.fit_vi` on the negated bound.  Which
stepper, constraint mode and objective a method uses is read from its
record in ``types.METHOD_SPECS``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DeadTopicError, MonotonicityError, NumericalError
from .objectives import _checked_reconstruction, kl_divergence, sparse_objective
from .types import (
    ConstraintMode,
    Factorization,
    FitConfig,
    FitTrace,
    METHOD_SPECS,
    MU_METHODS,
    TermDocMatrix,
    normalize_columns,
    term_topic_sums,
    topic_doc_sums,
)

# relative slack on the guaranteed descent before a step is declared broken
DESCENT_SLACK = 1e-9


@dataclass(frozen=True)
class StepOutcome:
    """One solver step: the updated factors, the objective after the step,
    and the number of update-path reconstruction evaluations (1 or 2)."""

    factorization: Factorization
    objective: float
    recon_evals: int


def _floor_columns(M: np.ndarray, epsilon_floor: float) -> np.ndarray:
    if M.size == 0:
        return M
    return np.maximum(M, epsilon_floor * M.max(axis=0, keepdims=True))


def _normalized(raw: np.ndarray, epsilon_floor: float, detail: str) -> np.ndarray:
    sums = raw.sum(axis=0)
    if np.any(sums == 0):
        raise DeadTopicError(int(np.argmax(sums == 0)), detail)
    return normalize_columns(_floor_columns(raw, epsilon_floor))[0]


def _require_mode(f: Factorization, mode: ConstraintMode, who: str) -> None:
    if f.constraint_mode != mode:
        raise ValueError(f"{who} requires constraint mode {mode.tag!r}, got {f.constraint_mode.tag!r}")


def joint_step(
    X: TermDocMatrix,
    W: np.ndarray,
    H: np.ndarray,
    h_map,
    epsilon_floor: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The joint update of every method but ``mu``; returns ``(W', H')``.

    With ``r = x / (WH)`` from one checked reconstruction at the nonzeros,
    ``W' = normalize_k(floor(W * sum_d r_vd h_kd))`` (``DeadTopicError``
    when a topic's numerators all vanish) and ``H' = h_map(H * sum_v r_vd
    w_vk)`` with the pre-update ``W``.
    """
    ratio = X.vals / _checked_reconstruction(X, W, H)
    W_new = _normalized(W * term_topic_sums(X, ratio, H), epsilon_floor, "all update numerators vanished")
    return W_new, h_map(H * topic_doc_sums(X, ratio, W))


def mu_step_alternating(
    X: TermDocMatrix,
    f: Factorization,
    *,
    epsilon_floor: float = 1e-12,
) -> StepOutcome:
    """One alternating update on an unconstrained factorization.

    ``W`` moves first against the current reconstruction,

        w_vk <- w_vk * [sum_d x_vd h_kd / (WH)_vd] / [sum_d h_kd],

    then the reconstruction is recomputed with the new ``W`` and

        h_kd <- h_kd * [sum_v x_vd w_vk / (WH)_vd] / [sum_v w_vk].
    """
    _require_mode(f, ConstraintMode.UNCONSTRAINED, "mu_step_alternating")
    W, H = f.W, f.H

    ratio = X.vals / _checked_reconstruction(X, W, H)
    h_doc_sums = H.sum(axis=1)
    if np.any(h_doc_sums == 0):
        raise DeadTopicError(int(np.argmax(h_doc_sums == 0)), "zero row sum in H")
    W_new = W * term_topic_sums(X, ratio, H) / h_doc_sums[None, :]
    W_new = _floor_columns(W_new, epsilon_floor)

    ratio = X.vals / _checked_reconstruction(X, W_new, H)
    w_col_sums = W_new.sum(axis=0)
    if np.any(w_col_sums == 0):
        raise DeadTopicError(int(np.argmax(w_col_sums == 0)), "zero column sum in W")
    H_new = H * topic_doc_sums(X, ratio, W_new) / w_col_sums[:, None]
    H_new = _floor_columns(H_new, epsilon_floor)

    updated = Factorization(W_new, H_new, ConstraintMode.UNCONSTRAINED)
    return StepOutcome(updated, kl_divergence(X, W_new, H_new), 2)


def mu_step_joint_wnorm(
    X: TermDocMatrix,
    f: Factorization,
    *,
    epsilon_floor: float = 1e-12,
) -> StepOutcome:
    """One joint update with the columns of ``W`` on the simplex.

    Both factors move against the same reconstruction:

        w_vk <- normalize_k( w_vk * sum_d x_vd h_kd / (WH)_vd ),
        h_kd <- h_kd * sum_v x_vd w_vk / (WH)_vd,

    where the ``h`` update uses the pre-update ``W``.  With ``W``
    normalized the denominator ``sum_v w_vk`` of the alternating update is
    one, which is what makes the joint move exact.
    """
    _require_mode(f, ConstraintMode.W_SIMPLEX, "mu_step_joint_wnorm")
    h_map = partial(_floor_columns, epsilon_floor=epsilon_floor)
    W, H = joint_step(X, f.W, f.H, h_map, epsilon_floor)
    return StepOutcome(Factorization(W, H, ConstraintMode.W_SIMPLEX), kl_divergence(X, W, H), 1)


def mu_step_joint_bothnorm(
    X: TermDocMatrix,
    f: Factorization,
    *,
    epsilon_floor: float = 1e-12,
) -> StepOutcome:
    """One joint update with both factors columnwise on the simplex.

    Same shared reconstruction as :func:`mu_step_joint_wnorm`, but the
    ``h`` update is renormalized per document.  This is exactly the EM
    update of the word/document mixture model.
    """
    _require_mode(f, ConstraintMode.BOTH_SIMPLEX, "mu_step_joint_bothnorm")
    h_map = partial(_normalized, epsilon_floor=epsilon_floor, detail="document column collapsed")
    W, H = joint_step(X, f.W, f.H, h_map, epsilon_floor)
    return StepOutcome(Factorization(W, H, ConstraintMode.BOTH_SIMPLEX), kl_divergence(X, W, H), 1)


def mu_step_sparse(
    X: TermDocMatrix,
    f: Factorization,
    lambda_sparsity: float,
    *,
    epsilon_floor: float = 1e-12,
) -> StepOutcome:
    """One joint update for the l1-penalized objective with ``W`` on the simplex.

    Identical to :func:`mu_step_joint_wnorm` except that the ``h`` update
    is scaled by ``1 / (1 + lambda)``; the reported objective includes the
    penalty ``lambda * ||H||_1``.
    """
    _require_mode(f, ConstraintMode.W_SIMPLEX, "mu_step_sparse")
    if not 0 <= lambda_sparsity < np.inf:
        raise ValueError("lambda_sparsity must be non-negative and finite")

    W, H = joint_step(
        X, f.W, f.H, lambda raw: _floor_columns(raw / (1.0 + lambda_sparsity), epsilon_floor), epsilon_floor
    )
    objective = sparse_objective(X, W, H, lambda_sparsity)
    return StepOutcome(Factorization(W, H, ConstraintMode.W_SIMPLEX), objective, 1)


# ---------------------------------------------------------------------------
# Driver


def descend(step, state, initial: float, config: FitConfig, sign: int):
    """The iteration loop of every fit: ``state, value, recon_evals = step(state)``.

    Works on ``f = sign * value``: +1 minimizes an objective, -1 maximizes
    a bound (negation is exact, so both take the same decisions).  Stops
    when ``|f_n - f_{n-1}| / max(1, |f_{n-1}|) < config.rel_tolerance`` or
    after ``config.max_iters`` steps; returns the final state and the trace.
    A rise of ``f`` by more than ``DESCENT_SLACK`` relative raises
    ``MonotonicityError``, a non-finite value (``initial`` too) ``NumericalError``.
    """
    if not math.isfinite(initial):
        raise NumericalError(f"non-finite initial objective {initial!r}")
    previous = sign * initial
    trace = FitTrace()
    for iteration in range(1, config.max_iters + 1):
        started = time.perf_counter()
        state, value, recon_evals = step(state)
        trace.append(value, recon_evals, time.perf_counter() - started)
        if not math.isfinite(value):
            raise NumericalError(f"non-finite objective {value!r} after {iteration} iterations")
        current = sign * value
        scale = max(1.0, abs(previous))
        if current > previous + DESCENT_SLACK * scale:
            moved = "objective rose" if sign > 0 else "bound fell"
            raise MonotonicityError(f"no progress: {moved} from {sign * previous!r} to {value!r}")
        if abs(current - previous) / scale < config.rel_tolerance:
            break
        previous = current
    return state, trace


def initialize_factorization(X: TermDocMatrix, config: FitConfig) -> Factorization:
    """Seeded random start matching the method's constraint mode.

    Columns of ``W`` are drawn from a flat Dirichlet; ``H`` entries from
    Gamma(1, 1), scaled per document so that ``sum_k h_kd`` matches the
    document total (or one, when ``H`` is constrained to the simplex).
    """
    spec = METHOD_SPECS[config.method]
    if spec.variational:
        raise ValueError(f"initialize_factorization handles methods {MU_METHODS}")
    rng = np.random.default_rng(config.seed)
    W = rng.dirichlet(np.ones(X.n_terms), size=config.n_topics).T
    H = rng.gamma(1.0, 1.0, size=(config.n_topics, X.n_docs))
    H = H / H.sum(axis=0, keepdims=True)
    if spec.mode != ConstraintMode.BOTH_SIMPLEX:
        H = H * X.col_sums[None, :]
    return Factorization(W, H, spec.mode)


def fit(
    X: TermDocMatrix,
    config: FitConfig,
    init: Factorization | None = None,
) -> tuple[Factorization, FitTrace]:
    """Minimize the method's objective with its stepper under :func:`descend`.

    The stepper rejects an ``init`` in another constraint mode.  The run
    is fully determined by ``(seed, config, init)``.

    Returns the final factorization together with the per-iteration trace.
    """
    spec = METHOD_SPECS[config.method]
    if spec.variational:
        raise ValueError(f"fit handles methods {MU_METHODS}; use fit_vi for {config.method!r}")
    f = init if init is not None else initialize_factorization(X, config)
    if f.n_topics != config.n_topics:
        raise ValueError(f"init has {f.n_topics} topics, config expects {config.n_topics}")

    stepper = spec.function(spec.stepper)
    penalty = spec.penalty(config.lambda_sparsity)

    def step(current: Factorization):
        out = stepper(X, current, epsilon_floor=config.epsilon_floor, **penalty)
        return out.factorization, out.objective, out.recon_evals

    initial = spec.function(spec.objective)(X, f.W, f.H, **penalty)
    return descend(step, f, initial, config, +1)
