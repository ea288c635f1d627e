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
against one for the joint methods.

A step only maps: it takes the reconstruction at its input state as
``recon`` (computed when it is ``None``) and returns the new factors,
without evaluating them.  The fit driver evaluates every state in one
place, the checked reconstruction and then the registry objective with
``recon=``, and passes that reconstruction into the next step, so one
reconstruction per state serves both the monitoring and the next update: a
fit of ``n`` iterations computes ``sum(trace.recon_evals) + 1``
reconstructions (``n + 1`` for a joint method, ``2n + 1`` for ``mu``), the
``+ 1`` being the initial state's.  ``StepOutcome.recon_evals`` is the
number a step computes when it is not given ``recon``.

After every multiplicative update, entries are floored at
``EPSILON_FLOOR * (column max)`` before any normalization.  Multiplicative
updates cannot revive an exact zero, so the floor keeps topics alive
without disturbing healthy entries; because it is relative to the column
maximum it also commutes with the columnwise rescalings that relate the
constrained solvers to each other.

:func:`fit` runs every fit, of all six methods (:func:`simplexnmf.vi.fit_vi`
returns its fit of ``lda`` or ``gap`` as ``(W, state, trace)``); what
differs between the two kinds of state is in two family records,
:class:`_Factorizations` and ``vi._Variational``.  Which family, stepper,
constraint mode and objective a method uses is read from ``types.METHOD_SPECS``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DeadTopicError, DegenerateColumnError, MonotonicityError, NumericalError
from .objectives import _checked_reconstruction, _expected_counts
from .types import (
    ConstraintMode,
    Factorization,
    FitConfig,
    FitTrace,
    METHOD_SPECS,
    MU_METHODS,
    TermDocMatrix,
    term_topic_sums,
    topic_doc_sums,
    _check_lambda,
    _finite_positive,
    _readonly,
)

# relative slack on the guaranteed descent before a step is declared broken
DESCENT_SLACK = 1e-9
# the zero-absorbing floor, relative to each column's maximum; every
# stepper's ``epsilon_floor`` default, and 0.0 disables it
EPSILON_FLOOR = 1e-12


@dataclass(frozen=True)
class StepOutcome:
    """One solver step: the updated factors and the number of reconstructions
    the step computes when it is not given the one at its input (1 or 2),
    which is also the number an iteration of a fit computes."""

    factorization: Factorization
    recon_evals: int


def _floor_columns(M: np.ndarray, epsilon_floor: float) -> np.ndarray:
    """``M`` floored at ``epsilon_floor`` times its column maxima, in a new C-ordered array."""
    if M.size == 0:
        return M
    return np.maximum(M, epsilon_floor * M.max(axis=0, keepdims=True), order="C")


def _normalized(raw: np.ndarray, epsilon_floor: float, dead) -> np.ndarray:
    """Floor, then normalize the columns of ``raw``; ``dead(j)`` is raised for a zero column ``j``."""
    floored = _floor_columns(raw, epsilon_floor)
    sums = floored.sum(axis=0)
    if np.any(sums == 0):
        raise dead(int(np.argmax(sums == 0)))
    return floored / sums


def _finite_update(W: np.ndarray, H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(W, H)``, once both are checked finite (``NumericalError`` otherwise), made read-only.

    Every step's new arrays pass through here, so the containers they go
    into (``Factorization``, ``VariationalState``) take them without a copy.
    """
    for name, M in (("W", W), ("the topic weights", H)):
        if not _finite_positive(M, zero_ok=True):  # an update of non-negative factors leaves no negative entry
            raise NumericalError(f"non-finite iterate: the update left an infinite or NaN entry in {name}")
    return _readonly(W), _readonly(H)


def _require_mode(f: Factorization, mode: ConstraintMode, who: str) -> None:
    if f.constraint_mode != mode:
        raise ValueError(f"{who} requires constraint mode {mode.tag!r}, got {f.constraint_mode.tag!r}")


def joint_step(
    X: TermDocMatrix,
    W: np.ndarray,
    H: np.ndarray,
    h_map,
    epsilon_floor: float,
    recon: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The joint update of every method but ``mu``; returns ``(W', H')``.

    With ``r = x / (WH)`` from one checked reconstruction at the nonzeros
    (``recon``, computed when ``None``), the numerators are the expected
    counts of :func:`~simplexnmf.objectives._expected_counts`: ``W' =
    normalize_k(floor(W * sum_d r_vd h_kd))`` (``DeadTopicError`` when a
    topic's numerators all vanish) and ``H' = h_map(H * sum_v r_vd w_vk)``
    with the pre-update ``W``.  An infinite or NaN entry in either raises
    ``NumericalError``.

    ``h_map`` gets that product in Fortran order (the transpose of SciPy's
    documents x topics sums, multiplied in place so that no second K x D
    array is live) and returns a new C-ordered array: later column sums
    round according to the layout, and the iterates are those of C order.
    """
    term_counts, doc_counts = _expected_counts(X, W, H, recon)
    dead = partial(DeadTopicError, detail="all update numerators vanished")
    return _finite_update(_normalized(term_counts, epsilon_floor, dead), h_map(doc_counts))


def mu_step_alternating(
    X: TermDocMatrix,
    f: Factorization,
    *,
    epsilon_floor: float = EPSILON_FLOOR,
    recon: np.ndarray | None = None,
) -> StepOutcome:
    """One alternating update on an unconstrained factorization.

    ``W`` moves first against the current reconstruction,

        w_vk <- w_vk * [sum_d x_vd h_kd / (WH)_vd] / [sum_d h_kd],

    then the reconstruction is recomputed with the new ``W`` and

        h_kd <- h_kd * [sum_v x_vd w_vk / (WH)_vd] / [sum_v w_vk].
    """
    _require_mode(f, ConstraintMode.UNCONSTRAINED, "mu_step_alternating")
    W, H = f.W, f.H

    ratio = X.vals / (_checked_reconstruction(X, W, H) if recon is None else recon)
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

    W_new, H_new = _finite_update(W_new, H_new)
    return StepOutcome(Factorization(W_new, H_new, ConstraintMode.UNCONSTRAINED), 2)


def mu_step_joint_wnorm(
    X: TermDocMatrix,
    f: Factorization,
    *,
    epsilon_floor: float = EPSILON_FLOOR,
    recon: np.ndarray | None = None,
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
    W, H = joint_step(X, f.W, f.H, h_map, epsilon_floor, recon)
    return StepOutcome(Factorization(W, H, ConstraintMode.W_SIMPLEX), 1)


def mu_step_joint_bothnorm(
    X: TermDocMatrix,
    f: Factorization,
    *,
    epsilon_floor: float = EPSILON_FLOOR,
    recon: np.ndarray | None = None,
) -> StepOutcome:
    """One joint update with both factors columnwise on the simplex.

    Same shared reconstruction as :func:`mu_step_joint_wnorm`, but the
    ``h`` update is renormalized per document.  This is exactly the EM
    update of the word/document mixture model.  A document whose column
    vanishes, such as one with no entries, raises
    ``DegenerateColumnError`` naming the document.
    """
    _require_mode(f, ConstraintMode.BOTH_SIMPLEX, "mu_step_joint_bothnorm")
    h_map = partial(_normalized, epsilon_floor=epsilon_floor, dead=partial(DegenerateColumnError, what="document"))
    W, H = joint_step(X, f.W, f.H, h_map, epsilon_floor, recon)
    return StepOutcome(Factorization(W, H, ConstraintMode.BOTH_SIMPLEX), 1)


def mu_step_sparse(
    X: TermDocMatrix,
    f: Factorization,
    lambda_sparsity: float,
    *,
    epsilon_floor: float = EPSILON_FLOOR,
    recon: np.ndarray | None = None,
) -> StepOutcome:
    """One joint update for the l1-penalized objective with ``W`` on the simplex.

    Identical to :func:`mu_step_joint_wnorm` except that the ``h`` update
    is scaled by ``1 / (1 + lambda)``, the update for the objective with
    the penalty ``lambda * ||H||_1`` (:func:`~simplexnmf.objectives.sparse_objective`).
    """
    _require_mode(f, ConstraintMode.W_SIMPLEX, "mu_step_sparse")
    _check_lambda(lambda_sparsity)
    W, H = joint_step(
        X, f.W, f.H, lambda raw: _floor_columns(raw / (1.0 + lambda_sparsity), epsilon_floor), epsilon_floor, recon
    )
    return StepOutcome(Factorization(W, H, ConstraintMode.W_SIMPLEX), 1)


# ---------------------------------------------------------------------------
# Driver


def _seeded_start(X: TermDocMatrix, config: FitConfig, random_split: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The draw of every seeded start: ``W`` with flat-Dirichlet columns, and a K x D
    split with unit column sums, normalized Gamma(1, 1) entries (even without ``random_split``)."""
    rng = np.random.default_rng(config.seed)
    W = rng.dirichlet(np.ones(X.n_terms), size=config.n_topics).T
    if not random_split:
        return W, np.full((config.n_topics, X.n_docs), 1.0 / config.n_topics)
    split = rng.gamma(1.0, 1.0, size=(config.n_topics, X.n_docs))
    return W, split / split.sum(axis=0, keepdims=True)


def initialize_factorization(X: TermDocMatrix, config: FitConfig) -> Factorization:
    """Seeded random start matching the method's constraint mode.

    Columns of ``W`` are drawn from a flat Dirichlet; ``H`` entries from
    Gamma(1, 1), scaled per document so that ``sum_k h_kd`` matches the
    document total (or one, when ``H`` is constrained to the simplex).
    """
    spec = METHOD_SPECS[config.method]
    if spec.variational:
        raise ValueError(f"initialize_factorization handles methods {MU_METHODS}")
    W, H = _seeded_start(X, config)
    if spec.mode != ConstraintMode.BOTH_SIMPLEX:
        H = H * X.col_sums[None, :]
    return Factorization(W, H, spec.mode)


class _Factorizations:
    """The fit driver's record for :class:`Factorization` states: the
    objective is minimized, and a state's carry into its step, and into
    every ``eval`` line, is its checked reconstruction."""

    sign = +1

    def __init__(self, X: TermDocMatrix, spec, priors=None, lambda_sparsity: float = 0.0):
        self.X, self.spec, self.penalty = X, spec, spec.penalty(lambda_sparsity)
        self.stepper, self.objective = spec.function(spec.stepper), spec.function(spec.objective)

    @classmethod
    def rebuild(cls, X: TermDocMatrix, spec, fields: dict, lambda_sparsity: float = 0.0):
        """The inverse of :meth:`arrays`: ``(record, state)`` of a model's ``fields``.

        The state is unconstrained, so its columns are not checked against the
        method's simplex: a rebuilt state is evaluated, never stepped.
        """
        return cls(X, spec, None, lambda_sparsity), Factorization(fields["W"], fields["H"])

    def start(self, config: FitConfig) -> Factorization:
        return initialize_factorization(self.X, config)

    def evaluate(self, f: Factorization):
        recon = _checked_reconstruction(self.X, f.W, f.H)
        return self.objective(self.X, f.W, f.H, recon=recon, **self.penalty), recon

    def step(self, f: Factorization, recon):
        out = self.stepper(self.X, f, recon=recon, **self.penalty)
        return out.factorization, out.recon_evals

    def eval_lines(self, f: Factorization) -> list[tuple[str, float]]:
        """The method's ``eval_lines`` at ``f``, every one from one checked reconstruction."""
        recon = _checked_reconstruction(self.X, f.W, f.H)
        return [
            (label, self.spec.function(name)(
                self.X, f.W, f.H, recon=recon, **(self.penalty if name == self.spec.objective else {})))
            for label, name in self.spec.eval_lines
        ]

    @staticmethod
    def arrays(f: Factorization) -> dict:
        return {"W": f.W, "H": f.H}


@np.errstate(all="ignore")
def fit(X: TermDocMatrix, config: FitConfig, priors=None):
    """Fit ``config.method`` to ``X`` from its family's seeded start, evaluating every
    state once (see the module notes); returns ``(final state, trace)``.

    The state is a :class:`Factorization` for the multiplicative methods and
    ``(W, VariationalState)`` for ``lda`` and ``gap``, which need ``priors``
    (``ValueError`` without them).  The run is fully determined by ``config``
    and ``priors``.

    The loop works on ``f = sign * value`` of the method's family record: +1 minimizes
    an objective, -1 maximizes a bound (negation is exact, so both take the same
    decisions).  It stops when ``|f_n - f_{n-1}| / max(1, |f_{n-1}|) < config.rel_tolerance``
    or after ``config.max_iters`` steps.  A rise of ``f`` by more than ``DESCENT_SLACK``
    relative raises ``MonotonicityError``, a non-finite value (the start's too) ``NumericalError``.
    It runs with numpy's floating-point warnings off: an overflow or invalid value that
    matters reaches a checked objective or iterate (``_finite_update``) and is raised as
    ``NumericalError``, not as a ``RuntimeWarning``.
    """
    family = METHOD_SPECS[config.method].family(X, priors, config.lambda_sparsity)
    state = family.start(config)
    initial, carry = family.evaluate(state)
    if not math.isfinite(initial):
        raise NumericalError(f"non-finite initial objective {initial!r}")
    sign = family.sign
    previous = sign * initial
    trace = FitTrace()
    for iteration in range(1, config.max_iters + 1):
        started = time.perf_counter()
        state, recon_evals = family.step(state, carry)
        # nothing of the previous state is left while the new one is evaluated, where a fit's memory peaks
        del carry
        value, carry = family.evaluate(state)
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

