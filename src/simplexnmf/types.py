"""Core containers and the shared reconstruction evaluator.

The data matrix is sparse and read-only; factor matrices are small and
dense.  Every solver evaluates the reconstruction ``(WH)_vd`` only at the
nonzero entries of ``X`` plus its column sums, for which there is a closed
form: ``sum_v (WH)_vd = sum_k (sum_v w_vk) h_kd``, which collapses to
``sum_k h_kd`` when the columns of ``W`` are normalized.  That split is
what makes the one-reconstruction-per-iteration accounting of the joint
solvers meaningful on sparse data.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import DataError, DegenerateColumnError

SIMPLEX_TOL = 1e-12


class ConstraintMode(IntEnum):
    UNCONSTRAINED = 0
    W_SIMPLEX = 1
    BOTH_SIMPLEX = 2

    @property
    def tag(self) -> str:
        return _MODE_TAGS[self]

    @classmethod
    def from_tag(cls, tag: str) -> "ConstraintMode":
        for mode, name in _MODE_TAGS.items():
            if name == tag:
                return mode
        raise DataError(f"unknown constraint_mode: {tag!r}")


_MODE_TAGS = {
    ConstraintMode.UNCONSTRAINED: "unconstrained",
    ConstraintMode.W_SIMPLEX: "w-simplex",
    ConstraintMode.BOTH_SIMPLEX: "both-simplex",
}


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TermDocMatrix:
    """Sparse non-negative term-document count matrix.

    Entries are stored once per ``(term, doc)`` pair, document-major, with
    explicit zeros dropped; counts must be finite and non-negative.
    Per-document totals (the column sums ``lambda_d``) are cached at
    construction; ``doc_ptr`` delimits the entry range of each document.
    Counts are kept as reals: nothing in the solvers requires integer data.
    """

    n_terms: int
    n_docs: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    col_sums: np.ndarray
    doc_ptr: np.ndarray

    @classmethod
    def from_entries(cls, n_terms: int, n_docs: int, entries) -> "TermDocMatrix":
        """Build from an iterable of ``(term, doc, count)`` triples."""
        if n_terms <= 0 or n_docs <= 0:
            raise DataError("matrix dimensions must be positive")
        triples = list(entries)
        rows = np.array([t[0] for t in triples], dtype=np.int64)
        cols = np.array([t[1] for t in triples], dtype=np.int64)
        vals = np.array([t[2] for t in triples], dtype=float)
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_terms or cols.min() < 0 or cols.max() >= n_docs:
                raise DataError("entry index out of range")
            bad = ~(np.isfinite(vals) & (vals >= 0))
            if bad.any():
                e = int(np.argmax(bad))
                kind = "negative" if vals[e] < 0 else "non-finite"
                raise DataError(f"{kind} count at entry ({rows[e]}, {cols[e]})")
            keys = cols * n_terms + rows
            if np.unique(keys).size != keys.size:
                order = np.argsort(keys, kind="stable")
                dup = order[np.nonzero(np.diff(keys[order]) == 0)[0][0] + 1]
                raise DataError(f"duplicate entry ({rows[dup]}, {cols[dup]})")
            keep = vals > 0
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
            order = np.lexsort((rows, cols))
            rows, cols, vals = rows[order], cols[order], vals[order]
        col_sums = np.bincount(cols, vals, minlength=n_docs)
        doc_ptr = np.searchsorted(cols, np.arange(n_docs + 1))
        return cls(
            int(n_terms),
            int(n_docs),
            _readonly(rows),
            _readonly(cols),
            _readonly(vals),
            _readonly(col_sums),
            _readonly(doc_ptr.astype(np.int64)),
        )

    @classmethod
    def from_dense(cls, dense) -> "TermDocMatrix":
        arr = np.asarray(dense, dtype=float)
        if arr.ndim != 2:
            raise DataError("dense input must be a 2-d array")
        rows, cols = np.nonzero(arr)
        return cls.from_entries(arr.shape[0], arr.shape[1], zip(rows, cols, arr[rows, cols]))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_terms, self.n_docs))
        out[self.rows, self.cols] = self.vals
        return out

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    @property
    def total(self) -> float:
        """Grand total of all counts."""
        return float(self.col_sums.sum())

    def recompute_column_sums(self) -> np.ndarray:
        """Per-document totals re-accumulated in storage order (matches the cache exactly)."""
        return np.bincount(self.cols, self.vals, minlength=self.n_docs)


@dataclass(frozen=True, eq=False)
class Factorization:
    """A ``(W, H)`` pair with its declared column constraints.

    ``W`` is terms x topics, ``H`` topics x documents.  Construction
    validates that both are finite and non-negative and, depending on the
    mode, that the columns of ``W`` (and of ``H``) sum to one within
    ``SIMPLEX_TOL``.
    """

    W: np.ndarray
    H: np.ndarray
    constraint_mode: ConstraintMode = ConstraintMode.UNCONSTRAINED

    def __post_init__(self):
        W = np.array(self.W, dtype=float)
        H = np.array(self.H, dtype=float)
        if W.ndim != 2 or H.ndim != 2 or W.shape[1] != H.shape[0]:
            raise ValueError(f"inconsistent factor shapes {W.shape} x {H.shape}")
        if not (np.all(np.isfinite(W) & (W >= 0)) and np.all(np.isfinite(H) & (H >= 0))):
            raise ValueError("factor matrices must be finite and non-negative")
        mode = ConstraintMode(self.constraint_mode)
        if mode >= ConstraintMode.W_SIMPLEX:
            _check_simplex(W, "W")
        if mode == ConstraintMode.BOTH_SIMPLEX:
            _check_simplex(H, "H")
        object.__setattr__(self, "W", _readonly(W))
        object.__setattr__(self, "H", _readonly(H))
        object.__setattr__(self, "constraint_mode", mode)

    @property
    def n_terms(self) -> int:
        return self.W.shape[0]

    @property
    def n_topics(self) -> int:
        return self.W.shape[1]

    @property
    def n_docs(self) -> int:
        return self.H.shape[1]


def _check_simplex(M: np.ndarray, name: str) -> None:
    sums = M.sum(axis=0)
    off = np.abs(sums - 1.0)
    if np.any(off > SIMPLEX_TOL):
        k = int(np.argmax(off))
        raise ValueError(f"column {k} of {name} sums to {sums[k]!r}, expected 1 within {SIMPLEX_TOL}")


@dataclass(frozen=True, eq=False)
class Priors:
    """Dirichlet concentrations ``alpha`` and, for the Gamma model, rates ``rate_a``."""

    alpha: np.ndarray
    rate_a: np.ndarray | None = None

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=float).reshape(-1)
        if alpha.size == 0 or not np.all((alpha > 0) & np.isfinite(alpha)):
            raise ValueError("alpha must be strictly positive and finite")
        object.__setattr__(self, "alpha", _readonly(alpha))
        if self.rate_a is not None:
            rate = np.array(self.rate_a, dtype=float).reshape(-1)
            if rate.shape != alpha.shape or not np.all((rate > 0) & np.isfinite(rate)):
                raise ValueError("rate_a must be strictly positive, finite and match alpha in length")
            object.__setattr__(self, "rate_a", _readonly(rate))

    @property
    def n_topics(self) -> int:
        return self.alpha.size


@dataclass(frozen=True, eq=False)
class VariationalState:
    """Per-document variational parameters.

    ``beta`` holds the Dirichlet (or Gamma shape) parameters, topics x
    documents.  ``b_rate`` holds Gamma rate parameters when present.  The
    per-word responsibilities are never stored; they are recomputed from
    ``W`` and the expected-log weights whenever needed.
    """

    beta: np.ndarray
    b_rate: np.ndarray | None = None

    def __post_init__(self):
        beta = np.array(self.beta, dtype=float)
        if beta.ndim != 2 or not np.all((beta > 0) & np.isfinite(beta)):
            raise ValueError("beta must be a strictly positive, finite 2-d array")
        object.__setattr__(self, "beta", _readonly(beta))
        if self.b_rate is not None:
            b = np.array(self.b_rate, dtype=float)
            if b.shape != beta.shape or not np.all((b > 0) & np.isfinite(b)):
                raise ValueError("b_rate must be strictly positive, finite and the same shape as beta")
            object.__setattr__(self, "b_rate", _readonly(b))

    @property
    def n_topics(self) -> int:
        return self.beta.shape[0]

    @property
    def n_docs(self) -> int:
        return self.beta.shape[1]


@dataclass(frozen=True)
class MethodSpec:
    """Everything that differs between the fitting methods.

    Functions are ``"module.function"`` names, looked up by :meth:`function`
    when called so that a rebound module attribute (a test double, a
    tracer) is the one that runs.  Multiplicative steppers take ``(X, f)``
    and objectives ``(X, W, H)``, variational ones ``(X, W, priors,
    state)``; with ``uses_lambda`` they and the ``eval_lines`` (``(label,
    function)`` printed after the KL divergence) also take
    ``lambda_sparsity``.  ``uses_rates`` methods need Gamma rates, and
    ``model_fields`` are the model-file fields besides ``W``.
    """

    mode: ConstraintMode
    variational: bool
    stepper: str
    objective: str
    model_fields: tuple[str, ...]
    eval_lines: tuple[tuple[str, str], ...] = ()
    uses_lambda: bool = False
    uses_rates: bool = False

    @staticmethod
    def function(name: str):
        """Resolve a ``"module.function"`` name inside this package."""
        module, _, attr = name.partition(".")
        return getattr(importlib.import_module(f"{__package__}.{module}"), attr)

    def penalty(self, lambda_sparsity: float) -> dict:
        """Keyword arguments that pass the l1 weight to the method's functions."""
        return {"lambda_sparsity": lambda_sparsity} if self.uses_lambda else {}


_KL = "objectives.kl_divergence"

METHOD_SPECS = {
    "mu": MethodSpec(ConstraintMode.UNCONSTRAINED, False, "mu.mu_step_alternating", _KL, ("H",)),
    "mu-joint": MethodSpec(ConstraintMode.W_SIMPLEX, False, "mu.mu_step_joint_wnorm", _KL, ("H",)),
    "plsa": MethodSpec(
        ConstraintMode.BOTH_SIMPLEX, False, "mu.mu_step_joint_bothnorm", _KL, ("H",),
        eval_lines=(("plsa_log_likelihood", "objectives.plsa_log_likelihood"),),
    ),
    "sparse": MethodSpec(
        ConstraintMode.W_SIMPLEX, False, "mu.mu_step_sparse", "objectives.sparse_objective", ("H",),
        eval_lines=(("penalized_objective", "objectives.sparse_objective"),), uses_lambda=True,
    ),
    "lda": MethodSpec(ConstraintMode.W_SIMPLEX, True, "vi.dp_vi_step", "objectives.lda_elbo", ("beta", "alpha")),
    "gap": MethodSpec(
        ConstraintMode.W_SIMPLEX, True, "vi.gap_vi_step", "objectives.gap_elbo",
        ("beta", "b_rate", "alpha", "rate_a"), uses_rates=True,
    ),
}

METHODS = tuple(METHOD_SPECS)
MU_METHODS = tuple(name for name, spec in METHOD_SPECS.items() if not spec.variational)
VI_METHODS = tuple(name for name, spec in METHOD_SPECS.items() if spec.variational)
METHOD_MODES = {name: spec.mode for name, spec in METHOD_SPECS.items()}


@dataclass(frozen=True)
class FitConfig:
    """Everything a fit needs besides the data and the initialization."""

    n_topics: int
    method: str = "mu"
    max_iters: int = 200
    rel_tolerance: float = 1e-8
    seed: int = 0
    lambda_sparsity: float = 0.0
    epsilon_floor: float = 1e-12

    def __post_init__(self):
        if self.n_topics < 1:
            raise ValueError("n_topics must be at least 1")
        if self.method not in METHOD_SPECS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.rel_tolerance > 0:
            raise ValueError("rel_tolerance must be positive")
        if not 0 <= self.lambda_sparsity < np.inf:
            raise ValueError("lambda_sparsity must be non-negative and finite")
        if not 0 < self.epsilon_floor < 1:
            raise ValueError("epsilon_floor must lie in (0, 1)")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass
class FitTrace:
    """Per-iteration objective values, update-path reconstruction counts, and wall time."""

    objectives: list[float] = field(default_factory=list)
    recon_evals: list[int] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    def append(self, objective: float, recon_evals: int, seconds: float) -> None:
        self.objectives.append(float(objective))
        self.recon_evals.append(int(recon_evals))
        self.seconds.append(float(seconds))

    @property
    def n_iterations(self) -> int:
        return len(self.objectives)


# ---------------------------------------------------------------------------
# Reconstruction evaluator


def reconstruct_at(W, H, v: int, d: int) -> float:
    """The single reconstruction entry ``sum_k w_vk h_kd``."""
    W = np.asarray(W, dtype=float)
    H = np.asarray(H, dtype=float)
    if not (0 <= v < W.shape[0]) or not (0 <= d < H.shape[1]):
        raise IndexError(f"entry ({v}, {d}) outside a {W.shape[0]} x {H.shape[1]} reconstruction")
    return float(W[v, :] @ H[:, d])


def column_sums(M) -> np.ndarray:
    """Per-column sums of a dense matrix."""
    return np.asarray(M, dtype=float).sum(axis=0)


def normalize_columns(M) -> tuple[np.ndarray, np.ndarray]:
    """Scale every column to sum to one; returns the matrix and the scales.

    ``result * diag(scales)`` reproduces the input exactly.  A zero column
    has no valid scale and raises ``DegenerateColumnError``.
    """
    M = np.asarray(M, dtype=float)
    scales = M.sum(axis=0)
    if np.any(scales == 0):
        raise DegenerateColumnError(int(np.argmax(scales == 0)))
    return M / scales, scales


def reconstruct_nonzeros(X: TermDocMatrix, W, H) -> np.ndarray:
    """``(WH)_vd`` evaluated at the stored nonzero entries of ``X``, in storage order."""
    W = np.asarray(W, dtype=float)
    H = np.asarray(H, dtype=float)
    return np.einsum("ek,ke->e", W[X.rows, :], H[:, X.cols])


def reconstruction_column_sums(W, H) -> np.ndarray:
    """``sum_v (WH)_vd`` for every document, without forming ``WH``."""
    W = np.asarray(W, dtype=float)
    H = np.asarray(H, dtype=float)
    return column_sums(W) @ H


def reconstruction_total(W, H) -> float:
    """``sum_vd (WH)_vd`` via the column-sum closed form."""
    return float(reconstruction_column_sums(W, H).sum())


def term_topic_sums(X: TermDocMatrix, entry_weights: np.ndarray, H) -> np.ndarray:
    """Accumulate ``sum_d weight_vd h_kd`` into a terms x topics array.

    ``entry_weights`` is aligned with the stored entries of ``X``; every
    sum is taken in storage order, so the result is deterministic.
    """
    H = np.asarray(H, dtype=float)
    return np.stack([np.bincount(X.rows, entry_weights * h[X.cols], minlength=X.n_terms) for h in H], axis=1)


def topic_doc_sums(X: TermDocMatrix, entry_weights: np.ndarray, W) -> np.ndarray:
    """Accumulate ``sum_v weight_vd w_vk`` into a topics x documents array."""
    W = np.asarray(W, dtype=float)
    return np.stack([np.bincount(X.cols, entry_weights * w[X.rows], minlength=X.n_docs) for w in W.T])
