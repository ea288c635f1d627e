"""Core containers and the shared reconstruction evaluator.

The data matrix is sparse and read-only; factor matrices are small and
dense.  Every solver evaluates the reconstruction ``(WH)_vd`` only at the
nonzero entries of ``X`` plus its column sums, for which there is a closed
form: ``sum_v (WH)_vd = sum_k (sum_v w_vk) h_kd``, which collapses to
``sum_k h_kd`` when the columns of ``W`` are normalized.  That split is
what makes the one-reconstruction-per-iteration accounting of the joint
solvers meaningful on sparse data.

The three kernels on the stored entries never form an ``nnz x K`` array.
The reconstruction, a dense product evaluated only at the stored entries,
adds one gathered product per topic into an ``nnz``-vector.  It splits the
entries into contiguous ranges with ``_in_ranges``, one per CPU of the
process's affinity mask when the work is large enough; the caller runs the
first range and a ``concurrent.futures`` thread pool opened for the call
the others (numpy releases the GIL in the gathers and the arithmetic).
Each range is worked through in blocks of ``_BLOCK`` entries, every topic
added into a block before the next, so that a block's vectors stay in the
L2 cache across the topics.  Every entry still adds its topics in the same
order, so the result is bit-identical to one serial pass whatever the
ranges and the block size, and there is no option for either.  The
same splitter runs ``specfun``'s digamma and log-gamma passes over a
large ``beta`` in ranges of its cells.  The two
accumulations are sparse-times-dense products of SciPy: the entry weights
are viewed as a CSC matrix over ``X.rows`` and ``X.doc_ptr`` (no copy),
the term x topic sums are ``R @ H.T`` and the topic x document sums
``(R.T @ W).T``.  They stay serial: split by blocks of topics over two
threads they were bit-identical but slower.  Each kernel adds in a fixed
order, so a fit is deterministic.
"""

from __future__ import annotations

import contextvars
import importlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np
from scipy import sparse

from .errors import DataError, DegenerateColumnError, EntryError

SIMPLEX_TOL = 1e-12


class ConstraintMode(IntEnum):
    UNCONSTRAINED = 0
    W_SIMPLEX = 1
    BOTH_SIMPLEX = 2

    @property
    def tag(self) -> str:
        return _MODE_TAGS[self]


_MODE_TAGS = {
    ConstraintMode.UNCONSTRAINED: "unconstrained",
    ConstraintMode.W_SIMPLEX: "w-simplex",
    ConstraintMode.BOTH_SIMPLEX: "both-simplex",
}


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _frozen_float(x) -> np.ndarray:
    """``x`` as a read-only float64 array: ``x`` itself when it already is one
    that owns its data, as a step's new arrays and those of another state
    are; a copy otherwise."""
    if isinstance(x, np.ndarray) and x.dtype == np.float64 and x.flags.owndata and not x.flags.writeable:
        return x
    return _readonly(np.array(x, dtype=float))


def _finite_positive(a: np.ndarray, zero_ok: bool = False) -> bool:
    """Whether every entry of ``a`` is finite and positive (or zero, when
    ``zero_ok``); true of an empty array.  One ``min()`` and one ``max()``
    reduction, with no boolean temporary of the shape of ``a``: ``min()``
    propagates a NaN, which fails the comparison.

    This is the package's one test of a whole array's values: the
    containers (``Factorization``, ``VariationalState``, ``Priors``), the
    model-file fields, a step's output, and the factors an evaluator takes
    from a caller without a carry all go through it.  Each caller picks
    the error family: ``ValueError`` for an argument, ``DataError`` for a
    file, ``NumericalError`` for an update."""
    if a.size == 0:
        return True
    least = a.min()
    return bool((least >= 0.0 if zero_ok else least > 0.0) and a.max() < np.inf)


def _lambda_ok(lambda_sparsity) -> bool:
    """The one rule for the l1 weight ``lambda_sparsity``: non-negative and finite (a NaN is neither)."""
    return bool(0 <= lambda_sparsity < np.inf)


def _check_lambda(lambda_sparsity) -> None:
    """``ValueError`` unless ``lambda_sparsity`` keeps :func:`_lambda_ok`'s rule."""
    if not _lambda_ok(lambda_sparsity):
        raise ValueError("lambda_sparsity must be non-negative and finite")


def _whole(a: np.ndarray) -> np.ndarray:
    """Which entries of an index array are finite whole numbers: every entry
    of an integer array, none of an array of strings, objects or bools."""
    if a.dtype.kind in "iu":
        return np.ones(a.shape, bool)
    if a.dtype.kind != "f":
        return np.zeros(a.shape, bool)
    return np.isfinite(a) & (a == np.floor(a))


@dataclass(frozen=True, eq=False)
class TermDocMatrix:
    """Sparse non-negative term-document count matrix.

    Entries are stored once per ``(term, doc)`` pair, document-major, with
    explicit zeros dropped; counts must be finite and non-negative.
    Per-document totals (the column sums ``lambda_d``) are cached at
    construction; ``doc_ptr`` delimits the entry range of each document.
    Counts are kept as reals: nothing in the solvers requires integer data.
    Every constructor, and every file reader, goes through
    :meth:`from_arrays`, the one place that decides what a valid entry is.
    """

    n_terms: int
    n_docs: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    col_sums: np.ndarray
    doc_ptr: np.ndarray

    @classmethod
    def from_arrays(cls, n_terms: int, n_docs: int, rows, cols, vals) -> "TermDocMatrix":
        """Build from parallel arrays of 0-based term indices, document indices and counts.

        Checks, in this order: dimensions that are positive whole numbers
        (whole floats are taken as integers, bools are refused), equal-length 1-d
        arrays, indices that are finite whole numbers, indices in range,
        finite non-negative counts, no ``(term, doc)`` pair twice (zeros
        included), and finite document totals.  An entry fault raises
        ``EntryError`` naming the first offending entry in input order; an
        index array of strings, objects or bools is an ``index`` fault from
        its first entry on.  A document whose counts sum past the float64
        range raises a plain ``DataError`` naming the first such document.
        One stable sort into document-major order also finds the duplicates
        as adjacent equal pairs; zeros are dropped after it.  The sort is an
        ``argsort(kind="stable")`` of the key ``cols * n_terms + rows``,
        which is exact in int64 while ``n_terms * n_docs <= 2**63`` and costs
        one pass over input already in document-major order; larger shapes
        sort with ``np.lexsort``.  Both keep equal pairs in input order, so
        the order, and the duplicate reported, is the same either way.
        """
        if not all(np.ndim(n) == 0 and _whole(np.asarray(n)) for n in (n_terms, n_docs)):
            raise DataError(f"matrix dimensions must be finite whole numbers, got {n_terms!r} x {n_docs!r}")
        n_terms, n_docs = int(n_terms), int(n_docs)
        if n_terms <= 0 or n_docs <= 0:
            raise DataError("matrix dimensions must be positive")
        rows, cols, vals = np.asarray(rows), np.asarray(cols), np.asarray(vals, float)
        if not (rows.ndim == cols.ndim == vals.ndim == 1 and rows.size == cols.size == vals.size):
            raise DataError("rows, cols and vals must be 1-d arrays of equal length")
        bad = ~(_whole(rows) & _whole(cols))
        if bad.any():
            e = int(np.argmax(bad))
            raise EntryError(f"entry index not a finite whole number: ({rows[e]}, {cols[e]})", e, "index")
        bad = (rows < 0) | (rows >= n_terms) | (cols < 0) | (cols >= n_docs)
        if bad.any():
            e = int(np.argmax(bad))
            where = f"({rows[e]}, {cols[e]}) outside {n_terms} x {n_docs}"
            raise EntryError(f"entry index out of range: {where}", e, "range")
        rows, cols = rows.astype(np.int64, copy=False), cols.astype(np.int64, copy=False)
        bad = ~(np.isfinite(vals) & (vals >= 0))
        if bad.any():
            e = int(np.argmax(bad))
            kind = "negative" if vals[e] < 0 else "non-finite"
            raise EntryError(f"{kind} count at entry ({rows[e]}, {cols[e]})", e, kind)
        if n_terms * n_docs <= 2**63:  # the largest key, n_terms * n_docs - 1, fits in int64
            order = np.argsort(cols * n_terms + rows, kind="stable")
        else:
            order = np.lexsort((rows, cols))
        repeat = (rows[order[1:]] == rows[order[:-1]]) & (cols[order[1:]] == cols[order[:-1]])
        if repeat.any():
            e = int(order[1:][repeat].min())
            raise EntryError(f"duplicate entry ({rows[e]}, {cols[e]})", e, "duplicate")
        order = order[vals[order] > 0]
        rows, cols, vals = rows[order], cols[order], vals[order]
        col_sums = np.bincount(cols, vals, minlength=n_docs)
        if not np.isfinite(col_sums).all():
            d = int(np.argmin(np.isfinite(col_sums)))
            raise DataError(f"document {d} (0-based): its counts sum past the float64 range")
        doc_ptr = np.searchsorted(cols, np.arange(n_docs + 1)).astype(np.int64)
        return cls(n_terms, n_docs, *map(_readonly, (rows, cols, vals, col_sums, doc_ptr)))

    @classmethod
    def from_entries(cls, n_terms: int, n_docs: int, entries) -> "TermDocMatrix":
        """Build from an iterable of ``(term, doc, count)`` triples."""
        triples = list(entries)
        return cls.from_arrays(n_terms, n_docs, *(np.array([t[i] for t in triples]) for i in range(3)))

    @classmethod
    def from_dense(cls, dense) -> "TermDocMatrix":
        arr = np.asarray(dense, dtype=float)
        if arr.ndim != 2:
            raise DataError("dense input must be a 2-d array")
        rows, cols = np.nonzero(arr)
        return cls.from_arrays(arr.shape[0], arr.shape[1], rows, cols, arr[rows, cols])

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


@dataclass(frozen=True, eq=False)
class Factorization:
    """A ``(W, H)`` pair with its declared column constraints.

    ``W`` is terms x topics, ``H`` topics x documents.  Construction
    validates that both are finite and non-negative and, depending on the
    mode, that the columns of ``W`` (and of ``H``) sum to one within
    ``SIMPLEX_TOL``.  Both are kept as read-only float64 arrays, shared or
    copied as in :class:`VariationalState`.
    """

    W: np.ndarray
    H: np.ndarray
    constraint_mode: ConstraintMode = ConstraintMode.UNCONSTRAINED

    def __post_init__(self):
        W = _frozen_float(self.W)
        H = _frozen_float(self.H)
        if W.ndim != 2 or H.ndim != 2 or W.shape[1] != H.shape[0]:
            raise ValueError(f"inconsistent factor shapes {W.shape} x {H.shape}")
        if not (_finite_positive(W, zero_ok=True) and _finite_positive(H, zero_ok=True)):
            raise ValueError("factor matrices must be finite and non-negative")
        mode = ConstraintMode(self.constraint_mode)
        if mode >= ConstraintMode.W_SIMPLEX:
            _check_simplex(W, "W")
        if mode == ConstraintMode.BOTH_SIMPLEX:
            _check_simplex(H, "H")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "H", H)
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
    """Dirichlet concentrations ``alpha`` and, for the Gamma model, rates ``rate_a``.

    Each is a 1-d array of one value per topic; any other shape, a scalar
    included, raises ``ValueError``.
    """

    alpha: np.ndarray
    rate_a: np.ndarray | None = None

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=float)
        if alpha.ndim != 1:
            raise ValueError(f"alpha must be a 1-d array, one value per topic, got shape {alpha.shape}")
        if alpha.size == 0 or not _finite_positive(alpha):
            raise ValueError("alpha must be strictly positive and finite")
        object.__setattr__(self, "alpha", _readonly(alpha))
        if self.rate_a is not None:
            rate = np.array(self.rate_a, dtype=float)
            if rate.shape != alpha.shape or not _finite_positive(rate):
                raise ValueError("rate_a must be a strictly positive, finite 1-d array that matches alpha in length")
            object.__setattr__(self, "rate_a", _readonly(rate))

    @property
    def n_topics(self) -> int:
        return self.alpha.size


@dataclass(frozen=True, eq=False)
class VariationalState:
    """Per-document variational parameters.

    ``beta`` holds the Dirichlet (or Gamma shape) parameters, topics x
    documents.  ``b_rate`` holds the Gamma rate parameters when present,
    as one K x 1 column: the ``gap`` rates are pinned at ``1 + rate_a``,
    one value per topic, because the columns of ``W`` are l1-normalized,
    and the bound broadcasts the column over the documents.  The per-word
    responsibilities are never stored; they are recomputed from ``W`` and
    the expected-log weights whenever needed.  Both are kept as read-only
    float64 arrays: an input that already is one and owns its data is
    shared (so a step's new ``beta`` and the fixed rates of a ``gap`` fit
    pass from state to state without a copy), anything else is copied.
    """

    beta: np.ndarray
    b_rate: np.ndarray | None = None

    def __post_init__(self):
        beta = _frozen_float(self.beta)
        if beta.ndim != 2 or not _finite_positive(beta):
            raise ValueError("beta must be a strictly positive, finite 2-d array")
        object.__setattr__(self, "beta", beta)
        if self.b_rate is not None:
            b = _frozen_float(self.b_rate)
            if b.shape != (beta.shape[0], 1) or not _finite_positive(b):
                raise ValueError("b_rate must be a strictly positive, finite K x 1 column, one rate per topic of beta")
            object.__setattr__(self, "b_rate", b)

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
    and objectives ``(X, W, H)`` (the fit adds ``recon=``), variational
    ones ``(X, W, priors, state)`` (the fit adds ``terms=``); with
    ``uses_lambda`` the stepper and the objective also take
    ``lambda_sparsity``.  ``eval_lines`` are the ``(label, function)``
    pairs that ``eval`` prints, in order; each function has an objective's
    signature and is given the carry (``recon=`` or ``terms=``) of one
    evaluation, and the penalty only if it is the method's objective.
    ``model_fields`` are the model-file fields besides ``W``.  A method
    with ``beta`` among them is :attr:`variational`, and one with
    ``rate_a`` :attr:`uses_rates`: Gamma rates pinned at ``1 + rate_a``,
    built from the priors (so no model field holds them).  :meth:`family`
    builds the fit driver's record for the method's kind of state, and
    :meth:`rebuild` that record with the state of a saved model.
    """

    mode: ConstraintMode
    stepper: str
    objective: str
    model_fields: tuple[str, ...]
    eval_lines: tuple[tuple[str, str], ...]
    uses_lambda: bool = False

    @property
    def variational(self) -> bool:
        return "beta" in self.model_fields

    @property
    def uses_rates(self) -> bool:
        return "rate_a" in self.model_fields

    @staticmethod
    def function(name: str):
        """Resolve a ``"module.function"`` name inside this package."""
        module, _, attr = name.partition(".")
        return getattr(importlib.import_module(f"{__package__}.{module}"), attr)

    def _family_type(self):
        return self.function("vi._Variational" if self.variational else "mu._Factorizations")

    def family(self, X, priors=None, lambda_sparsity: float = 0.0):
        """The fit driver's record over ``X``: ``vi._Variational`` or ``mu._Factorizations``."""
        return self._family_type()(X, self, priors, lambda_sparsity)

    def rebuild(self, X, model):
        """``(record, state)`` of a saved model over ``X``, read from its ``W``, its
        ``model_fields`` and its ``lambda_sparsity`` alone: any other field is ignored."""
        fields = {name: getattr(model, name) for name in ("W", *self.model_fields)}
        return self._family_type().rebuild(X, self, fields, model.lambda_sparsity)

    def penalty(self, lambda_sparsity: float) -> dict:
        """Keyword arguments that pass the l1 weight to the method's functions."""
        return {"lambda_sparsity": lambda_sparsity} if self.uses_lambda else {}


_KL = "objectives.kl_divergence"
_KL_LINE = ("kl_divergence", _KL)

METHOD_SPECS = {
    "mu": MethodSpec(ConstraintMode.UNCONSTRAINED, "mu.mu_step_alternating", _KL, ("H",), (_KL_LINE,)),
    "mu-joint": MethodSpec(ConstraintMode.W_SIMPLEX, "mu.mu_step_joint_wnorm", _KL, ("H",), (_KL_LINE,)),
    "plsa": MethodSpec(
        ConstraintMode.BOTH_SIMPLEX, "mu.mu_step_joint_bothnorm", _KL, ("H",),
        (_KL_LINE, ("plsa_log_likelihood", "objectives.plsa_log_likelihood")),
    ),
    "sparse": MethodSpec(
        ConstraintMode.W_SIMPLEX, "mu.mu_step_sparse", "objectives.sparse_objective", ("H",),
        (_KL_LINE, ("penalized_objective", "objectives.sparse_objective")), uses_lambda=True,
    ),
    "lda": MethodSpec(
        ConstraintMode.W_SIMPLEX, "vi.dp_vi_step", "objectives.lda_elbo", ("beta", "alpha"),
        (("elbo", "objectives.lda_elbo"),),
    ),
    "gap": MethodSpec(
        ConstraintMode.W_SIMPLEX, "vi.gap_vi_step", "objectives.gap_elbo", ("beta", "alpha", "rate_a"),
        (("elbo", "objectives.gap_elbo"),),
    ),
}

METHODS = tuple(METHOD_SPECS)
MU_METHODS = tuple(name for name, spec in METHOD_SPECS.items() if not spec.variational)
VI_METHODS = tuple(name for name, spec in METHOD_SPECS.items() if spec.variational)
METHOD_MODES = {name: spec.mode for name, spec in METHOD_SPECS.items()}


@dataclass(frozen=True)
class FitConfig:
    """Everything a fit needs besides the data (and the priors of ``lda`` / ``gap``).

    The start is seeded by ``seed``; the zero-absorbing floor is the
    steppers' fixed ``mu.EPSILON_FLOOR``.
    """

    n_topics: int
    method: str = "mu"
    max_iters: int = 200
    rel_tolerance: float = 1e-8
    seed: int = 0
    lambda_sparsity: float = 0.0

    def __post_init__(self):
        # the seed must fit in an unsigned 64-bit integer; a Python int is whole past 64 bits too
        for name, least, bound in (("n_topics", 1, np.inf), ("max_iters", 1, np.inf), ("seed", 0, 2 ** 64)):
            value = getattr(self, name)
            whole = type(value) is int or np.ndim(value) == 0 and _whole(np.asarray(value))
            if not (whole and least <= int(value) < bound):
                raise ValueError(f"{name} must be a whole number in [{least}, {bound}), got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.method not in METHOD_SPECS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not self.rel_tolerance > 0:
            raise ValueError("rel_tolerance must be positive")
        _check_lambda(self.lambda_sparsity)


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


# entries x topics of work per range of the reconstruction: about 1.2 ms in
# one thread, against about 50 us to start and join a thread; on a 2-vCPU VM
# splitting less than twice this much measured no faster than one range
_RANGE_WORK = 1 << 18


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# entries per block of the reconstruction: a block's five vectors (its rows
# and cols, two gathered temporaries and its slice of the result) take
# 5 x 256 KB, which stays in a 2 MB L2 cache across the topics
_BLOCK = 1 << 15


def _reconstruct_range(rows: np.ndarray, cols: np.ndarray, WT: np.ndarray, H: np.ndarray, out: np.ndarray) -> None:
    """Add ``w_vk h_kd`` into ``out`` at the entries ``(rows, cols)``, one topic at a time in order.

    The entries are taken ``_BLOCK`` at a time and every topic is added
    into a block before the next block starts, so the block's vectors stay
    in cache across the topics.  Each entry still adds its topics in order,
    so the result does not depend on the block size.  The gathers make
    fresh arrays: ``np.take(..., out=)`` buffers its output in its default
    ``mode="raise"`` and was over twice as slow per gather.
    """
    for a in range(0, rows.size, _BLOCK):
        r, c, o = rows[a:a + _BLOCK], cols[a:a + _BLOCK], out[a:a + _BLOCK]
        for w, h in zip(WT, H):
            products = w[r]
            products *= h[c]
            o += products


def _in_ranges(n: int, work: int, run_range) -> None:
    """Call ``run_range(start, stop)`` over ``range(n)`` split into contiguous ranges.

    There is at most one range per CPU of the process's affinity mask
    (``taskset`` limits them), per ``_RANGE_WORK`` of ``work`` (in entries
    x topics of the reconstruction) and per unit, so small work is one
    range run in the caller with no thread started.  Otherwise the caller
    runs the first range and a ``ThreadPoolExecutor`` opened for this call
    the others, one thread per submitted range; leaving its ``with`` block
    joins every worker, even when the caller's range raises, and then the
    exception of the first failed range is raised here.  No pool outlives
    the call.  Each submitted range runs in a copy of the caller's context,
    so the caller's ``np.errstate`` (a context variable since numpy 2)
    holds in the workers too.  ``run_range`` must release the GIL in its
    work to gain from this (numpy's gathers, arithmetic and ufunc loops
    do), and must not call a public (traced) function.
    """
    n_ranges = max(1, min(_usable_cpus(), n, work // _RANGE_WORK))
    if n_ranges == 1:
        run_range(0, n)
        return
    bounds = [n * i // n_ranges for i in range(n_ranges + 1)]
    with ThreadPoolExecutor(n_ranges - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, run_range, a, b)
                   for a, b in zip(bounds[1:], bounds[2:])]
        run_range(0, bounds[1])
    for future in futures:
        future.result()


def reconstruct_nonzeros(X: TermDocMatrix, W, H) -> np.ndarray:
    """``(WH)_vd`` evaluated at the stored nonzero entries of ``X``, in storage order.

    Topic-major within blocks: the products ``w_vk h_kd`` of one topic at
    a time are gathered and added into the result, topics in order, one
    block of ``_BLOCK`` entries after another, so no ``nnz x K`` array is
    formed.  Besides the ``nnz`` result and a contiguous copy of ``W.T``,
    the working memory is two ``_BLOCK``-vectors per range, whatever
    ``nnz``.

    The entries are split by :func:`_in_ranges`, the work being
    ``nnz x K``; each range runs :func:`_reconstruct_range` on its slice of
    the entries and of the result.  Each entry adds its topics in the same
    order whatever the ranges and the block size, so the result is
    bit-identical to a serial pass.

    Factors whose shapes do not multiply to the shape of ``X`` raise
    ``ValueError``: every objective, bound and step reconstructs through
    here, so none of them reads a misshapen factor.
    """
    W = np.asarray(W, dtype=float)
    H = np.asarray(H, dtype=float)
    if W.ndim != 2 or H.ndim != 2 or W.shape != (X.n_terms, H.shape[0]) or H.shape[1] != X.n_docs:
        raise ValueError(
            f"factors of shapes {W.shape} and {H.shape} do not reconstruct a {X.n_terms} x {X.n_docs} matrix"
        )
    WT = np.ascontiguousarray(W.T)
    out = np.zeros(X.nnz)

    def run_range(a: int, b: int) -> None:
        _reconstruct_range(X.rows[a:b], X.cols[a:b], WT, H, out[a:b])

    _in_ranges(X.nnz, X.nnz * H.shape[0], run_range)
    return out


def reconstruction_column_sums(W, H) -> np.ndarray:
    """``sum_v (WH)_vd`` for every document, without forming ``WH``."""
    W = np.asarray(W, dtype=float)
    H = np.asarray(H, dtype=float)
    return W.sum(axis=0) @ H


def reconstruction_total(W, H) -> float:
    """``sum_vd (WH)_vd`` via the column-sum closed form."""
    return float(reconstruction_column_sums(W, H).sum())


def _entry_matrix(X: TermDocMatrix, entry_weights: np.ndarray) -> sparse.csc_array:
    """The terms x documents CSC matrix of ``entry_weights`` at the stored entries of ``X``.

    The document-major storage of ``X`` is already CSC, so the matrix
    shares ``X.rows``, ``X.doc_ptr`` and the weights instead of copying them.
    """
    return sparse.csc_array((entry_weights, X.rows, X.doc_ptr), shape=(X.n_terms, X.n_docs))


def term_topic_sums(X: TermDocMatrix, entry_weights: np.ndarray, H) -> np.ndarray:
    """Accumulate ``sum_d weight_vd h_kd`` into a terms x topics array.

    ``entry_weights`` is aligned with the stored entries of ``X``; the sums
    are the sparse-times-dense product ``R @ H.T``, ``R`` the CSC matrix of
    the weights, which adds each term's entries in storage order, so the
    result is deterministic.
    """
    return _entry_matrix(X, entry_weights) @ np.asarray(H, dtype=float).T


def topic_doc_sums(X: TermDocMatrix, entry_weights: np.ndarray, W) -> np.ndarray:
    """Accumulate ``sum_v weight_vd w_vk`` into a topics x documents array.

    The sums are ``(R.T @ W).T``, ``R`` the CSC matrix of the weights; the
    transpose of a CSC matrix is a CSR one over the same arrays, so each
    document's entries are added in storage order (an empty document's sum
    is 0).  The result is deterministic.
    """
    return (_entry_matrix(X, entry_weights).T @ np.asarray(W, dtype=float)).T
