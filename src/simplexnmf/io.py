"""Corpus ingestion, matrix interchange, and model persistence.

Matrices travel as 1-indexed MatrixMarket coordinate files, models as JSON
from ``json.dumps``, one key and one matrix row per line, with shortest
round-trip floats and all-whole arrays as integers, so save/load round trips
are value-exact and files byte-deterministic; loading checks every field's
type.  The tokenizer is deliberately naive: lowercase, split on runs of
non-alphanumerics.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DataError
from .types import ConstraintMode, FitTrace, METHOD_SPECS, TermDocMatrix

_MM_HEADER = "%%matrixmarket matrix coordinate real general"
_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


# ---------------------------------------------------------------------------
# MatrixMarket


def load_matrix_market(path) -> TermDocMatrix:
    """Parse a 1-indexed coordinate-format matrix file.

    Zero-valued entries are dropped; negative or non-finite values,
    duplicate coordinates, out-of-range indices, and malformed headers
    raise ``DataError`` with the offending line number.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or " ".join(lines[0].split()).lower() != _MM_HEADER:
        raise DataError(f"malformed header in {path}: expected MatrixMarket coordinate real general")
    body = [
        (i + 1, line)
        for i, line in enumerate(lines[1:], start=1)
        if line.strip() and not line.lstrip().startswith("%")
    ]
    if not body:
        raise DataError(f"missing size line in {path}")
    size_no, size_line = body[0]
    parts = size_line.split()
    if len(parts) != 3:
        raise DataError(f"malformed size line at line {size_no}")
    try:
        n_terms, n_docs, nnz = (int(p) for p in parts)
    except ValueError as exc:
        raise DataError(f"malformed size line at line {size_no}") from exc
    entries = []
    for line_no, line in body[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise DataError(f"malformed entry at line {line_no}")
        try:
            v, d, value = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise DataError(f"malformed entry at line {line_no}") from exc
        if not 0.0 <= value < math.inf:
            kind = "negative" if value < 0 else "non-finite"
            raise DataError(f"{kind} count at line {line_no}")
        if not (1 <= v <= n_terms) or not (1 <= d <= n_docs):
            raise DataError(f"index overflow at line {line_no}: ({v}, {d}) outside {n_terms} x {n_docs}")
        entries.append((v - 1, d - 1, value))
    if len(entries) != nnz:
        raise DataError(f"{path} declares {nnz} entries but contains {len(entries)}")
    seen = set()
    for v, d, _ in entries:
        if (v, d) in seen:
            raise DataError(f"duplicate entry ({v + 1}, {d + 1})")
        seen.add((v, d))
    return TermDocMatrix.from_entries(n_terms, n_docs, entries)


def save_matrix_market(path, X: TermDocMatrix) -> None:
    """Write the canonical text form; round trips through load are bit-identical."""
    out = ["%%MatrixMarket matrix coordinate real general"]
    out.append(f"{X.n_terms} {X.n_docs} {X.nnz}")
    for v, d, value in zip(X.rows, X.cols, X.vals):
        out.append(f"{v + 1} {d + 1} {_fmt(value)}")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Corpus ingestion


@dataclass(frozen=True)
class Vocabulary:
    """Ordered term list with its inverse map and the threshold used to build it."""

    terms: tuple[str, ...]
    min_count: int = 1
    index: dict = field(init=False, repr=False)

    def __post_init__(self):
        terms = tuple(self.terms)
        index = {}
        for i, term in enumerate(terms):
            if term in index:
                raise DataError(f"duplicate term {term!r}")
            index[term] = i
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.terms)


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def ingest_corpus(directory, min_count: int = 1) -> tuple[TermDocMatrix, Vocabulary]:
    """Read one UTF-8 document per file; build the count matrix and vocabulary.

    Terms occurring fewer than ``min_count`` times corpus-wide are
    dropped.  Documents left without any countable term are rejected with
    a listing, so every document column of the result has a positive
    total.
    """
    root = Path(directory)
    if not root.is_dir():
        raise DataError(f"not a directory: {directory}")
    files = sorted(p for p in root.iterdir() if p.is_file())
    if not files:
        raise DataError(f"empty corpus: no files in {directory}")
    docs = []
    for p in files:
        try:
            docs.append(tokenize(p.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"unreadable file {p}: {exc}") from exc
    totals: dict[str, int] = {}
    for tokens in docs:
        for t in tokens:
            totals[t] = totals.get(t, 0) + 1
    kept = sorted(t for t, c in totals.items() if c >= min_count)
    vocab = Vocabulary(tuple(kept), min_count=min_count)
    counts = []
    empty = []
    for p, tokens in zip(files, docs):
        vec: dict[int, float] = {}
        for t in tokens:
            i = vocab.index.get(t)
            if i is not None:
                vec[i] = vec.get(i, 0.0) + 1.0
        if not vec:
            empty.append(p.name)
        counts.append(vec)
    if empty:
        raise DataError(f"documents with no countable terms: {', '.join(empty)}")
    entries = [(v, d, c) for d, vec in enumerate(counts) for v, c in vec.items()]
    return TermDocMatrix.from_entries(len(vocab), len(files), entries), vocab


def save_vocabulary(path, vocab: Vocabulary) -> None:
    Path(path).write_text("".join(t + "\n" for t in vocab.terms), encoding="utf-8")


def load_vocabulary(path, min_count: int = 1) -> Vocabulary:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return Vocabulary(tuple(lines), min_count=min_count)


# ---------------------------------------------------------------------------
# Model files

FORMAT_VERSION = 1


@dataclass
class ModelFile:
    """Everything needed to reload a fitted model, plus optional trace data."""

    method: str
    n_terms: int
    n_docs: int
    n_topics: int
    constraint_mode: str
    W: np.ndarray
    H: np.ndarray | None = None
    beta: np.ndarray | None = None
    b_rate: np.ndarray | None = None
    alpha: np.ndarray | None = None
    rate_a: np.ndarray | None = None
    lambda_sparsity: float = 0.0
    final_objective: float = 0.0
    trace: FitTrace | None = None
    format_version: int = FORMAT_VERSION

    def validate(self) -> None:
        """Raise ``DataError`` unless the model matches its method's registry record:
        the method's constraint mode, its fields with their shapes, finite
        non-negative factors and finite positive variational parameters."""
        if self.format_version != FORMAT_VERSION:
            raise DataError(f"unsupported format_version: {self.format_version}")
        spec = METHOD_SPECS.get(self.method)
        if spec is None:
            raise DataError(f"unknown method {self.method!r}")
        if ConstraintMode.from_tag(self.constraint_mode) != spec.mode:
            raise DataError(
                f"schema violation at constraint_mode: method {self.method!r} uses "
                f"{spec.mode.tag!r}, got {self.constraint_mode!r}"
            )
        _check_matrix("W", self.W, self.n_terms, self.n_topics)
        _check_values("W", self.W)
        for name in spec.model_fields:
            value = getattr(self, name)
            if value is None:
                raise DataError(f"schema violation at {name}: required for method {self.method!r}")
            if name in _PER_TOPIC_FIELDS:
                if np.shape(value) != (self.n_topics,):
                    raise DataError(f"schema violation at {name}: expected one value per topic")
            else:
                _check_matrix(name, value, self.n_topics, self.n_docs)
            _check_values(name, value)
        if not 0 <= self.lambda_sparsity < math.inf:
            raise DataError("schema violation at lambda_sparsity: must be non-negative and finite")


# model fields that hold one value per topic; the other fields are matrices
_PER_TOPIC_FIELDS = ("alpha", "rate_a")


def _check_values(name: str, value) -> None:
    M = np.asarray(value, dtype=float)
    positive = name not in ("W", "H")  # the variational parameters
    if not np.all(np.isfinite(M) & ((M > 0) if positive else (M >= 0))):
        sign = "strictly positive" if positive else "non-negative"
        raise DataError(f"schema violation at {name}: values must be finite and {sign}")


def _check_matrix(name: str, M, n_rows: int, n_cols: int) -> None:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DataError(f"schema violation at {name}: expected a matrix")
    if M.shape[0] != n_rows:
        raise DataError(f"dimension mismatch: {name} has {M.shape[0]} rows, expected {n_rows}")
    if M.shape[1] != n_cols:
        label = "K" if name == "W" else "D"
        raise DataError(f"dimension mismatch: {name} has {M.shape[1]} columns, {label}={n_cols}")


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise DataError(f"non-finite value cannot be serialized: {x!r}")
    return format(float(x), ".17g")


def _json_array(values) -> list:
    """``values`` as nested lists; all-whole arrays as integers, which print without ``.0``."""
    a = np.asarray(values, dtype=float)
    if np.all((a == np.trunc(a)) & (np.abs(a) < 2.0**53)):
        return a.astype(np.int64).tolist()
    return a.tolist()


def save_model(path, model: ModelFile) -> None:
    """Write the model as canonical JSON: fixed key order, one top-level key
    and one matrix row per line, shortest round-trip floats.

    Besides ``W`` the file holds the fields the method's registry record names.
    """
    model.validate()
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "method": model.method,
        "n_terms": int(model.n_terms),
        "n_docs": int(model.n_docs),
        "n_topics": int(model.n_topics),
        "constraint_mode": model.constraint_mode,
        "lambda_sparsity": float(model.lambda_sparsity),
        "final_objective": float(model.final_objective),
        "W": _json_array(model.W),
    }
    for name in METHOD_SPECS[model.method].model_fields:
        doc[name] = _json_array(getattr(model, name))
    if model.trace is not None:
        doc["trace"] = {
            "objectives": _json_array(model.trace.objectives),
            "recon_evals": _json_array(model.trace.recon_evals),
            "millis": _json_array(np.asarray(model.trace.seconds, dtype=float) * 1000.0),
        }
    lines = []
    try:
        for key, value in doc.items():
            if isinstance(value, list) and value and isinstance(value[0], list):
                value = "[\n" + ",\n".join("    " + json.dumps(row, allow_nan=False) for row in value) + "\n  ]"
            else:
                value = json.dumps(value, allow_nan=False)
            lines.append(f"  {json.dumps(key)}: {value}")
    except ValueError as exc:
        raise DataError(f"non-finite value cannot be serialized at {key}: {exc}") from exc
    Path(path).write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def load_model(path) -> ModelFile:
    """Read and validate a model file; schema errors name the offending field."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise DataError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError("schema violation at top level: expected an object")
    version = _field(doc, "format_version", "integer", None)
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported format_version: {version}")
    trace = _field(doc, "trace", "object", None)
    model = ModelFile(
        method=_field(doc, "method", "string"),
        n_terms=_field(doc, "n_terms", "integer"),
        n_docs=_field(doc, "n_docs", "integer"),
        n_topics=_field(doc, "n_topics", "integer"),
        constraint_mode=_field(doc, "constraint_mode", "string"),
        W=_field(doc, "W", "matrix"),
        **{
            name: _field(doc, name, "numbers" if name in _PER_TOPIC_FIELDS else "matrix", None)
            for name in ("H", "beta", "b_rate", "alpha", "rate_a")
        },
        lambda_sparsity=_field(doc, "lambda_sparsity", "number", 0.0),
        final_objective=_field(doc, "final_objective", "number", 0.0),
        trace=None if trace is None else FitTrace(
            objectives=_field(trace, "objectives", "numbers", np.empty(0), "trace.").tolist(),
            recon_evals=_field(trace, "recon_evals", "integers", [], "trace."),
            seconds=(_field(trace, "millis", "numbers", np.empty(0), "trace.") / 1000.0).tolist(),
        ),
        format_version=version,
    )
    model.validate()
    return model


_REQUIRED = object()
_NUMBER = {int, float}  # the types json.loads gives numbers; bool is not among them

_KINDS = {  # kind: (what a schema error says is expected, check of the value json.loads gave)
    "string": ("a string", lambda v: type(v) is str),
    "integer": ("an integer", lambda v: type(v) is int),
    "integers": ("a list of integers", lambda v: type(v) is list and set(map(type, v)) <= {int}),
    "number": ("a finite number", lambda v: type(v) in _NUMBER),
    "numbers": ("a list of finite numbers", lambda v: type(v) is list and set(map(type, v)) <= _NUMBER),
    "matrix": (
        "a non-empty list of equal-length rows of finite numbers",
        lambda v: type(v) is list and set(map(type, v)) == {list} and len(set(map(len, v))) == 1
        and set(map(type, chain.from_iterable(v))) <= _NUMBER,
    ),
    "object": ("an object", lambda v: type(v) is dict),
}


def _field(doc: dict, name: str, kind: str, default=_REQUIRED, prefix: str = ""):
    """``doc[name]`` checked to be of ``kind`` (a key of ``_KINDS``), or ``default`` if absent.

    A number comes back as a ``float``, lists of numbers and matrices as
    float arrays; entry types are checked in one pass over the whole list.
    """
    if name not in doc and default is not _REQUIRED:
        return default
    expected, check = _KINDS[kind]
    value = doc.get(name)
    ok = check(value)
    if ok and kind in ("number", "numbers", "matrix"):
        try:
            value = float(value) if kind == "number" else np.asarray(value, dtype=float)
        except OverflowError:  # an integer beyond the float range
            ok = False
        else:
            ok = bool(np.all(np.isfinite(value)))
    if not ok:
        raise DataError(f"schema violation at {prefix}{name}: expected {expected}")
    return value


def save_trace_csv(path, trace: FitTrace) -> None:
    """Per-iteration CSV: ``iter, objective, recon_evals, millis``."""
    lines = ["iter,objective,recon_evals,millis"]
    for i, (obj, evals, secs) in enumerate(
        zip(trace.objectives, trace.recon_evals, trace.seconds), start=1
    ):
        lines.append(f"{i},{_fmt(obj)},{evals},{secs * 1000.0:.3f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
