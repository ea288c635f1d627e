"""Corpus ingestion, matrix interchange, and model persistence.

Matrices travel as 1-indexed MatrixMarket coordinate files, models as JSON
with one top-level key per line.  A model's matrices (``W``, ``H``,
``beta``, ``b_rate``) are stored exactly, as the base64 of their
little-endian float64 bytes (``format_version`` 2); scalars and the
per-topic vectors stay plain JSON numbers in shortest round-trip form.
Keys, numbers and matrix headers come from ``json.dumps``; the base64 text,
which needs no JSON escaping, is written as it is, and the bytes are those
of earlier version 2 files.  Both writers end lines in ``\\n`` on every
platform: models are written in binary mode, MatrixMarket text with
``newline="\\n"``.
Save/load round trips are value-exact and files byte-deterministic, but the
matrix entries cannot be read in a text editor: ``topics`` and ``eval`` are
the readers.  Version 1 files, whose matrices are JSON rows of numbers,
still load.  Loading checks every field's type and ignores keys it does not
know, such as the ``trace`` of earlier files; a fit's trace is written only
as CSV (:func:`save_trace_csv`).  The tokenizer is deliberately naive:
lowercase, split on runs of non-alphanumerics.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import os
import re
import warnings
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import DataError, EntryError
from .types import ConstraintMode, FitTrace, METHOD_SPECS, TermDocMatrix

_MM_HEADER = "%%matrixmarket matrix coordinate real general"
_MM_ENTRY = [("row", np.int64), ("col", np.int64), ("val", float)]  # one entry line
_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)
_MM_RUN = 65536  # entry lines per write of save_matrix_market
_READ_SIZE = 65536  # bytes per os.read of a corpus file


def _read_text(path) -> str:
    """The UTF-8 text of a matrix or vocabulary file; other bytes are a ``DataError``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from exc


# ---------------------------------------------------------------------------
# MatrixMarket


def load_matrix_market(path) -> TermDocMatrix:
    """Parse a 1-indexed coordinate-format matrix file.

    Zero-valued entries are dropped.  A malformed header or size line, an
    entry line that is not three numbers (integer indices), a count that
    differs from the declared one, and every entry fault that
    ``TermDocMatrix.from_arrays`` finds (an index out of range, a negative
    or non-finite value, a duplicate coordinate) raise ``DataError``
    naming the offending line, or for a duplicate its coordinate.  Numbers
    are read by ``np.loadtxt``; a digit separator (``1_5``) or a non-ASCII
    character makes a line malformed.  The entry lines are parsed in one
    call over the whole body; only a fault looks up its line, by bisection.
    """
    lines = _read_text(path).splitlines()
    if not lines or " ".join(lines[0].split()).lower() != _MM_HEADER:
        raise DataError(f"malformed header in {path}: expected MatrixMarket coordinate real general")
    # positions of the lines that are neither blank nor a comment: the size line, then the entries
    at = [i for i, line in enumerate(lines) if i and (text := line.lstrip()) and text[0] != "%"]
    if not at:
        raise DataError(f"missing size line in {path}")
    size = _mm_numbers([lines[at[0]]], np.int64)
    if size is None or size.shape != (3,):
        raise DataError(f"malformed size line at line {at[0] + 1}")
    n_terms, n_docs, nnz = size.tolist()
    body = [lines[i] for i in at[1:]]
    entries = _mm_numbers(body, _MM_ENTRY)
    if entries is None:
        bad = _first_malformed(body)
        raise DataError(f"malformed entry at line {at[bad + 1] + 1}")
    if len(body) != nnz:
        raise DataError(f"{path} declares {nnz} entries but contains {len(body)}")
    rows, cols, vals = entries["row"] - 1, entries["col"] - 1, entries["val"]
    try:
        return TermDocMatrix.from_arrays(n_terms, n_docs, rows, cols, vals)
    except EntryError as fault:
        v, d, line = rows[fault.entry] + 1, cols[fault.entry] + 1, at[fault.entry + 1] + 1
        message = {
            "range": f"index overflow at line {line}: ({v}, {d}) outside {n_terms} x {n_docs}",
            "duplicate": f"duplicate entry ({v}, {d})",
        }.get(fault.fault, f"{fault.fault} count at line {line}")
        raise EntryError(message, fault.entry, fault.fault) from fault


def _first_malformed(body: list[str]) -> int:
    """The index of the first entry line that does not read, in a body that does not.

    A run of lines reads only if each of its lines does, so halving the run
    that holds the first fault finds it in about ``log2(len(body))`` calls
    that parse about ``len(body)`` lines in all."""
    lo, hi = 0, len(body)  # the lines before lo read; lo:hi holds a line that does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _mm_numbers(body[lo:mid], _MM_ENTRY) is None:
            hi = mid
        else:
            lo = mid
    return lo


def _mm_numbers(lines: list[str], dtype):
    """The rows of ``lines`` read by ``np.loadtxt`` into ``dtype`` (empty for
    no lines, where it would warn), or ``None`` unless every line is ASCII and
    reads.  ASCII guards numpy's integer parser, whose C ``isdigit`` misreads
    (``1\u01ff`` as 473) or crashes past code point 255.  A ``DeprecationWarning``
    from numpy releases that read an integer through a float fails too."""
    if not lines:
        return np.empty(0, dtype)
    if not all(map(str.isascii, lines)):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(lines, dtype, comments=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None


def save_matrix_market(path, X: TermDocMatrix) -> None:
    """Write the canonical text form; round trips through load are bit-identical.

    Each entry line is ``row col value``, 1-indexed, the value in ``%.17g``.
    A run of ``_MM_RUN`` lines is formatted by one ``%`` operation and
    written at once, so memory holds one run, not the whole file.  Lines
    end in ``\\n`` on every platform."""
    finite = np.isfinite(X.vals)
    if not finite.all():
        raise DataError(f"non-finite value cannot be serialized: {X.vals[np.argmin(finite)]!r}")
    with Path(path).open("w", encoding="utf-8", newline="\n") as out:
        out.write(f"%%MatrixMarket matrix coordinate real general\n{X.n_terms} {X.n_docs} {X.nnz}\n")
        for at in range(0, X.nnz, _MM_RUN):
            run, n = slice(at, at + _MM_RUN), min(_MM_RUN, X.nnz - at)
            flat = [0] * (3 * n)  # the row, column and value of each line in turn
            flat[0::3] = (X.rows[run] + 1).tolist()
            flat[1::3] = (X.cols[run] + 1).tolist()
            flat[2::3] = X.vals[run].tolist()
            out.write(("%d %d %.17g\n" * n) % tuple(flat))


# ---------------------------------------------------------------------------
# Corpus ingestion


@dataclass(frozen=True)
class Vocabulary:
    """Ordered term list with its inverse map."""

    terms: tuple[str, ...]
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


def _is_document(entry: os.DirEntry) -> bool:
    """Whether a corpus directory entry is a regular file or a symlink to one."""
    try:
        return entry.is_file()
    except OSError:  # its target cannot be looked up (a symlink loop): skipped as a broken symlink is
        return False


def _read_document(path: str) -> str:
    """The text of one corpus file: its bytes decoded as strict UTF-8."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_SIZE):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks).decode("utf-8")


def ingest_corpus(directory, min_count: int = 1) -> tuple[TermDocMatrix, Vocabulary]:
    """Read one UTF-8 document per file; build the count matrix and vocabulary.

    The documents are the directory's regular files and symlinks to them;
    subdirectories (which are not searched), broken symlinks and other
    entries are skipped.  Document columns follow the code-point order of
    the file names (``"10.txt"`` before ``"2.txt"`` before ``"B.txt"``
    before ``"a.txt"``), not natural order.  Each file is decoded as strict
    UTF-8; a file that cannot be read or decoded is a ``DataError``
    naming it.  Line endings (LF, CRLF, CR) separate tokens alike.  Terms
    occurring fewer than ``min_count`` times corpus-wide are dropped.
    Documents left without any countable term are rejected with a listing,
    so every document column of the result has a positive total.
    """
    root = Path(directory)
    if not root.is_dir():
        raise DataError(f"not a directory: {directory}")
    with os.scandir(root) as scan:
        files = sorted(entry.name for entry in scan if _is_document(entry))
    if not files:
        raise DataError(f"empty corpus: no files in {directory}")
    docs = []
    for name in files:
        try:
            docs.append(tokenize(_read_document(os.path.join(root, name))))
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"unreadable file {root / name}: {exc}") from exc
    tokens = list(chain.from_iterable(docs))
    totals = Counter(tokens)
    vocab = Vocabulary(tuple(sorted(t for t, c in totals.items() if c >= min_count)))
    term = np.fromiter(map(vocab.index.get, tokens, repeat(-1)), np.int64, len(tokens))
    counted = term >= 0
    doc = np.repeat(np.arange(len(files)), list(map(len, docs)))[counted]
    empty = [name for name, n in zip(files, np.bincount(doc, minlength=len(files))) if n == 0]
    if empty:
        raise DataError(f"documents with no countable terms: {', '.join(empty)}")
    # one key per (document, term) pair in document-major order, with its count
    keys, counts = np.unique(doc * len(vocab) + term[counted], return_counts=True)
    matrix = TermDocMatrix.from_arrays(len(vocab), len(files), keys % len(vocab), keys // len(vocab), counts)
    return matrix, vocab


def save_vocabulary(path, vocab: Vocabulary) -> None:
    Path(path).write_text("".join(t + "\n" for t in vocab.terms), encoding="utf-8")


def load_vocabulary(path) -> Vocabulary:
    """The vocabulary that :func:`save_vocabulary` wrote: one term per line, in order."""
    return Vocabulary(tuple(_read_text(path).splitlines()))


# ---------------------------------------------------------------------------
# Model files

FORMAT_VERSION = 2  # the version save_model writes

# the ``_KINDS`` entry of the matrix fields under each format_version that loads
_MATRIX_KIND = {1: "matrix", 2: "array"}


@dataclass
class ModelFile:
    """Everything needed to reload a fitted model."""

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
    format_version: int = FORMAT_VERSION

    def validate(self) -> None:
        """Raise ``DataError`` unless the model matches its method's registry record:
        the method's constraint mode, its fields with their shapes, finite
        non-negative factors and finite positive variational parameters."""
        if self.format_version not in _MATRIX_KIND:
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
    """``values`` as a list; all-whole arrays as integers, which print without ``.0``."""
    a = np.asarray(values, dtype=float)
    if np.all((a == np.trunc(a)) & (np.abs(a) < 2.0**53)):
        return a.astype(np.int64).tolist()
    return a.tolist()


def _array_pieces(M) -> list[bytes]:
    """A matrix as the ``format_version`` 2 object, in three pieces: the JSON
    of its dtype and shape up to the opening quote of ``"data"``, the base64
    of its little-endian float64 bytes in row-major order, and the closing
    ``"}``.  The base64 alphabet needs no JSON escaping, so the encoded
    buffer goes into the file as it is."""
    M = np.ascontiguousarray(M, dtype="<f8")
    head = json.dumps({"dtype": "<f8", "shape": list(M.shape), "data": ""})[:-2]  # drop the closing '"}'
    return [head.encode("ascii"), binascii.b2a_base64(M, newline=False), b'"}']


def _decoded(value: dict) -> np.ndarray:
    """The writable native float64 matrix of a ``format_version`` 2 object
    (``_KINDS`` checked its dtype and shape).  Bad base64, a byte count that
    is not a multiple of 8 and an entry count other than ``rows * cols``
    each raise ``ValueError`` (from ``b64decode``, ``frombuffer`` and
    ``reshape``)."""
    data = base64.b64decode(value["data"], validate=True)
    return np.frombuffer(data, "<f8").astype(float).reshape(value["shape"])


def save_model(path, model: ModelFile) -> None:
    """Write the model as ``format_version`` 2 JSON: fixed key order, one
    top-level key per line.

    ``W`` and the matrices the method's registry record names (``H``,
    ``beta``, ``b_rate``) are written as ``{"dtype": "<f8", "shape": [rows,
    cols], "data": "<base64>"}``, the standard base64 alphabet without line
    breaks over the little-endian float64 bytes in row-major order, so they
    load bit for bit.  Scalars, ``alpha`` and ``rate_a`` are JSON numbers:
    shortest round-trip floats, all-whole lists as integers.  Keys, numbers
    and matrix headers come from ``json.dumps``; the base64 text is written
    as it is.  The file is written in binary mode, so lines end in ``\\n``
    on every platform.
    """
    model.validate()
    scalars = {
        "format_version": FORMAT_VERSION,
        "method": model.method,
        "n_terms": int(model.n_terms),
        "n_docs": int(model.n_docs),
        "n_topics": int(model.n_topics),
        "constraint_mode": model.constraint_mode,
        "lambda_sparsity": float(model.lambda_sparsity),
        "final_objective": float(model.final_objective),
    }
    # every value is serialized before the file is opened; the pieces are
    # written one by one, never joined into one copy of the whole file
    pieces = [b"{\n"]
    try:
        for key, value in scalars.items():
            pieces.append(f"  {json.dumps(key)}: {json.dumps(value, allow_nan=False)},\n".encode("ascii"))
    except ValueError as exc:
        raise DataError(f"non-finite value cannot be serialized at {key}: {exc}") from exc
    for name in ("W", *METHOD_SPECS[model.method].model_fields):
        value = getattr(model, name)
        pieces.append(f"  {json.dumps(name)}: ".encode("ascii"))
        if name in _PER_TOPIC_FIELDS:
            pieces.append(json.dumps(_json_array(value)).encode("ascii"))
        else:
            pieces += _array_pieces(value)
        pieces.append(b",\n")
    pieces[-1] = b"\n}\n"
    with Path(path).open("wb") as out:
        out.writelines(pieces)


def load_model(path) -> ModelFile:
    """Read and validate a model file; schema errors name the offending field.

    Reads ``format_version`` 2, whose matrices are base64 float64 objects
    (see ``save_model``), and version 1, whose matrices are JSON lists of
    equal-length rows of numbers.  The arrays come back as writable native
    float64 arrays either way.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise DataError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError("schema violation at top level: expected an object")
    version = _field(doc, "format_version", "integer", None)
    if version not in _MATRIX_KIND:
        raise DataError(f"unsupported format_version: {version}")
    matrix = _MATRIX_KIND[version]
    model = ModelFile(
        method=_field(doc, "method", "string"),
        n_terms=_field(doc, "n_terms", "integer"),
        n_docs=_field(doc, "n_docs", "integer"),
        n_topics=_field(doc, "n_topics", "integer"),
        constraint_mode=_field(doc, "constraint_mode", "string"),
        W=_field(doc, "W", matrix),
        **{
            name: _field(doc, name, "numbers" if name in _PER_TOPIC_FIELDS else matrix, None)
            for name in ("H", "beta", "b_rate", "alpha", "rate_a")
        },
        lambda_sparsity=_field(doc, "lambda_sparsity", "number", 0.0),
        final_objective=_field(doc, "final_objective", "number", 0.0),
        format_version=version,
    )
    model.validate()
    return model


_REQUIRED = object()
_NUMBER = {int, float}  # the types json.loads gives numbers; bool is not among them

_KINDS = {  # kind: (what a schema error says is expected, check of the value json.loads gave)
    "string": ("a string", lambda v: type(v) is str),
    "integer": ("an integer", lambda v: type(v) is int),
    "number": ("a finite number", lambda v: type(v) in _NUMBER),
    "numbers": ("a list of finite numbers", lambda v: type(v) is list and set(map(type, v)) <= _NUMBER),
    "matrix": (
        "a non-empty list of equal-length rows of finite numbers",
        lambda v: type(v) is list and set(map(type, v)) == {list} and len(set(map(len, v))) == 1
        and set(map(type, chain.from_iterable(v))) <= _NUMBER,
    ),
    "array": (
        'an object {"dtype": "<f8", "shape": [rows, cols], "data": "<base64 of rows * cols finite float64s>"}',
        lambda v: type(v) is dict and v.get("dtype") == "<f8" and type(v.get("data")) is str
        and type(v.get("shape")) is list and len(v["shape"]) == 2
        and all(type(n) is int and n > 0 for n in v["shape"]),
    ),
}


def _field(doc: dict, name: str, kind: str, default=_REQUIRED):
    """``doc[name]`` checked to be of ``kind`` (a key of ``_KINDS``), or ``default`` if absent.

    A number comes back as a ``float``, lists of numbers and matrices (rows
    of numbers or base64 objects) as float arrays of finite entries; entry
    types are checked in one pass over the whole list.
    """
    if name not in doc and default is not _REQUIRED:
        return default
    expected, check = _KINDS[kind]
    value = doc.get(name)
    ok = check(value)
    if ok and kind in ("number", "numbers", "matrix", "array"):
        try:
            if kind == "number":
                value = float(value)
            elif kind == "array":
                value = _decoded(value)
            else:
                value = np.asarray(value, dtype=float)
        except (OverflowError, ValueError):  # an integer beyond the float range; bad base64 or byte count
            ok = False
        else:
            ok = bool(np.all(np.isfinite(value)))
    if not ok:
        raise DataError(f"schema violation at {name}: expected {expected}")
    return value


def save_trace_csv(path, trace: FitTrace) -> None:
    """Per-iteration CSV: ``iter, objective, recon_evals, millis``."""
    lines = ["iter,objective,recon_evals,millis"]
    for i, (obj, evals, secs) in enumerate(
        zip(trace.objectives, trace.recon_evals, trace.seconds), start=1
    ):
        lines.append(f"{i},{_fmt(obj)},{evals},{secs * 1000.0:.3f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
