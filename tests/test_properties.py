"""Property tests of the shared joint update over random shapes.

Each property runs a few matched steps with the floor disabled (as the
``compare`` command does) on a random count matrix of 1 to 6 terms,
documents and topics, and checks one of the paper's identities at the
1e-12 tolerance of the acceptance suite.  Every document has at least one
nonzero; single-entry documents, single terms, single documents and a
single topic all occur.  The last properties check ``digamma`` and
``log_gamma`` on random 2-d arrays (empty and 1 x 1 ones included) with
values log-uniform in [1e-8, 1e6], at the tolerances of ``test_specfun``.
The ingestion property compares ``ingest_corpus`` on small random corpora
(CR and LF characters included) with a plain-Python count of
``tokenize`` over the files in name order, and ``tokenize`` itself must
give the matches of ``[^\\W_]+`` in the lowercased text, over every ASCII
code point, the underscore and a few letters, digits and separators beyond
ASCII.  The writer properties compare
the bytes of ``save_model`` and ``save_matrix_market`` with plain
formulations kept here as oracles: ``json.dumps`` of the whole model with
each matrix's base64 as a string, and one formatted string per entry line.
The Gamma bound of a state's per-topic rates must equal, bit for bit, an
oracle kept here that takes the rates broadcast to K x D.  The
MatrixMarket loader must split a text as ``str.splitlines`` does:
a file whose lines end in any of its line breaks, with comment and blank
lines around the size line, loads the matrix of its ``\n``-joined text,
and a malformed entry planted in it is reported at the same line.
"""

import base64
import json
import re
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import simplexnmf as snf
from simplexnmf import io as snf_io
from simplexnmf.errors import DataError
from simplexnmf.io import ModelFile, tokenize
from simplexnmf.types import METHOD_SPECS

NO_FLOOR = 0.0
MATCH_TOL = 1e-12
STEPS = 3

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def problems(draw):
    """A count matrix with no empty document, a topic count and an init seed."""
    n_terms = draw(st.integers(1, 6))
    n_docs = draw(st.integers(1, 6))
    counts = draw(
        st.lists(st.integers(0, 5), min_size=n_terms * n_docs, max_size=n_terms * n_docs)
    )
    dense = np.array(counts, dtype=float).reshape(n_terms, n_docs)
    for d in range(n_docs):
        if not dense[:, d].any():
            dense[draw(st.integers(0, n_terms - 1)), d] = float(draw(st.integers(1, 5)))
    return snf.TermDocMatrix.from_dense(dense), draw(st.integers(1, 6)), draw(st.integers(0, 2**32 - 1))


@st.composite
def special_arguments(draw):
    """A 2-d array of 0 to 4 rows and 0 to 5 columns, log-uniform in [1e-8, 1e6]."""
    shape = (draw(st.integers(0, 4)), draw(st.integers(0, 5)))
    exponents = draw(st.lists(st.floats(-8.0, 6.0), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    return (10.0 ** np.array(exponents, dtype=float)).reshape(shape)


# file names that sort differently by code point than by case or number
NAME = st.text(st.sampled_from("aAbB019_-."), min_size=1, max_size=3).filter(lambda name: name not in (".", ".."))
TEXT = st.text(st.sampled_from("abcXYZéΣ0129 .,;-!'\r\n"), max_size=30)


@st.composite
def corpora(draw):
    """1 to 6 files as ``{name: text}`` and a ``min_count``."""
    return draw(st.dictionaries(NAME, TEXT, min_size=1, max_size=6)), draw(st.integers(1, 3))


def _special_tolerance(values):
    # 1e-12 absolute where representable, else 8 ulp of the value (test_specfun)
    return np.maximum(1e-12, 8.0 * np.spacing(np.abs(values)))


def _both_simplex_start(X, n_topics, seed):
    config = snf.FitConfig(n_topics=n_topics, method="plsa", seed=seed)
    return snf.initialize_factorization(X, config)


def _w_simplex(X, f):
    return snf.Factorization(f.W, X.col_sums[None, :] * f.H, snf.ConstraintMode.W_SIMPLEX)


@SETTINGS
@given(problems())
def test_joint_bothnorm_matches_dense_reference(problem):
    X, n_topics, seed = problem
    dense = X.to_dense()
    current = _both_simplex_start(X, n_topics, seed)
    W_ref, H_ref = current.W.copy(), current.H.copy()
    for _ in range(STEPS):
        current = snf.mu_step_joint_bothnorm(X, current, epsilon_floor=NO_FLOOR).factorization
        W_ref, H_ref = snf.plsa_step_reference(dense, W_ref, H_ref)
        assert np.abs(current.W - W_ref).max() <= MATCH_TOL
        assert np.abs(current.H - H_ref).max() <= MATCH_TOL


@SETTINGS
@given(problems(), st.floats(0.05, 5.0))
def test_dirichlet_step_matches_dense_reference(problem, alpha):
    X, n_topics, seed = problem
    dense = X.to_dense()
    priors = snf.Priors(np.full(n_topics, alpha))
    config = snf.FitConfig(n_topics=n_topics, method="lda", seed=seed)
    W, state = snf.initialize_variational(X, config, priors, perturb=True)
    W_ref, beta_ref = W.copy(), state.beta.copy()
    for _ in range(STEPS):
        W, state, _ = snf.dp_vi_step(X, W, priors, state, epsilon_floor=NO_FLOOR)
        W_ref, beta_ref = snf.lda_vi_step_reference(dense, W_ref, priors.alpha, beta_ref)
        assert np.abs(W - W_ref).max() <= MATCH_TOL
        assert np.abs(state.beta - beta_ref).max() <= MATCH_TOL


@SETTINGS
@given(problems())
def test_w_normalized_iterates_are_document_scaled_both_normalized(problem):
    X, n_topics, seed = problem
    both = _both_simplex_start(X, n_topics, seed)
    wnorm = _w_simplex(X, both)
    for _ in range(STEPS):
        both = snf.mu_step_joint_bothnorm(X, both, epsilon_floor=NO_FLOOR).factorization
        wnorm = snf.mu_step_joint_wnorm(X, wnorm, epsilon_floor=NO_FLOOR).factorization
        assert np.abs(wnorm.W - both.W).max() <= MATCH_TOL
        assert np.abs(wnorm.H / X.col_sums[None, :] - both.H).max() <= MATCH_TOL


@SETTINGS
@given(problems(), st.floats(0.01, 10.0))
def test_sparse_iterates_are_plain_ones_scaled_by_one_plus_lambda(problem, lam):
    X, n_topics, seed = problem
    plain = penalized = _w_simplex(X, _both_simplex_start(X, n_topics, seed))
    for _ in range(STEPS):
        plain = snf.mu_step_joint_wnorm(X, plain, epsilon_floor=NO_FLOOR).factorization
        penalized = snf.mu_step_sparse(X, penalized, lam, epsilon_floor=NO_FLOOR).factorization
        assert np.abs(plain.W - penalized.W).max() <= MATCH_TOL
        deviation = np.abs(penalized.H * (1.0 + lam) - plain.H) / X.col_sums[None, :]
        assert deviation.max() <= MATCH_TOL
        offset = snf.sparse_objective(X, penalized.W, penalized.H, lam) - snf.kl_divergence(X, plain.W, plain.H)
        expected = np.log1p(lam) * X.total
        assert abs(offset - expected) <= 1e-10 * max(1.0, abs(expected))


@SETTINGS
@given(problems(), st.floats(0.05, 5.0), st.floats(0.05, 5.0))
def test_gamma_step_matches_dirichlet_step_for_uniform_rates(problem, alpha, rate):
    X, n_topics, seed = problem
    priors_lda = snf.Priors(np.full(n_topics, alpha))
    priors_gap = snf.Priors(np.full(n_topics, alpha), np.full(n_topics, rate))
    config = snf.FitConfig(n_topics=n_topics, method="lda", seed=seed)
    W_lda, state_lda = snf.initialize_variational(X, config, priors_lda, perturb=True)
    W_gap = W_lda.copy()
    state_gap = snf.map_gap_lda_state(state_lda, priors_gap, "to_gap")
    for _ in range(STEPS):
        W_lda, state_lda, _ = snf.dp_vi_step(X, W_lda, priors_lda, state_lda, epsilon_floor=NO_FLOOR)
        W_gap, state_gap, _ = snf.gap_vi_step(X, W_gap, priors_gap, state_gap, epsilon_floor=NO_FLOOR)
        assert np.abs(W_lda - W_gap).max() <= MATCH_TOL
        assert np.abs(state_lda.beta - state_gap.beta).max() <= MATCH_TOL


def _gap_terms_oracle(X, W, beta, b):
    """``E[log h]``, ``h~`` and ``(W h~)`` of the Gamma bound with the rates a K x D
    array ``b``, each operation as the bound took them when it stored every rate."""
    psi = snf.digamma(beta)
    h_tilde = np.exp(psi)
    h_tilde /= b
    elog = np.log(b)
    np.subtract(psi, elog, out=elog)
    return elog, h_tilde, snf.reconstruct_nonzeros(X, W, h_tilde)


def _gap_elbo_oracle(X, alpha, a, beta, b, terms):
    """The Gamma bound from the oracle's terms, with the rates a K x D array ``b``."""
    elog, _, recon = terms
    mixture = float(np.sum(X.vals * np.log(recon)))
    per_cell = snf.log_gamma(beta)
    per_cell -= snf.log_gamma(alpha)[:, None]
    per_cell += (alpha * np.log(a))[:, None]
    term = np.log(b)
    term *= beta
    per_cell -= term
    np.subtract(alpha[:, None], beta, out=term)
    term *= elog
    per_cell += term
    eh = np.divide(beta, b, out=term)
    per_cell -= eh
    rate_gap = b - a[:, None]
    rate_gap *= eh
    per_cell += rate_gap
    return mixture + float(per_cell.sum())


@SETTINGS
@given(problems())
def test_the_gamma_bound_of_per_topic_rates_is_the_bound_of_their_broadcast(problem):
    # a state holds one rate per topic; the terms and the bound are those of the K x D broadcast, bit for bit
    X, n_topics, seed = problem
    rng = np.random.default_rng(seed)
    W = rng.dirichlet(np.ones(X.n_terms), size=n_topics).T
    beta = np.exp(rng.uniform(-3.0, 5.0, size=(n_topics, X.n_docs)))
    alpha, a = np.exp(rng.uniform(-3.0, 3.0, size=(2, n_topics)))
    state = snf.VariationalState(beta, np.exp(rng.uniform(-3.0, 3.0, size=(n_topics, 1))))
    b = np.broadcast_to(state.b_rate, beta.shape).copy()
    terms = snf.objectives.gap_elbo_terms(X, W, state)
    expected = _gap_terms_oracle(X, W, beta, b)
    for got, want in zip(terms, expected):
        assert np.array_equal(got, want)
    bound = _gap_elbo_oracle(X, alpha, a, beta, b, expected)
    priors = snf.Priors(alpha, a)
    assert snf.gap_elbo(X, W, priors, state, terms=terms) == bound
    assert snf.gap_elbo(X, W, priors, state) == bound


@SETTINGS
@given(special_arguments())
def test_special_functions_array_calls_match_scalar_calls(xs):
    for fn in (snf.digamma, snf.log_gamma):
        values = fn(xs)
        assert values.shape == xs.shape
        scalars = np.array([fn(float(x)) for x in xs.ravel()], dtype=float).reshape(xs.shape)
        assert np.array_equal(values, scalars)


@SETTINGS
@given(special_arguments())
def test_special_functions_satisfy_the_recurrences(xs):
    upper = xs + 1.0
    lower = upper - 1.0  # so that upper = lower + 1 holds exactly
    psi_lower, psi_upper = snf.digamma(lower), snf.digamma(upper)
    tolerance = _special_tolerance(psi_lower) + _special_tolerance(psi_upper)
    assert np.all(np.abs(psi_upper - psi_lower - 1.0 / lower) <= tolerance)
    lg_lower, lg_upper = snf.log_gamma(lower), snf.log_gamma(upper)
    tolerance = _special_tolerance(lg_lower) + _special_tolerance(lg_upper)
    assert np.all(np.abs(lg_upper - lg_lower - np.log(lower)) <= tolerance)


@SETTINGS
@given(special_arguments())
def test_digamma_increases_along_sorted_draws(xs):
    ordered = np.unique(xs)
    values = snf.digamma(ordered)
    tolerance = _special_tolerance(values)
    rise = np.diff(values)
    # psi' > 1/x, so psi(b) - psi(a) > log(b/a); a rise of more than the
    # accuracy of both values must show, and no step may fall by more
    assert np.all(rise >= -(tolerance[1:] + tolerance[:-1]))
    resolved = np.log(ordered[1:] / ordered[:-1]) > tolerance[1:] + tolerance[:-1]
    assert np.all(rise[resolved] > 0.0)


@SETTINGS
@given(corpora())
def test_ingest_matches_a_counter_over_files_in_name_order(corpus):
    docs, min_count = corpus
    counts = [Counter(tokenize(docs[name])) for name in sorted(docs)]
    totals = sum(counts, Counter())
    terms = tuple(sorted(t for t, c in totals.items() if c >= min_count))
    expected = np.array([[doc[t] for doc in counts] for t in terms], dtype=float).reshape(len(terms), len(docs))
    with tempfile.TemporaryDirectory() as directory:
        for name, text in docs.items():
            (Path(directory) / name).write_bytes(text.encode("utf-8"))
        if not expected.any(axis=0).all():
            with pytest.raises(DataError, match="documents with no countable terms"):
                snf.ingest_corpus(directory, min_count)
            return
        X, vocab = snf.ingest_corpus(directory, min_count)
    assert vocab.terms == terms
    assert np.array_equal(X.to_dense(), expected)


# every ASCII code point, letters and digits beyond ASCII (a title-case letter, one that lowercases to two
# characters, a superscript and an Arabic-Indic digit), the underscore, NBSP, a zero-width space and U+2028
TOKEN_TEXT = st.one_of(
    st.text(st.characters(max_codepoint=127), max_size=40),
    st.text(st.sampled_from([chr(c) for c in range(128)] + list("éßΣİǅ²٣_\xa0\u200b\u2028")), max_size=40),
)


@SETTINGS
@given(TOKEN_TEXT)
@example("snake_case a\tb\x0bc\x00d\x1ce")
@example("snake_case é")
def test_tokenize_is_the_alphanumeric_runs_of_the_lowercased_text(text):
    # the reference: runs of word characters other than the underscore
    assert tokenize(text) == re.findall(r"[^\W_]+", text.lower())


# values the writers must carry bit for bit: the smallest subnormal, the
# largest float, a fraction without a short decimal form, and random ones
EXTREMES = [5e-324, 1.7976931348623157e308, 1 / 3]
POSITIVE = st.one_of(st.sampled_from(EXTREMES), st.floats(min_value=5e-324, max_value=1.7976931348623157e308))
NON_NEGATIVE = st.one_of(st.just(0.0), POSITIVE)


@st.composite
def matrices(draw, n_rows, n_cols, values):
    """An ``n_rows`` x ``n_cols`` float64 array of ``values`` laid out in C or
    Fortran order or as a strided view."""
    M = np.array(draw(st.lists(values, min_size=n_rows * n_cols, max_size=n_rows * n_cols)))
    M = M.reshape(n_rows, n_cols)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(M)
    if layout == "strided":
        wide = np.zeros((n_rows, 2 * n_cols))
        wide[:, ::2] = M
        return wide[:, ::2]
    return M


@st.composite
def models(draw):
    """A valid model of any method with 1 to 6 terms, documents and topics."""
    method = draw(st.sampled_from(snf.METHODS))
    spec = METHOD_SPECS[method]
    n_terms, n_docs, n_topics = (draw(st.integers(1, 6)) for _ in range(3))
    fields = {"W": draw(matrices(n_terms, n_topics, NON_NEGATIVE))}
    for name in spec.model_fields:
        if name in ("alpha", "rate_a"):
            fields[name] = np.array(draw(st.lists(POSITIVE, min_size=n_topics, max_size=n_topics)))
        else:
            fields[name] = draw(matrices(n_topics, n_docs, NON_NEGATIVE if name == "H" else POSITIVE))
    return ModelFile(
        method=method, n_terms=n_terms, n_docs=n_docs, n_topics=n_topics, constraint_mode=spec.mode.tag,
        lambda_sparsity=draw(st.sampled_from([0.0, 0.25, 1 / 3])) if spec.uses_lambda else 0.0,
        final_objective=draw(st.just(-1 / 3) | st.floats(allow_nan=False, allow_infinity=False)),
        **fields,
    )


def _model_oracle(model) -> bytes:
    """The model file as one ``json.dumps`` per top-level value, each matrix's base64 a ``str``."""

    def encoded(M):
        M = np.ascontiguousarray(M, dtype="<f8")
        return {"dtype": "<f8", "shape": list(M.shape), "data": base64.b64encode(M.tobytes()).decode("ascii")}

    doc = {
        "format_version": 3,
        "method": model.method,
        "n_terms": model.n_terms,
        "n_docs": model.n_docs,
        "n_topics": model.n_topics,
        "constraint_mode": model.constraint_mode,
        "lambda_sparsity": float(model.lambda_sparsity),
        "final_objective": float(model.final_objective),
        "W": encoded(model.W),
    }
    for name in METHOD_SPECS[model.method].model_fields:
        value = getattr(model, name)
        doc[name] = snf_io._json_array(value) if name in ("alpha", "rate_a") else encoded(value)
    return ("{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items()) + "\n}\n").encode()


# fractional counts, and whole ones at and past 2**53 where float64 skips integers
COUNTS = st.one_of(
    st.sampled_from([5e-324, 0.1, 1 / 3, 2.0, 2.0**53, 2.0**53 + 2, 2.0**64]),
    st.integers(1, 2**70).map(float),
    st.floats(min_value=5e-324, max_value=1e300),
)


@st.composite
def count_matrices(draw):
    """A count matrix of 1 to 6 terms and documents, empty documents included."""
    n_terms, n_docs = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.sets(st.integers(0, n_terms * n_docs - 1), max_size=n_terms * n_docs))
    cells = np.array(sorted(cells), dtype=np.int64)
    vals = draw(st.lists(COUNTS, min_size=cells.size, max_size=cells.size))
    return snf.TermDocMatrix.from_arrays(n_terms, n_docs, cells % n_terms, cells // n_terms, vals)


@SETTINGS
@given(models())
def test_save_model_writes_the_oracle_bytes(model):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "model.json"
        snf.save_model(path, model)
        assert path.read_bytes() == _model_oracle(model)


@SETTINGS
@given(count_matrices(), st.integers(1, 4))
def test_save_matrix_market_writes_the_oracle_bytes(X, run):
    entries = zip((X.rows + 1).tolist(), (X.cols + 1).tolist(), X.vals.tolist())
    lines = [f"{v} {d} {x:.17g}\n" for v, d, x in entries]
    expected = f"%%MatrixMarket matrix coordinate real general\n{X.n_terms} {X.n_docs} {X.nnz}\n" + "".join(lines)
    with tempfile.TemporaryDirectory() as directory, mock.patch.object(snf_io, "_MM_RUN", run):
        path = Path(directory) / "counts.mtx"
        snf.save_matrix_market(path, X)
        assert path.read_bytes() == expected.encode("ascii")


# the line boundaries of str.splitlines, and lines a MatrixMarket loader skips: blank ones
# and comments, one of each not ASCII
LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SKIPPED_LINES = ["", "  ", "\t", "\xa0", "%", "% note", "  % indented", "% caf\u00e9"]


@st.composite
def matrix_market_texts(draw):
    """A count matrix, the lines of a MatrixMarket text of it, the breaks
    between them, the text's end and the index of its size line.

    Skipped lines come before and after the size line, so some texts hold
    a ``%`` or a non-ASCII character before it and none after it.  The
    breaks and the end (which may be none) are drawn from those of
    ``str.splitlines``."""
    X = draw(count_matrices())
    skipped = st.lists(st.sampled_from(SKIPPED_LINES), max_size=3)
    head = ["%%MatrixMarket matrix coordinate real general", *draw(skipped)]
    lines = [*head, f"{X.n_terms} {X.n_docs} {X.nnz}"]
    for v, d, x in zip((X.rows + 1).tolist(), (X.cols + 1).tolist(), X.vals.tolist()):
        lines += [*draw(skipped), f"{v} {d} {x:.17g}"]
    lines += draw(skipped)
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines) - 1, max_size=len(lines) - 1))
    return X, lines, breaks, draw(st.sampled_from(["", *LINE_BREAKS])), len(head)


def _joined(lines, breaks, end):
    return "".join(map(str.__add__, lines, [*breaks, end]))


def _load_text(text):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "counts.mtx"
        path.write_bytes(text.encode("utf-8"))
        return snf.load_matrix_market(path)


@settings(max_examples=300, deadline=None)
@given(matrix_market_texts(), st.data())
def test_the_loader_splits_lines_as_splitlines(drawn, data):
    X, lines, breaks, end, size_line = drawn
    text = _joined(lines, breaks, end)
    for loaded in (_load_text(text), _load_text("\n".join(text.splitlines()))):
        assert (loaded.n_terms, loaded.n_docs) == (X.n_terms, X.n_docs)
        for got, want in zip((loaded.rows, loaded.cols, loaded.vals), (X.rows, X.cols, X.vals)):
            assert np.array_equal(got, want)
    # a malformed entry line planted after the size line is reported at its line of str.splitlines
    at, brk = data.draw(st.integers(size_line + 1, len(lines))), data.draw(st.sampled_from(LINE_BREAKS))
    text = _joined([*lines[:at], "1 1 x", *lines[at:]], [*breaks[:at], brk, *breaks[at:]], end)
    line = text.splitlines().index("1 1 x") + 1
    for planted in (text, "\n".join(text.splitlines())):
        with pytest.raises(DataError, match=f"^malformed entry at line {line}$"):
            _load_text(planted)
