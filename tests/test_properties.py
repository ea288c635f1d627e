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
``tokenize`` over the files in name order.  The writer properties compare
the bytes of ``save_model`` and ``save_matrix_market`` with plain
formulations kept here as oracles: ``json.dumps`` of the whole model with
each matrix's base64 as a string, and one formatted string per entry line.
"""

import base64
import json
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        "format_version": 2,
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
