"""The three kernels on the stored entries against dense references, and their memory.

``reconstruct_nonzeros`` adds one topic at a time; ``term_topic_sums`` and
``topic_doc_sums`` are SciPy sparse-times-dense products over a CSC view of
the entry weights.  Each adds in its own order, so they are checked against
``(W @ H)[rows, cols]``, ``R @ H.T`` and ``(R.T @ W).T`` (``R`` the dense
matrix of the entry weights) within 1e-12 relative, over random shapes that
include empty documents, unused terms (the last of each too, which the CSC
view's shape alone accounts for), a single topic, a single entry and no
entry.  ``objectives.joint_aux``, topic-major as well, is checked against
the entry-by-topic form of its sum.  Each of them must work in memory
linear in the entries, with no ``nnz x K`` temporary.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import simplexnmf as snf
from simplexnmf import objectives, types

KERNEL_RTOL = 1e-12


@st.composite
def sparse_counts(draw):
    """A dense count matrix of 1 to 7 terms and documents, mostly zeros."""
    n_terms, n_docs = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cells = draw(st.lists(st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.5, 6.0]), min_size=n_terms * n_docs,
                          max_size=n_terms * n_docs))
    return np.array(cells).reshape(n_terms, n_docs)


@settings(max_examples=200, deadline=None)
@given(sparse_counts(), st.integers(1, 5), st.integers(0, 2**32 - 1))
@example(np.zeros((3, 2)), 2, 0)  # no entry
@example(np.array([[0.0, 0.0], [0.0, 4.0]]), 1, 1)  # a single entry, an empty document, an unused term
@example(np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 0.0, 1.0]]), 3, 2)
@example(np.array([[1.0, 2.0, 0.0], [0.0, 6.0, 0.0], [0.0, 0.0, 0.0]]), 1, 3)  # the last document and last term empty
def test_kernels_match_dense_references(dense, n_topics, seed):
    X = snf.TermDocMatrix.from_dense(dense)
    rng = np.random.default_rng(seed)
    W = rng.gamma(1.0, 1.0, size=(X.n_terms, n_topics))
    H = rng.gamma(1.0, 1.0, size=(n_topics, X.n_docs))
    weights = rng.gamma(1.0, 1.0, size=X.nnz)
    R = np.zeros(dense.shape)
    R[X.rows, X.cols] = weights
    checks = [
        (types.reconstruct_nonzeros(X, W, H), (W @ H)[X.rows, X.cols]),
        (types.term_topic_sums(X, weights, H), R @ H.T),
        (types.topic_doc_sums(X, weights, W), (R.T @ W).T),
    ]
    for got, want in checks:
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=KERNEL_RTOL, atol=0)  # an empty document or unused term reads 0


def test_no_topic_reconstructs_zeros():
    X = snf.TermDocMatrix.from_dense([[1.0, 0.0], [2.0, 3.0]])
    recon = types.reconstruct_nonzeros(X, np.zeros((2, 0)), np.zeros((0, 2)))
    assert recon.shape == (3,) and not recon.any()


def _joint_aux_by_entry_and_topic(X, candidate, anchor):
    """``joint_aux`` summed over one ``nnz x K`` array of the entry-by-topic terms."""
    (W, H), (Wa, Ha) = candidate, anchor
    phi = Wa[X.rows, :] * Ha[:, X.cols].T
    phi /= phi.sum(axis=1, keepdims=True)
    cand = W[X.rows, :] * H[:, X.cols].T
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(phi > 0, phi * np.log(cand / np.where(phi > 0, phi, 1.0)), 0.0)
    return float(-np.sum(X.vals[:, None] * logs) + W.sum(axis=0) @ H.sum(axis=1))


@pytest.mark.parametrize("seed", range(8))
def test_joint_aux_matches_the_entry_by_topic_sum(seed):
    rng = np.random.default_rng(seed)
    n_terms, n_docs, n_topics = rng.integers(1, 12, size=3)
    dense = rng.poisson(1.0, size=(n_terms, n_docs)).astype(float)
    dense[0, 0] += 1.0
    X = snf.TermDocMatrix.from_dense(dense)
    anchor = (rng.gamma(1.0, 1.0, size=(n_terms, n_topics)), rng.gamma(1.0, 1.0, size=(n_topics, n_docs)))
    candidate = (rng.gamma(1.0, 1.0, size=(n_terms, n_topics)), rng.gamma(1.0, 1.0, size=(n_topics, n_docs)))
    if n_topics > 1:  # responsibilities of 0: those entry-topic terms add nothing
        anchor[0][:, 1:][rng.random((n_terms, n_topics - 1)) < 0.3] = 0.0
    for point in (candidate, anchor):
        want = _joint_aux_by_entry_and_topic(X, point, anchor)
        assert objectives.joint_aux(X, point, anchor) == pytest.approx(want, rel=KERNEL_RTOL, abs=0)
    candidate[0][X.rows[0], :] = 0.0  # an entry the candidate cannot reconstruct
    assert objectives.joint_aux(X, candidate, anchor) == np.inf == _joint_aux_by_entry_and_topic(X, candidate, anchor)


@pytest.mark.parametrize("kernel", ["reconstruct_nonzeros", "term_topic_sums", "topic_doc_sums", "joint_aux"])
def test_kernel_memory_is_linear_in_the_entries(kernel):
    # K=20 topics over about 100k entries: an nnz x K temporary would take 20 x nnz x 8 bytes
    rng = np.random.default_rng(0)
    rows, cols = np.nonzero(rng.random((1000, 2000)) < 0.05)
    X = snf.TermDocMatrix.from_arrays(1000, 2000, rows, cols, rng.integers(1, 5, size=rows.size))
    W = rng.random((X.n_terms, 20))
    H = rng.random((20, X.n_docs))
    weights = rng.random(X.nnz)
    function, *args = {
        "reconstruct_nonzeros": (types.reconstruct_nonzeros, X, W, H),
        "term_topic_sums": (types.term_topic_sums, X, weights, H),
        "topic_doc_sums": (types.topic_doc_sums, X, weights, W),
        "joint_aux": (objectives.joint_aux, X, (W, H), (rng.random(W.shape), rng.random(H.shape))),
    }[kernel]
    tracemalloc.start()
    try:
        function(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * X.nnz * 8, f"{kernel} peaked at {peak / (X.nnz * 8):.1f} x nnz x 8 bytes"
