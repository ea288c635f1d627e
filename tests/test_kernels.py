"""The three kernels on the stored entries against dense references, and their memory.

``reconstruct_nonzeros``, ``term_topic_sums`` and ``topic_doc_sums`` add
in their own orders, so they are checked against ``(W @ H)[rows, cols]``,
``R @ H.T`` and ``(R.T @ W).T`` (``R`` the dense matrix of the entry
weights) within 1e-12 relative, over random shapes that include empty
documents, unused terms, a single topic, a single entry and no entry.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import simplexnmf as snf
from simplexnmf import types

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


@pytest.mark.parametrize("kernel", ["reconstruct_nonzeros", "term_topic_sums", "topic_doc_sums"])
def test_kernel_memory_is_linear_in_the_entries(kernel):
    # K=20 topics over about 100k entries: an nnz x K temporary would take 20 x nnz x 8 bytes
    rng = np.random.default_rng(0)
    rows, cols = np.nonzero(rng.random((1000, 2000)) < 0.05)
    X = snf.TermDocMatrix.from_arrays(1000, 2000, rows, cols, rng.integers(1, 5, size=rows.size))
    W = rng.random((X.n_terms, 20))
    H = rng.random((20, X.n_docs))
    weights = rng.random(X.nnz)
    args = {
        "reconstruct_nonzeros": (X, W, H),
        "term_topic_sums": (X, weights, H),
        "topic_doc_sums": (X, weights, W),
    }[kernel]
    tracemalloc.start()
    try:
        getattr(types, kernel)(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * X.nnz * 8, f"{kernel} peaked at {peak / (X.nnz * 8):.1f} x nnz x 8 bytes"
