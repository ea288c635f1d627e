"""The three kernels on the stored entries against dense references, and their memory.

``reconstruct_nonzeros`` adds one topic at a time; ``term_topic_sums`` and
``topic_doc_sums`` are SciPy sparse-times-dense products over a CSC view of
the entry weights.  Each adds in its own order, so they are checked against
``(W @ H)[rows, cols]``, ``R @ H.T`` and ``(R.T @ W).T`` (``R`` the dense
matrix of the entry weights) within 1e-12 relative, over random shapes that
include empty documents, unused terms (the last of each too, which the CSC
view's shape alone accounts for), a single topic, a single entry and no
entry.  ``objectives.joint_aux``, a sum over the anchor's expected counts
(those of the joint update), is checked against the entry-by-topic form of
its sum, which shares no code with it.  Each of them must work in memory
linear in the entries, with no ``nnz x K`` temporary.  The reconstruction
split into ranges of entries, one per CPU, must equal one plain loop over
the topics bit for bit, whatever the CPU count; the CPU count and the work
per range are lowered here so that tiny inputs split too.
"""

import multiprocessing
import os
import threading
import time
import tracemalloc
import warnings

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


def _per_topic_loop(X, W, H):
    """The reconstruction as one serial loop over the topics, the order every range keeps."""
    out = np.zeros(X.nnz)
    for k in range(W.shape[1]):
        out += W[X.rows, k] * H[k, X.cols]
    return out


def _split(monkeypatch, cpus):
    """Let the reconstruction use ``cpus`` CPUs and split work of any size."""
    monkeypatch.setattr(types, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(types, "_RANGE_WORK", 1)


@pytest.mark.parametrize("cpus", [1, 2, 3, 7])
@settings(max_examples=60, deadline=None)
@given(sparse_counts(), st.integers(1, 5), st.integers(0, 2**32 - 1))
@example(np.zeros((3, 2)), 2, 0)  # no entry
@example(np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 1.0]]), 1, 1)  # two empty documents, K = 1
@example(np.arange(1.0, 50.0).reshape(7, 7), 1, 2)  # 49 entries: ranges of 24 and 25, of 16 and 17, of 7
def test_split_reconstruction_equals_the_serial_loop(cpus, dense, n_topics, seed):
    X = snf.TermDocMatrix.from_dense(dense)
    rng = np.random.default_rng(seed)
    W = rng.gamma(1.0, 1.0, size=(X.n_terms, n_topics))
    H = rng.gamma(1.0, 1.0, size=(n_topics, X.n_docs))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _split(monkeypatch, cpus)
        got = types.reconstruct_nonzeros(X, W, H)
    assert np.array_equal(got, _per_topic_loop(X, W, H))


def _recording(ranges):
    """``types._reconstruct_range`` that also records each range's term indices and whether the caller ran it."""
    reconstruct_range = types._reconstruct_range

    def record(rows, *args):
        ranges.append((rows.tolist(), threading.current_thread() is threading.main_thread()))
        reconstruct_range(rows, *args)
    return record


def test_ranges_are_contiguous_one_per_cpu_the_first_in_the_caller(monkeypatch):
    X = snf.TermDocMatrix.from_dense(np.arange(1.0, 11.0).reshape(10, 1))
    ranges = []
    _split(monkeypatch, 3)
    monkeypatch.setattr(types, "_reconstruct_range", _recording(ranges))
    types.reconstruct_nonzeros(X, np.ones((10, 1)), np.ones((1, 1)))
    # in storage order the terms are 0..9; the threads may record before the caller
    assert sorted(ranges) == [([0, 1, 2], True), ([3, 4, 5], False), ([6, 7, 8, 9], False)]


def test_one_range_per_cpu_of_the_affinity_mask(monkeypatch):
    # under a one-CPU mask (taskset -c 0) this is the inline path with no thread at all
    X = snf.TermDocMatrix.from_dense(np.ones((64, 2)))
    ranges = []
    monkeypatch.setattr(types, "_RANGE_WORK", 1)
    monkeypatch.setattr(types, "_reconstruct_range", _recording(ranges))
    types.reconstruct_nonzeros(X, np.ones((64, 1)), np.ones((1, 2)))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert len(ranges) == min(cpus, X.nnz)


def test_work_below_the_threshold_is_one_range_in_the_caller(monkeypatch):
    rng = np.random.default_rng(0)
    X = snf.TermDocMatrix.from_dense(rng.integers(1, 3, size=(40, 30)))
    ranges = []
    monkeypatch.setattr(types, "_usable_cpus", lambda: 7)
    monkeypatch.setattr(types, "_reconstruct_range", _recording(ranges))
    types.reconstruct_nonzeros(X, rng.random((40, 5)), rng.random((5, 30)))
    assert X.nnz * 5 < types._RANGE_WORK and ranges == [(X.rows.tolist(), True)]


def test_a_worker_exception_reaches_the_caller(monkeypatch):
    X = snf.TermDocMatrix.from_dense(np.ones((6, 4)))
    reconstruct_range = types._reconstruct_range

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("range failed")
        reconstruct_range(*args)

    _split(monkeypatch, 3)
    monkeypatch.setattr(types, "_reconstruct_range", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="^range failed$"):
        types.reconstruct_nonzeros(X, np.ones((6, 2)), np.ones((2, 4)))
    assert threading.active_count() == threads  # every thread was joined


def test_a_caller_exception_joins_every_worker_first(monkeypatch):
    X = snf.TermDocMatrix.from_dense(np.ones((6, 4)))
    reconstruct_range = types._reconstruct_range
    finished = []

    def failing(*args):
        if threading.current_thread() is threading.main_thread():
            raise RuntimeError("first range failed")
        time.sleep(0.05)  # still running when the caller's range fails
        reconstruct_range(*args)
        finished.append(args[0].tolist())

    _split(monkeypatch, 3)
    monkeypatch.setattr(types, "_reconstruct_range", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="^first range failed$"):
        types.reconstruct_nonzeros(X, np.ones((6, 2)), np.ones((2, 4)))
    assert len(finished) == 2  # both workers ran to the end before the error left
    assert threading.active_count() == threads  # and were joined


def test_the_callers_errstate_holds_in_the_workers(monkeypatch):
    # every product overflows, in the caller's range and in the worker's
    X = snf.TermDocMatrix.from_dense(np.ones((4, 4)))
    W, H = np.full((4, 2), 1e200), np.full((2, 4), 1e200)
    _split(monkeypatch, 2)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        out = types.reconstruct_nonzeros(X, W, H)
    assert np.all(out == np.inf)


def _reconstruct_or_fail(X, W, H, want):
    if not np.array_equal(types.reconstruct_nonzeros(X, W, H), want):
        raise SystemExit(1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform")
def test_a_forked_child_reconstructs_after_a_split(monkeypatch):
    rng = np.random.default_rng(1)
    X = snf.TermDocMatrix.from_dense(rng.integers(0, 3, size=(30, 20)))
    W, H = rng.random((30, 4)), rng.random((4, 20))
    _split(monkeypatch, 2)
    want = types.reconstruct_nonzeros(X, W, H)
    child = multiprocessing.get_context("fork").Process(target=_reconstruct_or_fail, args=(X, W, H, want))
    child.start()
    child.join(timeout=60)
    if child.is_alive():  # a hang, such as a lock held at the fork
        child.kill()
        child.join()
    assert child.exitcode == 0
