"""Core containers and the reconstruction evaluator."""

from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import simplexnmf as snf
from simplexnmf.errors import DataError, DegenerateColumnError, EntryError

from helpers import random_count_matrix


class TestNormalizeColumns:
    def test_basic(self):
        out, scales = snf.normalize_columns([[2.0], [2.0]])
        assert np.array_equal(out, [[0.5], [0.5]])
        assert np.array_equal(scales, [4.0])

    def test_idempotent(self):
        M = np.array([[0.25, 0.0], [0.75, 1.0]])
        out, scales = snf.normalize_columns(M)
        assert np.array_equal(out, M)
        assert np.array_equal(scales, [1.0, 1.0])

    def test_hand_division(self):
        out, scales = snf.normalize_columns([[1.0, 0.0], [3.0, 2.0]])
        assert np.allclose(out, [[0.25, 0.0], [0.75, 1.0]], rtol=0, atol=1e-15)
        assert np.array_equal(scales, [4.0, 2.0])

    def test_product_preserving(self):
        rng = np.random.default_rng(1)
        M = rng.gamma(1.0, 1.0, size=(7, 4))
        out, scales = snf.normalize_columns(M)
        assert np.allclose(out * scales[None, :], M, rtol=1e-15, atol=0)

    def test_degenerate_column(self):
        with pytest.raises(DegenerateColumnError, match="column 1"):
            snf.normalize_columns([[1.0, 0.0], [1.0, 0.0]])


class TestTermDocMatrix:
    def test_from_entries_round_trip(self):
        X = snf.TermDocMatrix.from_entries(3, 2, [(0, 0, 1.0), (2, 1, 4.0), (1, 1, 2.5)])
        dense = X.to_dense()
        assert dense[0, 0] == 1.0 and dense[2, 1] == 4.0 and dense[1, 1] == 2.5
        assert X.nnz == 3
        again = snf.TermDocMatrix.from_dense(dense)
        assert np.array_equal(again.vals, X.vals)

    def test_zero_entries_dropped(self):
        X = snf.TermDocMatrix.from_entries(2, 2, [(0, 0, 0.0), (1, 1, 3.0)])
        assert X.nnz == 1

    def test_cached_column_sums_exact(self):
        X = random_count_matrix(3)
        assert np.array_equal(X.col_sums, np.bincount(X.cols, X.vals, minlength=X.n_docs))
        assert np.allclose(X.col_sums, X.to_dense().sum(axis=0), rtol=1e-15)

    def test_duplicate_entry(self):
        with pytest.raises(DataError, match="duplicate"):
            snf.TermDocMatrix.from_entries(2, 2, [(0, 0, 1.0), (0, 0, 2.0)])

    def test_negative_count(self):
        with pytest.raises(DataError, match="negative"):
            snf.TermDocMatrix.from_entries(2, 2, [(0, 0, -1.0)])

    def test_index_out_of_range(self):
        with pytest.raises(DataError, match="out of range"):
            snf.TermDocMatrix.from_entries(2, 2, [(2, 0, 1.0)])

    def test_dense_input_of_one_dimension_is_refused(self):
        with pytest.raises(DataError, match="^dense input must be a 2-d array$"):
            snf.TermDocMatrix.from_dense([1.0, 2.0, 3.0])

    def test_columns_may_be_empty(self):
        # all-zero documents are legal in the container; only ingestion rejects them
        X = snf.TermDocMatrix.from_entries(2, 3, [(0, 0, 1.0)])
        assert X.col_sums[1] == 0.0


class TestFactorization:
    def test_mode_validation(self):
        W = np.array([[0.5, 1.0], [0.5, 0.0]])
        H = np.ones((2, 3))
        f = snf.Factorization(W, H, snf.ConstraintMode.W_SIMPLEX)
        assert f.n_topics == 2 and f.n_terms == 2 and f.n_docs == 3
        with pytest.raises(ValueError, match="sums to"):
            snf.Factorization(W * 2.0, H, snf.ConstraintMode.W_SIMPLEX)
        with pytest.raises(ValueError, match="sums to"):
            snf.Factorization(W, H, snf.ConstraintMode.BOTH_SIMPLEX)

    def test_negativity_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            snf.Factorization(np.array([[-0.1]]), np.array([[1.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            snf.Factorization(np.ones((2, 2)), np.ones((3, 2)))

    def test_arrays_read_only(self):
        f = snf.Factorization(np.ones((2, 1)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            f.W[0, 0] = 7.0

    def test_read_only_arrays_are_shared_and_others_copied(self):
        W, H = np.full((2, 1), 0.5), np.ones((1, 2))
        W.setflags(write=False)
        f = snf.Factorization(W, H, snf.ConstraintMode.W_SIMPLEX)
        assert f.W is W
        assert f.H is not H and H.flags.writeable and not f.H.flags.writeable
        assert snf.Factorization(W[:, :1], H).W is not W  # a view does not own its data

    def test_a_step_output_is_taken_without_a_copy(self):
        from simplexnmf import mu

        X = random_count_matrix(3, n_terms=8, n_docs=5)
        f = snf.initialize_factorization(X, snf.FitConfig(n_topics=2, method="mu-joint"))
        h_map = partial(mu._floor_columns, epsilon_floor=mu.EPSILON_FLOOR)  # the mu-joint map
        W, H = mu.joint_step(X, f.W, f.H, h_map, mu.EPSILON_FLOOR)
        g = snf.Factorization(W, H, snf.ConstraintMode.W_SIMPLEX)
        assert g.W is W and g.H is H


class TestConfigAndState:
    def test_fit_config_validation(self):
        with pytest.raises(ValueError):
            snf.FitConfig(n_topics=2, max_iters=0)
        with pytest.raises(ValueError):
            snf.FitConfig(n_topics=2, rel_tolerance=0.0)
        with pytest.raises(ValueError):
            snf.FitConfig(n_topics=2, lambda_sparsity=-0.5)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="lambda_sparsity"):
                snf.FitConfig(n_topics=2, method="sparse", lambda_sparsity=bad)
        with pytest.raises(ValueError):
            snf.FitConfig(n_topics=2, method="nope")
        with pytest.raises(ValueError):
            snf.FitConfig(n_topics=0)
        # non-whole numbers and bools are refused by name, not deep in numpy
        for name, bad in (
            ("n_topics", 2.5), ("n_topics", True), ("seed", 1.5), ("seed", "3"), ("seed", True),
            ("max_iters", 2.5), ("seed", -1), ("seed", 2 ** 64),
        ):
            with pytest.raises(ValueError, match=name):
                snf.FitConfig(**{"n_topics": 2, name: bad})
        snf.FitConfig(n_topics=2, max_iters=1)
        config = snf.FitConfig(n_topics=np.int64(2), max_iters=np.int64(3), seed=np.uint64(2 ** 64 - 1))
        assert (config.n_topics, config.max_iters, config.seed) == (2, 3, 2 ** 64 - 1)

    def test_priors_validation(self):
        with pytest.raises(ValueError):
            snf.Priors(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            snf.Priors(np.array([1.0, 1.0]), np.array([1.0, -1.0]))
        p = snf.Priors(np.array([0.5, 0.5]), np.array([1.0, 2.0]))
        assert p.n_topics == 2

    def test_priors_refuse_anything_but_one_value_per_topic(self):
        with pytest.raises(ValueError, match=r"alpha must be a 1-d array.*\(2, 2\)"):
            snf.Priors(np.ones((2, 2)))
        with pytest.raises(ValueError, match=r"alpha must be a 1-d array.*\(\)"):
            snf.Priors(1.0)
        with pytest.raises(ValueError, match=r"alpha must be a 1-d array.*\(1, 2\)"):
            snf.Priors([[1.0, 2.0]], [[3.0], [4.0]])
        with pytest.raises(ValueError, match="rate_a must be .* 1-d array"):
            snf.Priors([1.0, 2.0], [[3.0], [4.0]])

    def test_variational_state_validation(self):
        with pytest.raises(ValueError):
            snf.VariationalState(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            snf.VariationalState(np.ones((2, 2)), np.zeros((2, 1)))
        # the rates are one per topic: a K x D array, a row or a flat vector is refused
        for shape in [(2, 3), (1, 3), (2,), (3, 1)]:
            with pytest.raises(ValueError, match="b_rate"):
                snf.VariationalState(np.ones((2, 3)), np.full(shape, 2.0))
        s = snf.VariationalState(np.ones((2, 3)))
        assert s.n_topics == 2 and s.n_docs == 3


class TestSparseEvaluator:
    def test_reconstruct_nonzeros_matches_dense(self):
        X = random_count_matrix(5, n_terms=9, n_docs=7)
        rng = np.random.default_rng(2)
        W = rng.gamma(1.0, 1.0, size=(9, 3))
        H = rng.gamma(1.0, 1.0, size=(3, 7))
        dense = (W @ H)[X.rows, X.cols]
        assert np.allclose(snf.reconstruct_nonzeros(X, W, H), dense, rtol=1e-14)

    @pytest.mark.parametrize("w_shape, h_shape", [((3, 2), (2, 2)), ((1, 2), (2, 2)), ((2, 2), (2, 3)),
                                                  ((2, 2), (1, 2)), ((2,), (1, 2)), ((2, 1), (2,))])
    def test_misshapen_factors_are_refused(self, w_shape, h_shape):
        X = snf.TermDocMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
        with pytest.raises(ValueError) as info:
            snf.reconstruct_nonzeros(X, np.full(w_shape, 0.5), np.full(h_shape, 0.5))
        assert str(info.value) == f"factors of shapes {w_shape} and {h_shape} do not reconstruct a 2 x 2 matrix"

    def test_column_sum_closed_form(self):
        rng = np.random.default_rng(3)
        W = rng.gamma(1.0, 1.0, size=(9, 3))
        H = rng.gamma(1.0, 1.0, size=(3, 7))
        assert np.allclose(snf.reconstruction_column_sums(W, H), (W @ H).sum(axis=0), rtol=1e-13)
        assert snf.reconstruction_total(W, H) == pytest.approx((W @ H).sum(), rel=1e-13)
        # with W column-normalized, the column sums collapse to the column sums of H
        Wn, _ = snf.normalize_columns(W)
        assert np.allclose(snf.reconstruction_column_sums(Wn, H), H.sum(axis=0), rtol=1e-12)

    @pytest.mark.parametrize("n_topics", [1, 3])
    def test_accumulators_match_dense(self, n_topics):
        # more documents than one old 1024-document shard; document 1 has no entries
        rng = np.random.default_rng(4)
        n_terms, n_docs = 5, 2500
        dense = (rng.random((n_terms, n_docs)) < 0.3) * rng.poisson(2.0, size=(n_terms, n_docs)).astype(float)
        dense[:, 1] = 0.0
        rows, cols = np.nonzero(dense)
        X = snf.TermDocMatrix.from_entries(n_terms, n_docs, zip(rows, cols, dense[rows, cols]))
        assert X.doc_ptr[1] == X.doc_ptr[2]
        W = rng.gamma(1.0, 1.0, size=(n_terms, n_topics))
        H = rng.gamma(1.0, 1.0, size=(n_topics, n_docs))
        weights = rng.gamma(1.0, 1.0, size=X.nnz)
        weighted = np.zeros((n_terms, n_docs))
        weighted[X.rows, X.cols] = weights
        a = snf.types.term_topic_sums(X, weights, H)
        assert a.shape == (n_terms, n_topics)
        assert np.allclose(a, weighted @ H.T, rtol=1e-12, atol=0)
        assert np.array_equal(a, snf.types.term_topic_sums(X, weights, H))
        b = snf.types.topic_doc_sums(X, weights, W)
        assert b.shape == (n_topics, n_docs)
        assert np.allclose(b, W.T @ weighted, rtol=1e-12, atol=0)
        assert np.array_equal(b, snf.types.topic_doc_sums(X, weights, W))
        assert not b[:, 1].any()


class TestNonFiniteRejected:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_from_entries(self, value):
        with pytest.raises(DataError, match=r"non-finite count at entry \(1, 0\)"):
            snf.TermDocMatrix.from_entries(2, 2, [(0, 0, 1.0), (1, 0, value)])

    def test_overflowing_document_total(self):
        # every count is finite, but documents 1 and 2 sum past the float64 range
        entries = [(0, 0, 1.0), (0, 1, 1e308), (1, 1, 1e308), (1, 2, 1e308), (2, 2, 1e308)]
        with pytest.raises(DataError, match=r"document 1 \(0-based\)") as info:
            snf.TermDocMatrix.from_entries(3, 3, entries)
        assert type(info.value) is DataError

    def test_factorization(self):
        with pytest.raises(ValueError, match="finite"):
            snf.Factorization(np.array([[np.nan]]), np.array([[1.0]]))
        with pytest.raises(ValueError, match="finite"):
            snf.Factorization(np.array([[1.0]]), np.array([[np.inf]]))

    def test_variational_state_and_priors(self):
        with pytest.raises(ValueError, match="beta"):
            snf.VariationalState(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="b_rate"):
            snf.VariationalState(np.ones((1, 2)), np.array([[np.inf]]))
        with pytest.raises(ValueError, match="alpha"):
            snf.Priors(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="rate_a"):
            snf.Priors(np.array([1.0, 1.0]), np.array([np.inf, 1.0]))

    # each bad value after a smaller and before a larger good one, in a K x D array
    FACTOR_REFUSED = [np.nan, np.inf, -np.inf, -1e-300, -2.0]
    STATE_REFUSED = [*FACTOR_REFUSED, 0.0, -0.0]

    @staticmethod
    def _with(value, shape=(3, 4)):
        arr = np.linspace(0.5, 6.0, num=12).reshape(shape)
        arr[1, 2] = value
        return arr

    @pytest.mark.parametrize("value", FACTOR_REFUSED)
    def test_factorization_refuses_each_bad_entry(self, value):
        for W, H in ((self._with(value), np.ones((4, 2))), (np.ones((5, 3)), self._with(value))):
            with pytest.raises(ValueError, match="^factor matrices must be finite and non-negative$"):
                snf.Factorization(W, H)

    @pytest.mark.parametrize("value", STATE_REFUSED)
    def test_variational_state_refuses_each_bad_entry(self, value):
        with pytest.raises(ValueError, match="^beta must be a strictly positive, finite 2-d array$"):
            snf.VariationalState(self._with(value))
        rates = np.array([[1.0], [value], [2.0]])
        with pytest.raises(ValueError, match="^b_rate must be a strictly positive, finite K x 1 column"):
            snf.VariationalState(np.ones((3, 4)), rates)

    def test_zeros_in_factors_and_empty_arrays_pass(self):
        assert snf.Factorization(self._with(0.0), np.zeros((4, 2))).W[1, 2] == 0.0
        assert snf.Factorization(np.ones((5, 0)), np.ones((0, 2))).n_topics == 0
        assert snf.Factorization(np.ones((5, 2)), np.ones((2, 0))).n_docs == 0
        assert snf.VariationalState(np.ones((3, 0)), np.ones((3, 1))).n_docs == 0
        assert snf.VariationalState(np.ones((0, 4)), np.ones((0, 1))).n_topics == 0


@st.composite
def shuffled_cells(draw):
    """Every cell of a random count matrix, zeros included, in a random order."""
    n_terms, n_docs = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    counts = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.5, 7.0]), min_size=n_terms * n_docs,
                           max_size=n_terms * n_docs))
    dense = np.array(counts).reshape(n_terms, n_docs)
    order = np.array(draw(st.permutations(range(dense.size))), dtype=np.int64)
    rows, cols = np.unravel_index(order, dense.shape)
    return dense, rows, cols, dense[rows, cols]


@st.composite
def permuted_entries(draw):
    """Distinct ``(term, doc)`` pairs with positive counts in document-major
    order, and a permutation of them.  The term dimension reaches past
    ``2**63 / n_docs``, where the sort key ``cols * n_terms + rows`` no
    longer fits in int64."""
    n_docs = draw(st.integers(1, 8))
    n_terms = draw(st.one_of(st.integers(1, 12), st.integers(1, 2**62)))
    pairs = sorted(draw(st.lists(st.tuples(st.integers(0, n_terms - 1), st.integers(0, n_docs - 1)),
                                 unique=True, max_size=30)), key=lambda pair: pair[::-1])
    rows, cols = (np.array([pair[i] for pair in pairs], dtype=np.int64) for i in (0, 1))
    vals = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=len(pairs), max_size=len(pairs))))
    return n_terms, n_docs, rows, cols, vals, np.array(draw(st.permutations(range(len(pairs)))), dtype=np.int64)


def _lexsort_duplicate(rows, cols) -> int:
    """The duplicate entry that a ``np.lexsort`` into document-major order finds first in input order."""
    order = np.lexsort((rows, cols))
    repeat = (rows[order[1:]] == rows[order[:-1]]) & (cols[order[1:]] == cols[order[:-1]])
    return int(order[1:][repeat].min())


# the largest key, 2**63 - 1, still fits in int64
_KEY_EDGE = (2**61, 4, np.array([0, 2**61 - 1, 5, 2**61 - 1]), np.array([0, 1, 3, 3]), np.ones(4), np.arange(4)[::-1])
# the keys of documents 2 and 3 would wrap to negative int64s and sort first
_PAST_KEY = (2**62, 4, np.array([0, 2**62 - 1, 5, 2**62 - 1]), np.array([0, 1, 2, 3]), np.ones(4), np.arange(4)[::-1])


class TestFromArrays:
    """``TermDocMatrix.from_arrays``, the one check of every entry."""

    @settings(max_examples=150, deadline=None)
    @given(permuted_entries())
    @example(_KEY_EDGE)
    @example(_PAST_KEY)
    def test_any_entry_order_builds_the_matrix_of_the_sorted_entries(self, problem):
        n_terms, n_docs, rows, cols, vals, perm = problem
        X = snf.TermDocMatrix.from_arrays(n_terms, n_docs, rows[perm], cols[perm], vals[perm])
        Y = snf.TermDocMatrix.from_arrays(n_terms, n_docs, rows, cols, vals)
        assert np.array_equal(Y.rows, rows) and np.array_equal(Y.cols, cols)
        for name in ("rows", "cols", "vals", "col_sums", "doc_ptr"):
            assert np.array_equal(getattr(X, name), getattr(Y, name)), name
            assert getattr(X, name).dtype == getattr(Y, name).dtype

    @settings(max_examples=150, deadline=None)
    @given(permuted_entries(), st.data())
    def test_a_duplicate_is_the_one_lexsort_finds(self, problem, data):
        n_terms, n_docs, rows, cols, vals, perm = problem
        assume(rows.size > 0)
        rows, cols, vals = rows[perm], cols[perm], vals[perm]
        copy, at = data.draw(st.integers(0, rows.size - 1)), data.draw(st.integers(0, rows.size))
        rows, cols, vals = (np.insert(a, at, a[copy]) for a in (rows, cols, vals))
        with pytest.raises(EntryError, match="duplicate entry") as info:
            snf.TermDocMatrix.from_arrays(n_terms, n_docs, rows, cols, vals)
        assert (info.value.fault, info.value.entry) == ("duplicate", _lexsort_duplicate(rows, cols))

    def test_a_duplicate_in_a_shape_past_the_int64_key(self):
        # n_terms * n_docs = 2**64 sorts with np.lexsort; 2**32 documents are
        # too many to build, but a duplicate is found before any per-document array
        last = 2**32 - 1
        rows, cols = np.array([last, 0, 7, last, 0, 7]), np.array([last, 0, last, last, 0, 0])
        with pytest.raises(EntryError, match=rf"^duplicate entry \({last}, {last}\)$") as info:
            snf.TermDocMatrix.from_arrays(2**32, 2**32, rows, cols, np.ones(6))
        assert (info.value.fault, info.value.entry) == ("duplicate", _lexsort_duplicate(rows, cols)) == ("duplicate", 3)

    @settings(max_examples=150, deadline=None)
    @given(shuffled_cells())
    def test_shuffled_cells_with_zeros_match_from_dense(self, problem):
        dense, rows, cols, vals = problem
        X = snf.TermDocMatrix.from_arrays(*dense.shape, rows, cols, vals)
        Y = snf.TermDocMatrix.from_dense(dense)
        assert np.array_equal(X.to_dense(), dense) and X.nnz == np.count_nonzero(dense)
        assert np.all(np.diff(X.cols * dense.shape[0] + X.rows) > 0)  # document-major, each pair once
        assert np.array_equal(X.col_sums, dense.sum(axis=0))  # exact: few small half-integer counts
        for name in ("rows", "cols", "vals", "col_sums", "doc_ptr"):
            assert np.array_equal(getattr(X, name), getattr(Y, name)), name
            assert getattr(X, name).dtype == getattr(Y, name).dtype

    @settings(max_examples=150, deadline=None)
    @given(shuffled_cells(), st.data())
    def test_a_planted_duplicate_is_rejected(self, problem, data):
        dense, rows, cols, vals = problem
        copy = data.draw(st.integers(0, rows.size - 1))
        at = data.draw(st.integers(0, rows.size))
        rows, cols, vals = (np.insert(a, at, a[copy]) for a in (rows, cols, vals))
        with pytest.raises(EntryError, match="duplicate entry") as info:
            snf.TermDocMatrix.from_arrays(*dense.shape, rows, cols, vals)
        assert info.value.fault == "duplicate"
        assert info.value.entry == max(at, copy + (at <= copy))

    @pytest.mark.parametrize("rows, cols, vals, fault, entry", [
        ([0, 2, 0], [0, 0, 5], [1.0, 1.0, 1.0], "range", 1),
        ([0, -1], [0, 0], [1.0, 1.0], "range", 1),
        ([0, 1, 1], [0, 0, 1], [1.0, -2.0, np.nan], "negative", 1),
        ([0, 1, 1], [0, 0, 1], [1.0, np.inf, -2.0], "non-finite", 1),
        ([1, 0, 1, 0], [1, 0, 1, 0], [1.0, 0.0, 2.0, 0.0], "duplicate", 2),
        ([0, 0.5], [0, 0], [1.0, 1.0], "index", 1),
        ([0, 1, 1], [0, np.inf, 1.5], [1.0, 1.0, 1.0], "index", 1),
        ([0, 1], [0, np.nan], [1.0, 1.0], "index", 1),
        ([5, 1.9], [0, 0], [-1.0, 1.0], "index", 1),
        (["0", "a"], [0, 0], [1.0, 1.0], "index", 0),
        ([0, 1], [False, True], [1.0, 1.0], "index", 0),
        (np.array([0, None], dtype=object), [0, 0], [1.0, 1.0], "index", 0),
        (np.array([0, 1], dtype=object), [0, 1], [1.0, 1.0], "index", 0),
    ])
    def test_first_fault_in_input_order(self, rows, cols, vals, fault, entry):
        with pytest.raises(EntryError) as info:
            snf.TermDocMatrix.from_arrays(2, 2, rows, cols, vals)
        assert (info.value.fault, info.value.entry) == (fault, entry)

    @pytest.mark.parametrize("index", ["a", True, None])
    def test_non_numeric_or_bool_index_from_entries(self, index):
        with pytest.raises(EntryError, match=r"index not a finite whole number") as info:
            snf.TermDocMatrix.from_entries(2, 2, [(index, 0, 1.0)])
        assert (info.value.fault, info.value.entry) == ("index", 0)

    def test_range_is_checked_before_values(self):
        with pytest.raises(EntryError, match=r"out of range: \(0, 2\) outside 2 x 2"):
            snf.TermDocMatrix.from_arrays(2, 2, [0, 0], [0, 2], [-1.0, 1.0])

    def test_non_integral_index_is_not_truncated(self):
        with pytest.raises(EntryError, match=r"index not a finite whole number: \(0\.5, 0\)") as info:
            snf.TermDocMatrix.from_arrays(2, 2, [0.5], [0], [1.0])
        assert (info.value.fault, info.value.entry) == ("index", 0)
        with pytest.raises(EntryError, match=r"index not a finite whole number: \(1\.9, 0\)") as info:
            snf.TermDocMatrix.from_entries(2, 2, [(1, 1, 1.0), (1.9, 0, 1.0)])
        assert (info.value.fault, info.value.entry) == ("index", 1)

    @pytest.mark.parametrize("n_terms", [2.5, float("inf"), float("nan"), True, "3", None, [3]])
    def test_dimension_not_a_whole_number(self, n_terms):
        with pytest.raises(DataError, match="matrix dimensions must be finite whole numbers"):
            snf.TermDocMatrix.from_arrays(n_terms, 1, [2], [0], [1.0])
        with pytest.raises(DataError, match="matrix dimensions must be finite whole numbers"):
            snf.TermDocMatrix.from_arrays(3, n_terms, [0], [0], [1.0])

    def test_whole_float_dimensions_are_integers(self):
        X = snf.TermDocMatrix.from_arrays(3.0, np.float64(2.0), [2], [1], [1.0])
        assert (X.n_terms, X.n_docs) == (3, 2) and type(X.n_terms) is int and type(X.n_docs) is int
        with pytest.raises(EntryError, match=r"\(3, 0\) outside 3 x 2"):
            snf.TermDocMatrix.from_arrays(3.0, 2.0, [3], [0], [1.0])
        with pytest.raises(DataError, match="must be positive"):
            snf.TermDocMatrix.from_arrays(0.0, 2, [], [], [])

    def test_whole_float_indices_are_accepted(self):
        X = snf.TermDocMatrix.from_arrays(2, 2, [1.0, 0.0], [0.0, 1.0], [2.0, 3.0])
        Y = snf.TermDocMatrix.from_entries(2, 2, [(1, 0, 2.0), (0, 1, 3.0)])
        for name in ("rows", "cols", "vals", "doc_ptr"):
            assert np.array_equal(getattr(X, name), getattr(Y, name)) and getattr(X, name).dtype == getattr(Y, name).dtype

    @pytest.mark.parametrize("rows, cols, vals", [([0], [0, 1], [1.0, 1.0]), ([[0]], [[0]], [[1.0]])])
    def test_misshapen_arrays(self, rows, cols, vals):
        with pytest.raises(DataError, match="1-d arrays of equal length"):
            snf.TermDocMatrix.from_arrays(2, 2, rows, cols, vals)

    def test_caller_arrays_stay_writable(self):
        rows, cols, vals = np.array([1, 0]), np.array([0, 0]), np.array([2.0, 3.0])
        X = snf.TermDocMatrix.from_arrays(2, 1, rows, cols, vals)
        assert rows.flags.writeable and vals.flags.writeable
        assert not X.rows.flags.writeable and np.array_equal(X.rows, [0, 1])
