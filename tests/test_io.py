"""Matrix interchange, corpus ingestion, and model persistence."""

import json
import re

import numpy as np
import pytest

import simplexnmf as snf
from simplexnmf.errors import DataError
from simplexnmf.io import ModelFile, save_trace_csv

from helpers import random_count_matrix


class TestMatrixMarket:
    def test_small_round_trip(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 1.0\n"
            "2 2 1.0\n"
        )
        X = snf.load_matrix_market(path)
        assert np.array_equal(X.to_dense(), np.eye(2))

    def test_zero_entries_dropped(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 0.0\n2 1 3.5\n"
        )
        assert snf.load_matrix_market(path).nnz == 1

    def test_negative_count(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n2 1 -1\n"
        )
        with pytest.raises(DataError, match="negative count at line 3"):
            snf.load_matrix_market(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n1 1 1\n1 1 1.0\n")
        with pytest.raises(DataError, match="header"):
            snf.load_matrix_market(path)

    def test_duplicate_coordinates(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 1 2.0\n"
        )
        with pytest.raises(DataError, match=r"duplicate entry \(1, 1\)"):
            snf.load_matrix_market(path)

    def test_index_overflow(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        )
        with pytest.raises(DataError, match="index overflow"):
            snf.load_matrix_market(path)

    def test_save_load_save_bit_identical(self, tmp_path):
        X = random_count_matrix(0, n_terms=9, n_docs=7)
        first = tmp_path / "a.mtx"
        second = tmp_path / "b.mtx"
        snf.save_matrix_market(first, X)
        snf.save_matrix_market(second, snf.load_matrix_market(first))
        assert first.read_bytes() == second.read_bytes()

    def test_fractional_values_survive(self, tmp_path):
        X = snf.TermDocMatrix.from_entries(2, 2, [(0, 0, 0.1), (1, 1, 1 / 3)])
        path = tmp_path / "m.mtx"
        snf.save_matrix_market(path, X)
        again = snf.load_matrix_market(path)
        assert np.array_equal(again.vals, X.vals)


class TestIngest:
    def _write(self, tmp_path, docs):
        for name, text in docs.items():
            (tmp_path / name).write_text(text, encoding="utf-8")

    def test_hand_tokenization(self, tmp_path):
        self._write(tmp_path, {"d0.txt": "a b a", "d1.txt": "b c"})
        X, vocab = snf.ingest_corpus(tmp_path, min_count=1)
        assert vocab.terms == ("a", "b", "c")
        dense = X.to_dense()
        assert np.array_equal(dense, [[2.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

    def test_min_count_filters_vocabulary(self, tmp_path):
        self._write(tmp_path, {"d0.txt": "a b a", "d1.txt": "b c"})
        _, vocab = snf.ingest_corpus(tmp_path, min_count=2)
        assert vocab.terms == ("a", "b")

    def test_lowercases_and_splits_punctuation(self, tmp_path):
        self._write(tmp_path, {"d0.txt": "The CAT, the cat!", "d1.txt": "dog-house dog"})
        X, vocab = snf.ingest_corpus(tmp_path, min_count=1)
        assert vocab.terms == ("cat", "dog", "house", "the")
        assert X.to_dense()[vocab.index["the"], 0] == 2.0

    def test_empty_directory(self, tmp_path):
        with pytest.raises(DataError, match="empty corpus"):
            snf.ingest_corpus(tmp_path)

    def test_empty_documents_listed(self, tmp_path):
        self._write(tmp_path, {"ok.txt": "word word", "bad.txt": "...", "worse.txt": "!!"})
        with pytest.raises(DataError, match="bad.txt, worse.txt"):
            snf.ingest_corpus(tmp_path, min_count=1)

    def test_vocabulary_round_trip(self, tmp_path):
        vocab = snf.Vocabulary(("alpha", "beta", "gamma"), min_count=2)
        path = tmp_path / "v.txt"
        snf.save_vocabulary(path, vocab)
        again = snf.load_vocabulary(path, min_count=2)
        assert again.terms == vocab.terms
        assert again.index == vocab.index


def _mu_model():
    rng = np.random.default_rng(0)
    W = rng.dirichlet(np.ones(4), size=2).T
    H = rng.gamma(1.0, 1.0, size=(2, 3))
    return ModelFile(
        method="mu-joint",
        n_terms=4,
        n_docs=3,
        n_topics=2,
        constraint_mode="w-simplex",
        W=W,
        H=H,
        final_objective=1.25,
    )


class TestModelFiles:
    def test_round_trip_value_identical(self, tmp_path):
        model = _mu_model()
        path = tmp_path / "m.json"
        snf.save_model(path, model)
        again = snf.load_model(path)
        assert np.array_equal(np.asarray(again.W), np.asarray(model.W))
        assert np.array_equal(np.asarray(again.H), np.asarray(model.H))
        assert again.final_objective == model.final_objective
        assert again.method == model.method

    def test_round_trip_with_trace_and_priors(self, tmp_path):
        rng = np.random.default_rng(1)
        trace = snf.FitTrace([1.0, 0.5], [1, 1], [0.001, 0.002])
        model = ModelFile(
            method="gap",
            n_terms=4,
            n_docs=3,
            n_topics=2,
            constraint_mode="w-simplex",
            W=rng.dirichlet(np.ones(4), size=2).T,
            beta=rng.uniform(1.0, 3.0, size=(2, 3)),
            b_rate=np.full((2, 3), 1.5),
            alpha=np.array([0.5, 0.5]),
            rate_a=np.array([0.5, 0.5]),
            final_objective=-10.0,
            trace=trace,
        )
        path = tmp_path / "m.json"
        snf.save_model(path, model)
        again = snf.load_model(path)
        assert np.array_equal(np.asarray(again.beta), np.asarray(model.beta))
        assert again.trace.objectives == trace.objectives
        assert again.trace.recon_evals == trace.recon_evals

    def test_save_is_byte_deterministic(self, tmp_path):
        model = _mu_model()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        snf.save_model(a, model)
        snf.save_model(b, model)
        assert a.read_bytes() == b.read_bytes()

    def test_dimension_mismatch_message(self, tmp_path):
        model = _mu_model()
        path = tmp_path / "m.json"
        snf.save_model(path, model)
        text = path.read_text().replace('"n_topics": 2', '"n_topics": 4')
        path.write_text(text)
        with pytest.raises(DataError, match="dimension mismatch: W has 2 columns, K=4"):
            snf.load_model(path)

    def test_unsupported_version(self, tmp_path):
        model = _mu_model()
        path = tmp_path / "m.json"
        snf.save_model(path, model)
        path.write_text(path.read_text().replace('"format_version": 1', '"format_version": 2'))
        with pytest.raises(DataError, match="unsupported format_version"):
            snf.load_model(path)

    def test_schema_violation_field_path(self, tmp_path):
        model = _mu_model()
        path = tmp_path / "m.json"
        snf.save_model(path, model)
        doc = path.read_text().replace('"final_objective": 1.25', '"final_objective": 1.25, "X": 1')
        path.write_text(doc)
        snf.load_model(path)  # unknown extra keys are ignored
        bad = doc.replace('"method": "mu-joint"', '"method": 7')
        path.write_text(bad)
        with pytest.raises(DataError, match="schema violation at method"):
            snf.load_model(path)

    def test_missing_factor_for_method(self, tmp_path):
        model = _mu_model()
        model.H = None
        with pytest.raises(DataError, match="schema violation at H"):
            snf.save_model(tmp_path / "m.json", model)

    @pytest.mark.parametrize("objective, final", [(float("nan"), 1.0), (1.0, float("nan")), (1.0, float("inf"))])
    def test_save_rejects_non_finite_scalars(self, tmp_path, objective, final):
        model = _mu_model()
        model.trace = snf.FitTrace([2.0, objective], [1, 1], [0.001, 0.002])
        model.final_objective = final
        with pytest.raises(DataError, match="non-finite value cannot be serialized"):
            snf.save_model(tmp_path / "m.json", model)

    def test_seventeen_digit_text_loads_to_the_same_arrays(self, tmp_path):
        model = _gap_model()
        model.trace = snf.FitTrace([-3.0, 1 / 3], [1, 1], [0.001, 0.0123])
        path = tmp_path / "m.json"
        snf.save_model(path, model)
        # every number as the 17-significant-digit text of format_version 1's first writer
        old = re.sub(r"-?\d[\d.e+-]*", lambda m: format(float(m[0]), ".17g"), path.read_text())
        assert "0.33333333333333331" in old
        path.write_text(old)
        again = snf.load_model(path)
        for name in ("W", "beta", "b_rate", "alpha", "rate_a"):
            assert np.array_equal(getattr(again, name), getattr(model, name))
        assert again.trace.objectives == model.trace.objectives
        assert again.trace.seconds == model.trace.seconds

    def test_save_load_save_is_exact_and_byte_identical(self, tmp_path):
        model = _gap_model()
        extremes = [5e-324, 1.7976931348623157e308, 0.1, 1 / 3]
        model.beta.flat[: len(extremes)] = extremes
        model.b_rate = np.full((2, 3), 2.0)
        model.final_objective = 1 / 3
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        snf.save_model(first, model)
        again = snf.load_model(first)
        snf.save_model(second, again)
        assert first.read_bytes() == second.read_bytes()
        assert np.array_equal(again.beta, model.beta)
        assert np.array_equal(again.b_rate, model.b_rate)
        assert again.final_objective == 1 / 3
        text = first.read_text()
        assert '"b_rate": [\n    [2, 2, 2],\n    [2, 2, 2]\n  ],' in text
        assert "[5e-324, 1.7976931348623157e+308, 0.1]" in text

    def test_trace_csv_columns(self, tmp_path):
        trace = snf.FitTrace([2.0, 1.0], [2, 2], [0.01, 0.02])
        path = tmp_path / "t.csv"
        save_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,objective,recon_evals,millis"
        assert lines[1].startswith("1,2,2,")
        assert len(lines) == 3


class TestNonFiniteAndInconsistentInput:
    @pytest.mark.parametrize(
        "value, kind", [("nan", "non-finite"), ("inf", "non-finite"), ("-inf", "negative")]
    )
    def test_matrix_market_counts(self, tmp_path, value, kind):
        path = tmp_path / "m.mtx"
        path.write_text(
            f"%%MatrixMarket matrix coordinate real general\n3 2 2\n1 1 1.0\n2 1 {value}\n"
        )
        with pytest.raises(DataError, match=f"{kind} count at line 4"):
            snf.load_matrix_market(path)

    def test_constraint_mode_must_match_method(self, tmp_path):
        model = _mu_model()
        model.method = "plsa"
        model.constraint_mode = "unconstrained"
        with pytest.raises(DataError, match="schema violation at constraint_mode"):
            model.validate()

    @pytest.mark.parametrize("field, bad", [("W", "NaN"), ("H", "-1.0")])
    def test_load_rejects_bad_factor_values(self, tmp_path, field, bad):
        path = tmp_path / "m.json"
        snf.save_model(path, _mu_model())
        path.write_text(_with_first_entry(path.read_text(), field, bad))
        with pytest.raises(DataError, match=f"schema violation at {field}"):
            snf.load_model(path)

    @pytest.mark.parametrize("field", ["beta", "b_rate", "alpha", "rate_a"])
    def test_variational_parameters_must_be_positive(self, field):
        model = _gap_model()
        value = np.array(getattr(model, field), dtype=float)
        value.flat[0] = 0.0
        setattr(model, field, value)
        with pytest.raises(DataError, match=f"schema violation at {field}"):
            model.validate()
        value.flat[0] = np.inf
        with pytest.raises(DataError, match=f"schema violation at {field}"):
            model.validate()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text: text.replace('"constraint_mode": "w-simplex"', '"constraint_mode": "unconstrained"'),
            lambda text: _with_first_entry(text, "W", "NaN"),
            lambda text: _with_first_entry(text, "H", "-1.0"),
        ],
    )
    def test_eval_of_a_bad_model_is_a_data_error(self, tmp_path, capsys, corrupt):
        from simplexnmf.cli import main

        matrix = tmp_path / "m.mtx"
        snf.save_matrix_market(matrix, random_count_matrix(4, n_terms=4, n_docs=3))
        path = tmp_path / "model.json"
        snf.save_model(path, _mu_model())
        path.write_text(corrupt(path.read_text()))
        assert main(["eval", "--model", str(path), "--input", str(matrix)]) == 2
        assert "schema violation" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("trace", {"objectives": 5}, "trace.objectives"),
            ("trace", {"objectives": [None]}, "trace.objectives"),
            ("trace", {"objectives": ["abc"]}, "trace.objectives"),
            ("trace", {"recon_evals": [1.5, 1]}, "trace.recon_evals"),
            ("trace", {"millis": "12"}, "trace.millis"),
            ("lambda_sparsity", None, "lambda_sparsity"),
            ("lambda_sparsity", "x", "lambda_sparsity"),
            pytest.param("lambda_sparsity", 10**400, "lambda_sparsity", id="lambda_sparsity-beyond-float"),
            ("final_objective", [1], "final_objective"),
            ("final_objective", float("nan"), "final_objective"),
            ("n_terms", True, "n_terms"),
        ],
    )
    def test_eval_of_a_malformed_field_is_a_data_error(self, tmp_path, capsys, key, value, field):
        from simplexnmf.cli import main

        matrix = tmp_path / "m.mtx"
        snf.save_matrix_market(matrix, random_count_matrix(4, n_terms=4, n_docs=3))
        path = tmp_path / "model.json"
        snf.save_model(path, _mu_model())
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))  # NaN is written as the bare token NaN
        assert main(["eval", "--model", str(path), "--input", str(matrix)]) == 2
        err = capsys.readouterr().err
        assert f"schema violation at {field}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 100000], ids=["not-utf8", "nested-100000-deep"])
    def test_unreadable_model_text_is_a_data_error(self, tmp_path, data):
        path = tmp_path / "m.json"
        path.write_bytes(data)
        with pytest.raises(DataError, match="invalid JSON"):
            snf.load_model(path)

def _with_first_entry(text, field, value):
    """A saved model's text with the first entry of matrix ``field`` replaced."""
    row = text.index("[", text.index(f'"{field}": [') + len(f'"{field}": ['))
    return text[: row + 1] + value + text[text.index(",", row):]


def _gap_model():
    rng = np.random.default_rng(1)
    return ModelFile(
        method="gap",
        n_terms=4,
        n_docs=3,
        n_topics=2,
        constraint_mode="w-simplex",
        W=rng.dirichlet(np.ones(4), size=2).T,
        beta=rng.uniform(1.0, 3.0, size=(2, 3)),
        b_rate=np.full((2, 3), 1.5),
        alpha=np.array([0.5, 0.5]),
        rate_a=np.array([0.5, 0.5]),
    )
