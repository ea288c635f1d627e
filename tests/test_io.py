"""Matrix interchange, corpus ingestion, and model persistence."""

import base64
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import simplexnmf as snf
from simplexnmf import io as snf_io
from simplexnmf.cli import main
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


def test_matrix_market_text_is_pinned(tmp_path):
    X = snf.TermDocMatrix.from_entries(3, 2, [(2, 1, 5e-324), (0, 0, 2.0), (1, 0, 0.1 + 0.2), (0, 1, 1 / 3)])
    path = tmp_path / "m.mtx"
    snf.save_matrix_market(path, X)
    assert path.read_bytes() == (
        b"%%MatrixMarket matrix coordinate real general\n3 2 4\n"
        b"1 1 2\n2 1 0.30000000000000004\n1 2 0.33333333333333331\n3 2 4.9406564584124654e-324\n"
    )


def test_matrix_market_writer_holds_one_run_of_lines(tmp_path, monkeypatch):
    """The writer's peak memory is that of one run of entry lines, not of the whole file."""
    run = 2048
    monkeypatch.setattr(snf_io, "_MM_RUN", run, raising=False)
    rng = np.random.default_rng(5)
    peaks = []
    for n_runs in (1, 16):
        cells = rng.choice(500 * 400, size=n_runs * run, replace=False)
        X = snf.TermDocMatrix.from_arrays(500, 400, cells % 500, cells // 500, rng.random(cells.size) + 0.5)
        tracemalloc.start()
        try:
            snf.save_matrix_market(tmp_path / "m.mtx", X)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert snf.load_matrix_market(tmp_path / "m.mtx").nnz == X.nnz
    assert peaks[1] < 2 * peaks[0], f"16 runs peaked at {peaks[1] / peaks[0]:.1f} x one run"


def test_matrix_market_body_round_trip_and_fault_line(tmp_path):
    X = random_count_matrix(0, n_terms=9, n_docs=7)
    path = tmp_path / "m.mtx"
    snf.save_matrix_market(path, X)
    assert X.nnz > 8
    again = snf.load_matrix_market(path)
    for name in ("rows", "cols", "vals"):
        assert np.array_equal(getattr(again, name), getattr(X, name))
    lines = path.read_text().splitlines()
    lines[2 + 7] = "1 1"  # the 8th entry
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="malformed entry at line 10"):
        snf.load_matrix_market(path)


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

    def test_documents_in_code_point_order_of_names(self, tmp_path):
        self._write(tmp_path, {"a.txt": "ay", "B.txt": "bee", "2.txt": "two", "10.txt": "ten"})
        X, vocab = snf.ingest_corpus(tmp_path)
        order = ["ten", "two", "bee", "ay"]  # "10.txt", "2.txt", "B.txt", "a.txt"
        assert [vocab.terms[t] for t in X.to_dense().argmax(axis=0)] == order

    def test_subdirectory_and_broken_symlinks_skipped(self, tmp_path):
        corpus = tmp_path / "corpus"
        (corpus / "sub").mkdir(parents=True)
        (corpus / "sub" / "nested.txt").write_text("nested", encoding="utf-8")
        (corpus / "plain.txt").write_text("plain", encoding="utf-8")
        (tmp_path / "outside.txt").write_text("linked", encoding="utf-8")
        (corpus / "link.txt").symlink_to(tmp_path / "outside.txt")
        (corpus / "broken.txt").symlink_to(tmp_path / "missing.txt")
        (corpus / "loop1.txt").symlink_to(corpus / "loop2.txt")
        (corpus / "loop2.txt").symlink_to(corpus / "loop1.txt")
        X, vocab = snf.ingest_corpus(corpus)
        assert vocab.terms == ("linked", "plain")
        assert np.array_equal(X.to_dense(), np.eye(2))

    def test_line_endings_give_the_same_matrix(self, tmp_path):
        lines = ["The cat sat", "on the mat", "", "cat and dog"]
        results = []
        for label, newline in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
            corpus = tmp_path / label
            corpus.mkdir()
            (corpus / "a.txt").write_bytes(newline.join(lines).encode("utf-8"))
            (corpus / "b.txt").write_bytes(("dog" + newline + "food" + newline).encode("utf-8"))
            results.append(snf.ingest_corpus(corpus))
        (X, vocab), *others = results
        assert vocab.terms == ("and", "cat", "dog", "food", "mat", "on", "sat", "the")
        for Y, other in others:
            assert other.terms == vocab.terms
            for name in ("rows", "cols", "vals", "col_sums", "doc_ptr"):
                assert np.array_equal(getattr(Y, name), getattr(X, name))

    def _bad_corpus(self, corpus):
        corpus.mkdir(exist_ok=True)
        self._write(corpus, {"good.txt": "word"})
        (corpus / "bad.txt").write_bytes("café".encode("latin-1"))
        return corpus

    def test_non_utf8_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="unreadable file .*bad.txt"):
            snf.ingest_corpus(self._bad_corpus(tmp_path))

    def test_non_utf8_file_exits_2_from_ingest(self, tmp_path, capsys):
        corpus = self._bad_corpus(tmp_path / "corpus")
        rc = main([
            "ingest", "--corpus", str(corpus),
            "--out-matrix", str(tmp_path / "m.mtx"), "--out-vocab", str(tmp_path / "v.txt"),
        ])
        assert rc == 2
        assert "unreadable file" in capsys.readouterr().err

    def test_vocabulary_round_trip(self, tmp_path):
        vocab = snf.Vocabulary(("alpha", "beta", "gamma"))
        path = tmp_path / "v.txt"
        snf.save_vocabulary(path, vocab)
        again = snf.load_vocabulary(path)
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


_MU_W, _MU_H = _mu_model().W, _mu_model().H  # the factors the malformed version 2 fields encode

# format_version 1 files written by the version 1 writer: each method fitted for
# 3 iterations (K=2) on counts.mtx, with a trace (which loading ignores) whose
# timings were set by hand
V1 = Path(__file__).parent / "data" / "v1"

# the arrays those files hold, as the shortest round-trip text of each float
V1_ARRAYS = {
    "mu": {
        "W": [[0.22439082048870027, 0.00028694881264273005], [0.09898274178761313, 2.080211750188289],
              [0.09515423686065731, 1.3428607545550328], [0.3726574773041031, 0.01426610490649745]],
        "H": [[8.8442095264779, 0.2530906056808652, 3.9384490916814174],
              [0.000753904358321814, 1.1053438993161473, 0.2571417542765497]],
        "final_objective": 3.0560764761406887,
    },
    "mu-joint": {
        "W": [[0.27152225288168624, 0.0012827582463025718], [0.24099482077916878, 0.33799325664319463],
              [0.05539014916878179, 0.6017836341806773], [0.4320927771703632, 0.05894035092982546]],
        "H": [[6.928762864775911, 1.8852239903663777, 2.216076053786706],
              [0.0712371352240888, 2.1147760096336223, 1.783923946213294]],
        "final_objective": 4.72692575651816,
    },
    "plsa": {
        "W": [[0.27152225288168624, 0.0012827582463025722], [0.24099482077916884, 0.3379932566431946],
              [0.05539014916878179, 0.6017836341806773], [0.4320927771703632, 0.05894035092982546]],
        "H": [[0.9898232663965587, 0.47130599759159447, 0.5540190134466765],
              [0.010176733603441257, 0.5286940024084056, 0.4459809865533235]],
        "final_objective": 17.438651688864475,
    },
    "sparse": {
        "W": [[0.2715222528816863, 0.0012827582463025716], [0.24099482077916878, 0.3379932566431946],
              [0.0553901491687818, 0.6017836341806774], [0.43209277717036315, 0.05894035092982547]],
        "H": [[5.543010291820729, 1.5081791922931023, 1.7728608430293646],
              [0.056989708179271036, 1.6918208077068975, 1.4271391569706349]],
        "lambda_sparsity": 0.25,
        "final_objective": 8.074079026231306,
    },
    "lda": {
        "W": [[0.38390584272222184, 0.1422878653576889], [0.5956683499789739, 0.16342149966266822],
              [0.016764631448133734, 0.25750173080184036], [0.0036611758506705713, 0.4367889041778025]],
        "beta": [[1.9794571500325728, 2.238669044417148, 0.8647281489114858],
                 [7.020542849967428, 3.7613309555828525, 5.135271851088515]],
        "alpha": [0.5, 1.5],
        "final_objective": -21.91027673049875,
    },
    "gap": {
        "W": [[0.3798620080728602, 0.09449896392905832], [0.5781618087957452, 0.08395403837014204],
              [0.03516898031745097, 0.2966843611914656], [0.006807202813943642, 0.5248626365093342]],
        "beta": [[2.7447810767487995, 3.1304239148853994, 1.170416887373562],
                 [6.2552189232512, 2.869576085114601, 4.8295831126264375]],
        "b_rate": [[2.0, 2.0, 2.0], [3.0, 3.0, 3.0]],
        "alpha": [0.5, 1.5],
        "rate_a": [1.0, 2.0],
        "final_objective": -19.00192025292283,
    },
}

_ARRAY_FIELDS = ("W", "H", "beta", "b_rate", "alpha", "rate_a")


def _matrix_object(M, **changes) -> dict:
    """The format_version 2 form of matrix ``M``, with ``changes`` to its keys."""
    M = np.asarray(M, dtype="<f8")
    value = {"dtype": "<f8", "shape": list(M.shape), "data": base64.b64encode(M.tobytes()).decode("ascii")}
    return {**value, **changes}


class TestVersion1Files:
    @pytest.mark.parametrize("method", snf.METHODS)
    def test_fixture_loads_the_pinned_arrays(self, tmp_path, method):
        pinned = V1_ARRAYS[method]
        path = V1 / f"{method}.json"
        assert '"format_version": 1,' in path.read_text()
        model = snf.load_model(path)
        assert model.method == method and model.format_version == 1
        for name in _ARRAY_FIELDS:
            loaded = getattr(model, name)
            if name not in pinned:
                assert loaded is None, name
                continue
            assert np.array_equal(loaded, pinned[name]), name
            assert loaded.dtype == np.float64 and loaded.flags.writeable, name
        assert model.lambda_sparsity == pinned.get("lambda_sparsity", 0.0)
        assert model.final_objective == pinned["final_objective"]
        # saved again it is a version 2 file with the same values, and saves repeat byte for byte
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        snf.save_model(first, model)
        snf.save_model(second, snf.load_model(first))
        assert first.read_bytes() == second.read_bytes()
        assert '"format_version": 2,' in first.read_text()
        again = snf.load_model(first)
        for name in pinned.keys() & set(_ARRAY_FIELDS):
            assert np.array_equal(getattr(again, name), pinned[name]), name

    def test_cli_reads_a_version_1_file(self, capsys):
        from simplexnmf.cli import main

        assert main(["eval", "--model", str(V1 / "gap.json"), "--input", str(V1 / "counts.mtx")]) == 0
        assert main(["topics", "--model", str(V1 / "gap.json"), "--vocab", str(V1 / "vocab.txt"), "--top", "2"]) == 0
        assert "topic 1:" in capsys.readouterr().out


# format_version 2 files that the earlier writer (json.dumps of the whole base64
# string) made from the version 1 fixtures; the current writer must repeat their bytes
V2 = Path(__file__).parent / "data" / "v2"
GOLDEN_METHODS = ("mu-joint", "plsa", "lda", "gap")


class TestGoldenBytes:
    @pytest.mark.parametrize("method", GOLDEN_METHODS)
    def test_a_version_1_fixture_saves_as_the_golden_file(self, tmp_path, method):
        path = tmp_path / "m.json"
        snf.save_model(path, snf.load_model(V1 / f"{method}.json"))
        assert path.read_bytes() == (V2 / f"{method}.json").read_bytes()

    @pytest.mark.parametrize("method", GOLDEN_METHODS)
    def test_a_golden_file_saves_as_itself(self, tmp_path, method):
        path = tmp_path / "m.json"
        snf.save_model(path, snf.load_model(V2 / f"{method}.json"))
        assert path.read_bytes() == (V2 / f"{method}.json").read_bytes()

    def test_the_counts_fixture_saves_as_itself(self, tmp_path):
        path = tmp_path / "counts.mtx"
        snf.save_matrix_market(path, snf.load_matrix_market(V1 / "counts.mtx"))
        assert path.read_bytes() == (V1 / "counts.mtx").read_bytes()


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

    def test_round_trip_with_priors(self, tmp_path):
        rng = np.random.default_rng(1)
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
        )
        path = tmp_path / "m.json"
        snf.save_model(path, model)
        again = snf.load_model(path)
        assert np.array_equal(np.asarray(again.beta), np.asarray(model.beta))

    @pytest.mark.parametrize("trace", [{"objectives": [2.0, 1.0], "recon_evals": [1, 1], "millis": [1, 2.5]},
                                       {"objectives": 5}, "not a trace"])
    def test_a_trace_key_is_ignored(self, tmp_path, trace):
        # files of earlier writers carry the fit's trace, with wall-clock millis; it is neither read nor written
        path = tmp_path / "m.json"
        snf.save_model(path, _mu_model())
        assert '"trace"' not in path.read_text()
        doc = json.loads(path.read_text())
        doc["trace"] = trace
        path.write_text(json.dumps(doc))
        again = snf.load_model(path)
        assert np.array_equal(again.W, _MU_W) and np.array_equal(again.H, _MU_H)
        assert not hasattr(again, "trace")

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
        path = tmp_path / "m.json"
        path.write_text((V1 / "mu-joint.json").read_text().replace('"format_version": 1', '"format_version": 3'))
        with pytest.raises(DataError, match="unsupported format_version: 3"):
            snf.load_model(path)

    def test_unsupported_version_of_a_version_2_file(self, tmp_path):
        path = tmp_path / "m.json"
        snf.save_model(path, _mu_model())
        text = path.read_text()
        assert '"format_version": 2,' in text
        path.write_text(text.replace('"format_version": 2', '"format_version": 3'))
        with pytest.raises(DataError, match="unsupported format_version: 3"):
            snf.load_model(path)
        model = _mu_model()
        model.format_version = 3
        with pytest.raises(DataError, match="unsupported format_version: 3"):
            model.validate()

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

    @pytest.mark.parametrize("final", [float("nan"), float("inf")])
    def test_save_rejects_non_finite_scalars(self, tmp_path, final):
        model = _mu_model()
        model.final_objective = final
        with pytest.raises(DataError, match="non-finite value cannot be serialized"):
            snf.save_model(tmp_path / "m.json", model)
        assert not (tmp_path / "m.json").exists()

    def test_seventeen_digit_text_loads_to_the_same_arrays(self, tmp_path):
        pinned = V1_ARRAYS["gap"]
        path = tmp_path / "m.json"
        # every number as the 17-significant-digit text of format_version 1's first writer
        old = re.sub(r"-?\d[\d.e+-]*", lambda m: format(float(m[0]), ".17g"), (V1 / "gap.json").read_text())
        assert "-19.001920252922829" in old and '"format_version": 1,' in old
        path.write_text(old)
        again = snf.load_model(path)
        for name in ("W", "beta", "b_rate", "alpha", "rate_a"):
            assert np.array_equal(getattr(again, name), pinned[name])

    def test_seventeen_digit_text_of_a_version_2_file_loads_to_the_same_arrays(self, tmp_path):
        model = _gap_model()
        model.final_objective = 1 / 3
        path = tmp_path / "m.json"
        snf.save_model(path, model)
        # the numbers outside the matrices' base64 as 17-significant-digit text
        lines = path.read_text().splitlines(keepends=True)
        old = "".join(
            line if '"data": "' in line else re.sub(r"-?\d[\d.e+-]*", lambda m: format(float(m[0]), ".17g"), line)
            for line in lines
        )
        assert old.count("0.33333333333333331") == 1 and '"format_version": 2,' in old
        path.write_text(old)
        again = snf.load_model(path)
        for name in ("W", "beta", "b_rate", "alpha", "rate_a"):
            assert np.array_equal(getattr(again, name), getattr(model, name))
        assert again.final_objective == 1 / 3

    def test_save_load_save_is_exact_and_byte_identical(self, tmp_path):
        # the extremes written into a version 1 file's text load exactly and survive re-saving
        text = (V1 / "gap.json").read_text()
        row = '[2.7447810767487995, 3.1304239148853994, 1.170416887373562]'
        assert '"b_rate": [\n    [2, 2, 2],\n    [3, 3, 3]\n  ],' in text and row in text
        v1 = tmp_path / "v1.json"
        v1.write_text(text.replace(row, "[5e-324, 1.7976931348623157e+308, 0.1]"))
        extremes = [5e-324, 1.7976931348623157e308, 0.1]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        loaded = snf.load_model(v1)
        assert np.array_equal(loaded.beta[0], extremes)
        snf.save_model(first, loaded)
        again = snf.load_model(first)
        snf.save_model(second, again)
        assert first.read_bytes() == second.read_bytes()
        assert np.array_equal(again.beta[0], extremes)
        assert np.array_equal(again.beta[1], V1_ARRAYS["gap"]["beta"][1])
        assert np.array_equal(again.b_rate, V1_ARRAYS["gap"]["b_rate"])

    def test_version_2_save_load_save_is_exact_and_byte_identical(self, tmp_path):
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
        for name in ("W", "beta", "b_rate", "alpha", "rate_a"):
            value = getattr(again, name)
            assert value.dtype == np.float64 and value.flags.writeable, name
        again.beta[0, 0] = 1.0  # writable arrays, not views of the file's bytes
        # the layout: one top-level key per line, matrices as base64 objects, vectors as numbers
        assert first.read_text() == "{\n" + ",\n".join([
            '  "format_version": 2',
            '  "method": "gap"',
            '  "n_terms": 4',
            '  "n_docs": 3',
            '  "n_topics": 2',
            '  "constraint_mode": "w-simplex"',
            '  "lambda_sparsity": 0.0',
            '  "final_objective": 0.3333333333333333',
            '  "W": ' + json.dumps(_matrix_object(model.W)),
            '  "beta": ' + json.dumps(_matrix_object(model.beta)),
            # six little-endian 2.0s: bytes 00 00 00 00 00 00 00 40
            '  "b_rate": {"dtype": "<f8", "shape": [2, 3], "data": '
            '"AAAAAAAAAEAAAAAAAAAAQAAAAAAAAABAAAAAAAAAAEAAAAAAAAAAQAAAAAAAAABA"}',
            '  "alpha": [0.5, 0.5]',
            '  "rate_a": [0.5, 0.5]',
        ]) + "\n}\n"

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
        path.write_text(_with_first_entry((V1 / "mu-joint.json").read_text(), field, bad))
        with pytest.raises(DataError, match=f"schema violation at {field}"):
            snf.load_model(path)

    @pytest.mark.parametrize("field, bad", [("W", np.nan), ("W", np.inf), ("H", -1.0)])
    def test_load_rejects_bad_factor_values_in_a_version_2_file(self, tmp_path, field, bad):
        path = tmp_path / "m.json"
        snf.save_model(path, _mu_model())
        path.write_text(_with_first_value(path.read_text(), field, bad))
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

        path = tmp_path / "model.json"
        path.write_text(corrupt((V1 / "mu-joint.json").read_text()))
        assert main(["eval", "--model", str(path), "--input", str(V1 / "counts.mtx")]) == 2
        assert "schema violation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text: text.replace('"constraint_mode": "w-simplex"', '"constraint_mode": "unconstrained"'),
            lambda text: _with_first_value(text, "W", np.nan),
            lambda text: _with_first_value(text, "H", -1.0),
        ],
        ids=["constraint_mode", "W-nan", "H-negative"],
    )
    def test_eval_of_a_bad_version_2_model_is_a_data_error(self, tmp_path, capsys, corrupt):
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
            ("lambda_sparsity", None, "lambda_sparsity"),
            ("lambda_sparsity", "x", "lambda_sparsity"),
            pytest.param("lambda_sparsity", 10**400, "lambda_sparsity", id="lambda_sparsity-beyond-float"),
            ("final_objective", [1], "final_objective"),
            ("final_objective", float("nan"), "final_objective"),
            ("n_terms", True, "n_terms"),
            pytest.param("W", _matrix_object(_MU_W, dtype="<f4"), "W", id="W-dtype-f4"),
            pytest.param("W", _matrix_object(_MU_W, dtype=">f8"), "W", id="W-dtype-big-endian"),
            pytest.param("W", _matrix_object(_MU_W, shape=[4, 2, 1]), "W", id="W-shape-three-numbers"),
            pytest.param("W", _matrix_object(_MU_W, shape=[True, 8]), "W", id="W-shape-bool"),
            pytest.param("W", _matrix_object(_MU_W, shape=[0, 2], data=""), "W", id="W-shape-zero"),
            pytest.param("H", _matrix_object(_MU_H, shape=[2.0, 3]), "H", id="H-shape-float"),
            pytest.param("W", _matrix_object(_MU_W, data=_matrix_object(_MU_W[:3])["data"]), "W",
                         id="W-short-data"),
            pytest.param("W", _matrix_object(_MU_W, data=_matrix_object(_MU_W)["data"][:-4]), "W",
                         id="W-data-cut"),
            pytest.param("W", _matrix_object(_MU_W, data="not base64!"), "W", id="W-bad-base64"),
            pytest.param("W", _matrix_object(_MU_W, data=_matrix_object(_MU_W)["data"][:40] + "\n"
                                             + _matrix_object(_MU_W)["data"][40:]), "W", id="W-line-break"),
            pytest.param("H", _matrix_object(_MU_H, data=7), "H", id="H-data-number"),
            pytest.param("H", [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], "H", id="H-version-1-rows"),
            pytest.param("W", _matrix_object(np.where(np.eye(4, 2) == 1, np.nan, _MU_W)), "W", id="W-nan"),
            pytest.param("H", _matrix_object(-_MU_H), "H", id="H-negative"),
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
    """A version 1 model's text with the first entry of matrix ``field`` replaced."""
    row = text.index("[", text.index(f'"{field}": [') + len(f'"{field}": ['))
    return text[: row + 1] + value + text[text.index(",", row):]


def _with_first_value(text, field, value):
    """A version 2 model's text with the first entry of matrix ``field`` set to ``value``."""
    doc = json.loads(text)
    M = np.frombuffer(base64.b64decode(doc[field]["data"]), "<f8").reshape(doc[field]["shape"]).copy()
    M.flat[0] = value
    doc[field] = _matrix_object(M)
    return json.dumps(doc)


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
