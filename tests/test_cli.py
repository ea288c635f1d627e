"""Command-line surface: flags, exit codes, files, determinism."""

import argparse
import json
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special

import simplexnmf as snf
from simplexnmf import specfun, types
from simplexnmf.cli import _build_parser, _fmt, main
from simplexnmf.equivalence import PAIRS

from helpers import after_the_start, random_count_matrix

DATA = Path(__file__).parent / "data"
COUNTS = str(DATA / "v1" / "counts.mtx")


@pytest.fixture
def corpus(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "a.txt").write_text("the cat sat on the mat\ncat and dog play\n")
    (root / "b.txt").write_text("dog eats food\nthe dog runs\n")
    (root / "c.txt").write_text("cat food and milk\nmilk for the cat\n")
    return root


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "counts.mtx"
    snf.save_matrix_market(path, random_count_matrix(3, n_terms=18, n_docs=12))
    return path


def test_ingest_fit_topics_eval_pipeline(tmp_path, corpus, capsys):
    mtx = tmp_path / "m.mtx"
    vocab = tmp_path / "v.txt"
    model = tmp_path / "model.json"
    trace = tmp_path / "trace.csv"
    assert main([
        "ingest", "--corpus", str(corpus), "--min-count", "1",
        "--out-matrix", str(mtx), "--out-vocab", str(vocab),
    ]) == 0
    assert main([
        "fit", "--input", str(mtx), "--method", "mu-joint", "--topics", "2",
        "--max-iter", "80", "--tol", "1e-9", "--seed", "7",
        "--output", str(model), "--trace", str(trace),
    ]) == 0
    assert main(["topics", "--model", str(model), "--vocab", str(vocab), "--top", "3"]) == 0
    assert main(["eval", "--model", str(model), "--input", str(mtx)]) == 0
    out = capsys.readouterr().out
    assert "topic 0:" in out and "topic 1:" in out
    assert "kl_divergence" in out and "elbo" not in out
    header = trace.read_text().splitlines()[0]
    assert header == "iter,objective,recon_evals,millis"


def test_eval_reports_by_method(tmp_path, matrix_file, capsys):
    for method, expected, absent in [
        ("plsa", "plsa_log_likelihood", "elbo"),
        ("lda", "elbo", "kl_divergence"),
    ]:
        model = tmp_path / f"{method}.json"
        alpha = ["--alpha", "0.6"] if method == "lda" else []
        assert main([
            "fit", "--input", str(matrix_file), "--method", method, "--topics", "3",
            *alpha, "--max-iter", "40", "--output", str(model),
        ]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--input", str(matrix_file)]) == 0
        out = capsys.readouterr().out
        assert expected in out and absent not in out


# the eval line of each method's registry objective, the value its fits monitor
REGISTRY_LINE = {
    "mu": "kl_divergence", "mu-joint": "kl_divergence", "plsa": "kl_divergence",
    "sparse": "penalized_objective", "lda": "elbo", "gap": "elbo",
}


@pytest.mark.parametrize("method", snf.METHODS)
def test_eval_prints_the_final_objective(tmp_path, matrix_file, capsys, method):
    model = tmp_path / "m.json"
    extra = ["--lambda", "0.5"] if method == "sparse" else []
    assert main([
        "fit", "--input", str(matrix_file), "--method", method, "--topics", "3",
        "--max-iter", "30", "--seed", "2", *extra, "--output", str(model),
    ]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--input", str(matrix_file)]) == 0
    lines = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines[REGISTRY_LINE[method]] == _fmt(snf.load_model(model).final_objective)


def test_sparse_requires_lambda(tmp_path, matrix_file, capsys):
    rc = main([
        "fit", "--input", str(matrix_file), "--method", "sparse", "--topics", "2",
        "--output", str(tmp_path / "m.json"),
    ])
    assert rc == 1
    assert "--lambda" in capsys.readouterr().err


@pytest.mark.parametrize("method, flag", [
    ("mu", "--lambda"), ("mu-joint", "--lambda"), ("plsa", "--lambda"), ("lda", "--lambda"), ("gap", "--lambda"),
    ("mu", "--alpha"), ("mu-joint", "--alpha"), ("plsa", "--alpha"), ("sparse", "--alpha"),
    ("mu", "--rate-a"), ("mu-joint", "--rate-a"), ("plsa", "--rate-a"), ("sparse", "--rate-a"), ("lda", "--rate-a"),
])
def test_flag_the_method_ignores_is_usage_error(tmp_path, matrix_file, capsys, method, flag):
    needed = ["--lambda", "0.5"] if method == "sparse" else []
    rc = main([
        "fit", "--input", str(matrix_file), "--method", method, "--topics", "2",
        *needed, flag, "0.3", "--output", str(tmp_path / "m.json"),
    ])
    assert rc == 1
    assert f"usage error: {flag} does not apply to --method {method}" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_usage_error_on_bad_flags(capsys):
    assert main(["fit", "--method", "mu"]) == 1
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_lambda_is_usage_error(tmp_path, matrix_file, capsys, value):
    rc = main([
        "fit", "--input", str(matrix_file), "--method", "sparse", "--topics", "2",
        "--lambda", value, "--output", str(tmp_path / "m.json"),
    ])
    assert rc == 1
    assert "usage error: lambda_sparsity" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_threads_flag_removed(tmp_path, matrix_file, capsys):
    rc = main([
        "fit", "--input", str(matrix_file), "--method", "mu-joint", "--topics", "2",
        "--threads", "2", "--output", str(tmp_path / "m.json"),
    ])
    assert rc == 1
    assert "--threads" in capsys.readouterr().err


def test_invalid_config_values_are_usage_errors(tmp_path, matrix_file, capsys):
    rc = main([
        "fit", "--input", str(matrix_file), "--method", "mu", "--topics", "2",
        "--max-iter", "0", "--output", str(tmp_path / "m.json"),
    ])
    assert rc == 1
    assert "max_iters" in capsys.readouterr().err


def test_missing_input_is_data_error(tmp_path, capsys):
    rc = main([
        "fit", "--input", str(tmp_path / "nope.mtx"), "--method", "mu", "--topics", "2",
        "--output", str(tmp_path / "m.json"),
    ])
    assert rc == 2


def test_malformed_matrix_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 -3\n")
    rc = main([
        "fit", "--input", str(bad), "--method", "mu", "--topics", "2",
        "--output", str(tmp_path / "m.json"),
    ])
    assert rc == 2


@pytest.mark.parametrize("method", ["mu", "lda"])
def test_overflowing_document_total_is_data_error(tmp_path, capsys, method):
    big = tmp_path / "big.mtx"
    big.write_text("%%MatrixMarket matrix coordinate real general\n3 2 3\n1 1 1e308\n2 1 1e308\n3 2 1\n")
    rc = main([
        "fit", "--input", str(big), "--method", method, "--topics", "2",
        "--output", str(tmp_path / "m.json"),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.splitlines() == ["data error: document 0 (0-based): its counts sum past the float64 range"]


def test_fit_outputs_are_byte_deterministic(tmp_path, matrix_file):
    models = []
    for name in ("m1.json", "m2.json"):
        path = tmp_path / name
        assert main([
            "fit", "--input", str(matrix_file), "--method", "sparse", "--topics", "3",
            "--lambda", "0.5", "--max-iter", "60", "--seed", "11",
            "--output", str(path),
        ]) == 0
        models.append(path.read_bytes())
    assert models[0] == models[1]


def _in_workers(fn, name, ran):
    """``fn`` that also records ``name`` in ``ran`` when a worker thread calls it."""
    def record(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            ran.add(name)
        return fn(*args, **kwargs)
    return record


@pytest.mark.parametrize("method", ["lda", "gap"])
def test_variational_fits_write_the_same_bytes_on_any_cpu_count(tmp_path, matrix_file, monkeypatch, method):
    # the work per range is lowered so that every split runs: the reconstruction, digamma and log-gamma
    ran = set()
    monkeypatch.setattr(types, "_RANGE_WORK", 1)
    monkeypatch.setattr(types, "_reconstruct_range", _in_workers(types._reconstruct_range, "reconstruction", ran))
    monkeypatch.setattr(specfun, "special", SimpleNamespace(
        digamma=_in_workers(special.digamma, "digamma", ran), gammaln=_in_workers(special.gammaln, "gammaln", ran)))
    models = {}
    for cpus in (1, 3):
        monkeypatch.setattr(types, "_usable_cpus", lambda cpus=cpus: cpus)
        ran.clear()
        path = tmp_path / f"{method}-{cpus}.json"
        assert main([
            "fit", "--input", str(matrix_file), "--method", method, "--topics", "3",
            "--alpha", "0.5", "--max-iter", "3", "--seed", "5", "--output", str(path),
        ]) == 0
        assert ran == (set() if cpus == 1 else {"reconstruction", "digamma", "gammaln"})
        models[cpus] = path.read_bytes()
    assert models[1] == models[3]


@pytest.mark.parametrize("pair", ["alg4-alg5", "sparse-plain", "gap-lda", "plsa-ref"])
def test_compare_pairs_pass(matrix_file, pair, capsys):
    rc = main([
        "compare", "--input", str(matrix_file), "--pair", pair,
        "--seed", "2", "--iters", "60", "--tol", "1e-12",
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "max deviation" in out


def test_compare_failure_exit_code(matrix_file, capsys):
    rc = main([
        "compare", "--input", str(matrix_file), "--pair", "plsa-ref",
        "--seed", "2", "--iters", "60", "--tol", "1e-18",
    ])
    assert rc == 3
    assert "FAILED" in capsys.readouterr().out



def test_compare_failure_prints_every_line(matrix_file, capsys):
    rc = main([
        "compare", "--input", str(matrix_file), "--pair", "sparse-plain",
        "--seed", "2", "--iters", "60", "--tol", "1e-18",
    ])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 3
    assert [(line.split(":")[0], line.split()[-1]) for line in lines] == [
        ("W iterates", "FAILED"),
        ("H iterates * (1+lambda)", "FAILED"),
        ("objective offset vs log(1+lambda)*sum(X)", "ok"),
    ]


@pytest.mark.parametrize("pair", ["alg4-alg5", "sparse-plain", "gap-lda", "plsa-ref"])
def test_compare_non_finite_deviation_is_numerical_failure(tmp_path, capsys, pair):
    # each document total is finite, the grand total is not; the updates of
    # both-normalized and variational iterates overflow, the sparse-plain
    # objective offset is inf - inf
    path = tmp_path / "huge.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1e308\n2 2 1e308\n")
    rc = main(["compare", "--input", str(path), "--pair", pair, "--iters", "5"])
    captured = capsys.readouterr()
    assert rc == 3
    verdicts = [line.split()[-1] for line in captured.out.splitlines()]
    assert verdicts and set(verdicts) <= {"ok", "FAILED"} and "FAILED" in verdicts
    assert "max deviation nan" in captured.out
    assert captured.err.startswith("numerical failure: non-finite ")


@pytest.mark.parametrize("iters", ["0", "-3"])
def test_compare_without_iterations_is_usage_error(matrix_file, capsys, iters):
    rc = main(["compare", "--input", str(matrix_file), "--pair", "plsa-ref", "--iters", iters])
    assert rc == 1
    captured = capsys.readouterr()
    assert "usage error: --iters must be at least 1" in captured.err
    assert "max deviation" not in captured.out


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_compare_bad_tolerance_is_usage_error(tmp_path, capsys, tol):
    # rejected before the input is read: a missing file would be a data error
    rc = main(["compare", "--input", str(tmp_path / "absent.mtx"), "--pair", "plsa-ref", "--tol", tol])
    assert rc == 1
    captured = capsys.readouterr()
    assert "usage error: --tol must be a non-negative number" in captured.err
    assert captured.out == ""


def test_compare_offers_the_library_pairs():
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    pair = next(a for a in commands.choices["compare"]._actions if a.dest == "pair")
    assert pair.choices == list(PAIRS)


def test_gap_fit_records_rates(tmp_path, matrix_file):
    model_path = tmp_path / "gap.json"
    assert main([
        "fit", "--input", str(matrix_file), "--method", "gap", "--topics", "2",
        "--alpha", "0.5,1.5", "--rate-a", "1.0", "--max-iter", "30",
        "--output", str(model_path),
    ]) == 0
    model = snf.load_model(model_path)
    assert np.array_equal(model.alpha, [0.5, 1.5])
    assert np.array_equal(np.asarray(model.b_rate), np.full((2, 1), 2.0))


def test_non_finite_objective_is_numerical_failure(tmp_path, matrix_file, monkeypatch, capsys):
    from simplexnmf import objectives

    monkeypatch.setattr(objectives, "kl_divergence", after_the_start(objectives.kl_divergence, float("nan")))
    rc = main([
        "fit", "--input", str(matrix_file), "--method", "mu-joint", "--topics", "2",
        "--output", str(tmp_path / "m.json"),
    ])
    assert rc == 3
    assert "non-finite objective" in capsys.readouterr().err


@pytest.fixture
def fitted_topics(tmp_path, corpus):
    mtx, vocab, model = tmp_path / "m.mtx", tmp_path / "v.txt", tmp_path / "model.json"
    assert main(["ingest", "--corpus", str(corpus), "--out-matrix", str(mtx), "--out-vocab", str(vocab)]) == 0
    assert main([
        "fit", "--input", str(mtx), "--method", "mu-joint", "--topics", "2", "--max-iter", "5",
        "--output", str(model),
    ]) == 0
    return model, vocab


@pytest.mark.parametrize("top", ["0", "-4"])
def test_topics_without_terms_is_usage_error(fitted_topics, capsys, top):
    model, vocab = fitted_topics
    capsys.readouterr()
    assert main(["topics", "--model", str(model), "--vocab", str(vocab), "--top", top]) == 1
    captured = capsys.readouterr()
    assert f"usage error: --top must be at least 1, got {top}" in captured.err
    assert captured.out == ""


def test_non_utf8_files_are_data_errors(tmp_path, fitted_topics, capsys):
    model, _ = fitted_topics
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 \xff\n")
    for argv in (
        ["fit", "--input", str(bad), "--method", "mu", "--topics", "1", "--output", str(tmp_path / "o.json")],
        ["topics", "--model", str(model), "--vocab", str(bad)],
    ):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"data error: {bad} is not UTF-8 text")


# each document total is finite, but a fit's objective overflows at its start
OVERFLOWING = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1e308\n2 2 1e308\n"


@pytest.mark.parametrize("method", snf.METHODS)
def test_fit_numerical_failure_is_one_stderr_line(tmp_path, capsys, method):
    path = tmp_path / "two.mtx"
    path.write_text(OVERFLOWING)
    lam = ["--lambda", "0.5"] if method == "sparse" else []
    rc = main(["fit", "--input", str(path), "--method", method, "--topics", "2", *lam,
               "--output", str(tmp_path / "m.json")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 3
    assert len(err) == 1 and err[0].startswith("numerical failure: ")


def test_eval_non_finite_value_is_numerical_failure_after_every_line(tmp_path, capsys):
    small, two, model = tmp_path / "small.mtx", tmp_path / "two.mtx", tmp_path / "plsa.json"
    small.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3\n2 2 4\n")
    two.write_text(OVERFLOWING)
    assert main(["fit", "--input", str(small), "--method", "plsa", "--topics", "2", "--output", str(model)]) == 0
    capsys.readouterr()
    rc = main(["eval", "--model", str(model), "--input", str(two)])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert rc == 3
    assert [line.split()[0] for line in lines] == ["kl_divergence", "plsa_log_likelihood"]
    assert "kl_divergence inf" in lines
    assert captured.err == "numerical failure: non-finite kl_divergence\n"


def test_eval_on_a_matrix_of_other_dimensions_is_data_error(tmp_path, matrix_file, capsys):
    model, other = tmp_path / "m.json", tmp_path / "other.mtx"
    assert main(["fit", "--input", str(matrix_file), "--method", "mu", "--topics", "2", "--max-iter", "3",
                 "--output", str(model)]) == 0
    other.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3\n")
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--input", str(other)]) == 2
    assert capsys.readouterr().err == "data error: matrix is 2 x 2 but the model was fit on 18 x 12\n"


def test_topics_with_a_vocabulary_of_the_wrong_length_is_data_error(tmp_path, fitted_topics, capsys):
    model, vocab = fitted_topics
    short = tmp_path / "short.txt"
    short.write_text("cat\ndog\n")
    n_terms = len(vocab.read_text().splitlines())
    capsys.readouterr()
    assert main(["topics", "--model", str(model), "--vocab", str(short)]) == 2
    assert capsys.readouterr().err == f"data error: vocabulary has 2 terms, model expects {n_terms}\n"


@pytest.mark.parametrize("method, flag, value, message", [
    ("lda", "--alpha", "x", "--alpha expects a float or a comma-separated list"),
    ("gap", "--rate-a", "1,2,3", "--rate-a expects 1 or 2 values, got 3"),
])
def test_malformed_prior_vector_is_usage_error(tmp_path, matrix_file, capsys, method, flag, value, message):
    rc = main(["fit", "--input", str(matrix_file), "--method", method, "--topics", "2", flag, value,
               "--output", str(tmp_path / "m.json")])
    assert rc == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_ingest_of_a_regular_file_is_data_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat\n")
    rc = main(["ingest", "--corpus", str(corpus), "--out-matrix", str(tmp_path / "m.mtx"),
               "--out-vocab", str(tmp_path / "v.txt")])
    assert rc == 2
    assert capsys.readouterr().err == f"data error: not a directory: {corpus}\n"


@pytest.mark.parametrize("value", ["0", "-5"])
def test_ingest_min_count_below_one_is_usage_error(tmp_path, capsys, value):
    # the corpus does not exist: the flag is refused before it is read
    rc = main(["ingest", "--corpus", str(tmp_path / "absent"), "--min-count", value,
               "--out-matrix", str(tmp_path / "m.mtx"), "--out-vocab", str(tmp_path / "v.txt")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"usage error: --min-count must be at least 1, got {value}\n"
    assert captured.out == ""
    assert not (tmp_path / "m.mtx").exists()


# what eval prints for every committed model on the committed counts
EVAL_OUTPUT = {
    "v1/gap.json": "elbo -19.001920252922822\n",
    "v1/lda.json": "elbo -21.910276730498726\n",
    "v1/mu-joint.json": "kl_divergence 4.7269257565181597\n",
    "v1/mu.json": "kl_divergence 3.0560764761406887\n",
    "v1/plsa.json": "kl_divergence 17.438651688864475\nplsa_log_likelihood -17.825048656140808\n",
    "v1/sparse.json": "kl_divergence 5.0740790262313062\npenalized_objective 8.0740790262313062\n",
    "v2/gap.json": "elbo -19.001920252922822\n",
    "v2/lda.json": "elbo -21.910276730498726\n",
    "v2/mu-joint.json": "kl_divergence 4.7269257565181597\n",
    "v2/mu.json": "kl_divergence 3.0560764761406887\n",
    "v2/plsa.json": "kl_divergence 17.438651688864475\nplsa_log_likelihood -17.825048656140808\n",
    "v2/sparse.json": "kl_divergence 5.0740790262313062\npenalized_objective 8.0740790262313062\n",
}


def test_eval_output_covers_every_committed_model():
    assert sorted(EVAL_OUTPUT) == sorted(str(p.relative_to(DATA)) for p in DATA.glob("v*/*.json"))


@pytest.mark.parametrize("name", sorted(EVAL_OUTPUT))
def test_eval_output_of_committed_models(capsys, name):
    assert main(["eval", "--model", str(DATA / name), "--input", COUNTS]) == 0
    assert capsys.readouterr() == (EVAL_OUTPUT[name], "")


@pytest.mark.parametrize("method, field, value", [
    ("lda", "rate_a", [1.0]),  # of the wrong length
    ("lda", "rate_a", [-1.0, -1.0]),
    ("lda", "b_rate", [[1.0]]),  # of the wrong shape
    ("lda", "H", [[1.0]]),
    ("mu-joint", "beta", [[-1.0]]),
    ("lda", "b_rate", "x"),  # of the wrong type
    ("lda", "H", [[float("nan")]]),  # written as the bare token NaN
    ("lda", "rate_a", "x"),
    ("mu-joint", "alpha", {"a": 1}),
])
def test_eval_ignores_fields_the_method_does_not_use(tmp_path, capsys, method, field, value):
    doc = json.loads((DATA / "v1" / f"{method}.json").read_text())
    doc[field] = value
    model = tmp_path / "stray.json"
    model.write_text(json.dumps(doc))
    assert main(["eval", "--model", str(model), "--input", COUNTS]) == 0
    assert capsys.readouterr() == (EVAL_OUTPUT[f"v1/{method}.json"], "")


@pytest.mark.parametrize("method", ["mu-joint", "plsa"])
def test_eval_of_a_model_slightly_off_the_simplex(tmp_path, capsys, method):
    # eval never steps, so it does not check the columns of W against the method's simplex
    doc = json.loads((DATA / "v1" / f"{method}.json").read_text())
    for row in doc["W"]:
        row[0] *= 1 + 1e-9
    model = tmp_path / "off.json"
    model.write_text(json.dumps(doc))
    assert main(["eval", "--model", str(model), "--input", COUNTS]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    labels = [line.split()[0] for line in EVAL_OUTPUT[f"v1/{method}.json"].splitlines()]
    assert [line.split()[0] for line in captured.out.splitlines()] == labels
