"""Command-line surface: flags, exit codes, files, determinism."""

import numpy as np
import pytest

import simplexnmf as snf
from simplexnmf.cli import main

from helpers import random_count_matrix


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
        assert main([
            "fit", "--input", str(matrix_file), "--method", method, "--topics", "3",
            "--alpha", "0.6", "--max-iter", "40", "--output", str(model),
        ]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--input", str(matrix_file)]) == 0
        out = capsys.readouterr().out
        assert expected in out and absent not in out


def test_sparse_requires_lambda(tmp_path, matrix_file, capsys):
    rc = main([
        "fit", "--input", str(matrix_file), "--method", "sparse", "--topics", "2",
        "--output", str(tmp_path / "m.json"),
    ])
    assert rc == 1
    assert "--lambda" in capsys.readouterr().err


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


def test_gap_fit_records_rates(tmp_path, matrix_file):
    model_path = tmp_path / "gap.json"
    assert main([
        "fit", "--input", str(matrix_file), "--method", "gap", "--topics", "2",
        "--alpha", "0.5,1.5", "--rate-a", "1.0", "--max-iter", "30",
        "--output", str(model_path),
    ]) == 0
    model = snf.load_model(model_path)
    assert np.array_equal(model.alpha, [0.5, 1.5])
    assert np.array_equal(np.asarray(model.b_rate), np.full((2, 12), 2.0))


def test_non_finite_objective_is_numerical_failure(tmp_path, matrix_file, monkeypatch, capsys):
    from simplexnmf import mu

    monkeypatch.setattr(mu, "mu_step_joint_wnorm", lambda X, f, **kwargs: mu.StepOutcome(f, float("nan"), 1))
    rc = main([
        "fit", "--input", str(matrix_file), "--method", "mu-joint", "--topics", "2",
        "--output", str(tmp_path / "m.json"),
    ])
    assert rc == 3
    assert "non-finite objective" in capsys.readouterr().err
