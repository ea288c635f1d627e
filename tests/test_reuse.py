"""One evaluation per state: the fit drivers evaluate every state and reuse it for the next step."""

import numpy as np
import pytest

import simplexnmf as snf
from simplexnmf import objectives
from simplexnmf.cli import main
from simplexnmf.types import METHOD_SPECS

from helpers import random_count_matrix

N_TOPICS = 4

PUBLIC = {
    "mu": (snf.mu_step_alternating, snf.kl_divergence),
    "mu-joint": (snf.mu_step_joint_wnorm, snf.kl_divergence),
    "plsa": (snf.mu_step_joint_bothnorm, snf.kl_divergence),
    "sparse": (snf.mu_step_sparse, snf.sparse_objective),
    "lda": (snf.dp_vi_step, snf.lda_elbo),
    "gap": (snf.gap_vi_step, snf.gap_elbo),
}


def _setup(method, iterations):
    X = random_count_matrix(29, n_terms=40, n_docs=30)
    config = snf.FitConfig(
        n_topics=N_TOPICS, method=method, max_iters=iterations, rel_tolerance=1e-300, seed=5,
        lambda_sparsity=0.4 if method == "sparse" else 0.0,
    )
    priors = snf.Priors(np.full(N_TOPICS, 0.8), np.full(N_TOPICS, 1.3) if method == "gap" else None)
    return X, config, priors


def _fit(X, config, priors):
    """``(arrays, trace)`` of the library fit for any method."""
    if config.method in snf.VI_METHODS:
        W, state, trace = snf.fit_vi(X, config, priors)
        return {"W": W, "beta": state.beta, "b_rate": state.b_rate}, trace
    f, trace = snf.fit(X, config)
    return {"W": f.W, "H": f.H}, trace


class _Counter:
    def __init__(self, fn, counts=lambda *args: True):
        self.fn, self.counts, self.calls = fn, counts, 0

    def __call__(self, *args, **kwargs):
        self.calls += bool(self.counts(*args))
        return self.fn(*args, **kwargs)


@pytest.mark.parametrize("method", snf.METHODS)
def test_one_reconstruction_per_state(monkeypatch, method):
    n = 5
    X, config, priors = _setup(method, n)
    recon = _Counter(objectives.reconstruct_nonzeros)
    beta_shape = (N_TOPICS, X.n_docs)
    digamma = _Counter(objectives.digamma, lambda arg: np.shape(arg) == beta_shape)
    monkeypatch.setattr(objectives, "reconstruct_nonzeros", recon)
    monkeypatch.setattr(objectives, "digamma", digamma)

    _, trace = _fit(X, config, priors)

    assert trace.n_iterations == n
    assert recon.calls == (2 * n + 1 if method == "mu" else n + 1)
    assert recon.calls == sum(trace.recon_evals) + 1
    assert digamma.calls == (n + 1 if method in snf.VI_METHODS else 0)


@pytest.mark.parametrize("method", snf.METHODS)
def test_one_reconstruction_per_eval(tmp_path, monkeypatch, capsys, method):
    """Every line ``eval`` prints comes from one reconstruction of the saved model."""
    X, _, _ = _setup(method, 1)
    matrix, model = tmp_path / "m.mtx", tmp_path / "model.json"
    snf.save_matrix_market(matrix, X)
    extra = ["--lambda", "0.4"] if method == "sparse" else []
    assert main(["fit", "--input", str(matrix), "--method", method, "--topics", str(N_TOPICS),
                 "--max-iter", "3", *extra, "--output", str(model)]) == 0
    recon = _Counter(objectives.reconstruct_nonzeros)
    monkeypatch.setattr(objectives, "reconstruct_nonzeros", recon)
    capsys.readouterr()

    assert main(["eval", "--model", str(model), "--input", str(matrix)]) == 0

    assert capsys.readouterr().out
    assert recon.calls == 1


@pytest.mark.parametrize("method", snf.METHODS)
def test_one_objective_evaluation_per_state(monkeypatch, method):
    """Every state of a fit, the start included, goes through the registry objective once."""
    n = 4
    X, config, priors = _setup(method, n)
    name = METHOD_SPECS[method].objective.partition(".")[2]
    objective = _Counter(getattr(objectives, name))
    monkeypatch.setattr(objectives, name, objective)

    _, trace = _fit(X, config, priors)

    assert trace.n_iterations == n
    assert objective.calls == n + 1


@pytest.mark.parametrize("method", snf.METHODS)
def test_standalone_step_computes_only_its_update(monkeypatch, method):
    """A step given no reconstruction computes the one at its input (and ``mu`` the one after
    its ``W`` update), and none at its output."""
    X, config, priors = _setup(method, 1)
    stepper, _ = PUBLIC[method]
    recon = _Counter(objectives.reconstruct_nonzeros)
    monkeypatch.setattr(objectives, "reconstruct_nonzeros", recon)
    if method in snf.VI_METHODS:
        W, state = snf.initialize_variational(X, config, priors)
        recon_evals = stepper(X, W, priors, state)[2]
    else:
        penalty = {"lambda_sparsity": config.lambda_sparsity} if method == "sparse" else {}
        recon_evals = stepper(X, snf.initialize_factorization(X, config), **penalty).recon_evals
    assert recon.calls == recon_evals == (2 if method == "mu" else 1)


@pytest.mark.parametrize("method", snf.METHODS)
def test_reuse_moves_nothing(method):
    """The fits equal a loop of the public steppers and the public objective or bound."""
    n = 10
    X, config, priors = _setup(method, n)
    stepper, objective = PUBLIC[method]
    values = []
    if method in snf.VI_METHODS:
        W, state = snf.initialize_variational(X, config, priors)
        for _ in range(n):
            W, state, _ = stepper(X, W, priors, state)
            values.append(objective(X, W, priors, state))
        expected = {"W": W, "beta": state.beta, "b_rate": state.b_rate}
    else:
        f = snf.initialize_factorization(X, config)
        penalty = {"lambda_sparsity": config.lambda_sparsity} if method == "sparse" else {}
        for _ in range(n):
            f = stepper(X, f, **penalty).factorization
            values.append(objective(X, f.W, f.H, **penalty))
        expected = {"W": f.W, "H": f.H}

    arrays, trace = _fit(X, config, priors)

    assert trace.n_iterations == n
    assert np.array_equal(trace.objectives, values)
    for name, value in expected.items():
        if value is None:
            assert arrays[name] is None
        else:
            assert np.array_equal(arrays[name], value), name


@pytest.mark.parametrize("method", ["mu", "mu-joint", "plsa", "sparse"])
def test_given_reconstruction_is_the_one_used(method):
    """A stepper given its input reconstruction uses it instead of computing one."""
    X, config, priors = _setup(method, 1)
    stepper, _ = PUBLIC[method]
    penalty = {"lambda_sparsity": config.lambda_sparsity} if method == "sparse" else {}
    f = snf.initialize_factorization(X, config)
    recon = snf.reconstruct_nonzeros(X, f.W, f.H)
    same = stepper(X, f, recon=recon, **penalty)
    fresh = stepper(X, f, **penalty)
    assert np.array_equal(same.factorization.W, fresh.factorization.W)
    assert np.array_equal(same.factorization.H, fresh.factorization.H)
    moved = stepper(X, f, recon=recon * np.linspace(1.0, 2.0, recon.size), **penalty)
    assert not np.array_equal(moved.factorization.W, fresh.factorization.W)


@pytest.mark.parametrize("method", ["lda", "gap"])
def test_given_bound_terms_are_the_ones_used(method):
    X, config, priors = _setup(method, 1)
    stepper, _ = PUBLIC[method]
    W, state = snf.initialize_variational(X, config, priors, perturb=True)
    # without E[log h], as the fit carries them
    terms = getattr(objectives, f"{method}_elbo_terms")(X, W, state)._replace(elog=None)
    given = stepper(X, W, priors, state, terms=terms)
    fresh = stepper(X, W, priors, state)
    assert np.array_equal(given[0], fresh[0])
    assert np.array_equal(given[1].beta, fresh[1].beta)
    moved = stepper(X, W, priors, state, terms=terms._replace(recon=terms.recon * np.linspace(1.0, 2.0, X.nnz)))
    assert not np.array_equal(moved[1].beta, fresh[1].beta)
