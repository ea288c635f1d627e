"""Tests of the benchmark itself: input generation, output checks, span arithmetic."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from pipeline import import_simplexnmf  # noqa: E402
from tracer import Target, Tracer, self_times  # noqa: E402

snf = import_simplexnmf()

SMALL_LONG = dict(n_terms=200, n_docs=60, distinct=(10, 20))
SMALL_SHORT = dict(n_words=120, n_docs=50)


# ---------------------------------------------------------------------------
# generation


def test_long_docs_are_deterministic_per_seed(tmp_path):
    a, b, c = gen.long_docs(5, **SMALL_LONG), gen.long_docs(5, **SMALL_LONG), gen.long_docs(6, **SMALL_LONG)
    for name in ("rows", "cols", "vals"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert not (a.rows.size == c.rows.size and np.array_equal(a.rows, c.rows))
    gen.write_matrix_market(tmp_path / "a.mtx", a)
    gen.write_matrix_market(tmp_path / "b.mtx", b)
    assert (tmp_path / "a.mtx").read_bytes() == (tmp_path / "b.mtx").read_bytes()
    keys = a.cols * a.n_terms + a.rows
    assert np.all(np.diff(keys) > 0) and np.all(a.vals >= 1)


def test_short_docs_are_deterministic_per_seed(tmp_path):
    a, b, c = gen.short_docs(5, **SMALL_SHORT), gen.short_docs(5, **SMALL_SHORT), gen.short_docs(6, **SMALL_SHORT)
    assert a.words == b.words and all(np.array_equal(x, y) for x, y in zip(a.docs, b.docs))
    assert a.words != c.words
    gen.write_text_corpus(tmp_path / "a", a, 5)
    gen.write_text_corpus(tmp_path / "b", b, 5)
    files_a, files_b = sorted((tmp_path / "a").iterdir()), sorted((tmp_path / "b").iterdir())
    assert [p.name for p in files_a] == [p.name for p in files_b]
    assert all(p.read_bytes() == q.read_bytes() for p, q in zip(files_a, files_b))
    vocab, rows, cols, vals = gen.short_doc_counts(a)
    assert list(vocab) == sorted(vocab)
    assert vals.sum() == sum(doc.size for doc in a.docs)


# ---------------------------------------------------------------------------
# checks reject perturbed outputs


@pytest.fixture(scope="module")
def long_fits():
    data = gen.long_docs(3, **SMALL_LONG)
    X = snf.TermDocMatrix.from_entries(data.n_terms, data.n_docs, zip(data.rows, data.cols, data.vals))
    fits = {}
    for method in ("mu-joint", "plsa", "sparse"):
        config = snf.FitConfig(n_topics=4, method=method, max_iters=5, rel_tolerance=1e-300, lambda_sparsity=0.5)
        f, trace = snf.fit(X, config)
        fits[method] = (f.W, f.H, trace.objectives[-1])
    return data, fits


@pytest.fixture(scope="module")
def vi_fits():
    data = gen.long_docs(4, **SMALL_LONG)
    X = snf.TermDocMatrix.from_entries(data.n_terms, data.n_docs, zip(data.rows, data.cols, data.vals))
    fits = {}
    for method in ("lda", "gap"):
        config = snf.FitConfig(n_topics=4, method=method, max_iters=5, rel_tolerance=1e-300)
        priors = snf.Priors(np.full(4, 0.1), np.full(4, 1.0) if method == "gap" else None)
        W, state, trace = snf.fit_vi(X, config, priors)
        fits[method] = (W, state, priors, trace.objectives)
    return data, fits


def test_simplex_check_rejects_a_column_moved_off_by_1e6(long_fits):
    W = long_fits[1]["mu-joint"][0]
    assert checks.check_simplex("W", W) is None
    moved = W.copy()
    moved[0, 1] += 1e-6
    assert checks.check_simplex("W", moved) is not None


def test_kl_check_rejects_an_objective_shifted_by_1e6(long_fits):
    data, fits = long_fits
    W, H, objective = fits["mu-joint"]
    args = (data.rows, data.cols, data.vals, W, H)
    assert checks.check_kl("kl", objective, *args) is None
    assert checks.check_kl("kl", objective * (1 + 1e-6), *args) is not None
    W, H, objective = fits["sparse"]
    assert checks.check_kl("sparse", objective, data.rows, data.cols, data.vals, W, H, penalty=0.5) is None


def test_identity_check_rejects_a_perturbed_factor(long_fits):
    data, fits = long_fits
    col_sums = np.bincount(data.cols, weights=data.vals)
    args = (col_sums, float(data.vals.sum()), 0.5)
    assert checks.check_identities(*args, fits["mu-joint"], fits["plsa"], fits["sparse"]) is None
    W, H, objective = fits["sparse"]
    H = H.copy()
    H[1, 2] *= 1 + 1e-6
    assert checks.check_identities(*args, fits["mu-joint"], fits["plsa"], (W, H, objective)) is not None
    shifted = (W, fits["sparse"][1], objective * (1 + 1e-6))
    assert checks.check_identities(*args, fits["mu-joint"], fits["plsa"], shifted) is not None


def test_bound_checks_reject_a_shifted_bound_and_an_altered_beta(vi_fits):
    data, fits = vi_fits
    col_sums = np.bincount(data.cols, weights=data.vals)
    for method, (W, state, priors, objectives) in fits.items():
        args = (data.rows, data.cols, data.vals, W, state.beta, priors.alpha, state.b_rate, priors.rate_a)
        assert checks.check_elbo(method, objectives[-1], *args) is None
        assert checks.check_elbo(method, objectives[-1] * (1 + 1e-6), *args) is not None
        assert checks.check_monotone(method, objectives, increasing=True) is None
        assert checks.check_beta_mass(method, state.beta, priors.alpha, col_sums) is None
    (W_lda, s_lda, _, _), (W_gap, s_gap, priors, _) = fits["lda"], fits["gap"]
    assert checks.check_same_iterates(W_lda, s_lda.beta, W_gap, s_gap.beta) is None
    altered = s_gap.beta.copy()
    altered[2, 3] *= 1 + 1e-6
    assert checks.check_beta_mass("gap", altered, priors.alpha, col_sums) is not None
    assert checks.check_same_iterates(W_lda, s_lda.beta, W_gap, altered) is not None


def test_monotone_check_rejects_a_rise():
    assert checks.check_monotone("f", [3.0, 2.0, 2.0, 1.0]) is None
    assert checks.check_monotone("f", [3.0, 2.0, 2.0 * (1 + 1e-6)]) is not None
    assert checks.check_monotone("bound", [-3.0, -2.0, -2.0 * (1 + 1e-6)], increasing=True) is not None


# ---------------------------------------------------------------------------
# spans


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 3.0, 0, 0),  # overlaps b: together they cover [1, 5]
        ("b", 2.0, 5.0, 0, 0),
        ("c", 9.0, 12.0, 0, 0),  # only [9, 10] lies inside the parent
        ("a.child", 1.5, 2.5, 1, 0),
        ("other", 20.0, 21.0, -1, 0),
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 1, 2 - 1, 3, 3, 1, 1])


def test_end_to_end_scales_each_operation_by_the_gauges_around_it():
    ref = run.GAUGE_REFERENCE_S
    # the machine runs at half speed during "fit a" and at full speed otherwise
    record = {"ops": {"setup": 1.0, "fit a": 4.0, "fit b": 2.0, "save a": 0.5, "eval a": 0.25},
              "gauges": [ref, 2 * ref, 2 * ref, ref, ref, ref], "model_bytes": 10**6}
    assert run.scaled_times(record) == pytest.approx(
        {"setup": 1.0 / 1.5, "fit a": 2.0, "fit b": 2.0 / 1.5, "save a": 0.5, "eval a": 0.25})
    slow = dict(record, ops={op: 2 * t for op, t in record["ops"].items()}, gauges=[2 * g for g in record["gauges"]])
    values = run.end_to_end({"rounds": [record, slow, record], "peak_rss_mb": 100.0})
    assert values["fit_s"] == pytest.approx(2.0 + 2.0 / 1.5)
    assert values["setup_s"] == pytest.approx(1.0 / 1.5)


def test_tracer_wraps_every_binding_and_reports_missing_names(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")
    exec("def inner(x):\n    return x + 1\n", core.__dict__)
    user.inner = core.inner  # bound by import, as `from .core import inner` does
    exec("def outer(x):\n    return inner(x) * 2\n", user.__dict__)
    for name, module in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    tracer = Tracer()
    missing = tracer.install("fakepkg", (
        Target("core.inner", "fakepkg.core", "inner", lambda a, k, r: a[0]),
        Target("user.outer", "fakepkg.user", "outer"),
        Target("core.gone", "fakepkg.core", "gone"),
    ))
    assert missing == ["fakepkg.core.gone"]
    assert user.outer(3) == 8
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [("user.outer", -1, 0), ("core.inner", 0, 3)]


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
