"""simplexnmf benchmark: seeded inputs, a measured pipeline, independent checks.

    python3 perfbench/run.py --workload mm-long-docs --seed 1 --seconds 50 --trace 0

generates the workload's inputs from ``--seed`` under ``.perfbench_work``
in the checkout, runs ``pipeline.py`` on them in a process of its own for
``--seconds`` of whole rounds, checks the outputs without simplexnmf's
numerics, and prints one JSON line: ``correct``, ``attempted``, ``failed``
and the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``).  Without ``--workload`` it runs every
workload untraced and traced and prints every report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import gen
from pipeline import ALPHA, ITERATIONS, LAMBDA, RATE_A, ROOT, import_simplexnmf
from tracer import self_times

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mm-long-docs", "text-short-docs")
DEADLINE_S = 170.0  # the whole run, generation and checks included
# the gauge's duration (pipeline.Gauge) at the speed the timings are scaled to:
# about its median on the 2-vCPU machine of the reference figures
GAUGE_REFERENCE_S = 0.08

END_TO_END = {
    "setup_s": "s", "fit_s": "s", "save_s": "s", "eval_s": "s",
    "peak_rss_mb": "MB", "model_mb": "MB",
}

# per-layer metric -> unit; values are per pipeline round
PER_LAYER = {
    "types.reconstruct_nonzeros.self_s": "s",
    "types.reconstruct_nonzeros.calls": "count",
    "types.reconstruct_nonzeros.update_share": "ratio",
    "types.term_topic_sums.self_s": "s",
    "types.term_topic_sums.calls": "count",
    "types.topic_doc_sums.self_s": "s",
    "types.topic_doc_sums.calls": "count",
    "types.kernel.madds": "count",
    "types.kernel.computed_mb": "MB",
    "types.kernel.gmadds_per_s": "Gmadd/s",
    "types.from_entries.self_s": "s",
    "types.Factorization.self_s": "s",
    "types.VariationalState.self_s": "s",
    "objectives.kl_divergence.self_s": "s",
    "objectives.kl_divergence.calls": "count",
    "objectives.lda_elbo.self_s": "s",
    "objectives.lda_elbo.calls": "count",
    "objectives.gap_elbo.self_s": "s",
    "objectives.gap_elbo.calls": "count",
    "objectives.expected_log_h.self_s": "s",
    "specfun.digamma.self_s": "s",
    "specfun.digamma.evals": "count",
    "specfun.digamma.ns_per_eval": "ns",
    "specfun.log_gamma.self_s": "s",
    "specfun.log_gamma.evals": "count",
    "specfun.log_gamma.ns_per_eval": "ns",
    "mu.fit.self_s": "s",
    "mu.step.self_s": "s",
    "mu.fit.iterations": "count",
    "vi.fit_vi.self_s": "s",
    "vi.step.self_s": "s",
    "vi.fit_vi.iterations": "count",
    "io.load_matrix_market.self_s": "s",
    "io.load_matrix_market.mb_per_s": "MB/s",
    "io.ingest_corpus.self_s": "s",
    "io.ingest_corpus.tokens_per_s": "1/s",
    "io.save_model.self_s": "s",
    "io.save_model.mb_per_s": "MB/s",
    "io.load_model.self_s": "s",
    "io.load_model.mb_per_s": "MB/s",
    "io.save_matrix_market.self_s": "s",
}

KERNELS = ("types.reconstruct_nonzeros", "types.term_topic_sums", "types.topic_doc_sums")

# MatrixMarket files with one non-finite count; loading must raise DataError
PROBES = {
    "nan": "%%MatrixMarket matrix coordinate real general\n3 2 3\n1 1 2\n2 1 nan\n3 2 1\n",
    "inf": "%%MatrixMarket matrix coordinate real general\n3 2 3\n1 1 2\n2 1 inf\n3 2 1\n",
}


# ---------------------------------------------------------------------------
# inputs


def prepare(workload: str, seed: int, work: Path):
    """Write the workload's inputs under ``work``; return the generator's ground truth."""
    if workload == "mm-long-docs":
        truth = gen.long_docs(seed)
        gen.write_matrix_market(work / "input.mtx", truth)
        (work / "probes").mkdir()
        for name, text in PROBES.items():
            (work / "probes" / f"{name}.mtx").write_text(text, encoding="utf-8")
        return truth
    data = gen.short_docs(seed)
    gen.write_text_corpus(work / "corpus", data, seed)
    return gen.short_doc_counts(data)


def run_pipeline(workload: str, work: Path, seconds: float, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--workload", workload, "--workdir", str(work),
           "--seconds", str(seconds), "--trace", str(trace)]
    # one process, with numpy/BLAS threads capped at the CPUs it may use
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OMP_NUM_THREADS=nproc, OPENBLAS_NUM_THREADS=nproc, MKL_NUM_THREADS=nproc)
    subprocess.run(cmd, check=True, env=env, timeout=max(1.0, deadline - time.monotonic()))
    return json.loads((work / "results.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# checks


def _load_npy(work: Path, name: str):
    path = work / "check" / f"{name}.npy"
    return np.load(path) if path.exists() else None


def check_round_trips(snf, work: Path, methods, problems: list) -> dict:
    """Saved models load back exactly, and a second save is byte-identical.

    The second save is the last round's, of the model refitted from the
    same inputs (every run has at least two rounds).  Returns the fitted
    arrays with the loaded model.
    """
    arrays = {}
    for method in methods:
        first = work / "check" / f"{method}.json"
        model = snf.load_model(first)
        fitted = {name: _load_npy(work, f"{method}_{name}") for name in ("W", "H", "beta", "b_rate")}
        for name, value in fitted.items():
            loaded = getattr(model, name)
            if (value is None) != (loaded is None) or (value is not None and not np.array_equal(loaded, value)):
                problems.append(f"{method}: load_model did not return the saved {name}")
        if first.read_bytes() != (work / "out" / f"{method}.json").read_bytes():
            problems.append(f"{method}: the last round's model file differs from the first round's")
        arrays[method] = dict(fitted, model=model)
    return arrays


def check_rounds(results: dict, problems: list) -> None:
    first = results["rounds"][0]
    for record in results["rounds"][1:]:
        if record["final"] != first["final"] or record["eval"] != first["eval"]:
            problems.append("objectives differ between rounds of the same inputs")
            break
    for record in results["rounds"]:
        if record["short_traces"]:
            problems.append(f"fits stopped before the budget: {record['short_traces']}")


def check_mm(snf, truth: gen.LongDocs, work: Path, results: dict) -> list:
    problems: list = []
    rows, cols, vals = truth.rows, truth.cols, truth.vals
    loaded = {name: _load_npy(work, f"X_{name}") for name in ("rows", "cols", "vals", "col_sums")}
    col_sums = np.bincount(cols, weights=vals, minlength=truth.n_docs)
    if not (np.array_equal(loaded["rows"], rows) and np.array_equal(loaded["cols"], cols)
            and np.array_equal(loaded["vals"], vals) and np.array_equal(loaded["col_sums"], col_sums)):
        problems.append("loaded matrix differs from the generated triples")
    check_rounds(results, problems)
    traces = json.loads((work / "check" / "traces.json").read_text(encoding="utf-8"))
    arrays = check_round_trips(snf, work, traces, problems)
    evals = results["rounds"][0]["eval"]
    budget = ITERATIONS["mm-long-docs"]
    for method, trace in traces.items():
        W, H, model = arrays[method]["W"], arrays[method]["H"], arrays[method]["model"]
        penalty = LAMBDA if method == "sparse" else 0.0
        found = [
            None if len(trace["objectives"]) == budget else f"{method}: trace has {len(trace['objectives'])} iterations",
            checks.check_monotone(method, trace["objectives"]),
            None if model.final_objective == trace["objectives"][-1] else f"{method}: final_objective is not the trace's last",
            checks.check_kl(f"{method} final objective", model.final_objective, rows, cols, vals, W, H, penalty),
            checks.check_kl(f"{method} eval kl_divergence", evals[method]["kl_divergence"], rows, cols, vals, W, H),
        ]
        if method == "plsa":
            found.append(checks.check_log_likelihood("plsa eval plsa_log_likelihood",
                                                     evals[method]["plsa_log_likelihood"], rows, cols, vals, W, H))
            found.append(checks.check_simplex("plsa H", H))
        if method == "sparse":
            found.append(checks.check_kl("sparse eval penalized_objective", evals[method]["penalized_objective"],
                                         rows, cols, vals, W, H, penalty))
        found.append(checks.check_simplex(f"{method} W", W) if method != "mu" else
                     ("mu: negative factor entry" if (W < 0).any() or (H < 0).any() else None))
        problems.extend(p for p in found if p)
    fits = {m: (arrays[m]["W"], arrays[m]["H"], arrays[m]["model"].final_objective) for m in ("mu-joint", "plsa", "sparse")}
    problem = checks.check_identities(col_sums, float(vals.sum()), LAMBDA, fits["mu-joint"], fits["plsa"], fits["sparse"])
    if problem:
        problems.append(problem)
    return problems


def _read_matrix_market(path: Path):
    data = np.loadtxt(path, comments="%", ndmin=2)
    return data[0].astype(np.int64), data[1:, 0].astype(np.int64) - 1, data[1:, 1].astype(np.int64) - 1, data[1:, 2]


def check_text(snf, truth, work: Path, results: dict) -> list:
    problems: list = []
    vocab, rows, cols, vals = truth
    col_sums = np.bincount(cols, weights=vals, minlength=int(cols.max()) + 1)
    loaded = [_load_npy(work, f"X_{name}") for name in ("rows", "cols", "vals", "col_sums")]
    if not all(np.array_equal(a, b) for a, b in zip(loaded, (rows, cols, vals, col_sums))):
        problems.append("ingested matrix differs from the generator's tallies")
    size, m_rows, m_cols, m_vals = _read_matrix_market(work / "out" / "counts.mtx")
    if not (list(size) == [len(vocab), col_sums.size, rows.size] and np.array_equal(m_rows, rows)
            and np.array_equal(m_cols, cols) and np.array_equal(m_vals, vals)):
        problems.append("saved MatrixMarket file differs from the generator's tallies")
    if tuple((work / "out" / "vocab.txt").read_text(encoding="utf-8").splitlines()) != vocab:
        problems.append("saved vocabulary differs from the generator's words")
    check_rounds(results, problems)
    traces = json.loads((work / "check" / "traces.json").read_text(encoding="utf-8"))
    arrays = check_round_trips(snf, work, traces, problems)
    evals = results["rounds"][0]["eval"]
    budget = ITERATIONS["text-short-docs"]
    for method, trace in traces.items():
        a = arrays[method]
        model = a["model"]
        alpha = np.asarray(model.alpha)
        rate_a = None if model.rate_a is None else np.asarray(model.rate_a)
        found = [
            None if len(trace["objectives"]) == budget else f"{method}: trace has {len(trace['objectives'])} iterations",
            None if np.array_equal(alpha, np.full(alpha.size, ALPHA)) else f"{method}: alpha was not kept",
            None if rate_a is None or np.array_equal(rate_a, np.full(alpha.size, RATE_A)) else f"{method}: rate_a was not kept",
            checks.check_monotone(method, trace["objectives"], increasing=True),
            None if model.final_objective == trace["objectives"][-1] else f"{method}: final_objective is not the trace's last",
            checks.check_elbo(f"{method} final bound", model.final_objective, rows, cols, vals,
                              a["W"], a["beta"], alpha, a["b_rate"], rate_a),
            checks.check_elbo(f"{method} eval elbo", evals[method]["elbo"], rows, cols, vals,
                              a["W"], a["beta"], alpha, a["b_rate"], rate_a),
            checks.check_simplex(f"{method} W", a["W"]),
            checks.check_beta_mass(f"{method} beta", a["beta"], alpha, col_sums),
        ]
        problems.extend(p for p in found if p)
    problem = checks.check_same_iterates(arrays["lda"]["W"], arrays["lda"]["beta"],
                                         arrays["gap"]["W"], arrays["gap"]["beta"])
    if problem:
        problems.append(problem)
    return problems


# ---------------------------------------------------------------------------
# metrics


def scaled_times(record: dict) -> dict:
    """Each operation's seconds at the machine speed where the gauge takes ``GAUGE_REFERENCE_S``.

    An operation's wall time is divided by the mean of the gauges timed
    just before and just after it, which cancels the drift of the shared
    machine's speed between and within runs.
    """
    g = record["gauges"]
    return {op: seconds * GAUGE_REFERENCE_S / ((g[i] + g[i + 1]) / 2)
            for i, (op, seconds) in enumerate(record["ops"].items())}


def end_to_end(results: dict) -> dict:
    scaled = [scaled_times(r) for r in results["rounds"]]
    values = {f"{phase}_s": statistics.median(sum(t for op, t in r.items() if op.split()[0] == phase) for r in scaled)
              for phase in ("setup", "fit", "save", "eval")}
    values["peak_rss_mb"] = results["peak_rss_mb"]
    values["model_mb"] = statistics.median(r["model_bytes"] for r in results["rounds"]) / 1e6
    return values


def per_layer(results: dict) -> dict:
    """Per-round totals from the spans of a traced run; 0 for layers the workload never calls."""
    spans = [tuple(s) for s in results["spans"]]
    n_rounds = len(results["rounds"])
    selfs = self_times(spans)
    total: dict = {}
    for (name, _, _, _, work), own in zip(spans, selfs):
        t = total.setdefault(name, [0.0, 0, 0])
        t[0] += own
        t[1] += 1
        t[2] += work

    def per_round(name, i):
        value = total.get(name, (0.0, 0, 0))[i]
        exact = isinstance(value, int) and value % n_rounds == 0
        return value // n_rounds if exact else value / n_rounds

    def self_s(name):
        return per_round(name, 0)

    def work(name):
        return per_round(name, 2)

    def rate(amount, per, scale):
        return amount / per / scale if per > 0 else 0.0

    fits = {i for i, s in enumerate(spans) if s[0] in ("mu.fit", "vi.fit_vi")}
    in_fit = 0
    for i, s in enumerate(spans):
        if s[0] == "types.reconstruct_nonzeros":
            p = s[3]
            while p >= 0 and p not in fits:
                p = spans[p][3]
            in_fit += p >= 0

    values = {}
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "self_s":
            values[metric] = self_s(layer)
        elif kind == "calls":
            values[metric] = per_round(layer, 1)
        elif kind in ("evals", "iterations"):
            values[metric] = work(layer)
    madds = sum(work(k) for k in KERNELS)
    kernel_s = sum(self_s(k) for k in KERNELS)
    # update-path reconstructions (what the fit traces count) over those computed inside fits
    update_path = work("mu.step") + work("vi.step")
    values["types.reconstruct_nonzeros.update_share"] = rate(update_path, in_fit / n_rounds, 1.0)
    values["types.kernel.madds"] = madds
    # computed, not measured: each madd streams two float64 operands gathered per nonzero
    values["types.kernel.computed_mb"] = 16.0 * madds / 1e6
    values["types.kernel.gmadds_per_s"] = rate(madds, kernel_s, 1e9)
    for fn in ("specfun.digamma", "specfun.log_gamma"):
        values[f"{fn}.ns_per_eval"] = rate(self_s(fn), work(fn), 1e-9)
    for fn in ("io.load_matrix_market", "io.save_model", "io.load_model"):
        values[f"{fn}.mb_per_s"] = rate(work(fn), self_s(fn), 1e6)
    values["io.ingest_corpus.tokens_per_s"] = rate(work("io.ingest_corpus"), self_s("io.ingest_corpus"), 1.0)
    return values


# ---------------------------------------------------------------------------


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    snf = import_simplexnmf()
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        truth = prepare(workload, seed, work)
        results = run_pipeline(workload, work, seconds, trace, deadline)
        check = check_mm if workload == "mm-long-docs" else check_text
        problems = check(snf, truth, work, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"CHECK FAILED [{workload}]: {problem}", file=sys.stderr)
    for name in results.get("missing") or ():
        print(f"missing from the program, not traced: {name}", file=sys.stderr)
    if trace:
        metrics, units = per_layer(results), PER_LAYER
        # against the untraced run's figures these show the tracing overhead
        phases = end_to_end(results)
        print("# traced phase medians (not metrics): "
              + " ".join(f"{name}={phases[name]:.4f}" for name in ("setup_s", "fit_s", "save_s", "eval_s")))
    else:
        metrics, units = end_to_end(results), END_TO_END
    return {
        "correct": not problems,
        "attempted": results["attempted"],
        "failed": results["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def report(workload: str, trace: int, result: dict) -> None:
    print(f"# {workload} ({'traced, per layer' if trace else 'untraced, end to end'}): "
          f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    runs = [(args.workload, args.trace)] if args.workload else [(w, t) for w in WORKLOADS for t in (0, 1)]
    for workload, trace in runs:
        result = run_once(workload, args.seed, args.seconds, trace)
        report(workload, trace, result)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
