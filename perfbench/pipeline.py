"""The measured process: ``setup -> fit -> save -> eval`` in whole rounds.

Run by ``run.py`` in a process of its own, so that its peak resident
memory covers the pipeline alone.  It makes the library calls that the
``ingest``, ``fit`` and ``eval`` commands make, times each operation from
outside with a ``Gauge`` before and after it, and repeats the round (at
least twice) until ``--seconds`` have passed.  After the first round it
dumps the fitted arrays, traces and evaluated objectives (untimed) for the
checks in ``run.py``; after the last it writes ``results.json`` and, with
``--trace 1``, the spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

MU_FITS = ("mu", "mu-joint", "plsa", "sparse")
VI_FITS = ("lda", "gap")
LONG_TOPICS = 20
SHORT_TOPICS = 50
LAMBDA = 0.5
ALPHA = 0.1
RATE_A = 1.0
# the tolerance is below any relative change a fit can make, so every fit
# runs exactly its iteration budget
ITERATIONS = {"mm-long-docs": 3, "text-short-docs": 3}
TOLERANCE = 1e-300


def import_simplexnmf():
    """Import the package from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "simplexnmf" / "__init__.py").is_file():
        raise SystemExit(f"simplexnmf sources not found under {src}")
    sys.path.insert(0, str(src))
    import simplexnmf

    if Path(simplexnmf.__file__).resolve().parent != (src / "simplexnmf").resolve():
        raise SystemExit(f"simplexnmf imported from {simplexnmf.__file__}, expected {src}")
    return simplexnmf


class Gauge:
    """A fixed task, independent of simplexnmf, timed between operations.

    The shared machine's speed drifts by tens of percent over seconds, for
    pure-Python and memory-bound work alike; the gauge's duration next to
    an operation measures that speed.  It mixes the kinds of work the
    pipeline does: JSON encoding and decoding (model files), a scatter-add
    and gathers into fresh arrays (the nnz x K kernels).
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.floats = rng.random(20000).tolist()
        self.rows = rng.integers(0, 5000, 100000)
        self.vals = rng.random((100000, 20))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        json.loads(json.dumps(self.floats))
        sums = np.zeros((5000, 20))
        np.add.at(sums, self.rows, self.vals)
        (self.vals[self.rows[::-1]] * sums[self.rows]).sum()
        return time.perf_counter() - t0


class Pipeline:
    def __init__(self, snf, workload: str, work: Path):
        self.snf = snf
        self.workload = workload
        self.work = work
        self.out = work / "out"
        self.out.mkdir(exist_ok=True)
        self.iterations = ITERATIONS[workload]
        self.attempted = 0
        self.failed = 0
        self.gauge = Gauge()
        self.times: dict = {}  # operation -> seconds, for the current round
        self.gauges: list = []  # the gauge before the round's first operation and after each

    def timed(self, op: str, call, *args):
        t0 = time.perf_counter()
        value = call(*args)
        self.times[op] = time.perf_counter() - t0
        self.gauges.append(self.gauge())
        return value

    # -- phases -------------------------------------------------------------

    def setup(self):
        snf = self.snf
        if self.workload == "mm-long-docs":
            return self.timed("setup", snf.load_matrix_market, self.work / "input.mtx"), None
        return self.timed("setup", snf.ingest_corpus, self.work / "corpus")

    def config(self, method: str):
        topics = LONG_TOPICS if method in MU_FITS else SHORT_TOPICS
        return self.snf.FitConfig(n_topics=topics, method=method, max_iters=self.iterations,
                                  rel_tolerance=TOLERANCE, seed=0,
                                  lambda_sparsity=LAMBDA if method == "sparse" else 0.0)

    def priors(self, method: str):
        rate = np.full(SHORT_TOPICS, RATE_A) if method == "gap" else None
        return self.snf.Priors(np.full(SHORT_TOPICS, ALPHA), rate)

    def fit(self, X):
        snf = self.snf
        fits = {}
        if self.workload == "mm-long-docs":
            for method in MU_FITS:
                config = self.config(method)
                f, trace = self.timed(f"fit {method}", snf.fit, X, config)
                fits[method] = (snf.ModelFile(
                    method=method, n_terms=X.n_terms, n_docs=X.n_docs, n_topics=config.n_topics,
                    constraint_mode=f.constraint_mode.tag, W=f.W, H=f.H,
                    lambda_sparsity=config.lambda_sparsity, final_objective=trace.objectives[-1]), trace)
        else:
            for method in VI_FITS:
                config = self.config(method)
                priors = self.priors(method)
                W, state, trace = self.timed(f"fit {method}", snf.fit_vi, X, config, priors)
                fits[method] = (snf.ModelFile(
                    method=method, n_terms=X.n_terms, n_docs=X.n_docs, n_topics=config.n_topics,
                    constraint_mode=snf.types.METHOD_MODES[method].tag, W=W, beta=state.beta,
                    b_rate=state.b_rate, alpha=priors.alpha, rate_a=priors.rate_a,
                    final_objective=trace.objectives[-1]), trace)
        return fits

    def save(self, X, vocab, fits) -> int:
        snf = self.snf
        if vocab is not None:
            self.timed("save counts", snf.save_matrix_market, self.out / "counts.mtx", X)
            self.timed("save vocabulary", snf.save_vocabulary, self.out / "vocab.txt", vocab)
        total = 0
        for method, (model, _) in fits.items():
            path = self.out / f"{method}.json"
            self.timed(f"save {method}", snf.save_model, path, model)
            total += path.stat().st_size
        return total

    def evaluate(self, X, methods) -> dict:
        """What the ``eval`` command prints for each saved model."""
        values = {}
        for method in methods:
            values[method] = self.timed(f"eval {method}", self.evaluate_one, X, method)
        return values

    def evaluate_one(self, X, method: str) -> dict:
        snf = self.snf
        model = snf.load_model(self.out / f"{method}.json")
        if model.method in MU_FITS:
            out = {"kl_divergence": snf.kl_divergence(X, model.W, model.H)}
            if model.method == "plsa":
                out["plsa_log_likelihood"] = snf.plsa_log_likelihood(X, model.W, model.H)
            if model.method == "sparse":
                out["penalized_objective"] = snf.sparse_objective(X, model.W, model.H, model.lambda_sparsity)
            return out
        priors = snf.Priors(model.alpha, model.rate_a)
        state = snf.VariationalState(model.beta, model.b_rate)
        bound = snf.lda_elbo if model.method == "lda" else snf.gap_elbo
        return {"elbo": bound(X, model.W, priors, state)}

    def probes(self) -> list[bool]:
        """Load the non-finite probe files; each must be refused with ``DataError``."""
        refused = []
        for path in sorted((self.work / "probes").glob("*.mtx")):
            try:
                self.snf.load_matrix_market(path)
                refused.append(False)
            except self.snf.DataError:
                refused.append(True)
        return refused

    # -- one round ----------------------------------------------------------

    def round(self) -> dict:
        self.times = {}
        self.gauges = [self.gauge()]
        X, vocab = self.setup()
        fits = self.fit(X)
        model_bytes = self.save(X, vocab, fits)
        evals = self.evaluate(X, list(fits))
        refused = self.probes() if self.workload == "mm-long-docs" else []

        short = [m for m, (_, trace) in fits.items() if trace.n_iterations != self.iterations]
        saves = len(fits) + (2 if vocab is not None else 0)
        self.attempted += 1 + len(fits) + saves + len(fits) + len(refused)
        self.failed += len(short) + refused.count(False)
        return {
            "X": X,
            "fits": fits,
            "record": {
                "ops": self.times,
                "gauges": self.gauges,
                "model_bytes": model_bytes,
                "final": {m: model.final_objective for m, (model, _) in fits.items()},
                "eval": evals,
                "short_traces": short,
                "probes_refused": refused,
            },
        }

    def dump(self, result) -> None:
        """Untimed copies of the first round's outputs for the checks."""
        check = self.work / "check"
        check.mkdir(exist_ok=True)
        X = result["X"]
        for name in ("rows", "cols", "vals", "col_sums"):
            np.save(check / f"X_{name}.npy", getattr(X, name))
        traces = {}
        for method, (model, trace) in result["fits"].items():
            for name in ("W", "H", "beta", "b_rate"):
                value = getattr(model, name)
                if value is not None:
                    np.save(check / f"{method}_{name}.npy", value)
            traces[method] = {"objectives": trace.objectives, "recon_evals": trace.recon_evals}
            shutil.copyfile(self.out / f"{method}.json", check / f"{method}.json")
        (check / "traces.json").write_text(json.dumps(traces), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(ITERATIONS))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    snf = import_simplexnmf()
    tracer = missing = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        missing = tracer.install()
    work = Path(args.workdir)
    pipeline = Pipeline(snf, args.workload, work)
    records = []
    started = time.perf_counter()
    # whole rounds only, at least two (the second save is checked against the
    # first); stop at the round boundary nearest to --seconds
    while len(records) < 2 or (time.perf_counter() - started) * (1 + 0.5 / len(records)) < args.seconds:
        result = pipeline.round()
        if not records:
            pipeline.dump(result)
        records.append(result["record"])
        del result

    out = {
        "rounds": records,
        "attempted": pipeline.attempted,
        "failed": pipeline.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["missing"] = missing
        out["spans"] = tracer.spans
    (work / "results.json").write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
