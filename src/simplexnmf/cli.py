"""Command-line interface.

Subcommands: ``ingest`` a directory of text files into a count matrix,
``fit`` any of the six solvers, ``topics`` to print top terms, ``eval``
to report objectives for a saved model, and ``compare`` to run the
matched-initialization equivalence checks end to end.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .equivalence import map_gap_lda_state
from .errors import DataError, NumericalError
from .io import (
    ModelFile,
    ingest_corpus,
    load_matrix_market,
    load_model,
    load_vocabulary,
    save_matrix_market,
    save_model,
    save_trace_csv,
    save_vocabulary,
)
from .mu import fit, initialize_factorization, mu_step_joint_bothnorm, mu_step_joint_wnorm, mu_step_sparse
from .objectives import kl_divergence, sparse_objective
from .reference import plsa_step_reference
from .types import (
    ConstraintMode,
    Factorization,
    FitConfig,
    METHOD_SPECS,
    METHODS,
    Priors,
    TermDocMatrix,
    VariationalState,
)
from .vi import dp_vi_step, fit_vi, gap_vi_step, initialize_variational

# internal settings of the `compare` subcommand; the zero-absorption floor is
# disabled there so both routes follow the ideal iteration bit for bit
COMPARE_TOPICS = 4
COMPARE_LAMBDA = 0.5
COMPARE_ALPHA = 0.7
COMPARE_RATE = 1.3
_NO_FLOOR = 0.0


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); map to exit code 1 instead
        raise UsageError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _build_parser() -> _Parser:
    parser = _Parser(prog="simplexnmf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a count matrix from a directory of text files")
    p.add_argument("--corpus", required=True)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--out-matrix", required=True)
    p.add_argument("--out-vocab", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("fit", help="fit a factorization or topic model")
    p.add_argument("--input", required=True)
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--topics", type=int, required=True)
    p.add_argument("--alpha", default=None, help="Dirichlet concentration: one float or K comma-separated")
    p.add_argument("--rate-a", default=None, help="Gamma rate: one float or K comma-separated")
    p.add_argument("--lambda", dest="lambda_sparsity", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("topics", help="print the strongest terms of every topic")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=_cmd_topics)

    p = sub.add_parser("eval", help="report the objectives of a saved model on a matrix")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="run a matched-initialization equivalence check")
    p.add_argument("--input", required=True)
    p.add_argument("--pair", required=True, choices=["alg4-alg5", "sparse-plain", "gap-lda", "plsa-ref"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_compare)

    return parser


def _parse_vector(raw: str | None, n_topics: int, name: str, default: float) -> np.ndarray:
    if raw is None:
        return np.full(n_topics, default)
    parts = raw.split(",")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"--{name} expects a float or a comma-separated list") from exc
    if len(values) == 1:
        return np.full(n_topics, values[0])
    if len(values) != n_topics:
        raise UsageError(f"--{name} expects 1 or {n_topics} values, got {len(values)}")
    return np.asarray(values)


def _cmd_ingest(args) -> int:
    matrix, vocab = ingest_corpus(args.corpus, args.min_count)
    save_matrix_market(args.out_matrix, matrix)
    save_vocabulary(args.out_vocab, vocab)
    print(f"ingested {matrix.n_docs} documents, {matrix.n_terms} terms, {matrix.nnz} nonzeros")
    return 0


def _cmd_fit(args) -> int:
    spec = METHOD_SPECS[args.method]
    if spec.uses_lambda and args.lambda_sparsity is None:
        raise UsageError(f"--lambda is required for --method {args.method}")
    X = load_matrix_market(args.input)
    config = FitConfig(
        n_topics=args.topics,
        method=args.method,
        max_iters=args.max_iter,
        rel_tolerance=args.tol,
        seed=args.seed,
        lambda_sparsity=args.lambda_sparsity or 0.0,
    )
    if not spec.variational:
        factorization, trace = fit(X, config)
        fields = dict(W=factorization.W, H=factorization.H, lambda_sparsity=config.lambda_sparsity)
    else:
        alpha = _parse_vector(args.alpha, config.n_topics, "alpha", 1.0)
        rate_a = _parse_vector(args.rate_a, config.n_topics, "rate-a", 1.0) if spec.uses_rates else None
        priors = Priors(alpha, rate_a)
        W, state, trace = fit_vi(X, config, priors)
        fields = dict(W=W, beta=state.beta, b_rate=state.b_rate, alpha=priors.alpha, rate_a=priors.rate_a)
    model = ModelFile(
        method=args.method,
        n_terms=X.n_terms,
        n_docs=X.n_docs,
        n_topics=config.n_topics,
        constraint_mode=spec.mode.tag,
        final_objective=trace.objectives[-1],
        **fields,
    )
    save_model(args.output, model)
    if args.trace:
        save_trace_csv(args.trace, trace)
    print(f"fit {args.method}: {trace.n_iterations} iterations, final objective {_fmt(model.final_objective)}")
    return 0


def _cmd_topics(args) -> int:
    model = load_model(args.model)
    vocab = load_vocabulary(args.vocab)
    if len(vocab) != model.n_terms:
        raise DataError(f"vocabulary has {len(vocab)} terms, model expects {model.n_terms}")
    W = np.asarray(model.W)
    top = max(1, args.top)
    for k in range(model.n_topics):
        order = np.argsort(-W[:, k], kind="stable")[:top]
        terms = " ".join(vocab.terms[v] for v in order)
        print(f"topic {k}: {terms}")
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    X = load_matrix_market(args.input)
    if (X.n_terms, X.n_docs) != (model.n_terms, model.n_docs):
        raise DataError(
            f"matrix is {X.n_terms} x {X.n_docs} but the model was fit on "
            f"{model.n_terms} x {model.n_docs}"
        )
    spec = METHOD_SPECS[model.method]
    if spec.variational:
        priors = Priors(model.alpha, model.rate_a)
        state = VariationalState(model.beta, model.b_rate)
        print(f"elbo {_fmt(spec.function(spec.objective)(X, model.W, priors, state))}")
        return 0
    print(f"kl_divergence {_fmt(kl_divergence(X, model.W, model.H))}")
    penalty = spec.penalty(model.lambda_sparsity)
    for label, name in spec.eval_lines:
        print(f"{label} {_fmt(spec.function(name)(X, model.W, model.H, **penalty))}")
    return 0


# ---------------------------------------------------------------------------
# compare


def _report(deviations: dict[str, float], tol: float) -> bool:
    ok = True
    for name, value in deviations.items():
        passed = value <= tol
        ok = ok and passed
        print(f"{name}: max deviation {value:.3e} (tol {tol:.1e}) {'ok' if passed else 'FAILED'}")
    return ok


def _shared_inits(X: TermDocMatrix, seed: int):
    config = FitConfig(n_topics=COMPARE_TOPICS, method="plsa", seed=seed)
    return initialize_factorization(X, config)


def _cmd_compare(args) -> int:
    X = load_matrix_market(args.input)
    tol = args.tol
    if args.pair == "alg4-alg5":
        start = _shared_inits(X, args.seed)
        wnorm = Factorization(start.W, X.col_sums[None, :] * start.H, ConstraintMode.W_SIMPLEX)
        both = start
        dev_w = 0.0
        dev_h = 0.0
        lam = X.col_sums
        for _ in range(args.iters):
            wnorm = mu_step_joint_wnorm(X, wnorm, epsilon_floor=_NO_FLOOR).factorization
            both = mu_step_joint_bothnorm(X, both, epsilon_floor=_NO_FLOOR).factorization
            dev_w = max(dev_w, float(np.abs(wnorm.W - both.W).max()))
            dev_h = max(dev_h, float(np.abs(wnorm.H / lam[None, :] - both.H).max()))
        ok = _report({"W iterates": dev_w, "H iterates / lambda_d": dev_h}, tol)
    elif args.pair == "sparse-plain":
        start = _shared_inits(X, args.seed)
        plain = Factorization(start.W, X.col_sums[None, :] * start.H, ConstraintMode.W_SIMPLEX)
        penalized = plain
        lam = COMPARE_LAMBDA
        dev_w = 0.0
        dev_h = 0.0
        dev_obj = 0.0
        total = X.total
        for _ in range(args.iters):
            plain = mu_step_joint_wnorm(X, plain, epsilon_floor=_NO_FLOOR).factorization
            penalized = mu_step_sparse(X, penalized, lam, epsilon_floor=_NO_FLOOR).factorization
            dev_w = max(dev_w, float(np.abs(plain.W - penalized.W).max()))
            dev_h = max(dev_h, float(np.abs(penalized.H * (1.0 + lam) - plain.H).max() / max(1.0, np.abs(plain.H).max())))
            offset = sparse_objective(X, penalized.W, penalized.H, lam) - kl_divergence(X, plain.W, plain.H)
            dev_obj = max(dev_obj, abs(offset - np.log1p(lam) * total) / max(1.0, abs(offset)))
        ok = _report(
            {"W iterates": dev_w, "H iterates * (1+lambda)": dev_h},
            tol,
        ) and _report({"objective offset vs log(1+lambda)*sum(X)": dev_obj}, 1e-10)
    elif args.pair == "gap-lda":
        config_lda = FitConfig(n_topics=COMPARE_TOPICS, method="lda", seed=args.seed)
        priors_lda = Priors(np.full(COMPARE_TOPICS, COMPARE_ALPHA))
        priors_gap = Priors(np.full(COMPARE_TOPICS, COMPARE_ALPHA), np.full(COMPARE_TOPICS, COMPARE_RATE))
        W_lda, state_lda = initialize_variational(X, config_lda, priors_lda, perturb=True)
        W_gap = W_lda.copy()
        state_gap = map_gap_lda_state(state_lda, priors_gap, "to_gap")
        dev_w = 0.0
        dev_b = 0.0
        for _ in range(args.iters):
            W_lda, state_lda, _ = dp_vi_step(X, W_lda, priors_lda, state_lda, epsilon_floor=_NO_FLOOR)
            W_gap, state_gap, _ = gap_vi_step(X, W_gap, priors_gap, state_gap, epsilon_floor=_NO_FLOOR)
            dev_w = max(dev_w, float(np.abs(W_lda - W_gap).max()))
            dev_b = max(
                dev_b,
                float((np.abs(state_lda.beta - state_gap.beta) / np.maximum(1.0, np.abs(state_lda.beta))).max()),
            )
        ok = _report({"W iterates": dev_w, "beta iterates (relative)": dev_b}, tol)
    else:  # plsa-ref
        start = _shared_inits(X, args.seed)
        dense = X.to_dense()
        W_ref, H_ref = start.W.copy(), start.H.copy()
        current = start
        dev = 0.0
        for _ in range(args.iters):
            current = mu_step_joint_bothnorm(X, current, epsilon_floor=_NO_FLOOR).factorization
            W_ref, H_ref = plsa_step_reference(dense, W_ref, H_ref)
            dev = max(dev, float(np.abs(current.W - W_ref).max()), float(np.abs(current.H - H_ref).max()))
        ok = _report({"factor iterates vs explicit-responsibility reference": dev}, tol)
    return 0 if ok else 3


def main(argv=None) -> int:
    """Entry point returning the exit code (0 ok, 1 usage, 2 data, 3 numerical)."""
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        # ValueError here means a precondition violation driven by the flags
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
