"""Command-line interface.

Subcommands: ``ingest`` a directory of text files into a count matrix,
``fit`` any of the six solvers, ``topics`` to print top terms, ``eval``
to report objectives for a saved model, and ``compare`` to run one of the
matched-initialization pairs of ``equivalence.PAIRS`` and print its worst
deviations.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .equivalence import PAIRS
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
from .mu import fit
from .types import FitConfig, METHOD_SPECS, METHODS, Priors


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
    p.add_argument("--pair", required=True, choices=list(PAIRS))
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
    if args.min_count < 1:
        raise UsageError(f"--min-count must be at least 1, got {args.min_count}")
    matrix, vocab = ingest_corpus(args.corpus, args.min_count)
    save_matrix_market(args.out_matrix, matrix)
    save_vocabulary(args.out_vocab, vocab)
    print(f"ingested {matrix.n_docs} documents, {matrix.n_terms} terms, {matrix.nnz} nonzeros")
    return 0


def _cmd_fit(args) -> int:
    spec = METHOD_SPECS[args.method]
    if spec.uses_lambda and args.lambda_sparsity is None:
        raise UsageError(f"--lambda is required for --method {args.method}")
    for flag, value, applies in (
        ("--lambda", args.lambda_sparsity, spec.uses_lambda),
        ("--alpha", args.alpha, spec.variational),
        ("--rate-a", args.rate_a, spec.uses_rates),
    ):
        if value is not None and not applies:
            raise UsageError(f"{flag} does not apply to --method {args.method}")
    X = load_matrix_market(args.input)
    config = FitConfig(
        n_topics=args.topics, method=args.method, max_iters=args.max_iter, rel_tolerance=args.tol,
        seed=args.seed, lambda_sparsity=args.lambda_sparsity or 0.0,
    )
    priors = None
    if spec.variational:
        alpha = _parse_vector(args.alpha, config.n_topics, "alpha", 1.0)
        rate_a = _parse_vector(args.rate_a, config.n_topics, "rate-a", 1.0) if spec.uses_rates else None
        priors = Priors(alpha, rate_a)
    state, trace = fit(X, config, priors)
    model = ModelFile(
        method=args.method, n_terms=X.n_terms, n_docs=X.n_docs, n_topics=config.n_topics,
        constraint_mode=spec.mode.tag, lambda_sparsity=config.lambda_sparsity,
        final_objective=trace.objectives[-1], **spec.family(X, priors).arrays(state),
        **(vars(priors) if priors else {}),  # alpha and rate_a
    )
    save_model(args.output, model)
    if args.trace:
        save_trace_csv(args.trace, trace)
    print(f"fit {args.method}: {trace.n_iterations} iterations, final objective {_fmt(model.final_objective)}")
    return 0


def _cmd_topics(args) -> int:
    if args.top < 1:
        raise UsageError(f"--top must be at least 1, got {args.top}")
    model = load_model(args.model)
    vocab = load_vocabulary(args.vocab)
    if len(vocab) != model.n_terms:
        raise DataError(f"vocabulary has {len(vocab)} terms, model expects {model.n_terms}")
    W = np.asarray(model.W)
    for k in range(model.n_topics):
        order = np.argsort(-W[:, k], kind="stable")[:args.top]
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
    family, state = METHOD_SPECS[model.method].rebuild(X, model)
    lines = family.eval_lines(state)
    for label, value in lines:
        print(f"{label} {_fmt(value)}")
    for label, value in lines:
        if not np.isfinite(value):
            raise NumericalError(f"non-finite {label}")
    return 0


def _cmd_compare(args) -> int:
    if args.iters < 1:
        raise UsageError(f"--iters must be at least 1, got {args.iters}")
    if not args.tol >= 0:
        raise UsageError(f"--tol must be a non-negative number, got {args.tol}")
    X = load_matrix_market(args.input)
    deviations, lines = PAIRS[args.pair]
    worst = np.zeros(len(lines))
    failure = None
    try:
        for _, current in zip(range(args.iters), deviations(X, args.seed)):
            worst = np.maximum(worst, current)  # unlike max(), keeps a NaN
    except NumericalError as exc:  # the pair's deviations are undefined from here on
        failure = exc
        worst[:] = np.nan
    ok = True
    for (name, tol), value in zip(lines, worst):
        tol = args.tol if tol is None else tol
        passed = bool(value <= tol)
        ok = ok and passed
        print(f"{name}: max deviation {value:.3e} (tol {tol:.1e}) {'ok' if passed else 'FAILED'}")
        if failure is None and not np.isfinite(value):
            failure = NumericalError(f"non-finite deviation in {name}")
    if failure is not None:
        raise failure
    return 0 if ok else 3


def main(argv=None) -> int:
    """Entry point returning the exit code (0 ok, 1 usage, 2 data, 3 numerical)."""
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        # a non-finite value is reported as a numerical failure, not as a numpy warning
        with np.errstate(all="ignore"):
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
