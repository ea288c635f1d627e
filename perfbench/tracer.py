"""Span tracing by wrapping simplexnmf's public functions from outside.

Each target is replaced at every module attribute bound to it, so calls
that one simplexnmf module makes into another are seen too.  A span is
``(name, start, end, parent, work)``: ``parent`` is the index of the span
that was open when the call began (-1 at top level) and ``work`` is a
count the target's work function derives from the call (entries
evaluated, bytes written, update-path reconstructions of a step, ...).
Spans stay in memory until the caller writes them out.  The open-span
stack is shared, so traced functions must be called from one thread.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _size_of_first(args, kwargs, result):
    return int(np.size(args[0]))


def _nnz_topics(k_of):
    def work(args, kwargs, result):
        return args[0].nnz * k_of(args)
    return work


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _iterations(index):
    def work(args, kwargs, result):
        return result[index].n_iterations
    return work


def _mu_recon_evals(args, kwargs, result):
    return result.recon_evals


def _vi_recon_evals(args, kwargs, result):
    return result[2]


def _ingested_tokens(args, kwargs, result):
    return int(round(result[0].total))


@dataclass(frozen=True)
class Target:
    """One traced callable: ``owner`` is a module, or ``module:Class`` for a method."""

    span: str
    owner: str
    attr: str
    work: Callable | None = None


TARGETS = (
    Target("types.reconstruct_nonzeros", "simplexnmf.types", "reconstruct_nonzeros",
           _nnz_topics(lambda a: np.shape(a[1])[1])),
    Target("types.term_topic_sums", "simplexnmf.types", "term_topic_sums",
           _nnz_topics(lambda a: np.shape(a[2])[0])),
    Target("types.topic_doc_sums", "simplexnmf.types", "topic_doc_sums",
           _nnz_topics(lambda a: np.shape(a[2])[1])),
    Target("types.from_entries", "simplexnmf.types:TermDocMatrix", "from_entries"),
    Target("types.Factorization", "simplexnmf.types:Factorization", "__post_init__"),
    Target("types.VariationalState", "simplexnmf.types:VariationalState", "__post_init__"),
    Target("objectives.kl_divergence", "simplexnmf.objectives", "kl_divergence"),
    Target("objectives.lda_elbo", "simplexnmf.objectives", "lda_elbo"),
    Target("objectives.gap_elbo", "simplexnmf.objectives", "gap_elbo"),
    Target("objectives.expected_log_h", "simplexnmf.objectives", "expected_log_h_dirichlet"),
    Target("objectives.expected_log_h", "simplexnmf.objectives", "expected_log_h_gamma"),
    Target("specfun.digamma", "simplexnmf.specfun", "digamma", _size_of_first),
    Target("specfun.log_gamma", "simplexnmf.specfun", "log_gamma", _size_of_first),
    Target("mu.fit", "simplexnmf.mu", "fit", _iterations(1)),
    Target("mu.step", "simplexnmf.mu", "mu_step_alternating", _mu_recon_evals),
    Target("mu.step", "simplexnmf.mu", "mu_step_joint_wnorm", _mu_recon_evals),
    Target("mu.step", "simplexnmf.mu", "mu_step_joint_bothnorm", _mu_recon_evals),
    Target("mu.step", "simplexnmf.mu", "mu_step_sparse", _mu_recon_evals),
    Target("vi.fit_vi", "simplexnmf.vi", "fit_vi", _iterations(2)),
    Target("vi.step", "simplexnmf.vi", "dp_vi_step", _vi_recon_evals),
    Target("vi.step", "simplexnmf.vi", "gap_vi_step", _vi_recon_evals),
    Target("io.load_matrix_market", "simplexnmf.io", "load_matrix_market", _file_bytes),
    Target("io.ingest_corpus", "simplexnmf.io", "ingest_corpus", _ingested_tokens),
    Target("io.save_model", "simplexnmf.io", "save_model", _file_bytes),
    Target("io.load_model", "simplexnmf.io", "load_model", _file_bytes),
    Target("io.save_matrix_market", "simplexnmf.io", "save_matrix_market", _file_bytes),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, time.perf_counter(), parent, 0)
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            spans[index] = (name, start, end, parent, work(args, kwargs, result) if work else 0)
            return result

        return traced

    def install(self, package: str = "simplexnmf", targets=TARGETS) -> list[str]:
        """Wrap every target that exists; return the names of those that do not."""
        missing = []
        for target in targets:
            module_name, _, cls_name = target.owner.partition(":")
            owner = sys.modules.get(module_name)
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            raw = vars(owner).get(target.attr) if owner is not None else None
            if raw is None:
                missing.append(f"{target.owner}.{target.attr}")
                continue
            if isinstance(raw, classmethod):
                setattr(owner, target.attr, classmethod(self.wrap(target.span, raw.__func__, target.work)))
            elif cls_name:
                setattr(owner, target.attr, self.wrap(target.span, raw, target.work))
            else:
                traced = self.wrap(target.span, raw, target.work)
                for name, module in list(sys.modules.items()):
                    if name == package or name.startswith(package + "."):
                        for attr, value in list(vars(module).items()):
                            if value is raw:
                                setattr(module, attr, traced)
        return missing


def self_times(spans) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children may overlap each other (work handed to threads); the covered
    part is the length of the union of their intervals, clipped to the
    parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = np.empty(len(spans))
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[i] = (end - start) - covered
    return out
