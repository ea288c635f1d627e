"""Seeded synthetic inputs for the two workloads.

Everything here depends only on the seed and the size parameters, and is
independent of simplexnmf: the generators return their own ground truth
(the count triples, or the per-document word tallies) for the checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# mm-long-docs: long documents in a MatrixMarket file
LONG_TERMS = 5000
LONG_DOCS = 4000
LONG_DISTINCT = (80, 121)  # distinct terms per document, half-open range
LONG_ZIPF_S = 1.1  # term popularity ~ 1 / rank^s
LONG_MAX_COUNT = 60

# text-short-docs: one short plain-text file per document
SHORT_WORDS = 3000
SHORT_DOCS = 10000
SHORT_TOKENS = (8, 26)  # tokens per document, half-open range
SHORT_ZIPF_S = 1.0

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
_SEPARATORS = (" ", " ", " ", ", ", ". ", "; ", " - ", "\n")


@dataclass(frozen=True)
class LongDocs:
    n_terms: int
    n_docs: int
    rows: np.ndarray  # 0-based term index, document-major order
    cols: np.ndarray  # 0-based document index
    vals: np.ndarray  # positive integer counts stored as float


@dataclass(frozen=True)
class ShortDocs:
    words: tuple[str, ...]  # the generator's word list, indexed by word id
    docs: tuple[np.ndarray, ...]  # word ids of every document, in token order


def _zipf_probs(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=float) ** s
    return p / p.sum()


def long_docs(seed: int, n_terms: int = LONG_TERMS, n_docs: int = LONG_DOCS,
              distinct=LONG_DISTINCT) -> LongDocs:
    """Documents with Zipf-popular distinct terms and heavy-tailed counts.

    The distinct terms of a document are a weighted sample without
    replacement (Gumbel top-k on the log popularity), so frequent terms
    appear in many documents and rare ones in few.
    """
    rng = np.random.default_rng([seed, 1])
    log_p = np.log(_zipf_probs(n_terms, LONG_ZIPF_S))[rng.permutation(n_terms)]
    lengths = rng.integers(distinct[0], distinct[1], size=n_docs)
    rows, cols = [], []
    block = 256
    for d0 in range(0, n_docs, block):
        d1 = min(n_docs, d0 + block)
        keys = log_p[None, :] + rng.gumbel(size=(d1 - d0, n_terms))
        for i, d in enumerate(range(d0, d1)):
            top = np.argpartition(-keys[i], lengths[d])[: lengths[d]]
            rows.append(np.sort(top))
            cols.append(np.full(lengths[d], d))
    rows = np.concatenate(rows).astype(np.int64)
    cols = np.concatenate(cols).astype(np.int64)
    vals = np.minimum(rng.zipf(2.0, size=rows.size), LONG_MAX_COUNT).astype(float)
    return LongDocs(n_terms, n_docs, rows, cols, vals)


def write_matrix_market(path, data: LongDocs) -> None:
    lines = ["%%MatrixMarket matrix coordinate real general",
             f"% seeded synthetic corpus: {data.n_docs} long documents",
             f"{data.n_terms} {data.n_docs} {data.rows.size}"]
    body = np.column_stack([data.rows + 1, data.cols + 1, data.vals.astype(np.int64)])
    Path(path).write_text("\n".join(lines) + "\n" + "\n".join(" ".join(map(str, r)) for r in body.tolist()) + "\n",
                          encoding="utf-8")


def _word_list(rng, n_words: int) -> tuple[str, ...]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n_words:
        length = int(rng.integers(3, 10))
        word = "".join(_LETTERS[rng.integers(0, 26, size=length)])
        if word not in seen:
            seen.add(word)
            words.append(word)
    return tuple(words)


def short_docs(seed: int, n_words: int = SHORT_WORDS, n_docs: int = SHORT_DOCS,
               tokens=SHORT_TOKENS) -> ShortDocs:
    rng = np.random.default_rng([seed, 2])
    words = _word_list(rng, n_words)
    p = _zipf_probs(n_words, SHORT_ZIPF_S)
    lengths = rng.integers(tokens[0], tokens[1], size=n_docs)
    ids = rng.choice(n_words, size=int(lengths.sum()), p=p)
    docs = tuple(np.split(ids, np.cumsum(lengths)[:-1]))
    return ShortDocs(words, docs)


def write_text_corpus(directory, data: ShortDocs, seed: int) -> None:
    """One UTF-8 file per document; mixed case and punctuation between tokens.

    File names sort in document order, which is the column order of the
    ingested matrix.
    """
    rng = np.random.default_rng([seed, 3])
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    width = len(str(len(data.docs)))
    for d, doc in enumerate(data.docs):
        seps = rng.integers(0, len(_SEPARATORS), size=doc.size)
        caps = rng.random(doc.size) < 0.1
        parts = []
        for word_id, sep, cap in zip(doc.tolist(), seps.tolist(), caps.tolist()):
            word = data.words[word_id]
            parts.append((word.capitalize() if cap else word) + _SEPARATORS[sep])
        (root / f"doc{d:0{width}d}.txt").write_text("".join(parts), encoding="utf-8")


def short_doc_counts(data: ShortDocs):
    """The count matrix ``ingest`` should build: sorted vocabulary of used words, documents in order."""
    used = np.unique(np.concatenate(data.docs))
    names = [data.words[i] for i in used]
    order = np.argsort(names)
    vocab = tuple(names[i] for i in order)
    term_of_word = np.full(len(data.words), -1, dtype=np.int64)
    term_of_word[used[order]] = np.arange(used.size)
    rows, cols, vals = [], [], []
    for d, doc in enumerate(data.docs):
        terms, counts = np.unique(term_of_word[doc], return_counts=True)
        rows.append(terms)
        cols.append(np.full(terms.size, d))
        vals.append(counts.astype(float))
    return vocab, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
