"""Checks of the pipeline's outputs that use none of simplexnmf's numerics.

Objectives and bounds are recomputed here from the factors with plain
numpy (dense ``W @ H`` in document blocks) and SciPy's special functions;
the rest are properties every correct fit has.  Each function returns
``None`` when the check passes and a message when it fails.
"""

from __future__ import annotations

import numpy as np
from scipy.special import digamma, gammaln

OBJECTIVE_RTOL = 1e-10  # recomputed objective or bound vs. the reported one
IDENTITY_RTOL = 1e-12  # the paper's exact identities between matched fits
SIMPLEX_TOL = 1e-12
DESCENT_RTOL = 1e-12
DOC_BLOCK = 512


def _blocks(n_docs: int):
    for d0 in range(0, n_docs, DOC_BLOCK):
        yield d0, min(n_docs, d0 + DOC_BLOCK)


def recon_at_nonzeros(rows, cols, W, H) -> tuple[np.ndarray, float]:
    """``(WH)`` at the given entries and ``sum(WH)``, from dense products of document blocks.

    ``cols`` must be sorted (document-major storage).
    """
    out = np.empty(rows.size)
    total = 0.0
    for d0, d1 in _blocks(H.shape[1]):
        block = W @ H[:, d0:d1]
        e0, e1 = np.searchsorted(cols, [d0, d1])
        out[e0:e1] = block[rows[e0:e1], cols[e0:e1] - d0]
        total += float(block.sum())
    return out, total


def kl_divergence(rows, cols, vals, W, H) -> float:
    recon, total = recon_at_nonzeros(rows, cols, W, H)
    return float(np.sum(vals * np.log(vals / recon) - vals) + total)


def _close(name: str, got: float, want: float, rtol: float) -> str | None:
    if not np.isfinite(got) or abs(got - want) > rtol * max(1.0, abs(want)):
        return f"{name}: got {got!r}, recomputed {want!r} (rtol {rtol:g})"
    return None


def check_kl(name: str, value: float, rows, cols, vals, W, H, penalty: float = 0.0) -> str | None:
    """A reported KL objective (plus ``penalty * sum(H)``) against one recomputed from ``W @ H``."""
    want = kl_divergence(rows, cols, vals, W, H) + penalty * float(np.sum(H))
    return _close(name, value, want, OBJECTIVE_RTOL)


def check_log_likelihood(name: str, value: float, rows, cols, vals, W, H) -> str | None:
    recon, _ = recon_at_nonzeros(rows, cols, W, H)
    return _close(name, value, float(np.sum(vals * np.log(recon))), OBJECTIVE_RTOL)


def elbo(rows, cols, vals, W, beta, alpha, b_rate=None, rate_a=None) -> float:
    """The Dirichlet (``b_rate is None``) or Gamma variational bound, count-only constants dropped."""
    if b_rate is None:
        elog = digamma(beta) - digamma(beta.sum(axis=0, keepdims=True))
    else:
        elog = digamma(beta) - np.log(b_rate)
    recon, _ = recon_at_nonzeros(rows, cols, W, np.exp(elog))
    mixture = float(np.sum(vals * np.log(recon)))
    cells = gammaln(beta) - gammaln(alpha)[:, None] + (alpha[:, None] - beta) * elog
    if b_rate is None:
        per_doc = gammaln(alpha.sum()) - gammaln(beta.sum(axis=0))
        return mixture + float(per_doc.sum()) + float(cells.sum())
    eh = beta / b_rate
    cells = cells - eh + (alpha * np.log(rate_a))[:, None] - beta * np.log(b_rate) + (b_rate - rate_a[:, None]) * eh
    return mixture + float(cells.sum())


def check_elbo(name: str, value: float, rows, cols, vals, W, beta, alpha, b_rate=None, rate_a=None) -> str | None:
    return _close(name, value, elbo(rows, cols, vals, W, beta, alpha, b_rate, rate_a), OBJECTIVE_RTOL)


def check_simplex(name: str, M) -> str | None:
    """Non-negative columns that sum to one."""
    if np.any(M < 0):
        return f"{name}: negative entry"
    off = float(np.abs(M.sum(axis=0) - 1.0).max())
    if off > SIMPLEX_TOL:
        return f"{name}: a column sum is {off:.3e} off one"
    return None


def check_monotone(name: str, objectives, increasing: bool = False) -> str | None:
    """Non-increasing (or, for bounds, non-decreasing) trace, to rounding."""
    values = np.asarray(objectives, dtype=float)
    step = np.diff(values) * (-1.0 if increasing else 1.0)
    slack = DESCENT_RTOL * np.maximum(1.0, np.abs(values[:-1]))
    if np.any(step > slack):
        i = int(np.argmax(step - slack))
        return f"{name}: objective moved the wrong way at iteration {i + 2}: {values[i]!r} -> {values[i + 1]!r}"
    return None


def max_rel(a, b) -> float:
    return float((np.abs(a - b) / np.maximum(1.0, np.abs(b))).max())


def check_identities(col_sums, total: float, lam: float, joint, plsa, sparse) -> str | None:
    """The paper's maps between same-seed ``mu-joint``, ``plsa`` and ``sparse`` fits.

    Each fit is ``(W, H, objective)``.  ``W`` is shared;
    ``H_joint = lambda_d * H_plsa = (1 + lam) * H_sparse``; and the
    penalized objective exceeds the joint one by ``log(1 + lam) * sum(X)``.
    """
    (Wj, Hj, fj), (Wp, Hp, _), (Ws, Hs, fs) = joint, plsa, sparse
    deviations = {
        "W mu-joint vs plsa": max_rel(Wp, Wj),
        "W mu-joint vs sparse": max_rel(Ws, Wj),
        "H mu-joint vs lambda_d * H plsa": max_rel(col_sums[None, :] * Hp, Hj),
        "H mu-joint vs (1+lambda) * H sparse": max_rel((1.0 + lam) * Hs, Hj),
    }
    offset = fs - fj
    deviations["objective offset vs log(1+lambda)*sum(X)"] = (
        abs(offset - np.log1p(lam) * total) / max(1.0, abs(offset)))
    bad = {k: v for k, v in deviations.items() if not v <= IDENTITY_RTOL}
    if bad:
        return "identity broken: " + ", ".join(f"{k} {v:.3e}" for k, v in bad.items())
    return None


def check_beta_mass(name: str, beta, alpha, col_sums) -> str | None:
    """``sum_k beta_kd = sum(alpha) + lambda_d`` for every document."""
    want = alpha.sum() + col_sums
    off = float((np.abs(beta.sum(axis=0) - want) / want).max())
    if not off <= IDENTITY_RTOL:
        return f"{name}: topic mass of beta is {off:.3e} off sum(alpha) + lambda_d"
    return None


def check_same_iterates(W_lda, beta_lda, W_gap, beta_gap) -> str | None:
    """``gap`` with uniform rates follows the ``lda`` iterates."""
    dev = max(max_rel(W_gap, W_lda), max_rel(beta_gap, beta_lda))
    if not dev <= IDENTITY_RTOL:
        return f"gap vs lda iterates differ by {dev:.3e}"
    return None
