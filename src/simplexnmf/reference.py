"""Dense reference steppers that materialize the responsibility tensor.

These are deliberately literal: each step builds the full ``(V, K, D)``
array of per-word topic responsibilities and reduces it with plain sums.
They exist as independent oracles for the production solvers, which never
store responsibilities; the ``plsa-ref`` pair of
``equivalence.PAIRS`` and the test suite check both routes against each
other entry by entry.
"""

from __future__ import annotations

import numpy as np

from .specfun import digamma


def _responsibilities(X_dense: np.ndarray, W: np.ndarray, H: np.ndarray) -> np.ndarray:
    """``x_vd * w_vk h_kd / (WH)_vd`` as a dense (V, K, D) tensor."""
    recon = W @ H
    safe = np.where(recon > 0, recon, 1.0)
    return X_dense[:, None, :] * W[:, :, None] * H[None, :, :] / safe[:, None, :]


def plsa_step_reference(X_dense, W, H) -> tuple[np.ndarray, np.ndarray]:
    """One EM update of the word/document mixture with explicit responsibilities.

    ``phi_vkd ∝ w_vk h_kd``, then ``w_vk ∝ sum_d x phi`` and
    ``h_kd ∝ sum_v x phi``.
    """
    X_dense = np.asarray(X_dense, dtype=float)
    W = np.asarray(W, dtype=float)
    H = np.asarray(H, dtype=float)
    weighted = _responsibilities(X_dense, W, H)
    w_raw = weighted.sum(axis=2)
    h_raw = weighted.sum(axis=0)
    return w_raw / w_raw.sum(axis=0, keepdims=True), h_raw / h_raw.sum(axis=0, keepdims=True)


def lda_vi_step_reference(X_dense, W, alpha, beta) -> tuple[np.ndarray, np.ndarray]:
    """One variational update of the Dirichlet topic model with explicit responsibilities.

    ``h~ = exp(psi(beta) - psi(sum_k beta))``, ``phi_vkd ∝ w_vk h~_kd``,
    then ``w_vk ∝ sum_d x phi`` and ``beta_kd = alpha_k + sum_v x phi``.
    """
    X_dense = np.asarray(X_dense, dtype=float)
    W = np.asarray(W, dtype=float)
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    beta = np.asarray(beta, dtype=float)
    h_tilde = np.exp(digamma(beta) - digamma(beta.sum(axis=0, keepdims=True)))
    weighted = _responsibilities(X_dense, W, h_tilde)
    w_raw = weighted.sum(axis=2)
    beta_new = alpha[:, None] + weighted.sum(axis=0)
    return w_raw / w_raw.sum(axis=0, keepdims=True), beta_new
