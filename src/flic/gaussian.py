"""Closed-form Wasserstein-2 geometry between Gaussian measures.

The squared W2 distance between two Gaussians splits into a Euclidean
term on the means and a Bures term on the covariances,

    W2^2(N(m1, S1), N(m2, S2)) = ||m1 - m2||^2 + B^2(S1, S2),

with B^2(A, B) = tr(A) + tr(B) - 2 tr((A^{1/2} B A^{1/2})^{1/2}).

Covariances are carried around as factors ``L`` with ``Sigma = L @ L.T``
so that gradient steps on ``L`` preserve positive semi-definiteness.
Everything here is plain float64 numpy; matrices are small (latent
dimension <= 64). :func:`bures_sq_value_grad` gives B^2 and its gradient
from one eigendecomposition in factor form, without forming a matrix
square root: for ``A = L L^T``, ``tr((A^{1/2} B A^{1/2})^{1/2})`` is the
sum of the square roots of the eigenvalues of ``L^T B L``.

:func:`bures_sq_batch_value_grad` serves the alignment loss, whose second
argument is the regularized covariance ``Hc^T Hc / n + eps I`` of a centred
(n, k) batch. It picks one of two routes from its input, each one eigh:
the n x n Gram matrix ``Hc Hc^T / n`` when the anchor factor is the
identity, passed as ``None``, and ``n < k`` (the frozen-anchor default,
about 33 rows in 64 dimensions), and the k x k factor form of
:func:`bures_sq_value_grad` otherwise. No setting chooses between them;
:class:`flic.anchors.AnchorSet` decides once which factors are the identity.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bures_sq_value_grad",
    "bures_sq_batch_value_grad",
    "BuresGradientError",
]

SYM_TOL = 1e-8
# Eigenvalues of L^T S L below this share of max(1, largest) are round-off.
SINGULAR_RTOL = 1e-14


def _check_symmetric(S: np.ndarray, name: str, tol: float = SYM_TOL) -> None:
    scale = max(1.0, float(np.abs(S).max()))
    if np.abs(S - S.T).max() > tol * scale:
        raise ValueError(f"{name} is not symmetric within tolerance {tol}")


class BuresGradientError(ValueError):
    """Raised by the Bures-gradient kernels on non-finite or singular input."""


def _singular(smallest: float) -> BuresGradientError:
    return BuresGradientError(
        f"L^T S L is numerically singular: smallest eigenvalue {smallest:.3e}"
    )


def bures_sq_value_grad(L, S) -> tuple[float, np.ndarray]:
    """``B^2(L @ L.T, S)`` and its gradient in ``S`` from one eigh.

    With ``mu`` the eigenvalues of ``M = L^T S L``, the value is
    ``||L||_F^2 + tr S - 2 sum sqrt(mu)`` and the gradient is
    ``I - L M^{-1/2} L^T``, for any nonsingular factor ``L`` and positive
    definite ``S``. Raises :class:`BuresGradientError` when an input is
    non-finite or the smallest ``mu`` is at round-off level.
    """
    L, S = np.asarray(L, dtype=float), np.asarray(S, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1] or L.shape != S.shape:
        raise ValueError(f"dimension mismatch: {L.shape} vs {S.shape}")
    if not (np.all(np.isfinite(L)) and np.all(np.isfinite(S))):
        raise BuresGradientError("L or S contains non-finite entries")
    _check_symmetric(S, "S")
    M = L.T @ S @ L
    mu, V = np.linalg.eigh(0.5 * (M + M.T))
    if not mu[0] > SINGULAR_RTOL * max(1.0, float(mu[-1])):  # NaN from overflow fails too
        raise _singular(mu[0])
    value = float(np.sum(L * L) + np.trace(S) - 2.0 * np.sum(np.sqrt(mu)))
    W = (L @ V) * mu**-0.25
    return max(value, 0.0), np.eye(L.shape[0]) - W @ W.T


def bures_sq_batch_value_grad(L, Hc, eps: float) -> tuple[float, np.ndarray]:
    """``bures_sq_value_grad(L, S)`` for a batch covariance, chained into
    the batch: returns ``(value, Hc @ G)`` for ``S = Hc^T Hc / n + eps I``.

    ``Hc`` is a centred (n, k) slice and ``L`` a factor, or ``None`` for
    the identity. When ``L`` is ``None`` and ``n < k``, everything
    follows from one eigh of the n x n Gram matrix ``K = Hc Hc^T / n``
    (eigenvalues ``lam``, vectors ``U``): ``S`` has eigenvalues
    ``lam + eps`` and, k - n times, ``eps``, so the value is
    ``k + tr K + k eps - 2 (sum sqrt(lam + eps) + (k - n) sqrt(eps))``;
    the push-through identity ``Hc f(Hc^T Hc) = f(Hc Hc^T) Hc`` turns the
    chained gradient ``Hc (I - S^{-1/2})`` into
    ``Hc - U diag((lam + eps)^{-1/2}) U^T Hc``. Any other input forms
    ``S`` and takes the k x k route of :func:`bures_sq_value_grad`.

    Both routes raise :class:`BuresGradientError` on non-finite input and
    on an ``S`` that is numerically singular (same ``SINGULAR_RTOL``
    floor); the Gram route also raises on an eigenvalue of ``K`` below
    zero by more than that floor, which no Gram matrix has.
    """
    Hc = np.asarray(Hc, dtype=float)
    n, k = Hc.shape
    if not np.isfinite(Hc).all():
        raise BuresGradientError("batch contains non-finite entries")
    if n >= k or L is not None:
        L = np.eye(k) if L is None else L
        value, G = bures_sq_value_grad(L, Hc.T @ Hc / n + eps * np.eye(k))
        return value, Hc @ G
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        K = Hc @ Hc.T
        K /= n
    if not np.isfinite(K).all():
        raise BuresGradientError("batch Gram matrix contains non-finite entries")
    lam, U = np.linalg.eigh(K)
    lam0, lam_top = float(lam[0]), float(lam[-1])
    floor = SINGULAR_RTOL * max(1.0, lam_top + eps)
    smallest = min(lam0, 0.0) + eps  # smallest eigenvalue of S
    if not smallest > floor:
        raise _singular(smallest)
    if lam0 < -floor:
        raise BuresGradientError(
            f"batch Gram matrix has eigenvalue {lam0:.3e} below zero beyond round-off"
        )
    s = lam + eps  # eigenvalues of S, less the k - n at eps
    value = float(
        k + K.trace() + k * eps
        - 2.0 * (np.sqrt(s).sum() + (k - n) * math.sqrt(eps))
    )
    W = U * s**-0.25
    return max(value, 0.0), Hc - W @ (W.T @ Hc)
