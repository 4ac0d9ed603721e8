"""Closed-form Wasserstein-2 geometry between Gaussian measures.

The squared W2 distance between two Gaussians splits into a Euclidean
term on the means and a Bures term on the covariances,

    W2^2(N(m1, S1), N(m2, S2)) = ||m1 - m2||^2 + B^2(S1, S2),

with B^2(A, B) = tr(A) + tr(B) - 2 tr((A^{1/2} B A^{1/2})^{1/2}).

Covariances are carried around as factors ``L`` with ``Sigma = L @ L.T``
so that gradient steps on ``L`` preserve positive semi-definiteness.
Everything here is plain float64 numpy; matrices are small (latent
dimension <= 64). :func:`bures_sq_value_grad` gives B^2 and its gradient
from one eigendecomposition in factor form; :func:`bures_sq` is the reference.

:func:`bures_sq_batch_value_grad` serves the alignment loss, whose second
argument is the regularized covariance ``Hc^T Hc / n + eps I`` of a centred
(n, k) batch. It picks one of two routes from its input, each one eigh:
the n x n Gram matrix ``Hc Hc^T / n`` when the anchor factor is exactly
the identity and ``n < k`` (the frozen-anchor default, about 33 rows in 64
dimensions), and the k x k factor form of :func:`bures_sq_value_grad`
otherwise. No setting chooses between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Gaussian",
    "matrix_sqrt_psd",
    "bures_sq",
    "bures_sq_value_grad",
    "bures_sq_batch_value_grad",
    "is_identity",
    "BuresGradientError",
    "w2_sq_gaussians",
    "empirical_gaussian",
]

# Eigenvalues in [-PSD_CLAMP, 0) are treated as round-off and clamped to 0.
PSD_CLAMP = 1e-10
SYM_TOL = 1e-8
# Eigenvalues of L^T S L below this share of max(1, largest) are round-off.
SINGULAR_RTOL = 1e-14


def is_identity(L) -> bool:
    """Whether the square factor ``L`` is exactly the identity, entry by
    entry: the test that picks the identity fast paths."""
    return np.array_equal(L, np.eye(L.shape[0]))


def _as_square(S, name: str) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {S.shape}")
    if not np.all(np.isfinite(S)):
        raise ValueError(f"{name} contains non-finite entries")
    return S


def _check_symmetric(S: np.ndarray, name: str, tol: float = SYM_TOL) -> None:
    scale = max(1.0, float(np.abs(S).max()))
    if np.abs(S - S.T).max() > tol * scale:
        raise ValueError(f"{name} is not symmetric within tolerance {tol}")


def matrix_sqrt_psd(S) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Parameters
    ----------
    S : array-like, shape (k, k)
        Symmetric positive semi-definite matrix. Eigenvalues down to
        ``-1e-10`` (relative to the spectral scale) are attributed to
        round-off and clamped to zero; anything more negative is
        rejected.

    Returns
    -------
    ndarray, shape (k, k)
        Symmetric PSD matrix ``R`` with ``R @ R == S`` up to round-off.
    """
    S = _as_square(S, "S")
    _check_symmetric(S, "S")
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    clamp = max(PSD_CLAMP, PSD_CLAMP * float(w[-1]) if w[-1] > 0 else PSD_CLAMP)
    if w[0] < -clamp:
        raise ValueError(f"matrix is not PSD: smallest eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    R = (V * np.sqrt(w)) @ V.T
    return 0.5 * (R + R.T)


def bures_sq(A, B) -> float:
    """Squared Bures distance between two symmetric PSD matrices.

    ``B^2(A, B) = tr(A) + tr(B) - 2 tr((A^{1/2} B A^{1/2})^{1/2})``,
    clamped at zero from below against round-off.
    """
    A = _as_square(A, "A")
    B = _as_square(B, "B")
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    RA = matrix_sqrt_psd(A)
    inner = RA @ B @ RA
    cross = np.trace(matrix_sqrt_psd(0.5 * (inner + inner.T)))
    val = float(np.trace(A) + np.trace(B) - 2.0 * cross)
    if not np.isfinite(val):
        raise ValueError("Bures distance is non-finite")
    return max(val, 0.0)


class BuresGradientError(ValueError):
    """Raised by the Bures-gradient kernels on non-finite or singular input."""


def _singular(smallest: float) -> BuresGradientError:
    return BuresGradientError(
        f"L^T S L is numerically singular: smallest eigenvalue {smallest:.3e}"
    )


def bures_sq_value_grad(L, S) -> tuple[float, np.ndarray]:
    """``bures_sq(L @ L.T, S)`` and its gradient in ``S`` from one eigh.

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

    ``Hc`` is a centred (n, k) slice. When ``L`` is exactly the identity
    and ``n < k``, everything follows from one eigh of the n x n Gram
    matrix ``K = Hc Hc^T / n`` (eigenvalues ``lam``, vectors ``U``): ``S``
    has eigenvalues ``lam + eps`` and, k - n times, ``eps``, so the value
    is ``k + tr K + k eps - 2 (sum sqrt(lam + eps) + (k - n) sqrt(eps))``;
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
    L = np.asarray(L, dtype=float)
    n, k = Hc.shape
    if not np.all(np.isfinite(Hc)):
        raise BuresGradientError("batch contains non-finite entries")
    if n >= k or not is_identity(L):
        value, G = bures_sq_value_grad(L, Hc.T @ Hc / n + eps * np.eye(k))
        return value, Hc @ G
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        K = Hc @ Hc.T / n
    if not np.all(np.isfinite(K)):
        raise BuresGradientError("batch Gram matrix contains non-finite entries")
    lam, U = np.linalg.eigh(K)
    floor = SINGULAR_RTOL * max(1.0, float(lam[-1]) + eps)
    smallest = min(float(lam[0]), 0.0) + eps  # smallest eigenvalue of S
    if not smallest > floor:
        raise _singular(smallest)
    if lam[0] < -floor:
        raise BuresGradientError(
            f"batch Gram matrix has eigenvalue {lam[0]:.3e} below zero beyond round-off"
        )
    value = float(
        k + np.trace(K) + k * eps
        - 2.0 * (np.sum(np.sqrt(lam + eps)) + (k - n) * np.sqrt(eps))
    )
    W = U * (lam + eps) ** -0.25
    return max(value, 0.0), Hc - W @ (W.T @ Hc)


@dataclass(frozen=True)
class Gaussian:
    """A Gaussian measure stored as (mean, covariance factor).

    The covariance is ``Sigma = cov_factor @ cov_factor.T``, which is
    symmetric PSD by construction.
    """

    mean: np.ndarray
    cov_factor: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        L = np.asarray(self.cov_factor, dtype=float)
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if L.shape != (mean.size, mean.size):
            raise ValueError(
                f"cov_factor shape {L.shape} does not match dimension {mean.size}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(L))):
            raise ValueError("Gaussian parameters must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov_factor", L)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def cov(self) -> np.ndarray:
        return self.cov_factor @ self.cov_factor.T


def w2_sq_gaussians(g1: Gaussian, g2: Gaussian) -> float:
    """Squared Wasserstein-2 distance between two Gaussians."""
    if g1.dim != g2.dim:
        raise ValueError(f"dimension mismatch: {g1.dim} vs {g2.dim}")
    diff = g1.mean - g2.mean
    return float(diff @ diff) + bures_sq(g1.cov, g2.cov)


def empirical_gaussian(points, eps: float) -> Gaussian:
    """Fit a Gaussian to points by moment matching.

    Uses the population covariance (divide by n) regularized by
    ``eps * I``; the factor comes from a Cholesky decomposition, falling
    back to the symmetric eigen square root when the regularized
    covariance is still numerically singular (only possible at eps=0).
    """
    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("need at least one point")
    if not np.all(np.isfinite(X)):
        raise ValueError("points contain non-finite values")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    mean = X.mean(axis=0)
    Xc = X - mean
    cov = (Xc.T @ Xc) / X.shape[0] + eps * np.eye(X.shape[1])
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        L = matrix_sqrt_psd(cov)
    return Gaussian(mean=mean, cov_factor=L)
