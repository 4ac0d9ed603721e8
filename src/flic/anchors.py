"""Shared latent anchor distributions, one Gaussian per label class.

Clients align their embedded class-conditional batches to these anchors
and propose a local step on them; the server step
(:func:`flic.federation.aggregate`) averages the proposed means, and the
covariance factors directly when they are learned, which is one gradient
step on the W2 barycenter objective when the classifier coupling is off.
By default covariances are frozen at identity and only the means move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import Gaussian, bures_sq_value_grad, is_identity

__all__ = [
    "AnchorSet",
    "init_anchors",
    "sample_anchor",
    "local_anchor_update",
]


@dataclass
class AnchorSet:
    """Per-class Gaussian anchors; factors must be nonsingular (W2 gradients)."""

    means: np.ndarray  # (C, k)
    factors: np.ndarray  # (C, k, k), Sigma_c = L_c @ L_c.T
    cov_learnable: bool = False

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        self.factors = np.asarray(self.factors, dtype=float)
        C, k = self.means.shape
        if self.factors.shape != (C, k, k):
            raise ValueError(
                f"factors shape {self.factors.shape} does not match ({C}, {k}, {k})"
            )

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.means.shape[1]

    def copy(self) -> "AnchorSet":
        return AnchorSet(self.means.copy(), self.factors.copy(), self.cov_learnable)


def init_anchors(
    n_classes: int,
    latent_dim: int,
    rng,
    cov_learnable: bool = False,
    init_scale: float | None = None,
) -> AnchorSet:
    """Fresh anchors: standard-normal means scaled by ``sqrt(k)`` (so class
    targets start well separated), identity factors."""
    scale = np.sqrt(latent_dim) if init_scale is None else init_scale
    means = scale * rng.standard_normal((n_classes, latent_dim))
    factors = np.tile(np.eye(latent_dim), (n_classes, 1, 1))
    return AnchorSet(means, factors, cov_learnable)


def sample_anchor(anchors: AnchorSet, c: int, count: int, rng, return_noise=False):
    """Draw ``count`` reparameterized samples ``z = v_c + L_c xi``.

    With ``return_noise=True`` also returns the standard-normal draws
    ``xi``, which carry the pathwise gradient to the factor. A factor that
    is exactly the identity (the frozen default) adds ``xi`` as it is;
    the product it skips would give the same samples.
    """
    if not 0 <= c < anchors.n_classes:
        raise ValueError(f"unknown class {c}")
    if count < 1:
        raise ValueError("count must be >= 1")
    xi = rng.standard_normal((count, anchors.latent_dim))
    L = anchors.factors[c]
    Z = anchors.means[c] + (xi if is_identity(L) else xi @ L.T)
    return (Z, xi) if return_noise else Z


def local_anchor_update(
    anchors: AnchorSet,
    empirical: dict[int, Gaussian],
    class_grads: dict[int, tuple[np.ndarray, np.ndarray]] | None,
    step: float,
    lam1: float,
    lam2: float,
) -> AnchorSet:
    """One local gradient step on the anchors a client holds.

    For each class with an empirical Gaussian: the mean moves along
    ``-2 lam1 (v_c - m_hat)`` plus any classifier-coupling gradient in
    ``class_grads``; with learnable covariances the factor steps along
    ``2 G L_c``, ``G`` the gradient of the symmetric ``B^2(L_emp L_emp^T, S)``
    at ``S = L_c L_c^T``. Classes without an empirical Gaussian pass through.
    """
    out = anchors.copy()
    for c, g in empirical.items():
        if not 0 <= c < anchors.n_classes:
            raise ValueError(f"class {c} outside anchor set")
        if g.dim != anchors.latent_dim:
            raise ValueError("empirical Gaussian dimension mismatch")
        gv = np.zeros(anchors.latent_dim)
        gL = np.zeros((anchors.latent_dim, anchors.latent_dim))
        if class_grads is not None and c in class_grads:
            gv, gL = class_grads[c]
        out.means[c] = (
            anchors.means[c]
            - step * lam1 * 2.0 * (anchors.means[c] - g.mean)
            - step * lam2 * gv
        )
        if anchors.cov_learnable:
            L = anchors.factors[c]
            gW2 = 2.0 * bures_sq_value_grad(g.cov_factor, L @ L.T)[1] @ L if lam1 > 0 else 0
            out.factors[c] = L - step * lam1 * gW2 - step * lam2 * gL
    return out

