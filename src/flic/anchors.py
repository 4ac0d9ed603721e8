"""Shared latent anchor distributions, one Gaussian per label class.

Clients align their embedded class-conditional batches to these anchors
and propose a local step on them. The server step
(:func:`flic.federation.aggregate`) takes ``b/|A|`` times the weighted
sum of the proposed means, and of the factors when they are learned. It
is an average, and with the classifier coupling off one gradient step on
the W2 barycenter objective, only when the active weights sum to
``|A|/b``; under partial participation they do not, and the scale drifts
as :func:`~flic.federation.aggregate` describes.
By default covariances are frozen at identity and only the means move.
A client's anchor samples, their noise and their gradients are stacked
``(held classes, count, k)`` arrays, from the draw to the anchor step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gaussian import BuresGradientError, bures_sq_value_grad

__all__ = [
    "AnchorSet",
    "init_anchors",
    "sample_anchor",
    "local_anchor_update",
]


@dataclass(frozen=True)
class AnchorSet:
    """Per-class Gaussian anchors; factors must be nonsingular (W2 gradients).

    ``identity[c]`` says whether factor ``c`` is exactly the identity,
    entry by entry. It is decided once, here, and serves only the
    alignment loss, which takes the small Gram route for such a factor
    (:func:`flic.nets.alignment_loss_grad`). So that it stays true, the
    set is frozen and takes the factor array as its own, read-only: a
    changed set is a new one (``dataclasses.replace``).
    """

    means: np.ndarray  # (C, k)
    factors: np.ndarray  # (C, k, k), Sigma_c = L_c @ L_c.T
    cov_learnable: bool = False
    identity: np.ndarray = field(init=False, repr=False)  # (C,) bool

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        factors = np.asarray(self.factors, dtype=float)
        C, k = means.shape
        if factors.shape != (C, k, k):
            raise ValueError(f"factors shape {factors.shape} does not match ({C}, {k}, {k})")
        factors.flags.writeable = False
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "identity", np.all(factors == np.eye(k), axis=(1, 2)))

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.means.shape[1]


def init_anchors(n_classes: int, latent_dim: int, rng, cov_learnable: bool = False) -> AnchorSet:
    """Fresh anchors: standard-normal means scaled by ``sqrt(k)`` (so class
    targets start well separated), identity factors."""
    means = np.sqrt(latent_dim) * rng.standard_normal((n_classes, latent_dim))
    factors = np.tile(np.eye(latent_dim), (n_classes, 1, 1))
    return AnchorSet(means, factors, cov_learnable)


def _held(anchors: AnchorSet, classes) -> np.ndarray:
    """``classes`` as indices, checked: fancy indexing would wrap a negative."""
    classes = np.asarray(classes, dtype=int)
    if classes.ndim != 1 or np.any((classes < 0) | (classes >= anchors.n_classes)):
        raise ValueError(f"unknown class in {classes.tolist()}")
    return classes


def sample_anchor(anchors: AnchorSet, classes, count: int, rng):
    """``count`` reparameterized samples ``z = v_c + L_c xi`` for each class
    in ``classes``, as ``(Z, xi)`` of shape ``(len(classes), count, k)``.

    A client round calls this once, first on its stream, for every class
    the client holds (:func:`flic.federation.client_local_round`): the M
    local steps and the global phase share that draw, and its image under
    the shared layer is formed once, as the layer is fixed within a round.
    One draw gives the numbers of drawing class by class, in order. The
    noise ``xi`` carries the pathwise gradient to the factors. Every draw
    takes the product with the factors, identity ones included, where it
    gives ``xi``'s own bits; ``anchors.identity`` is not read here.
    """
    classes = _held(anchors, classes)
    if count < 1:
        raise ValueError("count must be >= 1")
    xi = rng.standard_normal((len(classes), count, anchors.latent_dim))
    noise = xi @ anchors.factors[classes].transpose(0, 2, 1)
    return anchors.means[classes][:, None, :] + noise, xi


def local_anchor_update(anchors: AnchorSet, classes, points, dZ, xi, step: float,
                        lam1: float, lam2: float, eps: float) -> AnchorSet:
    """The proposal after one local gradient step on the held ``classes``.

    ``points[i]`` are the embedded training points of ``classes[i]``;
    ``dZ`` is the classifier-coupling gradient at the samples drawn for
    ``classes`` with noise ``xi``, or ``None``. Each held mean moves along
    ``-2 lam1 (v_c - m_c) - lam2 sum_j dZ_cj``, ``m_c`` the points' mean.
    A learnable factor steps along ``2 G L_c + lam2 dZ_c^T xi_c``, ``G``
    the gradient of the symmetric ``B^2(L_emp L_emp^T, S)`` at
    ``S = L_c L_c^T``, ``L_emp`` the Cholesky factor of the points'
    covariance ``Xc^T Xc / n + eps I``; frozen factors are the input's
    array itself. Non-finite points, and a covariance that Cholesky cannot
    factor, raise :class:`~flic.gaussian.BuresGradientError`.
    """
    classes = _held(anchors, classes)
    for c, pts in zip(classes, points):
        if not np.all(np.isfinite(pts)):
            raise BuresGradientError(f"class {c} embedding contains non-finite entries")
    v = anchors.means[classes]
    held = v - step * lam1 * 2.0 * (v - np.array([pts.mean(axis=0) for pts in points]))
    if dZ is not None:
        held = held - step * lam2 * dZ.sum(axis=1)
    means = anchors.means.copy()
    means[classes] = held
    factors = anchors.factors
    if anchors.cov_learnable:
        factors = factors.copy()
        for i, c in enumerate(classes):
            L = anchors.factors[c]
            if lam1 > 0:
                Xc = points[i] - points[i].mean(axis=0)
                n, k = Xc.shape
                try:
                    L_emp = np.linalg.cholesky(Xc.T @ Xc / n + eps * np.eye(k))
                except np.linalg.LinAlgError as exc:
                    raise BuresGradientError(
                        f"class {c} covariance is numerically singular: {exc}"
                    ) from exc
                factors[c] -= step * lam1 * (2.0 * bures_sq_value_grad(L_emp, L @ L.T)[1] @ L)
            if dZ is not None:
                factors[c] -= step * lam2 * (dZ[i].T @ xi[i])
    return AnchorSet(means, factors, anchors.cov_learnable)
