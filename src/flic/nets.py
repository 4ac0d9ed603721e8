"""Minimal MLP stack with explicit reverse-mode gradients.

Forward/backward passes, softmax cross-entropy, the distribution
alignment loss (squared W2 from each class's rows of a batch to its
anchor, differentiated through the class mean and covariance), and Adam.
All arrays are float64; the gradient of every path is pinned to central
finite differences by the test suite, so no approximation shortcuts are
taken here. The backward pass hands an identity layer's gradient through
unchanged and multiplies by a ReLU layer's boolean mask itself, which
gives the same bits as multiplying by the derivative as floats. The
Bures part of the alignment loss comes from
:func:`flic.gaussian.bures_sq_batch_value_grad`, given ``None`` for an
anchor factor that the anchor set marks as the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gaussian import bures_sq_batch_value_grad

__all__ = [
    "Layer",
    "Mlp",
    "AdamState",
    "init_mlp",
    "forward",
    "backward",
    "cross_entropy",
    "alignment_loss_grad",
    "adam_step",
    "build_embedding",
    "build_shared",
    "build_head",
]


def _leaky(z):
    # Equal to np.where(z > 0, z, 0.01 * z) bit for bit, -0.0 included.
    return np.maximum(z, 0.01 * z)


def _leaky_deriv(z):
    return np.where(z > 0, 1.0, 0.01)


# (activation, derivative); None for the identity's derivative of ones,
# which backward skips. The ReLU mask stays boolean: G * (z > 0) equals
# G * (z > 0).astype(float) bit for bit.
ACTIVATIONS = {
    "identity": (lambda z: z, None),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: z > 0),
    "leaky_relu": (_leaky, _leaky_deriv),
}


@dataclass
class Layer:
    W: np.ndarray  # (d_in, d_out)
    b: np.ndarray  # (d_out,)
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[1],):
            raise ValueError("layer weight/bias shapes inconsistent")
        if not (np.isfinite(self.W).all() and np.isfinite(self.b).all()):
            raise ValueError("layer parameters must be finite")


@dataclass
class Mlp:
    layers: list[Layer] = field(default_factory=list)

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.W.shape[1] != nxt.W.shape[0]:
                raise ValueError("adjacent layer dimensions do not chain")

    @property
    def input_dim(self) -> int:
        return self.layers[0].W.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].W.shape[1]

    def params(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.append(layer.W)
            out.append(layer.b)
        return out

    def set_params(self, arrays: list[np.ndarray]) -> None:
        if len(arrays) != 2 * len(self.layers):
            raise ValueError("parameter count mismatch")
        for i, layer in enumerate(self.layers):
            W, b = arrays[2 * i], arrays[2 * i + 1]
            if W.shape != layer.W.shape or b.shape != layer.b.shape:
                raise ValueError("parameter shape mismatch")
            layer.W = W
            layer.b = b

    def copy(self) -> "Mlp":
        return Mlp(
            [Layer(l.W.copy(), l.b.copy(), l.activation) for l in self.layers]
        )


def init_mlp(dims, activations, rng) -> Mlp:
    """Glorot-uniform weights (``+-sqrt(6/(fan_in+fan_out))``), zero biases."""
    if len(activations) != len(dims) - 1:
        raise ValueError("need one activation per layer")
    layers = []
    for d_in, d_out, act in zip(dims, dims[1:], activations):
        bound = np.sqrt(6.0 / (d_in + d_out))
        W = rng.uniform(-bound, bound, size=(d_in, d_out))
        layers.append(Layer(W, np.zeros(d_out), act))
    return Mlp(layers)


def build_embedding(input_dim: int, latent_dim: int, hidden: int, rng) -> Mlp:
    """Per-client embedding: input -> hidden (ReLU) -> latent."""
    return init_mlp([input_dim, hidden, latent_dim], ["relu", "identity"], rng)


def build_shared(latent_dim: int, rng) -> Mlp:
    """Shared representation layer: one linear layer with LeakyReLU."""
    return init_mlp([latent_dim, latent_dim], ["leaky_relu"], rng)


def build_head(latent_dim: int, n_classes: int, rng) -> Mlp:
    """Personal classifier head: a single linear layer producing logits."""
    return init_mlp([latent_dim, n_classes], ["identity"], rng)


def forward(mlp: Mlp, X):
    """Run the network on a batch.

    Returns ``(output, cache)``; the cache holds per-layer inputs and
    pre-activations, enough for :func:`backward`.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != mlp.input_dim:
        raise ValueError(
            f"batch shape {X.shape} incompatible with input dim {mlp.input_dim}"
        )
    cache = []
    A = X
    for layer in mlp.layers:
        Z = A @ layer.W
        Z += layer.b
        cache.append((A, Z))
        A = ACTIVATIONS[layer.activation][0](Z)
    return A, cache


def backward(mlp: Mlp, cache, output_grad, param_grads=True, input_grad=True):
    """Reverse-mode gradients for a prior :func:`forward` call.

    Returns ``(param_grads, input_grad)`` where ``param_grads`` matches
    ``mlp.params()`` order and ``input_grad`` is the gradient with
    respect to the batch itself (used to chain alignment losses through
    the embedding). A caller that needs only one of the two passes
    ``param_grads=False`` or ``input_grad=False``: that part is not
    formed and comes back as ``None``, and the other is unchanged.

    An identity layer passes the incoming gradient through as it is, and a
    ReLU layer multiplies it by the boolean mask ``Z > 0``: both give the
    bits of multiplying by the float derivative, without forming it.
    """
    if len(cache) != len(mlp.layers):
        raise ValueError("cache does not match network depth")
    G = np.asarray(output_grad, dtype=float)
    if G.shape != (cache[-1][1].shape[0], mlp.output_dim):
        raise ValueError("output_grad shape mismatch")
    grads: list[np.ndarray | None] | None = [None] * (2 * len(mlp.layers)) if param_grads else None
    for idx in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[idx]
        A_in, Z = cache[idx]
        deriv = ACTIVATIONS[layer.activation][1]
        dZ = G if deriv is None else G * deriv(Z)
        if param_grads:
            grads[2 * idx] = A_in.T @ dZ
            grads[2 * idx + 1] = dZ.sum(axis=0)
        if idx == 0 and not input_grad:
            return grads, None
        G = dZ @ layer.W.T
    return grads, G


def cross_entropy(logits, labels):
    """Mean softmax cross-entropy and its gradient wrt the logits."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels)
    n, C = logits.shape
    if labels.shape != (n,):
        raise ValueError("labels must be one id per row")
    if labels.min() < 0 or labels.max() >= C:
        raise ValueError(f"label out of range [0, {C})")
    rows = np.arange(n)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -log_probs[rows, labels].mean()
    grad = np.exp(log_probs)
    grad[rows, labels] -= 1.0
    return float(loss), grad / n


def alignment_loss_grad(rows, H, anchors, eps: float):
    """Sum of squared W2 distances from per-class batch Gaussians to anchors.

    Per class, one :func:`flic.gaussian.bures_sq_batch_value_grad` call
    (anchor factor ``L_c``, centred slice ``Hc``, batch covariance
    ``Hc^T Hc / n_c + eps I``) gives the Bures term and its gradient
    already multiplied into the slice, from one eigh: of the n_c x n_c
    Gram matrix for a factor ``anchors.identity`` marks and ``n_c < k``,
    of the k x k ``L_c^T S L_c`` otherwise.

    Parameters
    ----------
    rows : dict
        Maps each label class in the batch, in increasing order, to the
        indices of its rows of ``H``.
    H : (n, k) array
        The embedded batch.
    anchors : AnchorSet
        Target Gaussians in the latent space; factors must be nonsingular.
    eps : float
        Covariance regularizer, must be positive so the empirical
        covariance is invertible for the gradient.

    Returns
    -------
    loss : float
    dH : (n, k) gradient in ``H``; rows of no class in ``rows`` are zero
    """
    if eps <= 0:
        raise ValueError("eps must be positive for alignment gradients")
    total = 0.0
    dH = np.zeros_like(H)
    for c, r in rows.items():
        B = H[r]
        if B.ndim != 2 or B.shape[0] < 1:
            raise ValueError(f"class {c} slice is empty")
        n_c = B.shape[0]
        m = B.sum(axis=0) / n_c  # B.mean(axis=0), bit for bit
        Hc = B - m
        L = None if anchors.identity[c] else anchors.factors[c]
        bures, Hc_G = bures_sq_batch_value_grad(L, Hc, eps)
        diff = m - anchors.means[c]
        total += float(diff @ diff) + bures
        # d mean-term / dx_j = 2 (m_hat - v) / n_c; the covariance term
        # chains through d Sigma_hat = (dx (x-m)^T + (x-m) dx^T) / n_c.
        dH[r] = (2.0 / n_c) * (diff + Hc_G)
    return total, dH


@dataclass
class AdamState:
    """Adam's settings, step count and moments. The moments start empty;
    :func:`adam_step` creates them on the first step, so an optimizer that
    never steps holds no arrays."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


def adam_step(state: AdamState, params, grads):
    """One bias-corrected Adam update.

    Empty moments are first set to zeros shaped like ``params``. Returns
    the new parameter arrays; ``state`` is advanced in place.
    """
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    if len(params) != len(state.m) or len(grads) != len(state.m):
        raise ValueError("parameter/gradient count mismatch")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.shape:
            raise ValueError("gradient shape mismatch")
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * g * g
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        out.append(p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps))
    return out
