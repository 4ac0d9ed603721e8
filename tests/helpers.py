"""Shared test utilities: finite differences, packing, small oracles."""

import numpy as np


def fd_grad(f, x, h=1e-5):
    """Central finite differences of a scalar function over a flat array."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up.flat[i] += h
        dn.flat[i] -= h
        g.flat[i] = (f(up) - f(dn)) / (2 * h)
    return g


def count_eigh(monkeypatch):
    """Record the shape of the matrix of every ``numpy.linalg.eigh`` call
    for the rest of the test; the list's length is the call count."""
    calls = []
    original = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def pack(arrays):
    return np.concatenate([np.asarray(a, dtype=float).ravel() for a in arrays])


def unpack(vec, shapes):
    out = []
    i = 0
    for shape in shapes:
        size = int(np.prod(shape))
        out.append(vec[i : i + size].reshape(shape))
        i += size
    return out


def rel_err(approx, exact):
    approx = np.asarray(approx, dtype=float).ravel()
    exact = np.asarray(exact, dtype=float).ravel()
    denom = max(np.linalg.norm(exact), 1e-12)
    return np.linalg.norm(approx - exact) / denom


def random_psd(rng, k, scale=1.0):
    M = rng.standard_normal((k, k))
    return scale * (M @ M.T) / k + 0.1 * np.eye(k)


def batch_cov(X, eps):
    """The regularized population covariance ``Xc^T Xc / n + eps I``."""
    Xc = X - X.mean(axis=0)
    return Xc.T @ Xc / X.shape[0] + eps * np.eye(X.shape[1])


def bures_sq_ref(A, B):
    """Squared Bures distance ``tr A + tr B - 2 tr((A^{1/2} B A^{1/2})^{1/2})``
    from scipy's Schur-based matrix square root, an oracle independent of
    the eigh kernels under test."""
    from scipy.linalg import sqrtm

    RA = sqrtm(A)
    return float(np.real(np.trace(A) + np.trace(B) - 2.0 * np.trace(sqrtm(RA @ B @ RA))))


def quantile_w2_sq_1d(m1, s1, m2, s2, n=2_000_000):
    """Brute-force 1-D squared W2 via the quantile coupling on a fine grid.

    Independent of the closed form: integrates (F1^{-1}(u) - F2^{-1}(u))^2
    with the midpoint rule.
    """
    from scipy.special import ndtri

    u = (np.arange(n) + 0.5) / n
    z = ndtri(u)
    q1 = m1 + s1 * z
    q2 = m2 + s2 * z
    return float(np.mean((q1 - q2) ** 2))
