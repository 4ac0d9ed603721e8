"""Linear-regression harness verifying subspace recovery.

Setup: client i draws raw features from its own Gaussian N(m_i, Sigma_i)
in its own dimension; scalar labels come from an oracle low-rank model
applied to whitened features. The whitening map that sends N(m_i,
Sigma_i) to N(0, I_k) on the top-k eigendirections is affine and known
in closed form, but only up to a per-coordinate sign flip — so the
estimated embedding equals the oracle one up to a fixed diagonal
+-1 matrix Q. Alternating rounds of exact per-client head solves and
averaged one-step representation updates (with QR re-orthonormalization)
then recover the oracle column space QA* at a geometric rate, measured
with the principal angle distance.

The data and the embedding are fixed for the whole run, so a client's
head solve and its representation gradient depend on its training data
only through the sufficient statistics ``G_i = Phi_i^T Phi_i`` and
``c_i = Phi_i^T y_i`` of its embedded training set ``Phi_i``, the
spectral initialization only through the label-weighted second moment
``(Phi_i * y_i^2)^T Phi_i / n_i``, and its test error only through the
embedded test set. :func:`make_instance` whitens every client's raw
draws once, as it draws them, and keeps only these, stacked over
clients; nothing re-embeds raw data, so the rounds' cost and the
instance's memory do not grow with the number of training samples per
client.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import stream

__all__ = [
    "TheoryConfig",
    "TheoryInstance",
    "make_instance",
    "oracle_phi_star",
    "phi_hat",
    "init_A0",
    "fedrep_linear_round",
    "principal_angle_dist",
    "run_theory_experiment",
    "solve_head",
]

_TAG_INSTANCE = 21
_TAG_SELECT = 22
_EIG_FLOOR = 1e-12
_SUBSET_SAMPLES = 50  # active subsets probed for the step-size cap


def _positive_qr(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR of ``M`` with ``Q``'s columns signed so that ``R`` has a
    nonnegative diagonal; returns ``(Q, R)``, ``R`` as computed."""
    Q, R = np.linalg.qr(M)
    s = np.sign(np.diag(R))
    s[s == 0] = 1.0
    return Q * s, R


@dataclass(frozen=True)
class TheoryConfig:
    clients: int = 20
    samples: int = 500  # training samples per client
    test_samples: int = 200
    latent_dim: int = 5  # k
    head_dim: int = 3  # d
    raw_dim_min: int = 8  # a client's raw dimension, drawn from [min, max]
    raw_dim_max: int = 16
    participation: float = 1.0
    rounds: int = 100
    step_size: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("samples", "test_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 1 <= self.head_dim <= self.latent_dim:
            raise ValueError("head_dim must lie in [1, latent_dim]")
        if self.raw_dim_min < self.latent_dim:
            raise ValueError("raw_dim_min must be >= latent_dim")
        if self.raw_dim_max < self.raw_dim_min:
            raise ValueError("raw_dim_max must be >= raw_dim_min")
        if not 0 < self.participation <= 1:
            raise ValueError("participation must lie in (0, 1]")
        if not self.step_size > 0:
            raise ValueError("step_size must be > 0")
        active = int(np.floor(self.participation * self.clients))
        if active < self.head_dim:
            raise ValueError(
                "clients * participation must give at least head_dim active "
                "clients, so that the selected heads can span the head space"
            )


@dataclass
class TheoryInstance:
    """One generated problem and the state of the rounds run on it.

    The raw data are not kept. ``gram``, ``moment``, ``label_moment``,
    ``n_train`` and ``phi_test`` are the per-client statistics of the
    estimated embedding ``phi_hat``, stacked over clients: of the
    training set, the unnormalized Gram matrix ``Phi_i^T Phi_i``, the
    moment ``Phi_i^T y_i``, the label-weighted second moment
    ``(Phi_i * y_i^2)^T Phi_i / n_i`` and the sample count ``n_i``; and
    the embedded test set. They must agree with one draw of raw data;
    :func:`make_instance` builds all of them together.
    """

    latent_dim: int
    head_dim: int
    means: list[np.ndarray]
    eig_vecs: list[np.ndarray]  # per client, columns sorted by decreasing eigenvalue
    eig_vals: list[np.ndarray]
    sign_star: np.ndarray  # diagonal of the oracle's +-1 matrix, shared
    sign_hat: np.ndarray  # diagonal of the estimate's +-1 matrix, shared
    A_star: np.ndarray  # (k, d), orthonormal columns
    betas_star: np.ndarray  # (b, d), rows of norm sqrt(d)
    y_test: np.ndarray  # (b, n_test)
    gram: np.ndarray  # (b, k, k)
    moment: np.ndarray  # (b, k)
    label_moment: np.ndarray  # (b, k, k)
    n_train: np.ndarray  # (b,)
    phi_test: np.ndarray  # (b, n_test, k)
    step_size: float
    A: np.ndarray | None = None
    betas: np.ndarray | None = None

    @property
    def n_clients(self) -> int:
        return len(self.means)

    @property
    def Q(self) -> np.ndarray:
        """Diagonal of the sign indeterminacy between estimate and oracle."""
        return self.sign_hat * self.sign_star

    @property
    def QA_star(self) -> np.ndarray:
        return self.Q[:, None] * self.A_star


def _embed(inst: TheoryInstance, i: int, X, signs) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if not np.all(np.isfinite(X)):
        raise ValueError("input contains non-finite values")
    k = inst.latent_dim
    if X.shape[1] != inst.means[i].size:
        raise ValueError(
            f"input dimension {X.shape[1]} does not match client {i}"
        )
    P_k = inst.eig_vecs[i][:, :k]
    vals = inst.eig_vals[i][:k]
    out = ((X - inst.means[i]) @ P_k) / np.sqrt(vals) * signs
    return out[0] if single else out


def oracle_phi_star(inst: TheoryInstance, i: int, X) -> np.ndarray:
    """The ground-truth whitening embedding of client i."""
    return _embed(inst, i, X, inst.sign_star)


def phi_hat(inst: TheoryInstance, i: int, X) -> np.ndarray:
    """The estimated embedding: same affine map with independent signs,
    so ``phi_hat(x) = Q @ oracle_phi_star(x)`` exactly."""
    return _embed(inst, i, X, inst.sign_hat)


def _sigma_max_sq_cap(betas_star, active_size, rng) -> float:
    """Largest squared singular value of B*/sqrt(|A|) over probed subsets."""
    b = betas_star.shape[0]
    worst = 0.0
    if active_size >= b:
        subsets = [np.arange(b)]
    else:
        subsets = [
            rng.choice(b, size=active_size, replace=False) for _ in range(_SUBSET_SAMPLES)
        ]
    for sel in subsets:
        s = np.linalg.svd(betas_star[sel] / np.sqrt(len(sel)), compute_uv=False)
        worst = max(worst, float(s[0] ** 2))
    return worst


def _draw_oracle(rng, config: TheoryConfig):
    """The shared draws: ``(A_star, betas_star, sign_star, sign_hat)``."""
    k, d = config.latent_dim, config.head_dim
    A_star = _positive_qr(rng.standard_normal((k, d)))[0]
    betas = rng.standard_normal((config.clients, d))
    betas_star = np.sqrt(d) * betas / np.linalg.norm(betas, axis=1, keepdims=True)
    sign_star = rng.integers(0, 2, size=k) * 2.0 - 1.0
    sign_hat = rng.integers(0, 2, size=k) * 2.0 - 1.0
    return A_star, betas_star, sign_star, sign_hat


def _draw_client(rng, config: TheoryConfig, i: int):
    """Client i's draws, in stream order: ``(mean, eig_vecs, eig_vals,
    X_train, X_test)``, the raw sets from ``N(mean, P diag(vals) P^T)``."""
    k_i = int(rng.integers(config.raw_dim_min, config.raw_dim_max + 1))
    m_i = rng.standard_normal(k_i)
    P_i = _positive_qr(rng.standard_normal((k_i, k_i)))[0]
    vals = np.sort(rng.uniform(0.5, 2.0, size=k_i))[::-1]
    if vals[config.latent_dim - 1] < _EIG_FLOOR:
        raise ValueError(f"client {i}: degenerate top-{config.latent_dim} spectrum")

    def draw(n):
        xi = rng.standard_normal((n, k_i))
        return m_i + (xi * np.sqrt(vals)) @ P_i.T

    return m_i, P_i, vals, draw(config.samples), draw(config.test_samples)


def make_instance(config: TheoryConfig) -> TheoryInstance:
    rng = stream(config.seed, _TAG_INSTANCE)
    k, b, n_test = config.latent_dim, config.clients, config.test_samples
    A_star, betas_star, sign_star, sign_hat = _draw_oracle(rng, config)
    inst = TheoryInstance(
        latent_dim=k,
        head_dim=config.head_dim,
        means=[],
        eig_vecs=[],
        eig_vals=[],
        sign_star=sign_star,
        sign_hat=sign_hat,
        A_star=A_star,
        betas_star=betas_star,
        y_test=np.empty((b, n_test)),
        gram=np.empty((b, k, k)),
        moment=np.empty((b, k)),
        label_moment=np.empty((b, k, k)),
        n_train=np.empty(b, dtype=int),
        phi_test=np.empty((b, n_test, k)),
        step_size=config.step_size,
    )
    # Each client's raw sets are reduced to its statistics before the next
    # client is drawn. One whitening pass per set: the oracle embedding
    # gives the labels, and times Q (exact, a sign flip) the estimated one.
    Q = inst.Q
    for i in range(b):
        m_i, P_i, vals, X_train, X_test = _draw_client(rng, config, i)
        inst.means.append(m_i)
        inst.eig_vecs.append(P_i)
        inst.eig_vals.append(vals)
        w = A_star @ betas_star[i]
        Z = oracle_phi_star(inst, i, X_train)
        y = Z @ w
        Phi = Z * Q
        inst.gram[i] = Phi.T @ Phi
        inst.moment[i] = Phi.T @ y
        inst.label_moment[i] = (Phi * (y**2)[:, None]).T @ Phi / y.size
        inst.n_train[i] = y.size
        Z = oracle_phi_star(inst, i, X_test)
        inst.y_test[i] = Z @ w
        inst.phi_test[i] = Z * Q

    active_size = max(1, int(np.floor(config.participation * b)))
    cap = _sigma_max_sq_cap(betas_star, active_size, rng)
    inst.step_size = min(config.step_size, 1.0 / (4.0 * cap))
    return inst


def init_A0(inst: TheoryInstance) -> np.ndarray:
    """Spectral initialization from label-weighted second moments.

    Each client contributes ``(1/n) sum_j y_j^2 phi_hat(x_j) phi_hat(x_j)^T``,
    stored as ``inst.label_moment``; the top-d eigenvectors of the client
    average seed the representation.
    """
    M = inst.label_moment.sum(axis=0) / inst.n_clients
    vals, vecs = np.linalg.eigh(M)
    d = inst.head_dim
    if vals[-d] <= _EIG_FLOOR * max(vals[-1], 1.0):
        raise ValueError("fewer than d numerically distinct dominant directions")
    A0 = vecs[:, -d:][:, ::-1]
    # fix eigenvector signs for determinism
    picks = np.argmax(np.abs(A0), axis=0)
    signs = np.sign(A0[picks, np.arange(d)])
    signs[signs == 0] = 1.0
    return A0 * signs


def solve_head(inst: TheoryInstance, i, A: np.ndarray) -> np.ndarray:
    """Exact least-squares head at representation A, from the normal
    equations ``(A^T G_i A + 1e-10 I) beta = A^T c_i`` with the client's
    Gram matrix and moment. ``i`` is one client index, giving a ``(d,)``
    head, or an index array, giving one head per row."""
    G = A.T @ inst.gram[i] @ A + 1e-10 * np.eye(A.shape[1])
    rhs = inst.moment[i] @ A
    return np.linalg.solve(G, rhs[..., None])[..., 0]


def fedrep_linear_round(inst: TheoryInstance, active) -> TheoryInstance:
    """One communication round: exact head solves for the active clients
    (one batched solve), one averaged gradient step on the representation,
    QR re-orthonormalization (positive diagonal convention).

    Client i's squared-loss gradient is ``-(2/n_i)(c_i - G_i A beta_i)
    beta_i^T``, so the step reads only the per-client statistics."""
    if inst.A is None:
        raise ValueError("initialize inst.A (e.g. via init_A0) first")
    idx = np.sort(np.asarray(active, dtype=int))
    if idx.size == 0:
        raise ValueError("active set is empty")
    A = inst.A
    betas = solve_head(inst, idx, A)
    inst.betas[idx] = betas
    counts = inst.n_train[idx].astype(float)
    resid = inst.moment[idx] - (inst.gram[idx] @ A @ betas[:, :, None])[:, :, 0]
    grads = -(2.0 / counts)[:, None, None] * resid[:, :, None] * betas[:, None, :]
    A_bar = A - inst.step_size * grads.mean(axis=0)
    inst.A = _positive_qr(A_bar)[0]
    return inst


def principal_angle_dist(M, N) -> float:
    """Spectral-norm distance between the column spaces of M and N."""
    M = np.asarray(M, dtype=float)
    N = np.asarray(N, dtype=float)
    if M.shape != N.shape or M.ndim != 2:
        raise ValueError("arguments must be matrices of identical shape")
    k, d = M.shape
    M_hat = _orthonormalize(M)
    N_hat = _orthonormalize(N)
    if d == k:
        return 0.0
    # orthonormal basis of span(M)^perp from the full QR
    Q_full, _ = np.linalg.qr(M_hat, mode="complete")
    M_perp = Q_full[:, d:]
    val = float(np.linalg.norm(M_perp.T @ N_hat, 2))
    return min(val, 1.0)


def _orthonormalize(M: np.ndarray) -> np.ndarray:
    Q, R = _positive_qr(M)
    diag = np.abs(np.diag(R))
    if np.any(diag < 1e-10 * max(1.0, float(diag.max(initial=0.0)))):
        raise ValueError("matrix is rank deficient")
    return Q


def _test_mse(inst: TheoryInstance) -> float:
    """Held-out squared error, averaged per client, then over clients."""
    W = inst.betas @ inst.A.T
    pred = (inst.phi_test @ W[:, :, None])[:, :, 0]
    return float(np.mean(np.mean((pred - inst.y_test) ** 2, axis=1)))


def run_theory_experiment(config: TheoryConfig):
    """Build an instance, run the alternating rounds, record the trace.

    Returns ``(instance, rows)`` with one row ``(t, dist, mse)`` per
    round plus the initial row, T+1 rows total. ``dist`` measures the
    principal angle between the current representation and the
    sign-corrected oracle one; ``mse`` is held-out prediction error.
    """
    inst = make_instance(config)
    inst.A = init_A0(inst)
    inst.betas = solve_head(inst, np.arange(inst.n_clients), inst.A)
    target = inst.QA_star
    rows = [(0, principal_angle_dist(inst.A, target), _test_mse(inst))]
    b = inst.n_clients
    size = max(1, int(np.floor(config.participation * b)))
    for t in range(1, config.rounds + 1):
        rng = stream(config.seed, _TAG_SELECT, t)
        active = np.sort(rng.choice(b, size=size, replace=False))
        fedrep_linear_round(inst, active)
        rows.append((t, principal_angle_dist(inst.A, target), _test_mse(inst)))
    return inst, rows
