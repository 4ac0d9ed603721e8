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
only through ``G_i = Phi_i^T Phi_i`` and ``c_i = Phi_i^T y_i`` of its
embedded training set ``Phi_i``, the spectral initialization only
through the client average of ``(Phi_i * y_i^2)^T Phi_i / n``, and its
test error only through the R factor of ``[Phi_test_i, y_test_i]``.
:func:`make_instance` whitens each client's raw draws once and keeps
only these, in a frozen :class:`TheoryInstance`, so no cost grows with
the training or test samples per client. The run's state is not in the
instance: a round takes the representation ``A`` and returns the next
one with the active heads. Each round is scored against the orthonormal
complement of the target ``QA*``, formed once per run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import active_count, select_active_clients, stream

__all__ = [
    "TheoryConfig",
    "TheoryInstance",
    "make_instance",
    "oracle_phi_star",
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


def _positive_qr(M: np.ndarray) -> np.ndarray:
    """The ``Q`` of a thin QR of ``M``, its columns signed so that ``R``
    has a nonnegative diagonal."""
    Q, R = np.linalg.qr(M)
    s = np.sign(np.diag(R))
    s[s == 0] = 1.0
    return Q * s


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
        # Messages name each setting by its config key, theory_<field>.
        for name in ("samples", "test_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"theory_{name} must be at least 1")
        if self.rounds < 0:
            raise ValueError("theory_rounds must be >= 0")
        if not 1 <= self.head_dim <= self.latent_dim:
            raise ValueError("theory_head_dim must lie in [1, theory_latent_dim]")
        if self.raw_dim_min < self.latent_dim:
            raise ValueError("theory_raw_dim_min must be >= theory_latent_dim")
        if self.raw_dim_max < self.raw_dim_min:
            raise ValueError("theory_raw_dim_max must be >= theory_raw_dim_min")
        if not 0 < self.participation <= 1:
            raise ValueError("theory_participation must lie in (0, 1]")
        if not self.step_size > 0:
            raise ValueError("theory_step_size must be > 0")
        if (self.clients < self.head_dim
                or active_count(self.clients, self.participation) < self.head_dim):
            raise ValueError(
                "theory_clients * theory_participation must be at least "
                "theory_head_dim, so that the selected heads can span the head space"
            )


@dataclass(frozen=True)
class TheoryInstance:
    """One generated problem: the oracle and the per-client statistics
    of the estimated embedding ``Q * oracle_phi_star``. Rounds only read it.

    The raw data are not kept. ``gram`` and ``moment`` hold, per client,
    the unnormalized Gram matrix ``Phi_i^T Phi_i`` and the moment
    ``Phi_i^T y_i`` of the embedded training set, ``n_train`` rows each;
    ``init_moment`` is the client average of ``(Phi_i * y_i^2)^T Phi_i /
    n_train``. ``test_r[i]`` is the upper triangular R factor of the
    client's embedded test set beside its labels, ``[Phi_test_i,
    y_test_i]`` (``n_test`` rows, ``k+1`` columns), so that ``R_i^T R_i =
    [Phi_test_i, y_test_i]^T [Phi_test_i, y_test_i]``; when ``n_test <
    k+1`` its missing rows are zeros. They must agree with one draw of raw
    data; :func:`make_instance` builds all of them together.
    """

    A_star: np.ndarray  # (k, d), orthonormal columns
    betas_star: np.ndarray  # (b, d), rows of norm sqrt(d)
    Q: np.ndarray  # (k,), diagonal of the +-1 matrix between estimate and oracle
    gram: np.ndarray  # (b, k, k)
    moment: np.ndarray  # (b, k)
    init_moment: np.ndarray  # (k, k)
    n_train: int
    test_r: np.ndarray  # (b, k+1, k+1), upper triangular
    n_test: int
    step_size: float

    @property
    def n_clients(self) -> int:
        return self.betas_star.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.A_star.shape[0]

    @property
    def head_dim(self) -> int:
        return self.A_star.shape[1]

    @property
    def QA_star(self) -> np.ndarray:
        return self.Q[:, None] * self.A_star


def oracle_phi_star(X, mean, eig_vecs, eig_vals, sign_star) -> np.ndarray:
    """The ground-truth whitening embedding of the rows of ``X``, for a
    client drawn from ``N(mean, eig_vecs diag(eig_vals) eig_vecs^T)``
    (eigenvalues decreasing), with the oracle signs ``sign_star``."""
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("input contains non-finite values")
    if X.ndim != 2 or X.shape[1] != mean.size:
        raise ValueError(f"input of shape {X.shape} is not rows of dimension {mean.size}")
    k = sign_star.size
    return ((X - mean) @ eig_vecs[:, :k]) / np.sqrt(eig_vals[:k]) * sign_star


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
    A_star = _positive_qr(rng.standard_normal((k, d)))
    betas = rng.standard_normal((config.clients, d))
    betas_star = np.sqrt(d) * betas / np.linalg.norm(betas, axis=1, keepdims=True)
    sign_star = rng.integers(0, 2, size=k) * 2.0 - 1.0
    sign_hat = rng.integers(0, 2, size=k) * 2.0 - 1.0
    return A_star, betas_star, sign_star, sign_hat


def _draw_client(rng, config: TheoryConfig):
    """A client's draws, in stream order: ``(mean, eig_vecs, eig_vals,
    X_train, X_test)``, the raw sets from ``N(mean, P diag(vals) P^T)``."""
    k_i = int(rng.integers(config.raw_dim_min, config.raw_dim_max + 1))
    m_i = rng.standard_normal(k_i)
    P_i = _positive_qr(rng.standard_normal((k_i, k_i)))
    vals = np.sort(rng.uniform(0.5, 2.0, size=k_i))[::-1]  # at least 0.5: never degenerate

    def draw(n):
        xi = rng.standard_normal((n, k_i))
        return m_i + (xi * np.sqrt(vals)) @ P_i.T

    return m_i, P_i, vals, draw(config.samples), draw(config.test_samples)


def make_instance(config: TheoryConfig) -> TheoryInstance:
    rng = stream(config.seed, _TAG_INSTANCE)
    k, b, n_test = config.latent_dim, config.clients, config.test_samples
    A_star, betas_star, sign_star, sign_hat = _draw_oracle(rng, config)
    Q = sign_hat * sign_star
    gram = np.empty((b, k, k))
    moment = np.empty((b, k))
    test_r = np.zeros((b, k + 1, k + 1))
    init_moment = np.zeros((k, k))
    # Each client's raw sets are reduced to its statistics before the next
    # client is drawn. One whitening pass per set: the oracle embedding
    # gives the labels, and times Q (exact, a sign flip) the estimated one.
    for i in range(b):
        m_i, P_i, vals, X_train, X_test = _draw_client(rng, config)
        w = A_star @ betas_star[i]
        Z = oracle_phi_star(X_train, m_i, P_i, vals, sign_star)
        y = Z @ w
        Phi = Z * Q
        gram[i] = Phi.T @ Phi
        moment[i] = Phi.T @ y
        init_moment += (Phi * (y**2)[:, None]).T @ Phi / y.size
        Z = oracle_phi_star(X_test, m_i, P_i, vals, sign_star)
        R = np.linalg.qr(np.column_stack([Z * Q, Z @ w]), mode="r")
        test_r[i, :R.shape[0]] = R  # fewer than k+1 test rows: zero rows below

    active_size = active_count(b, config.participation)
    cap = _sigma_max_sq_cap(betas_star, active_size, rng)
    return TheoryInstance(
        A_star=A_star,
        betas_star=betas_star,
        Q=Q,
        gram=gram,
        moment=moment,
        init_moment=init_moment / b,
        n_train=config.samples,
        test_r=test_r,
        n_test=n_test,
        step_size=min(config.step_size, 1.0 / (4.0 * cap)),
    )


def init_A0(inst: TheoryInstance) -> np.ndarray:
    """Spectral initialization: the top-d eigenvectors of the client
    average of ``(1/n) sum_j y_j^2 phi(x_j) phi(x_j)^T`` for the
    estimated embedding ``phi = Q * oracle_phi_star``, stored as
    ``inst.init_moment``, seed the representation.
    """
    vals, vecs = np.linalg.eigh(inst.init_moment)
    d = inst.head_dim
    if vals[-d] <= _EIG_FLOOR * max(vals[-1], 1.0):
        raise ValueError("fewer than d numerically distinct dominant directions")
    A0 = vecs[:, -d:][:, ::-1]
    # fix eigenvector signs for determinism: a unit column's largest
    # entry is nonzero, so each sign is +-1
    picks = np.argmax(np.abs(A0), axis=0)
    return A0 * np.sign(A0[picks, np.arange(d)])


def solve_head(inst: TheoryInstance, i, A: np.ndarray) -> np.ndarray:
    """Exact least-squares head at representation A, from the normal
    equations ``(A^T G_i A + 1e-10 I) beta = A^T c_i`` with the client's
    Gram matrix and moment. ``i`` is one client index, giving a ``(d,)``
    head, or an index array, giving one head per row."""
    G = A.T @ inst.gram[i] @ A + 1e-10 * np.eye(A.shape[1])
    rhs = inst.moment[i] @ A
    return np.linalg.solve(G, rhs[..., None])[..., 0]


def fedrep_linear_round(inst: TheoryInstance, A: np.ndarray, active):
    """One communication round from representation ``A``: exact head
    solves for the active clients (one batched solve), one averaged
    gradient step on the representation, QR re-orthonormalization
    (positive diagonal convention). Returns ``(A_next, betas)``, ``betas``
    the heads of the active clients in increasing client order.

    Client i's squared-loss gradient is ``-(2/n)(c_i - G_i A beta_i)
    beta_i^T``, so the step reads only the per-client statistics."""
    idx = np.sort(np.asarray(active, dtype=int))
    if idx.size == 0:
        raise ValueError("active set is empty")
    betas = solve_head(inst, idx, A)
    resid = inst.moment[idx] - (inst.gram[idx] @ A @ betas[:, :, None])[:, :, 0]
    grads = -(2.0 / inst.n_train) * resid[:, :, None] * betas[:, None, :]
    return _positive_qr(A - inst.step_size * grads.mean(axis=0)), betas


def principal_angle_dist(M, N) -> float:
    """Spectral-norm distance between the column spaces of M and N, the
    sine of their largest principal angle: ``||N_perp^T M_hat||_2``, with
    ``M_hat`` an orthonormal basis of ``span(M)`` and ``N_perp`` one of
    the orthonormal complement of ``span(N)``. M and N have one shape, so
    the two spaces have equal dimension, and this is the same value as
    ``||M_perp^T N_hat||_2``: the distance is symmetric."""
    M = np.asarray(M, dtype=float)
    N = np.asarray(N, dtype=float)
    if M.shape != N.shape or M.ndim != 2:
        raise ValueError("arguments must be matrices of identical shape")
    return _sin_max(_complement(N), _orthonormalize(M))


def _orthonormalize(M: np.ndarray, mode: str = "reduced") -> np.ndarray:
    """Q of the QR of ``M`` (``mode`` as in ``np.linalg.qr``), ``M`` of
    full column rank."""
    Q, R = np.linalg.qr(M, mode=mode)
    diag = np.abs(np.diag(R))
    if np.any(diag < 1e-10 * max(1.0, float(diag.max(initial=0.0)))):
        raise ValueError("matrix is rank deficient")
    return Q


def _complement(N: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ``span(N)^perp``, ``(k, k - d)`` for ``N`` of
    shape ``(k, d)`` and full column rank."""
    return _orthonormalize(N, mode="complete")[:, N.shape[1]:]


def _sin_max(N_perp: np.ndarray, M_hat: np.ndarray) -> float:
    """``||N_perp^T M_hat||_2`` for orthonormal ``M_hat``, clipped to 1;
    zero when the complement is empty."""
    return min(float(np.linalg.norm(N_perp.T @ M_hat, 2)), 1.0)


def _test_mse(inst: TheoryInstance, A: np.ndarray, betas: np.ndarray) -> float:
    """Held-out squared error of representation ``A`` and the heads
    ``betas`` (one row per client), averaged per client, then over
    clients. Client i's residual ``Phi_test_i A beta_i - y_test_i`` is
    ``[Phi_test_i, y_test_i] v_i`` with ``v_i = [A beta_i; -1]``, so its
    squared norm is ``||R_i v_i||^2`` with ``R_i = inst.test_r[i]``."""
    v = np.concatenate([betas @ A.T, np.full((len(betas), 1), -1.0)], axis=1)
    resid = (inst.test_r @ v[:, :, None])[:, :, 0]
    return float(np.sum(resid**2)) / (len(betas) * inst.n_test)


def run_theory_experiment(config: TheoryConfig):
    """Build an instance, run the alternating rounds, record the trace.

    Returns ``(A, rows)``: the final representation and one row ``(t,
    dist, mse)`` per round plus the initial row, T+1 rows total. ``dist``
    measures the principal angle between the current representation and
    the sign-corrected oracle one, as :func:`principal_angle_dist` does,
    against the target's complement formed once (``A`` is orthonormal:
    it comes from ``init_A0`` or a round's QR); ``mse`` is held-out
    prediction error.
    """
    inst = make_instance(config)
    A = init_A0(inst)
    betas = solve_head(inst, np.arange(inst.n_clients), A)
    target_perp = _complement(inst.QA_star)
    rows = [(0, _sin_max(target_perp, A), _test_mse(inst, A, betas))]
    for t in range(1, config.rounds + 1):
        active = select_active_clients(inst.n_clients, config.participation,
                                       stream(config.seed, _TAG_SELECT, t))
        A, betas[np.sort(active)] = fedrep_linear_round(inst, A, active)
        rows.append((t, _sin_max(target_perp, A), _test_mse(inst, A, betas)))
    return A, rows
