from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

import flic.theory
from flic.rng import stream
from flic.theory import (
    TheoryConfig,
    fedrep_linear_round,
    init_A0,
    make_instance,
    oracle_phi_star,
    phi_hat,
    principal_angle_dist,
    run_theory_experiment,
    solve_head,
)

SMALL = TheoryConfig(clients=8, samples=300, test_samples=100, rounds=30, seed=3)


def raw_data(config, inst):
    """The raw training sets, their labels and the raw test sets of
    ``make_instance(config)``, drawn again as it draws them; the instance
    itself keeps only statistics."""
    rng = stream(config.seed, flic.theory._TAG_INSTANCE)
    flic.theory._draw_oracle(rng, config)
    raw = SimpleNamespace(X_train=[], y_train=[], X_test=[])
    for i in range(config.clients):
        *_, X_train, X_test = flic.theory._draw_client(rng, config, i)
        raw.X_train.append(X_train)
        raw.y_train.append(oracle_phi_star(inst, i, X_train) @ (inst.A_star @ inst.betas_star[i]))
        raw.X_test.append(X_test)
    return raw


def identity_instance(k=3, k_i=3, n=50, seed=0):
    """Hand-built instance with Sigma = I, m = 0, positive signs."""
    from flic.theory import TheoryInstance

    rng = np.random.default_rng(seed)
    A_star, _ = np.linalg.qr(rng.standard_normal((k, 2)))
    X_train = rng.standard_normal((n, k_i))
    X_test = rng.standard_normal((n, k_i))
    inst = TheoryInstance(
        latent_dim=k,
        head_dim=2,
        means=[np.zeros(k_i)],
        eig_vecs=[np.eye(k_i)],
        eig_vals=[np.ones(k_i)],
        sign_star=np.ones(k),
        sign_hat=np.ones(k),
        A_star=A_star,
        betas_star=np.sqrt(2) * np.array([[1.0, 0.0]]),
        y_test=np.zeros((1, n)),
        gram=(X_train.T @ X_train)[None],
        moment=np.zeros((1, k)),
        label_moment=np.zeros((1, k, k)),
        n_train=np.array([n]),
        phi_test=X_test[None],
        step_size=0.05,
    )
    return inst


class TestEmbeddings:
    def test_center_maps_to_zero(self):
        inst = make_instance(SMALL)
        out = oracle_phi_star(inst, 0, inst.means[0])
        np.testing.assert_allclose(out, np.zeros(inst.latent_dim), atol=1e-12)

    def test_identity_instance_is_identity_map(self):
        inst = identity_instance()
        X = np.random.default_rng(1).standard_normal((10, 3))
        np.testing.assert_array_equal(oracle_phi_star(inst, 0, X), X)

    def test_pushforward_is_standard_normal(self):
        inst = make_instance(SMALL)
        rng = np.random.default_rng(2)
        i = 1
        k_i = inst.means[i].size
        xi = rng.standard_normal((50_000, k_i))
        X = inst.means[i] + (xi * np.sqrt(inst.eig_vals[i])) @ inst.eig_vecs[i].T
        Z = oracle_phi_star(inst, i, X)
        assert np.max(np.abs(Z.mean(axis=0))) < 3.0 / np.sqrt(50_000) * 3
        cov = np.cov(Z.T, bias=True)
        assert np.max(np.abs(cov - np.eye(inst.latent_dim))) < 0.05

    def test_sign_relation_exact(self):
        inst = make_instance(SMALL)
        rng = np.random.default_rng(3)
        for i in range(inst.n_clients):
            X = inst.means[i] + rng.standard_normal((20, inst.means[i].size))
            np.testing.assert_array_equal(
                phi_hat(inst, i, X), inst.Q * oracle_phi_star(inst, i, X)
            )

    def test_componentwise_magnitudes_agree(self):
        inst = make_instance(SMALL)
        X = raw_data(SMALL, inst).X_train[2]
        np.testing.assert_allclose(
            np.abs(phi_hat(inst, 2, X)), np.abs(oracle_phi_star(inst, 2, X)), atol=1e-12
        )

    def test_recovered_sign_matrix(self):
        inst = make_instance(SMALL)
        X = raw_data(SMALL, inst).X_train[0][:50]
        ratio = phi_hat(inst, 0, X) / oracle_phi_star(inst, 0, X)
        np.testing.assert_allclose(ratio, np.tile(inst.Q, (50, 1)), atol=1e-12)

    def test_non_finite_rejected(self):
        inst = make_instance(SMALL)
        with pytest.raises(ValueError):
            oracle_phi_star(inst, 0, np.full(inst.means[0].size, np.nan))


class TestInitA0:
    def test_orthonormal_columns(self):
        inst = make_instance(SMALL)
        A0 = init_A0(inst)
        np.testing.assert_allclose(A0.T @ A0, np.eye(inst.head_dim), atol=1e-10)

    def test_close_to_target_subspace(self):
        inst = make_instance(TheoryConfig(clients=12, samples=2000, seed=5))
        A0 = init_A0(inst)
        assert principal_angle_dist(A0, inst.QA_star) < 0.5

    def test_full_space_case(self):
        cfg = TheoryConfig(clients=8, samples=400, latent_dim=4, head_dim=4, seed=6)
        inst = make_instance(cfg)
        A0 = init_A0(inst)
        np.testing.assert_allclose(A0.T @ A0, np.eye(4), atol=1e-10)
        assert principal_angle_dist(A0, inst.QA_star) == 0.0


class TestFedrepRound:
    def test_fixed_point_at_target(self):
        inst = make_instance(SMALL)
        inst.A = inst.QA_star.copy()
        inst.betas = np.zeros((inst.n_clients, inst.head_dim))
        target = inst.QA_star.copy()
        fedrep_linear_round(inst, np.arange(inst.n_clients))
        assert principal_angle_dist(inst.A, target) < 1e-8
        # recovered heads reproduce the training labels exactly
        raw = raw_data(SMALL, inst)
        for i in range(inst.n_clients):
            pred = phi_hat(inst, i, raw.X_train[i]) @ (inst.A @ inst.betas[i])
            np.testing.assert_allclose(pred, raw.y_train[i], atol=1e-6)

    def test_zero_step_size_is_qr_idempotent(self):
        inst = make_instance(SMALL)
        inst.A = init_A0(inst)
        inst.betas = np.zeros((inst.n_clients, inst.head_dim))
        inst.step_size = 0.0
        fedrep_linear_round(inst, np.arange(inst.n_clients))
        A_once = inst.A.copy()
        fedrep_linear_round(inst, np.arange(inst.n_clients))
        np.testing.assert_allclose(inst.A, A_once, atol=1e-13)

    def test_one_round_decreases_distance(self):
        inst = make_instance(SMALL)
        inst.A = init_A0(inst)
        inst.betas = np.zeros((inst.n_clients, inst.head_dim))
        before = principal_angle_dist(inst.A, inst.QA_star)
        fedrep_linear_round(inst, np.arange(inst.n_clients))
        after = principal_angle_dist(inst.A, inst.QA_star)
        assert after < before


class TestPrincipalAngle:
    def test_self_distance_zero(self):
        A = np.linalg.qr(np.random.default_rng(7).standard_normal((5, 2)))[0]
        assert principal_angle_dist(A, A) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_lines(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert principal_angle_dist(e1, e2) == pytest.approx(1.0, abs=1e-12)

    def test_right_multiplication_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            M = rng.standard_normal((6, 3))
            N = rng.standard_normal((6, 3))
            T1 = rng.standard_normal((3, 3)) + 3 * np.eye(3)
            T2 = rng.standard_normal((3, 3)) + 3 * np.eye(3)
            base = principal_angle_dist(M, N)
            assert abs(principal_angle_dist(M @ T1, N) - base) < 1e-10
            assert abs(principal_angle_dist(M, N @ T2) - base) < 1e-10

    def test_symmetry_and_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            M = rng.standard_normal((7, 3))
            N = rng.standard_normal((7, 3))
            d1 = principal_angle_dist(M, N)
            d2 = principal_angle_dist(N, M)
            assert abs(d1 - d2) < 1e-10
            assert 0.0 <= d1 <= 1.0

    def test_rank_deficiency_rejected(self):
        M = np.zeros((4, 2))
        M[:, 0] = 1.0
        M[:, 1] = 2.0 * M[:, 0]
        with pytest.raises(ValueError, match="rank"):
            principal_angle_dist(M, np.eye(4)[:, :2])


class TestRunExperiment:
    def test_trace_properties(self):
        inst, rows = run_theory_experiment(SMALL)
        assert len(rows) == SMALL.rounds + 1
        dists = np.array([r[1] for r in rows])
        # monotone decay after the first round
        assert np.all(np.diff(dists[1:]) <= 1e-9)
        # representation stays orthonormal
        np.testing.assert_allclose(
            inst.A.T @ inst.A, np.eye(inst.head_dim), atol=1e-10
        )

    def test_geometric_decay_log_linear(self):
        _, rows = run_theory_experiment(SMALL)
        dists = np.array([r[1] for r in rows])
        mask = dists > 1e-8
        t = np.arange(len(dists))[mask]
        logd = np.log(dists[mask])
        slope, intercept = np.polyfit(t, logd, 1)
        fitted = slope * t + intercept
        ss_res = np.sum((logd - fitted) ** 2)
        ss_tot = np.sum((logd - logd.mean()) ** 2)
        assert 1 - ss_res / ss_tot > 0.95
        assert slope < 0

    def test_contraction_ratio_roughly_constant(self):
        _, rows = run_theory_experiment(TheoryConfig())
        dists = np.array([r[1] for r in rows])
        # per-round contraction within the cleanly decaying region
        region = (dists[:-1] > 1e-8) & (dists[1:] > 1e-8)
        c = (1.0 - dists[1:] / dists[:-1])[region]
        assert np.all(c > 0)
        # the rate settles to a constant once the initial transient passes
        steady = c[5:]
        med = np.median(steady)
        assert med > 0
        assert np.all(np.abs(steady - med) <= 0.2 * med)

    def test_mse_tracks_distance(self):
        from scipy.stats import spearmanr

        _, rows = run_theory_experiment(SMALL)
        dists = np.array([r[1] for r in rows])
        mses = np.array([r[2] for r in rows])
        rho = spearmanr(dists, mses).statistic
        assert rho > 0.9

    def test_partial_participation_runs(self):
        cfg = TheoryConfig(
            clients=10, samples=400, participation=0.5, rounds=40, seed=11
        )
        _, rows = run_theory_experiment(cfg)
        assert rows[-1][1] < rows[0][1]

    def test_deterministic(self):
        _, rows_a = run_theory_experiment(SMALL)
        _, rows_b = run_theory_experiment(SMALL)
        assert rows_a == rows_b


def direct_head(inst, raw, i, A):
    """The head solve written on the embedded training data itself."""
    E = phi_hat(inst, i, raw.X_train[i]) @ A
    G = E.T @ E + 1e-10 * np.eye(A.shape[1])
    return np.linalg.solve(G, E.T @ raw.y_train[i])


def direct_round(inst, raw, active):
    """One round written on the embedded training data: per-client head,
    residual and gradient, then the averaged step and the QR fix-up."""
    A = inst.A
    proposals = np.zeros_like(A)
    betas = {}
    for i in active:
        Phi = phi_hat(inst, i, raw.X_train[i])
        beta = direct_head(inst, raw, i, A)
        betas[i] = beta
        resid = raw.y_train[i] - (Phi @ A) @ beta
        grad = -(2.0 / Phi.shape[0]) * np.outer(Phi.T @ resid, beta)
        proposals += A - inst.step_size * grad
    Qm, R = np.linalg.qr(proposals / len(active))
    return Qm * np.sign(np.diag(R)), betas


class TestSufficientStatistics:
    def test_statistics_match_embedded_data(self):
        inst = make_instance(SMALL)
        raw = raw_data(SMALL, inst)
        for i in range(inst.n_clients):
            Phi = phi_hat(inst, i, raw.X_train[i])
            y = raw.y_train[i]
            np.testing.assert_allclose(inst.gram[i], Phi.T @ Phi, rtol=1e-12)
            np.testing.assert_allclose(inst.moment[i], Phi.T @ y, rtol=1e-10)
            np.testing.assert_array_equal(
                inst.label_moment[i], (Phi * (y**2)[:, None]).T @ Phi / y.size
            )
            assert inst.n_train[i] == SMALL.samples == y.size
            np.testing.assert_array_equal(inst.phi_test[i], phi_hat(inst, i, raw.X_test[i]))

    def test_init_A0_matches_the_moment_summed_over_raw_data(self):
        inst = make_instance(SMALL)
        raw = raw_data(SMALL, inst)
        M = np.zeros((inst.latent_dim, inst.latent_dim))
        for i in range(inst.n_clients):
            Phi = phi_hat(inst, i, raw.X_train[i])
            M += (Phi * (raw.y_train[i] ** 2)[:, None]).T @ Phi / Phi.shape[0]
        M /= inst.n_clients
        vecs = np.linalg.eigh(M)[1][:, -inst.head_dim:][:, ::-1]
        A0 = init_A0(inst)
        np.testing.assert_array_equal(np.abs(A0), np.abs(vecs))

    def test_instance_memory_does_not_grow_with_training_samples(self):
        def array_bytes(samples):
            inst = make_instance(TheoryConfig(clients=8, samples=samples, seed=3))
            return sum(getattr(inst, f.name).nbytes for f in fields(inst)
                       if isinstance(getattr(inst, f.name), np.ndarray))

        assert array_bytes(300) == array_bytes(3000)

    def test_solve_head_matches_direct_formula(self):
        inst = make_instance(SMALL)
        raw = raw_data(SMALL, inst)
        A = init_A0(inst)
        for i in range(inst.n_clients):
            np.testing.assert_allclose(
                solve_head(inst, i, A), direct_head(inst, raw, i, A), rtol=1e-10
            )

    def test_batched_solve_head_matches_single(self):
        inst = make_instance(SMALL)
        A = init_A0(inst)
        idx = np.array([1, 4, 6])
        batched = solve_head(inst, idx, A)
        assert batched.shape == (3, inst.head_dim)
        for row, i in zip(batched, idx):
            np.testing.assert_allclose(row, solve_head(inst, i, A), rtol=1e-12)

    def test_round_matches_direct_formula(self):
        inst = make_instance(SMALL)
        inst.A = init_A0(inst)
        inst.betas = np.zeros((inst.n_clients, inst.head_dim))
        active = [0, 2, 3, 5, 7]
        A_ref, betas_ref = direct_round(inst, raw_data(SMALL, inst), active)
        fedrep_linear_round(inst, np.array(active))
        np.testing.assert_allclose(inst.A, A_ref, rtol=1e-10)
        for i in active:
            np.testing.assert_allclose(inst.betas[i], betas_ref[i], rtol=1e-10)
        for i in set(range(inst.n_clients)) - set(active):
            np.testing.assert_array_equal(inst.betas[i], 0.0)

    def test_test_mse_matches_direct_formula(self):
        inst = make_instance(SMALL)
        inst.A = init_A0(inst)
        inst.betas = solve_head(inst, np.arange(inst.n_clients), inst.A)
        raw = raw_data(SMALL, inst)
        errs = [
            np.mean((phi_hat(inst, i, raw.X_test[i]) @ (inst.A @ inst.betas[i]) - inst.y_test[i]) ** 2)
            for i in range(inst.n_clients)
        ]
        assert flic.theory._test_mse(inst) == pytest.approx(np.mean(errs), rel=1e-10)

    def test_empty_active_set_rejected(self):
        inst = make_instance(SMALL)
        inst.A = init_A0(inst)
        inst.betas = np.zeros((inst.n_clients, inst.head_dim))
        with pytest.raises(ValueError, match="empty"):
            fedrep_linear_round(inst, [])

    def test_rounds_do_not_re_embed(self, monkeypatch):
        calls = []
        original = flic.theory._embed

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(flic.theory, "_embed", counting)
        run_theory_experiment(SMALL)
        # make_instance's one pass over each raw training and test set;
        # init_A0 and the rounds read the stored statistics
        assert len(calls) == 2 * SMALL.clients


class TestSolveHead:
    def test_recovers_oracle_at_target(self):
        inst = make_instance(SMALL)
        raw = raw_data(SMALL, inst)
        A = inst.QA_star
        for i in range(3):
            beta = solve_head(inst, i, A)
            # labels are exactly linear in phi_hat @ A at the target
            pred = (phi_hat(inst, i, raw.X_train[i]) @ A) @ beta
            np.testing.assert_allclose(pred, raw.y_train[i], atol=1e-6)


class TestConfigValidation:
    def test_head_dim_bound(self):
        with pytest.raises(ValueError):
            TheoryConfig(latent_dim=3, head_dim=4)

    def test_raw_dim_bound(self):
        with pytest.raises(ValueError):
            TheoryConfig(latent_dim=6, raw_dim_min=5, raw_dim_max=8)

    @pytest.mark.parametrize("field", ["samples", "test_samples"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_sample_counts_at_least_one(self, field, value):
        with pytest.raises(ValueError, match="at least 1"):
            TheoryConfig(**{field: value})

    def test_active_set_spanning_bound(self):
        with pytest.raises(ValueError, match="span"):
            TheoryConfig(clients=20, participation=0.1, head_dim=3)
