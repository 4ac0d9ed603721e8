import copy
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import flic.theory
from flic.federation import select_active_clients
from flic.rng import stream
from flic.theory import (
    TheoryConfig,
    fedrep_linear_round,
    init_A0,
    make_instance,
    oracle_phi_star,
    principal_angle_dist,
    run_theory_experiment,
    solve_head,
)

SMALL = TheoryConfig(clients=8, samples=300, test_samples=100, rounds=30, seed=3)


def raw_data(config):
    """The draws of ``make_instance(config)``, drawn again as it draws
    them: the oracle signs and, per client, the Gaussian's mean,
    eigenvectors and eigenvalues, the raw training and test sets and
    their labels. The instance itself keeps only statistics."""
    rng = stream(config.seed, flic.theory._TAG_INSTANCE)
    A_star, betas_star, sign_star, _ = flic.theory._draw_oracle(rng, config)
    raw = SimpleNamespace(sign_star=sign_star, clients=[], X_train=[], y_train=[], X_test=[],
                          y_test=[])
    for i in range(config.clients):
        mean, vecs, vals, X_train, X_test = flic.theory._draw_client(rng, config)
        raw.clients.append((mean, vecs, vals))
        w = A_star @ betas_star[i]
        raw.X_train.append(X_train)
        raw.y_train.append(phi_star(raw, i, X_train) @ w)
        raw.X_test.append(X_test)
        raw.y_test.append(phi_star(raw, i, X_test) @ w)
    return raw


def phi_star(raw, i, X):
    """The oracle embedding of client i's rows."""
    return oracle_phi_star(X, *raw.clients[i], raw.sign_star)


def phi_hat(inst, raw, i, X):
    """The estimated embedding, the oracle one up to the sign matrix Q."""
    return inst.Q * phi_star(raw, i, X)


def same_bits(a, b):
    """Equal shapes and identical float64 bit patterns (so -0.0 != 0.0)."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestEmbeddings:
    def test_center_maps_to_zero(self):
        raw = raw_data(SMALL)
        out = phi_star(raw, 0, raw.clients[0][0][None])
        np.testing.assert_allclose(out, np.zeros((1, SMALL.latent_dim)), atol=1e-12)

    def test_identity_client_is_identity_map(self):
        """Sigma = I, m = 0 and positive signs whiten to the rows themselves."""
        X = np.random.default_rng(1).standard_normal((10, 3))
        ones = np.ones(3)
        np.testing.assert_array_equal(oracle_phi_star(X, np.zeros(3), np.eye(3), ones, ones), X)

    def test_pushforward_is_standard_normal(self):
        raw = raw_data(SMALL)
        rng = np.random.default_rng(2)
        i = 1
        mean, vecs, vals = raw.clients[i]
        xi = rng.standard_normal((50_000, mean.size))
        X = mean + (xi * np.sqrt(vals)) @ vecs.T
        Z = phi_star(raw, i, X)
        assert np.max(np.abs(Z.mean(axis=0))) < 3.0 / np.sqrt(50_000) * 3
        cov = np.cov(Z.T, bias=True)
        assert np.max(np.abs(cov - np.eye(SMALL.latent_dim))) < 0.05

    def test_non_finite_rejected(self):
        raw = raw_data(SMALL)
        with pytest.raises(ValueError, match="non-finite"):
            phi_star(raw, 0, np.full((1, raw.clients[0][0].size), np.nan))

    def test_wrong_dimension_rejected(self):
        raw = raw_data(SMALL)
        width = raw.clients[0][0].size
        with pytest.raises(ValueError, match="dimension"):
            phi_star(raw, 0, np.zeros((2, width + 1)))
        # one row must come as a one-row matrix
        with pytest.raises(ValueError, match="dimension"):
            phi_star(raw, 0, np.zeros(width))


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
        A, betas = fedrep_linear_round(inst, inst.QA_star, np.arange(inst.n_clients))
        assert principal_angle_dist(A, inst.QA_star) < 1e-8
        # recovered heads reproduce the training labels exactly
        raw = raw_data(SMALL)
        for i in range(inst.n_clients):
            pred = phi_hat(inst, raw, i, raw.X_train[i]) @ (A @ betas[i])
            np.testing.assert_allclose(pred, raw.y_train[i], atol=1e-6)

    def test_zero_step_size_is_qr_idempotent(self):
        inst = dataclasses.replace(make_instance(SMALL), step_size=0.0)
        everyone = np.arange(inst.n_clients)
        A_once, _ = fedrep_linear_round(inst, init_A0(inst), everyone)
        A_twice, _ = fedrep_linear_round(inst, A_once, everyone)
        np.testing.assert_allclose(A_twice, A_once, atol=1e-13)

    def test_one_round_decreases_distance(self):
        inst = make_instance(SMALL)
        A0 = init_A0(inst)
        A1, _ = fedrep_linear_round(inst, A0, np.arange(inst.n_clients))
        assert principal_angle_dist(A1, inst.QA_star) < principal_angle_dist(A0, inst.QA_star)


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
        A, rows = run_theory_experiment(SMALL)
        assert len(rows) == SMALL.rounds + 1
        dists = np.array([r[1] for r in rows])
        # monotone decay after the first round
        assert np.all(np.diff(dists[1:]) <= 1e-9)
        # representation stays orthonormal
        np.testing.assert_allclose(A.T @ A, np.eye(SMALL.head_dim), atol=1e-10)

    def test_rounds_only_read_the_instance(self, monkeypatch):
        built = []
        original = flic.theory.make_instance

        def keeping(config):
            inst = original(config)
            built.append((inst, copy.deepcopy(inst)))
            return inst

        monkeypatch.setattr(flic.theory, "make_instance", keeping)
        run_theory_experiment(dataclasses.replace(SMALL, participation=0.5))
        [(inst, before)] = built
        for f in dataclasses.fields(inst):
            np.testing.assert_array_equal(getattr(inst, f.name), getattr(before, f.name),
                                          strict=True)

    def test_a_round_keeps_the_inactive_heads(self, monkeypatch):
        """Between two scored rows the runner replaces the heads of the
        round's active clients with the ones the round returned and keeps
        every other head, bit for bit."""
        cfg = TheoryConfig(clients=10, samples=100, participation=0.5, rounds=6, seed=4)
        rounds, scored = [], []
        original_round, original_mse = flic.theory.fedrep_linear_round, flic.theory._test_mse

        def recording_round(inst, A, active):
            A_next, betas = original_round(inst, A, active)
            rounds.append((np.sort(active), betas.copy()))
            return A_next, betas

        def recording_mse(inst, A, betas):
            scored.append(betas.copy())
            return original_mse(inst, A, betas)

        monkeypatch.setattr(flic.theory, "fedrep_linear_round", recording_round)
        monkeypatch.setattr(flic.theory, "_test_mse", recording_mse)
        run_theory_experiment(cfg)
        assert len(scored) == cfg.rounds + 1 and len(rounds) == cfg.rounds
        inst = make_instance(cfg)
        assert same_bits(scored[0], solve_head(inst, np.arange(cfg.clients), init_A0(inst)))
        for t, (before, after, (active, heads)) in enumerate(zip(scored, scored[1:], rounds), 1):
            inactive = np.setdiff1d(np.arange(cfg.clients), active)
            assert inactive.size == 5
            assert same_bits(after[active], heads)
            assert same_bits(after[inactive], before[inactive])
            # round 1 solves at A0, as the initial row did; later rounds
            # move every active head
            assert np.array_equal(after[active], before[active]) == (t == 1)

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

    def test_active_sets_are_the_federated_draws(self, monkeypatch):
        """Each round's active set is what ``select_active_clients`` draws
        from the round's stream."""
        cfg = TheoryConfig(clients=10, samples=100, participation=0.5, rounds=6, seed=4)
        drawn = []
        original = flic.theory.fedrep_linear_round

        def recording(inst, A, active):
            drawn.append(np.array(active))
            return original(inst, A, active)

        monkeypatch.setattr(flic.theory, "fedrep_linear_round", recording)
        run_theory_experiment(cfg)
        assert len(drawn) == cfg.rounds
        for t, active in enumerate(drawn, start=1):
            rng = stream(cfg.seed, flic.theory._TAG_SELECT, t)
            np.testing.assert_array_equal(active, select_active_clients(10, 0.5, rng))
            assert active.size == 5
        assert len({tuple(a) for a in drawn}) > 1

    def test_dist_is_the_principal_angle_of_each_round(self, monkeypatch):
        """Each row's ``dist`` is ``principal_angle_dist`` of the row's
        representation and the target, though the runner forms the
        target's complement once and skips orthonormalizing ``A``."""
        cfg = dataclasses.replace(SMALL, participation=0.5)
        scored = []
        original_mse = flic.theory._test_mse

        def recording_mse(inst, A, betas):
            scored.append(A.copy())
            return original_mse(inst, A, betas)

        monkeypatch.setattr(flic.theory, "_test_mse", recording_mse)
        _, rows = run_theory_experiment(cfg)
        assert len(scored) == len(rows) == cfg.rounds + 1
        target = make_instance(cfg).QA_star
        for (_, dist, _), A in zip(rows, scored):
            assert abs(dist - principal_angle_dist(A, target)) <= 1e-15

    def test_deterministic(self):
        _, rows_a = run_theory_experiment(SMALL)
        _, rows_b = run_theory_experiment(SMALL)
        assert rows_a == rows_b


def direct_head(inst, raw, i, A):
    """The head solve written on the embedded training data itself."""
    E = phi_hat(inst, raw, i, raw.X_train[i]) @ A
    G = E.T @ E + 1e-10 * np.eye(A.shape[1])
    return np.linalg.solve(G, E.T @ raw.y_train[i])


def direct_round(inst, raw, A, active):
    """One round written on the embedded training data: per-client head,
    residual and gradient, then the averaged step and the QR fix-up."""
    proposals = np.zeros_like(A)
    betas = {}
    for i in active:
        Phi = phi_hat(inst, raw, i, raw.X_train[i])
        beta = direct_head(inst, raw, i, A)
        betas[i] = beta
        resid = raw.y_train[i] - (Phi @ A) @ beta
        grad = -(2.0 / Phi.shape[0]) * np.outer(Phi.T @ resid, beta)
        proposals += A - inst.step_size * grad
    Qm, R = np.linalg.qr(proposals / len(active))
    return Qm * np.sign(np.diag(R)), betas


# Test-set sizes around the latent dimension k = 5: one row, k rows (R
# has a zero row below), k+1 rows (R is square) and many rows.
TEST_SAMPLES = [1, SMALL.latent_dim, SMALL.latent_dim + 1, SMALL.test_samples]


class TestSufficientStatistics:
    @pytest.mark.parametrize("test_samples", TEST_SAMPLES)
    def test_statistics_match_embedded_data(self, test_samples):
        cfg = dataclasses.replace(SMALL, test_samples=test_samples)
        inst = make_instance(cfg)
        raw = raw_data(cfg)
        k = inst.latent_dim
        assert inst.n_train == cfg.samples and inst.n_test == test_samples
        assert inst.test_r.shape == (inst.n_clients, k + 1, k + 1)
        for i in range(inst.n_clients):
            Phi = phi_hat(inst, raw, i, raw.X_train[i])
            y = raw.y_train[i]
            assert y.size == inst.n_train
            np.testing.assert_allclose(inst.gram[i], Phi.T @ Phi, rtol=1e-12)
            np.testing.assert_allclose(inst.moment[i], Phi.T @ y, rtol=1e-10)
            R = inst.test_r[i]
            np.testing.assert_array_equal(R, np.triu(R))
            test_set = np.column_stack([phi_hat(inst, raw, i, raw.X_test[i]), raw.y_test[i]])
            np.testing.assert_allclose(R.T @ R, test_set.T @ test_set, rtol=1e-10)

    def test_init_moment_is_the_client_average_over_raw_data(self):
        inst = make_instance(SMALL)
        raw = raw_data(SMALL)
        moments = [
            (Phi * (y**2)[:, None]).T @ Phi / y.size
            for Phi, y in ((phi_hat(inst, raw, i, X), y)
                           for i, (X, y) in enumerate(zip(raw.X_train, raw.y_train)))
        ]
        np.testing.assert_allclose(inst.init_moment, np.mean(moments, axis=0), rtol=1e-12)

    def test_init_A0_matches_the_moment_summed_over_raw_data(self):
        inst = make_instance(SMALL)
        raw = raw_data(SMALL)
        M = np.zeros((inst.latent_dim, inst.latent_dim))
        for i in range(inst.n_clients):
            Phi = phi_hat(inst, raw, i, raw.X_train[i])
            M += (Phi * (raw.y_train[i] ** 2)[:, None]).T @ Phi / Phi.shape[0]
        M /= inst.n_clients
        vecs = np.linalg.eigh(M)[1][:, -inst.head_dim:][:, ::-1]
        A0 = init_A0(inst)
        np.testing.assert_array_equal(np.abs(A0), np.abs(vecs))

    def test_instance_memory_does_not_grow_with_samples(self):
        def array_bytes(samples, test_samples):
            inst = make_instance(TheoryConfig(clients=8, samples=samples,
                                              test_samples=test_samples, seed=3))
            return sum(getattr(inst, f.name).nbytes for f in dataclasses.fields(inst)
                       if isinstance(getattr(inst, f.name), np.ndarray))

        assert array_bytes(300, 200) == array_bytes(3000, 200) == array_bytes(300, 2000)

    def test_solve_head_matches_direct_formula(self):
        inst = make_instance(SMALL)
        raw = raw_data(SMALL)
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
        A = init_A0(inst)
        active = [0, 2, 3, 5, 7]
        A_ref, betas_ref = direct_round(inst, raw_data(SMALL), A, active)
        A_next, betas = fedrep_linear_round(inst, A, np.array([7, 0, 5, 3, 2]))
        np.testing.assert_allclose(A_next, A_ref, rtol=1e-10)
        # one head per active client, in increasing client order
        assert betas.shape == (len(active), inst.head_dim)
        for beta, i in zip(betas, active):
            np.testing.assert_allclose(beta, betas_ref[i], rtol=1e-10)

    @pytest.mark.parametrize("test_samples", TEST_SAMPLES)
    def test_test_mse_matches_direct_formula(self, test_samples):
        cfg = dataclasses.replace(SMALL, test_samples=test_samples)
        inst = make_instance(cfg)
        raw = raw_data(cfg)

        def direct(A, betas):
            return np.mean([
                np.mean((phi_hat(inst, raw, i, X) @ (A @ beta) - y) ** 2)
                for i, (X, y, beta) in enumerate(zip(raw.X_test, raw.y_test, betas))
            ])

        A = init_A0(inst)
        betas = solve_head(inst, np.arange(inst.n_clients), A)
        assert direct(A, betas) > 1e-3
        assert flic.theory._test_mse(inst, A, betas) == pytest.approx(direct(A, betas), rel=1e-10)
        # the oracle fits the noiseless labels: both errors are round-off
        A, betas = inst.QA_star, inst.betas_star
        assert flic.theory._test_mse(inst, A, betas) == pytest.approx(direct(A, betas), abs=1e-25)

    def test_empty_active_set_rejected(self):
        inst = make_instance(SMALL)
        with pytest.raises(ValueError, match="empty"):
            fedrep_linear_round(inst, init_A0(inst), [])

    def test_rounds_do_not_re_embed(self, monkeypatch):
        calls = []
        original = flic.theory.oracle_phi_star

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(flic.theory, "oracle_phi_star", counting)
        run_theory_experiment(SMALL)
        # make_instance's one pass over each raw training and test set;
        # init_A0 and the rounds read the stored statistics
        assert len(calls) == 2 * SMALL.clients


class TestSolveHead:
    def test_recovers_oracle_at_target(self):
        inst = make_instance(SMALL)
        raw = raw_data(SMALL)
        A = inst.QA_star
        for i in range(3):
            beta = solve_head(inst, i, A)
            # labels are exactly linear in phi_hat @ A at the target
            pred = (phi_hat(inst, raw, i, raw.X_train[i]) @ A) @ beta
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

    @pytest.mark.parametrize("clients, participation, size",
                             [(100, 0.29, 29), (100, 0.57, 57), (100, 0.58, 58), (50, 0.58, 29)])
    def test_spanning_bound_counts_the_rate_as_written(self, clients, participation, size):
        def config(d):
            return TheoryConfig(clients=clients, participation=participation, latent_dim=d,
                                head_dim=d, raw_dim_min=d, raw_dim_max=d)

        assert config(size).head_dim == size  # floor(rate * b) alone gives size - 1
        with pytest.raises(ValueError, match="span"):
            config(size + 1)


@pytest.mark.parametrize("clients, participation, size",
                         [(100, 0.29, 29), (100, 0.58, 58), (50, 0.58, 29), (100, 0.5, 50)])
def test_make_instance_caps_the_step_over_active_sets_of_the_documented_size(
        monkeypatch, clients, participation, size):
    seen = []
    cap = flic.theory._sigma_max_sq_cap

    def recording(betas_star, active_size, rng):
        seen.append(active_size)
        return cap(betas_star, active_size, rng)

    monkeypatch.setattr(flic.theory, "_sigma_max_sq_cap", recording)
    make_instance(TheoryConfig(clients=clients, participation=participation, samples=4,
                               test_samples=1, latent_dim=2, head_dim=1, raw_dim_min=2,
                               raw_dim_max=2))
    assert seen == [size]
