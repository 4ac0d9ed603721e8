import numpy as np
import pytest

from flic.gaussian import BuresGradientError, bures_sq_batch_value_grad, bures_sq_value_grad

from helpers import bures_sq_ref, count_eigh, fd_grad, quantile_w2_sq_1d, random_psd, rel_err


def bures(A, B):
    """``B^2(A, B)`` as the kernel computes it, from a Cholesky factor of ``A``."""
    return bures_sq_value_grad(np.linalg.cholesky(A), B)[0]


def w2_sq(m1, L1, m2, L2):
    """Squared W2 between ``N(m1, L1 L1^T)`` and ``N(m2, L2 L2^T)``: the
    mean term plus the kernel's Bures term."""
    diff = np.asarray(m1) - np.asarray(m2)
    return float(diff @ diff) + bures_sq_value_grad(L1, L2 @ L2.T)[0]


class TestBures:
    def test_identical_arguments(self):
        assert bures(np.eye(2), np.eye(2)) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_identity_scalings(self):
        # tr(I) + tr(4I) - 2 tr(2I) = 2 + 8 - 8
        assert bures(np.eye(2), 4 * np.eye(2)) == pytest.approx(2.0, abs=1e-10)

    def test_commuting_diagonals(self):
        got = bures(np.diag([1.0, 4.0]), np.diag([9.0, 16.0]))
        assert got == pytest.approx((1 - 3) ** 2 + (2 - 4) ** 2, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            k = int(rng.integers(1, 7))
            A, B = random_psd(rng, k), random_psd(rng, k)
            assert abs(bures(A, B) - bures(B, A)) < 1e-8

    def test_commuting_equals_frobenius_of_sqrt_difference(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(1, 7))
            V, _ = np.linalg.qr(rng.standard_normal((k, k)))
            a = rng.uniform(0.1, 3.0, k)
            b = rng.uniform(0.1, 3.0, k)
            A = (V * a) @ V.T
            B = (V * b) @ V.T
            expected = float(np.sum((np.sqrt(a) - np.sqrt(b)) ** 2))
            assert abs(bures(A, B) - expected) < 1e-8

    def test_non_commuting_2x2_closed_form(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            A, B = random_psd(rng, 2), random_psd(rng, 2)
            assert not np.allclose(A @ B, B @ A)
            assert abs(bures(A, B) - bures_2x2(A, B)) < 1e-10

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(1, 7))
            A, B = random_psd(rng, k), random_psd(rng, k)
            c = rng.uniform(0.1, 10.0)
            assert abs(bures(c * A, c * B) - c * bures(A, B)) < 1e-8 * max(1.0, c)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            k = int(rng.integers(1, 7))
            A, B = random_psd(rng, k), random_psd(rng, k)
            Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            rotated = bures(Q @ A @ Q.T, Q @ B @ Q.T)
            assert abs(rotated - bures(A, B)) < 1e-8


def bures_2x2(A, B):
    """Closed form for 2 x 2 arguments: ``M = A^{1/2} B A^{1/2}`` has
    ``(tr M^{1/2})^2 = tr M + 2 sqrt(det M)``, with ``tr M = tr(AB)`` and
    ``det M = det A det B``; no matrix square root is formed."""
    cross = np.sqrt(np.trace(A @ B) + 2.0 * np.sqrt(np.linalg.det(A) * np.linalg.det(B)))
    return float(np.trace(A) + np.trace(B) - 2.0 * cross)


class TestBuresReference:
    """The scipy oracle the kernels are checked against, checked itself
    against closed forms."""

    def test_commuting_diagonals(self):
        got = bures_sq_ref(np.diag([1.0, 4.0, 0.25]), np.diag([9.0, 16.0, 1.0]))
        assert got == pytest.approx((1 - 3) ** 2 + (2 - 4) ** 2 + (0.5 - 1) ** 2, abs=1e-10)

    def test_non_commuting_2x2_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            A, B = random_psd(rng, 2), random_psd(rng, 2)
            assert abs(bures_sq_ref(A, B) - bures_2x2(A, B)) < 1e-10


class TestW2:
    def test_equal_gaussians(self):
        got = w2_sq(np.zeros(2), np.eye(2), np.zeros(2), np.eye(2))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_1d_closed_form(self):
        got = w2_sq(np.array([0.0]), np.array([[1.0]]), np.array([2.0]), np.array([[2.0]]))
        assert got == pytest.approx(5.0, abs=1e-10)

    def test_1d_against_quantile_coupling_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            m1, m2 = rng.uniform(-2, 2, 2)
            s1, s2 = rng.uniform(0.5, 2.0, 2)
            closed = w2_sq(np.array([m1]), np.array([[s1]]), np.array([m2]), np.array([[s2]]))
            brute = quantile_w2_sq_1d(m1, s1, m2, s2)
            assert abs(closed - brute) < 1e-4

    def test_triangle_inequality_on_sqrt(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            k = int(rng.integers(1, 6))
            gs = [
                (rng.standard_normal(k), np.linalg.cholesky(random_psd(rng, k)))
                for _ in range(3)
            ]
            d01 = np.sqrt(w2_sq(*gs[0], *gs[1]))
            d02 = np.sqrt(w2_sq(*gs[0], *gs[2]))
            d21 = np.sqrt(w2_sq(*gs[2], *gs[1]))
            assert d01 <= d02 + d21 + 1e-8

    def test_equal_covariances_leave_the_mean_term(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            k = int(rng.integers(1, 7))
            m1, m2 = rng.standard_normal(k), rng.standard_normal(k)
            L = np.linalg.cholesky(random_psd(rng, k))
            got = w2_sq(m1, L, m2, L)
            assert got == pytest.approx(float((m1 - m2) @ (m1 - m2)), abs=1e-9)


def factor_grad(L, B):
    """Gradient of ``L -> B^2(L @ L.T, B)`` through the kernel: by the
    symmetry of ``B^2`` it is ``2 G L`` with ``G`` the gradient in the
    second argument at ``L L^T`` for a factor of ``B``."""
    return 2.0 * bures_sq_value_grad(np.linalg.cholesky(B), L @ L.T)[1] @ L


class TestBuresValueGrad:
    def test_value_matches_reference_on_random_factors(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            k = int(rng.integers(1, 9))
            L = rng.standard_normal((k, k)) + 2 * np.eye(k)
            S = random_psd(rng, k)
            value, _ = bures_sq_value_grad(L, S)
            assert abs(value - bures_sq_ref(L @ L.T, S)) < 1e-10

    def test_gradient_zero_at_matching_covariance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            k = int(rng.integers(1, 9))
            # singular values in [0.5, 2] keep L^T S L = (L^T L)^2 well conditioned
            U, _ = np.linalg.qr(rng.standard_normal((k, k)))
            V, _ = np.linalg.qr(rng.standard_normal((k, k)))
            L = (U * rng.uniform(0.5, 2.0, k)) @ V
            value, grad = bures_sq_value_grad(L, L @ L.T)
            assert value == pytest.approx(0.0, abs=1e-9)
            np.testing.assert_allclose(grad, np.zeros((k, k)), atol=1e-9)

    def test_rejects_singular_covariance(self):
        S = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(BuresGradientError, match="singular"):
            bures_sq_value_grad(np.eye(3), S)

    def test_rejects_non_finite_input(self):
        with pytest.raises(BuresGradientError, match="non-finite"):
            bures_sq_value_grad(np.eye(2), np.diag([np.inf, 1.0]))
        with pytest.raises(BuresGradientError, match="non-finite"):
            bures_sq_value_grad(np.diag([np.nan, 1.0]), np.eye(2))

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError, match="symmetric"):
            bures_sq_value_grad(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            bures_sq_value_grad(np.eye(2), np.eye(3))


class TestBuresFactorGradient:
    def test_zero_at_minimizer(self):
        np.testing.assert_array_equal(factor_grad(np.eye(3), np.eye(3)), np.zeros((3, 3)))

    def test_identity_vs_scaled_identity_matches_fd(self):
        self._check(np.eye(2), 4 * np.eye(2))

    def test_random_instances_match_fd(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            k = int(rng.integers(1, 9))
            L = rng.standard_normal((k, k)) + 2 * np.eye(k)
            B = random_psd(rng, k)
            self._check(L, B)

    def _check(self, L, B):
        grad = factor_grad(L, B)
        fd = fd_grad(
            lambda v: bures_sq_ref(v.reshape(L.shape) @ v.reshape(L.shape).T, B),
            L.ravel(),
        ).reshape(L.shape)
        assert rel_err(grad, fd) < 1e-4

    def test_rejects_singular_factor_without_regularization(self):
        with pytest.raises(BuresGradientError, match="singular"):
            bures_sq_value_grad(np.zeros((2, 2)), np.eye(2))


class TestBuresCovGradient:
    def test_matches_fd(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            k = int(rng.integers(1, 7))
            A = random_psd(rng, k)
            B = random_psd(rng, k)
            # any factor of A will do, not only its Cholesky factor
            Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            L = np.linalg.cholesky(A) @ Q
            grad = bures_sq_value_grad(L, B)[1]
            # symmetric-perturbation finite differences
            fd = np.zeros_like(B)
            h = 1e-6
            for i in range(k):
                for j in range(k):
                    E = np.zeros((k, k))
                    E[i, j] += 0.5
                    E[j, i] += 0.5
                    fd[i, j] = (bures_sq_ref(A, B + h * E) - bures_sq_ref(A, B - h * E)) / (2 * h)
            assert rel_err(grad, fd) < 1e-4


def centred(rng, n, k, scale=1.0):
    H = scale * rng.standard_normal((n, k))
    return H - H.mean(axis=0)


def factor_route(L, Hc, eps):
    """The k x k route written out: ``bures_sq_value_grad`` on the formed
    batch covariance, its gradient multiplied into the slice."""
    n, k = Hc.shape
    value, G = bures_sq_value_grad(L, Hc.T @ Hc / n + eps * np.eye(k))
    return value, Hc @ G


class TestBuresBatchValueGrad:
    def test_gram_route_matches_factor_route(self):
        rng = np.random.default_rng(21)
        k, eps = 12, 1e-6
        slices = [
            centred(rng, n, k, scale)
            for n in range(2, k)
            for scale in (1e-3, 1e-1, 1.0, 10.0, 1e2)
        ]
        duplicated = rng.standard_normal((3, k))[[0, 1, 1, 2, 0, 0]]
        slices.append(duplicated - duplicated.mean(axis=0))
        for Hc in slices:
            value, HG = bures_sq_batch_value_grad(None, Hc, eps)
            ref_value, ref_HG = factor_route(np.eye(k), Hc, eps)
            assert value == pytest.approx(ref_value, rel=1e-10)
            np.testing.assert_allclose(HG, ref_HG, rtol=1e-10, atol=1e-10 * np.abs(ref_HG).max())

    @pytest.mark.parametrize("n", [8, 9, 20])
    def test_slices_with_at_least_k_rows_take_factor_route(self, monkeypatch, n):
        rng = np.random.default_rng(25)
        Hc = centred(rng, n, 8)
        calls = count_eigh(monkeypatch)
        value, HG = bures_sq_batch_value_grad(None, Hc, 1e-6)
        assert calls == [(8, 8)]
        ref_value, ref_HG = factor_route(np.eye(8), Hc, 1e-6)
        assert value == ref_value
        np.testing.assert_array_equal(HG, ref_HG)

    def test_non_identity_factor_takes_factor_route(self, monkeypatch):
        rng = np.random.default_rng(26)
        k = 8
        Hc = centred(rng, 5, k)
        for L in (2.0 * np.eye(k), np.eye(k) + 1e-12 * np.tri(k), random_psd(rng, k)):
            calls = count_eigh(monkeypatch)
            value, HG = bures_sq_batch_value_grad(L, Hc, 1e-6)
            assert calls == [(k, k)]
            ref_value, ref_HG = factor_route(L, Hc, 1e-6)
            assert value == ref_value
            np.testing.assert_array_equal(HG, ref_HG)

    def test_rejects_non_finite_input(self):
        Hc = np.zeros((3, 5))
        for bad in (np.nan, np.inf):
            Hc[1, 2] = bad
            with pytest.raises(BuresGradientError, match="non-finite"):
                bures_sq_batch_value_grad(None, Hc, 1e-6)

    def test_rejects_overflowing_gram_matrix(self):
        Hc = np.zeros((2, 5))
        Hc[0, 0], Hc[1, 0] = 1e200, -1e200
        with pytest.raises(BuresGradientError, match="non-finite"):
            bures_sq_batch_value_grad(None, Hc, 1e-6)

    def test_rejects_numerically_singular_covariance(self):
        # eps is below 1e-14 of the batch's spectral scale in both routes
        rng = np.random.default_rng(27)
        for n in (4, 8):
            with pytest.raises(BuresGradientError, match="numerically singular"):
                bures_sq_batch_value_grad(None, centred(rng, n, 8, 1e8), 1e-6)

    def test_rejects_negative_gram_eigenvalue_beyond_round_off(self, monkeypatch):
        rng = np.random.default_rng(28)
        Hc = centred(rng, 4, 8)
        original = np.linalg.eigh

        def shifted(a, *args, **kwargs):
            w, V = original(a, *args, **kwargs)
            return w - 1e-8, V

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        # smallest eigenvalue of S stays eps - 1e-8 > 0: only the sign check can catch it
        with pytest.raises(BuresGradientError, match="below zero"):
            bures_sq_batch_value_grad(None, Hc, 1e-6)
