from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from flic.anchors import (
    AnchorSet,
    init_anchors,
    local_anchor_update,
    sample_anchor,
)
from flic.gaussian import BuresGradientError
from flic.nets import Mlp, Layer, backward, cross_entropy, forward

from helpers import batch_cov, bures_sq_ref, count_eigh, fd_grad, rel_err


def make_anchors(rng, C=4, k=3, cov_learnable=False, scale=1.0):
    """Anchors as :func:`init_anchors` draws them, at mean scale ``scale``."""
    return AnchorSet(scale * rng.standard_normal((C, k)), np.tile(np.eye(k), (C, 1, 1)),
                     cov_learnable)


class TestAnchorSet:
    def test_identity_is_decided_per_class_exactly(self):
        k = 3
        factors = np.stack([np.eye(k), 2.0 * np.eye(k), np.eye(k) + 1e-15 * np.tri(k),
                            np.eye(k)])
        anchors = AnchorSet(np.zeros((4, k)), factors, cov_learnable=True)
        assert anchors.identity.tolist() == [True, False, False, True]
        assert replace(anchors, factors=np.tile(np.eye(k), (4, 1, 1))).identity.all()

    def test_factors_cannot_change_under_the_identity_flags(self):
        anchors = make_anchors(np.random.default_rng(0), cov_learnable=True)
        with pytest.raises(ValueError, match="read-only"):
            anchors.factors[0, 0, 0] = 2.0
        with pytest.raises(FrozenInstanceError):
            anchors.factors = 2.0 * anchors.factors
        assert anchors.identity.all()


def test_init_anchors_scales_standard_normal_means_by_sqrt_k():
    anchors = init_anchors(5, 4, np.random.default_rng(0), cov_learnable=True)
    expected = make_anchors(np.random.default_rng(0), C=5, k=4, cov_learnable=True, scale=2.0)
    np.testing.assert_array_equal(anchors.means, expected.means)
    np.testing.assert_array_equal(anchors.factors, expected.factors)
    assert anchors.cov_learnable and anchors.identity.all()


class TestSampling:
    def test_zero_factor_collapses_to_mean(self):
        anchors = AnchorSet(
            np.array([[1.0, -2.0]]), np.zeros((1, 2, 2)), cov_learnable=True
        )
        Z, _ = sample_anchor(anchors, [0], 5, np.random.default_rng(0))
        np.testing.assert_array_equal(Z, np.tile([1.0, -2.0], (1, 5, 1)))

    def test_monte_carlo_moments(self):
        rng = np.random.default_rng(1)
        anchors = make_anchors(rng, C=2, k=3, scale=2.0)
        Z = sample_anchor(anchors, [1], 100_000, rng)[0][0]
        se = 3.0 / np.sqrt(100_000)
        assert np.all(np.abs(Z.mean(axis=0) - anchors.means[1]) < 3 * se)
        cov = np.cov(Z.T, bias=True)
        assert np.max(np.abs(cov - np.eye(3))) < 0.05

    def test_fixed_seed_is_bit_identical(self):
        anchors = make_anchors(np.random.default_rng(2))
        a = sample_anchor(anchors, [0, 2], 10, np.random.default_rng(42))
        b = sample_anchor(anchors, [0, 2], 10, np.random.default_rng(42))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_unknown_class(self):
        anchors = make_anchors(np.random.default_rng(3))
        with pytest.raises(ValueError, match="class"):
            sample_anchor(anchors, [9], 1, np.random.default_rng(0))

    @pytest.mark.parametrize("classes", [[-1], [0, 4]])
    def test_a_negative_or_past_the_end_class_is_not_wrapped(self, classes):
        anchors = make_anchors(np.random.default_rng(3))
        with pytest.raises(ValueError, match="class"):
            sample_anchor(anchors, classes, 1, np.random.default_rng(0))

    def test_noise_reproduces_samples(self):
        anchors = make_anchors(np.random.default_rng(4), cov_learnable=True)
        factors = anchors.factors.copy()
        factors[0] = np.tril(np.random.default_rng(5).standard_normal((3, 3)))
        anchors = replace(anchors, factors=factors)
        Z, xi = sample_anchor(anchors, [0], 7, np.random.default_rng(6))
        assert Z.shape == xi.shape == (1, 7, 3)
        np.testing.assert_allclose(Z[0], anchors.means[0] + xi[0] @ anchors.factors[0].T)

    @pytest.mark.parametrize("identity", [True, False])
    def test_samples_equal_the_factor_product_bit_for_bit(self, identity):
        k = 64
        anchors = make_anchors(np.random.default_rng(7), C=2, k=k, cov_learnable=True)
        if not identity:
            factors = anchors.factors.copy()
            factors[1] = np.eye(k) + 0.1 * np.random.default_rng(8).standard_normal((k, k))
            anchors = replace(anchors, factors=factors)
        L = anchors.factors[1]
        Z, xi = sample_anchor(anchors, [1], 100, np.random.default_rng(9))
        np.testing.assert_array_equal(xi[0], np.random.default_rng(9).standard_normal((100, k)))
        np.testing.assert_array_equal(Z[0], anchors.means[1] + xi[0] @ L.T)
        # The product with an identity factor gives the noise's own bits.
        assert np.array_equal(Z[0], anchors.means[1] + xi[0]) == identity

    @pytest.mark.parametrize("perturbed", [(), (2,), (0, 2, 3)])
    def test_one_stacked_draw_equals_per_class_draws_bit_for_bit(self, perturbed):
        """The stacked draw is the per-class draws from the same stream, in
        order, each through its own factor; identity factors or not."""
        k, classes, count = 64, [0, 2, 3], 33
        rng = np.random.default_rng(10)
        anchors = make_anchors(rng, C=5, k=k, cov_learnable=True, scale=2.0)
        factors = anchors.factors.copy()
        for c in perturbed:
            factors[c] += 0.1 * rng.standard_normal((k, k))
        anchors = replace(anchors, factors=factors)
        Z, xi = sample_anchor(anchors, classes, count, np.random.default_rng(11))
        assert Z.shape == xi.shape == (len(classes), count, k)
        stream = np.random.default_rng(11)
        for i, c in enumerate(classes):
            xi_c = stream.standard_normal((count, k))
            L = anchors.factors[c]
            np.testing.assert_array_equal(xi[i], xi_c)
            np.testing.assert_array_equal(Z[i], anchors.means[c] + xi_c @ L.T)


def balanced_points(mean, L):
    """2k points whose mean is ``mean`` and whose population covariance is
    ``L L^T``: ``mean +- sqrt(k) L e_i``."""
    k = mean.size
    w = np.sqrt(k) * np.vstack([np.eye(k), -np.eye(k)])
    return mean + w @ L.T


class TestLocalUpdate:
    def test_stationary_point(self):
        rng = np.random.default_rng(7)
        anchors = make_anchors(rng, cov_learnable=True)
        points = [balanced_points(anchors.means[1], anchors.factors[1])]
        out = local_anchor_update(anchors, [1], points, None, None, step=0.1, lam1=1.0,
                                  lam2=0.0, eps=0.0)
        np.testing.assert_allclose(out.means, anchors.means, atol=1e-12)
        np.testing.assert_allclose(out.factors, anchors.factors, atol=1e-12)

    def test_explicit_gradient_step(self):
        anchors = AnchorSet(np.zeros((1, 2)), np.eye(2)[None], cov_learnable=False)
        out = local_anchor_update(anchors, [0], [np.array([[1.0, 0.0]])], None, None,
                                  step=0.1, lam1=1.0, lam2=0.0, eps=1e-6)
        # v <- 0 - 0.1 * 2 * (0 - 1) = 0.2 on the first coordinate
        np.testing.assert_allclose(out.means[0], [0.2, 0.0])

    def test_absent_classes_untouched(self):
        rng = np.random.default_rng(8)
        anchors = make_anchors(rng, C=5, cov_learnable=True)
        points = [rng.standard_normal((6, 3))]
        out = local_anchor_update(anchors, [2], points, None, None, step=0.5, lam1=1.0,
                                  lam2=0.0, eps=1e-6)
        for c in (0, 1, 3, 4):
            np.testing.assert_array_equal(out.means[c], anchors.means[c])
            np.testing.assert_array_equal(out.factors[c], anchors.factors[c])
        assert not np.allclose(out.means[2], anchors.means[2])
        assert not np.allclose(out.factors[2], anchors.factors[2])

    def test_cov_frozen_when_not_learnable(self):
        rng = np.random.default_rng(9)
        anchors = make_anchors(rng, cov_learnable=False)
        points = [rng.standard_normal((20, 3))]
        out = local_anchor_update(anchors, [0], points, None, None, step=0.1, lam1=1.0,
                                  lam2=0.0, eps=1e-6)
        np.testing.assert_array_equal(out.factors[0], np.eye(3))
        assert out.factors is anchors.factors

    def test_learnable_factors_are_a_new_array(self):
        rng = np.random.default_rng(9)
        anchors = make_anchors(rng, cov_learnable=True)
        factors = anchors.factors.copy()
        points = [rng.standard_normal((20, 3))]
        out = local_anchor_update(anchors, [0], points, None, None, step=0.1, lam1=1.0,
                                  lam2=0.0, eps=1e-6)
        assert out.factors is not anchors.factors
        np.testing.assert_array_equal(anchors.factors, factors)
        assert not np.array_equal(out.factors[0], factors[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_raise_the_bures_error(self, bad):
        anchors = make_anchors(np.random.default_rng(12))
        points = [np.ones((3, 3)), np.ones((4, 3))]
        points[1][2, 0] = bad
        with pytest.raises(BuresGradientError, match="class 2"):
            local_anchor_update(anchors, [0, 2], points, None, None, step=0.1, lam1=1.0,
                                lam2=0.0, eps=1e-6)

    def test_points_too_large_for_eps_raise_the_bures_error(self):
        # at scale 1e8 the rank-2 batch covariance swamps eps: Cholesky fails
        rng = np.random.default_rng(13)
        anchors = make_anchors(rng, cov_learnable=True)
        points = [rng.standard_normal((4, 3)), 1e8 * rng.standard_normal((3, 3))]
        with pytest.raises(BuresGradientError, match="class 2"):
            local_anchor_update(anchors, [0, 2], points, None, None, step=0.1, lam1=1.0,
                                lam2=0.0, eps=1e-6)

    def test_one_eigh_per_held_class_when_learnable(self, monkeypatch):
        rng = np.random.default_rng(11)
        points = [rng.standard_normal((20, 3)) + c for c in (0, 2)]
        calls = count_eigh(monkeypatch)
        for learnable, expected in ((True, len(points)), (False, 0)):
            calls.clear()
            anchors = make_anchors(rng, cov_learnable=learnable)
            local_anchor_update(anchors, [0, 2], points, None, None, step=0.1, lam1=1.0,
                                lam2=0.0, eps=1e-6)
            assert len(calls) == expected

    def test_full_update_matches_finite_differences(self):
        """The update direction equals the gradient of the client objective
        restricted to (v_c, L_c): lam1 * W2^2 terms + lam2 classifier term
        on reparameterized anchor samples with frozen noise."""
        rng = np.random.default_rng(10)
        k, C, J = 3, 2, 6
        anchors = make_anchors(rng, C=C, k=k, cov_learnable=True)
        factors = anchors.factors.copy()
        factors[0] = np.tril(rng.standard_normal((k, k))) + 2 * np.eye(k)
        anchors = replace(anchors, factors=factors)
        points = rng.standard_normal((30, k)) + 1.0
        emp_mean, emp_cov = points.mean(axis=0), batch_cov(points, 1e-6)
        xi = rng.standard_normal((J, k))
        head = Mlp([Layer(rng.standard_normal((k, C)), np.zeros(C), "identity")])
        lam1, lam2, step = 0.7, 0.4, 0.05

        def anchor_class_loss(v, L):
            Z = v + xi @ L.T
            logits, _ = forward(head, Z)
            return cross_entropy(logits, np.zeros(J, dtype=int))[0]

        def objective(vec):
            v = vec[:k]
            L = vec[k:].reshape(k, k)
            return lam1 * (
                float((v - emp_mean) @ (v - emp_mean)) + bures_sq_ref(L @ L.T, emp_cov)
            ) + lam2 * anchor_class_loss(v, L)

        # classifier-term gradients via the nets machinery, as federation does
        Z0 = anchors.means[0] + xi @ anchors.factors[0].T
        logits, cache = forward(head, Z0)
        _, dlogits = cross_entropy(logits, np.zeros(J, dtype=int))
        _, dZ = backward(head, cache, dlogits)

        out = local_anchor_update(anchors, [0], [points], dZ[None], xi[None], step, lam1, lam2,
                                  1e-6)
        update_grad_v = (anchors.means[0] - out.means[0]) / step
        update_grad_L = (anchors.factors[0] - out.factors[0]) / step
        vec0 = np.concatenate([anchors.means[0], anchors.factors[0].ravel()])
        fd = fd_grad(objective, vec0)
        assert rel_err(np.concatenate([update_grad_v, update_grad_L.ravel()]), fd) < 1e-4


def factor_step(L, points, eps, step=0.1):
    """The learnable factor's gradient in one update on the points of one
    class, with the classifier term off: ``(L - L_new) / step``."""
    anchors = AnchorSet(np.zeros((1, L.shape[0])), L[None].copy(), cov_learnable=True)
    out = local_anchor_update(anchors, [0], [points], None, None, step=step, lam1=1.0,
                              lam2=0.0, eps=eps)
    return (L - out.factors[0]) / step


class TestLearnableFactorFit:
    """The factor step fits the points' population covariance plus
    ``eps I``; for a diagonal factor and a diagonal fit ``D`` the step is
    ``2 (L - D^{1/2})``, the gradient of ``sum (l_i - sqrt(d_i))^2``."""

    def test_single_point_fits_eps(self):
        L = np.diag([0.5, 1.0, 2.0])
        got = factor_step(L, np.array([[3.0, -1.0, 2.0]]), eps=1e-2)
        np.testing.assert_allclose(got, 2.0 * (L - 0.1 * np.eye(3)), atol=1e-12)

    def test_population_variance_two_points(self):
        # population variance of -1, 1 is 1 (the sample variance would be 2)
        got = factor_step(np.array([[3.0]]), np.array([[-1.0], [1.0]]), eps=0.0)
        np.testing.assert_allclose(got, [[2.0 * (3.0 - 1.0)]], atol=1e-12)

    def test_diagonal_covariance_closed_form(self):
        # +-2 on the first axis, +-0.5 on the second, nothing on the third:
        # population variances 2, 0.125 and 0, each plus eps
        points = np.array([[2.0, 0, 0], [-2.0, 0, 0], [0, 0.5, 0], [0, -0.5, 0]]) + 1.0
        L = np.diag([1.0, 0.3, 0.05])
        got = factor_step(L, points, eps=1e-4)
        expected = 2.0 * (L - np.diag(np.sqrt(np.array([2.0, 0.125, 0.0]) + 1e-4)))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_fit_ignores_the_points_mean(self):
        rng = np.random.default_rng(14)
        points = rng.standard_normal((12, 3))
        L = np.tril(rng.standard_normal((3, 3))) + 2 * np.eye(3)
        np.testing.assert_allclose(
            factor_step(L, points + np.array([5.0, -3.0, 7.0]), eps=1e-6),
            factor_step(L, points, eps=1e-6),
            atol=1e-10,
        )
