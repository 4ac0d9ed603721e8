import numpy as np
import pytest

from flic.anchors import (
    AnchorSet,
    init_anchors,
    local_anchor_update,
    sample_anchor,
)
from flic.gaussian import Gaussian, bures_sq, empirical_gaussian
from flic.nets import Mlp, Layer, backward, cross_entropy, forward

from helpers import count_eigh, fd_grad, rel_err


def make_anchors(rng, C=4, k=3, cov_learnable=False, scale=1.0):
    return init_anchors(C, k, rng, cov_learnable=cov_learnable, init_scale=scale)


class TestSampling:
    def test_zero_factor_collapses_to_mean(self):
        anchors = AnchorSet(
            np.array([[1.0, -2.0]]), np.zeros((1, 2, 2)), cov_learnable=True
        )
        Z = sample_anchor(anchors, 0, 5, np.random.default_rng(0))
        np.testing.assert_array_equal(Z, np.tile([1.0, -2.0], (5, 1)))

    def test_monte_carlo_moments(self):
        rng = np.random.default_rng(1)
        anchors = make_anchors(rng, C=2, k=3, scale=2.0)
        Z = sample_anchor(anchors, 1, 100_000, rng)
        se = 3.0 / np.sqrt(100_000)
        assert np.all(np.abs(Z.mean(axis=0) - anchors.means[1]) < 3 * se)
        cov = np.cov(Z.T, bias=True)
        assert np.max(np.abs(cov - np.eye(3))) < 0.05

    def test_fixed_seed_is_bit_identical(self):
        anchors = make_anchors(np.random.default_rng(2))
        a = sample_anchor(anchors, 0, 10, np.random.default_rng(42))
        b = sample_anchor(anchors, 0, 10, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_unknown_class(self):
        anchors = make_anchors(np.random.default_rng(3))
        with pytest.raises(ValueError, match="class"):
            sample_anchor(anchors, 9, 1, np.random.default_rng(0))

    def test_noise_reproduces_samples(self):
        anchors = make_anchors(np.random.default_rng(4), cov_learnable=True)
        anchors.factors[0] = np.tril(np.random.default_rng(5).standard_normal((3, 3)))
        Z, xi = sample_anchor(anchors, 0, 7, np.random.default_rng(6), return_noise=True)
        np.testing.assert_allclose(Z, anchors.means[0] + xi @ anchors.factors[0].T)


    @pytest.mark.parametrize("identity", [True, False])
    def test_samples_equal_the_factor_product_bit_for_bit(self, identity):
        k = 64
        anchors = make_anchors(np.random.default_rng(7), C=2, k=k, cov_learnable=True)
        if not identity:
            anchors.factors[1] = np.eye(k) + 0.1 * np.random.default_rng(8).standard_normal((k, k))
        L = anchors.factors[1]
        Z, xi = sample_anchor(anchors, 1, 100, np.random.default_rng(9), return_noise=True)
        np.testing.assert_array_equal(xi, np.random.default_rng(9).standard_normal((100, k)))
        np.testing.assert_array_equal(Z, anchors.means[1] + xi @ L.T)
        if not identity:
            assert not np.array_equal(Z, anchors.means[1] + xi)


class TestLocalUpdate:
    def test_stationary_point(self):
        rng = np.random.default_rng(7)
        anchors = make_anchors(rng, cov_learnable=True)
        emp = {1: Gaussian(anchors.means[1].copy(), anchors.factors[1].copy())}
        out = local_anchor_update(anchors, emp, None, step=0.1, lam1=1.0, lam2=0.0)
        np.testing.assert_allclose(out.means, anchors.means, atol=1e-12)
        np.testing.assert_allclose(out.factors, anchors.factors, atol=1e-12)

    def test_explicit_gradient_step(self):
        anchors = AnchorSet(np.zeros((1, 2)), np.eye(2)[None], cov_learnable=False)
        emp = {0: Gaussian(np.array([1.0, 0.0]), np.eye(2))}
        out = local_anchor_update(anchors, emp, None, step=0.1, lam1=1.0, lam2=0.0)
        # v <- 0 - 0.1 * 2 * (0 - 1) = 0.2 on the first coordinate
        np.testing.assert_allclose(out.means[0], [0.2, 0.0])

    def test_absent_classes_untouched(self):
        rng = np.random.default_rng(8)
        anchors = make_anchors(rng, C=5, cov_learnable=True)
        emp = {2: Gaussian(rng.standard_normal(3), np.eye(3))}
        out = local_anchor_update(anchors, emp, None, step=0.5, lam1=1.0, lam2=0.0)
        for c in (0, 1, 3, 4):
            np.testing.assert_array_equal(out.means[c], anchors.means[c])
            np.testing.assert_array_equal(out.factors[c], anchors.factors[c])
        assert not np.allclose(out.means[2], anchors.means[2])

    def test_cov_frozen_when_not_learnable(self):
        rng = np.random.default_rng(9)
        anchors = make_anchors(rng, cov_learnable=False)
        emp = {0: empirical_gaussian(rng.standard_normal((20, 3)), 1e-6)}
        out = local_anchor_update(anchors, emp, None, step=0.1, lam1=1.0, lam2=0.0)
        np.testing.assert_array_equal(out.factors[0], np.eye(3))

    def test_one_eigh_per_held_class_when_learnable(self, monkeypatch):
        rng = np.random.default_rng(11)
        emp = {c: empirical_gaussian(rng.standard_normal((20, 3)) + c, 1e-6) for c in (0, 2)}
        calls = count_eigh(monkeypatch)
        for learnable, expected in ((True, len(emp)), (False, 0)):
            calls.clear()
            anchors = make_anchors(rng, cov_learnable=learnable)
            local_anchor_update(anchors, emp, None, step=0.1, lam1=1.0, lam2=0.0)
            assert len(calls) == expected

    def test_full_update_matches_finite_differences(self):
        """The update direction equals the gradient of the client objective
        restricted to (v_c, L_c): lam1 * W2^2 terms + lam2 classifier term
        on reparameterized anchor samples with frozen noise."""
        rng = np.random.default_rng(10)
        k, C, J = 3, 2, 6
        anchors = make_anchors(rng, C=C, k=k, cov_learnable=True)
        anchors.factors[0] = np.tril(rng.standard_normal((k, k))) + 2 * np.eye(k)
        emp_g = empirical_gaussian(rng.standard_normal((30, k)) + 1.0, 1e-6)
        emp = {0: emp_g}
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
                float((v - emp_g.mean) @ (v - emp_g.mean)) + bures_sq(L @ L.T, emp_g.cov)
            ) + lam2 * anchor_class_loss(v, L)

        # classifier-term gradients via the nets machinery, as federation does
        Z0 = anchors.means[0] + xi @ anchors.factors[0].T
        logits, cache = forward(head, Z0)
        _, dlogits = cross_entropy(logits, np.zeros(J, dtype=int))
        _, dZ = backward(head, cache, dlogits)
        class_grads = {0: (dZ.sum(axis=0), dZ.T @ xi)}

        out = local_anchor_update(anchors, emp, class_grads, step, lam1, lam2)
        update_grad_v = (anchors.means[0] - out.means[0]) / step
        update_grad_L = (anchors.factors[0] - out.factors[0]) / step
        vec0 = np.concatenate([anchors.means[0], anchors.factors[0].ravel()])
        fd = fd_grad(objective, vec0)
        assert rel_err(np.concatenate([update_grad_v, update_grad_L.ravel()]), fd) < 1e-4

