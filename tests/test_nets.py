import zlib

import numpy as np
import pytest

from flic.anchors import AnchorSet
from flic.nets import (
    ACTIVATIONS,
    AdamState,
    Layer,
    Mlp,
    adam_step,
    alignment_loss_grad,
    backward,
    cross_entropy,
    forward,
    init_mlp,
)

from helpers import batch_cov, bures_sq_ref, count_eigh, fd_grad, pack, rel_err, unpack


def random_net(rng, dims, activations):
    net = init_mlp(dims, activations, rng)
    # nudge parameters away from activation kinks so finite differences
    # stay valid for relu-family layers
    for layer in net.layers:
        layer.b = layer.b + 0.1 * rng.standard_normal(layer.b.shape)
    return net


def net_loss(net, X, direction):
    out, _ = forward(net, X)
    return float(np.sum(out * direction))


class TestForward:
    def test_identity_layer_passthrough(self):
        net = Mlp([Layer(np.eye(3), np.zeros(3), "identity")])
        X = np.random.default_rng(0).standard_normal((4, 3))
        out, _ = forward(net, X)
        np.testing.assert_array_equal(out, X)

    def test_relu_on_negative_input(self):
        net = Mlp([Layer(np.eye(2), np.zeros(2), "relu")])
        out, _ = forward(net, -np.ones((3, 2)))
        np.testing.assert_array_equal(out, np.zeros((3, 2)))

    def test_against_straight_line_evaluation(self):
        rng = np.random.default_rng(1)
        net = random_net(rng, [4, 5, 2], ["leaky_relu", "identity"])
        X = rng.standard_normal((6, 4))
        out, _ = forward(net, X)
        # independent re-implementation
        W1, b1 = net.layers[0].W, net.layers[0].b
        W2, b2 = net.layers[1].W, net.layers[1].b
        pre = X @ W1 + b1
        hidden = np.where(pre > 0, pre, 0.01 * pre)
        expected = hidden @ W2 + b2
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        net = random_net(rng, [3, 4, 2], ["relu", "identity"])
        X = rng.standard_normal((5, 3))
        a, _ = forward(net, X)
        b, _ = forward(net, X)
        np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch(self):
        net = Mlp([Layer(np.eye(3), np.zeros(3), "identity")])
        with pytest.raises(ValueError):
            forward(net, np.zeros((2, 4)))


class TestBackward:
    def test_zero_output_grad(self):
        rng = np.random.default_rng(3)
        net = random_net(rng, [3, 4, 2], ["relu", "identity"])
        X = rng.standard_normal((5, 3))
        _, cache = forward(net, X)
        grads, g_in = backward(net, cache, np.zeros((5, 2)))
        assert all(np.all(g == 0) for g in grads)
        np.testing.assert_array_equal(g_in, np.zeros_like(X))

    @pytest.mark.parametrize(
        "dims,acts",
        [
            ([3, 5, 2], ["relu", "identity"]),
            ([2, 4, 4, 3], ["leaky_relu", "relu", "identity"]),
            ([4, 3], ["leaky_relu"]),
        ],
    )
    def test_param_gradients_match_fd(self, dims, acts):
        rng = np.random.default_rng(zlib.crc32(repr((dims, acts)).encode()))
        net = random_net(rng, dims, acts)
        X = rng.standard_normal((7, dims[0]))
        direction = rng.standard_normal((7, dims[-1]))
        _, cache = forward(net, X)
        grads, _ = backward(net, cache, direction)
        shapes = [p.shape for p in net.params()]

        def f(vec):
            trial = net.copy()
            trial.set_params(unpack(vec, shapes))
            return net_loss(trial, X, direction)

        fd = fd_grad(f, pack(net.params()))
        assert rel_err(pack(grads), fd) < 1e-4

    def test_skipped_parts_leave_the_rest_unchanged(self):
        rng = np.random.default_rng(14)
        net = random_net(rng, [3, 6, 5, 2], ["relu", "leaky_relu", "identity"])
        X = rng.standard_normal((9, 3))
        direction = rng.standard_normal((9, 2))
        _, cache = forward(net, X)
        grads, g_in = backward(net, cache, direction)
        no_params, g_in_only = backward(net, cache, direction, param_grads=False)
        params_only, no_input = backward(net, cache, direction, input_grad=False)
        assert no_params is None and no_input is None
        np.testing.assert_array_equal(g_in_only, g_in)
        for got, ref in zip(params_only, grads):
            np.testing.assert_array_equal(got, ref)

    def test_input_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        net = random_net(rng, [3, 6, 2], ["leaky_relu", "identity"])
        X = rng.standard_normal((4, 3))
        direction = rng.standard_normal((4, 2))
        _, cache = forward(net, X)
        _, g_in = backward(net, cache, direction)
        fd = fd_grad(lambda v: net_loss(net, v.reshape(X.shape), direction), X.ravel())
        assert rel_err(g_in.ravel(), fd) < 1e-4


def test_leaky_relu_matches_the_where_form_bit_for_bit():
    tiny = np.finfo(float).smallest_subnormal
    z = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, 1e-310, -1e-310,
                  np.finfo(float).tiny, -np.finfo(float).tiny, 1.5, -1.5, np.inf, -np.inf])
    got = ACTIVATIONS["leaky_relu"][0](z)
    ref = np.where(z > 0, z, 0.01 * z)
    assert got.tobytes() == ref.tobytes()
    np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))


# The float derivatives backward multiplied by before it passed identity
# gradients through and used the boolean ReLU mask.
FLOAT_DERIVS = {
    "identity": lambda z: np.ones_like(z),
    "relu": lambda z: (z > 0).astype(float),
    "leaky_relu": lambda z: np.where(z > 0, 1.0, 0.01),
}


def same_bits(a, b):
    """Equal shapes and equal bits: unlike ``==``, -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def reference_forward(mlp, X):
    cache, A = [], X
    for layer in mlp.layers:
        Z = A @ layer.W + layer.b
        cache.append((A, Z))
        A = ACTIVATIONS[layer.activation][0](Z)
    return A, cache


def reference_backward(mlp, cache, G):
    grads = []
    for layer, (A_in, Z) in zip(reversed(mlp.layers), reversed(cache)):
        dZ = G * FLOAT_DERIVS[layer.activation](Z)
        grads = [A_in.T @ dZ, dZ.sum(axis=0)] + grads
        G = dZ @ layer.W.T
    return grads, G


def signed_zeros(rng, shape):
    """Normal draws with a row of 0.0, a row of -0.0 and scattered zeros
    of both signs."""
    A = rng.standard_normal(shape)
    A[0], A[1] = 0.0, -0.0
    A[2:, 0] = np.where(A[2:, 0] > 0, 0.0, -0.0)
    return A


class TestBitIdentity:
    """forward and backward give the bits of a plain matmul + bias and a
    multiply by the float derivative, signed zeros included."""

    @pytest.mark.parametrize("act", ["identity", "relu", "leaky_relu"])
    def test_one_layer_on_signed_zero_pre_activations(self, act):
        rng = np.random.default_rng(zlib.crc32(act.encode()))
        net = Mlp([Layer(rng.standard_normal((4, 5)), rng.standard_normal(5), act)])
        X = signed_zeros(rng, (6, 4))
        out, cache = forward(net, X)
        ref_out, ref_cache = reference_forward(net, X)
        assert same_bits(out, ref_out)
        assert same_bits(cache[0][1], ref_cache[0][1])
        # A cache whose pre-activations hold exact zeros of both signs.
        # The gradient's zeros sit elsewhere, so the mask at Z == 0 matters.
        Z = signed_zeros(rng, (6, 5))
        G = signed_zeros(rng, (6, 5))[::-1, ::-1]
        assert np.signbit(Z[Z == 0]).any() and not np.signbit(Z[Z == 0]).all()
        assert (G[Z == 0] != 0).any()
        grads, g_in = backward(net, [(X, Z)], G)
        ref_grads, ref_in = reference_backward(net, [(X, Z)], G)
        assert same_bits(g_in, ref_in)
        assert all(same_bits(g, r) for g, r in zip(grads, ref_grads))

    def test_stacked_layers(self):
        rng = np.random.default_rng(31)
        net = random_net(rng, [4, 6, 5, 3], ["relu", "leaky_relu", "identity"])
        X = signed_zeros(rng, (7, 4))
        G = signed_zeros(rng, (7, 3))
        out, cache = forward(net, X)
        ref_out, ref_cache = reference_forward(net, X)
        assert same_bits(out, ref_out)
        for (A, Z), (ref_A, ref_Z) in zip(cache, ref_cache):
            assert same_bits(A, ref_A) and same_bits(Z, ref_Z)
        grads, g_in = backward(net, cache, G)
        ref_grads, ref_in = reference_backward(net, ref_cache, G)
        assert same_bits(g_in, ref_in)
        assert all(same_bits(g, r) for g, r in zip(grads, ref_grads))


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = cross_entropy(np.zeros((5, 7)), np.arange(5) % 7)
        assert loss == pytest.approx(np.log(7), abs=1e-12)

    def test_large_margin_correct_class(self):
        logits = np.full((3, 4), -50.0)
        labels = np.array([1, 2, 0])
        logits[np.arange(3), labels] = 50.0
        loss, _ = cross_entropy(logits, labels)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        _, grad = cross_entropy(logits, labels)
        fd = fd_grad(
            lambda v: cross_entropy(v.reshape(6, 4), labels)[0], logits.ravel()
        )
        assert rel_err(grad.ravel(), fd) < 1e-4

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


def identity_anchors(n_classes, k, means=None):
    means = np.zeros((n_classes, k)) if means is None else means
    return AnchorSet(means, np.tile(np.eye(k), (n_classes, 1, 1)), cov_learnable=False)


def by_class(batches):
    """``(rows, H)`` for a dict of per-class slices: the slices stacked in
    increasing class order, each class mapped to the indices of its rows."""
    classes = sorted(batches)
    H = np.concatenate([batches[c] for c in classes])
    ends = np.cumsum([len(batches[c]) for c in classes])
    return {c: np.arange(e - len(batches[c]), e) for c, e in zip(classes, ends)}, H


class TestAlignmentLoss:
    def test_batch_matching_anchor_is_near_stationary(self):
        # batch with exact zero mean and identity covariance
        k = 3
        X = np.concatenate([np.eye(k), -np.eye(k)]) * np.sqrt(3.0)
        anchors = identity_anchors(1, k)
        loss, dH = alignment_loss_grad(*by_class({0: X}), anchors, eps=1e-6)
        assert loss < k * 1e-6
        assert np.linalg.norm(dH) < 1e-6

    def test_anchors_equal_to_batch_gaussian(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((12, 4))
        anchors = AnchorSet(
            X.mean(axis=0)[None, :], np.linalg.cholesky(batch_cov(X, 1e-6))[None, :, :],
            cov_learnable=True,
        )
        loss, dH = alignment_loss_grad(*by_class({0: X}), anchors, eps=1e-6)
        assert loss <= 4 * 1e-6
        assert np.linalg.norm(dH) <= 1e-6

    def test_single_class_gradient_matches_fd(self):
        rng = np.random.default_rng(8)
        k, n = 3, 9
        X = rng.standard_normal((n, k))
        anchors = identity_anchors(1, k, means=rng.standard_normal((1, k)))
        learned = AnchorSet(anchors.means, (np.eye(k) + 0.3 * rng.standard_normal((k, k)))[None])
        for a in (anchors, learned):
            _, dH = alignment_loss_grad(*by_class({0: X}), a, eps=1e-4)
            fd = fd_grad(
                lambda v: alignment_loss_grad(*by_class({0: v.reshape(n, k)}), a, 1e-4)[0],
                X.ravel(),
            )
            assert rel_err(dH.ravel(), fd) < 1e-4

    def test_one_eigh_per_class_slice(self, monkeypatch):
        rng = np.random.default_rng(11)
        k = 4
        batches = {c: rng.standard_normal((6, k)) + c for c in (0, 2, 3)}
        factors = np.eye(k) + 0.2 * rng.standard_normal((4, k, k))
        anchors = AnchorSet(rng.standard_normal((4, k)), factors, cov_learnable=True)
        calls = count_eigh(monkeypatch)
        alignment_loss_grad(*by_class(batches), anchors, eps=1e-6)
        assert calls == [(k, k)] * len(batches)

    def test_identity_anchors_decompose_the_small_gram_matrix(self, monkeypatch):
        rng = np.random.default_rng(12)
        k = 8
        batches = {0: rng.standard_normal((3, k)), 2: rng.standard_normal((7, k)),
                   3: rng.standard_normal((8, k)), 4: rng.standard_normal((11, k))}
        calls = count_eigh(monkeypatch)
        alignment_loss_grad(*by_class(batches), identity_anchors(5, k), eps=1e-6)
        assert calls == [(3, 3), (7, 7), (k, k), (k, k)]

    def test_each_class_takes_the_route_of_its_own_factor(self, monkeypatch):
        rng = np.random.default_rng(14)
        k = 8
        factors = np.tile(np.eye(k), (3, 1, 1))
        factors[1] += 0.1 * rng.standard_normal((k, k))
        anchors = AnchorSet(rng.standard_normal((3, k)), factors, cov_learnable=True)
        batches = {c: rng.standard_normal((5, k)) for c in range(3)}
        calls = count_eigh(monkeypatch)
        alignment_loss_grad(*by_class(batches), anchors, eps=1e-6)
        assert calls == [(5, 5), (k, k), (5, 5)]

    def test_short_slice_gradient_matches_fd(self):
        rng = np.random.default_rng(13)
        k, n = 7, 4
        X = rng.standard_normal((n, k))
        anchors = identity_anchors(1, k, means=rng.standard_normal((1, k)))
        _, dH = alignment_loss_grad(*by_class({0: X}), anchors, eps=1e-2)
        fd = fd_grad(
            lambda v: alignment_loss_grad(*by_class({0: v.reshape(n, k)}), anchors, 1e-2)[0],
            X.ravel(),
        )
        assert rel_err(dH.ravel(), fd) < 1e-4

    def test_mean_term_dominates_when_covariances_match(self):
        # anchor covariance I, batch built with covariance exactly I:
        # gradient reduces to the mean-term formula 2(m_hat - v)/n
        k = 2
        base = np.concatenate([np.eye(k), -np.eye(k)]) * np.sqrt(2.0)
        shift = np.array([0.5, -1.0])
        X = base + shift
        anchors = identity_anchors(1, k, means=np.array([[2.0, 1.0]]))
        _, dH = alignment_loss_grad(*by_class({0: X}), anchors, eps=1e-9)
        expected = 2 * (shift - anchors.means[0]) / X.shape[0]
        np.testing.assert_allclose(dH, np.tile(expected, (X.shape[0], 1)), atol=1e-6)

    def test_two_classes_total_is_sum_of_w2(self):
        rng = np.random.default_rng(9)
        k = 3
        batches = {0: rng.standard_normal((8, k)), 3: rng.standard_normal((5, k)) + 1.0}
        means = rng.standard_normal((4, k))
        anchors = identity_anchors(4, k, means=means)
        loss, _ = alignment_loss_grad(*by_class(batches), anchors, eps=1e-6)
        expected = sum(
            float(np.sum((means[c] - X.mean(axis=0)) ** 2))
            + bures_sq_ref(np.eye(k), batch_cov(X, 1e-6))
            for c, X in batches.items()
        )
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_empty_class_slice_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            alignment_loss_grad({0: np.arange(0)}, np.zeros((2, 2)), identity_anchors(1, 2),
                                1e-6)

    def test_non_positive_eps_rejected(self):
        with pytest.raises(ValueError, match="eps must be positive"):
            alignment_loss_grad(*by_class({0: np.eye(2)}), identity_anchors(1, 2), 0.0)

    # Labels with gaps ({0, 2, 5} of 6), unsorted, unequal counts, and two
    # rows (label -1) of no class.
    LABELS = np.array([5, 2, -1, 0, 5, 5, 2, 0, 5, 2, -1, 0, 5, 2])

    def labelled(self, seed, factor_scale):
        rng = np.random.default_rng(seed)
        k = 6
        factors = factor_scale * np.tile(np.eye(k), (6, 1, 1))
        anchors = AnchorSet(rng.standard_normal((6, k)), factors)
        rows = {c: np.flatnonzero(self.LABELS == c) for c in (0, 2, 5)}
        return rows, rng.standard_normal((self.LABELS.size, k)), anchors

    @pytest.mark.parametrize("factor_scale", [1.0, 1.5])
    def test_classes_add_up_to_the_one_class_calls(self, factor_scale):
        rows, H, anchors = self.labelled(15, factor_scale)
        loss, dH = alignment_loss_grad(rows, H, anchors, 1e-6)
        parts = [alignment_loss_grad({c: r}, H, anchors, 1e-6) for c, r in rows.items()]
        assert loss == sum(part[0] for part in parts)
        assert np.array_equal(dH, sum(part[1] for part in parts))
        assert not dH[self.LABELS == -1].any()

    @pytest.mark.parametrize("factor_scale,route", [(1.0, "gram"), (1.5, "k x k")])
    def test_gradient_matches_fd(self, factor_scale, route, monkeypatch):
        """Identity factors and fewer than k = 6 rows a class take the
        Gram route, scaled factors the k x k one."""
        rows, H, anchors = self.labelled(16, factor_scale)
        calls = count_eigh(monkeypatch)
        loss, dH = alignment_loss_grad(rows, H, anchors, 1e-2)
        sizes = [len(r) for r in rows.values()]
        assert calls == ([(n, n) for n in sizes] if route == "gram" else [(6, 6)] * len(sizes))
        fd = fd_grad(lambda v: alignment_loss_grad(rows, v.reshape(H.shape), anchors, 1e-2)[0],
                     H.ravel())
        assert loss > 0 and rel_err(dH.ravel(), fd) < 1e-6


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        rng = np.random.default_rng(10)
        params = [rng.standard_normal((3, 2)), rng.standard_normal(2)]
        state = AdamState()
        new = adam_step(state, params, [np.zeros((3, 2)), np.zeros(2)], 0.05)
        for p, q in zip(params, new):
            np.testing.assert_array_equal(p, q)
        assert state.t == 1

    def test_first_step_magnitude_is_learning_rate(self):
        params = [np.zeros(4)]
        g = np.array([0.3, -2.0, 5.0, -0.01])
        state = AdamState()
        new = adam_step(state, params, [g], 0.01)
        np.testing.assert_allclose(new[0], -0.01 * np.sign(g), rtol=1e-6)

    def test_quadratic_convergence(self):
        target = np.array([1.5, -0.5, 2.0])
        scales = np.array([1.0, 4.0, 0.5])
        x = [np.zeros(3)]
        state = AdamState()
        for _ in range(5000):
            g = scales * (x[0] - target)
            x = adam_step(state, x, [g], 0.01)
        assert np.max(np.abs(x[0] - target)) < 1e-4

    def test_first_step_creates_the_zero_moments(self):
        rng = np.random.default_rng(11)
        params = [rng.standard_normal((3, 2)), rng.standard_normal(2)]
        grads = [rng.standard_normal((3, 2)), rng.standard_normal(2)]
        lazy = AdamState()
        assert lazy.m == lazy.v == []
        explicit = AdamState(m=[np.zeros_like(p) for p in params],
                             v=[np.zeros_like(p) for p in params])
        for _ in range(2):
            got = adam_step(lazy, params, grads, 0.05)
            ref = adam_step(explicit, params, grads, 0.05)
            for a, b in zip(got + lazy.m + lazy.v, ref + explicit.m + explicit.v):
                np.testing.assert_array_equal(a, b)
            params = got
        assert lazy.t == explicit.t == 2

    def test_shape_mismatch(self):
        params = [np.zeros(3)]
        state = AdamState()
        with pytest.raises(ValueError):
            adam_step(state, params, [np.zeros(4)], 0.1)
