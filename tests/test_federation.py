import weakref
from dataclasses import replace

import numpy as np
import pytest

from flic import federation
from flic.anchors import init_anchors, local_anchor_update, sample_anchor
from flic.datagen import ClientDataset
from flic.gaussian import BuresGradientError
from flic.federation import (
    DivergenceError,
    GlobalState,
    RoundConfig,
    aggregate,
    client_local_round,
    evaluate,
    local_objective_grads,
    make_client,
    run_training,
    shared_arrays,
)
from flic.config import build_config
from flic.experiment import build_federation, load_or_generate
from flic.nets import backward, build_embedding, build_head, build_shared, cross_entropy, forward

D, K, HIDDEN, N_CLASSES = 5, 6, 8, 6


def setup(seed, classes, samples=7):
    rng = np.random.default_rng(seed)
    phi = build_embedding(D, K, HIDDEN, rng)
    alpha = build_shared(K, rng)
    head = build_head(K, N_CLASSES, rng)
    anchors = init_anchors(N_CLASSES, K, rng)
    y = rng.choice(classes, size=30)
    X = rng.standard_normal((30, D))
    z_classes = np.asarray(classes)
    Z = sample_anchor(anchors, z_classes, samples, rng)[0]
    return phi, alpha, head, X, y, anchors, (z_classes, Z)


def per_class_reference(phi, alpha, head, X, y, anchors, lam1, lam2, eps, z_classes, Z):
    """The anchor-sample term class by class, each class its own passes."""
    parts, g_phi, g_alpha, g_head, _ = local_objective_grads(
        phi, alpha, head, X, y, anchors, lam1, 0.0, eps, None, None
    )
    anchor_loss = 0.0
    z_grads = np.empty_like(Z)
    for i, c in enumerate(z_classes):
        Rz, cache_az = forward(alpha, Z[i])
        logits_z, cache_hz = forward(head, Rz)
        loss_z, dlz = cross_entropy(logits_z, np.full(Z.shape[1], c))
        anchor_loss += loss_z
        gh_z, dRz = backward(head, cache_hz, dlz)
        ga_z, z_grads[i] = backward(alpha, cache_az, dRz)
        g_head = [g + lam2 * gz for g, gz in zip(g_head, gh_z)]
        g_alpha = [g + lam2 * gz for g, gz in zip(g_alpha, ga_z)]
    parts = dict(parts, anchor=anchor_loss, total=parts["total"] + lam2 * anchor_loss)
    return parts, g_phi, g_alpha, g_head, z_grads


class TestBatchedAnchorPass:
    @pytest.mark.parametrize("classes", [[2], [0, 3, 5], list(range(N_CLASSES))])
    def test_matches_per_class_passes(self, classes):
        phi, alpha, head, X, y, anchors, z = setup(1, classes)
        got = local_objective_grads(phi, alpha, head, X, y, anchors, 0.01, 0.3, 1e-6, *z)
        ref = per_class_reference(phi, alpha, head, X, y, anchors, 0.01, 0.3, 1e-6, *z)
        for term in ("data", "align", "anchor", "total"):
            assert got[0][term] == pytest.approx(ref[0][term], rel=1e-12)
        for g, r in zip(got[1:4], ref[1:4]):
            assert len(g) == len(r)
            for a, b in zip(g, r):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())
        assert got[4].shape == z[1].shape
        for g, r in zip(got[4], ref[4]):
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12 * np.abs(r).max())

    @pytest.mark.parametrize("classes", [[1], [0, 4], list(range(N_CLASSES))])
    def test_five_forward_and_backward_passes_whatever_the_class_count(self, monkeypatch, classes):
        phi, alpha, head, X, y, anchors, z = setup(2, classes)
        counts = {"forward": 0, "backward": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(federation, "forward", counting("forward", forward))
        monkeypatch.setattr(federation, "backward", counting("backward", backward))
        local_objective_grads(phi, alpha, head, X, y, anchors, 0.01, 0.3, 1e-6, *z)
        assert counts == {"forward": 5, "backward": 5}
        # Without the shared-layer gradients the anchor samples stop at the head.
        counts.update(forward=0, backward=0)
        local_objective_grads(phi, alpha, head, X, y, anchors, 0.01, 0.3, 1e-6, *z,
                              shared_grads=False)
        assert counts == {"forward": 5, "backward": 4}

    @pytest.mark.parametrize("classes", [[2], [0, 3, 5], list(range(N_CLASSES))])
    def test_without_shared_grads_the_rest_is_bit_identical(self, classes):
        phi, alpha, head, X, y, anchors, z = setup(1, classes)
        args = (phi, alpha, head, X, y, anchors, 0.01, 0.3, 1e-6, *z)
        full = local_objective_grads(*args)
        local = local_objective_grads(*args, shared_grads=False)
        assert local[0] == full[0]
        for got, ref in zip(local[1] + local[3], full[1] + full[3]):
            np.testing.assert_array_equal(got, ref)
        assert local[2] is None and local[4] is None


class TestAlphaEpochDivergence:
    """The single shared-layer step of a round, the one objective
    evaluation after the ``local_steps`` Adam steps, goes through the same
    divergence checks as every other evaluation."""

    def round_inputs(self):
        rng = np.random.default_rng(4)
        labels = np.repeat([0, 2, 3], 20)
        data = ClientDataset(
            client_id=3,
            features=rng.standard_normal((labels.size, D)),
            labels=labels,
            classes=[0, 2, 3],
            train_idx=np.arange(0, labels.size, 2),
            test_idx=np.arange(1, labels.size, 2),
        )
        client = make_client(data, N_CLASSES, K, HIDDEN, lr=1e-3, weight=1.0, rng=rng)
        state = GlobalState(build_shared(K, rng), init_anchors(N_CLASSES, K, rng))
        cfg = RoundConfig(local_steps=3, batch_size=12, anchor_samples=5)
        return client, state, cfg

    @pytest.mark.parametrize(
        "fault, term",
        [("nan", "data"), ("bures", "align")],
    )
    def test_fault_at_alpha_proposal_names_client_round_step_and_term(self, monkeypatch, fault, term):
        client, state, cfg = self.round_inputs()
        original = federation.local_objective_grads
        calls = []

        def faulty(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.append(None)
            if len(calls) <= cfg.local_steps:  # the Adam steps
                return out
            if fault == "bures":
                raise BuresGradientError("L^T S L is numerically singular: smallest eigenvalue 0")
            return (dict(out[0], data=np.nan, total=np.nan), *out[1:])

        monkeypatch.setattr(federation, "local_objective_grads", faulty)
        with pytest.raises(DivergenceError) as info:
            client_local_round(client, state, cfg, round_idx=2)
        err = info.value
        assert len(calls) == cfg.local_steps + 1
        assert (err.client_id, err.round_idx, err.step, err.term) == (3, 2, cfg.local_steps, term)
        assert f"loss term '{term}' diverged on client 3 at round 2, step {cfg.local_steps}" in str(err)

    @pytest.mark.parametrize("cov_learnable", [False, True])
    def test_non_finite_embedded_class_names_client_round_step_and_align(self, monkeypatch,
                                                                         cov_learnable):
        """The anchor step reads every training row's embedding; a
        non-finite one is a divergence of the alignment term."""
        client, state, cfg = self.round_inputs()
        state.anchors.cov_learnable = cov_learnable
        n_train = len(client.data.train_idx)
        assert cfg.batch_size < n_train

        def poisoned(mlp, X):
            H, cache = forward(mlp, X)
            if mlp is client.phi and X.shape[0] == n_train:
                H = H.copy()
                H[-1, 0] = np.inf
            return H, cache

        monkeypatch.setattr(federation, "forward", poisoned)
        with pytest.raises(DivergenceError) as info:
            client_local_round(client, state, cfg, round_idx=2)
        err = info.value
        assert (err.client_id, err.round_idx, err.step) == (3, 2, cfg.local_steps)
        assert err.term == "align"
        assert "class 3 embedding contains non-finite entries" in str(err)

    def test_finite_run_completes(self):
        client, state, cfg = self.round_inputs()
        proposal, train_loss = client_local_round(client, state, cfg, round_idx=2)
        assert np.isfinite(train_loss)
        assert all(np.all(np.isfinite(p)) for p in proposal[:len(state.alpha.params())])

    @pytest.mark.parametrize("cov_learnable", [False, True])
    @pytest.mark.parametrize("lam", [0.0, 0.001])
    def test_proposal_is_laid_out_as_the_shared_arrays(self, cov_learnable, lam):
        """Without alignment the anchors are passed on as the global
        arrays themselves."""
        client, state, cfg = self.round_inputs()
        state.anchors.cov_learnable = cov_learnable
        cfg = replace(cfg, lambda1=lam, lambda2=lam)
        proposal, _ = client_local_round(client, state, cfg, round_idx=2)
        shared = shared_arrays(state.alpha.params(), state.anchors)
        assert len(proposal) == len(shared) == 3 + cov_learnable
        assert [p.shape for p in proposal] == [a.shape for a in shared]
        assert all((p is a) == (lam == 0) for p, a in zip(proposal[2:], shared[2:]))

    @pytest.mark.parametrize("cov_learnable", [False, True])
    def test_round_trains_the_client_in_place_and_leaves_the_global_state(self, cov_learnable):
        client, state, cfg = self.round_inputs()
        state.anchors.cov_learnable = cov_learnable
        shared = [p.copy() for p in state.alpha.params() + [state.anchors.means,
                                                             state.anchors.factors]]
        phi, head = client.phi.copy(), client.head.copy()
        proposal, _ = client_local_round(client, state, cfg, round_idx=2)
        for got, ref in zip(state.alpha.params() + [state.anchors.means, state.anchors.factors],
                            shared):
            np.testing.assert_array_equal(got, ref)
        for before, after in ((phi, client.phi), (head, client.head)):
            assert all(not np.array_equal(a, b) for a, b in zip(before.params(), after.params()))
        assert client.phi_opt.t == client.head_opt.t == cfg.local_steps
        assert not np.array_equal(proposal[2], state.anchors.means)
        assert not any(p is a for p, a in zip(proposal, state.alpha.params()))


def small_federation(**values):
    cfg = build_config(
        {"clients": 20, "samples_per_class": 20, "rounds": 2, "participation": 0.25,
         "latent_dim": 6, "hidden_dim": 8, "local_steps": 2, **values},
        apply_env=False,
    )
    return (*build_federation(*load_or_generate(cfg), cfg), cfg.training)


@pytest.mark.parametrize(
    "rounds, final_local_rounds, evaluations", [(2, 0, 2), (2, 1, 3), (0, 0, 1)]
)
def test_final_accuracies_reuse_the_last_evaluation(monkeypatch, rounds, final_local_rounds,
                                                     evaluations):
    clients, state, cfg = small_federation(rounds=rounds, final_local_rounds=final_local_rounds)
    calls = []

    def counting(*args):
        calls.append(None)
        return evaluate(*args)

    monkeypatch.setattr(federation, "evaluate", counting)
    clients, state, metrics, _, accs = run_training(clients, state, cfg)
    assert len(calls) == evaluations
    assert accs == evaluate(clients, state)[0]
    if rounds and not final_local_rounds:
        assert metrics[-1].mean_accuracy == float(np.mean(list(accs.values())))


@pytest.mark.parametrize("cov_learnable", [False, True])
def test_each_upload_is_freed_before_the_next_client_trains(monkeypatch, cov_learnable):
    clients, state, cfg = small_federation(cov_learnable=cov_learnable)
    original = federation.client_local_round
    uploads, alive = [], []

    def tracked(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in uploads))
        proposal, loss = original(*args, **kwargs)
        uploads[:] = [weakref.ref(a) for a in proposal]
        return proposal, loss

    monkeypatch.setattr(federation, "client_local_round", tracked)
    run_training(clients, state, cfg)
    assert len(alive) == 10 and len(uploads) == 3 + cov_learnable
    assert alive == [0] * len(alive)


def test_unselected_clients_hold_no_adam_moments():
    clients, state, cfg = small_federation(participation=0.1)
    clients, *_ = run_training(clients, state, cfg)
    never = [c for c in clients if c.phi_opt.t == 0]
    assert 16 <= len(never) < len(clients)  # two of the 20 clients train per round
    for c in never:
        for opt in (c.phi_opt, c.head_opt):
            assert opt.t == 0 and opt.m == opt.v == []


def shared_state(rng, cov_learnable, C=4, k=3, scale=1.0):
    return GlobalState(build_shared(k, rng),
                       init_anchors(C, k, rng, cov_learnable=cov_learnable, init_scale=scale))


def proposal_of(state):
    return shared_arrays(state.alpha.params(), state.anchors)


@pytest.mark.parametrize("cov_learnable", [False, True])
def test_nbytes_counts_factors_only_when_learnable(cov_learnable):
    state = shared_state(np.random.default_rng(0), cov_learnable, C=4, k=3)
    nbytes = sum(a.nbytes for a in proposal_of(state))
    assert nbytes == 8 * (3 * 3 + 3) + 8 * (4 * 3 + cov_learnable * 4 * 3 * 3)


@pytest.mark.parametrize("cov_learnable", [False, True])
class TestAggregate:
    """The server step over the shared layer and the anchors; frozen
    factors are the current state's."""

    def test_two_clients_equal_weights(self, cov_learnable):
        rng = np.random.default_rng(10)
        s1, s2 = shared_state(rng, cov_learnable), shared_state(rng, cov_learnable)
        s2.anchors.factors = 2.0 * s2.anchors.factors
        out = aggregate(s1, [proposal_of(s1), proposal_of(s2)], [0.5, 0.5], total_clients=2)
        for got, a, b in zip(proposal_of(out), proposal_of(s1), proposal_of(s2)):
            np.testing.assert_allclose(got, (a + b) / 2)
        if not cov_learnable:
            np.testing.assert_array_equal(out.anchors.factors, s1.anchors.factors)

    def test_single_active_of_b_scaling_identity(self, cov_learnable):
        rng = np.random.default_rng(11)
        state, local = shared_state(rng, cov_learnable), shared_state(rng, cov_learnable, scale=2.0)
        out = aggregate(state, [proposal_of(local)], [1.0 / 8.0], total_clients=8)
        for got, ref in zip(proposal_of(out), proposal_of(local)):
            np.testing.assert_allclose(got, ref, rtol=1e-15)

    def test_identical_sets_fixed_point_exact(self, cov_learnable):
        template = shared_state(np.random.default_rng(12), cov_learnable, scale=3.0)
        out = aggregate(template, [proposal_of(template)] * 4, [0.25] * 4, total_clients=4)
        for got, ref in zip(proposal_of(out), proposal_of(template)):
            np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(out.anchors.factors, template.anchors.factors)

    def test_permutation_invariance(self, cov_learnable):
        rng = np.random.default_rng(13)
        props = [proposal_of(shared_state(rng, cov_learnable, scale=float(i + 1)))
                 for i in range(4)]
        state = shared_state(rng, cov_learnable)
        a = aggregate(state, props, [0.25] * 4, 4)
        b = aggregate(state, props[::-1], [0.25] * 4, 4)
        for x, y in zip(proposal_of(a), proposal_of(b)):
            np.testing.assert_allclose(x, y, atol=1e-13)

    def test_update_then_average_reduces_to_mean_averaging(self, cov_learnable):
        """One local step plus averaging is plain averaging of the mean
        updates (and of the factor updates when they are learned)."""
        rng = np.random.default_rng(14)
        C, k, b = 3, 2, 4
        state = shared_state(rng, cov_learnable, C=C, k=k)
        anchors = state.anchors
        step, lam1 = 0.05, 1.0
        points = [[rng.standard_normal((10, k)) + c for c in range(C)] for _ in range(b)]
        locals_ = [local_anchor_update(anchors, range(C), pts, None, None, step, lam1, 0.0, 1e-6)
                   for pts in points]
        props = [shared_arrays(state.alpha.params(), s) for s in locals_]
        out = aggregate(state, props, [1.0 / b] * b, b)
        expected = np.mean(
            [
                [
                    anchors.means[c] - step * lam1 * 2 * (anchors.means[c] - pts[c].mean(axis=0))
                    for c in range(C)
                ]
                for pts in points
            ],
            axis=0,
        )
        np.testing.assert_allclose(out.anchors.means, expected, atol=1e-12)
        for got, ref in zip(out.alpha.params(), state.alpha.params()):
            np.testing.assert_allclose(got, ref, rtol=1e-15)
        if cov_learnable:
            np.testing.assert_allclose(
                out.anchors.factors, np.mean([s.factors for s in locals_], axis=0), atol=1e-12
            )
        else:
            np.testing.assert_array_equal(out.anchors.factors, anchors.factors)

    def test_any_iterable_sums_like_the_list(self, cov_learnable):
        rng = np.random.default_rng(18)
        props = [proposal_of(shared_state(rng, cov_learnable, scale=float(i + 1)))
                 for i in range(4)]
        state = shared_state(rng, cov_learnable)
        weights = [0.1, 0.4, 0.2, 0.3]
        from_list = aggregate(state, props, weights, 7)
        from_generator = aggregate(state, (p for p in props), weights, 7)
        for i, (got, listed) in enumerate(zip(proposal_of(from_generator),
                                              proposal_of(from_list))):
            ref = weights[0] * props[0][i]
            for w, prop in zip(weights[1:], props[1:]):
                ref = ref + w * prop[i]
            np.testing.assert_array_equal(listed, (7 / 4) * ref)
            np.testing.assert_array_equal(got, listed)

    @pytest.mark.parametrize("as_iterable", [list, iter])
    @pytest.mark.parametrize("n_weights", [2, 4])
    def test_weight_count_must_match_the_proposals(self, cov_learnable, n_weights, as_iterable):
        rng = np.random.default_rng(19)
        state = shared_state(rng, cov_learnable)
        props = [proposal_of(shared_state(rng, cov_learnable)) for _ in range(3)]
        with pytest.raises(ValueError, match="one weight per proposal"):
            aggregate(state, as_iterable(props), [1.0 / 3] * n_weights, 3)

    def test_empty_active_set(self, cov_learnable):
        state = shared_state(np.random.default_rng(15), cov_learnable)
        with pytest.raises(ValueError, match="empty"):
            aggregate(state, [], [], 3)

    def test_shape_mismatch(self, cov_learnable):
        a = shared_state(np.random.default_rng(15), cov_learnable, C=2, k=3)
        b = shared_state(np.random.default_rng(16), cov_learnable, C=3, k=3)
        with pytest.raises(ValueError):
            aggregate(a, [proposal_of(a), proposal_of(b)], [0.5, 0.5], 2)

    def test_frozen_factors_are_a_copy_of_the_state(self, cov_learnable):
        rng = np.random.default_rng(17)
        state, local = shared_state(rng, cov_learnable), shared_state(rng, cov_learnable)
        local.anchors.factors = 3.0 * local.anchors.factors
        out = aggregate(state, [proposal_of(local)], [1.0], 1)
        assert out.anchors.factors is not state.anchors.factors
        expected = local.anchors.factors if cov_learnable else state.anchors.factors
        np.testing.assert_array_equal(out.anchors.factors, expected)
        assert out.round == state.round + 1
