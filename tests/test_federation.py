import numpy as np
import pytest

from flic import federation
from flic.anchors import init_anchors, sample_anchor
from flic.datagen import ClientDataset
from flic.gaussian import BuresGradientError
from flic.federation import (
    DivergenceError,
    GlobalState,
    RoundConfig,
    client_local_round,
    evaluate,
    local_objective_grads,
    make_client,
    run_training,
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
    z = {c: sample_anchor(anchors, c, samples, rng) for c in classes}
    return phi, alpha, head, X, y, anchors, z


def per_class_reference(phi, alpha, head, X, y, anchors, lam1, lam2, eps, z_by_class):
    """The anchor-sample term class by class, each class its own passes."""
    parts, g_phi, g_alpha, g_head, _ = local_objective_grads(
        phi, alpha, head, X, y, anchors, lam1, 0.0, eps, None
    )
    anchor_loss = 0.0
    z_grads = {}
    for c in sorted(z_by_class):
        Z = z_by_class[c]
        Rz, cache_az = forward(alpha, Z)
        logits_z, cache_hz = forward(head, Rz)
        loss_z, dlz = cross_entropy(logits_z, np.full(Z.shape[0], c))
        anchor_loss += loss_z
        gh_z, dRz = backward(head, cache_hz, dlz)
        ga_z, z_grads[c] = backward(alpha, cache_az, dRz)
        g_head = [g + lam2 * gz for g, gz in zip(g_head, gh_z)]
        g_alpha = [g + lam2 * gz for g, gz in zip(g_alpha, ga_z)]
    parts = dict(parts, anchor=anchor_loss, total=parts["total"] + lam2 * anchor_loss)
    return parts, g_phi, g_alpha, g_head, z_grads


class TestBatchedAnchorPass:
    @pytest.mark.parametrize("classes", [[2], [0, 3, 5], list(range(N_CLASSES))])
    def test_matches_per_class_passes(self, classes):
        phi, alpha, head, X, y, anchors, z = setup(1, classes)
        got = local_objective_grads(phi, alpha, head, X, y, anchors, 0.01, 0.3, 1e-6, z)
        ref = per_class_reference(phi, alpha, head, X, y, anchors, 0.01, 0.3, 1e-6, z)
        for term in ("data", "align", "anchor", "total"):
            assert got[0][term] == pytest.approx(ref[0][term], rel=1e-12)
        for g, r in zip(got[1:4], ref[1:4]):
            assert len(g) == len(r)
            for a, b in zip(g, r):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())
        assert sorted(got[4]) == sorted(classes)
        for c in classes:
            np.testing.assert_allclose(got[4][c], ref[4][c], rtol=1e-12, atol=1e-12 * np.abs(ref[4][c]).max())

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
        local_objective_grads(phi, alpha, head, X, y, anchors, 0.01, 0.3, 1e-6, z)
        assert counts == {"forward": 5, "backward": 5}
        # Without the shared-layer gradients the anchor samples stop at the head.
        counts.update(forward=0, backward=0)
        local_objective_grads(phi, alpha, head, X, y, anchors, 0.01, 0.3, 1e-6, z,
                              shared_grads=False)
        assert counts == {"forward": 5, "backward": 4}

    @pytest.mark.parametrize("classes", [[2], [0, 3, 5], list(range(N_CLASSES))])
    def test_without_shared_grads_the_rest_is_bit_identical(self, classes):
        phi, alpha, head, X, y, anchors, z = setup(1, classes)
        args = (phi, alpha, head, X, y, anchors, 0.01, 0.3, 1e-6, z)
        full = local_objective_grads(*args)
        local = local_objective_grads(*args, shared_grads=False)
        assert local[0] == full[0]
        for got, ref in zip(local[1] + local[3], full[1] + full[3]):
            np.testing.assert_array_equal(got, ref)
        assert local[2] is None and local[4] == {}

    def test_rejects_unequal_sample_counts(self):
        phi, alpha, head, X, y, anchors, z = setup(3, [0, 1])
        z[1] = z[1][:-1]
        with pytest.raises(ValueError, match="same number of anchor samples"):
            local_objective_grads(phi, alpha, head, X, y, anchors, 0.01, 0.3, 1e-6, z)


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

    def test_finite_run_completes(self):
        client, state, cfg = self.round_inputs()
        alpha_proposal, _, train_loss = client_local_round(client, state, cfg, round_idx=2)
        assert np.isfinite(train_loss)
        assert all(np.all(np.isfinite(p)) for p in alpha_proposal.params())

    @pytest.mark.parametrize("cov_learnable", [False, True])
    def test_round_trains_the_client_in_place_and_leaves_the_global_state(self, cov_learnable):
        client, state, cfg = self.round_inputs()
        state.anchors.cov_learnable = cov_learnable
        shared = [p.copy() for p in state.alpha.params() + [state.anchors.means,
                                                             state.anchors.factors]]
        phi, head = client.phi.copy(), client.head.copy()
        alpha_proposal, anchor_proposal, _ = client_local_round(client, state, cfg, round_idx=2)
        for got, ref in zip(state.alpha.params() + [state.anchors.means, state.anchors.factors],
                            shared):
            np.testing.assert_array_equal(got, ref)
        for before, after in ((phi, client.phi), (head, client.head)):
            assert all(not np.array_equal(a, b) for a, b in zip(before.params(), after.params()))
        assert client.phi_opt.t == client.head_opt.t == cfg.local_steps
        assert not np.array_equal(anchor_proposal.means, state.anchors.means)
        assert alpha_proposal is not state.alpha


@pytest.mark.parametrize(
    "rounds, final_local_rounds, evaluations", [(2, 0, 2), (2, 1, 3), (0, 0, 1)]
)
def test_final_accuracies_reuse_the_last_evaluation(monkeypatch, rounds, final_local_rounds,
                                                     evaluations):
    cfg = build_config(
        {"clients": 20, "samples_per_class": 20, "rounds": rounds, "participation": 0.25,
         "latent_dim": 6, "hidden_dim": 8, "local_steps": 2,
         "final_local_rounds": final_local_rounds},
        apply_env=False,
    )
    clients, state = build_federation(*load_or_generate(cfg), cfg)
    calls = []

    def counting(*args):
        calls.append(None)
        return evaluate(*args)

    monkeypatch.setattr(federation, "evaluate", counting)
    clients, state, metrics, _, accs = run_training(clients, state, cfg.training)
    assert len(calls) == evaluations
    assert accs == evaluate(clients, state)[0]
    if rounds and not final_local_rounds:
        assert metrics[-1].mean_accuracy == float(np.mean(list(accs.values())))
