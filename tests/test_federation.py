import math
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from flic import federation
from flic.anchors import AnchorSet, init_anchors, local_anchor_update, sample_anchor
from flic.datagen import ClientDataset
from flic.gaussian import BuresGradientError
from flic.federation import (
    DivergenceError,
    GlobalState,
    RoundConfig,
    active_count,
    aggregate,
    anchor_term,
    client_local_round,
    data_term,
    evaluate,
    make_client,
    run_training,
    select_active_clients,
    shared_arrays,
)
from flic.config import build_config
from flic.experiment import build_federation, load_or_generate
from flic.nets import (
    alignment_loss_grad,
    backward,
    build_embedding,
    build_head,
    build_shared,
    cross_entropy,
    forward,
)
from flic.rng import stream

from helpers import fd_grad, pack, rel_err, unpack

D, K, HIDDEN, N_CLASSES = 5, 6, 8, 6
WHERE = (0, 0, 0)  # the (client_id, round_idx, step) a divergence would name


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
    # The samples with their shared-layer image and cache, as a client
    # round forms them once.
    return phi, alpha, head, X, y, anchors, (z_classes, Z, *forward(alpha, Z.reshape(-1, K)))


def local_step(phi, alpha, head, X, y, anchors, z, lam1, lam2, eps=1e-6):
    """A local step's ``(loss, g_phi, g_head)``."""
    cfg = RoundConfig(lambda1=lam1, lambda2=lam2, eps=eps)
    return federation._local_step_grads(phi, alpha, head, X, y, anchors, z, cfg, WHERE)


def global_phase(phi, alpha, head, X, y, z, lam2, lam1=0.001):
    """The global phase's ``(g_alpha, dZ)``."""
    cfg = RoundConfig(lambda1=lam1, lambda2=lam2)
    return federation._global_phase_grads(phi, alpha, head, X, y, z, cfg, WHERE)


def full_reference(phi, alpha, head, X, y, anchors, lam1, lam2, eps, z):
    """The whole objective in one body, every backward pass forming both
    its parameter and its input gradients, the classes from np.unique and
    a boolean mask per class for the gather and again for the scatter.
    Returns ``(parts, g_phi, g_alpha, g_head, dZ)``, ``parts`` the three
    losses and their weighted sum."""
    H, cache_phi = forward(phi, X)
    R, cache_alpha = forward(alpha, H)
    logits, cache_head = forward(head, R)
    data_loss, dlogits = cross_entropy(logits, y)
    g_head, dR = backward(head, cache_head, dlogits)
    g_alpha, dH = backward(alpha, cache_alpha, dR)
    align_loss, dH_align = 0.0, np.zeros_like(H)
    for c in np.unique(y):
        slice_ = H[y == c]
        loss_c, g = alignment_loss_grad({int(c): np.arange(len(slice_))}, slice_, anchors, eps)
        align_loss += loss_c
        dH_align[y == c] = g
    g_phi, _ = backward(phi, cache_phi, dH + lam1 * dH_align)
    anchor_loss, dZ = 0.0, None
    if z is not None:
        z_classes, Z, Rz, cache_az = z
        n, count = Z.shape[:2]
        logits_z, cache_hz = forward(head, Rz)
        mean_z, dlz = cross_entropy(logits_z, np.repeat(z_classes, count))
        anchor_loss = n * mean_z
        gh_z, dRz = backward(head, cache_hz, n * dlz)
        ga_z, dZ = backward(alpha, cache_az, dRz)
        dZ = dZ.reshape(Z.shape)
        g_head = [g + lam2 * gz for g, gz in zip(g_head, gh_z)]
        g_alpha = [g + lam2 * gz for g, gz in zip(g_alpha, ga_z)]
    parts = {"data": data_loss, "align": align_loss, "anchor": anchor_loss,
             "total": data_loss + lam1 * align_loss + lam2 * anchor_loss}
    return parts, g_phi, g_alpha, g_head, dZ


def class_rows(y):
    """Each class in ``y`` mapped to its row indices, as the local step
    builds them: the classes are the nonzero bins of ``np.bincount(y)``."""
    return {int(c): np.flatnonzero(y == c) for c in np.flatnonzero(np.bincount(y))}


def term_losses(phi, alpha, head, X, y, anchors, eps, z):
    """The three terms' losses as the term functions give them."""
    data, _, H, *_ = data_term(phi, alpha, head, X, y)
    return {"data": data, "align": alignment_loss_grad(class_rows(y), H, anchors, eps)[0],
            "anchor": anchor_term(head, z)[0] if z is not None else 0.0}


def per_class_reference(phi, alpha, head, X, y, anchors, lam1, lam2, eps, z):
    """The anchor-sample term class by class, each class its own passes."""
    z_classes, Z = z[:2]
    parts, g_phi, g_alpha, g_head, _ = full_reference(
        phi, alpha, head, X, y, anchors, lam1, 0.0, eps, None
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
        loss, g_phi, g_head = local_step(phi, alpha, head, X, y, anchors, z, 0.01, 0.3)
        g_alpha, dZ = global_phase(phi, alpha, head, X, y, z, 0.3)
        got = term_losses(phi, alpha, head, X, y, anchors, 1e-6, z)
        ref = per_class_reference(phi, alpha, head, X, y, anchors, 0.01, 0.3, 1e-6, z)
        for term in ("data", "align", "anchor"):
            assert got[term] == pytest.approx(ref[0][term], rel=1e-12)
        assert loss == pytest.approx(ref[0]["total"], rel=1e-12)
        for g, r in zip((g_phi, g_alpha, g_head), ref[1:4]):
            assert len(g) == len(r)
            for a, b in zip(g, r):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())
        assert dZ.shape == z[1].shape
        for g, r in zip(dZ, ref[4]):
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12 * np.abs(r).max())

    @pytest.mark.parametrize("classes", [[1], [0, 4], list(range(N_CLASSES))])
    def test_four_forward_and_four_backward_passes_whatever_the_class_count(self, monkeypatch,
                                                                            classes):
        """The samples' shared-layer pass comes with them: the local step
        and the global phase each run the head forward on its image, and
        the global phase backpropagates through its cache."""
        phi, alpha, head, X, y, anchors, z = setup(2, classes)
        counts = {"forward": 0, "backward": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(federation, "forward", counting("forward", forward))
        monkeypatch.setattr(federation, "backward", counting("backward", backward))
        local_step(phi, alpha, head, X, y, anchors, z, 0.01, 0.3)
        assert counts == {"forward": 4, "backward": 4}
        counts.update(forward=0, backward=0)
        global_phase(phi, alpha, head, X, y, z, 0.3)
        assert counts == {"forward": 4, "backward": 4}

    @pytest.mark.parametrize("classes", [[2], [0, 3, 5], list(range(N_CLASSES))])
    def test_the_global_phase_runs_no_backward_pass_through_phi(self, monkeypatch, classes):
        phi, alpha, head, X, y, anchors, z = setup(4, classes)
        nets = []

        def recording(mlp, *args, **kwargs):
            nets.append(mlp)
            return backward(mlp, *args, **kwargs)

        monkeypatch.setattr(federation, "backward", recording)
        global_phase(phi, alpha, head, X, y, z, 0.3)
        assert [n is phi for n in nets] == [False] * 4
        nets.clear()
        local_step(phi, alpha, head, X, y, anchors, z, 0.01, 0.3)
        assert sum(n is phi for n in nets) == 1

    @pytest.mark.parametrize("classes", [[2], [0, 3, 5], list(range(N_CLASSES))])
    def test_the_callers_give_the_full_backward_gradients_bit_for_bit(self, classes):
        """The local step skips the shared layer's parameter gradient and
        the samples' input gradient, the global phase phi's pass and the
        head's parameter gradients: what each returns is the same bits."""
        phi, alpha, head, X, y, anchors, z = setup(1, classes)
        parts, *ref = full_reference(phi, alpha, head, X, y, anchors, 0.01, 0.3, 1e-6, z)
        loss, g_phi, g_head = local_step(phi, alpha, head, X, y, anchors, z, 0.01, 0.3)
        g_alpha, dZ = global_phase(phi, alpha, head, X, y, z, 0.3)
        assert loss == parts["total"]
        for got, r in zip(g_phi + g_alpha + g_head + [dZ], ref[0] + ref[1] + ref[2] + [ref[3]],
                          strict=True):
            np.testing.assert_array_equal(got, r)

    @pytest.mark.parametrize("classes", [[2], [0, 3, 5], list(range(N_CLASSES))])
    def test_shared_gradients_do_not_depend_on_the_alignment_weight(self, classes):
        """The W2 term reads only phi: the global phase's g_alpha and dZ,
        whatever lambda1, are those of the whole objective at lam1 > 0,
        bit for bit."""
        phi, alpha, head, X, y, anchors, z = setup(3, classes)
        with_align = full_reference(phi, alpha, head, X, y, anchors, 0.5, 0.3, 1e-6, z)
        assert with_align[0]["align"] > 0
        for lam1 in (0.0, 0.5):
            g_alpha, dZ = global_phase(phi, alpha, head, X, y, z, 0.3, lam1=lam1)
            for got, ref in zip(g_alpha, with_align[2], strict=True):
                np.testing.assert_array_equal(got, ref)
            np.testing.assert_array_equal(dZ, with_align[4])


def fd_params(net, loss_of):
    """Central finite differences of ``loss_of(trial)`` over ``net``'s
    parameters, ``trial`` a copy of ``net`` holding the perturbed ones."""
    shapes = [p.shape for p in net.params()]

    def f(vec):
        trial = net.copy()
        trial.set_params(unpack(vec, shapes))
        return loss_of(trial)

    return fd_grad(f, pack(net.params()))


class TestTermGradients:
    """Each term's gradients, as the local step and the global phase
    backpropagate them, against central finite differences of its loss."""

    EPS = 1e-2  # keeps the batch covariances well away from singular

    def test_data_term(self):
        phi, alpha, head, X, y, anchors, _ = setup(6, [0, 2, 3])
        loss, g_phi, g_head = local_step(phi, alpha, head, X, y, anchors, None, 0.0, 0.0)
        g_alpha, dZ = global_phase(phi, alpha, head, X, y, None, 0.0)
        assert loss == data_term(phi, alpha, head, X, y)[0] and dZ is None
        fds = [fd_params(phi, lambda t: data_term(t, alpha, head, X, y)[0]),
               fd_params(alpha, lambda t: data_term(phi, t, head, X, y)[0]),
               fd_params(head, lambda t: data_term(phi, alpha, t, X, y)[0])]
        for grads, fd in zip((g_phi, g_alpha, g_head), fds):
            assert rel_err(pack(grads), fd) < 1e-6

    @pytest.mark.parametrize("classes", [[0, 2, 3], list(range(N_CLASSES))])
    @pytest.mark.parametrize("factor_scale", [1.0, 1.5])
    def test_alignment_term(self, classes, factor_scale):
        """Five rows a class are fewer than k = 6 and take the Gram route
        with identity factors, ten rows and scaled factors the k x k one."""
        phi, alpha, head, X, y, anchors, _ = setup(7, classes)
        anchors = replace(anchors, factors=anchors.factors * factor_scale)
        H = forward(phi, X)[0]
        rows = class_rows(y)
        loss, dH = alignment_loss_grad(rows, H, anchors, self.EPS)
        fd = fd_grad(lambda v: alignment_loss_grad(rows, v.reshape(H.shape), anchors, self.EPS)[0],
                     H.ravel())
        assert loss > 0 and rel_err(dH.ravel(), fd) < 1e-6
        # Through the local step, weighted and added to the data term's.
        g_phi = local_step(phi, alpha, head, X, y, anchors, None, 0.4, 0.0, eps=self.EPS)[1]
        fd = fd_params(phi, lambda t: data_term(t, alpha, head, X, y)[0]
                       + 0.4 * alignment_loss_grad(rows, forward(t, X)[0], anchors, self.EPS)[0])
        assert rel_err(pack(g_phi), fd) < 1e-6

    def test_anchor_term(self):
        phi, alpha, head, X, y, anchors, z = setup(8, [0, 2, 3], samples=4)
        z_classes, Z = z[:2]
        lam2 = 0.7

        def anchor_loss(alpha_, head_, Z_):
            return anchor_term(head_, (z_classes, Z_, *forward(alpha_, Z_.reshape(-1, K))))[0]

        def objective(alpha_, head_):
            return data_term(phi, alpha_, head_, X, y)[0] + lam2 * anchor_loss(alpha_, head_, Z)

        loss, _, g_head = local_step(phi, alpha, head, X, y, anchors, z, 0.0, lam2)
        g_alpha, dZ = global_phase(phi, alpha, head, X, y, z, lam2)
        assert loss == pytest.approx(objective(alpha, head), rel=1e-14)
        assert rel_err(pack(g_head), fd_params(head, lambda t: objective(alpha, t))) < 1e-6
        assert rel_err(pack(g_alpha), fd_params(alpha, lambda t: objective(t, head))) < 1e-6
        fd = fd_grad(lambda v: anchor_loss(alpha, head, v.reshape(Z.shape)), Z.ravel())
        assert dZ.shape == Z.shape and rel_err(dZ.ravel(), fd) < 1e-6


@pytest.mark.parametrize("b, rate", [(1, 0.1), (7, 0.1), (20, 0.25), (10, 0.99), (10, 1.0),
                                     (100, 0.1)])
def test_select_active_clients_is_a_sorted_subset_of_the_documented_size(b, rate):
    for t in range(5):
        active = select_active_clients(b, rate, stream(0, federation.TAG_SELECT, t))
        assert active.size == max(1, int(np.floor(rate * b)))
        assert np.all(np.diff(active) > 0)  # sorted and distinct
        assert active.min() >= 0 and active.max() < b


@pytest.mark.parametrize("b, rate, size", [(100, 0.29, 29), (100, 0.57, 57), (100, 0.58, 58),
                                           (50, 0.58, 29)])
def test_active_count_floors_the_rate_as_written(b, rate, size):
    assert math.floor(rate * b) == size - 1  # the float product falls just short
    assert active_count(b, rate) == size
    for t in range(3):
        assert select_active_clients(b, rate, stream(0, federation.TAG_SELECT, t)).size == size


@pytest.mark.parametrize("b, rate, size", [(40, 0.25, 10), (100, 0.1, 10), (100, 0.5, 50),
                                           (20, 0.5, 10), (20, 1.0, 20)])
def test_benchmark_and_golden_active_sizes_do_not_move(b, rate, size):
    assert active_count(b, rate) == max(1, math.floor(rate * b)) == size


def test_active_count_is_the_exact_floor_of_two_decimal_rates():
    for b in range(1, 201):
        for i in range(1, 101):
            exact = max(1, math.floor(Fraction(i, 100) * b))
            assert active_count(b, i / 100) == exact, (b, i)


@pytest.mark.parametrize("b", [0, -3])
def test_select_active_clients_needs_a_client(b):
    with pytest.raises(ValueError, match="at least one client"):
        select_active_clients(b, 0.5, np.random.default_rng(0))


@pytest.mark.parametrize("factor_scale", [1.0, 1.5])
def test_alignment_rows_match_the_unique_and_mask_reference(factor_scale):
    """Unsorted labels with gaps ({0, 3, 7} of 8) and unequal counts: the
    bincount classes and row indices give the reference's bits."""
    rng = np.random.default_rng(23)
    phi = build_embedding(D, K, HIDDEN, rng)
    alpha = build_shared(K, rng)
    head = build_head(K, 8, rng)
    anchors = init_anchors(8, K, rng)
    # Identity factors take the Gram route, scaled ones the k x k route.
    anchors = replace(anchors, factors=anchors.factors * factor_scale)
    y = np.array([7, 3, 0, 7, 7, 3, 0, 3, 7, 0, 3, 7, 7, 3, 0, 7, 3, 7, 0, 7])
    X = rng.standard_normal((y.size, D))
    ref = full_reference(phi, alpha, head, X, y, anchors, 0.5, 0.0, 1e-6, None)
    loss, g_phi, g_head = local_step(phi, alpha, head, X, y, anchors, None, 0.5, 0.0)
    g_alpha, _ = global_phase(phi, alpha, head, X, y, None, 0.0)
    got = dict(term_losses(phi, alpha, head, X, y, anchors, 1e-6, None), total=loss)
    assert got == ref[0] and got["align"] > 0
    for a, r in zip(g_phi + g_head + g_alpha, ref[1] + ref[3] + ref[2], strict=True):
        assert np.array_equal(a.view(np.uint64), r.view(np.uint64))


class TestAlphaEpochDivergence:
    """The single shared-layer step of a round, the one objective
    evaluation after the ``local_steps`` Adam steps, goes through the same
    divergence checks as every other evaluation."""

    def round_inputs(self):
        rng = np.random.default_rng(4)
        labels = np.repeat([0, 2, 3], 10)
        features = rng.standard_normal((2 * labels.size, D))
        data = ClientDataset(3, features[0::2], labels, features[1::2], labels)
        client = make_client(data, N_CLASSES, K, HIDDEN, rng=rng)
        state = GlobalState(build_shared(K, rng), init_anchors(N_CLASSES, K, rng))
        cfg = RoundConfig(local_steps=3, batch_size=12, anchor_samples=5)
        return client, state, cfg

    @pytest.mark.parametrize(
        "fault, term",
        [("nan", "data"), ("bures", "align")],
    )
    def test_fault_at_alpha_proposal_names_client_round_step_and_term(self, monkeypatch, fault, term):
        """A non-finite data loss in the global phase, or a singular
        covariance in the anchor step that follows it."""
        client, state, cfg = self.round_inputs()
        calls = []

        def faulty(*args):
            out = data_term(*args)
            calls.append(None)
            if len(calls) <= cfg.local_steps or fault != "nan":  # the Adam steps
                return out
            return (np.nan, *out[1:])

        def singular(*args):
            raise BuresGradientError("L^T S L is numerically singular: smallest eigenvalue 0")

        monkeypatch.setattr(federation, "data_term", faulty)
        if fault == "bures":
            monkeypatch.setattr(federation, "local_anchor_update", singular)
        with pytest.raises(DivergenceError) as info:
            client_local_round(client, state, cfg, round_idx=2)
        err = info.value
        assert len(calls) == cfg.local_steps + 1
        assert (err.client_id, err.round_idx, err.step, err.term) == (3, 2, cfg.local_steps, term)
        assert f"loss term '{term}' diverged on client 3 at round 2, step {cfg.local_steps}" in str(err)

    def loss_at_call(self, monkeypatch, name, call, loss=np.nan):
        """Make the term function ``name`` return ``loss`` at its
        ``call``-th call (from 0); returns the list of calls."""
        original = getattr(federation, name)
        calls = []

        def faulty(*args):
            out = original(*args)
            calls.append(None)
            return (loss, *out[1:]) if len(calls) == call + 1 else out

        monkeypatch.setattr(federation, name, faulty)
        return calls

    @pytest.mark.parametrize("step", [1, 3])
    def test_nan_anchor_term_names_anchor_and_the_step(self, monkeypatch, step):
        """At a local step, and at step ``local_steps``, the global phase."""
        client, state, cfg = self.round_inputs()
        assert cfg.local_steps == 3
        calls = self.loss_at_call(monkeypatch, "anchor_term", step)
        with pytest.raises(DivergenceError) as info:
            client_local_round(client, state, cfg, round_idx=2)
        err = info.value
        assert len(calls) == step + 1
        assert (err.client_id, err.round_idx, err.step, err.term) == (3, 2, step, "anchor")
        assert f"loss term 'anchor' diverged on client 3 at round 2, step {step}" in str(err)

    def test_nan_data_loss_at_a_local_step_names_data_and_the_step(self, monkeypatch):
        client, state, cfg = self.round_inputs()
        calls = self.loss_at_call(monkeypatch, "data_term", 1)
        with pytest.raises(DivergenceError) as info:
            client_local_round(client, state, cfg, round_idx=2)
        err = info.value
        assert len(calls) == 2 and client.phi_opt.t == 1
        assert (err.client_id, err.round_idx, err.step, err.term) == (3, 2, 1, "data")

    @pytest.mark.parametrize("step", [0, 3])
    def test_overflowing_sum_of_finite_terms_names_total(self, monkeypatch, step):
        client, state, cfg = self.round_inputs()
        cfg = replace(cfg, lambda2=1.0)
        for name in ("data_term", "anchor_term"):
            self.loss_at_call(monkeypatch, name, step, loss=1e308)
        with pytest.raises(DivergenceError) as info:
            client_local_round(client, state, cfg, round_idx=2)
        err = info.value
        assert (err.client_id, err.round_idx, err.step, err.term) == (3, 2, step, "total")

    @pytest.mark.parametrize("cov_learnable", [False, True])
    def test_non_finite_embedded_class_names_client_round_step_and_align(self, monkeypatch,
                                                                         cov_learnable):
        """The anchor step reads every training row's embedding; a
        non-finite one is a divergence of the alignment term."""
        client, state, cfg = self.round_inputs()
        state.anchors = replace(state.anchors, cov_learnable=cov_learnable)
        n_train = len(client.data.y_train)
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

    def test_one_alignment_call_per_local_step(self, monkeypatch):
        """The shared-layer step evaluates the objective without the W2
        term; the anchors take its gradient in the anchor step."""
        client, state, cfg = self.round_inputs()
        assert cfg.lambda1 > 0
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return alignment_loss_grad(*args, **kwargs)

        monkeypatch.setattr(federation, "alignment_loss_grad", counting)
        client_local_round(client, state, cfg, round_idx=2)
        assert len(calls) == cfg.local_steps

    def test_the_round_shares_one_anchor_draw(self, monkeypatch):
        """Every anchor-term call of the round, the global phase's included,
        gets the one draw of the held classes with its shared-layer image,
        and the anchor step gets that draw's noise."""
        client, state, cfg = self.round_inputs()
        assert cfg.lambda2 > 0
        draws, samples, noise = [], [], []

        def drawing(*args):
            draws.append(sample_anchor(*args))
            return draws[-1]

        def anchor_loss(head, z):
            samples.append(z)
            return anchor_term(head, z)

        def anchor_step(*args):
            noise.append(args[4])
            return local_anchor_update(*args)

        monkeypatch.setattr(federation, "sample_anchor", drawing)
        monkeypatch.setattr(federation, "anchor_term", anchor_loss)
        monkeypatch.setattr(federation, "local_anchor_update", anchor_step)
        client_local_round(client, state, cfg, round_idx=2)
        [(Z, xi)] = draws
        assert len(samples) == cfg.local_steps + 1
        assert all(s is samples[0] for s in samples)
        z_classes, got_Z, Rz, _ = samples[0]
        assert got_Z is Z
        np.testing.assert_array_equal(z_classes, client.data.classes)
        np.testing.assert_array_equal(Rz, forward(state.alpha, Z.reshape(-1, K))[0])
        assert len(noise) == 1 and noise[0] is xi

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
        state.anchors = replace(state.anchors, cov_learnable=cov_learnable)
        cfg = replace(cfg, lambda1=lam, lambda2=lam)
        proposal, _ = client_local_round(client, state, cfg, round_idx=2)
        shared = shared_arrays(state.alpha.params(), state.anchors)
        assert len(proposal) == len(shared) == 3 + cov_learnable
        assert [p.shape for p in proposal] == [a.shape for a in shared]
        assert all((p is a) == (lam == 0) for p, a in zip(proposal[2:], shared[2:]))

    @pytest.mark.parametrize("cov_learnable", [False, True])
    def test_round_trains_the_client_in_place_and_leaves_the_global_state(self, cov_learnable):
        client, state, cfg = self.round_inputs()
        state.anchors = replace(state.anchors, cov_learnable=cov_learnable)
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


def test_one_anchor_draw_and_one_shared_layer_pass_per_client_round(monkeypatch):
    """Each client round, and each client's final local round, draws the
    samples of all its held classes once and forwards them through the
    shared layer once: ``sum_t |A_t| + b`` draws in all."""
    clients, state, cfg = small_federation(final_local_rounds=1)
    draws, passes = [], []

    def drawing(*args):
        draws.append(sample_anchor(*args))
        return draws[-1]

    def forwarding(mlp, X):
        if any(np.may_share_memory(X, Z) for Z, _ in draws):
            passes.append(X)
        return forward(mlp, X)

    monkeypatch.setattr(federation, "sample_anchor", drawing)
    monkeypatch.setattr(federation, "forward", forwarding)
    selections = [select_active_clients(20, cfg.participation,
                                        stream(cfg.seed, federation.TAG_SELECT, t))
                  for t in range(cfg.rounds)]
    run_training(clients, state, cfg)
    held = [clients[i].data.classes for active in selections for i in active]
    held += [c.data.classes for c in clients]
    assert len(draws) == sum(map(len, selections)) + len(clients) == len(held)
    for (Z, _), classes in zip(draws, held):
        assert Z.shape == (len(classes), cfg.anchor_samples, 6)
    assert len(passes) == len(draws)


def test_onboarding_init_and_round_streams_differ(monkeypatch):
    """Onboarding client 0 draws its initial weights from a stream other
    than its round-0 stream; keys that differ by trailing zeros would give
    one stream."""
    rng = np.random.default_rng(5)
    labels = np.repeat([0, 1], 6)
    data = ClientDataset(0, rng.standard_normal((12, D)), labels, rng.standard_normal((12, D)),
                         labels)
    state = GlobalState(build_shared(K, rng), init_anchors(N_CLASSES, K, rng))
    keys = []

    def recording(*key):
        keys.append(key)
        return stream(*key)

    monkeypatch.setattr(federation, "stream", recording)
    cfg = RoundConfig(local_steps=2, batch_size=4, anchor_samples=3)
    federation.onboard_new_client(data, state, cfg, hidden_dim=HIDDEN, rounds=1)
    init_key, round_key = keys
    assert round_key == (cfg.seed, federation.TAG_ONBOARD, 0, 0)
    assert not np.array_equal(stream(*init_key).random(8), stream(*round_key).random(8))


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


def test_the_server_weights_each_client_by_its_share_of_all_rows(monkeypatch):
    """``run_training`` hands :func:`aggregate` ``n_i / sum_j n_j`` for each
    active client, training and test rows both counted; a lone client,
    as in the local baseline, gets exactly 1."""
    rng = np.random.default_rng(21)

    def client(cid, n_train, n_test):
        data = ClientDataset(cid, rng.standard_normal((n_train, D)), np.arange(n_train) % 3,
                             rng.standard_normal((n_test, D)), np.arange(n_test) % 3)
        return make_client(data, N_CLASSES, K, HIDDEN, rng=rng)

    clients = [client(0, 9, 2), client(1, 15, 4), client(2, 31, 7)]
    state = GlobalState(build_shared(K, rng), init_anchors(N_CLASSES, K, rng))
    cfg = RoundConfig(rounds=2, participation=1.0, local_steps=1, batch_size=8,
                      anchor_samples=3)
    seen = []

    def recording(state, proposals, weights, total_clients):
        seen.append(list(weights))
        return aggregate(state, proposals, weights, total_clients)

    monkeypatch.setattr(federation, "aggregate", recording)
    run_training(clients, state, cfg)
    assert seen == [[11 / 68, 19 / 68, 38 / 68]] * 2
    seen.clear()
    run_training(clients[1:2], state, cfg)
    federation.local_baseline(clients, state, cfg)
    assert seen == [[1.0]] * 8


def test_messages_name_the_clients_by_their_ids():
    """Client ids need not be positions, as in a dataset directory that
    lacks some client."""
    clients, state, cfg = small_federation(participation=0.5)
    clients = clients[1:]
    clients, _, _, log, accs = run_training(clients, state, cfg)
    assert {m["client_id"] for m in log} <= set(accs) == set(range(1, 20))
    for t in range(cfg.rounds):
        active = select_active_clients(19, 0.5, stream(cfg.seed, federation.TAG_SELECT, t))
        for direction in ("down", "up"):
            got = [m["client_id"] for m in log if m["round"] == t and m["direction"] == direction]
            assert got == [clients[i].data.client_id for i in active]


def test_unselected_clients_hold_no_adam_moments():
    """A client selected in no round ends at its initialization: the
    networks a fresh ``make_client`` draws from its init stream, and
    empty Adam states."""
    clients, state, cfg = small_federation(participation=0.1)
    selected = {
        int(i) for t in range(cfg.rounds)
        for i in select_active_clients(20, 0.1, stream(cfg.seed, federation.TAG_SELECT, t))
    }
    clients, *_ = run_training(clients, state, cfg)
    never = [c for i, c in enumerate(clients) if i not in selected]
    assert 16 <= len(never) < len(clients)  # two of the 20 clients train per round
    for c in never:
        for opt in (c.phi_opt, c.head_opt):
            assert opt.t == 0 and opt.m == opt.v == []
        fresh = make_client(c.data, state.anchors.n_classes, 6, 8,
                            stream(cfg.seed, federation.TAG_INIT, 1, c.data.client_id))
        for got, ref in zip(c.phi.params() + c.head.params(),
                            fresh.phi.params() + fresh.head.params(), strict=True):
            assert np.array_equal(got, ref)


def trained_arrays(clients, state):
    """Every array a run trains, keyed by its owner."""
    arrays = {"server": [*state.alpha.params(), state.anchors.means, state.anchors.factors]}
    arrays.update((c.data.client_id, c.phi.params() + c.head.params()) for c in clients)
    return arrays


def assert_same_arrays(got, ref):
    assert list(got) == list(ref)
    for key in ref:
        for a, b in zip(got[key], ref[key], strict=True):
            assert np.array_equal(a, b), key


def test_the_run_depends_on_the_set_of_clients_not_their_order():
    runs = []
    for order in (1, -1):
        clients, state, cfg = small_federation(rounds=3)
        clients, state, metrics, log, accs = run_training(clients[::order], state, cfg)
        runs.append((trained_arrays(clients, state), list(accs.items()), log,
                     [replace(m, wall_ms=0.0) for m in metrics]))
    assert_same_arrays(runs[1][0], runs[0][0])
    assert runs[1][1:] == runs[0][1:]


def test_test_rows_never_reach_training():
    """Replacing every client's test rows with large noise leaves every
    trained array as it was."""
    runs = []
    for noisy in (False, True):
        clients, state, cfg = small_federation(cov_learnable=True, final_local_rounds=1)
        if noisy:
            rng = np.random.default_rng(0)
            for c in clients:
                c.data.X_test = 100 * rng.standard_normal(c.data.X_test.shape)
        clients, state, metrics, *_ = run_training(clients, state, cfg)
        runs.append((trained_arrays(clients, state), [m.train_loss for m in metrics]))
    assert_same_arrays(runs[1][0], runs[0][0])
    assert runs[1][1] == runs[0][1]


def shared_state(rng, cov_learnable, C=4, k=3, scale=1.0):
    alpha = build_shared(k, rng)
    means = scale * rng.standard_normal((C, k))
    return GlobalState(alpha, AnchorSet(means, np.tile(np.eye(k), (C, 1, 1)), cov_learnable))


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
        s2.anchors = replace(s2.anchors, factors=2.0 * s2.anchors.factors)
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
        local.anchors = replace(local.anchors, factors=3.0 * local.anchors.factors)
        out = aggregate(state, [proposal_of(local)], [1.0], 1)
        assert out.anchors.factors is not state.anchors.factors
        expected = local.anchors.factors if cov_learnable else state.anchors.factors
        np.testing.assert_array_equal(out.anchors.factors, expected)
