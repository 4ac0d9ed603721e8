"""Federated training protocol with latent anchor alignment.

One communication round: the server samples an active client subset,
broadcasts the shared representation layer and the anchor set; each
active client runs M Adam steps on its private embedding and head, then
takes a single plain gradient step each on the shared layer and on the
anchors it holds. Each loss term is one function returning its loss and
gradient: :func:`data_term`, :func:`flic.nets.alignment_loss_grad` (W2
to the anchors, weight ``lambda1``) and :func:`anchor_term` (the head on
anchor samples, weight ``lambda2``). A local step composes all three;
the shared-layer step leaves out the W2 term, which reads only the
embedding, and the anchors take its gradient in
:func:`flic.anchors.local_anchor_update`.

A client round makes one anchor draw, first on its stream: samples of
every held class as one stacked array, shared by the M local steps and
the global phase. The shared layer is fixed within a round, so the
samples' image under it and its cache are formed once with the draw;
the local steps run only the head on that image, and the global phase
backpropagates through the cached pass. :func:`shared_arrays` defines
what crosses the client boundary in both directions: the shared layer's
parameters, the anchor means, and the anchor factors only when they are
learned. A client's proposal is that list after its steps, and
:func:`aggregate` is the one server step over it. Clients never upload
features or labels — the simulated message log records exactly those
arrays' bytes.

Clients run one after another and each client's embedding, head and
Adam states are updated in place; the global state is never mutated,
each round builds a new one. The server holds one upload at a time:
:func:`aggregate` folds each proposal into a running weighted sum as
soon as its client finishes, before the next client trains. The sum
keeps the ``b/|A|`` scale, and with it the drift under partial
participation that :func:`aggregate` describes. Every random draw is
keyed by (seed, tag, round, client), so the result does not depend on
the order in which clients run.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .anchors import AnchorSet, local_anchor_update, sample_anchor
from .datagen import ClientDataset
from .gaussian import BuresGradientError
from .nets import (
    AdamState,
    Mlp,
    adam_step,
    backward,
    build_embedding,
    build_head,
    cross_entropy,
    forward,
    alignment_loss_grad,
)
from .reporting import MetricsRecord
from .rng import stream

__all__ = [
    "ClientState",
    "GlobalState",
    "RoundConfig",
    "DivergenceError",
    "active_count",
    "select_active_clients",
    "shared_arrays",
    "client_local_round",
    "aggregate",
    "run_training",
    "evaluate",
    "client_accuracy",
    "local_baseline",
    "onboard_new_client",
    "make_client",
    "data_term",
    "anchor_term",
]

# RNG stream tags; every random draw in a run is keyed by
# (seed, tag, round, client) so results are independent of scheduling.
TAG_INIT = 0
TAG_ROUND = 1
TAG_SELECT = 2
TAG_FINAL = 3
TAG_ONBOARD = 4
# The onboarded client's initial weights. SeedSequence drops trailing zero
# words, so (TAG_ONBOARD, c) would be the stream (TAG_ONBOARD, c, 0) of
# round c of client 0.
TAG_ONBOARD_INIT = 5


class DivergenceError(RuntimeError):
    """A client's objective diverged. ``term`` names the part at fault:
    ``data``, ``align`` or ``anchor``, each checked where it is computed, or
    ``total`` for a non-finite sum of finite terms."""

    def __init__(self, client_id: int, round_idx: int, step: int, term: str,
                 detail: str = "non-finite loss"):
        self.client_id, self.round_idx, self.step, self.term = client_id, round_idx, step, term
        super().__init__(
            f"loss term {term!r} diverged on client {client_id} "
            f"at round {round_idx}, step {step}: {detail}"
        )


@dataclass
class RoundConfig:
    rounds: int = 50
    participation: float = 0.1
    local_steps: int = 10
    batch_size: int = 100
    lr: float = 0.001
    lambda1: float = 0.001
    lambda2: float = 0.001
    anchor_samples: int = 100
    eps: float = 1e-6
    seed: int = 0
    final_local_rounds: int = 0  # extra all-client local rounds before evaluation

    def __post_init__(self):
        if not 0 < self.participation <= 1:
            raise ValueError("participation must lie in (0, 1]")
        for name, low in (
            ("rounds", 0), ("local_steps", 1), ("batch_size", 1), ("anchor_samples", 1),
            ("final_local_rounds", 0), ("lr", 0), ("lambda1", 0), ("lambda2", 0),
        ):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.eps <= 0:
            raise ValueError("eps must be > 0")


@dataclass
class ClientState:
    """A client's private state; its id is ``data.client_id``."""

    data: ClientDataset
    phi: Mlp
    head: Mlp
    phi_opt: AdamState
    head_opt: AdamState
    weight: float


@dataclass
class GlobalState:
    alpha: Mlp
    anchors: AnchorSet
    round: int = 0


def shared_arrays(alpha_params: list[np.ndarray], anchors: AnchorSet) -> list[np.ndarray]:
    """The arrays that cross the client boundary, down and up: the shared
    layer's parameters, the anchor means, and the anchor factors only when
    they are learned."""
    arrays = [*alpha_params, anchors.means]
    return [*arrays, anchors.factors] if anchors.cov_learnable else arrays


def make_client(
    dataset: ClientDataset,
    n_classes: int,
    latent_dim: int,
    hidden_dim: int,
    lr: float,
    weight: float,
    rng,
) -> ClientState:
    phi = build_embedding(dataset.dim, latent_dim, hidden_dim, rng)
    head = build_head(latent_dim, n_classes, rng)
    return ClientState(
        data=dataset,
        phi=phi,
        head=head,
        phi_opt=AdamState(lr),
        head_opt=AdamState(lr),
        weight=weight,
    )


def active_count(b: int, rate: float) -> int:
    """The size of an active set: ``max(1, floor(rate * b))``, the floor
    taken of the rate as written. The float product can fall just short of
    a whole number (``0.29 * 100`` is 28.999999999999996), so its floor is
    raised by one when ``(floor + 1) / b`` rounds to ``rate`` or below:
    0.29 of 100 clients is 29, and a rate of ``m / b`` gives ``m``."""
    if b < 1:
        raise ValueError("need at least one client")
    m = math.floor(rate * b)
    if (m + 1) / b <= rate:
        m += 1
    return max(1, m)


def select_active_clients(b: int, rate: float, rng) -> np.ndarray:
    """Uniform subset of ``max(1, floor(rate * b))`` clients, sorted, drawn
    without replacement. The floor is of the rate as written, so 0.29 of
    100 clients selects 29 though ``0.29 * 100`` is just below 29 in
    floating point (see :func:`active_count`)."""
    return np.sort(rng.choice(b, size=active_count(b, rate), replace=False))


def data_term(phi, alpha, head, X, y):
    """The mean cross-entropy of ``head(alpha(phi(X)))`` against ``y``:
    ``(loss, dlogits, H, cache_phi, cache_alpha, cache_head)``, with the
    gradient at the logits, ``H = phi(X)`` and the three forward caches."""
    H, cache_phi = forward(phi, X)
    R, cache_alpha = forward(alpha, H)
    logits, cache_head = forward(head, R)
    loss, dlogits = cross_entropy(logits, y)
    return loss, dlogits, H, cache_phi, cache_alpha, cache_head


def anchor_term(head, samples):
    """``sum_c mean_j CE(c, head(alpha(Z_c[j])))`` over a round's anchor
    draw: ``(loss, dlogits, cache_head)``.

    ``samples`` is ``(z_classes, Z, Rz, cache)`` from :func:`_draw_samples`:
    ``Z`` of shape ``(len(z_classes), count, k)`` and ``Rz, cache`` its
    pass through the shared layer. The head runs on ``Rz`` as one batch;
    the class count times the mean cross-entropy is the sum of the
    per-class means."""
    z_classes, Z, Rz, _ = samples
    n, count = Z.shape[:2]
    logits, cache_head = forward(head, Rz)
    mean, dlogits = cross_entropy(logits, np.repeat(z_classes, count))
    return n * mean, n * dlogits, cache_head


def _finite(loss, where, term):
    """``loss``, or a DivergenceError naming ``term`` at ``where``."""
    if not math.isfinite(loss):
        raise DivergenceError(*where, term)
    return loss


def _local_step_grads(phi, alpha, head, X, y, anchors, samples, cfg, where):
    """``(loss, g_phi, g_head)`` of data + lambda1 * align + lambda2 *
    anchor on a batch; ``where`` is ``(client_id, round_idx, step)``.
    Only phi and the head move: the pass back through ``alpha`` forms only
    the gradient at ``H``, and the anchor samples stop at the head."""
    data, dlogits, H, cache_phi, cache_alpha, cache_head = data_term(phi, alpha, head, X, y)
    _finite(data, where, "data")
    g_head, dR = backward(head, cache_head, dlogits)
    dH = backward(alpha, cache_alpha, dR, param_grads=False)[1]
    align = 0.0
    if cfg.lambda1 > 0:
        # The classes are the nonzero bins of np.bincount(y): np.unique
        # imports numpy.ma on its first call, tens of milliseconds.
        rows = {int(c): np.flatnonzero(y == c) for c in np.flatnonzero(np.bincount(y))}
        try:
            align, dH_align = alignment_loss_grad(rows, H, anchors, cfg.eps)
        except BuresGradientError as exc:
            raise DivergenceError(*where, "align", str(exc)) from exc
        _finite(align, where, "align")
        dH = dH + cfg.lambda1 * dH_align
    g_phi = backward(phi, cache_phi, dH, input_grad=False)[0]
    anchor = 0.0
    if samples is not None:
        anchor, dlogits_z, cache_hz = anchor_term(head, samples)
        _finite(anchor, where, "anchor")
        gh_z = backward(head, cache_hz, dlogits_z, input_grad=False)[0]
        g_head = [g + cfg.lambda2 * gz for g, gz in zip(g_head, gh_z)]
    loss = _finite(data + cfg.lambda1 * align + cfg.lambda2 * anchor, where, "total")
    return loss, g_phi, g_head


def _global_phase_grads(phi, alpha, head, X, y, samples, cfg, where):
    """``(g_alpha, dZ)`` of data + lambda2 * anchor on a batch, ``dZ``
    the anchor term's gradient at the samples (``None`` without them).
    The W2 term reads only ``phi`` and adds to neither; no pass goes back
    through ``phi``, and those through the head form only its input
    gradient."""
    data, dlogits, _, _, cache_alpha, cache_head = data_term(phi, alpha, head, X, y)
    _finite(data, where, "data")
    dR = backward(head, cache_head, dlogits, param_grads=False)[1]
    g_alpha = backward(alpha, cache_alpha, dR, input_grad=False)[0]
    anchor, dZ = 0.0, None
    if samples is not None:
        _, Z, _, cache_az = samples
        anchor, dlogits_z, cache_hz = anchor_term(head, samples)
        _finite(anchor, where, "anchor")
        dRz = backward(head, cache_hz, dlogits_z, param_grads=False)[1]
        ga_z, dZ = backward(alpha, cache_az, dRz)
        dZ = dZ.reshape(Z.shape)
        g_alpha = [g + cfg.lambda2 * gz for g, gz in zip(g_alpha, ga_z)]
    _finite(data + cfg.lambda2 * anchor, where, "total")
    return g_alpha, dZ


def _draw_batch(rng, data, batch_size):
    """At most ``batch_size`` training rows and their labels, without replacement."""
    n = len(data.y_train)
    batch = rng.choice(n, size=min(batch_size, n), replace=False)
    return data.X_train[batch], data.y_train[batch]


def _draw_samples(client, alpha, anchors, cfg, rng):
    """A client round's one anchor draw, made first on the round's stream.

    :func:`flic.anchors.sample_anchor` draws ``cfg.anchor_samples``
    samples of every class the client holds, and they take one forward
    pass through the shared layer, which is fixed within a round. Returns
    ``(samples, xi)``: ``samples`` as :func:`anchor_term` takes it, for
    the M local steps and the global phase alike, and ``xi`` the draw's
    noise for :func:`flic.anchors.local_anchor_update`. With
    ``lambda2 = 0`` nothing is drawn and both are ``None``.
    """
    if cfg.lambda2 == 0:
        return None, None
    Z, xi = sample_anchor(anchors, client.data.classes, cfg.anchor_samples, rng)
    return (client.data.classes, Z, *forward(alpha, Z.reshape(-1, Z.shape[-1]))), xi


def _local_steps(client, alpha, anchors, cfg, rng, round_idx, samples):
    """M Adam steps on the client's (phi, head), in place; returns the
    per-step losses. Each step draws its own batch; all of them read the
    round's one anchor draw ``samples`` (see :func:`_draw_samples`), the
    samples of every held class and their shared-layer image."""
    data, phi, head = client.data, client.phi, client.head
    losses = []
    for m in range(cfg.local_steps):
        Xb, yb = _draw_batch(rng, data, cfg.batch_size)
        loss, g_phi, g_head = _local_step_grads(phi, alpha, head, Xb, yb, anchors, samples, cfg,
                                                (data.client_id, round_idx, m))
        phi.set_params(adam_step(client.phi_opt, phi.params(), g_phi))
        head.set_params(adam_step(client.head_opt, head.params(), g_head))
        losses.append(loss)
    return losses


def client_local_round(client: ClientState, global_state: GlobalState, cfg: RoundConfig,
                       round_idx: int) -> tuple[list[np.ndarray], float]:
    """One client's work for one round.

    The round's stream first gives one anchor draw for all the client's
    held classes, through the shared layer once (:func:`_draw_samples`).
    M local steps on :func:`data_term`,
    :func:`flic.nets.alignment_loss_grad` and :func:`anchor_term` then
    update the client's (phi, head) and Adam states in place. Last, on
    a fresh batch at the final local parameters, one plain gradient step
    on the shared layer, from the data and anchor-sample terms, and one
    on the held anchors by :func:`flic.anchors.local_anchor_update`,
    which takes the draw's noise. The global state is not mutated. Returns ``(proposal,
    train_loss)``: :func:`shared_arrays` of the stepped shared layer and
    anchors (with ``lambda1 = lambda2 = 0`` the global anchor arrays
    themselves), and the mean loss over the local steps.
    """
    data = client.data
    rng = stream(cfg.seed, TAG_ROUND, round_idx, data.client_id)
    alpha, anchors = global_state.alpha, global_state.anchors
    samples, xi = _draw_samples(client, alpha, anchors, cfg, rng)
    losses = _local_steps(client, alpha, anchors, cfg, rng, round_idx, samples)

    # Global-parameter phase: fresh batch, the round's anchor samples,
    # single plain gradient steps.
    Xb, yb = _draw_batch(rng, data, cfg.batch_size)
    g_alpha, dZ = _global_phase_grads(client.phi, alpha, client.head, Xb, yb, samples, cfg,
                                      (data.client_id, round_idx, cfg.local_steps))
    alpha_params = [p - cfg.lr * g for p, g in zip(alpha.params(), g_alpha)]

    if cfg.lambda1 > 0 or cfg.lambda2 > 0:
        H_train = forward(client.phi, data.X_train)[0]
        points = [H_train[data.y_train == c] for c in data.classes]
        try:
            anchor_prop = local_anchor_update(anchors, data.classes, points, dZ, xi, cfg.lr,
                                              cfg.lambda1, cfg.lambda2, cfg.eps)
        except BuresGradientError as exc:
            raise DivergenceError(
                data.client_id, round_idx, cfg.local_steps, "align", str(exc)
            ) from exc
    else:
        anchor_prop = anchors
    return shared_arrays(alpha_params, anchor_prop), float(np.mean(losses))


def aggregate(state: GlobalState, proposals: Iterable[list[np.ndarray]], weights,
              total_clients: int) -> GlobalState:
    """The server step: the next global state from the active clients'
    proposals, each laid out as :func:`shared_arrays`.

    ``proposals`` may be any iterable and is consumed once: each proposal
    is checked and folded into a running weighted sum as it arrives, and
    dropped before the next one is taken, so the server holds one upload
    at a time. Every shared array becomes ``(b / |A|) * sum_i w_i p_i``
    over the active set ``A`` of the ``b = total_clients`` clients, summed
    from left to right. It is an average only when the active weights sum
    to ``|A| / b``; under partial participation they do not, so the scale
    of the result drifts from round to round. Frozen anchor factors are
    copied from ``state``.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1:
        raise ValueError("one weight per proposal required")
    shapes = [a.shape for a in shared_arrays(state.alpha.params(), state.anchors)]
    acc = None
    count = 0
    for prop in proposals:
        if count == len(weights):
            raise ValueError("one weight per proposal required")
        if [a.shape for a in prop] != shapes:
            raise ValueError("proposal shapes differ from the shared arrays")
        w = weights[count]
        acc = [w * a for a in prop] if acc is None else [s + w * a for s, a in zip(acc, prop)]
        count += 1
        # The loop variable would keep this upload alive while the
        # iterable produces the next one.
        del prop
    if count == 0:
        raise ValueError("empty active set")
    if count != len(weights):
        raise ValueError("one weight per proposal required")
    scale = total_clients / count
    out = [scale * a for a in acc]
    n_alpha = len(state.alpha.params())
    alpha = state.alpha.copy()
    alpha.set_params(out[:n_alpha])
    anchors = state.anchors
    factors = out[-1] if anchors.cov_learnable else anchors.factors.copy()
    return GlobalState(alpha, AnchorSet(out[n_alpha], factors, anchors.cov_learnable),
                       state.round + 1)


def _local_fit(client, global_state, cfg, rounds, tag):
    """Rounds of local (phi, head) steps only, in place; shared state
    frozen. Each round makes one anchor draw first, as a client round
    does, and its steps share it."""
    alpha, anchors = global_state.alpha, global_state.anchors
    for r in range(rounds):
        rng = stream(cfg.seed, tag, r, client.data.client_id)
        samples = _draw_samples(client, alpha, anchors, cfg, rng)[0]
        _local_steps(client, alpha, anchors, cfg, rng, r, samples)
    return client


def run_training(clients, global_state, cfg: RoundConfig):
    """Full training loop.

    Returns ``(clients, global_state, metrics, log, accs)`` where metrics
    is a list of per-round :class:`flic.reporting.MetricsRecord`, ``log``
    a list of one ``{round, direction, client_id, kind, nbytes}`` dict per
    message, and ``accs`` maps each client id to its final test accuracy:
    the last round's evaluation, which is repeated only when there was no
    round or the final local rounds changed the clients. The clients are
    updated in place, the active ones each round and all of them in the
    final local rounds; ``global_state`` is not mutated. Active sets are
    drawn from the clients sorted by id, the order of the returned list.
    """
    clients = sorted(clients, key=lambda c: c.data.client_id)
    if not clients:
        raise ValueError("need at least one client")
    b = len(clients)
    log = []
    metrics = []
    state = global_state
    accs = None
    for t in range(cfg.rounds):
        t0 = time.perf_counter()
        active = select_active_clients(b, cfg.participation, stream(cfg.seed, TAG_SELECT, t))
        down = sum(a.nbytes for a in shared_arrays(state.alpha.params(), state.anchors))
        losses, up = [], []

        def upload(client):
            proposal, loss = client_local_round(client, state, cfg, t)
            losses.append(loss)
            up.append(sum(a.nbytes for a in proposal))
            return proposal

        # aggregate takes the proposals one at a time from this generator,
        # so each client trains only after the previous upload is folded in.
        state = aggregate(state, (upload(clients[i]) for i in active),
                          [clients[i].weight for i in active], b)
        ids = [int(clients[i].data.client_id) for i in active]
        log += [dict(round=t, direction="down", client_id=c, kind="shared_alpha+anchors",
                     nbytes=down) for c in ids]
        log += [dict(round=t, direction="up", client_id=c,
                     kind="alpha_proposal+anchor_proposal", nbytes=n) for c, n in zip(ids, up)]
        accs, mean_acc = evaluate(clients, state)
        wall_ms = (time.perf_counter() - t0) * 1e3
        metrics.append(
            MetricsRecord(
                round=t,
                train_loss=float(np.mean(losses)),
                mean_accuracy=mean_acc,
                min_accuracy=min(accs.values()),
                max_accuracy=max(accs.values()),
                wall_ms=wall_ms,
                bytes_up=sum(up),
                bytes_down=down * len(active),
            )
        )
    if cfg.final_local_rounds > 0:
        for c in clients:
            _local_fit(c, state, cfg, cfg.final_local_rounds, TAG_FINAL)
        accs = None
    if accs is None:
        accs, _ = evaluate(clients, state)
    return clients, state, metrics, log, accs


def client_accuracy(phi: Mlp, head: Mlp, alpha: Mlp, data: ClientDataset) -> float:
    """Test accuracy of ``head(alpha(phi(x)))`` on the client's test split."""
    H = forward(phi, data.X_test)[0]
    logits = forward(head, forward(alpha, H)[0])[0]
    return float(np.mean(np.argmax(logits, axis=1) == data.y_test))


def evaluate(clients, global_state: GlobalState):
    """Per-client test accuracy and its unweighted mean."""
    accs = {c.data.client_id: client_accuracy(c.phi, c.head, global_state.alpha, c.data)
            for c in clients}
    return accs, float(np.mean(list(accs.values())))


def local_baseline(clients, global_template: GlobalState, cfg: RoundConfig) -> dict:
    """Isolated per-client training: no communication and no alignment.

    Each client runs alone as a federation of one, with weight 1 and
    ``lambda1 = lambda2 = 0``: every round it takes the local steps on
    (phi, head) and one plain step on its own private copy of the shared
    layer, for all ``cfg.rounds`` rounds whatever ``cfg.participation``,
    then the final local rounds. A federated client at participation < 1
    trains only in the rounds it is selected, so the two step budgets
    differ. The clients are updated in place; ``global_template`` is not
    mutated. Returns the per-client test accuracies.
    """
    cfg0 = replace(cfg, lambda1=0.0, lambda2=0.0)
    accs = {}
    for client in clients:
        accs.update(run_training([replace(client, weight=1.0)], global_template, cfg0)[4])
    return accs


def onboard_new_client(
    dataset: ClientDataset,
    global_state: GlobalState,
    cfg: RoundConfig,
    hidden_dim: int,
    rounds: int | None = None,
) -> ClientState:
    """Fit a client that did not participate in training.

    The shared layer and anchors are received read-only; only the
    client's embedding and head are trained, for ``rounds`` rounds of
    ``cfg.local_steps`` steps (default: ``cfg.rounds``). The global
    state is left untouched. Every class the dataset holds must be one of
    the anchors' classes, below ``global_state.anchors.n_classes``; the
    ``onboard`` command checks this on its input.
    """
    n_classes = global_state.anchors.n_classes
    rng = stream(cfg.seed, TAG_ONBOARD_INIT, dataset.client_id)
    client = make_client(
        dataset,
        n_classes,
        latent_dim=global_state.alpha.input_dim,
        hidden_dim=hidden_dim,
        lr=cfg.lr,
        weight=1.0,
        rng=rng,
    )
    n_rounds = cfg.rounds if rounds is None else rounds
    return _local_fit(client, global_state, cfg, n_rounds, TAG_ONBOARD)
