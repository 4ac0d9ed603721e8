"""Federated training protocol with latent anchor alignment.

One communication round: the server samples an active client subset,
broadcasts the shared representation layer and the anchor set; each
active client runs M Adam steps on its private embedding and head
(data loss, plus the W2 alignment penalty on the embedding and the
anchor-sample classification penalty on the head), then takes a single
plain gradient step each on the shared layer and on the anchors it
holds, with the anchor samples as one stacked array. :func:`shared_arrays`
defines what crosses the client boundary in both directions: the shared
layer's parameters, the anchor means, and the anchor factors only when
they are learned. A client's proposal is that list after its steps, and
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
    "local_objective_grads",
]

# RNG stream tags; every random draw in a run is keyed by
# (seed, tag, round, client) so results are independent of scheduling.
TAG_INIT = 0
TAG_ROUND = 1
TAG_SELECT = 2
TAG_FINAL = 3
TAG_ONBOARD = 4


class DivergenceError(RuntimeError):
    """A client's objective diverged; ``term`` names the loss part at fault."""

    def __init__(self, client_id: int, round_idx: int, step: int, term: str,
                 detail: str = "non-finite loss"):
        self.client_id, self.round_idx, self.step, self.term = client_id, round_idx, step, term
        super().__init__(
            f"loss term {term!r} diverged on client {client_id} "
            f"at round {round_idx}, step {step}: {detail}"
        )


def _objective(client_id, round_idx, step, *args, **kwargs):
    """``local_objective_grads(*args, **kwargs)``; a divergence raises
    DivergenceError."""
    try:
        out = local_objective_grads(*args, **kwargs)
    except BuresGradientError as exc:
        raise DivergenceError(client_id, round_idx, step, "align", str(exc)) from exc
    if not np.isfinite(out[0]["total"]):
        bad = [t for t in ("data", "align", "anchor") if not np.isfinite(out[0][t])]
        raise DivergenceError(client_id, round_idx, step, (bad or ["total"])[0])
    return out


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
    client_id: int
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
        client_id=dataset.client_id,
        data=dataset,
        phi=phi,
        head=head,
        phi_opt=AdamState(lr),
        head_opt=AdamState(lr),
        weight=weight,
    )


def select_active_clients(b: int, rate: float, rng) -> np.ndarray:
    """Uniform subset of size max(1, floor(rate*b)), sorted, no replacement."""
    if b < 1:
        raise ValueError("need at least one client")
    size = max(1, int(np.floor(rate * b)))
    return np.sort(rng.choice(b, size=size, replace=False))


def local_objective_grads(phi, alpha, head, X, y, anchors, lam1, lam2, eps, z_classes, Z,
                          shared_grads=True):
    """Per-client objective on a fixed batch and its exact gradients.

    objective = mean data cross-entropy
              + lam1 * sum_c W2^2(anchor_c, embedded class batch)
              + lam2 * sum_c mean_j CE(c, head(alpha(Z_c[j])))

    ``Z`` holds the fixed anchor samples of the classes ``z_classes``, as
    :func:`flic.anchors.sample_anchor` draws them: shape
    ``(len(z_classes), count, k)``, or ``None`` without the anchor-sample
    term. That term runs as one batch: the samples of all classes take
    one forward pass through ``alpha`` and ``head``, one
    ``cross_entropy`` (scaled by the class count, so the term stays the
    sum of per-class means) and one backward pass. Returns ``(parts,
    g_phi, g_alpha, g_head, dZ)`` where ``parts`` is a dict of the three
    loss components and ``dZ``, in ``Z``'s shape, is the gradient with
    respect to the anchor samples (used for anchor updates), or ``None``
    when there is none.

    ``shared_grads=False`` is for the local steps, which move only phi
    and the head: the data path's pass back through ``alpha`` forms only
    the gradient ``phi`` needs, and the anchor-sample term stops after
    the head's parameter gradients. ``g_alpha`` and ``dZ`` are then
    ``None``; ``parts``, ``g_phi`` and ``g_head`` are the same bit for
    bit.
    """
    H, cache_phi = forward(phi, X)
    R, cache_alpha = forward(alpha, H)
    logits, cache_head = forward(head, R)
    data_loss, dlogits = cross_entropy(logits, y)
    g_head, dR = backward(head, cache_head, dlogits)
    g_alpha, dH = backward(alpha, cache_alpha, dR, param_grads=shared_grads)

    align_loss = 0.0
    if lam1 > 0:
        slices = {int(c): H[y == c] for c in np.unique(y)}
        align_loss, align_grads = alignment_loss_grad(slices, anchors, eps)
        dH_align = np.zeros_like(H)
        for c, g in align_grads.items():
            dH_align[y == c] = g
        dH = dH + lam1 * dH_align
    g_phi, _ = backward(phi, cache_phi, dH, input_grad=False)

    anchor_loss = 0.0
    dZ = None
    if lam2 > 0 and Z is not None:
        n, count, k = Z.shape
        Rz, cache_az = forward(alpha, Z.reshape(n * count, k))
        logits_z, cache_hz = forward(head, Rz)
        # cross_entropy takes the mean over all rows; with equal counts the
        # class count times it is the sum of the per-class means.
        mean_z, dlz = cross_entropy(logits_z, np.repeat(z_classes, count))
        anchor_loss = n * mean_z
        gh_z, dRz = backward(head, cache_hz, n * dlz, input_grad=shared_grads)
        g_head = [g + lam2 * gz for g, gz in zip(g_head, gh_z)]
        if shared_grads:
            ga_z, dZ = backward(alpha, cache_az, dRz)
            dZ = dZ.reshape(Z.shape)
            g_alpha = [g + lam2 * gz for g, gz in zip(g_alpha, ga_z)]

    parts = {
        "data": data_loss,
        "align": align_loss,
        "anchor": anchor_loss,
        "total": data_loss + lam1 * align_loss + lam2 * anchor_loss,
    }
    return parts, g_phi, g_alpha, g_head, dZ


def _draw_batch(rng, train_idx, batch_size):
    size = min(batch_size, len(train_idx))
    return rng.choice(train_idx, size=size, replace=False)


def _local_steps(client, alpha, anchors, cfg, rng, round_idx):
    """M Adam steps on the client's (phi, head), in place; returns the
    per-step losses."""
    data, phi, head = client.data, client.phi, client.head
    losses = []
    for m in range(cfg.local_steps):
        batch = _draw_batch(rng, data.train_idx, cfg.batch_size)
        Xb, yb = data.features[batch], data.labels[batch]
        present = np.unique(yb)
        Z = sample_anchor(anchors, present, cfg.anchor_samples, rng)[0] if cfg.lambda2 > 0 else None
        parts, g_phi, _, g_head, _ = _objective(
            client.client_id, round_idx, m,
            phi, alpha, head, Xb, yb, anchors, cfg.lambda1, cfg.lambda2, cfg.eps, present, Z,
            shared_grads=False,
        )
        phi.set_params(adam_step(client.phi_opt, phi.params(), g_phi))
        head.set_params(adam_step(client.head_opt, head.params(), g_head))
        losses.append(parts["total"])
    return losses


def client_local_round(client: ClientState, global_state: GlobalState, cfg: RoundConfig,
                       round_idx: int) -> tuple[list[np.ndarray], float]:
    """One client's work for one round.

    M local steps update the client's (phi, head) and Adam states in
    place; then a single plain gradient step on the shared layer and on
    the anchors of the client's classes, all evaluated at the final local
    parameters on a fresh batch. The global state is not mutated.
    Returns ``(proposal, train_loss)``: the proposal is
    :func:`shared_arrays` of the stepped shared layer and anchors (with
    ``lambda1 = lambda2 = 0`` the global anchor arrays themselves), the loss
    the mean over the local steps.
    """
    data = client.data
    rng = stream(cfg.seed, TAG_ROUND, round_idx, client.client_id)
    alpha, anchors = global_state.alpha, global_state.anchors
    losses = _local_steps(client, alpha, anchors, cfg, rng, round_idx)

    # Global-parameter phase: fresh batch, anchor samples for every held
    # class, single plain gradient steps.
    batch = _draw_batch(rng, data.train_idx, cfg.batch_size)
    Z = xi = None
    if cfg.lambda2 > 0:
        Z, xi = sample_anchor(anchors, data.classes, cfg.anchor_samples, rng)
    _, _, g_alpha, _, dZ = _objective(
        client.client_id, round_idx, cfg.local_steps, client.phi, alpha, client.head,
        data.features[batch], data.labels[batch], anchors, cfg.lambda1, cfg.lambda2, cfg.eps,
        data.classes, Z,
    )
    alpha_params = [p - cfg.lr * g for p, g in zip(alpha.params(), g_alpha)]

    if cfg.lambda1 > 0 or cfg.lambda2 > 0:
        H_train = forward(client.phi, data.features[data.train_idx])[0]
        y_train = data.labels[data.train_idx]
        points = [H_train[y_train == c] for c in data.classes]
        try:
            anchor_prop = local_anchor_update(anchors, data.classes, points, dZ, xi, cfg.lr,
                                              cfg.lambda1, cfg.lambda2, cfg.eps)
        except BuresGradientError as exc:
            raise DivergenceError(
                client.client_id, round_idx, cfg.local_steps, "align", str(exc)
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
    """Rounds of local (phi, head) steps only, in place; shared state frozen."""
    for r in range(rounds):
        rng = stream(cfg.seed, tag, r, client.client_id)
        _local_steps(client, global_state.alpha, global_state.anchors, cfg, rng, r)
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
    final local rounds; ``global_state`` is not mutated.
    """
    if not clients:
        raise ValueError("need at least one client")
    clients = list(clients)
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
        log += [dict(round=t, direction="down", client_id=int(i), kind="shared_alpha+anchors",
                     nbytes=down) for i in active]
        log += [dict(round=t, direction="up", client_id=int(i),
                     kind="alpha_proposal+anchor_proposal", nbytes=n) for i, n in zip(active, up)]
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
    H = forward(phi, data.features[data.test_idx])[0]
    logits = forward(head, forward(alpha, H)[0])[0]
    return float(np.mean(np.argmax(logits, axis=1) == data.labels[data.test_idx]))


def evaluate(clients, global_state: GlobalState):
    """Per-client test accuracy and its unweighted mean."""
    accs = {
        c.client_id: client_accuracy(c.phi, c.head, global_state.alpha, c.data) for c in clients
    }
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
    state is left untouched.
    """
    n_classes = global_state.anchors.n_classes
    if dataset.classes.min() < 0 or dataset.classes.max() >= n_classes:
        raise ValueError("dataset labels outside the anchor class range")
    rng = stream(cfg.seed, TAG_ONBOARD, dataset.client_id)
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
