"""Federated training protocol with latent anchor alignment.

One communication round: the server samples an active client subset,
broadcasts the shared representation layer and the anchor set; each
active client runs M Adam steps on its private embedding and head
(data loss, plus the W2 alignment penalty on the embedding and the
anchor-sample classification penalty on the head), then takes a single
plain gradient step each on its copy of the shared layer and on the
anchors it holds; the server averages the uploaded proposals. Clients
never upload features or labels — the simulated message log records
exactly what crosses the boundary.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .anchors import AnchorSet, barycenter_average, local_anchor_update, sample_anchor
from .datagen import ClientDataset
from .gaussian import BuresGradientError, empirical_gaussian
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
    "Message",
    "MessageLog",
    "DivergenceError",
    "select_active_clients",
    "client_local_round",
    "aggregate_alpha",
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


def _objective(client_id, round_idx, step, *args):
    """``local_objective_grads(*args)``; a divergence raises DivergenceError."""
    try:
        out = local_objective_grads(*args)
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
    lam1: float = 0.001
    lam2: float = 0.001
    anchor_samples: int = 100
    eps: float = 1e-6
    seed: int = 0
    alpha_epoch: bool = False  # step alpha once per local step instead of once
    final_local_rounds: int = 0  # extra all-client local rounds before evaluation

    def __post_init__(self):
        if not 0 < self.participation <= 1:
            raise ValueError("participation must lie in (0, 1]")
        if self.rounds < 0 or self.local_steps < 1 or self.anchor_samples < 1:
            raise ValueError("rounds >= 0, local_steps >= 1, anchor_samples >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lam1 < 0 or self.lam2 < 0:
            raise ValueError("regularization weights must be nonnegative")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.lr < 0:
            raise ValueError("learning rate must be nonnegative")


@dataclass
class ClientState:
    client_id: int
    data: ClientDataset
    classes: np.ndarray
    phi: Mlp
    head: Mlp
    phi_opt: AdamState
    head_opt: AdamState
    weight: float

    def copy(self) -> "ClientState":
        return ClientState(
            client_id=self.client_id,
            data=self.data,
            classes=self.classes.copy(),
            phi=self.phi.copy(),
            head=self.head.copy(),
            phi_opt=self.phi_opt.copy(),
            head_opt=self.head_opt.copy(),
            weight=self.weight,
        )


@dataclass
class GlobalState:
    alpha: Mlp
    anchors: AnchorSet
    round: int = 0

    def copy(self) -> "GlobalState":
        return GlobalState(self.alpha.copy(), self.anchors.copy(), self.round)


@dataclass
class Message:
    round: int
    direction: str  # "down" | "up"
    client_id: int
    kind: str
    nbytes: int


@dataclass
class MessageLog:
    entries: list[Message] = field(default_factory=list)

    def append(self, round_idx, direction, client_id, kind, nbytes):
        self.entries.append(Message(round_idx, direction, client_id, kind, nbytes))

    def for_round(self, round_idx: int) -> list[Message]:
        return [m for m in self.entries if m.round == round_idx]

    def total_bytes(self, direction: str) -> int:
        return sum(m.nbytes for m in self.entries if m.direction == direction)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for m in self.entries:
                fh.write(json.dumps(vars(m)) + "\n")


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
        classes=dataset.classes.copy(),
        phi=phi,
        head=head,
        phi_opt=AdamState.for_params(phi.params(), lr),
        head_opt=AdamState.for_params(head.params(), lr),
        weight=weight,
    )


def select_active_clients(b: int, rate: float, rng) -> np.ndarray:
    """Uniform subset of size max(1, floor(rate*b)), sorted, no replacement."""
    if b < 1:
        raise ValueError("need at least one client")
    size = max(1, int(np.floor(rate * b)))
    return np.sort(rng.choice(b, size=size, replace=False))


def local_objective_grads(phi, alpha, head, X, y, anchors, lam1, lam2, eps, z_by_class):
    """Per-client objective on a fixed batch and its exact gradients.

    objective = mean data cross-entropy
              + lam1 * sum_c W2^2(anchor_c, embedded class batch)
              + lam2 * sum_c mean_j CE(c, head(alpha(Z_c[j])))

    ``z_by_class`` maps a class to its fixed anchor samples (the noise
    draws are not needed here). Returns ``(parts, g_phi, g_alpha,
    g_head, z_input_grads)`` where ``parts`` is a dict of the three loss
    components and ``z_input_grads[c]`` is the gradient with respect to
    the anchor samples of class c (used for anchor updates).
    """
    H, cache_phi = forward(phi, X)
    R, cache_alpha = forward(alpha, H)
    logits, cache_head = forward(head, R)
    data_loss, dlogits = cross_entropy(logits, y)
    g_head, dR = backward(head, cache_head, dlogits)
    g_alpha, dH = backward(alpha, cache_alpha, dR)

    align_loss = 0.0
    if lam1 > 0:
        slices = {int(c): H[y == c] for c in np.unique(y)}
        align_loss, align_grads = alignment_loss_grad(slices, anchors, eps)
        dH_align = np.zeros_like(H)
        for c, g in align_grads.items():
            dH_align[y == c] = g
        dH = dH + lam1 * dH_align
    g_phi, _ = backward(phi, cache_phi, dH)

    anchor_loss = 0.0
    z_input_grads = {}
    if lam2 > 0 and z_by_class:
        for c in sorted(z_by_class):
            Z = z_by_class[c]
            Rz, cache_az = forward(alpha, Z)
            logits_z, cache_hz = forward(head, Rz)
            loss_z, dlz = cross_entropy(logits_z, np.full(Z.shape[0], c, dtype=int))
            anchor_loss += loss_z
            gh_z, dRz = backward(head, cache_hz, dlz)
            ga_z, dZ = backward(alpha, cache_az, dRz)
            z_input_grads[c] = dZ
            for i in range(len(g_head)):
                g_head[i] = g_head[i] + lam2 * gh_z[i]
            for i in range(len(g_alpha)):
                g_alpha[i] = g_alpha[i] + lam2 * ga_z[i]

    parts = {
        "data": data_loss,
        "align": align_loss,
        "anchor": anchor_loss,
        "total": data_loss + lam1 * align_loss + lam2 * anchor_loss,
    }
    return parts, g_phi, g_alpha, g_head, z_input_grads


@dataclass
class RoundResult:
    client: ClientState
    alpha_proposal: Mlp
    anchor_proposal: AnchorSet
    train_loss: float


def _draw_batch(rng, train_idx, batch_size):
    size = min(batch_size, len(train_idx))
    return rng.choice(train_idx, size=size, replace=False)


def _sample_z(anchors, classes, count, rng):
    out = {}
    for c in classes:
        Z, xi = sample_anchor(anchors, int(c), count, rng, return_noise=True)
        out[int(c)] = (Z, xi)
    return out


def _local_steps(phi, head, phi_opt, head_opt, data, alpha, anchors, cfg, rng,
                 round_idx, client_id):
    """M Adam steps on (phi, head); mutates the passed copies in place."""
    X_all, y_all = data.features, data.labels
    losses = []
    for m in range(cfg.local_steps):
        batch = _draw_batch(rng, data.train_idx, cfg.batch_size)
        Xb, yb = X_all[batch], y_all[batch]
        z = None
        if cfg.lam2 > 0:
            present = np.unique(yb)
            z = {c: Zxi[0] for c, Zxi in _sample_z(anchors, present, cfg.anchor_samples, rng).items()}
        parts, g_phi, _, g_head, _ = _objective(
            client_id, round_idx, m,
            phi, alpha, head, Xb, yb, anchors, cfg.lam1, cfg.lam2, cfg.eps, z,
        )
        phi.set_params(adam_step(phi_opt, phi.params(), g_phi))
        head.set_params(adam_step(head_opt, head.params(), g_head))
        losses.append(parts["total"])
    return losses


def client_local_round(
    client: ClientState,
    global_state: GlobalState,
    cfg: RoundConfig,
    round_idx: int,
    rng=None,
) -> RoundResult:
    """One client's work for one round; inputs are never mutated.

    M local steps update (phi, head) by Adam; then a single plain
    gradient step on a copy of the shared layer and on the anchors of
    the client's classes, all evaluated at the final local parameters
    on a fresh batch.
    """
    if len(client.classes) == 0:
        raise ValueError(f"client {client.client_id} holds no classes")
    if rng is None:
        rng = stream(cfg.seed, TAG_ROUND, round_idx, client.client_id)
    data = client.data
    X_all, y_all = data.features, data.labels
    phi, head = client.phi.copy(), client.head.copy()
    phi_opt, head_opt = client.phi_opt.copy(), client.head_opt.copy()
    alpha = global_state.alpha
    anchors = global_state.anchors

    losses = _local_steps(
        phi, head, phi_opt, head_opt, data, alpha, anchors, cfg, rng,
        round_idx, client.client_id,
    )

    # Global-parameter phase: fresh batch, anchor samples for every held
    # class, single plain gradient steps.
    batch = _draw_batch(rng, data.train_idx, cfg.batch_size)
    Xb, yb = X_all[batch], y_all[batch]
    z_full = None
    z_for_loss = None
    if cfg.lam2 > 0:
        z_full = _sample_z(anchors, client.classes, cfg.anchor_samples, rng)
        z_for_loss = {c: Zxi[0] for c, Zxi in z_full.items()}
    _, _, g_alpha, _, z_grads = _objective(
        client.client_id, round_idx, cfg.local_steps,
        phi, alpha, head, Xb, yb, anchors, cfg.lam1, cfg.lam2, cfg.eps, z_for_loss,
    )
    alpha_prop = alpha.copy()
    alpha_prop.set_params(
        [p - cfg.lr * g for p, g in zip(alpha_prop.params(), g_alpha)]
    )
    if cfg.alpha_epoch:
        for _ in range(cfg.local_steps - 1):
            batch = _draw_batch(rng, data.train_idx, cfg.batch_size)
            _, _, g_alpha, _, _ = local_objective_grads(
                phi, alpha_prop, head, X_all[batch], y_all[batch],
                anchors, cfg.lam1, cfg.lam2, cfg.eps, z_for_loss,
            )
            alpha_prop.set_params(
                [p - cfg.lr * g for p, g in zip(alpha_prop.params(), g_alpha)]
            )

    if cfg.lam1 > 0 or cfg.lam2 > 0:
        H_train = forward(phi, X_all[data.train_idx])[0]
        y_train = y_all[data.train_idx]
        emp = {
            int(c): empirical_gaussian(H_train[y_train == c], cfg.eps)
            for c in client.classes
        }
        class_grads = None
        if cfg.lam2 > 0:
            class_grads = {}
            for c in sorted(z_grads):
                dZ = z_grads[c]
                xi = z_full[c][1]
                class_grads[c] = (dZ.sum(axis=0), dZ.T @ xi)
        try:
            anchor_prop = local_anchor_update(
                anchors, emp, class_grads, cfg.lr, cfg.lam1, cfg.lam2
            )
        except BuresGradientError as exc:
            raise DivergenceError(
                client.client_id, round_idx, cfg.local_steps, "align", str(exc)
            ) from exc
    else:
        anchor_prop = anchors.copy()

    new_client = ClientState(
        client_id=client.client_id,
        data=client.data,
        classes=client.classes.copy(),
        phi=phi,
        head=head,
        phi_opt=phi_opt,
        head_opt=head_opt,
        weight=client.weight,
    )
    return RoundResult(new_client, alpha_prop, anchor_prop, float(np.mean(losses)))


def aggregate_alpha(proposals: list[Mlp], weights, total_clients: int) -> Mlp:
    """Weighted average of shared-layer proposals with the b/|A| factor."""
    if not proposals:
        raise ValueError("no proposals to aggregate")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(proposals),):
        raise ValueError("one weight per proposal required")
    ref = proposals[0]
    shapes = [p.shape for p in ref.params()]
    for prop in proposals[1:]:
        if [p.shape for p in prop.params()] != shapes:
            raise ValueError("proposal shapes differ")
    scale = total_clients / len(proposals)
    out = ref.copy()
    new_params = []
    for idx in range(len(shapes)):
        acc = weights[0] * proposals[0].params()[idx]
        for w, prop in zip(weights[1:], proposals[1:]):
            acc = acc + w * prop.params()[idx]
        new_params.append(scale * acc)
    out.set_params(new_params)
    return out


def _down_bytes(global_state: GlobalState) -> int:
    return global_state.alpha.nbytes() + _anchor_bytes(global_state.anchors)


def _anchor_bytes(anchors: AnchorSet) -> int:
    n = anchors.means.nbytes
    if anchors.cov_learnable:
        n += anchors.factors.nbytes
    return n


def _run_round_clients(clients, active, global_state, cfg, round_idx, workers):
    def work(i):
        return client_local_round(clients[i], global_state, cfg, round_idx)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(work, i) for i in active}
            return {i: futures[i].result() for i in active}
    return {i: work(i) for i in active}


def _local_fit(client, global_state, cfg, rounds, tag):
    """Rounds of local (phi, head) steps only; shared state frozen."""
    out = client.copy()
    for r in range(rounds):
        rng = stream(cfg.seed, tag, r, client.client_id)
        _local_steps(
            out.phi, out.head, out.phi_opt, out.head_opt, out.data,
            global_state.alpha, global_state.anchors, cfg, rng, r, out.client_id,
        )
    return out


def run_training(clients, global_state, cfg: RoundConfig, workers: int = 1):
    """Full training loop.

    Returns ``(clients, global_state, metrics, log)`` where metrics is a
    list of per-round :class:`flic.reporting.MetricsRecord`. Input
    states are not mutated; inactive clients' states pass through
    untouched each round.
    """
    if not clients:
        raise ValueError("need at least one client")
    clients = list(clients)
    b = len(clients)
    log = MessageLog()
    metrics = []
    state = global_state
    for t in range(cfg.rounds):
        t0 = time.perf_counter()
        active = select_active_clients(b, cfg.participation, stream(cfg.seed, TAG_SELECT, t))
        down = _down_bytes(state)
        for i in active:
            log.append(t, "down", int(i), "shared_alpha+anchors", down)
        results = _run_round_clients(clients, active, state, cfg, t, workers)
        proposals, anchor_props, weights = [], [], []
        up_total = 0
        for i in sorted(results):
            r = results[i]
            up = r.alpha_proposal.nbytes() + _anchor_bytes(r.anchor_proposal)
            log.append(t, "up", int(i), "alpha_proposal+anchor_proposal", up)
            up_total += up
            clients[i] = r.client
            proposals.append(r.alpha_proposal)
            anchor_props.append(r.anchor_proposal)
            weights.append(clients[i].weight)
        alpha_new = aggregate_alpha(proposals, weights, b)
        anchors_new = barycenter_average(anchor_props, weights, b)
        state = GlobalState(alpha_new, anchors_new, t + 1)
        train_loss = float(np.mean([results[i].train_loss for i in sorted(results)]))
        accs, mean_acc = evaluate(clients, state)
        wall_ms = (time.perf_counter() - t0) * 1e3
        metrics.append(
            MetricsRecord(
                round=t,
                train_loss=train_loss,
                mean_accuracy=mean_acc,
                min_accuracy=min(accs.values()),
                max_accuracy=max(accs.values()),
                wall_ms=wall_ms,
                bytes_up=up_total,
                bytes_down=down * len(active),
            )
        )
    if cfg.final_local_rounds > 0:
        def fit(i):
            return _local_fit(clients[i], state, cfg, cfg.final_local_rounds, TAG_FINAL)

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = {i: pool.submit(fit, i) for i in range(b)}
                for i in range(b):
                    clients[i] = futures[i].result()
        else:
            for i in range(b):
                clients[i] = fit(i)
    return clients, state, metrics, log


def client_accuracy(client: ClientState, alpha: Mlp) -> float:
    data = client.data
    if len(data.test_idx) == 0:
        raise ValueError(f"client {client.client_id} has no test data")
    X = data.features[data.test_idx]
    y = data.labels[data.test_idx]
    H = forward(client.phi, X)[0]
    R = forward(alpha, H)[0]
    logits = forward(client.head, R)[0]
    return float(np.mean(np.argmax(logits, axis=1) == y))


def evaluate(clients, global_state: GlobalState):
    """Per-client test accuracy and its unweighted mean."""
    accs = {c.client_id: client_accuracy(c, global_state.alpha) for c in clients}
    return accs, float(np.mean(list(accs.values())))


def local_baseline(clients, global_template: GlobalState, cfg: RoundConfig, workers: int = 1):
    """Isolated per-client training with the same round structure and step
    budget as the federated run, but no communication and no alignment.

    Each client trains (phi, head) and its own private copy of the
    shared layer. Returns ``(clients, per_client_accuracy, mean)``.
    """
    cfg0 = replace(cfg, lam1=0.0, lam2=0.0)

    def work(client):
        state = GlobalState(global_template.alpha.copy(), global_template.anchors.copy())
        out = client
        for t in range(cfg.rounds):
            r = client_local_round(out, state, cfg0, t)
            out = r.client
            state = GlobalState(r.alpha_proposal, r.anchor_proposal, t + 1)
        if cfg.final_local_rounds > 0:
            out = _local_fit(out, state, cfg0, cfg.final_local_rounds, TAG_FINAL)
        return out, client_accuracy(out, state.alpha)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(work, c) for c in clients]
            results = [f.result() for f in futures]
    else:
        results = [work(c) for c in clients]
    out_clients = [r[0] for r in results]
    accs = {c.client_id: acc for c, (_, acc) in zip(clients, results)}
    return out_clients, accs, float(np.mean(list(accs.values())))


def onboard_new_client(
    dataset: ClientDataset,
    global_state: GlobalState,
    cfg: RoundConfig,
    hidden_dim: int = 64,
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
