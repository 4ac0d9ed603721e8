"""Drivers wiring datasets, models and training into runnable experiments."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .datagen import generate, load_clients, save_clients
from .federation import (
    TAG_INIT,
    GlobalState,
    evaluate,
    local_baseline,
    make_client,
    run_training,
)
from .anchors import init_anchors
from .nets import build_shared
from .reporting import (
    save_checkpoint,
    write_metrics,
    write_summary,
    write_theory_trace,
)
from .rng import stream
from .theory import run_theory_experiment

__all__ = ["build_federation", "load_or_generate", "run_command"]


def load_or_generate(cfg: ExperimentConfig):
    if cfg.dataset_path is not None:
        return load_clients(cfg.dataset_path)
    return generate(cfg.dataset_spec()), cfg.n_classes


def build_federation(datasets, n_classes: int, cfg: ExperimentConfig):
    """Initialize client states and the global state for a dataset."""
    total = sum(ds.n_samples for ds in datasets)
    rng_global = stream(cfg.seed, TAG_INIT, 0, 0)
    alpha = build_shared(cfg.latent_dim, rng_global)
    anchors = init_anchors(
        n_classes,
        cfg.latent_dim,
        rng_global,
        cov_learnable=cfg.cov_learnable,
        init_scale=cfg.anchor_init_scale,
    )
    clients = [
        make_client(
            ds,
            n_classes,
            latent_dim=cfg.latent_dim,
            hidden_dim=cfg.hidden_dim,
            lr=cfg.lr,
            weight=ds.n_samples / total,
            rng=stream(cfg.seed, TAG_INIT, 1, ds.client_id),
        )
        for ds in datasets
    ]
    return clients, GlobalState(alpha, anchors)


def _acc_summary(accs: dict, mean_acc: float) -> dict:
    return {
        "per_client_accuracy": {str(k): accs[k] for k in sorted(accs)},
        "mean_accuracy": mean_acc,
        "min_accuracy": min(accs.values()),
        "max_accuracy": max(accs.values()),
    }


def run_command(cfg: ExperimentConfig) -> int:
    """Dispatch on config.mode, write all outputs, return the exit code."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if cfg.mode == "theory":
        _, rows = run_theory_experiment(cfg.theory_config())
        write_theory_trace(rows, out / "trace.csv")
        write_summary(
            {
                "mode": "theory",
                "seed": cfg.seed,
                "rounds": cfg.theory_rounds,
                "final_dist": rows[-1][1],
                "final_mse": rows[-1][2],
            },
            out / "summary.json",
        )
        return 0

    datasets, n_classes = load_or_generate(cfg)
    clients, state = build_federation(datasets, n_classes, cfg)
    rc = cfg.round_config()

    if cfg.mode == "flic":
        clients, state, metrics, log = run_training(
            clients, state, rc, workers=cfg.workers
        )
        accs, mean_acc = evaluate(clients, state)
        write_metrics(metrics, out / "metrics.csv")
        log.write(out / "messages.log")
        save_checkpoint(out / "checkpoint", state, clients)
        summary = {
            "mode": "flic",
            "seed": cfg.seed,
            "rounds": cfg.rounds,
            "n_clients": len(clients),
            "messages_down": sum(1 for m in log.entries if m.direction == "down"),
            "messages_up": sum(1 for m in log.entries if m.direction == "up"),
            "bytes_down": log.total_bytes("down"),
            "bytes_up": log.total_bytes("up"),
        }
        summary.update(_acc_summary(accs, mean_acc))
        write_summary(summary, out / "summary.json")
        return 0

    # local baseline: no communication at all
    clients, accs, mean_acc = local_baseline(clients, state, rc, workers=cfg.workers)
    write_metrics([], out / "metrics.csv")
    (out / "messages.log").write_text("")
    summary = {
        "mode": "local",
        "seed": cfg.seed,
        "rounds": cfg.rounds,
        "n_clients": len(clients),
        "messages_down": 0,
        "messages_up": 0,
        "bytes_down": 0,
        "bytes_up": 0,
    }
    summary.update(_acc_summary(accs, mean_acc))
    write_summary(summary, out / "summary.json")
    return 0


def write_dataset(cfg: ExperimentConfig, out_dir) -> int:
    datasets = generate(cfg.dataset_spec())
    save_clients(
        datasets,
        out_dir,
        cfg.n_classes,
        extra={"variant": cfg.variant, "seed": cfg.seed},
    )
    sizes = np.asarray([ds.n_samples for ds in datasets])
    print(
        f"wrote {len(datasets)} clients to {out_dir} "
        f"(samples: total={sizes.sum()}, min={sizes.min()}, max={sizes.max()})"
    )
    return 0
