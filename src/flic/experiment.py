"""Drivers wiring datasets, models and training into runnable experiments."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig
from .datagen import PoolTooSmallError, generate, load_clients, save_clients
from .federation import (
    TAG_INIT,
    GlobalState,
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


def _generate(cfg: ExperimentConfig):
    try:
        return generate(cfg.data)
    except PoolTooSmallError as exc:
        raise ConfigError(f"samples_per_class: {exc}") from exc


def load_or_generate(cfg: ExperimentConfig):
    if cfg.dataset_path is not None:
        return load_clients(cfg.dataset_path)
    return _generate(cfg), cfg.data.n_classes


def build_federation(datasets, n_classes: int, cfg: ExperimentConfig):
    """Initialize client states and the global state for a dataset."""
    rng_global = stream(cfg.seed, TAG_INIT, 0, 0)
    alpha = build_shared(cfg.latent_dim, rng_global)
    anchors = init_anchors(n_classes, cfg.latent_dim, rng_global, cov_learnable=cfg.cov_learnable)
    clients = [
        make_client(
            ds,
            n_classes,
            latent_dim=cfg.latent_dim,
            hidden_dim=cfg.hidden_dim,
            rng=stream(cfg.seed, TAG_INIT, 1, ds.client_id),
        )
        for ds in datasets
    ]
    return clients, GlobalState(alpha, anchors)


def run_command(cfg: ExperimentConfig) -> int:
    """Dispatch on config.mode, write all outputs, return the exit code."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if cfg.mode == "theory":
        _, rows = run_theory_experiment(cfg.theory)
        write_theory_trace(rows, out / "trace.csv")
        write_summary(
            {
                "mode": "theory",
                "seed": cfg.seed,
                "rounds": cfg.theory.rounds,
                "final_dist": rows[-1][1],
                "final_mse": rows[-1][2],
            },
            out / "summary.json",
        )
        return 0

    datasets, n_classes = load_or_generate(cfg)
    clients, state = build_federation(datasets, n_classes, cfg)
    if cfg.mode == "flic":
        clients, state, metrics, log, accs = run_training(clients, state, cfg.training)
        save_checkpoint(out / "checkpoint", state, clients)
    else:  # local baseline: no communication, so no rounds to report
        accs = local_baseline(clients, state, cfg.training)
        metrics, log = [], []
    accs = dict(sorted(accs.items()))
    write_metrics(metrics, out / "metrics.csv")
    with open(out / "messages.log", "w") as fh:
        fh.writelines(json.dumps(m) + "\n" for m in log)
    summary = {
        "mode": cfg.mode,
        "seed": cfg.seed,
        "rounds": cfg.training.rounds,
        "n_clients": len(clients),
        "per_client_accuracy": {str(k): a for k, a in accs.items()},
        "mean_accuracy": float(np.mean(list(accs.values()))),
        "min_accuracy": min(accs.values()),
        "max_accuracy": max(accs.values()),
    }
    for direction in ("down", "up"):
        sizes = [m["nbytes"] for m in log if m["direction"] == direction]
        summary[f"messages_{direction}"], summary[f"bytes_{direction}"] = len(sizes), sum(sizes)
    write_summary(summary, out / "summary.json")
    return 0


def write_dataset(cfg: ExperimentConfig) -> int:
    """Generate the config's toy dataset and save it to ``cfg.out_dir``."""
    datasets = _generate(cfg)
    save_clients(
        datasets,
        cfg.out_dir,
        cfg.data.n_classes,
        extra={"variant": cfg.data.variant, "seed": cfg.seed},
    )
    sizes = np.asarray([ds.n_samples for ds in datasets])
    print(
        f"wrote {len(datasets)} clients to {cfg.out_dir} "
        f"(samples: total={sizes.sum()}, min={sizes.min()}, max={sizes.max()})"
    )
    return 0
