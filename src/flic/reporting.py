"""Metrics persistence and checkpointing.

Metrics go to CSV, one column per :class:`MetricsRecord` field, floats
with 6 significant digits. Checkpoints keep every tensor as float64 in a
single ``arrays.npz`` container (shape-prefixed by the format itself)
next to a JSON manifest describing the network structure, so a save/load
round trip is bit-exact. A checkpoint or dataset file that cannot be
parsed, or whose contents fail validation, is reported as an ``OSError``
naming the file, like a missing one.
"""

from __future__ import annotations

import csv
import json
import zipfile
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

__all__ = [
    "MetricsRecord",
    "write_metrics",
    "write_summary",
    "save_checkpoint",
    "load_checkpoint",
    "malformed_file",
    "write_theory_trace",
]


@dataclass
class MetricsRecord:
    round: int
    train_loss: float
    mean_accuracy: float
    min_accuracy: float
    max_accuracy: float
    wall_ms: float
    bytes_up: int
    bytes_down: int


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def write_metrics(records: list[MetricsRecord], path) -> None:
    rounds = [r.round for r in records]
    if any(b <= a for a, b in zip(rounds, rounds[1:])):
        raise ValueError("rounds must be strictly increasing")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(MetricsRecord)])
        for r in records:
            writer.writerow([_fmt(x) if isinstance(x, float) else x for x in astuple(r)])


def write_theory_trace(rows, path) -> None:
    """Trace rows are (round, dist, mse); floats written with full
    round-trip precision for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "dist", "mse"])
        for t, dist, mse in rows:
            writer.writerow([t, repr(float(dist)), repr(float(mse))])


def write_summary(summary: dict, path) -> None:
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True))


@contextmanager
def malformed_file(*paths):
    """Re-raise a parse or validation failure of the block as an
    ``OSError`` that names the files being read."""
    try:
        yield
    except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise OSError(f"malformed {' or '.join(map(str, paths))}: {exc!r}") from exc


def _mlp_arrays(prefix: str, mlp) -> dict[str, np.ndarray]:
    out = {}
    for i, layer in enumerate(mlp.layers):
        out[f"{prefix}.layer{i}.W"] = layer.W
        out[f"{prefix}.layer{i}.b"] = layer.b
    return out


def _mlp_meta(mlp) -> list[str]:
    return [layer.activation for layer in mlp.layers]


def _load_mlp(prefix: str, activations: list[str], arrays):
    from .nets import Layer, Mlp

    layers = []
    for i, act in enumerate(activations):
        layers.append(
            Layer(
                np.asarray(arrays[f"{prefix}.layer{i}.W"], dtype=float),
                np.asarray(arrays[f"{prefix}.layer{i}.b"], dtype=float),
                act,
            )
        )
    return Mlp(layers)


def save_checkpoint(out_dir, global_state, clients) -> None:
    """Persist the shared layer, anchors and all per-client models."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    arrays.update(_mlp_arrays("alpha", global_state.alpha))
    arrays["anchors.means"] = global_state.anchors.means
    arrays["anchors.factors"] = global_state.anchors.factors
    meta = {
        "round": int(global_state.round),
        "alpha_activations": _mlp_meta(global_state.alpha),
        "cov_learnable": bool(global_state.anchors.cov_learnable),
        "clients": [],
    }
    for c in clients:
        arrays.update(_mlp_arrays(f"client{c.client_id}.phi", c.phi))
        arrays.update(_mlp_arrays(f"client{c.client_id}.head", c.head))
        meta["clients"].append(
            {
                "id": int(c.client_id),
                "phi_activations": _mlp_meta(c.phi),
                "head_activations": _mlp_meta(c.head),
                "classes": [int(x) for x in c.data.classes],
                "weight": float(c.weight),
            }
        )
    np.savez(root / "arrays.npz", **{k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()})
    (root / "meta.json").write_text(json.dumps(meta, indent=2))


def load_checkpoint(ckpt_dir):
    """Rebuild (GlobalState, {client_id: (phi, head, classes, weight)})."""
    from .anchors import AnchorSet
    from .federation import GlobalState

    root = Path(ckpt_dir)
    with malformed_file(root / "meta.json"):
        meta = json.loads((root / "meta.json").read_text())
    with malformed_file(root / "arrays.npz", root / "meta.json"), \
            np.load(root / "arrays.npz") as arrays:
        alpha = _load_mlp("alpha", meta["alpha_activations"], arrays)
        anchors = AnchorSet(
            np.asarray(arrays["anchors.means"], dtype=float),
            np.asarray(arrays["anchors.factors"], dtype=float),
            meta["cov_learnable"],
        )
        clients = {}
        for entry in meta["clients"]:
            cid = entry["id"]
            phi = _load_mlp(f"client{cid}.phi", entry["phi_activations"], arrays)
            head = _load_mlp(f"client{cid}.head", entry["head_activations"], arrays)
            clients[cid] = (phi, head, entry["classes"], entry["weight"])
    return GlobalState(alpha, anchors, meta["round"]), clients
