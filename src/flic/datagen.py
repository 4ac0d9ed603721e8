"""Synthetic multi-client benchmarks with heterogeneous feature spaces.

Two 20-class toy variants built from class-conditional Gaussians in a
small base space:

* ``nf`` (noisy features): every client sees the informative base
  coordinates plus its own random count of pure-noise dimensions.
* ``lm`` (linear mapping): every client sees its own random linear image
  of the base space, with a client-specific output dimension.

Each class pool is shared evenly among the clients holding that class,
clients are randomly subsampled to create size imbalance, and every
client gets a stratified train/test split. Generation is a pure
function of the spec (seed included).

``flic datagen`` writes a dataset directory with :func:`save_clients`:
one ``arrays.npz`` holding ``client<id>.features``, ``.labels``,
``.classes``, ``.train_idx`` and ``.test_idx`` for every client, dtypes
kept, and a ``manifest.json`` listing the client ids and the class
count. It is the layout of a checkpoint (:mod:`flic.reporting`), and
:func:`load_clients` reads it back exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .reporting import malformed_file
from .rng import stream

__all__ = [
    "PoolTooSmallError",
    "ToyDatasetSpec",
    "ClientDataset",
    "generate",
    "partition_clients",
    "save_clients",
    "load_clients",
]

_TAG_MEANS = 11
_TAG_BASE = 12
_TAG_PARTITION = 13
_TAG_CLIENT = 14

# The per-client arrays of a dataset directory, in ``ClientDataset`` order.
CLIENT_ARRAYS = ("features", "labels", "classes", "train_idx", "test_idx")


class PoolTooSmallError(ValueError):
    """A class pool has fewer samples than the clients holding the class,
    or a client keeps too few rows for a training and a test row.

    The holder counts are drawn at random, so the spec cannot be checked
    for this before the partition is drawn."""


@dataclass(frozen=True)
class ToyDatasetSpec:
    variant: str = "lm"
    n_classes: int = 20
    samples_per_class: int = 2000
    base_dim: int = 5
    clients: int = 100
    classes_per_client: int = 3
    noise_dim_min: int = 1  # nf: a client's noise columns, drawn from [min, max]
    noise_dim_max: int = 10
    map_dim_min: int = 5  # lm: a client's mapped dimension, drawn from [min, max]
    map_dim_max: int = 50
    imbalance_min: float = 0.1  # a client's kept fraction, drawn from [min, max]
    imbalance_max: float = 1.0
    mean_scale: float = 2.0
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.variant not in ("nf", "lm"):
            raise ValueError(f"variant must be 'nf' or 'lm', got {self.variant!r}")
        for name in ("samples_per_class", "base_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 1 <= self.classes_per_client <= self.n_classes:
            raise ValueError("classes_per_client must lie in [1, n_classes]")
        if self.clients * self.classes_per_client < self.n_classes:
            raise ValueError("clients * classes_per_client must be >= n_classes")
        if not 0 <= self.noise_dim_min <= self.noise_dim_max:
            raise ValueError("noise_dim_min must lie in [0, noise_dim_max]")
        if not 1 <= self.map_dim_min <= self.map_dim_max:
            raise ValueError("map_dim_min must lie in [1, map_dim_max]")
        if not 0 < self.imbalance_min <= self.imbalance_max:
            raise ValueError("imbalance_min must lie in (0, imbalance_max]")
        if self.imbalance_max > 1:
            raise ValueError("imbalance_max must be <= 1")
        if not 0 < self.test_fraction < 1:
            raise ValueError("test_fraction must lie in (0, 1)")


@dataclass
class ClientDataset:
    client_id: int
    features: np.ndarray
    labels: np.ndarray
    classes: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        self.classes = np.asarray(sorted(set(np.asarray(self.classes).tolist())), dtype=int)
        self.train_idx = np.asarray(self.train_idx, dtype=int)
        self.test_idx = np.asarray(self.test_idx, dtype=int)
        for name in ("classes", "train_idx", "test_idx"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"client {self.client_id} has no {name}")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if not set(self.labels.tolist()) <= set(self.classes.tolist()):
            raise ValueError("labels outside the declared class set")
        for name in ("train_idx", "test_idx"):
            idx = getattr(self, name)
            if np.any((idx < 0) | (idx >= self.n_samples)):
                raise ValueError(f"{name} outside [0, {self.n_samples})")
        if set(self.train_idx.tolist()) & set(self.test_idx.tolist()):
            raise ValueError("train/test splits overlap")
        untrained = set(self.classes.tolist()) - set(self.labels[self.train_idx].tolist())
        if untrained:
            raise ValueError(f"classes {sorted(untrained)} have no training row")

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]


def _assign_classes(spec: ToyDatasetSpec, rng) -> list[np.ndarray]:
    """Give each client `classes_per_client` distinct classes, guaranteeing
    every class at least one holder."""
    assignment = [
        np.sort(rng.choice(spec.n_classes, size=spec.classes_per_client, replace=False))
        for _ in range(spec.clients)
    ]
    counts = np.zeros(spec.n_classes, dtype=int)
    for cls in assignment:
        counts[cls] += 1
    for c in range(spec.n_classes):
        if counts[c] > 0:
            continue
        # steal a slot from a client whose classes all have other holders
        order = rng.permutation(spec.clients)
        placed = False
        for j in order:
            cand = [x for x in assignment[j] if counts[x] > 1]
            if not cand:
                continue
            drop = cand[int(np.argmax([counts[x] for x in cand]))]
            cls = assignment[j].tolist()
            cls.remove(drop)
            cls.append(c)
            assignment[j] = np.sort(np.asarray(cls))
            counts[drop] -= 1
            counts[c] += 1
            placed = True
            break
        if not placed:
            raise ValueError("could not cover every class with a holder")
    return assignment


def partition_clients(pools: dict[int, np.ndarray], spec: ToyDatasetSpec, rng):
    """Distribute per-class sample pools to clients.

    Every class pool is split evenly among its holders, each client then
    keeps a random fraction (drawn from the imbalance range) of every
    class slice, and the kept samples get a stratified train/test split.
    Assignments are disjoint across clients.

    Returns a list (one entry per client) of dicts
    ``{"ids": {class: sample ids}, "train": {class: ids}, "test": {class: ids}}``.
    """
    for c in range(spec.n_classes):
        if c not in pools or len(pools[c]) == 0:
            raise ValueError(f"class {c} has an empty pool")
    assignment = _assign_classes(spec, rng)
    holders: dict[int, list[int]] = {c: [] for c in range(spec.n_classes)}
    for i, cls in enumerate(assignment):
        for c in cls:
            holders[int(c)].append(i)

    shares: list[dict[int, np.ndarray]] = [dict() for _ in range(spec.clients)]
    for c in range(spec.n_classes):
        if not holders[c]:
            raise ValueError(f"class {c} has zero holders")
        if len(pools[c]) < len(holders[c]):
            raise PoolTooSmallError(
                f"class {c} pool of {len(pools[c])} samples is smaller than "
                f"its {len(holders[c])} holders"
            )
        pool = rng.permutation(np.asarray(pools[c]))
        for i, chunk in zip(holders[c], np.array_split(pool, len(holders[c]))):
            shares[i][c] = chunk

    out = []
    for i in range(spec.clients):
        frac = rng.uniform(spec.imbalance_min, spec.imbalance_max)
        kept: dict[int, np.ndarray] = {}
        train: dict[int, np.ndarray] = {}
        test: dict[int, np.ndarray] = {}
        for c in sorted(shares[i]):
            chunk = shares[i][c]
            n_keep = int(round(frac * len(chunk)))
            n_keep = min(len(chunk), max(2, n_keep)) if len(chunk) >= 2 else len(chunk)
            ids = rng.permutation(chunk)[:n_keep]
            kept[c] = np.sort(ids)
            shuffled = rng.permutation(kept[c])
            n_test = int(np.floor(spec.test_fraction * len(shuffled)))
            if n_test == 0 and len(shuffled) >= 2:
                n_test = 1
            test[c] = shuffled[:n_test]
            train[c] = shuffled[n_test:]
        out.append({"ids": kept, "train": train, "test": test})
    return out


def generate(spec: ToyDatasetSpec) -> list[ClientDataset]:
    """Draw the class pools in the base space, share them among the
    clients, and give each client its own feature space.

    Class means are ``mean_scale`` times standard normals. In ``lm`` each
    class also gets a random diagonal covariance, and a client sees
    ``rows @ M`` for its own standard-normal ``M`` of ``base_dim`` rows and
    a dimension drawn from ``[map_dim_min, map_dim_max]``. In ``nf``
    classes have unit covariance, and a client sees its rows followed by a
    count, drawn from ``[noise_dim_min, noise_dim_max]``, of
    standard-normal noise columns. Raises :class:`PoolTooSmallError` when
    a class pool or a client's kept rows are too small.
    """
    rng_means = stream(spec.seed, _TAG_MEANS)
    shape = (spec.n_classes, spec.base_dim)
    means = spec.mean_scale * rng_means.standard_normal(shape)
    if spec.variant == "lm":
        scales = np.sqrt(rng_means.uniform(0.5, 2.0, size=shape))
    else:
        scales = np.ones(shape)
    n = spec.samples_per_class
    rng_base = stream(spec.seed, _TAG_BASE)
    base = np.concatenate(
        [means[c] + rng_base.standard_normal((n, spec.base_dim)) * scales[c]
         for c in range(spec.n_classes)]
    )
    labels = np.repeat(np.arange(spec.n_classes), n)
    pools = {c: np.arange(c * n, (c + 1) * n) for c in range(spec.n_classes)}
    parts = partition_clients(pools, spec, stream(spec.seed, _TAG_PARTITION))

    datasets = []
    for i, part in enumerate(parts):
        classes = sorted(part["ids"])
        # Pools are consecutive id ranges in class order, so ``ids`` is
        # sorted and a sample's row is its position in ``ids``.
        ids = np.concatenate([part["ids"][c] for c in classes])
        rng = stream(spec.seed, _TAG_CLIENT, i)
        if spec.variant == "lm":
            out_dim = int(rng.integers(spec.map_dim_min, spec.map_dim_max + 1))
            feats = base[ids] @ rng.standard_normal((spec.base_dim, out_dim))
        else:
            extra = int(rng.integers(spec.noise_dim_min, spec.noise_dim_max + 1))
            feats = np.hstack([base[ids], rng.standard_normal((len(ids), extra))])
        train = np.searchsorted(ids, np.concatenate([part["train"][c] for c in classes]))
        test = np.searchsorted(ids, np.concatenate([part["test"][c] for c in classes]))
        if not (len(train) and len(test)):
            raise PoolTooSmallError(
                f"client {i} keeps too few rows ({len(ids)}) for a training and a test row"
            )
        datasets.append(ClientDataset(i, feats, labels[ids], classes, train, test))
    return datasets


def save_clients(datasets: list[ClientDataset], out_dir, n_classes: int, extra=None):
    """Write a dataset directory: ``arrays.npz`` holds every client's
    arrays as ``client<id>.<name>`` for the names in ``CLIENT_ARRAYS``,
    dtypes kept, and ``manifest.json`` lists the client ids and the class
    count, plus any ``extra`` entries."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    arrays = {
        f"client{ds.client_id}.{name}": getattr(ds, name)
        for ds in datasets
        for name in CLIENT_ARRAYS
    }
    np.savez(out / "arrays.npz", **arrays)
    manifest = {"clients": [int(ds.client_id) for ds in datasets], "n_classes": int(n_classes)}
    manifest.update(extra or {})
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_clients(data_dir) -> tuple[list[ClientDataset], int]:
    root = Path(data_dir)
    with malformed_file(root / "manifest.json"):
        manifest = json.loads((root / "manifest.json").read_text())
        ids, n_classes = list(manifest["clients"]), int(manifest["n_classes"])
    with malformed_file(root / "arrays.npz", root / "manifest.json"), \
            np.load(root / "arrays.npz") as arrays:
        datasets = [
            ClientDataset(cid, *(arrays[f"client{cid}.{name}"] for name in CLIENT_ARRAYS))
            for cid in ids
        ]
        for ds in datasets:
            if np.any((ds.classes < 0) | (ds.classes >= n_classes)):
                raise ValueError(f"client {ds.client_id} classes outside [0, {n_classes})")
    return datasets, n_classes
