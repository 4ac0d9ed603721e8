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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import stream

__all__ = [
    "ToyDatasetSpec",
    "ClientDataset",
    "gen_toy_nf",
    "gen_toy_lm",
    "partition_clients",
    "save_clients",
    "load_clients",
]

_TAG_MEANS = 11
_TAG_BASE = 12
_TAG_PARTITION = 13
_TAG_CLIENT = 14


@dataclass(frozen=True)
class ToyDatasetSpec:
    variant: str = "lm"
    n_classes: int = 20
    samples_per_class: int = 2000
    base_dim: int = 5
    clients: int = 100
    classes_per_client: int = 3
    noise_dim_range: tuple[int, int] = (1, 10)
    map_dim_range: tuple[int, int] = (5, 50)
    imbalance_range: tuple[float, float] = (0.1, 1.0)
    mean_scale: float = 2.0
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.variant not in ("nf", "lm"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 1 <= self.classes_per_client <= self.n_classes:
            raise ValueError("classes_per_client must lie in [1, n_classes]")
        if self.clients * self.classes_per_client < self.n_classes:
            raise ValueError("clients * classes_per_client must be >= n_classes")
        if self.noise_dim_range[0] < 0 or self.noise_dim_range[0] > self.noise_dim_range[1]:
            raise ValueError("invalid noise_dim_range")
        if self.map_dim_range[0] < 1 or self.map_dim_range[0] > self.map_dim_range[1]:
            raise ValueError("invalid map_dim_range")
        lo, hi = self.imbalance_range
        if not (0 < lo <= hi <= 1):
            raise ValueError("imbalance_range must satisfy 0 < lo <= hi <= 1")
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
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if not set(self.labels.tolist()) <= set(self.classes.tolist()):
            raise ValueError("labels outside the declared class set")
        if set(self.train_idx.tolist()) & set(self.test_idx.tolist()):
            raise ValueError("train/test splits overlap")

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
        pool = rng.permutation(np.asarray(pools[c]))
        chunks = np.array_split(pool, len(holders[c]))
        for i, chunk in zip(holders[c], chunks):
            if len(chunk) == 0:
                raise ValueError(f"class {c} pool too small for its holders")
            shares[i][c] = chunk

    out = []
    lo, hi = spec.imbalance_range
    for i in range(spec.clients):
        frac = rng.uniform(lo, hi)
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


def _materialize(parts, base: np.ndarray, labels: np.ndarray, transform, spec):
    """Turn id partitions into ClientDatasets, applying a per-client feature
    transform ``transform(client_id, rows) -> array``."""
    datasets = []
    for i, part in enumerate(parts):
        ids = np.concatenate([part["ids"][c] for c in sorted(part["ids"])])
        feats = transform(i, base[ids])
        labs = labels[ids]
        pos = {int(g): j for j, g in enumerate(ids)}
        train = np.asarray(
            [pos[int(g)] for c in sorted(part["train"]) for g in part["train"][c]],
            dtype=int,
        )
        test = np.asarray(
            [pos[int(g)] for c in sorted(part["test"]) for g in part["test"][c]],
            dtype=int,
        )
        datasets.append(
            ClientDataset(
                client_id=i,
                features=feats,
                labels=labs,
                classes=sorted(part["ids"]),
                train_idx=train,
                test_idx=test,
            )
        )
    return datasets


def _base_pools(spec):
    n_total = spec.n_classes * spec.samples_per_class
    labels = np.repeat(np.arange(spec.n_classes), spec.samples_per_class)
    pools = {
        c: np.arange(c * spec.samples_per_class, (c + 1) * spec.samples_per_class)
        for c in range(spec.n_classes)
    }
    return n_total, labels, pools


def gen_toy_nf(spec: ToyDatasetSpec) -> list[ClientDataset]:
    """Noisy-features variant: informative base coordinates identical in law
    across clients, plus client-specific standard-normal noise columns."""
    if spec.variant != "nf":
        raise ValueError("spec.variant must be 'nf'")
    means = spec.mean_scale * stream(spec.seed, _TAG_MEANS).standard_normal(
        (spec.n_classes, spec.base_dim)
    )
    _, labels, pools = _base_pools(spec)
    rng_base = stream(spec.seed, _TAG_BASE)
    base = np.concatenate(
        [
            means[c] + rng_base.standard_normal((spec.samples_per_class, spec.base_dim))
            for c in range(spec.n_classes)
        ]
    )
    parts = partition_clients(pools, spec, stream(spec.seed, _TAG_PARTITION))

    def add_noise(i, rows):
        rng = stream(spec.seed, _TAG_CLIENT, i)
        lo, hi = spec.noise_dim_range
        extra = int(rng.integers(lo, hi + 1)) if hi > 0 else 0
        if extra == 0:
            return rows.copy()
        return np.hstack([rows, rng.standard_normal((rows.shape[0], extra))])

    return _materialize(parts, base, labels, add_noise, spec)


def gen_toy_lm(spec: ToyDatasetSpec, map_factory=None) -> list[ClientDataset]:
    """Linear-mapping variant: base Gaussians with random mean and random
    diagonal covariance, pushed through a client-specific random linear map
    to a client-specific dimension.

    `map_factory(rng, base_dim, out_dim)` may be overridden (e.g. with an
    identity map) for testing; the default draws standard-normal entries.
    """
    if spec.variant != "lm":
        raise ValueError("spec.variant must be 'lm'")
    rng_means = stream(spec.seed, _TAG_MEANS)
    means = spec.mean_scale * rng_means.standard_normal((spec.n_classes, spec.base_dim))
    diag_vars = rng_means.uniform(0.5, 2.0, size=(spec.n_classes, spec.base_dim))
    _, labels, pools = _base_pools(spec)
    rng_base = stream(spec.seed, _TAG_BASE)
    base = np.concatenate(
        [
            means[c]
            + rng_base.standard_normal((spec.samples_per_class, spec.base_dim))
            * np.sqrt(diag_vars[c])
            for c in range(spec.n_classes)
        ]
    )
    parts = partition_clients(pools, spec, stream(spec.seed, _TAG_PARTITION))

    if map_factory is None:
        def map_factory(rng, base_dim, out_dim):
            return rng.standard_normal((base_dim, out_dim))

    def apply_map(i, rows):
        rng = stream(spec.seed, _TAG_CLIENT, i)
        lo, hi = spec.map_dim_range
        out_dim = int(rng.integers(lo, hi + 1))
        return rows @ map_factory(rng, spec.base_dim, out_dim)

    return _materialize(parts, base, labels, apply_map, spec)


def generate(spec: ToyDatasetSpec) -> list[ClientDataset]:
    return gen_toy_nf(spec) if spec.variant == "nf" else gen_toy_lm(spec)


def save_clients(datasets: list[ClientDataset], out_dir, n_classes: int, extra=None):
    """Write one self-describing JSON document per client plus a manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for ds in datasets:
        name = f"client_{ds.client_id:04d}.json"
        doc = {
            "client_id": int(ds.client_id),
            "dim": int(ds.dim),
            "classes": [int(c) for c in ds.classes],
            "features": ds.features.tolist(),
            "labels": ds.labels.tolist(),
            "train_idx": ds.train_idx.tolist(),
            "test_idx": ds.test_idx.tolist(),
        }
        (out / name).write_text(json.dumps(doc))
        files.append(name)
    manifest = {"clients": files, "n_classes": int(n_classes)}
    if extra:
        manifest.update(extra)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_clients(data_dir) -> tuple[list[ClientDataset], int]:
    root = Path(data_dir)
    manifest = json.loads((root / "manifest.json").read_text())
    datasets = []
    for name in manifest["clients"]:
        doc = json.loads((root / name).read_text())
        datasets.append(
            ClientDataset(
                client_id=doc["client_id"],
                features=np.asarray(doc["features"], dtype=float),
                labels=np.asarray(doc["labels"], dtype=int),
                classes=doc["classes"],
                train_idx=doc["train_idx"],
                test_idx=doc["test_idx"],
            )
        )
    return datasets, int(manifest["n_classes"])
