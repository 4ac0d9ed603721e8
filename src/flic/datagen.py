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

``flic datagen`` writes a dataset directory with :func:`save_clients`,
and :func:`load_clients` reads it back exactly. ``arrays.npz`` holds one
member per name in ``CLIENT_ARRAYS``: the clients' arrays of that name
joined end to end in manifest order, ``features`` raveled because every
client has its own width, dtypes kept. ``manifest.json`` lists the
client ids, the class count and, under ``sizes``, each client's row
count, feature width and ``classes``, ``train_idx`` and ``test_idx``
lengths, which cut the members back into clients.
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

# The per-client arrays of a dataset directory, in ``ClientDataset`` order;
# ``arrays.npz`` holds one member for each.
CLIENT_ARRAYS = ("features", "labels", "classes", "train_idx", "test_idx")
# The manifest's per-client lengths: rows, feature width, and the lengths
# of the three index arrays.
SIZES = ("rows", "width", *CLIENT_ARRAYS[2:])


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
        # A label's position among the sorted classes, its class when held.
        pos = np.searchsorted(self.classes, self.labels)
        if np.any(self.classes.take(pos, mode="clip") != self.labels):
            raise ValueError("labels outside the declared class set")
        for name in ("train_idx", "test_idx"):
            idx = getattr(self, name)
            if np.any((idx < 0) | (idx >= self.n_samples)):
                raise ValueError(f"{name} outside [0, {self.n_samples})")
        in_train = np.zeros(self.n_samples, dtype=bool)
        in_train[self.train_idx] = True
        if in_train[self.test_idx].any():
            raise ValueError("train/test splits overlap")
        trained = np.zeros(len(self.classes), dtype=bool)
        trained[pos[self.train_idx]] = True
        if not trained.all():
            raise ValueError(f"classes {self.classes[~trained].tolist()} have no training row")

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
    """Write a dataset directory (see the module docstring); ``extra``
    entries are added to the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.savez(out / "arrays.npz", **{
        name: np.concatenate([getattr(ds, name).ravel() for ds in datasets])
        for name in CLIENT_ARRAYS
    })
    sizes = {"rows": [ds.n_samples for ds in datasets], "width": [ds.dim for ds in datasets]}
    sizes.update((name, [len(getattr(ds, name)) for ds in datasets]) for name in SIZES[2:])
    manifest = {
        "clients": [int(ds.client_id) for ds in datasets],
        "n_classes": int(n_classes),
        "sizes": sizes,
    }
    manifest.update(extra or {})
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_clients(data_dir) -> tuple[list[ClientDataset], int]:
    """Read a dataset directory that :func:`save_clients` wrote.

    Each member of ``arrays.npz`` is read once and cut into the clients'
    arrays, views of it. A missing or extra member (a directory in the
    older one-member-per-client-array layout included), a client id
    listed twice, sizes that are negative or do not add up to a member, a
    client that fails the ``ClientDataset`` checks and a class outside
    ``[0, n_classes)`` raise an ``OSError`` naming ``arrays.npz``.
    """
    root = Path(data_dir)
    manifest_path, arrays_path = root / "manifest.json", root / "arrays.npz"
    with malformed_file(manifest_path):
        manifest = json.loads(manifest_path.read_text())
        ids, n_classes = list(manifest["clients"]), int(manifest["n_classes"])
    with malformed_file(arrays_path, manifest_path), np.load(arrays_path) as arrays:
        if sorted(arrays.files) != sorted(CLIENT_ARRAYS):
            shown = arrays.files[:len(CLIENT_ARRAYS)]
            raise ValueError(
                f"members {shown}{' ...' * (len(arrays.files) > len(shown))} are not "
                f"{list(CLIENT_ARRAYS)}: write the directory again with `flic datagen`"
            )
        columns = [manifest["sizes"][name] for name in SIZES]
        if not all(type(n) is int for column in (ids, *columns) for n in column):
            raise ValueError("client ids and sizes must be integers")
        if len(set(ids)) != len(ids):
            raise ValueError("a client id is listed twice")
        table = np.array(columns, dtype=np.int64)
        if table.shape != (len(SIZES), len(ids)):
            raise ValueError(f"sizes must give {', '.join(SIZES)} for each of {len(ids)} clients")
        if np.any(table < 0):
            raise ValueError("sizes hold a negative length")
        rows, width, *index_lengths = table
        pieces = {}
        for name, lengths in zip(CLIENT_ARRAYS, (rows * width, rows, *index_lengths)):
            member = arrays[name]
            if member.shape != (lengths.sum(),):
                raise ValueError(
                    f"sizes give {lengths.sum()} values of {name}, the member has shape "
                    f"{member.shape}"
                )
            if name == "classes":
                outside = (member < 0) | (member >= n_classes)
                if outside.any():
                    owner = np.searchsorted(np.cumsum(lengths), outside.argmax(), side="right")
                    raise ValueError(f"client {ids[owner]} classes outside [0, {n_classes})")
            pieces[name] = np.split(member, np.cumsum(lengths)[:-1])
        pieces["features"] = [f.reshape(r, w) for f, r, w in zip(pieces["features"], rows, width)]
        datasets = [
            ClientDataset(cid, *client)
            for cid, *client in zip(ids, *(pieces[name] for name in CLIENT_ARRAYS))
        ]
    return datasets, n_classes
