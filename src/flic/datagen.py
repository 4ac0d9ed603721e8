"""Synthetic multi-client benchmarks with heterogeneous feature spaces.

Two 20-class toy variants built from class-conditional Gaussians in a
small base space:

* ``nf`` (noisy features): every client sees the informative base
  coordinates plus its own random count of pure-noise dimensions.
* ``lm`` (linear mapping): every client sees its own random linear image
  of the base space, with a client-specific output dimension.

Sample ids number the base rows class by class, so a class pool is a
range of consecutive ids. Each pool is shared evenly among the clients
holding that class, clients are randomly subsampled to create size
imbalance, and every client gets a stratified train/test split:
:func:`partition_clients` hands each client one array of training ids
and one of test ids. Generation is a pure function of the spec (seed
included).

``flic datagen`` writes a dataset directory with :func:`save_clients`,
and :func:`load_clients` reads it back exactly. ``arrays.npz`` holds four
members, ``X_train``, ``y_train``, ``X_test`` and ``y_test``: each is the
clients' arrays of that name joined end to end in manifest order, the
feature arrays raveled because every client has its own width, dtypes
kept. ``manifest.json`` lists the client ids, the class count and, under
``sizes``, each client's ``train_rows``, ``test_rows`` and feature
``width``, which cut the members back into clients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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
CLIENT_ARRAYS = ("X_train", "y_train", "X_test", "y_test")
# The manifest's per-client lengths, which cut the members into clients.
SIZES = ("train_rows", "test_rows", "width")


class PoolTooSmallError(ValueError):
    """A class pool has fewer samples than the clients holding the class,
    or a client keeps too few rows for a test row.

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
    """One client's data in its own feature space: training rows and labels,
    test rows and labels. ``classes``, the distinct training labels in
    increasing order, is derived from a bincount (``np.unique`` imports
    ``numpy.ma``); every test label must be one of them."""

    client_id: int
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    classes: np.ndarray = field(init=False)

    def __post_init__(self):
        self.X_train, self.X_test = (np.asarray(X, float) for X in (self.X_train, self.X_test))
        self.y_train, self.y_test = (np.asarray(y, int) for y in (self.y_train, self.y_test))
        if not (len(self.y_train) and len(self.y_test)):
            raise ValueError(f"client {self.client_id} has an empty training or test split")
        if (len(self.X_train), len(self.X_test)) != (len(self.y_train), len(self.y_test)):
            raise ValueError("rows and labels disagree in count")
        if self.y_train.min() < 0 or self.y_test.min() < 0:
            raise ValueError("a label is negative")
        if self.X_train.shape[1:] != self.X_test.shape[1:]:
            raise ValueError("training and test rows differ in width")
        self.classes = np.flatnonzero(np.bincount(self.y_train))
        pos = np.searchsorted(self.classes, self.y_test)
        untrained = self.y_test[self.classes.take(pos, mode="clip") != self.y_test]
        if untrained.size:
            raise ValueError(f"test labels {sorted(set(untrained.tolist()))} have no training row")

    @property
    def dim(self) -> int:
        return self.X_train.shape[1]

    @property
    def n_samples(self) -> int:
        return len(self.y_train) + len(self.y_test)


def _assign_classes(spec: ToyDatasetSpec, rng) -> list[np.ndarray]:
    """Give each client `classes_per_client` distinct classes, guaranteeing
    every class at least one holder."""
    assignment = [
        np.sort(rng.choice(spec.n_classes, size=spec.classes_per_client, replace=False))
        for _ in range(spec.clients)
    ]
    counts = np.bincount(np.concatenate(assignment), minlength=spec.n_classes)
    for c in np.flatnonzero(counts == 0):
        # Steal a slot from a client holding a class that has another
        # holder. There always is one: the clients * classes_per_client >=
        # n_classes slots lie on at most n_classes - 1 classes while c has
        # none, so some class has two holders.
        for j in rng.permutation(spec.clients):
            cand = [x for x in assignment[j] if counts[x] > 1]
            if cand:
                drop = cand[int(np.argmax([counts[x] for x in cand]))]
                assignment[j] = np.sort(np.append(assignment[j][assignment[j] != drop], c))
                counts[drop] -= 1
                counts[c] += 1
                break
    return assignment


def partition_clients(spec: ToyDatasetSpec, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """Distribute the class pools to clients.

    Class ``c``'s pool is the ids ``c * n`` to ``(c + 1) * n - 1``, for
    ``n = samples_per_class``. Every pool is split evenly among its
    holders, each client then keeps a random fraction (drawn from the
    imbalance range) of every class slice, and the kept samples get a
    stratified train/test split. Assignments are disjoint across clients.

    Returns one ``(train_ids, test_ids)`` pair per client; each array joins
    the client's per-class splits in class order.
    """
    n = spec.samples_per_class
    holders: list[list[int]] = [[] for _ in range(spec.n_classes)]
    for i, cls in enumerate(_assign_classes(spec, rng)):
        for c in cls:
            holders[c].append(i)

    # Classes are visited in order, so each client's slices are in class order.
    slices: list[list[np.ndarray]] = [[] for _ in range(spec.clients)]
    for c, held_by in enumerate(holders):
        if n < len(held_by):
            raise PoolTooSmallError(
                f"class {c} pool of {n} samples is smaller than its {len(held_by)} holders"
            )
        pool = rng.permutation(np.arange(c * n, (c + 1) * n))
        for i, chunk in zip(held_by, np.array_split(pool, len(held_by))):
            slices[i].append(chunk)

    out = []
    for chunks in slices:
        frac = rng.uniform(spec.imbalance_min, spec.imbalance_max)
        train, test = [], []
        for chunk in chunks:
            n_keep = min(len(chunk), max(2, int(round(frac * len(chunk)))))
            shuffled = rng.permutation(np.sort(rng.permutation(chunk)[:n_keep]))
            n_test = int(np.floor(spec.test_fraction * n_keep))
            if n_test == 0 and n_keep >= 2:
                n_test = 1
            test.append(shuffled[:n_test])
            train.append(shuffled[n_test:])
        out.append((np.concatenate(train), np.concatenate(test)))
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
    parts = partition_clients(spec, stream(spec.seed, _TAG_PARTITION))

    datasets = []
    for i, (train_ids, test_ids) in enumerate(parts):
        # Pools are consecutive id ranges in class order: a client's base
        # rows are its ids in increasing order, and an id's class is id // n.
        ids = np.sort(np.concatenate([train_ids, test_ids]))
        rng = stream(spec.seed, _TAG_CLIENT, i)
        if spec.variant == "lm":
            out_dim = int(rng.integers(spec.map_dim_min, spec.map_dim_max + 1))
            feats = base[ids] @ rng.standard_normal((spec.base_dim, out_dim))
        else:
            extra = int(rng.integers(spec.noise_dim_min, spec.noise_dim_max + 1))
            feats = np.hstack([base[ids], rng.standard_normal((len(ids), extra))])
        if not len(test_ids):
            raise PoolTooSmallError(f"client {i} keeps too few rows ({len(ids)}) for a test row")
        train, test = np.searchsorted(ids, train_ids), np.searchsorted(ids, test_ids)
        datasets.append(ClientDataset(i, feats[train], train_ids // n, feats[test], test_ids // n))
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
    manifest = {
        "clients": [int(ds.client_id) for ds in datasets],
        "n_classes": int(n_classes),
        "sizes": {"train_rows": [len(ds.y_train) for ds in datasets],
                  "test_rows": [len(ds.y_test) for ds in datasets],
                  "width": [ds.dim for ds in datasets]},
    }
    manifest.update(extra or {})
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_clients(data_dir) -> tuple[list[ClientDataset], int]:
    """Read a dataset directory that :func:`save_clients` wrote.

    Each member of ``arrays.npz`` is read once and cut into the clients'
    arrays, views of it. A manifest that lists no clients, a missing or
    extra member (a directory in an older layout included), a client id
    listed twice, sizes that are negative or do not add up to a member, a
    training label outside ``[0, n_classes)`` and a client that fails the
    ``ClientDataset`` checks raise an ``OSError`` naming the file at fault.
    """
    root = Path(data_dir)
    manifest_path, arrays_path = root / "manifest.json", root / "arrays.npz"
    with malformed_file(manifest_path):
        manifest = json.loads(manifest_path.read_text())
        ids, n_classes = list(manifest["clients"]), int(manifest["n_classes"])
        if not ids:
            raise ValueError("the manifest lists no clients")
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
        train_rows, test_rows, width = table
        pieces = {}
        for name, lengths in zip(CLIENT_ARRAYS, (train_rows * width, train_rows,
                                                 test_rows * width, test_rows)):
            member = arrays[name]
            if member.shape != (lengths.sum(),):
                raise ValueError(
                    f"sizes give {lengths.sum()} values of {name}, the member has shape "
                    f"{member.shape}"
                )
            if name == "y_train":
                # Test labels must be training classes, so they are in range too.
                outside = (member < 0) | (member >= n_classes)
                if outside.any():
                    owner = np.searchsorted(np.cumsum(lengths), outside.argmax(), side="right")
                    raise ValueError(f"client {ids[owner]} y_train outside [0, {n_classes})")
            pieces[name] = np.split(member, np.cumsum(lengths)[:-1])
        for name, rows in (("X_train", train_rows), ("X_test", test_rows)):
            pieces[name] = [X.reshape(r, w) for X, r, w in zip(pieces[name], rows, width)]
        datasets = [
            ClientDataset(cid, *client)
            for cid, *client in zip(ids, *(pieces[name] for name in CLIENT_ARRAYS))
        ]
    return datasets, n_classes
