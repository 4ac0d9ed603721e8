"""The toy generator and the dataset directory format: fixed-seed
fingerprints of ``generate``, properties of ``partition_clients``, and
an exact ``save_clients``/``load_clients`` round trip in the flat layout."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flic.datagen import ToyDatasetSpec, generate, load_clients, partition_clients, save_clients

ARRAYS = ("features", "labels", "classes", "train_idx", "test_idx")

SMALL = {"n_classes": 6, "samples_per_class": 30, "clients": 8, "classes_per_client": 2}


def fingerprint(datasets) -> str:
    """SHA-256 over every client's id and arrays, with shapes and dtypes."""
    h = hashlib.sha256()
    for ds in datasets:
        h.update(f"client {ds.client_id}\n".encode())
        for name in ARRAYS:
            a = np.ascontiguousarray(getattr(ds, name))
            h.update(f"{name} {a.shape} {a.dtype.str}\n".encode())
            h.update(a.tobytes())
    return h.hexdigest()


# Fixed-seed hashes of whole generated datasets. A change to any of them
# is a change to every dataset the generator writes.
FINGERPRINTS = {
    ("lm", 0, None): (
        "c0813d625c9d315317dc8d34f0c2d602"
        "7a2b6c73a4190f364ec8b5efe552ff8d"
    ),
    ("lm", 7, None): (
        "8430a2aa40d439897a7fcf4d955bc822"
        "61623a9ce47ef57763944ebcaeb28340"
    ),
    ("nf", 0, None): (
        "0fba3345b764889266c9a9ebc3cd3041"
        "4bc6578f8db6cebaa3b01a039f49dc83"
    ),
    ("nf", 7, None): (
        "cc4092e1e27f5c56b5ed0d4cd5b9ed25"
        "751c3286f0d106426a97e8229fd214ff"
    ),
    ("nf", 1, (0, 0)): (
        "f4e43a0f83d34dc62409239eed4d4b02"
        "cc7dd63752aa7342f4f3a6d3527fcd0d"
    ),
}


@pytest.mark.parametrize("variant,seed,noise", sorted(FINGERPRINTS, key=str))
def test_generate_fingerprint(variant, seed, noise):
    extra = {} if noise is None else {"noise_dim_min": noise[0], "noise_dim_max": noise[1]}
    spec = ToyDatasetSpec(variant=variant, seed=seed, **SMALL, **extra)
    assert fingerprint(generate(spec)) == FINGERPRINTS[variant, seed, noise]


def test_zero_noise_dims_keep_the_base_space():
    spec = ToyDatasetSpec(variant="nf", noise_dim_min=0, noise_dim_max=0, **SMALL)
    assert {ds.dim for ds in generate(spec)} == {spec.base_dim}


@st.composite
def partition_cases(draw):
    n_classes = draw(st.integers(1, 10))
    per_client = draw(st.integers(1, n_classes))
    clients = draw(st.integers(-(-n_classes // per_client), 15))
    imbalance = sorted(draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2)))
    spec = ToyDatasetSpec(
        n_classes=n_classes,
        classes_per_client=per_client,
        clients=clients,
        # every holder of a class gets at least one sample of it
        samples_per_class=draw(st.integers(clients, clients + 30)),
        imbalance_min=imbalance[0],
        imbalance_max=imbalance[1],
        test_fraction=draw(st.floats(0.01, 0.99)),
    )
    return spec, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(partition_cases())
def test_partition_properties(case):
    spec, seed = case
    per = spec.samples_per_class
    pools = {c: np.arange(c * per, (c + 1) * per) for c in range(spec.n_classes)}
    parts = partition_clients(pools, spec, np.random.default_rng(seed))
    assert len(parts) == spec.clients
    owner = {}
    for i, part in enumerate(parts):
        assert len(part["ids"]) == spec.classes_per_client
        for c, ids in part["ids"].items():
            assert len(ids) > 0 and set(ids.tolist()) <= set(pools[c].tolist())
            for g in ids.tolist():
                assert owner.setdefault(g, i) == i, f"sample {g} held by two clients"
            train, test = set(part["train"][c].tolist()), set(part["test"][c].tolist())
            assert not train & test
            assert train | test == set(ids.tolist())
    held = {c for part in parts for c in part["ids"]}
    assert held == set(range(spec.n_classes))


@pytest.mark.parametrize("variant", ["lm", "nf"])
def test_save_then_load_is_exact(variant, tmp_path):
    datasets = generate(ToyDatasetSpec(variant=variant, seed=3, **SMALL))
    save_clients(datasets, tmp_path / "data", SMALL["n_classes"], extra={"variant": variant})
    loaded, n_classes = load_clients(tmp_path / "data")
    assert n_classes == SMALL["n_classes"]
    assert [ds.client_id for ds in loaded] == [ds.client_id for ds in datasets]
    for got, want in zip(loaded, datasets):
        for name in ARRAYS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            np.testing.assert_array_equal(a, b)
    assert fingerprint(loaded) == fingerprint(datasets)
    # the data arrays are views of one member per name (``classes`` is
    # made unique, a copy)
    for name in ("features", "labels", "train_idx", "test_idx"):
        first, last = getattr(loaded[0], name), getattr(loaded[-1], name)
        assert first.base is not None and first.base is last.base, name


@pytest.mark.parametrize("clients", [2, 20])
def test_arrays_npz_holds_one_member_per_client_array(clients, tmp_path):
    spec = ToyDatasetSpec(**{**SMALL, "clients": clients, "n_classes": 4})
    datasets = generate(spec)
    save_clients(datasets, tmp_path, spec.n_classes)
    with np.load(tmp_path / "arrays.npz") as arrays:
        assert arrays.files == list(ARRAYS)
        assert arrays["features"].size == sum(ds.features.size for ds in datasets)
    sizes = json.loads((tmp_path / "manifest.json").read_text())["sizes"]
    assert sizes["rows"] == [ds.n_samples for ds in datasets]
    assert sizes["width"] == [ds.dim for ds in datasets]
    assert len(load_clients(tmp_path)[0]) == clients
