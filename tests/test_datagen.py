"""The toy generator and the dataset directory format: fixed-seed
fingerprints of ``generate``, properties of ``partition_clients``, an
exact ``save_clients``/``load_clients`` round trip in the flat layout,
and the checks of ``ClientDataset``."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flic.datagen import (
    CLIENT_ARRAYS,
    ClientDataset,
    ToyDatasetSpec,
    generate,
    load_clients,
    partition_clients,
    save_clients,
)

# Every array a client holds: the stored ones and the derived classes.
ARRAYS = (*CLIENT_ARRAYS, "classes")

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
# is a change to every dataset the generator writes. They were computed
# when a client stored all its rows with index arrays into them, from
# ``features[train_idx]``, ``labels[train_idx]``, ``features[test_idx]``,
# ``labels[test_idx]`` and ``classes``: the split arrays hold the same
# rows in the same order, and the classes are the same.
FINGERPRINTS = {
    ("lm", 0, None): (
        "675cb224acd95997fd3746ec9bc932e3"
        "cd82cb57500bbdeb48d32c641d849fb1"
    ),
    ("lm", 7, None): (
        "b33077c318ff2d9d25ebef51b727515f"
        "94da78b136e59cb8a9263f753efcb5b3"
    ),
    ("nf", 0, None): (
        "bb197582cb415ec998829941d527e1dc"
        "242ce99466f9496f424c9c9bb9cd5680"
    ),
    ("nf", 7, None): (
        "63fff36cc8f8591e6b86038e05de6fe8"
        "5e87e810509c7de3f5e5778cdad441b9"
    ),
    ("nf", 1, (0, 0)): (
        "18a507b79380bf6d2da028d1c12c4178"
        "60493ab6fdc8e032bbebc081f36b37bb"
    ),
}


# ``{**SMALL, "clients": 4}`` at seed 0. The first class draws there leave
# classes 1 and 4 without a holder, so these go through the repair of the
# class assignment, which none of ``FINGERPRINTS`` reaches.
REPAIR_FINGERPRINTS = {
    "lm": (
        "5d9923823032d827b3bb7373994bf735"
        "5af6dc279fe086ebe2523e8f0cf1d093"
    ),
    "nf": (
        "fc3703637477f28f372ed977f77e4f37"
        "7a0df97c5f871808a87dc6c9741592a9"
    ),
}


@pytest.mark.parametrize("variant,seed,noise", sorted(FINGERPRINTS, key=str))
def test_generate_fingerprint(variant, seed, noise):
    extra = {} if noise is None else {"noise_dim_min": noise[0], "noise_dim_max": noise[1]}
    spec = ToyDatasetSpec(variant=variant, seed=seed, **SMALL, **extra)
    assert fingerprint(generate(spec)) == FINGERPRINTS[variant, seed, noise]


@pytest.mark.parametrize("variant", sorted(REPAIR_FINGERPRINTS))
def test_generate_fingerprint_through_the_class_repair(variant):
    spec = ToyDatasetSpec(variant=variant, seed=0, **{**SMALL, "clients": 4})
    assert fingerprint(generate(spec)) == REPAIR_FINGERPRINTS[variant]


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


def _tight(n_classes, classes_per_client, clients):
    """A spec whose clients hold exactly ``n_classes`` class slots."""
    return ToyDatasetSpec(n_classes=n_classes, classes_per_client=classes_per_client,
                          clients=clients, samples_per_class=clients + 5)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(partition_cases())
@example((_tight(6, 2, 3), 0))
@example((_tight(12, 3, 4), 1))
@example((_tight(10, 1, 10), 2))
def test_partition_properties(case):
    spec, seed = case
    n = spec.samples_per_class
    parts = partition_clients(spec, np.random.default_rng(seed))
    assert len(parts) == spec.clients
    owner = {}
    held = set()
    for i, (train, test) in enumerate(parts):
        ids = np.concatenate([train, test])
        # class c's pool is the ids c * n to (c + 1) * n - 1
        assert ids.min() >= 0 and ids.max() < spec.n_classes * n
        classes = set((ids // n).tolist())
        assert len(classes) == spec.classes_per_client
        assert set((train // n).tolist()) == classes, "a held class has no training id"
        for split in (train, test):
            assert np.all(np.diff(split // n) >= 0), "a split is not in class order"
        assert len(set(ids.tolist())) == len(ids), "a client holds an id twice"
        assert not set(train.tolist()) & set(test.tolist())
        for g in ids.tolist():
            assert owner.setdefault(g, i) == i, f"sample {g} held by two clients"
        held |= classes
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
    # the stored arrays are views of one member per name
    for name in CLIENT_ARRAYS:
        first, last = getattr(loaded[0], name), getattr(loaded[-1], name)
        assert first.base is not None and first.base is last.base, name


@pytest.mark.parametrize("clients", [2, 20])
def test_arrays_npz_holds_one_member_per_client_array(clients, tmp_path):
    spec = ToyDatasetSpec(**{**SMALL, "clients": clients, "n_classes": 4})
    datasets = generate(spec)
    save_clients(datasets, tmp_path, spec.n_classes)
    with np.load(tmp_path / "arrays.npz") as arrays:
        assert arrays.files == list(CLIENT_ARRAYS)
        for name in CLIENT_ARRAYS:
            assert arrays[name].size == sum(getattr(ds, name).size for ds in datasets)
    sizes = json.loads((tmp_path / "manifest.json").read_text())["sizes"]
    assert sizes == {
        "train_rows": [len(ds.y_train) for ds in datasets],
        "test_rows": [len(ds.y_test) for ds in datasets],
        "width": [ds.dim for ds in datasets],
    }
    assert len(load_clients(tmp_path)[0]) == clients


@pytest.mark.parametrize(
    "change, message",
    [
        ({"X_test": np.zeros((0, 3)), "y_test": np.zeros(0)}, "client 5 has an empty"),
        ({"y_train": [0, 1, 1]}, "rows and labels disagree in count"),
        ({"X_test": np.zeros((2, 4))}, "differ in width"),
        ({"y_test": [0, -1]}, "a label is negative"),
        ({"y_test": [2, 7]}, r"test labels \[2, 7\] have no training row"),
    ],
)
def test_client_dataset_checks(change, message):
    arrays = {"X_train": np.zeros((4, 3)), "y_train": [0, 1, 1, 4],
              "X_test": np.zeros((2, 3)), "y_test": [4, 0]}
    assert ClientDataset(5, **arrays).classes.tolist() == [0, 1, 4]
    with pytest.raises(ValueError, match=message):
        ClientDataset(5, **{**arrays, **change})
