import json
from dataclasses import replace

import numpy as np
import pytest

from flic.anchors import init_anchors
from flic.datagen import ClientDataset
from flic.federation import GlobalState, make_client
from flic.nets import build_shared
from flic.reporting import MetricsRecord, load_checkpoint, save_checkpoint, write_metrics


def saved_run(rng):
    """A global state with learned anchor factors and two clients."""
    k, n_classes = 6, 5
    anchors = init_anchors(n_classes, k, rng, cov_learnable=True)
    anchors = replace(anchors, factors=anchors.factors + 0.1 * rng.standard_normal(
        anchors.factors.shape))
    state = GlobalState(build_shared(k, rng), anchors)
    clients = []
    for cid, dim in ((3, 4), (8, 9)):
        labels = np.repeat([0, 2, 4], 2)
        features = rng.standard_normal((2 * labels.size, dim))
        data = ClientDataset(cid, features[0::2], labels, features[1::2], labels)
        clients.append(make_client(data, n_classes, k, 8, rng=rng))
    return state, clients


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    state, clients = saved_run(np.random.default_rng(0))
    first, second = tmp_path / "first", tmp_path / "second"
    save_checkpoint(first, state, clients)
    loaded, models = load_checkpoint(first)
    for client in clients:
        phi, head, classes = models[client.data.client_id]
        client.phi, client.head = phi, head
        assert classes == client.data.classes.tolist()
    save_checkpoint(second, loaded, clients)

    assert loaded.anchors.cov_learnable
    for name in ("arrays.npz", "meta.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    with np.load(first / "arrays.npz") as a, np.load(second / "arrays.npz") as b:
        assert sorted(a.files) == sorted(b.files)
        for key in a.files:
            assert a[key].dtype == b[key].dtype == np.float64
            np.testing.assert_array_equal(a[key], b[key])
    for got, ref in zip(loaded.alpha.params() + [loaded.anchors.means, loaded.anchors.factors],
                        state.alpha.params() + [state.anchors.means, state.anchors.factors]):
        np.testing.assert_array_equal(got, ref)


def test_checkpoint_with_round_and_client_weights_still_loads(tmp_path):
    """Checkpoints once stored the round count and each client's server
    weight in meta.json; such a checkpoint loads to the same arrays and
    classes, its extra keys ignored."""
    state, clients = saved_run(np.random.default_rng(1))
    save_checkpoint(tmp_path, state, clients)
    ref_state, ref_models = load_checkpoint(tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta = {"round": 7, **meta}
    for entry, weight in zip(meta["clients"], (0.25, 0.75), strict=True):
        entry["weight"] = weight
    (tmp_path / "meta.json").write_text(json.dumps(meta, indent=2))

    loaded, models = load_checkpoint(tmp_path)
    assert loaded.anchors.cov_learnable and sorted(models) == [3, 8]
    for got, ref in zip(loaded.alpha.params() + [loaded.anchors.means, loaded.anchors.factors],
                        ref_state.alpha.params() + [ref_state.anchors.means,
                                                    ref_state.anchors.factors], strict=True):
        np.testing.assert_array_equal(got, ref)
    for cid, (phi, head, classes) in models.items():
        ref_phi, ref_head, ref_classes = ref_models[cid]
        assert classes == ref_classes == [0, 2, 4]
        for got, ref in zip(phi.params() + head.params(), ref_phi.params() + ref_head.params(),
                            strict=True):
            np.testing.assert_array_equal(got, ref)


def test_metrics_csv_has_one_column_per_field_and_six_digit_floats(tmp_path):
    records = [
        MetricsRecord(0, 2.0 / 3.0, 0.5, 0.0, 1.0, 12.3456789, 1024, 2048),
        MetricsRecord(3, 1e-7, 0.123456789, 1.0 / 3.0, 0.75, 1234567.0, 0, 10**9),
    ]
    write_metrics(records, tmp_path / "metrics.csv")
    assert (tmp_path / "metrics.csv").read_text().splitlines() == [
        "round,train_loss,mean_accuracy,min_accuracy,max_accuracy,wall_ms,bytes_up,bytes_down",
        "0,0.666667,0.5,0,1,12.3457,1024,2048",
        "3,1e-07,0.123457,0.333333,0.75,1.23457e+06,0,1000000000",
    ]


@pytest.mark.parametrize("rounds", [(0, 0), (2, 1)])
def test_metrics_rounds_must_strictly_increase(tmp_path, rounds):
    records = [MetricsRecord(t, 1.0, 0.5, 0.0, 1.0, 1.0, 0, 0) for t in rounds]
    with pytest.raises(ValueError, match="strictly increasing"):
        write_metrics(records, tmp_path / "metrics.csv")
    assert not (tmp_path / "metrics.csv").exists()
