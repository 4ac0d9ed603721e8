import numpy as np
import pytest

from flic.anchors import init_anchors
from flic.datagen import ClientDataset
from flic.federation import GlobalState, make_client
from flic.nets import build_shared
from flic.reporting import MetricsRecord, load_checkpoint, save_checkpoint, write_metrics


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    k, n_classes = 6, 5
    anchors = init_anchors(n_classes, k, rng, cov_learnable=True)
    anchors.factors += 0.1 * rng.standard_normal(anchors.factors.shape)
    state = GlobalState(build_shared(k, rng), anchors, round=7)
    clients = []
    for cid, dim in ((3, 4), (8, 9)):
        labels = np.repeat([0, 2, 4], 4)
        data = ClientDataset(cid, rng.standard_normal((labels.size, dim)), labels, [0, 2, 4],
                             np.arange(0, 12, 2), np.arange(1, 12, 2))
        clients.append(make_client(data, n_classes, k, 8, lr=1e-3, weight=0.25 * cid, rng=rng))

    first, second = tmp_path / "first", tmp_path / "second"
    save_checkpoint(first, state, clients)
    loaded, models = load_checkpoint(first)
    for client in clients:
        phi, head, classes, weight = models[client.client_id]
        client.phi, client.head = phi, head
        assert classes == client.data.classes.tolist() and weight == client.weight
    save_checkpoint(second, loaded, clients)

    assert loaded.round == 7 and loaded.anchors.cov_learnable
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
