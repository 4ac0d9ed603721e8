"""Fixed-seed golden runs: the referee for refactors of the training path.

Two small federated runs, one with frozen identity anchors and one with
learnable anchor covariances, are compared against checked-in results:
per-client test accuracies exactly, per-round train losses (the
``MetricsRecord`` floats, not the rounded CSV) to ``RTOL``. The
tolerance is fixed here and is not to be loosened; a change that is
meant to alter training behaviour regenerates the data with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from flic.config import build_config
from flic.experiment import build_federation, load_or_generate
from flic.federation import evaluate, run_training

GOLDEN_PATH = Path(__file__).parent / "data" / "golden.json"
RTOL = 1e-9

BASE = {
    "mode": "flic",
    "seed": 0,
    "clients": 20,
    "samples_per_class": 200,
    "rounds": 5,
    "latent_dim": 16,
    "participation": 0.5,
}
CONFIGS = {
    "identity_anchors": BASE,
    "cov_learnable": {**BASE, "cov_learnable": True},
}


def golden_run(values: dict) -> dict:
    cfg = build_config(values, apply_env=False)
    datasets, n_classes = load_or_generate(cfg)
    clients, state = build_federation(datasets, n_classes, cfg)
    clients, state, metrics, _ = run_training(clients, state, cfg.round_config())
    accs, _ = evaluate(clients, state)
    return {
        "per_client_accuracy": {str(k): accs[k] for k in sorted(accs)},
        "train_loss": [m.train_loss for m in metrics],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_run(name, golden):
    expected = golden[name]
    got = golden_run(CONFIGS[name])
    assert got["per_client_accuracy"] == expected["per_client_accuracy"]
    np.testing.assert_allclose(got["train_loss"], expected["train_loss"], rtol=RTOL, atol=0)


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    doc = {name: golden_run(values) for name, values in sorted(CONFIGS.items())}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
