"""Fixed-seed golden runs: the referee for refactors of the training path
and of the linear-regression theory harness.

Two small federated runs, one with frozen identity anchors and one with
learnable anchor covariances, are compared against checked-in results:
per-client test accuracies exactly, per-round train losses (the
``MetricsRecord`` floats, not the rounded CSV) to ``RTOL``. A local
baseline run through ``run_command`` pins its per-client accuracies
exactly, and so does one client onboarded against the identity-anchor
run's trained state. One theory run is compared row by row:
principal-angle distance and test MSE to ``THEORY_ATOL``, and the first
round with distance below ``THEORY_TOL`` exactly. The tolerances are fixed here and are not to be loosened; a
change that is meant to alter behaviour regenerates the data with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

and says so in CHANGES.md. Given names, only those entries are
rewritten and the others are kept as they are.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from flic.config import build_config
from flic.experiment import build_federation, load_or_generate, run_command
from flic.federation import client_accuracy, onboard_new_client, run_training
from flic.theory import TheoryConfig, run_theory_experiment

GOLDEN_PATH = Path(__file__).parent / "data" / "golden.json"
RTOL = 1e-9
THEORY_ATOL = 1e-12
THEORY_TOL = 1e-8

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
LOCAL = {**BASE, "mode": "local", "final_local_rounds": 1}
ONBOARD = {"trained": "identity_anchors", "client": 3, "rounds": 5}
THEORY = TheoryConfig(clients=20, samples_per_client=300, participation=1.0, rounds=300, seed=0)


def _train(values: dict):
    cfg = build_config(values, apply_env=False)
    datasets, n_classes = load_or_generate(cfg)
    clients, state = build_federation(datasets, n_classes, cfg)
    return cfg, datasets, run_training(clients, state, cfg.training)


def golden_run(values: dict) -> dict:
    _, _, (_, _, metrics, _, accs) = _train(values)
    return {
        "per_client_accuracy": {str(k): accs[k] for k in sorted(accs)},
        "train_loss": [m.train_loss for m in metrics],
    }


def local_golden_run(values: dict) -> dict:
    with tempfile.TemporaryDirectory() as out:
        assert run_command(build_config({**values, "out_dir": out}, apply_env=False)) == 0
        summary = json.loads((Path(out) / "summary.json").read_text())
    return {"per_client_accuracy": summary["per_client_accuracy"]}


def onboard_golden_run(spec: dict) -> dict:
    cfg, datasets, (_, state, _, _, _) = _train(CONFIGS[spec["trained"]])
    client = onboard_new_client(
        datasets[spec["client"]], state, cfg.training, hidden_dim=cfg.hidden_dim,
        rounds=spec["rounds"],
    )
    return {"accuracy": client_accuracy(client.phi, client.head, state.alpha, client.data)}


def theory_golden_run(config: TheoryConfig) -> dict:
    _, rows = run_theory_experiment(config)
    return {
        "dist": [float(r[1]) for r in rows],
        "mse": [float(r[2]) for r in rows],
        "rounds_to_tol": next((int(r[0]) for r in rows if r[1] < THEORY_TOL), None),
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


def test_local_golden_run(golden):
    assert local_golden_run(LOCAL) == golden["local"]


def test_onboard_golden_run(golden):
    assert onboard_golden_run(ONBOARD) == golden["onboard"]


def test_theory_golden_run(golden):
    expected = golden["theory"]
    got = theory_golden_run(THEORY)
    assert got["rounds_to_tol"] == expected["rounds_to_tol"]
    np.testing.assert_allclose(got["dist"], expected["dist"], rtol=0, atol=THEORY_ATOL)
    np.testing.assert_allclose(got["mse"], expected["mse"], rtol=0, atol=THEORY_ATOL)


def _regenerate(names: list[str]) -> None:
    runs = {name: (lambda v=values: golden_run(v)) for name, values in CONFIGS.items()}
    runs["local"] = lambda: local_golden_run(LOCAL)
    runs["onboard"] = lambda: onboard_golden_run(ONBOARD)
    runs["theory"] = lambda: theory_golden_run(THEORY)
    unknown = sorted(set(names) - set(runs))
    if unknown:
        raise SystemExit(f"unknown golden entries: {unknown}; known: {sorted(runs)}")
    doc = json.loads(GOLDEN_PATH.read_text()) if names and GOLDEN_PATH.exists() else {}
    doc.update({name: runs[name]() for name in (names or sorted(runs))})
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate(sys.argv[1:])
