"""Fixed-seed golden runs: the referee for refactors of the training path
and of the linear-regression theory harness.

Two small federated runs, one with frozen identity anchors and one with
learnable anchor covariances, are compared against checked-in results:
per-client test accuracies exactly, per-round train losses (the
``MetricsRecord`` floats, not the rounded CSV) to ``RTOL``. One theory
run is compared row by row: principal-angle distance and test MSE to
``THEORY_ATOL``, and the first round with distance below ``THEORY_TOL``
exactly. The tolerances are fixed here and are not to be loosened; a
change that is meant to alter behaviour regenerates the data with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

and says so in CHANGES.md. Given names, only those entries are
rewritten and the others are kept as they are.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from flic.config import build_config
from flic.experiment import build_federation, load_or_generate
from flic.federation import evaluate, run_training
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
THEORY = TheoryConfig(clients=20, samples_per_client=300, participation=1.0, rounds=300, seed=0)


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


def test_theory_golden_run(golden):
    expected = golden["theory"]
    got = theory_golden_run(THEORY)
    assert got["rounds_to_tol"] == expected["rounds_to_tol"]
    np.testing.assert_allclose(got["dist"], expected["dist"], rtol=0, atol=THEORY_ATOL)
    np.testing.assert_allclose(got["mse"], expected["mse"], rtol=0, atol=THEORY_ATOL)


def _regenerate(names: list[str]) -> None:
    runs = {name: (lambda v=values: golden_run(v)) for name, values in CONFIGS.items()}
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
