import importlib
import json
import pkgutil

import flic
from flic import cli, rng

TINY = {
    "clients": 20, "samples_per_class": 20, "rounds": 1, "participation": 0.25,
    "latent_dim": 6, "hidden_dim": 8, "local_steps": 2, "final_local_rounds": 1,
    "theory_rounds": 3, "theory_clients": 8, "theory_samples": 100, "theory_test_samples": 3,
}


def test_no_two_stream_keys_collide(tmp_path, monkeypatch):
    """``SeedSequence`` drops trailing zero words, so two keys that differ
    only by trailing zeros give one stream. Over a datagen, a ``flic`` run
    with a final local round, a ``local`` run, one onboarding and a
    ``theory`` run, no two distinct keys are equal once trailing zeros are
    stripped."""
    keys = set()
    original = rng.stream

    def recording(*key):
        keys.add(tuple(map(int, key)))
        return original(*key)

    for info in pkgutil.iter_modules(flic.__path__):
        module = importlib.import_module(f"flic.{info.name}")
        if getattr(module, "stream", None) is original:
            monkeypatch.setattr(module, "stream", recording)
    config, data = tmp_path / "config.json", tmp_path / "data"
    config.write_text(json.dumps(TINY))
    assert cli.main(["datagen", "--config", str(config), "--out", str(data)]) == cli.EXIT_OK
    for mode in ("flic", "local", "theory"):
        argv = ["run", "--config", str(config), "--mode", mode, "--out", str(tmp_path / mode)]
        assert cli.main(argv) == cli.EXIT_OK
    argv = ["onboard", "--config", str(config), "--checkpoint", str(tmp_path / "flic/checkpoint"),
            "--data", str(data), "--client-id", "0", "--rounds", "1"]
    assert cli.main(argv) == cli.EXIT_OK

    stripped = {}
    for key in sorted(keys):
        short = key
        while short and short[-1] == 0:
            short = short[:-1]
        stripped.setdefault(short, []).append(key)
    assert len(keys) > 50
    assert {s: k for s, k in stripped.items() if len(k) > 1} == {}
