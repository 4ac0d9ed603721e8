import json
import os
import re

import pytest

from flic import cli


def test_diverging_run_exits_with_divergence_code(tmp_path, monkeypatch, capsys):
    for key in [k for k in os.environ if k.startswith("FLIC_")]:
        monkeypatch.delenv(key)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"lr": 100, "rounds": 3, "clients": 20, "samples_per_class": 200})
    )
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_DIVERGENCE
    err = capsys.readouterr().err
    assert re.search(r"loss term 'align' diverged on client \d+ at round \d+, step \d+", err)
    assert "singular" in err


@pytest.mark.parametrize(
    "values",
    [
        {"mode": "theory", "theory_test_samples": 0, "theory_rounds": 3},
        {"mode": "theory", "theory_samples": 0, "theory_rounds": 3},
        {"mode": "theory", "theory_samples": -5, "theory_rounds": 3},
    ],
)
def test_theory_sample_counts_below_one_exit_with_config_code(values, tmp_path, monkeypatch, capsys):
    for key in [k for k in os.environ if k.startswith("FLIC_")]:
        monkeypatch.delenv(key)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()
