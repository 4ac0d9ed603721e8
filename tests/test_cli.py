import json
import os
import re

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
