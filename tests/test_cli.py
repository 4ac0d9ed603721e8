import json
import os
import re

import numpy as np
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


def _run(values, tmp_path, monkeypatch, env=None):
    for key in [k for k in os.environ if k.startswith("FLIC_")]:
        monkeypatch.delenv(key)
    for key, value in (env or {}).items():
        monkeypatch.setenv(key, value)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    return cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])


SMALL_FLIC = {"rounds": 1, "clients": 20, "samples_per_class": 50}


@pytest.mark.parametrize(
    "values,env,key",
    [
        ({**SMALL_FLIC, "lr": float("nan")}, {}, "lr"),
        ({**SMALL_FLIC, "lr": float("inf")}, {}, "lr"),
        (SMALL_FLIC, {"FLIC_LR": "nan"}, "lr"),
        (SMALL_FLIC, {"FLIC_LAMBDA1": "-inf"}, "lambda1"),
        ({"mode": "theory", "theory_step_size": float("nan"), "theory_rounds": 3}, {},
         "theory_step_size"),
    ],
)
def test_non_finite_numbers_exit_with_config_code(values, env, key, tmp_path, monkeypatch, capsys):
    assert _run(values, tmp_path, monkeypatch, env) == cli.EXIT_CONFIG
    assert re.search(rf"config error: {key}: expected a finite number", capsys.readouterr().err)
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("step", [0, -1])
def test_non_positive_theory_step_exits_with_config_code(step, tmp_path, monkeypatch, capsys):
    values = {"mode": "theory", "theory_step_size": step, "theory_rounds": 3}
    assert _run(values, tmp_path, monkeypatch) == cli.EXIT_CONFIG
    assert "step_size must be > 0" in capsys.readouterr().err


def test_workers_other_than_one_exit_with_config_code(tmp_path, monkeypatch, capsys):
    assert _run({**SMALL_FLIC, "workers": 2}, tmp_path, monkeypatch) == cli.EXIT_CONFIG
    assert "one after another" in capsys.readouterr().err


def test_workers_flag_is_gone(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["run", "--workers", "2"])


@pytest.mark.parametrize(
    "values,name",
    [
        ({"samples_per_class": 0, "rounds": 1, "clients": 20}, "samples_per_class"),
        ({**SMALL_FLIC, "base_dim": 0}, "base_dim"),
        ({"mode": "theory", "theory_raw_dim_max": 6}, "theory_raw_dim_max"),
        ({"mode": "theory", "theory_head_dim": 0}, "theory_head_dim"),
    ],
)
def test_unrunnable_data_and_theory_shapes_exit_with_config_code(
    values, name, tmp_path, monkeypatch, capsys
):
    assert _run(values, tmp_path, monkeypatch) == cli.EXIT_CONFIG
    assert re.search(rf"config error: .*\b{name}\b", capsys.readouterr().err)
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("command", ["run", "datagen"])
def test_class_pool_smaller_than_its_holders_exits_with_config_code(
    command, tmp_path, monkeypatch, capsys
):
    for key in [k for k in os.environ if k.startswith("FLIC_")]:
        monkeypatch.delenv(key)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"samples_per_class": 2, "clients": 20, "rounds": 1}))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
    assert re.search(r"config error: samples_per_class: class \d+ pool of 2 samples",
                     capsys.readouterr().err)
    assert not (out / "summary.json").exists() and not (out / "arrays.npz").exists()


@pytest.mark.parametrize("command", ["run", "datagen"])
def test_single_row_class_slices_exit_with_config_code(command, tmp_path, monkeypatch, capsys):
    """Every class has one holder and one row, so no client has a test row."""
    for key in [k for k in os.environ if k.startswith("FLIC_")]:
        monkeypatch.delenv(key)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"samples_per_class": 1, "clients": 20, "classes_per_client": 1, "rounds": 1}
    ))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
    assert re.search(r"config error: samples_per_class: client \d+ keeps too few rows",
                     capsys.readouterr().err)
    assert not (out / "summary.json").exists() and not (out / "arrays.npz").exists()


@pytest.mark.parametrize(
    "argv,env",
    [(["run", "--seed", "-1", "--mode", mode], {}) for mode in ("flic", "local", "theory")]
    + [(["run"], {"FLIC_SEED": "-1"}), (["datagen", "--seed", "-1"], {})],
    ids=["run-flic", "run-local", "run-theory", "run-env", "datagen"],
)
def test_negative_seed_exits_with_config_code(argv, env, tmp_path, monkeypatch, capsys):
    for key in [k for k in os.environ if k.startswith("FLIC_")]:
        monkeypatch.delenv(key)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: seed: must be >= 0")
    assert not out.exists()


def test_unwritable_output_directory_exits_with_io_code(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory")
    values = {"mode": "theory", "theory_rounds": 3}
    for key in [k for k in os.environ if k.startswith("FLIC_")]:
        monkeypatch.delenv(key)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    code = cli.main(["run", "--config", str(config), "--out", str(blocker / "out")])
    assert code == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert blocker.read_text() == "a regular file, not a directory"


def _file_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_datagen_run_eval_onboard_end_to_end(tmp_path, monkeypatch, capsys):
    """A dataset directory feeds ``run``; ``eval`` on the checkpoint prints
    the accuracies of summary.json; ``onboard`` leaves the checkpoint as
    it was."""
    for key in [k for k in os.environ if k.startswith("FLIC_")]:
        monkeypatch.delenv(key)
    data, out = tmp_path / "data", tmp_path / "out"
    values = {
        "clients": 20, "samples_per_class": 20, "rounds": 2, "participation": 0.25,
        "latent_dim": 6, "hidden_dim": 8, "local_steps": 2, "cov_learnable": True,
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    assert cli.main(["datagen", "--config", str(config), "--out", str(data)]) == cli.EXIT_OK
    config.write_text(json.dumps({**values, "dataset_path": str(data)}))
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    capsys.readouterr()

    ckpt = out / "checkpoint"
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == cli.EXIT_OK
    accs = summary["per_client_accuracy"]
    expected = [f"client {c}: accuracy {accs[c]:.4f}" for c in sorted(accs, key=int)]
    expected.append(f"mean_accuracy {summary['mean_accuracy']:.4f}")
    assert capsys.readouterr().out.splitlines() == expected

    # every message carries exactly the shared layer and the anchor set
    k, n_classes = values["latent_dim"], 20
    payload = 8 * (k * k + k) + 8 * n_classes * (k + k * k)
    messages = [json.loads(line) for line in (out / "messages.log").read_text().splitlines()]
    assert messages and {m["nbytes"] for m in messages} == {payload}

    before = _file_bytes(ckpt)
    argv = ["onboard", "--config", str(config), "--checkpoint", str(ckpt), "--data", str(data),
            "--client-id", "0", "--rounds", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    assert re.fullmatch(r"onboarded client 0: accuracy \d\.\d{4}\n", capsys.readouterr().out)
    assert _file_bytes(ckpt) == before


def test_theory_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["theory"])


TINY = {"clients": 20, "samples_per_class": 20, "rounds": 1, "participation": 0.25,
        "latent_dim": 6, "hidden_dim": 8, "local_steps": 2}


def _datagen(values, out, tmp_path, monkeypatch):
    for key in [k for k in os.environ if k.startswith("FLIC_")]:
        monkeypatch.delenv(key)
    config = tmp_path / f"{out.name}.json"
    config.write_text(json.dumps(values))
    assert cli.main(["datagen", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    return config


@pytest.fixture
def trained(tmp_path, monkeypatch):
    """(config, dataset directory, checkpoint) of a one-round run."""
    data, out = tmp_path / "data", tmp_path / "out"
    config = _datagen(TINY, data, tmp_path, monkeypatch)
    config.write_text(json.dumps({**TINY, "dataset_path": str(data)}))
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    return config, data, out / "checkpoint"


def test_onboard_negative_rounds_exits_with_config_code(trained, capsys):
    config, data, ckpt = trained
    argv = ["onboard", "--config", str(config), "--checkpoint", str(ckpt), "--data", str(data),
            "--client-id", "0", "--rounds", "-5"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "config error: --rounds: must be >= 0, got -5" in out.err
    assert "accuracy" not in out.out


def test_onboard_client_outside_the_anchor_classes_exits_with_config_code(
    trained, tmp_path, monkeypatch, capsys
):
    from flic.datagen import load_clients

    config, _, ckpt = trained
    wide = tmp_path / "wide"
    _datagen({**TINY, "n_classes": 30}, wide, tmp_path, monkeypatch)
    client = next(ds for ds in load_clients(wide)[0] if ds.classes.max() >= 20)
    argv = ["onboard", "--config", str(config), "--checkpoint", str(ckpt), "--data", str(wide),
            "--client-id", str(client.client_id)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"client {client.client_id} holds classes {client.classes.tolist()}" in err
    assert "outside the checkpoint's 20 anchor classes" in err


@pytest.mark.parametrize(
    "change, pattern",
    [
        ({"seed": 1}, r"client \d+: dataset (holds classes|features have dimension)"),
        ({"n_classes": 30}, r"client \d+: dataset holds classes \[[\d, ]+\], "
                            r"the checkpoint was trained on \[[\d, ]+\]"),
    ],
)
def test_eval_on_a_mismatched_dataset_exits_with_config_code(
    change, pattern, trained, tmp_path, monkeypatch, capsys
):
    _, _, ckpt = trained
    other = tmp_path / "other"
    _datagen({**TINY, **change}, other, tmp_path, monkeypatch)
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(other)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert re.search(rf"config error: {pattern}", out.err)
    assert out.out == ""


def test_eval_names_a_client_whose_feature_dimension_differs(trained, monkeypatch, capsys):
    from flic.datagen import load_clients, save_clients

    _, data, ckpt = trained
    datasets, n_classes = load_clients(data)
    datasets[4].features = datasets[4].features[:, :-1]
    save_clients(datasets, data, n_classes)
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == cli.EXIT_CONFIG
    assert re.search(r"config error: client 4: dataset features have dimension \d+, "
                     r"the checkpoint's embedding takes \d+", capsys.readouterr().err)


def _rewrite_npz(path, **changes):
    """Rewrite an npz file with some arrays replaced; None drops one."""
    with np.load(path) as arrays:
        kept = dict(arrays)
    kept.update(changes)
    np.savez(path, **{k: v for k, v in kept.items() if v is not None})


def _damage(kind, data, ckpt):
    """Damage one file of the dataset or the checkpoint; returns its path."""
    if kind == "manifest not JSON":
        (data / "manifest.json").write_text('{"clients": [0, 1')
        return data / "manifest.json"
    if kind == "manifest without clients":
        (data / "manifest.json").write_text('{"n_classes": 20}')
        return data / "manifest.json"
    if kind == "npz without client0.labels":
        _rewrite_npz(data / "arrays.npz", **{"client0.labels": None})
        return data / "arrays.npz"
    if kind == "npz not an npz":
        (data / "arrays.npz").write_text("not an npz file")
        return data / "arrays.npz"
    if kind == "labels outside the classes":
        with np.load(data / "arrays.npz") as arrays:
            labels = arrays["client0.labels"] + 100
        _rewrite_npz(data / "arrays.npz", **{"client0.labels": labels})
        return data / "arrays.npz"
    if kind == "client 0 with no rows":
        with np.load(data / "arrays.npz") as arrays:
            empty = {f"client0.{name}": arrays[f"client0.{name}"][:0]
                     for name in ("features", "labels", "classes", "train_idx", "test_idx")}
        _rewrite_npz(data / "arrays.npz", **empty)
        return data / "arrays.npz"
    if kind == "meta not JSON":
        (ckpt / "meta.json").write_text('{"round": 1,')
        return ckpt / "meta.json"
    if kind == "non-finite layer":
        with np.load(ckpt / "arrays.npz") as arrays:
            W = arrays["alpha.layer0.W"].copy()
        W[0, 0] = np.nan
        _rewrite_npz(ckpt / "arrays.npz", **{"alpha.layer0.W": W})
        return ckpt / "arrays.npz"
    raise AssertionError(kind)


@pytest.mark.parametrize(
    "command, kind",
    [
        ("eval", "manifest not JSON"),
        ("eval", "manifest without clients"),
        ("eval", "npz without client0.labels"),
        ("eval", "npz not an npz"),
        ("eval", "labels outside the classes"),
        ("eval", "meta not JSON"),
        ("eval", "non-finite layer"),
        ("eval", "client 0 with no rows"),
        ("run", "manifest not JSON"),
        ("run", "client 0 with no rows"),
        ("onboard", "meta not JSON"),
        ("onboard", "client 0 with no rows"),
    ],
)
def test_malformed_dataset_or_checkpoint_exits_with_io_code(command, kind, trained, tmp_path,
                                                            capsys):
    config, data, ckpt = trained
    damaged = _damage(kind, data, ckpt)
    argv = {
        "eval": ["eval", "--checkpoint", str(ckpt), "--data", str(data)],
        "run": ["run", "--config", str(config), "--out", str(tmp_path / "again")],
        "onboard": ["onboard", "--config", str(config), "--checkpoint", str(ckpt),
                    "--data", str(data), "--client-id", "0"],
    }[command]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_IO
    out = capsys.readouterr()
    assert out.err.startswith("i/o error: malformed ") and str(damaged) in out.err
    assert out.out == ""


def _break_client0(kind, data):
    """Make client 0 of the dataset directory inconsistent in one way."""
    with np.load(data / "arrays.npz") as arrays:
        train, labels = arrays["client0.train_idx"].copy(), arrays["client0.labels"]
        classes = arrays["client0.classes"]
    if kind == "manifest n_classes below the held classes":
        manifest = json.loads((data / "manifest.json").read_text())
        (data / "manifest.json").write_text(json.dumps({**manifest, "n_classes": 5}))
        assert classes.max() >= 5
        return
    if kind == "train index past the rows":
        train[0] = 10**6
    elif kind == "train index -1":
        train[0] = -1
    elif kind == "held class without a training row":
        train = train[labels[train] != classes[0]]
    _rewrite_npz(data / "arrays.npz", **{"client0.train_idx": train})


@pytest.mark.parametrize(
    "kind, message",
    [
        ("train index past the rows", "train_idx outside [0, "),
        ("train index -1", "train_idx outside [0, "),
        ("manifest n_classes below the held classes", "outside [0, 5)"),
        ("held class without a training row", "have no training row"),
    ],
)
def test_inconsistent_dataset_directory_exits_with_io_code(kind, message, trained, tmp_path,
                                                           capsys):
    """Indices and classes are checked against the rows and the class count
    when a dataset directory is read, not when training reaches them."""
    config, data, _ = trained
    _break_client0(kind, data)
    capsys.readouterr()
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "again")]) \
        == cli.EXIT_IO
    out = capsys.readouterr()
    assert out.err.startswith("i/o error: malformed ") and str(data / "arrays.npz") in out.err
    assert message in out.err
