import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flic
from flic import cli
from flic.datagen import CLIENT_ARRAYS, load_clients, save_clients


def test_diverging_run_exits_with_divergence_code(tmp_path, capsys):
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
def test_theory_sample_counts_below_one_exit_with_config_code(values, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert "at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


def _run(values, tmp_path, monkeypatch, env=None):
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
def test_class_pool_smaller_than_its_holders_exits_with_config_code(command, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"samples_per_class": 2, "clients": 20, "rounds": 1}))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
    assert re.search(r"config error: samples_per_class: class \d+ pool of 2 samples",
                     capsys.readouterr().err)
    assert not (out / "summary.json").exists() and not (out / "arrays.npz").exists()


@pytest.mark.parametrize("command", ["run", "datagen"])
def test_single_row_class_slices_exit_with_config_code(command, tmp_path, capsys):
    """Every class has one holder and one row, so no client has a test row."""
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
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: seed: must be >= 0")
    assert not out.exists()


def test_unwritable_output_directory_exits_with_io_code(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory")
    values = {"mode": "theory", "theory_rounds": 3}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    code = cli.main(["run", "--config", str(config), "--out", str(blocker / "out")])
    assert code == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert blocker.read_text() == "a regular file, not a directory"


def _file_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_datagen_run_eval_onboard_end_to_end(tmp_path, capsys):
    """A dataset directory feeds ``run``; ``eval`` on the checkpoint prints
    the accuracies of summary.json; ``onboard`` leaves the checkpoint as
    it was."""
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


@pytest.mark.parametrize("mode", ["flic", "local"])
def test_training_never_imports_numpy_ma(mode, tmp_path):
    """``np.unique`` imports ``numpy.ma`` on its first call, which costs a
    fresh process tens of milliseconds; a training run takes its classes
    from a bincount and never pays it."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "clients": 20, "samples_per_class": 20, "rounds": 1, "participation": 0.25,
        "latent_dim": 6, "hidden_dim": 8, "local_steps": 2,
    }))
    env = {k: v for k, v in os.environ.items() if not k.startswith("FLIC_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(flic.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    script = ("import sys; from flic import cli; code = cli.main(sys.argv[1:]); "
              "print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", script, "run", "--config", str(config), "--mode", mode,
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == [str(cli.EXIT_OK), "False"]
    assert (tmp_path / "out" / "summary.json").exists()


def test_theory_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["theory"])


TINY = {"clients": 20, "samples_per_class": 20, "rounds": 1, "participation": 0.25,
        "latent_dim": 6, "hidden_dim": 8, "local_steps": 2}


def _datagen(values, out, tmp_path):
    config = tmp_path / f"{out.name}.json"
    config.write_text(json.dumps(values))
    assert cli.main(["datagen", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    return config


@pytest.fixture
def trained(tmp_path):
    """(config, dataset directory, checkpoint) of a one-round run."""
    data, out = tmp_path / "data", tmp_path / "out"
    config = _datagen(TINY, data, tmp_path)
    config.write_text(json.dumps({**TINY, "dataset_path": str(data)}))
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    return config, data, out / "checkpoint"



@pytest.mark.parametrize("mode", ["flic", "local"])
def test_a_reversed_manifest_writes_the_same_outputs(mode, tmp_path):
    """The run depends on the set of clients, not on the order in which
    the manifest lists them; ``metrics.csv`` is compared without its
    ``wall_ms`` column."""
    data, reversed_data = tmp_path / "data", tmp_path / "reversed"
    config = _datagen(TINY, data, tmp_path)
    datasets, n_classes = load_clients(data)
    save_clients(datasets[::-1], reversed_data, n_classes)
    outputs = []
    for source in (data, reversed_data):
        config.write_text(json.dumps({**TINY, "dataset_path": str(source)}))
        out = tmp_path / f"out_{source.name}"
        assert cli.main(["run", "--config", str(config), "--mode", mode, "--out", str(out)]) \
            == cli.EXIT_OK
        files = _file_bytes(out)
        metrics = files.pop(Path("metrics.csv")).decode().splitlines()
        wall = metrics[0].split(",").index("wall_ms")
        files["metrics"] = [line.split(",")[:wall] + line.split(",")[wall + 1:]
                            for line in metrics]
        outputs.append(files)
    assert outputs[1] == outputs[0]

def test_onboard_negative_rounds_exits_with_config_code(trained, capsys):
    config, data, ckpt = trained
    argv = ["onboard", "--config", str(config), "--checkpoint", str(ckpt), "--data", str(data),
            "--client-id", "0", "--rounds", "-5"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "config error: --rounds: must be >= 0, got -5" in out.err
    assert "accuracy" not in out.out


def test_onboard_client_outside_the_anchor_classes_exits_with_config_code(
    trained, tmp_path, capsys
):
    from flic.datagen import load_clients

    config, _, ckpt = trained
    wide = tmp_path / "wide"
    _datagen({**TINY, "n_classes": 30}, wide, tmp_path)
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
    change, pattern, trained, tmp_path, capsys
):
    _, _, ckpt = trained
    other = tmp_path / "other"
    _datagen({**TINY, **change}, other, tmp_path)
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(other)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert re.search(rf"config error: {pattern}", out.err)
    assert out.out == ""


def test_eval_of_a_client_missing_from_the_dataset_exits_with_config_code(trained, capsys):
    from flic.datagen import load_clients, save_clients

    _, data, ckpt = trained
    datasets, n_classes = load_clients(data)
    save_clients([ds for ds in datasets if ds.client_id != 5], data, n_classes)
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert out.err == "config error: checkpoint client 5 missing from dataset\n"
    assert out.out == ""


def test_onboard_of_a_client_missing_from_the_dataset_exits_with_config_code(trained, capsys):
    config, data, ckpt = trained
    argv = ["onboard", "--config", str(config), "--checkpoint", str(ckpt), "--data", str(data),
            "--client-id", "999"]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert out.err == "config error: client 999 not present in dataset\n"
    assert out.out == ""


def test_eval_names_a_client_whose_feature_dimension_differs(trained, capsys):
    from flic.datagen import load_clients, save_clients

    _, data, ckpt = trained
    datasets, n_classes = load_clients(data)
    datasets[4].X_train = datasets[4].X_train[:, :-1]
    datasets[4].X_test = datasets[4].X_test[:, :-1]
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


def _rewrite_client0(data, **changes):
    """Write the dataset directory again with client 0's arrays replaced:
    each change maps client 0 to the new array of its name. The writer runs
    no checks, so a broken client is written as it is."""
    datasets, n_classes = load_clients(data)
    new = {name: change(datasets[0]) for name, change in changes.items()}
    for name, value in new.items():
        setattr(datasets[0], name, value)
    save_clients(datasets, data, n_classes)


def _damage(kind, data, ckpt):
    """Damage one file of the dataset or the checkpoint; returns its path."""
    if kind == "manifest not JSON":
        (data / "manifest.json").write_text('{"clients": [0, 1')
        return data / "manifest.json"
    if kind == "manifest without clients":
        (data / "manifest.json").write_text('{"n_classes": 20}')
        return data / "manifest.json"
    if kind == "npz without the labels member":
        _rewrite_npz(data / "arrays.npz", y_train=None)
        return data / "arrays.npz"
    if kind == "npz not an npz":
        (data / "arrays.npz").write_text("not an npz file")
        return data / "arrays.npz"
    if kind == "labels outside the classes":
        _rewrite_client0(data, y_train=lambda ds: ds.y_train + 100)
        return data / "arrays.npz"
    if kind == "client 0 with no rows":
        _rewrite_client0(data, **{name: lambda ds, name=name: getattr(ds, name)[:0]
                                  for name in CLIENT_ARRAYS})
        return data / "arrays.npz"
    if kind == "manifest with no clients":
        # consistent in every other way: no sizes and empty members
        manifest = json.loads((data / "manifest.json").read_text())
        (data / "manifest.json").write_text(json.dumps(
            {**manifest, "clients": [], "sizes": {name: [] for name in manifest["sizes"]}}
        ))
        with np.load(data / "arrays.npz") as arrays:
            empty = {name: arrays[name][:0] for name in arrays.files}
        _rewrite_npz(data / "arrays.npz", **empty)
        return data / "manifest.json"
    if kind == "meta with no clients":
        meta = json.loads((ckpt / "meta.json").read_text())
        (ckpt / "meta.json").write_text(json.dumps({**meta, "clients": []}))
        return ckpt / "meta.json"
    if kind == "meta not JSON":
        (ckpt / "meta.json").write_text('{"round": 1,')
        return ckpt / "meta.json"
    if kind == "non-finite layer":
        with np.load(ckpt / "arrays.npz") as arrays:
            W = arrays["alpha.layer0.W"].copy()
        W[0, 0] = np.nan
        _rewrite_npz(ckpt / "arrays.npz", **{"alpha.layer0.W": W})
        return ckpt / "arrays.npz"
    if kind == "alpha without layers":
        meta = json.loads((ckpt / "meta.json").read_text())
        (ckpt / "meta.json").write_text(json.dumps({**meta, "alpha_activations": []}))
        return ckpt / "meta.json"
    if kind == "head with 3 input rows":
        with np.load(ckpt / "arrays.npz") as arrays:
            W = arrays["client0.head.layer0.W"][:3]
        _rewrite_npz(ckpt / "arrays.npz", **{"client0.head.layer0.W": W})
        return ckpt / "arrays.npz"
    if kind == "anchors at latent 4":
        with np.load(ckpt / "arrays.npz") as arrays:
            means, factors = arrays["anchors.means"][:, :4], arrays["anchors.factors"][:, :4, :4]
        _rewrite_npz(ckpt / "arrays.npz", **{"anchors.means": means, "anchors.factors": factors})
        return ckpt / "arrays.npz"
    raise AssertionError(kind)


@pytest.mark.parametrize(
    "command, kind",
    [
        ("eval", "manifest not JSON"),
        ("eval", "manifest without clients"),
        ("eval", "npz without the labels member"),
        ("eval", "npz not an npz"),
        ("eval", "labels outside the classes"),
        ("eval", "meta not JSON"),
        ("eval", "non-finite layer"),
        ("eval", "client 0 with no rows"),
        ("eval", "alpha without layers"),
        ("eval", "head with 3 input rows"),
        ("eval", "anchors at latent 4"),
        ("eval", "manifest with no clients"),
        ("eval", "meta with no clients"),
        ("run", "manifest not JSON"),
        ("run", "client 0 with no rows"),
        ("run", "manifest with no clients"),
        ("run-local", "manifest with no clients"),
        ("onboard", "meta not JSON"),
        ("onboard", "manifest with no clients"),
        ("onboard", "meta with no clients"),
        ("onboard", "client 0 with no rows"),
        ("onboard", "head with 3 input rows"),
        ("onboard", "anchors at latent 4"),
    ],
)
def test_malformed_dataset_or_checkpoint_exits_with_io_code(command, kind, trained, tmp_path,
                                                            capsys):
    config, data, ckpt = trained
    damaged = _damage(kind, data, ckpt)
    argv = {
        "eval": ["eval", "--checkpoint", str(ckpt), "--data", str(data)],
        "run": ["run", "--config", str(config), "--out", str(tmp_path / "again")],
        "run-local": ["run", "--config", str(config), "--mode", "local",
                      "--out", str(tmp_path / "again")],
        "onboard": ["onboard", "--config", str(config), "--checkpoint", str(ckpt),
                    "--data", str(data), "--client-id", "0"],
    }[command]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_IO
    out = capsys.readouterr()
    assert out.err.startswith("i/o error: malformed ") and str(damaged) in out.err
    assert out.out == ""


def _break_dataset(kind, data):
    """Make the dataset directory inconsistent in one way."""
    manifest = json.loads((data / "manifest.json").read_text())
    sizes = manifest["sizes"]
    if kind == "per-client layout":
        # one member per client array, as older versions wrote
        datasets, _ = load_clients(data)
        np.savez(data / "arrays.npz", **{
            f"client{ds.client_id}.{name}": getattr(ds, name)
            for ds in datasets
            for name in CLIENT_ARRAYS
        })
        del manifest["sizes"]
    elif kind == "five-member layout":
        # every row with index arrays into them, as older versions wrote
        datasets, _ = load_clients(data)
        rows = [len(ds.y_train) + len(ds.y_test) for ds in datasets]
        old = {
            "features": [np.vstack([ds.X_train, ds.X_test]).ravel() for ds in datasets],
            "labels": [np.r_[ds.y_train, ds.y_test] for ds in datasets],
            "classes": [ds.classes for ds in datasets],
            "train_idx": [np.arange(len(ds.y_train)) for ds in datasets],
            "test_idx": [np.arange(len(ds.y_train), n) for ds, n in zip(datasets, rows)],
        }
        np.savez(data / "arrays.npz", **{name: np.concatenate(a) for name, a in old.items()})
        manifest["sizes"] = {"rows": rows, "width": [ds.dim for ds in datasets],
                             **{name: [len(a) for a in old[name]] for name in list(old)[2:]}}
    elif kind == "manifest n_classes below the held classes":
        assert load_clients(data)[0][0].classes.max() >= 5
        manifest["n_classes"] = 5
    elif kind == "one row too many for client 0":
        sizes["train_rows"][0] += 1
    elif kind == "negative test_rows length":
        sizes["test_rows"][0] = -sizes["test_rows"][0]
    elif kind == "sizes of 19 clients":
        manifest["sizes"] = {name: column[1:] for name, column in sizes.items()}
    elif kind == "a width of 1.5":
        sizes["width"][0] = 1.5
    elif kind == "client 1 listed twice":
        manifest["clients"][0] = 1
    elif kind == "test label without a training row":
        def untrained_first(ds):
            untrained = min(set(range(manifest["n_classes"])) - set(ds.classes.tolist()))
            return np.r_[untrained, ds.y_test[1:]]

        _rewrite_client0(data, y_test=untrained_first)
        return
    else:
        raise AssertionError(kind)
    (data / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "kind, message",
    [
        ("manifest n_classes below the held classes", "outside [0, 5)"),
        ("test label without a training row", "have no training row"),
        ("one row too many for client 0", "values of X_train"),
        ("negative test_rows length", "negative length"),
        ("sizes of 19 clients", "for each of 20 clients"),
        ("a width of 1.5", "must be integers"),
        ("client 1 listed twice", "listed twice"),
        ("per-client layout", "write the directory again with `flic datagen`"),
        ("five-member layout", "write the directory again with `flic datagen`"),
    ],
)
def test_inconsistent_dataset_directory_exits_with_io_code(kind, message, trained, tmp_path,
                                                           capsys):
    """Sizes are checked against the members, and labels against the
    class count and the training classes, when a dataset directory is
    read, not when training reaches them."""
    config, data, _ = trained
    _break_dataset(kind, data)
    capsys.readouterr()
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "again")]) \
        == cli.EXIT_IO
    out = capsys.readouterr()
    assert out.err.startswith("i/o error: malformed ") and str(data / "arrays.npz") in out.err
    assert message in out.err


# A tiny valid run, and for each key the edges of its range, a step past
# them, and extremes a tiny run can still afford.
EDGE_BASE = {"clients": 8, "n_classes": 4, "classes_per_client": 2, "samples_per_class": 20,
             "rounds": 1, "participation": 0.5, "local_steps": 1, "batch_size": 10,
             "anchor_samples": 10, "latent_dim": 3, "hidden_dim": 4, "noise_dim_max": 2,
             "map_dim_min": 2, "map_dim_max": 4}
EDGES = {
    "seed": [-1, 0, 2**63 - 1],
    "workers": [0, 1, 2],
    "variant": ["lm", "nf", "xx"],
    "rounds": [-1, 0, 2],
    "participation": [0.0, 1e-9, 1.0, 1.5],
    "local_steps": [0, 1, 3],
    "batch_size": [0, 1, 10**9],
    "lr": [-1.0, 0.0, 1e-12, 1e3],
    "lambda1": [-1.0, 0.0, 1e3],
    "lambda2": [-1.0, 0.0, 1e3],
    "anchor_samples": [0, 1, 2],
    "eps": [0.0, 1e-300, 1e3],
    "final_local_rounds": [-1, 0, 1],
    "n_classes": [0, 1, 2, 16],
    "samples_per_class": [0, 1, 2, 3],
    "base_dim": [0, 1, 30],
    "clients": [0, 1, 2, 3],
    "classes_per_client": [0, 1, 4, 5],
    "noise_dim_min": [-1, 0, 3],
    "noise_dim_max": [0, 1, 40],
    "map_dim_min": [0, 1, 5],
    "map_dim_max": [1, 40],
    "imbalance_min": [0.0, 1e-9, 1.0],
    "imbalance_max": [1e-9, 1.0, 1.5],
    "mean_scale": [-1.0, 0.0, 1e9],
    "test_fraction": [0.0, 1e-9, 0.999, 1.0],
    "latent_dim": [0, 1, 40],
    "hidden_dim": [0, 1, 40],
    "cov_learnable": [False, True],
    "anchor_init_scale": [None, 0.0, 1e-9, 1e9],
}


@st.composite
def edge_configs(draw):
    keys = draw(st.lists(st.sampled_from(sorted(EDGES)), unique=True, max_size=3))
    return {**EDGE_BASE, **{key: draw(st.sampled_from(EDGES[key])) for key in keys}}


@settings(max_examples=50, derandomize=True, deadline=None)
@example(values=EDGE_BASE, mode="flic")
@given(values=edge_configs(), mode=st.sampled_from(["flic", "local"]))
def test_run_exits_only_with_documented_codes(tmp_path_factory, values, mode):
    """``flic run`` ends in 0, 2, 3 or 4 whatever the config; any other
    exception, a warning included, fails the test."""
    tmp = tmp_path_factory.mktemp("edge")
    config = tmp / "config.json"
    config.write_text(json.dumps(values))
    code = cli.main(["run", "--config", str(config), "--mode", mode, "--out", str(tmp / "out")])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DIVERGENCE, cli.EXIT_IO)
    if values == EDGE_BASE:
        assert code == cli.EXIT_OK


# The same for theory mode: a tiny valid run, and edges of the theory_*
# ranges. The base's test set is shorter than the default latent
# dimension plus one, 6, so its R factor is padded with a zero row.
THEORY_EDGE_BASE = {"theory_clients": 4, "theory_samples": 20, "theory_test_samples": 5,
                    "theory_rounds": 2}
THEORY_EDGES = {
    "theory_clients": [0, 1, 3, 20],
    "theory_samples": [0, 1, 2],
    "theory_test_samples": [0, 1, 2, 5, 6],
    "theory_latent_dim": [0, 1, 3, 8, 9],
    "theory_head_dim": [0, 1, 5, 6],
    "theory_raw_dim_min": [0, 4, 5, 16, 17],
    "theory_raw_dim_max": [4, 8, 40],
    "theory_participation": [0.0, 1e-9, 0.5, 1.0, 1.5],
    "theory_rounds": [-1, 0, 3],
    "theory_step_size": [-1.0, 0.0, 1e-12, 1e3],
}


@st.composite
def theory_edge_configs(draw):
    keys = draw(st.lists(st.sampled_from(sorted(THEORY_EDGES)), unique=True, max_size=3))
    return {**THEORY_EDGE_BASE, **{key: draw(st.sampled_from(THEORY_EDGES[key])) for key in keys}}


@settings(max_examples=50, derandomize=True, deadline=None)
@example(values=THEORY_EDGE_BASE)
@given(values=theory_edge_configs())
def test_theory_run_exits_only_with_documented_codes(tmp_path_factory, values):
    """``flic run --mode theory`` ends in 0, 2, 3 or 4 whatever the
    theory_* settings; any other exception, a warning included, fails the
    test."""
    tmp = tmp_path_factory.mktemp("theory_edge")
    config = tmp / "config.json"
    config.write_text(json.dumps(values))
    code = cli.main(["run", "--config", str(config), "--mode", "theory",
                     "--out", str(tmp / "out")])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DIVERGENCE, cli.EXIT_IO)
    if values == THEORY_EDGE_BASE:
        assert code == cli.EXIT_OK
