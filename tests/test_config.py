"""The flat config format: keys and defaults, round trip, precedence of
file, environment and flags, and the rejection of invalid values."""

import json
import math
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flic import cli
from flic.config import ConfigError, build_config, parse_config, serialize_config
from flic.theory import TheoryConfig

# Every key of the flat format with its default; a change to this dict is
# a change to the file format.
DEFAULTS = {
    "anchor_samples": 100,
    "base_dim": 5,
    "batch_size": 100,
    "classes_per_client": 3,
    "clients": 100,
    "cov_learnable": False,
    "dataset_path": None,
    "eps": 1e-06,
    "final_local_rounds": 0,
    "hidden_dim": 64,
    "imbalance_max": 1.0,
    "imbalance_min": 0.1,
    "lambda1": 0.001,
    "lambda2": 0.001,
    "latent_dim": 64,
    "local_steps": 10,
    "lr": 0.001,
    "map_dim_max": 50,
    "map_dim_min": 5,
    "mean_scale": 2.0,
    "mode": "flic",
    "n_classes": 20,
    "noise_dim_max": 10,
    "noise_dim_min": 1,
    "out_dir": "out",
    "participation": 0.1,
    "rounds": 50,
    "samples_per_class": 2000,
    "seed": 0,
    "test_fraction": 0.2,
    "theory_clients": 20,
    "theory_head_dim": 3,
    "theory_latent_dim": 5,
    "theory_participation": 1.0,
    "theory_raw_dim_max": 16,
    "theory_raw_dim_min": 8,
    "theory_rounds": 100,
    "theory_samples": 500,
    "theory_step_size": 0.05,
    "theory_test_samples": 200,
    "variant": "lm",
    "workers": 1,
}


def flat(cfg) -> dict:
    return json.loads(serialize_config(cfg))


def test_defaults_are_the_documented_keys_and_values():
    doc = flat(build_config({}, apply_env=False))
    assert len(DEFAULTS) == 42
    assert doc == DEFAULTS
    # types too: 1e-06 == 1e-6 either way, but 1 == 1.0 would hide a float
    assert {k: type(v) for k, v in doc.items()} == {k: type(v) for k, v in DEFAULTS.items()}


def test_readme_table_lists_every_key_with_its_default():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", readme, flags=re.MULTILINE)
    table = {key: json.loads(default) for key, default in rows}
    doc = flat(build_config({}, apply_env=False))
    assert len(rows) == len(table) and table == doc
    assert {k: type(v) for k, v in table.items()} == {k: type(v) for k, v in doc.items()}


def test_serialized_defaults_are_sorted_two_space_json():
    text = serialize_config(build_config({}, apply_env=False))
    assert text == json.dumps(DEFAULTS, indent=2, sort_keys=True)


def test_empty_file_means_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("")
    assert parse_config(path) == build_config({}, apply_env=False)


@st.composite
def valid_values(draw):
    """A flat config that passes validation, each key set or left out."""
    n_classes = draw(st.integers(1, 30))
    per_client = draw(st.integers(1, n_classes))
    theory_latent = draw(st.integers(1, 8))
    theory_head = draw(st.integers(1, theory_latent))
    theory_clients = draw(st.integers(theory_head, 40))
    theory_part = draw(st.floats(theory_head / theory_clients, 1.0))
    if math.floor(theory_part * theory_clients) < theory_head:
        theory_part = 1.0
    noise = sorted(draw(st.lists(st.integers(0, 20), min_size=2, max_size=2)))
    maps = sorted(draw(st.lists(st.integers(1, 60), min_size=2, max_size=2)))
    imbalance = sorted(draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2)))
    raw_min = draw(st.integers(theory_latent, theory_latent + 10))
    text = st.text(max_size=8)
    candidates = {
        "mode": st.sampled_from(["flic", "local", "theory"]),
        "seed": st.integers(0, 2**31),
        "out_dir": text,
        "workers": st.just(1),
        "dataset_path": st.none() | text,
        "variant": st.sampled_from(["nf", "lm"]),
        "n_classes": st.just(n_classes),
        "samples_per_class": st.integers(1, 5000),
        "base_dim": st.integers(1, 10),
        "clients": st.integers(-(-n_classes // per_client), 200),
        "classes_per_client": st.just(per_client),
        "noise_dim_min": st.just(noise[0]),
        "noise_dim_max": st.just(noise[1]),
        "map_dim_min": st.just(maps[0]),
        "map_dim_max": st.just(maps[1]),
        "imbalance_min": st.just(imbalance[0]),
        "imbalance_max": st.just(imbalance[1]),
        "mean_scale": st.floats(0.0, 10.0),
        "test_fraction": st.floats(0.01, 0.99),
        "rounds": st.integers(0, 100),
        "participation": st.floats(0.0, 1.0, exclude_min=True),
        "local_steps": st.integers(1, 20),
        "batch_size": st.integers(1, 500),
        "lr": st.floats(0.0, 10.0),
        "lambda1": st.floats(0.0, 10.0),
        "lambda2": st.floats(0.0, 10.0),
        "anchor_samples": st.integers(1, 200),
        "eps": st.floats(1e-12, 1.0),
        "final_local_rounds": st.integers(0, 5),
        "latent_dim": st.integers(1, 128),
        "hidden_dim": st.integers(1, 128),
        "cov_learnable": st.booleans(),
        "theory_clients": st.just(theory_clients),
        "theory_samples": st.integers(1, 1000),
        "theory_test_samples": st.integers(1, 500),
        "theory_latent_dim": st.just(theory_latent),
        "theory_head_dim": st.just(theory_head),
        "theory_raw_dim_min": st.just(raw_min),
        "theory_raw_dim_max": st.integers(raw_min, raw_min + 10),
        "theory_participation": st.just(theory_part),
        "theory_rounds": st.integers(0, 300),
        "theory_step_size": st.floats(1e-6, 1.0),
    }
    assert set(candidates) == set(DEFAULTS)
    # Keys checked against each other are set together, so that a value
    # drawn for one is never checked against the default of another.
    groups = [
        ("n_classes", "classes_per_client", "clients"),
        ("noise_dim_min", "noise_dim_max"),
        ("map_dim_min", "map_dim_max"),
        ("imbalance_min", "imbalance_max"),
        ("theory_clients", "theory_latent_dim", "theory_head_dim", "theory_raw_dim_min",
         "theory_raw_dim_max", "theory_participation"),
    ]
    grouped = {key for group in groups for key in group}
    groups += [(key,) for key in sorted(candidates) if key not in grouped]
    chosen = draw(st.sets(st.sampled_from(groups)))
    return {key: draw(candidates[key]) for group in chosen for key in group}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(valid_values())
def test_serialize_then_parse_is_the_identity(values):
    cfg = build_config(values, apply_env=False)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(serialize_config(cfg))
        assert parse_config(path, apply_env=False) == cfg
    doc = flat(cfg)
    assert {key: doc[key] for key in values} == values


def test_environment_overrides_file_values(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lambda1": 0.5, "noise_dim_min": 2, "cov_learnable": False}))
    monkeypatch.setenv("FLIC_LAMBDA1", "0.25")
    monkeypatch.setenv("FLIC_NOISE_DIM_MIN", "3")
    monkeypatch.setenv("FLIC_COV_LEARNABLE", "yes")
    doc = flat(parse_config(path))
    assert (doc["lambda1"], doc["noise_dim_min"], doc["cov_learnable"]) == (0.25, 3, True)
    doc = flat(parse_config(path, apply_env=False))
    assert (doc["lambda1"], doc["noise_dim_min"], doc["cov_learnable"]) == (0.5, 2, False)


@pytest.mark.parametrize("raw", ["false", "0", "no", " False "])
def test_false_words_in_the_environment_give_false(raw, tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"cov_learnable": True}))
    monkeypatch.setenv("FLIC_COV_LEARNABLE", raw)
    assert parse_config(path).cov_learnable is False


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("FLIC_COV_LEARNABLE", "maybe", "cov_learnable: cannot parse boolean from 'maybe'"),
        ("FLIC_ROUNDS", "2.5", "rounds: invalid literal for int()"),
    ],
)
def test_unparsable_environment_values_exit_with_config_code(name, value, message, tmp_path,
                                                             monkeypatch, capsys):
    path = tmp_path / "config.json"
    # A one-round theory run, were the value accepted.
    path.write_text(json.dumps({"mode": "theory", "theory_rounds": 1}))
    monkeypatch.setenv(name, value)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "config file not found: "),
        ('{"rounds": 1,', "config is not valid JSON: "),
        ("[1, 2]", "config must be a flat JSON object"),
    ],
    ids=["missing", "invalid-json", "json-list"],
)
def test_unreadable_config_file_exits_with_config_code(text, message, tmp_path, capsys):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


def test_a_string_key_rejects_a_number():
    with pytest.raises(ConfigError, match=r"^variant: expected a string, got 3$"):
        build_config({"variant": 3}, apply_env=False)


# Cheap in either mode, so a precedence mistake cannot start a long run.
SMALL_RUN = {"theory_rounds": 1, "rounds": 0, "clients": 20, "samples_per_class": 20}


@pytest.mark.parametrize("level", ["file", "env", "flag"])
def test_flags_override_environment_override_file(level, tmp_path, monkeypatch):
    out = {name: tmp_path / name for name in ("file", "env", "flag")}
    path = tmp_path / "config.json"
    file_mode = "theory" if level == "file" else "flic"
    path.write_text(
        json.dumps({**SMALL_RUN, "seed": 1, "out_dir": str(out["file"]), "mode": file_mode})
    )
    argv = ["run", "--config", str(path)]
    if level in ("env", "flag"):
        monkeypatch.setenv("FLIC_SEED", "2")
        monkeypatch.setenv("FLIC_OUT_DIR", str(out["env"]))
        monkeypatch.setenv("FLIC_MODE", "theory" if level == "env" else "flic")
    if level == "flag":
        argv += ["--seed", "3", "--out", str(out["flag"]), "--mode", "theory"]
    assert cli.main(argv) == cli.EXIT_OK
    summary = json.loads((out[level] / "summary.json").read_text())
    assert summary["seed"] == {"file": 1, "env": 2, "flag": 3}[level]
    assert summary["mode"] == "theory"
    assert [name for name in out if (out[name] / "summary.json").exists()] == [level]


# (values, key): the config is rejected and the message starts with the
# flat key the user wrote, never a component field name; an unknown key
# is listed after "unknown config keys: ".
INVALID = [
    ({"mode": "bogus"}, "mode"),
    ({"seed": -1}, "seed"),
    ({"workers": 0}, "workers"),
    ({"latent_dim": 0}, "latent_dim"),
    ({"hidden_dim": 0}, "hidden_dim"),
    ({"participation": 0.0}, "participation"),
    ({"participation": 1.5}, "participation"),
    ({"rounds": -1}, "rounds"),
    ({"local_steps": 0}, "local_steps"),
    ({"batch_size": 0}, "batch_size"),
    ({"anchor_samples": 0}, "anchor_samples"),
    ({"lambda1": -1.0}, "lambda1"),
    ({"lambda2": -1.0}, "lambda2"),
    ({"eps": 0.0}, "eps"),
    ({"lr": -1.0}, "lr"),
    ({"final_local_rounds": -1}, "final_local_rounds"),
    ({"variant": "xx"}, "variant"),
    ({"classes_per_client": 0}, "classes_per_client"),
    ({"classes_per_client": 21}, "classes_per_client"),
    ({"clients": 5}, "clients"),
    ({"clients": 2}, "clients"),
    ({"n_classes": 400}, "n_classes"),
    ({"n_classes": 2}, "n_classes"),
    ({"noise_dim_max": 0}, "noise_dim_max"),
    ({"noise_dim_min": -1}, "noise_dim_min"),
    ({"noise_dim_min": 11}, "noise_dim_min"),
    ({"map_dim_min": 0}, "map_dim_min"),
    ({"map_dim_min": 60}, "map_dim_min"),
    ({"imbalance_min": 0.0}, "imbalance_min"),
    ({"imbalance_max": 1.5}, "imbalance_max"),
    ({"imbalance_min": 0.9, "imbalance_max": 0.5}, "imbalance_min"),
    ({"test_fraction": 0.0}, "test_fraction"),
    ({"test_fraction": 1.0}, "test_fraction"),
    ({"samples_per_class": 0}, "samples_per_class"),
    ({"base_dim": 0}, "base_dim"),
    ({"mode": "theory", "theory_samples": 0}, "theory_samples"),
    ({"mode": "theory", "theory_test_samples": 0}, "theory_test_samples"),
    ({"mode": "theory", "theory_head_dim": 6}, "theory_head_dim"),
    ({"mode": "theory", "theory_raw_dim_min": 4}, "theory_raw_dim_min"),
    ({"mode": "theory", "theory_participation": 0.0}, "theory_participation"),
    ({"mode": "theory", "theory_clients": 2}, "theory_clients"),
    ({"mode": "theory", "theory_head_dim": 0}, "theory_head_dim"),
    ({"mode": "theory", "theory_raw_dim_max": 6}, "theory_raw_dim_max"),
    ({"mode": "theory", "theory_participation": 0.05}, "theory_participation"),
    ({"theory_rounds": -1}, "theory_rounds"),
    ({"rounds": 1.5}, "rounds"),
    ({"lr": "fast"}, "lr"),
    ({"cov_learnable": 1}, "cov_learnable"),
    ({"no_such_key": 1}, "no_such_key"),
    ({"alpha_epoch": True}, "alpha_epoch"),
    ({"onboard_rounds": -1}, "onboard_rounds"),
    ({"anchor_init_scale": 1.0}, "anchor_init_scale"),
]


@pytest.mark.parametrize(
    "values,key",
    INVALID,
    ids=["-".join(f"{k}={v}" for k, v in values.items()) for values, _ in INVALID],
)
def test_invalid_values_are_rejected_by_name(values, key):
    with pytest.raises(ConfigError) as info:
        build_config(values, apply_env=False)
    message = str(info.value)
    assert re.match(rf"(unknown config keys: )?{re.escape(key)}\b", message), message
    if key.startswith("theory_"):
        # every theory setting the message names is named by its flat key
        bare = "|".join(f.name for f in fields(TheoryConfig))
        assert not re.search(rf"\b({bare})\b", message), message


@pytest.mark.parametrize(
    "values",
    [
        {"mode": "theory", "clients": 5},
        {"mode": "local", "theory_head_dim": 9},
        {"mode": "flic", "theory_head_dim": 9},
        {"mode": "theory", "lambda2": -1.0},
    ],
)
def test_every_component_is_validated_in_every_mode(values):
    with pytest.raises(ConfigError):
        build_config(values, apply_env=False)
