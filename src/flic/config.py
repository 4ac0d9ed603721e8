"""Flat key/value experiment configuration.

Config files are single flat JSON objects; every key is optional and
falls back to a documented default. Unknown keys are rejected.
Environment variables named ``FLIC_<KEY>`` (uppercased) override file
values; command-line flags override both. ``serialize_config`` followed
by ``parse_config`` is the identity.

``ExperimentConfig`` holds the top-level settings and the three
component configs a run uses: the round schedule and loss weights
(``RoundConfig``), the toy dataset (``ToyDatasetSpec``) and the theory
harness (``TheoryConfig``). ``COMPONENT_KEYS`` is the one place a flat
key of a component is defined; the component dataclass gives its
default, its type and its range check. All three components are built,
and so validated, in every mode.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .datagen import ToyDatasetSpec
from .federation import RoundConfig
from .theory import TheoryConfig

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "serialize_config"]

ENV_PREFIX = "FLIC_"

MODES = ("flic", "local", "theory")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass
class ExperimentConfig:
    mode: str = "flic"
    seed: int = 0
    out_dir: str = "out"
    workers: int = 1
    dataset_path: str | None = None  # a ``flic datagen`` directory instead of ``data``
    latent_dim: int = 64
    hidden_dim: int = 64
    cov_learnable: bool = False
    anchor_init_scale: float | None = None
    training: RoundConfig = field(default_factory=RoundConfig)
    data: ToyDatasetSpec = field(default_factory=ToyDatasetSpec)
    theory: TheoryConfig = field(default_factory=TheoryConfig)

    def theory_config(self) -> TheoryConfig:
        # The benchmark's child process (perfbench/child.py) calls this.
        return self.theory


# Flat key -> (component, field), or (component, field, index) for one
# end of a range pair. Each component's ``seed`` is the top-level seed.
COMPONENT_KEYS = {
    "rounds": ("training", "rounds"),
    "participation": ("training", "participation"),
    "local_steps": ("training", "local_steps"),
    "batch_size": ("training", "batch_size"),
    "lr": ("training", "lr"),
    "lambda1": ("training", "lam1"),
    "lambda2": ("training", "lam2"),
    "anchor_samples": ("training", "anchor_samples"),
    "eps": ("training", "eps"),
    "final_local_rounds": ("training", "final_local_rounds"),
    "variant": ("data", "variant"),
    "n_classes": ("data", "n_classes"),
    "samples_per_class": ("data", "samples_per_class"),
    "base_dim": ("data", "base_dim"),
    "clients": ("data", "clients"),
    "classes_per_client": ("data", "classes_per_client"),
    "noise_dim_min": ("data", "noise_dim_range", 0),
    "noise_dim_max": ("data", "noise_dim_range", 1),
    "map_dim_min": ("data", "map_dim_range", 0),
    "map_dim_max": ("data", "map_dim_range", 1),
    "imbalance_min": ("data", "imbalance_range", 0),
    "imbalance_max": ("data", "imbalance_range", 1),
    "mean_scale": ("data", "mean_scale"),
    "test_fraction": ("data", "test_fraction"),
    "theory_clients": ("theory", "clients"),
    "theory_samples": ("theory", "samples_per_client"),
    "theory_test_samples": ("theory", "test_samples"),
    "theory_latent_dim": ("theory", "latent_dim"),
    "theory_head_dim": ("theory", "head_dim"),
    "theory_raw_dim_min": ("theory", "raw_dim_range", 0),
    "theory_raw_dim_max": ("theory", "raw_dim_range", 1),
    "theory_participation": ("theory", "participation"),
    "theory_rounds": ("theory", "rounds"),
    "theory_step_size": ("theory", "step_size"),
}
COMPONENTS = ("training", "data", "theory")
_OPTIONAL = {"dataset_path": str, "anchor_init_scale": float}


def _flat_value(cfg: ExperimentConfig, key: str):
    if key not in COMPONENT_KEYS:
        return getattr(cfg, key)
    component, name, *index = COMPONENT_KEYS[key]
    value = getattr(getattr(cfg, component), name)
    return value[index[0]] if index else value


_DEFAULTS = ExperimentConfig()
_TYPES = {
    **{
        f.name: _OPTIONAL.get(f.name) or type(getattr(_DEFAULTS, f.name))
        for f in fields(ExperimentConfig)
        if f.name not in COMPONENTS
    },
    **{key: type(_flat_value(_DEFAULTS, key)) for key in COMPONENT_KEYS},
}


def _coerce(key: str, value):
    target_type = _TYPES[key]
    if value is None and key in _OPTIONAL:
        return None
    if target_type is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{key}: expected a boolean, got {value!r}")
    if target_type is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
        return value
    if target_type is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key}: expected a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{key}: expected a finite number, got {value!r}")
        return float(value)
    if not isinstance(value, str):
        raise ConfigError(f"{key}: expected a string, got {value!r}")
    return value


def _parse_env(key: str, raw: str):
    """The value of ``FLIC_<KEY>`` as the Python value ``_coerce`` checks."""
    target_type = _TYPES[key]
    if target_type is bool:
        low = raw.strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: cannot parse boolean from {raw!r}")
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return raw


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """Top-level checks; each component checks its own fields."""
    if cfg.mode not in MODES:
        raise ConfigError(f"mode: must be one of {MODES}")
    if cfg.workers != 1:
        raise ConfigError("workers: must be 1; clients run one after another")
    if cfg.latent_dim < 1:
        raise ConfigError("latent_dim: must be >= 1")
    if cfg.hidden_dim < 1:
        raise ConfigError("hidden_dim: must be >= 1")
    return cfg


def _assemble(values: dict) -> ExperimentConfig:
    """Build and validate a config from checked flat values."""
    top = {key: value for key, value in values.items() if key not in COMPONENT_KEYS}
    seed = top.get("seed", _DEFAULTS.seed)
    changes = {component: {"seed": seed} for component in COMPONENTS}
    for key, value in values.items():
        if key not in COMPONENT_KEYS:
            continue
        component, name, *index = COMPONENT_KEYS[key]
        if index:
            pair = changes[component].get(name, getattr(getattr(_DEFAULTS, component), name))
            value = (value, pair[1]) if index[0] == 0 else (pair[0], value)
        changes[component][name] = value
    for component in COMPONENTS:
        default = getattr(_DEFAULTS, component)
        try:
            top[component] = replace(default, **changes[component])
        except ValueError as exc:
            raise ConfigError(f"{type(default).__name__}: {exc}") from exc
    return _validate(ExperimentConfig(**top))


def build_config(
    values: dict, apply_env: bool = True, overrides: dict | None = None
) -> ExperimentConfig:
    """Validate a flat dict of values against the documented keys.

    ``FLIC_<KEY>`` environment variables (when ``apply_env``) take
    precedence over ``values``, and ``overrides`` (command-line flags)
    over both.
    """
    overrides = overrides or {}
    unknown = sorted((set(values) | set(overrides)) - set(_TYPES))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    merged = {key: _coerce(key, value) for key, value in values.items()}
    if apply_env:
        for key in _TYPES:
            raw = os.environ.get(ENV_PREFIX + key.upper())
            if raw is not None:
                merged[key] = _coerce(key, _parse_env(key, raw))
    merged.update((key, _coerce(key, value)) for key, value in overrides.items())
    return _assemble(merged)


def parse_config(
    path, apply_env: bool = True, overrides: dict | None = None
) -> ExperimentConfig:
    """Load a config file; an empty file means all defaults."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    text = p.read_text().strip()
    if not text:
        values = {}
    else:
        try:
            values = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError("config must be a flat JSON object")
    return build_config(values, apply_env=apply_env, overrides=overrides)


def serialize_config(cfg: ExperimentConfig) -> str:
    doc = {key: _flat_value(cfg, key) for key in _TYPES}
    return json.dumps(doc, indent=2, sort_keys=True)
