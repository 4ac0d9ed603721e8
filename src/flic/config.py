"""Flat key/value experiment configuration.

Config files are single flat JSON objects; every key is optional and
falls back to a documented default. Unknown keys are rejected.
Environment variables named ``FLIC_<KEY>`` (uppercased) override file
values; command-line flags override both. ``serialize_config`` followed
by ``parse_config`` is the identity.

``ExperimentConfig`` holds the top-level settings and the three
component configs a run uses: the round schedule and loss weights
(``RoundConfig``), the toy dataset (``ToyDatasetSpec``) and the theory
harness (``TheoryConfig``). A setting has one name: a top-level field
is its own key, and a component field's key is its name behind the
component's prefix in ``PREFIXES`` (``theory_`` for the theory harness,
none otherwise), so ``theory_samples`` is ``TheoryConfig.samples``.
Each component's ``seed`` is the top-level seed. The component dataclass
gives a key's default, its type and its range check, whose message
names every setting by its flat key. A check between two settings
leads with one of them; when the user set only the other, that key is
put in front, so every message about a value starts with a key the user
wrote. All three components are built, and so validated, in every mode.
"""

from __future__ import annotations

import json
import math
import os
import re
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


PREFIXES = {"training": "", "data": "", "theory": "theory_"}
_DEFAULTS = ExperimentConfig()
_TOP = [f.name for f in fields(ExperimentConfig) if f.name not in PREFIXES]
_CLAIMS = [
    (prefix + f.name, (component, f.name))
    for component, prefix in PREFIXES.items()
    for f in fields(getattr(_DEFAULTS, component))
    if f.name != "seed"
]
# Flat key -> (component, field).
COMPONENT_KEYS = dict(_CLAIMS)
assert len(COMPONENT_KEYS) == len(_CLAIMS) and not COMPONENT_KEYS.keys() & set(_TOP), \
    "two settings claim one flat key"
_OPTIONAL = {"dataset_path": str, "anchor_init_scale": float}


def _flat_value(cfg: ExperimentConfig, key: str):
    if key in COMPONENT_KEYS:
        component, key = COMPONENT_KEYS[key]
        cfg = getattr(cfg, component)
    return getattr(cfg, key)


_TYPES = {
    key: _OPTIONAL.get(key) or type(_flat_value(_DEFAULTS, key))
    for key in [*_TOP, *COMPONENT_KEYS]
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
        return target_type(raw) if target_type in (int, float) else raw
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """Top-level checks; each component checks its own fields."""
    if cfg.mode not in MODES:
        raise ConfigError(f"mode: must be one of {MODES}")
    if cfg.seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {cfg.seed}")
    if cfg.workers != 1:
        raise ConfigError("workers: must be 1; clients run one after another")
    for key in ("latent_dim", "hidden_dim"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key}: must be >= 1")
    return cfg


def _assemble(values: dict) -> ExperimentConfig:
    """Build and validate a config from checked flat values."""
    top = {key: value for key, value in values.items() if key not in COMPONENT_KEYS}
    changes = {component: {"seed": top.get("seed", _DEFAULTS.seed)} for component in PREFIXES}
    for key in values.keys() & COMPONENT_KEYS.keys():
        component, name = COMPONENT_KEYS[key]
        changes[component][name] = values[key]
    for component in PREFIXES:
        try:
            top[component] = replace(getattr(_DEFAULTS, component), **changes[component])
        except ValueError as exc:
            raise ConfigError(_lead_with_a_set_key(str(exc), values)) from exc
    return _validate(ExperimentConfig(**top))


def _lead_with_a_set_key(message: str, values: dict) -> str:
    """A component's message, led by a key the user set: a check between
    two settings names both, and leads with one the user may have left at
    its default. Then the first set key it names goes in front."""
    if message.split(" ", 1)[0] in values:
        return message
    named = [(match.start(), key) for key in values
             if (match := re.search(rf"\b{key}\b", message))]
    return f"{min(named)[1]}: {message}" if named else message


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
    try:
        values = json.loads(text) if text else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError("config must be a flat JSON object")
    return build_config(values, apply_env=apply_env, overrides=overrides)


def serialize_config(cfg: ExperimentConfig) -> str:
    doc = {key: _flat_value(cfg, key) for key in _TYPES}
    return json.dumps(doc, indent=2, sort_keys=True)
