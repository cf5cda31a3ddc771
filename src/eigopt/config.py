"""Experiment configuration: a YAML file with nested sections.

The `sampler`, `optim`, `validate` and `bias_study` sections parse into
their dataclasses, whose field defaults are the only defaults.  Unknown
keys are rejected, every value is checked against the type of the default
it replaces, and error messages name the offending `section.key` path so a
typo is easy to find.  One 64-bit seed drives all randomness through named
substreams.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np
import yaml

from .errors import ConfigError
from .models import EpoRCurve, LinearModel, Model, PKModel, Stat5Model, ToyModel
from .optim import OptimConfig
from .samplers import SamplerConfig

# The keys each model kind reads from the `model` section; their defaults
# are the model constructor's.  Every value must be > 0 except pk.mult_sd,
# which may be 0 (additive noise only).
MODELS = {
    "linear": (LinearModel, ("n_obs", "sigma2")),
    "toy": (ToyModel, ("noise_sd",)),
    "pk": (PKModel, ("mult_sd", "add_sd")),
    "stat5": (Stat5Model, ("noise_sd",)),
}


def _mapping(raw, path: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping of keys, got {raw!r}")
    return dict(raw)


def _no_leftovers(section: dict, path: str) -> None:
    if section:
        raise ConfigError(f"{path}: unknown keys {sorted(section)}")


def _number(value, path: str, integral: bool = False, low: float | None = 0.0,
            strict: bool = True):
    """A finite number, integral if asked, and > low (>= low unless strict).

    PyYAML reads an exponent without a dot (`1e-2`) as a string, so numeric
    strings are accepted.
    """
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            pass
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not math.isfinite(value))):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if integral:
        if value != int(value):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        value = int(value)
    else:
        value = float(value)
    if low is not None and (value <= low if strict else value < low):
        raise ConfigError(f"{path}: must be {'positive' if strict else 'nonnegative'}, "
                          f"got {value}")
    return value


def _value(value, path: str, default):
    """`value` checked against the type of the default it replaces: a real
    bool, a string, an integer > 0, or a number > 0."""
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true or false, got {value!r}")
        return value
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    return _number(value, path, integral=isinstance(default, int))


def _json_copy(value, path: str):
    """A JSON round trip of raw YAML; a value JSON cannot hold (an unquoted
    date, say) is a ConfigError naming its path."""
    try:
        return json.loads(json.dumps(value))
    except (TypeError, ValueError):
        pass
    for key, child in value.items() if isinstance(value, dict) else ():
        _json_copy(child, f"{path}.{key}" if path else str(key))
    for i, child in enumerate(value) if isinstance(value, list) else ():
        _json_copy(child, f"{path}[{i}]")
    raise ConfigError(f"{path or 'top level'}: cannot store {value!r} as JSON; "
                      "quote it to make it a string")


def _section(cls, raw, path: str, exclude: tuple = (), **given):
    """Build the dataclass `cls` from the YAML mapping `raw` at `path`.

    Every field except those in `exclude` or `given` is an allowed key, and
    an absent key keeps the field's default.  The dataclass's own checks
    raise ConfigError too.
    """
    raw = _mapping(raw, path)
    values = dict(given)
    for f in fields(cls):
        if f.name in raw and f.name not in exclude and f.name not in given:
            values[f.name] = _value(raw.pop(f.name), f"{path}.{f.name}", f.default)
    _no_leftovers(raw, path)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass
class ModelConfig:
    kind: str
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw, path: str = "model") -> "ModelConfig":
        raw = _mapping(raw, path)
        kind = raw.pop("kind", None)
        if not isinstance(kind, str) or kind not in MODELS:
            raise ConfigError(f"{path}.kind: must be one of {tuple(MODELS)}, got {kind!r}")
        model_cls, keys = MODELS[kind]
        defaults = inspect.signature(model_cls).parameters
        params = {}
        for key in keys:
            default = defaults[key].default
            params[key] = _number(
                raw.pop(key, default), f"{path}.{key}", integral=isinstance(default, int),
                strict=(kind, key) != ("pk", "mult_sd"),
            )
        epor_csv = raw.pop("epor_csv", None) if kind == "stat5" else None
        if epor_csv is not None:
            epor_csv = str(epor_csv)
            if not os.path.exists(epor_csv):
                raise ConfigError(f"{path}.epor_csv: file not found: {epor_csv}")
            params["epor_csv"] = epor_csv
        _no_leftovers(raw, path)
        return cls(kind=kind, params=params)

    def build(self) -> Model:
        params = dict(self.params)
        if "epor_csv" in params:
            params["epor"] = EpoRCurve.from_csv(params.pop("epor_csv"))
        return MODELS[self.kind][0](**params)


@dataclass
class ValidateConfig:
    trials: int = 50
    kde_samples: int = 200
    nmc_M: int = 2000
    nmc_N: int = 2000


@dataclass
class BiasStudyConfig:
    """Sizes of `eigopt bias-study`; sigma2 and n_obs come from `model`."""

    n_designs: int = 20
    replicates: int = 100


@dataclass
class ExperimentConfig:
    model: ModelConfig
    seed: int = 0
    out_dir: str = "runs/out"
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    validate: ValidateConfig = field(default_factory=ValidateConfig)
    bias_study: BiasStudyConfig = field(default_factory=BiasStudyConfig)
    init_design: Optional[np.ndarray] = None
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("top level: expected a mapping of sections")
        snapshot = _json_copy(raw, "")
        raw = dict(raw)
        if "model" not in raw:
            raise ConfigError("model: required section missing")
        model = ModelConfig.from_dict(raw.pop("model"))
        seed = _number(raw.pop("seed", cls.seed), "seed", integral=True, low=None)
        out_dir = str(raw.pop("out_dir", cls.out_dir))
        # The chain length is set by the caller: optim.N for UEEG-MCMC and
        # validate.kde_samples for entropy, so it is no sampler key.
        sampler = _section(SamplerConfig, raw.pop("sampler", {}), "sampler",
                           exclude=("n_samples",))
        validate = _section(ValidateConfig, raw.pop("validate", {}), "validate")
        bias = _section(BiasStudyConfig, raw.pop("bias_study", {}), "bias_study")

        opt_raw = _mapping(raw.pop("optim", {}), "optim")
        init = opt_raw.pop("init", None)
        if init is not None:
            try:
                init = np.asarray(init, dtype=float)
                if init.ndim != 1:
                    raise ValueError
            except (TypeError, ValueError):
                raise ConfigError("optim.init: expected a flat list of numbers") from None
        optim = _section(OptimConfig, opt_raw, "optim", seed=seed, sampler=sampler)
        _no_leftovers(raw, "top level")
        return cls(
            model=model,
            seed=seed,
            out_dir=out_dir,
            sampler=sampler,
            optim=optim,
            validate=validate,
            bias_study=bias,
            init_design=init,
            raw=snapshot,
        )

    @classmethod
    def from_yaml(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = yaml.safe_load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"config parse error in {path}: {exc}") from None
        return cls.from_dict(raw if raw is not None else {})

    def with_overrides(self, seed: int | None = None,
                       out_dir: str | None = None) -> "ExperimentConfig":
        raw = json.loads(json.dumps(self.raw))
        if seed is not None:
            raw["seed"] = int(seed)
        if out_dir is not None:
            raw["out_dir"] = str(out_dir)
        return ExperimentConfig.from_dict(raw)

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def build_model(self) -> Model:
        return self.model.build()
