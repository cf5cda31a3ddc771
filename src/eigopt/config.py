"""Experiment configuration: a YAML file with nested sections.

Unknown keys are rejected and every numeric field is range-checked; error
messages name the offending field path so a typo is easy to find.  One
64-bit seed drives all randomness through named substreams.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np
import yaml

from .errors import ConfigError
from .models import EpoRCurve, LinearModel, Model, PKModel, Stat5Model, ToyModel
from .optim import OptimConfig
from .samplers import SamplerConfig

MODEL_KINDS = ("linear", "toy", "pk", "stat5")


def _take(section: dict, path: str, key: str, default=None, required=False):
    if required and key not in section:
        raise ConfigError(f"{path}.{key}: required field missing")
    return section.pop(key, default)


def _no_leftovers(section: dict, path: str) -> None:
    if section:
        raise ConfigError(f"{path}: unknown keys {sorted(section)}")


def _positive(value, path: str, kind=float, strict=True):
    try:
        value = kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a number, got {value!r}") from None
    if strict and value <= 0:
        raise ConfigError(f"{path}: must be positive, got {value}")
    if not strict and value < 0:
        raise ConfigError(f"{path}: must be nonnegative, got {value}")
    return value


@dataclass
class ModelConfig:
    kind: str
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict, path: str = "model") -> "ModelConfig":
        raw = dict(raw)
        kind = _take(raw, path, "kind", required=True)
        if kind not in MODEL_KINDS:
            raise ConfigError(f"{path}.kind: must be one of {MODEL_KINDS}, got {kind!r}")
        params: dict[str, Any] = {}
        if kind == "linear":
            params["n_obs"] = int(_positive(_take(raw, path, "n_obs", 3), f"{path}.n_obs", int))
            params["sigma2"] = _positive(_take(raw, path, "sigma2", 1.0), f"{path}.sigma2")
        elif kind == "toy":
            params["noise_sd"] = _positive(
                _take(raw, path, "noise_sd", 0.1), f"{path}.noise_sd"
            )
        elif kind == "pk":
            params["mult_sd"] = _positive(
                _take(raw, path, "mult_sd", 0.1), f"{path}.mult_sd", strict=False
            )
            params["add_sd"] = _positive(
                _take(raw, path, "add_sd", float(np.sqrt(0.1))), f"{path}.add_sd"
            )
        else:
            params["noise_sd"] = _positive(
                _take(raw, path, "noise_sd", 1e-2), f"{path}.noise_sd"
            )
            epor_csv = _take(raw, path, "epor_csv", None)
            if epor_csv is not None:
                if not os.path.exists(epor_csv):
                    raise ConfigError(f"{path}.epor_csv: file not found: {epor_csv}")
                params["epor_csv"] = str(epor_csv)
        _no_leftovers(raw, path)
        return cls(kind=kind, params=params)

    def build(self) -> Model:
        if self.kind == "linear":
            return LinearModel(**self.params)
        if self.kind == "toy":
            return ToyModel(**self.params)
        if self.kind == "pk":
            return PKModel(**self.params)
        params = dict(self.params)
        csv_path = params.pop("epor_csv", None)
        epor = EpoRCurve.from_csv(csv_path) if csv_path else None
        return Stat5Model(epor=epor, **params)


def _sampler_from_dict(raw: dict, path: str = "sampler") -> SamplerConfig:
    raw = dict(raw)
    kind = _take(raw, path, "kind", "slice")
    try:
        cfg = SamplerConfig(
            kind=kind,
            thinning=int(_positive(_take(raw, path, "thinning", 2), f"{path}.thinning", int)),
            n_samples=int(
                _positive(_take(raw, path, "n_samples", 10), f"{path}.n_samples", int)
            ),
            slice_width=_positive(
                _take(raw, path, "slice_width", 1.0), f"{path}.slice_width"
            ),
            slice_max_stepout=int(
                _positive(
                    _take(raw, path, "slice_max_stepout", 8), f"{path}.slice_max_stepout", int
                )
            ),
            mh_adapt_start=int(
                _positive(_take(raw, path, "mh_adapt_start", 10), f"{path}.mh_adapt_start", int)
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    _no_leftovers(raw, path)
    return cfg


@dataclass
class ValidateConfig:
    trials: int = 50
    kde_samples: int = 200
    nmc_M: int = 2000
    nmc_N: int = 2000

    @classmethod
    def from_dict(cls, raw: dict, path: str = "validate") -> "ValidateConfig":
        raw = dict(raw)
        out = cls(
            trials=int(_positive(_take(raw, path, "trials", 50), f"{path}.trials", int)),
            kde_samples=int(
                _positive(_take(raw, path, "kde_samples", 200), f"{path}.kde_samples", int)
            ),
            nmc_M=int(_positive(_take(raw, path, "nmc_M", 2000), f"{path}.nmc_M", int)),
            nmc_N=int(_positive(_take(raw, path, "nmc_N", 2000), f"{path}.nmc_N", int)),
        )
        _no_leftovers(raw, path)
        return out


@dataclass
class BiasStudyConfig:
    sigma2: float = 0.1
    n_designs: int = 20
    replicates: int = 100

    @classmethod
    def from_dict(cls, raw: dict, path: str = "bias_study") -> "BiasStudyConfig":
        raw = dict(raw)
        out = cls(
            sigma2=_positive(_take(raw, path, "sigma2", 0.1), f"{path}.sigma2"),
            n_designs=int(
                _positive(_take(raw, path, "n_designs", 20), f"{path}.n_designs", int)
            ),
            replicates=int(
                _positive(_take(raw, path, "replicates", 100), f"{path}.replicates", int)
            ),
        )
        _no_leftovers(raw, path)
        return out


@dataclass
class ExperimentConfig:
    model: ModelConfig
    seed: int = 0
    out_dir: str = "runs/out"
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    optim: OptimConfig = field(default_factory=lambda: OptimConfig(seed=0))
    validate: ValidateConfig = field(default_factory=ValidateConfig)
    bias_study: BiasStudyConfig = field(default_factory=BiasStudyConfig)
    init_design: Optional[np.ndarray] = None
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("top level: expected a mapping of sections")
        snapshot = json.loads(json.dumps(raw))
        raw = dict(raw)
        if "model" not in raw:
            raise ConfigError("model: required section missing")
        model = ModelConfig.from_dict(raw.pop("model"))
        seed = int(_take(raw, "top level", "seed", 0))
        out_dir = str(_take(raw, "top level", "out_dir", "runs/out"))
        sampler = _sampler_from_dict(raw.pop("sampler", {}))
        validate = ValidateConfig.from_dict(raw.pop("validate", {}))
        bias = BiasStudyConfig.from_dict(raw.pop("bias_study", {}))

        opt_raw = dict(raw.pop("optim", {}))
        init = _take(opt_raw, "optim", "init", None)
        if init is not None:
            init = np.asarray(init, dtype=float)
            if init.ndim != 1:
                raise ConfigError("optim.init: expected a flat list of numbers")
        try:
            optim = OptimConfig(
                estimator=_take(opt_raw, "optim", "estimator", "beeg_ap"),
                step_rule=_take(opt_raw, "optim", "step_rule", "adam"),
                learning_rate=_positive(
                    _take(opt_raw, "optim", "learning_rate", 1e-2), "optim.learning_rate"
                ),
                max_forward_evals=int(
                    _positive(
                        _take(opt_raw, "optim", "max_forward_evals", 20_000),
                        "optim.max_forward_evals",
                        int,
                    )
                ),
                max_steps=int(
                    _positive(
                        _take(opt_raw, "optim", "max_steps", 1_000_000), "optim.max_steps", int
                    )
                ),
                M=int(_positive(_take(opt_raw, "optim", "M", 100), "optim.M", int)),
                N=int(_positive(_take(opt_raw, "optim", "N", 10), "optim.N", int)),
                fixed_atoms=bool(_take(opt_raw, "optim", "fixed_atoms", False)),
                seed=seed,
                sampler=sampler,
            )
        except ValueError as exc:
            raise ConfigError(f"optim: {exc}") from None
        _no_leftovers(opt_raw, "optim")
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
