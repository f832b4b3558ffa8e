"""Experiment configuration: one INI-style file, strictly validated.

Every section and key is checked against a schema before anything runs;
unknown names are rejected outright so a typo cannot silently fall back
to a default.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from gpt_lab.graphs import DOWNSTREAM_TASKS
from gpt_lab.models import BackboneConfig
from gpt_lab.prompt import MODES
from gpt_lab.tensor import ContractError
from gpt_lab.training import TuningConfig

__all__ = [
    "ConfigError",
    "TaskConfig",
    "PretrainConfig",
    "AblateConfig",
    "ExperimentConfig",
    "load_config",
]


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


@dataclass(frozen=True)
class TaskConfig:
    generator: str | None = None
    graph_file: str | None = None
    count: int = 1000
    min_nodes: int = 6
    max_nodes: int = 16
    feature_dim: int = 4

    def __post_init__(self):
        if (self.generator is None) == (self.graph_file is None):
            raise ConfigError("task needs exactly one of 'generator' or 'graph_file'")
        if self.generator is not None and self.generator not in DOWNSTREAM_TASKS:
            raise ConfigError(f"unknown generator {self.generator!r}; "
                              f"expected one of {DOWNSTREAM_TASKS}")
        if self.min_nodes > self.max_nodes:
            raise ConfigError("min_nodes must not exceed max_nodes")


@dataclass(frozen=True)
class PretrainConfig:
    count: int = 2000
    min_nodes: int = 6
    max_nodes: int = 16
    epochs: int = 30
    warmup_epochs: int = 2
    lr: float = 1e-3
    weight_decay: float = 0.0
    batch_size: int = 32
    decay: str = "cosine"
    clip: float = 5.0
    eval_fraction: float = 0.1


_AXES = ("depth", "length", "component")


@dataclass(frozen=True)
class AblateConfig:
    axis: str
    depth_intervals: tuple[tuple[int, int], ...] = ()
    lengths: tuple[int, ...] = ()
    components: tuple[str, ...] = ()

    def __post_init__(self):
        if self.axis not in _AXES:
            raise ConfigError(f"unknown ablation axis {self.axis!r}")
        grid = {"depth": self.depth_intervals, "length": self.lengths,
                "component": self.components}[self.axis]
        if not grid:
            raise ConfigError(f"empty grid for ablation axis {self.axis!r}")
        for comp in self.components:
            if comp not in MODES:
                raise ConfigError(f"unknown component {comp!r}")

    def cells(self) -> list:
        return list({"depth": self.depth_intervals, "length": self.lengths,
                     "component": self.components}[self.axis])


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    backbone: BackboneConfig
    task: TaskConfig | None = None
    pretrain: PretrainConfig | None = None
    tuning: TuningConfig | None = None
    ablate: AblateConfig | None = None


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_interval(raw: str) -> tuple[int, int]:
    parts = raw.split("-")
    if len(parts) != 2:
        raise ConfigError(f"expected 'a-b' interval, got {raw!r}")
    return int(parts[0]), int(parts[1])


def _parse_intervals(raw: str) -> tuple[tuple[int, int], ...]:
    return tuple(_parse_interval(p.strip()) for p in raw.split(",") if p.strip())


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(p.strip()) for p in raw.split(",") if p.strip())


def _parse_strs(raw: str) -> tuple[str, ...]:
    return tuple(p.strip().lower() for p in raw.split(",") if p.strip())


_SCHEMA: dict[str, dict] = {
    "experiment": {"seed": int},
    "backbone": {
        "kind": str, "feature_dim": int, "dim": int, "heads": int, "layers": int,
        "ffn_mult": int, "readout": str, "rwpe_steps": int,
        "degree_embed": _parse_bool, "max_degree": int, "aggregation": str,
    },
    "task": {
        "generator": str, "graph_file": str, "count": int,
        "min_nodes": int, "max_nodes": int, "feature_dim": int,
    },
    "pretrain": {
        "count": int, "min_nodes": int, "max_nodes": int, "epochs": int,
        "warmup_epochs": int, "lr": float, "weight_decay": float,
        "batch_size": int, "decay": str, "clip": float, "eval_fraction": float,
    },
    "tuning": {
        "mode": str, "metric": str, "p_len": int, "prompted_from": int,
        "prompted_to": int, "token_stage": str, "lr": float,
        "weight_decay": float, "beta1": float, "beta2": float, "eps": float,
        "clip": float, "epochs": int, "warmup_epochs": int, "decay": str,
        "batch_size": int, "folds": int, "head_hidden": _parse_bool,
    },
    "ablate": {
        "axis": str, "depth_intervals": _parse_intervals,
        "lengths": _parse_ints, "components": _parse_strs,
    },
}


def _section_values(parser: configparser.ConfigParser, section: str) -> dict:
    schema = _SCHEMA[section]
    out = {}
    for key, raw in parser.items(section):
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{section}] "
                              f"(known: {sorted(schema)})")
        try:
            out[key] = schema[key](raw)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
    return out


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate an experiment file before any execution."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    unknown = set(parser.sections()) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)} "
                          f"(known: {sorted(_SCHEMA)})")
    if "backbone" not in parser.sections():
        raise ConfigError("missing required section [backbone]")

    experiment = _section_values(parser, "experiment") if parser.has_section("experiment") else {}
    seed = experiment.get("seed", 0)

    try:
        backbone = BackboneConfig(**_section_values(parser, "backbone"))
    except (ContractError, TypeError) as exc:
        raise ConfigError(f"[backbone]: {exc}") from None

    task = None
    if parser.has_section("task"):
        task = TaskConfig(**_section_values(parser, "task"))

    pre = None
    if parser.has_section("pretrain"):
        pre = PretrainConfig(**_section_values(parser, "pretrain"))

    tuning = None
    if parser.has_section("tuning"):
        vals = _section_values(parser, "tuning")
        if ("prompted_from" in vals) != ("prompted_to" in vals):
            raise ConfigError("[tuning]: prompted_from and prompted_to go together")
        interval = None
        if "prompted_from" in vals:
            interval = (vals.pop("prompted_from"), vals.pop("prompted_to"))
        betas = (vals.pop("beta1", 0.9), vals.pop("beta2", 0.999))
        if "mode" not in vals:
            raise ConfigError("[tuning]: 'mode' is required")
        try:
            tuning = TuningConfig(prompted_layers=interval, betas=betas, **vals)
        except ContractError as exc:
            raise ConfigError(f"[tuning]: {exc}") from None

    ablate = None
    if parser.has_section("ablate"):
        ablate = AblateConfig(**_section_values(parser, "ablate"))

    return ExperimentConfig(seed=seed, backbone=backbone, task=task,
                            pretrain=pre, tuning=tuning, ablate=ablate)
