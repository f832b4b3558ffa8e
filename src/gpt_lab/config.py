"""Experiment configuration: one INI-style file, strictly validated.

Every section and key is checked against a schema before anything runs;
unknown names are rejected outright so a typo cannot silently fall back
to a default. Values are checked at load by the dataclass that holds
them (``[pretrain]``'s schedule by ``training.pretrain_config``, its
pretext sizes against ``graphs.PRETEXT_NODES``), so a bad one fails
before a command writes anything; the graph generators check the sizes
of the data they generate.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass
from pathlib import Path

from gpt_lab.graphs import DOWNSTREAM_TASKS, PRETEXT_NODES
from gpt_lab.models import BackboneConfig
from gpt_lab.prompt import MODES
from gpt_lab.tensor import ContractError
from gpt_lab.training import TuningConfig, pretrain_config

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

    def __post_init__(self):
        if self.count < 1:
            raise ContractError(f"count must be at least 1, got {self.count}")
        lo, hi = PRETEXT_NODES
        if not lo <= self.min_nodes <= self.max_nodes <= hi:
            raise ContractError(f"need {lo} <= min_nodes ({self.min_nodes}) <= max_nodes "
                                f"({self.max_nodes}) <= {hi}")
        pretrain_config(**self.training_args())

    def training_args(self) -> dict:
        """The keyword arguments of ``training.pretrain``: all but the pretext's size."""
        return {key: value for key, value in asdict(self).items()
                if key not in ("count", "min_nodes", "max_nodes")}


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


def _tuning_fields(vals: dict) -> dict:
    """[tuning]'s keys as ``TuningConfig`` fields: prompted_from and
    prompted_to form ``prompted_layers``, and beta1 and beta2 ``betas``."""
    if ("prompted_from" in vals) != ("prompted_to" in vals):
        raise ConfigError("[tuning]: prompted_from and prompted_to go together")
    if "prompted_from" in vals:
        vals["prompted_layers"] = (vals.pop("prompted_from"), vals.pop("prompted_to"))
    vals["betas"] = (vals.pop("beta1", 0.9), vals.pop("beta2", 0.999))
    if "mode" not in vals:
        raise ConfigError("[tuning]: 'mode' is required")
    return vals


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
    sections = {}
    for section, cls in (("backbone", BackboneConfig), ("task", TaskConfig),
                         ("pretrain", PretrainConfig), ("tuning", TuningConfig),
                         ("ablate", AblateConfig)):
        if not parser.has_section(section):
            continue
        vals = _section_values(parser, section)
        if section == "tuning":
            vals = _tuning_fields(vals)
        try:
            sections[section] = cls(**vals)
        except (ContractError, TypeError) as exc:
            raise ConfigError(f"[{section}]: {exc}") from None
    return ExperimentConfig(seed=experiment.get("seed", 0), **sections)
