"""Experiment configuration: one INI-style file, strictly validated.

Each setting has one owner, a field of a config dataclass: a section's
keys are exactly the fields of its dataclass (``[experiment]`` holds
``ExperimentConfig``'s own), each value is parsed by its field's type
(a tuple field is one comma-separated list, an interval ``a-b``), and an
omitted key takes the field's default. Unknown sections and keys are
rejected before anything runs, so a typo cannot silently fall back to a
default. Values are checked at load by the dataclass that holds them
(``[pretrain]``'s schedule by ``training.pretrain_config``, its pretext
sizes against ``graphs.PRETEXT_NODES``), so a bad one fails before a
command writes anything; the graph generators check the sizes of the
data they generate.
"""

from __future__ import annotations

import configparser
import typing
from dataclasses import asdict, dataclass, fields
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
    "AXES",
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


# Each ablation axis: the AblateConfig field that holds its grid, and the
# TuningConfig field that each of its cells sets.
AXES = {"depth": ("depth_intervals", "prompted_layers"), "length": ("lengths", "p_len"),
        "component": ("components", "mode")}


@dataclass(frozen=True)
class AblateConfig:
    axis: str
    depth_intervals: tuple[tuple[int, int], ...] = ()
    lengths: tuple[int, ...] = ()
    components: tuple[str, ...] = ()

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(f"unknown ablation axis {self.axis!r}")
        if not self.cells():
            raise ConfigError(f"empty grid for ablation axis {self.axis!r}")
        for comp in self.components:
            if comp not in MODES:
                raise ConfigError(f"unknown component {comp!r}")

    def cells(self) -> list:
        return list(getattr(self, AXES[self.axis][0]))


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    seed: int = 0
    backbone: BackboneConfig
    task: TaskConfig | None = None
    pretrain: PretrainConfig | None = None
    tuning: TuningConfig | None = None
    ablate: AblateConfig | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must not be negative, got {self.seed}")


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


def _parse_list(item):
    """The parser of a comma-separated list, each item parsed by ``item``."""
    return lambda raw: tuple(item(p.strip()) for p in raw.split(",") if p.strip())


# Each field type's parser.
_PARSERS = {
    int: int, float: float, str: str, str | None: str, bool: _parse_bool,
    tuple[int, int] | None: _parse_interval,
    tuple[tuple[int, int], ...]: _parse_list(_parse_interval),
    tuple[int, ...]: _parse_list(int), tuple[float, float]: _parse_list(float),
    tuple[str, ...]: _parse_list(str.lower),
}
# Each section's dataclass; ExperimentConfig's other fields are the sections.
_SECTIONS = {"experiment": ExperimentConfig, "backbone": BackboneConfig, "task": TaskConfig,
             "pretrain": PretrainConfig, "tuning": TuningConfig, "ablate": AblateConfig}


def _keys(cls) -> dict:
    """The INI keys of ``cls``'s section, each with the parser of its field's type."""
    hints = typing.get_type_hints(cls)
    return {f.name: _PARSERS[hints[f.name]] for f in fields(cls) if f.name not in _SECTIONS}


def _section_values(parser: configparser.ConfigParser, section: str) -> dict:
    keys = _keys(_SECTIONS[section])
    out = {}
    for key, raw in parser.items(section):
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in section [{section}] "
                              f"(known: {sorted(keys)})")
        try:
            out[key] = keys[key](raw)
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

    unknown = set(parser.sections()) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)} "
                          f"(known: {sorted(_SECTIONS)})")
    if "backbone" not in parser.sections():
        raise ConfigError("missing required section [backbone]")

    experiment = _section_values(parser, "experiment") if parser.has_section("experiment") else {}
    sections = {section: _build(section, cls, _section_values(parser, section))
                for section, cls in _SECTIONS.items()
                if cls is not ExperimentConfig and parser.has_section(section)}
    return _build("experiment", ExperimentConfig, {**experiment, **sections})


def _build(section: str, cls, values: dict):
    """``cls(**values)``, any error its checks raise named by ``[section]``."""
    try:
        return cls(**values)
    except (ConfigError, ContractError, TypeError) as exc:
        raise ConfigError(f"[{section}]: {exc}") from None
