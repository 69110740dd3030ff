"""Experiment configuration: a strict key=value file with [section] tables.

``_KEYS`` is the schema: one row per key names the field it sets and how
its text parses. Unknown sections or keys are hard errors so sweep
definitions cannot drift silently. Each ``[unlearn.<method>]`` table takes
exactly the keys that ``unlearn.METHODS`` lists for its method.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .core import UnpruneConfig, topology
from .errors import ConfigError
from .train import TrainCfg
from .unlearn import METHODS, UnlearnConfig


@dataclass(frozen=True)
class ExperimentConfig:
    # dataset
    dataset_kind: str = "blobs"
    classes: int = 2
    n_per_class: int = 500
    test_per_class: int = 250
    dim: int = 2
    spread: float = 1.0
    images: str = ""
    labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    # model / training
    hidden: tuple[int, ...] = (64, 32)
    train: TrainCfg = field(default_factory=TrainCfg)
    # deletion
    delete_ratio: float = 0.1
    target_class: int | None = None
    # pruning
    prune_mode: str = "unstructured"
    sparsities: tuple[float, ...] = (0.6,)
    scope: str = "global"
    # un-pruning loop
    grow_per_iter: float = 0.05
    iterations: int = 3
    init_strategy: str = "original"
    random_init_std: float = 0.01
    # unlearning grid
    methods: tuple[str, ...] = ("gradient_ascent", "finetune")
    # {method: {key: value}}, from the [unlearn.<method>] tables
    unlearn_settings: dict = field(default_factory=dict)
    # mia
    mia_ratios: tuple[float, ...] = tuple(round(0.8 + 0.05 * i, 2)
                                          for i in range(9))
    # run
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    out_dir: str = "results"
    # Not configurable: the grid runs in one process and the oracle has one
    # variant. The fields stay only because the benchmark
    # (perfbench/workloads.py) sets jobs to 1 and passes imp_rounds on.
    jobs: int = 1
    imp_rounds: int = 1
    record_timing: bool = True

    def validate(self) -> "ExperimentConfig":
        if self.dataset_kind not in ("blobs", "idx"):
            raise ConfigError(f"unknown dataset kind {self.dataset_kind!r}")
        if self.dataset_kind == "idx" and not (self.images and self.labels):
            raise ConfigError("idx datasets need images= and labels= paths")
        if self.train.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.train.epochs}")
        if not (math.isfinite(self.train.lr) and self.train.lr >= 0):
            raise ConfigError(f"lr must be finite and >= 0, got {self.train.lr}")
        if any(width < 1 for width in self.hidden):
            raise ConfigError(f"hidden widths must be >= 1, got {self.hidden}")
        topology(self.prune_mode, self.scope)
        if self.prune_mode == "structured" and not self.hidden:
            raise ConfigError("structured pruning needs a hidden layer")
        # A repeated entry would run (or sweep) the same thing twice.
        for name in ("seeds", "sparsities", "methods", "mia_ratios"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} must be nonempty")
            if len(set(values)) < len(values):
                raise ConfigError(f"repeated entry in {name}: {values}")
        for s in self.sparsities:
            if not 0.0 < s < 1.0:
                raise ConfigError(f"sparsity {s} outside (0, 1)")
        for r in self.mia_ratios:
            if not (math.isfinite(r) and r > 0):
                raise ConfigError(f"[mia] ratios: {r} is not finite and > 0")
        # Every cell's loop settings and every method table, before training.
        for m in self.methods:
            for s in self.sparsities:
                self.unprune_config(m, s).validate()
        for m in self.unlearn_settings:
            self.unlearn_config(m).validate()
        if not 0.0 < self.delete_ratio < 1.0:
            raise ConfigError(f"delete ratio {self.delete_ratio} outside (0, 1)")
        if self.target_class is not None and \
                not 0 <= self.target_class < self.classes:
            raise ConfigError(f"target_class {self.target_class} outside "
                              f"[0, {self.classes})")
        for name in ("jobs", "imp_rounds"):
            if getattr(self, name) != 1:
                raise ConfigError(f"{name} must be 1, got {getattr(self, name)}")
        return self

    def unlearn_config(self, method: str) -> UnlearnConfig:
        return UnlearnConfig(method, **self.unlearn_settings.get(method, {}))

    def unprune_config(self, method: str, sparsity: float) -> UnpruneConfig:
        return UnpruneConfig(
            original_sparsity=sparsity, grow_per_iter=self.grow_per_iter,
            iterations=self.iterations, unlearn=self.unlearn_config(method),
            init_strategy=self.init_strategy,
            random_init_std=self.random_init_std,
        )

    def arch_dims(self) -> list[int]:
        return [self.dim, *self.hidden, self.classes]


def _bool(raw: str) -> bool:
    if raw.lower() not in ("true", "false"):
        raise ValueError(raw)
    return raw.lower() == "true"


def _csv(item):
    return lambda raw: tuple(item(v.strip()) for v in raw.split(",")
                             if v.strip())


_UNLEARN_PARSE = {"steps": int, "rate": float, "fisher_noise_scale": float}

# The schema of the config file: _KEYS[section][key] = (field, parse), where
# field is an ExperimentConfig attribute path; in an [unlearn.<method>]
# table it is unlearn_settings.<method>.<key>.
_KEYS: dict[str, dict[str, tuple]] = {
    "dataset": {"kind": ("dataset_kind", str),
                "classes": ("classes", int),
                "n_per_class": ("n_per_class", int),
                "test_per_class": ("test_per_class", int),
                "dim": ("dim", int),
                "spread": ("spread", float),
                "images": ("images", str),
                "labels": ("labels", str),
                "test_images": ("test_images", str),
                "test_labels": ("test_labels", str)},
    "model": {"hidden": ("hidden", _csv(int))},
    "train": {"epochs": ("train.epochs", int),
              "lr": ("train.lr", float)},
    "delete": {"ratio": ("delete_ratio", float),
               "target_class": ("target_class",
                                lambda raw: int(raw) if raw else None)},
    "prune": {"mode": ("prune_mode", str),
              "sparsities": ("sparsities", _csv(float)),
              "scope": ("scope", str)},
    "unprune": {"grow_per_iter": ("grow_per_iter", float),
                "iterations": ("iterations", int),
                "init": ("init_strategy", str),
                "random_init_std": ("random_init_std", float)},
    "unlearn": {"methods": ("methods", _csv(str))},
    **{f"unlearn.{method}": {key: (f"unlearn_settings.{method}.{key}",
                                   _UNLEARN_PARSE[key]) for key in keys}
       for method, keys in METHODS.items()},
    "mia": {"ratios": ("mia_ratios", _csv(float))},
    "run": {"seeds": ("seeds", _csv(int)),
            "out": ("out_dir", str),
            "record_timing": ("record_timing", _bool)},
}


def parse_key(section: str, key: str, raw: str) -> tuple[str, object]:
    """The (field, value) that ``key = raw`` sets in a known ``[section]``."""
    if key not in _KEYS[section]:
        raise ConfigError(f"unknown key {key!r} in [{section}]")
    field_path, parse = _KEYS[section][key]
    raw = raw.strip()
    try:
        return field_path, parse(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    kw: dict[str, dict] = {"": {}, "train": {}}
    settings: dict = {}
    for section in parser.sections():
        if section not in _KEYS:
            kind = "method " if section.startswith("unlearn.") else ""
            raise ConfigError(f"unknown {kind}section [{section}]")
        method = section.partition(".")[2]
        for key, raw in parser.items(section):
            field_path, value = parse_key(section, key, raw)
            owner, _, name = field_path.rpartition(".")
            if method:
                settings.setdefault(method, {})[name] = value
            else:
                kw[owner][name] = value

    cfg = ExperimentConfig(train=TrainCfg(**kw["train"]),
                           unlearn_settings=settings, **kw[""])
    return cfg.validate()


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)
