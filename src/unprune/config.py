"""Experiment configuration: a strict key=value file with [section] tables.

``_KEYS`` is the schema: one row per key names the field it sets and how
its text parses. Unknown sections or keys are hard errors so sweep
definitions cannot drift silently. Per-method unlearning overrides live in
nested tables like ``[unlearn.gradient_ascent]``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

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
    unlearn_defaults: UnlearnConfig = field(default_factory=UnlearnConfig)
    unlearn_overrides: dict = field(default_factory=dict)
    # mia
    mia_ratios: tuple[float, ...] = ()
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
        topology(self.prune_mode, self.scope)
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if not self.sparsities:
            raise ConfigError("sparsities must be nonempty")
        for s in self.sparsities:
            if not 0.0 < s < 1.0:
                raise ConfigError(f"sparsity {s} outside (0, 1)")
        if not self.methods:
            raise ConfigError("methods must be nonempty")
        # Every (method, sparsity) cell's loop settings, before any training.
        for m in self.methods:
            for s in self.sparsities:
                self.unprune_config(m, s).validate()
        if not 0.0 < self.delete_ratio < 1.0:
            raise ConfigError(f"delete ratio {self.delete_ratio} outside (0, 1)")
        for name in ("jobs", "imp_rounds"):
            if getattr(self, name) != 1:
                raise ConfigError(f"{name} must be 1, got {getattr(self, name)}")
        return self

    def unlearn_config(self, method: str) -> UnlearnConfig:
        cfg = replace(self.unlearn_defaults, method=method)
        return replace(cfg, **self.unlearn_overrides.get(method, {}))

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


_UNLEARN_ROWS = {
    "steps": ("unlearn_defaults.steps", int),
    "rate": ("unlearn_defaults.rate", float),
    "fisher_noise_scale": ("unlearn_defaults.fisher_noise_scale", float),
}

# The schema of the config file: _KEYS[section][key] = (field, parse), where
# field is an ExperimentConfig attribute path. In an [unlearn.<method>]
# table the unlearn rows set that method's override, not the default.
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
    "unlearn": {"methods": ("methods", _csv(str)), **_UNLEARN_ROWS},
    **{f"unlearn.{method}": _UNLEARN_ROWS for method in METHODS},
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

    kw: dict[str, dict] = {"": {}, "train": {}, "unlearn_defaults": {}}
    overrides: dict = {}
    for section in parser.sections():
        if section not in _KEYS:
            kind = "method " if section.startswith("unlearn.") else ""
            raise ConfigError(f"unknown {kind}section [{section}]")
        method = section.partition(".")[2]
        for key, raw in parser.items(section):
            field_path, value = parse_key(section, key, raw)
            owner, _, name = field_path.rpartition(".")
            if method:
                overrides.setdefault(method, {})[name] = value
            else:
                kw[owner][name] = value

    cfg = ExperimentConfig(
        train=TrainCfg(**kw["train"]),
        unlearn_defaults=UnlearnConfig(**kw["unlearn_defaults"]),
        unlearn_overrides=overrides,
        **kw[""],
    )
    return cfg.validate()


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)
