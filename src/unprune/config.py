"""Experiment configuration: a strict key=value file with [section] tables.

Unknown sections or keys are hard errors so sweep definitions cannot drift
silently. Per-method unlearning overrides live in nested tables like
``[unlearn.gradient_ascent]``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace

from .core import INIT_STRATEGIES, Structured, UnpruneConfig, topology
from .errors import ConfigError
from .train import TrainCfg
from .unlearn import METHODS, UnlearnConfig

_UNLEARN_KEYS = {"steps", "rate", "fisher_noise_scale", "batch_size"}

_SCHEMA: dict[str, set[str]] = {
    "dataset": {
        "kind", "classes", "n_per_class", "test_per_class", "dim", "spread",
        "images", "labels", "test_images", "test_labels",
    },
    "model": {"hidden"},
    "train": {"epochs", "lr", "batch_size"},
    "delete": {"ratio", "target_class"},
    "prune": {"mode", "sparsities", "scope"},
    "unprune": {"grow_per_iter", "iterations", "init", "random_init_std"},
    "unlearn": {"methods"} | _UNLEARN_KEYS,
    "oracle": {"imp_rounds", "cache"},
    "mia": {"ratios"},
    "run": {"seeds", "out", "record_timing"},
}


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
    # oracle
    imp_rounds: int = 1
    oracle_cache: bool = True
    # mia
    mia_ratios: tuple[float, ...] = ()
    # run
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    out_dir: str = "results"
    # Not configurable: the grid runs in one process. The field stays only
    # because the benchmark (perfbench/workloads.py) replaces it with 1.
    jobs: int = 1
    record_timing: bool = True

    def validate(self) -> "ExperimentConfig":
        if self.dataset_kind not in ("blobs", "idx"):
            raise ConfigError(f"unknown dataset kind {self.dataset_kind!r}")
        if self.dataset_kind == "idx" and not (self.images and self.labels):
            raise ConfigError("idx datasets need images= and labels= paths")
        topo = topology(self.prune_mode, self.scope)
        if self.imp_rounds < 1:
            raise ConfigError(f"imp_rounds must be >= 1, got {self.imp_rounds}")
        if self.imp_rounds > 1 and isinstance(topo, Structured):
            raise ConfigError("imp_rounds > 1 needs unstructured pruning")
        if self.init_strategy not in INIT_STRATEGIES:
            raise ConfigError(f"unknown init strategy {self.init_strategy!r}")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if not self.sparsities:
            raise ConfigError("sparsities must be nonempty")
        for s in self.sparsities:
            if not 0.0 < s < 1.0:
                raise ConfigError(f"sparsity {s} outside (0, 1)")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown unlearning method {m!r}")
            self.unlearn_config(m).validate()
        if not 0.0 < self.delete_ratio < 1.0:
            raise ConfigError(f"delete ratio {self.delete_ratio} outside (0, 1)")
        if self.jobs != 1:
            raise ConfigError(f"jobs must be 1, got {self.jobs}")
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


def _parse_value(section: str, key: str, raw: str):
    raw = raw.strip()
    try:
        if key in {"classes", "n_per_class", "test_per_class", "dim", "epochs",
                   "batch_size", "iterations", "steps", "imp_rounds"}:
            return int(raw)
        if key in {"spread", "lr", "ratio", "grow_per_iter", "random_init_std",
                   "rate", "fisher_noise_scale"}:
            return float(raw)
        if key in {"cache", "record_timing"}:
            if raw.lower() not in ("true", "false"):
                raise ValueError(raw)
            return raw.lower() == "true"
        if key == "hidden":
            return tuple(int(v) for v in raw.split(",") if v.strip())
        if key in {"sparsities", "ratios"}:
            return tuple(float(v) for v in raw.split(",") if v.strip())
        if key == "seeds":
            return tuple(int(v) for v in raw.split(",") if v.strip())
        if key == "methods":
            return tuple(v.strip() for v in raw.split(",") if v.strip())
        if key == "target_class":
            return None if raw == "" else int(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    values: dict = {}
    train_kw: dict = {}
    unlearn_kw: dict = {}
    overrides: dict = {}

    for section in parser.sections():
        if section.startswith("unlearn."):
            method = section.split(".", 1)[1]
            if method not in METHODS:
                raise ConfigError(f"unknown method section [{section}]")
            for key, raw in parser.items(section):
                if key not in _UNLEARN_KEYS:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
                overrides.setdefault(method, {})[key] = _parse_value(
                    section, key, raw
                )
            continue
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            value = _parse_value(section, key, raw)
            if section == "train":
                train_kw[key] = value
            elif section == "unlearn" and key != "methods":
                unlearn_kw[key] = value
            elif section == "dataset" and key == "kind":
                values["dataset_kind"] = value
            elif section == "delete" and key == "ratio":
                values["delete_ratio"] = value
            elif section == "prune" and key == "mode":
                values["prune_mode"] = value
            elif section == "unprune" and key == "init":
                values["init_strategy"] = value
            elif section == "oracle" and key == "cache":
                values["oracle_cache"] = value
            elif section == "mia" and key == "ratios":
                values["mia_ratios"] = value
            elif section == "run" and key == "out":
                values["out_dir"] = value
            else:
                values[key] = value

    cfg = ExperimentConfig(
        train=TrainCfg(**train_kw),
        unlearn_defaults=UnlearnConfig(**unlearn_kw),
        unlearn_overrides=overrides,
        **values,
    )
    return cfg.validate()


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)
