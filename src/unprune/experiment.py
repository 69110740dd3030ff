"""Experiment orchestration: the full (seed x method x sparsity) grid.

Per seed (``prepare_seed``): build the data, train (or load) the original
model on the full data and prune one clone per sparsity. Then build (or
load) the retrain+reprune oracle, then run every unlearning method through
the un-pruning loop and score the result against both the oracle and the
original. Rows are sorted before emission so the output never depends on
execution order, and with timing recording disabled two runs of the same
config produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .config import ExperimentConfig
from .core import UnpruneTrace, topology, ua_ta, unprune
from .data import (Dataset, DeletionSplit, gen_blobs, load_idx,
                   split_delete, write_csv)
from .errors import ConfigError
from .metrics import MaskPair, iom, iou, kl_masked_weights, uom
from .model import MaskedModel
from .numeric import SeededRng
from .oracle import cached_oracle, train_model
from .train import TrainLog

CSV_COLUMNS = ("seed", "method", "sparsity", "iom", "uom", "iou", "kl",
               "ta", "ua", "wall_time_s")

METRIC_NAMES = ("iom", "uom", "iou", "kl", "ta", "ua", "sparsity", "wall_time_s")


@dataclass(frozen=True)
class CellRow:
    seed: int
    method: str
    sparsity: float
    iom: float
    uom: float
    iou: float
    kl: float
    ta: float
    ua: float
    wall_time_s: float

    def metric(self, name: str) -> float:
        if name not in METRIC_NAMES:
            raise ConfigError(f"unknown metric {name!r}")
        return getattr(self, name)


@dataclass
class ExperimentReport:
    rows: list[CellRow] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)

    def select(self, method: str | None = None, sparsity: float | None = None
               ) -> list[CellRow]:
        out = []
        for row in self.rows:
            if method is not None and row.method != method:
                continue
            if sparsity is not None and abs(row.sparsity - sparsity) > 1e-9:
                continue
            out.append(row)
        return out


def build_data(cfg: ExperimentConfig, seed: int
               ) -> tuple[Dataset, Dataset | None, DeletionSplit]:
    """Deterministic (train, test, split) triple for one seed.

    Data whose width is not ``[dataset] dim``, or with a label outside
    ``[dataset] classes``, raises ``ConfigError`` before any model is built.
    """
    root = SeededRng(seed)
    if cfg.dataset_kind == "blobs":
        train = gen_blobs(root.split("data-train"), cfg.n_per_class, cfg.classes,
                          cfg.dim, cfg.spread, name="blobs-train")
        test = gen_blobs(root.split("data-test"), cfg.test_per_class, cfg.classes,
                         cfg.dim, cfg.spread, name="blobs-test")
    else:
        train = load_idx(cfg.images, cfg.labels, name="idx-train")
        test = (load_idx(cfg.test_images, cfg.test_labels, name="idx-test")
                if cfg.test_images else None)
    for data in (train, test):
        if data is None:
            continue
        if data.dim != cfg.dim:
            raise ConfigError(f"[dataset] dim is {cfg.dim}, but the {data.name} "
                              f"inputs have {data.dim} columns")
        if data.labels.max() >= cfg.classes:
            raise ConfigError(f"[dataset] classes is {cfg.classes}, but the "
                              f"{data.name} labels reach {data.labels.max()}")
    split = split_delete(train, cfg.delete_ratio, root.split("delete"),
                         cfg.target_class)
    return train, test, split


def _prune_to(model: MaskedModel, cfg: ExperimentConfig, sparsity: float) -> None:
    topology(cfg.prune_mode, cfg.scope).prune(model, sparsity)


class SeedSetup(NamedTuple):
    """One seed before un-pruning: its data, the dense model, pruned clones."""
    train_data: Dataset
    test_data: Dataset | None
    split: DeletionSplit
    dense: MaskedModel                 # trained on all rows, not pruned
    log: TrainLog | None               # None when dense came from the cache
    train_wall: float
    pruned: dict[float, MaskedModel]   # a pruned clone of dense per sparsity
    prune_wall: dict[float, float]


def prepare_seed(cfg: ExperimentConfig, seed: int,
                 cache_dir: str | None = None) -> SeedSetup:
    """Build the data, train the original model and prune it, for one seed.

    With ``cache_dir`` the dense model is read from, or written to, the
    model cache there; a hit trains nothing and returns no log.
    """
    train_data, test_data, split = build_data(cfg, seed)
    dense, log, train_wall, _ = train_model(
        cache_dir, train_data, np.arange(train_data.n), cfg.arch_dims(),
        cfg.train, seed)
    pruned, prune_wall = {}, {}
    for sparsity in cfg.sparsities:
        pruned[sparsity] = dense.clone()
        t1 = time.perf_counter()
        _prune_to(pruned[sparsity], cfg, sparsity)
        prune_wall[sparsity] = time.perf_counter() - t1
    return SeedSetup(train_data, test_data, split, dense, log, train_wall,
                     pruned, prune_wall)


def _scores(cfg, model, refs, train_data, test_data, split) -> list[dict]:
    """Scores of ``model`` against each reference model, in order.

    UA and TA depend on the model alone, so they are evaluated once.
    """
    ua, ta = ua_ta(model, train_data, split, test_data)
    topo = topology(cfg.prune_mode, cfg.scope)
    scores = []
    for ref in refs:
        pair = MaskPair(topo.kept(model), topo.kept(ref))
        scores.append({
            "iom": iom(pair),
            "uom": uom(pair),
            "iou": iou(pair),
            "kl": kl_masked_weights(model, ref),
            "ta": ta,
            "ua": ua,
        })
    return scores


def cell_oracle(cfg, seed, sparsity, train_data, split, cache_dir
                ) -> tuple[MaskedModel, float, bool]:
    """The (seed, sparsity) cell's retrain+reprune oracle through the model
    cache at ``cache_dir`` (None trains it); returns (model, wall_s, hit)."""
    return cached_oracle(cache_dir, train_data, split, cfg.arch_dims(),
                         cfg.train, sparsity, seed, cfg.prune_mode, cfg.scope)


def trace_name(seed: int, sparsity: float, method: str) -> str:
    """The file name of one cell's un-pruning trace."""
    return f"trace_seed{seed}_s{sparsity:g}_{method}.csv"


def cell_unprune(cfg, seed, sparsity, method, model, train_data, test_data,
                 split) -> UnpruneTrace:
    """Un-prune ``model`` in place as the (seed, sparsity, method) cell does."""
    _, trace = unprune(
        model, train_data, split, cfg.unprune_config(method, sparsity),
        SeededRng(seed).split(f"unprune/{method}/{sparsity!r}"),
        mode=cfg.prune_mode, test_data=test_data, scope=cfg.scope,
    )
    return trace


def _unprune_cell(payload: tuple) -> tuple[CellRow, CellRow, UnpruneTrace]:
    """One (seed, sparsity, method) cell: un-prune a clone, score it."""
    (cfg, seed, sparsity, method, pruned, oracle, train_data, test_data,
     split) = payload
    model = pruned.clone()
    t0 = time.perf_counter()
    trace = cell_unprune(cfg, seed, sparsity, method, model, train_data,
                         test_data, split)
    wall = time.perf_counter() - t0 if cfg.record_timing else 0.0
    vs_oracle, vs_original = _scores(cfg, model, (oracle, pruned), train_data,
                                     test_data, split)
    return (
        CellRow(seed=seed, method=method, sparsity=sparsity, wall_time_s=wall,
                **vs_oracle),
        CellRow(seed=seed, method=f"{method}:vs_original", sparsity=sparsity,
                wall_time_s=wall, **vs_original),
        trace,
    )


def model_cache_dir(out_dir: str | None) -> str | None:
    """The model cache under ``out_dir``; None without one."""
    return os.path.join(out_dir, "oracle_cache") if out_dir else None


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None
                   ) -> ExperimentReport:
    """Run the configured grid; optionally write traces under out_dir."""
    cfg.validate()
    report = ExperimentReport()
    traces: dict[tuple, UnpruneTrace] = {}
    cache_dir = model_cache_dir(out_dir)

    for seed in cfg.seeds:
        (train_data, test_data, split, _, _, dense_wall, pruned_at,
         prune_wall) = prepare_seed(cfg, seed, cache_dir)
        for sparsity in cfg.sparsities:
            pruned = pruned_at[sparsity]
            oracle, oracle_wall, _ = cell_oracle(
                cfg, seed, sparsity, train_data, split, cache_dir)
            timing = cfg.record_timing
            report.rows.append(CellRow(
                seed=seed, method="original", sparsity=sparsity,
                wall_time_s=(dense_wall + prune_wall[sparsity]) if timing
                else 0.0,
                **_scores(cfg, pruned, (oracle,), train_data, test_data,
                          split)[0],
            ))
            report.rows.append(CellRow(
                seed=seed, method="oracle", sparsity=sparsity,
                wall_time_s=oracle_wall if timing else 0.0,
                **_scores(cfg, oracle, (oracle,), train_data, test_data,
                          split)[0],
            ))
            for method in cfg.methods:
                try:
                    vs_oracle, vs_original, trace = _unprune_cell(
                        (cfg, seed, sparsity, method, pruned, oracle,
                         train_data, test_data, split))
                except Exception as exc:  # cell failure: record, continue
                    report.errors.append({
                        "seed": seed, "method": method,
                        "sparsity": sparsity, "error": str(exc),
                        "type": type(exc).__name__,
                        "traceback": _frames(exc),
                    })
                    continue
                report.rows.append(vs_oracle)
                report.rows.append(vs_original)
                traces[(seed, sparsity, method)] = trace

    report.rows.sort(key=lambda r: (r.seed, r.sparsity, r.method))
    report.errors.sort(key=lambda e: (e["seed"], e["sparsity"], e["method"]))

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        emit_csv(report, os.path.join(out_dir, "results.csv"))
        emit_json(report, os.path.join(out_dir, "results.json"))
        traces_dir = os.path.join(out_dir, "traces")
        os.makedirs(traces_dir, exist_ok=True)
        for (seed, sparsity, method), trace in sorted(traces.items()):
            trace.to_csv(os.path.join(traces_dir,
                                      trace_name(seed, sparsity, method)))
    return report


def _frames(exc: BaseException) -> list[str]:
    """``exc``'s traceback as ``"<file>:<line> in <function>"`` frames.

    Files are named by their base name, so the frames hold no absolute
    path and two checkouts write the same bytes.
    """
    return [f"{os.path.basename(f.filename)}:{f.lineno} in {f.name}"
            for f in traceback.extract_tb(exc.__traceback__)]


def emit_csv(report: ExperimentReport, path: str) -> None:
    """Stable column order: seed,method,sparsity,iom,uom,iou,kl,ta,ua,wall_time_s."""
    write_csv(path, CSV_COLUMNS, [
        (row.seed, row.method, row.sparsity, row.iom, row.uom, row.iou,
         row.kl, row.ta, row.ua, f"{row.wall_time_s:.3f}")
        for row in report.rows])


def emit_json(report: ExperimentReport, path: str) -> None:
    payload = {
        "rows": [asdict(row) for row in report.rows],
        "errors": list(report.errors),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def report_from_json(path: str) -> ExperimentReport:
    with open(path) as fh:
        payload = json.load(fh)
    return ExperimentReport(
        rows=[CellRow(**row) for row in payload["rows"]],
        errors=list(payload["errors"]),
    )


def emit_scatter(report: ExperimentReport, x_metric: str, y_metric: str,
                 path: str) -> None:
    """One point per (method, seed) row, with the oracle as a reference marker."""
    from .svg import scatter_svg

    if x_metric not in METRIC_NAMES or y_metric not in METRIC_NAMES:
        raise ConfigError(f"unknown metric: {x_metric!r} / {y_metric!r}")
    points = []
    reference = None
    for row in report.rows:
        if ":vs_original" in row.method:
            continue
        if row.method == "oracle":
            if reference is None:
                reference = (row.metric(x_metric), row.metric(y_metric), "oracle")
            continue
        points.append((row.metric(x_metric), row.metric(y_metric), row.method))
    scatter_svg(points, x_metric, y_metric, path, reference)
