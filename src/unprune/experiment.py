"""Experiment orchestration: the full (seed x method x sparsity) grid.

Per seed (``prepare_seed``): build the data and train (or load) the
original model on the full data. Per sparsity: prune a clone of it, build
(or load) the retrain+reprune oracle, then run every unlearning method
through the un-pruning loop and score the result against both the oracle
and the original. A failed cell, or a seed or oracle whose training
diverges, becomes one ``errors`` entry per cell it stopped; the other
cells' rows are kept. Rows are sorted before emission so the output never
depends on execution order, and with timing recording disabled two runs
of the same config produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .config import ExperimentConfig
from .core import UnpruneTrace, topology, ua_ta, unprune
from .data import (Dataset, DeletionSplit, gen_blobs, load_idx,
                   split_delete, write_csv)
from .errors import ConfigError, FormatError, NumericError
from .metrics import MaskPair, iom, iou, kl_masked_weights, uom
from .model import MaskedModel
from .numeric import SeededRng
from .oracle import cached_oracle, train_model
from .train import TrainLog

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


# The results columns are CellRow's fields, in order; every column after
# seed and method is a number a chart can plot.
CSV_COLUMNS = tuple(f.name for f in fields(CellRow))
METRIC_NAMES = CSV_COLUMNS[2:]


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


def _prune_to(model: MaskedModel, cfg: ExperimentConfig, sparsity: float
              ) -> MaskedModel:
    """Prune ``model`` in place to ``sparsity`` as the grid does; returns it."""
    return topology(cfg.prune_mode, cfg.scope).prune(model, sparsity)


class SeedSetup(NamedTuple):
    """One seed before pruning: its data and the dense original."""
    train_data: Dataset
    test_data: Dataset | None
    split: DeletionSplit
    dense: MaskedModel                 # trained on all rows, not pruned
    log: TrainLog | None               # None when dense came from the cache
    train_wall: float


def prepare_seed(cfg: ExperimentConfig, seed: int,
                 cache_dir: str | None = None) -> SeedSetup:
    """Build the data and train the original model, for one seed.

    With ``cache_dir`` the dense model is read from, or written to, the
    model cache there; a hit trains nothing and returns no log.
    """
    train_data, test_data, split = build_data(cfg, seed)
    dense, log, train_wall, _ = train_model(
        cache_dir, train_data, np.arange(train_data.n), cfg.arch_dims(),
        cfg.train, seed)
    return SeedSetup(train_data, test_data, split, dense, log, train_wall)


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


def _rows(cfg, seed, sparsity, method, model, refs, wall, data
          ) -> list[CellRow]:
    """``model`` scored against each reference of ``refs`` (an ordered
    ``{suffix: reference model}``): one row per reference, named
    ``method + suffix``. ``data`` is the (train, test, split) triple."""
    wall = wall if cfg.record_timing else 0.0
    scores = _scores(cfg, model, tuple(refs.values()), *data)
    return [CellRow(seed=seed, method=method + suffix, sparsity=sparsity,
                    wall_time_s=wall, **score)
            for suffix, score in zip(refs, scores)]


def _unprune_cell(payload: tuple) -> tuple[CellRow, CellRow, UnpruneTrace]:
    """One (seed, sparsity, method) cell: un-prune a clone, score it."""
    (cfg, seed, sparsity, method, pruned, oracle, train_data, test_data,
     split) = payload
    model = pruned.clone()
    t0 = time.perf_counter()
    trace = cell_unprune(cfg, seed, sparsity, method, model, train_data,
                         test_data, split)
    wall = time.perf_counter() - t0
    vs_oracle, vs_original = _rows(
        cfg, seed, sparsity, method, model, {"": oracle, ":vs_original": pruned},
        wall, (train_data, test_data, split))
    return vs_oracle, vs_original, trace


def model_cache_dir(out_dir: str | None) -> str | None:
    """The model cache under ``out_dir``; None without one."""
    return os.path.join(out_dir, "oracle_cache") if out_dir else None


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None
                   ) -> ExperimentReport:
    """Run the configured grid; optionally write traces under out_dir.

    If diverging training leaves no row at all, its first error is raised.
    """
    cfg.validate()
    report = ExperimentReport()
    traces: dict[tuple, UnpruneTrace] = {}
    cache_dir = model_cache_dir(out_dir)

    failed: list[NumericError] = []  # training that diverged, in order
    for seed in cfg.seeds:
        try:
            setup = prepare_seed(cfg, seed, cache_dir)
        except NumericError as exc:  # a diverging seed fails all its cells
            failed.append(exc)
            report.errors += _errors(exc, seed, cfg.sparsities, cfg.methods)
            continue
        data = setup.train_data, setup.test_data, setup.split
        for i, sparsity in enumerate(cfg.sparsities):
            pruned = setup.dense.clone()
            t0 = time.perf_counter()
            _prune_to(pruned, cfg, sparsity)
            pruning_wall = time.perf_counter() - t0
            try:
                oracle, oracle_wall, _ = cell_oracle(
                    cfg, seed, sparsity, setup.train_data, setup.split,
                    cache_dir)
            except NumericError as exc:
                # The seed's oracles share one retained training, so it
                # fails the same way at the remaining sparsities.
                failed.append(exc)
                report.errors += _errors(exc, seed, cfg.sparsities[i:],
                                         cfg.methods)
                break
            report.rows += _rows(
                cfg, seed, sparsity, "original", pruned, {"": oracle},
                setup.train_wall + pruning_wall, data)
            report.rows += _rows(cfg, seed, sparsity, "oracle", oracle,
                                 {"": oracle}, oracle_wall, data)
            for method in cfg.methods:
                try:
                    *rows, trace = _unprune_cell(
                        (cfg, seed, sparsity, method, pruned, oracle, *data))
                except Exception as exc:  # cell failure: record, continue
                    report.errors += _errors(exc, seed, (sparsity,), (method,))
                    continue
                report.rows += rows
                traces[(seed, sparsity, method)] = trace
    if failed and not report.rows:
        raise failed[0]

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


def _errors(exc: BaseException, seed: int, sparsities, methods
            ) -> list[dict]:
    """One ``errors`` entry per (sparsity, method) cell that ``exc`` stopped."""
    return [{"seed": seed, "method": method, "sparsity": sparsity,
             "error": str(exc), "type": type(exc).__name__,
             "traceback": _frames(exc)}
            for sparsity in sparsities for method in methods]


def _frames(exc: BaseException) -> list[str]:
    """``exc``'s traceback as ``"<file>:<line> in <function>"`` frames.

    Files are named by their base name, so the frames hold no absolute
    path and two checkouts write the same bytes.
    """
    return [f"{os.path.basename(f.filename)}:{f.lineno} in {f.name}"
            for f in traceback.extract_tb(exc.__traceback__)]


def emit_csv(report: ExperimentReport, path: str) -> None:
    """One line per row in ``CSV_COLUMNS`` order, the wall time to 1 ms."""
    write_csv(path, CSV_COLUMNS, [
        (*astuple(row)[:-1], f"{row.wall_time_s:.3f}") for row in report.rows])


def emit_json(report: ExperimentReport, path: str) -> None:
    payload = {
        "rows": [asdict(row) for row in report.rows],
        "errors": list(report.errors),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def report_from_json(path: str) -> ExperimentReport:
    """The report in ``path``; a file that is no results.json is a FormatError."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
            return ExperimentReport([CellRow(**row) for row in payload["rows"]],
                                    list(payload["errors"]))
        except (ValueError, TypeError, KeyError) as exc:
            raise FormatError(f"{path}: not a results.json: {exc}") from exc


def emit_scatter(report: ExperimentReport, x_metric: str, y_metric: str,
                 path: str) -> None:
    """One point per (method, seed) row, with the oracle as a reference marker."""
    from .svg import chart_svg

    if x_metric not in METRIC_NAMES or y_metric not in METRIC_NAMES:
        raise ConfigError(f"unknown metric: {x_metric!r} / {y_metric!r}")
    series: dict[str, list[tuple[float, float]]] = {}
    reference = None
    for row in report.rows:
        point = (getattr(row, x_metric), getattr(row, y_metric))
        if row.method == "oracle":
            reference = reference or (*point, "oracle")
        elif ":vs_original" not in row.method:
            series.setdefault(row.method, []).append(point)
    chart_svg(series, x_metric, y_metric, path, reference=reference)
