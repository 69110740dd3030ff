"""The gold standard: retrain from scratch on retained data, then re-prune.

``train_model`` trains every dense model: the original on all rows and
the oracle's on the retained rows, from the same init and shuffle stream,
so their mask difference is data-driven. The oracle prunes its dense model
to each sparsity.

Trained models are deterministic functions of their inputs, so dense
models and oracles are cached as snapshots under a content hash of those
inputs (``cached_model``); repeated runs skip the training.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
import time
from collections.abc import Callable

import numpy as np

from .core import topology
from .data import Dataset, DeletionSplit
from .errors import FormatError, InputError
from .model import (
    SNAPSHOT_MAGIC,
    MaskedModel,
    init_model,
    load_snapshot,
    mlp_specs,
    save_snapshot,
    snapshot_header,
)
from .numeric import SeededRng
from .train import TrainCfg, TrainLog, train_with_cfg


def build_model(dims: list[int], seed: int) -> MaskedModel:
    """Fresh dense model; the single place that fixes the init seed discipline."""
    return init_model(mlp_specs(dims), SeededRng(seed).split("init"))


# Bump when a change moves trained weights, so that cached models from
# before the change miss instead of hiding it.
CACHE_VERSION = 1


def cache_key(dataset: Dataset, *fields: np.ndarray | tuple) -> str:
    """Content hash of one cache entry: the training data and ``fields``.

    The snapshot format and ``CACHE_VERSION`` are hashed too. Arrays enter
    by their bytes, anything else by its repr.
    """
    h = hashlib.sha256()
    h.update(repr((SNAPSHOT_MAGIC, CACHE_VERSION)).encode())
    h.update(dataset.inputs.tobytes())
    h.update(dataset.labels.tobytes())
    h.update(dataset.name.encode())
    for f in fields:
        h.update(f.tobytes() if isinstance(f, np.ndarray) else repr(f).encode())
    return h.hexdigest()[:16]


def oracle_key(dataset: Dataset, split: DeletionSplit, dims: list[int],
               train_cfg: TrainCfg, sparsity: float, mode: str, scope: str,
               seed: int) -> str:
    """Content hash identifying one oracle run."""
    return cache_key(dataset, split.forget_indices,
                     (dims, train_cfg, float(sparsity), mode, scope, int(seed)))


def dense_key(dataset: Dataset, rows: np.ndarray, dims: list[int],
              train_cfg: TrainCfg, seed: int) -> str:
    """Content hash identifying one dense training run on ``rows`` of
    ``dataset``."""
    return cache_key(dataset, np.asarray(rows, dtype=np.int64),
                     (dims, train_cfg, int(seed)))


def train_model(cache_dir: str | None, dataset: Dataset, rows: np.ndarray,
                dims: list[int], train_cfg: TrainCfg, seed: int
                ) -> tuple[MaskedModel, TrainLog | None, float, bool]:
    """The dense model trained on ``rows``; returns (model, log, wall_s, hit).

    The one place a dense model is built and trained: the init and the
    ``train`` shuffle stream both come from ``seed``, so the models of one
    seed on all rows and on the retained rows differ by their data alone.
    With ``cache_dir`` the model is read from, or written to, the entry
    ``dense-<key>.bin`` there; a hit trains nothing and returns no log.
    """
    log = None

    def train() -> tuple[MaskedModel, float]:
        nonlocal log
        t0 = time.perf_counter()
        model = build_model(dims, seed)
        log = train_with_cfg(model, dataset, rows, train_cfg,
                             SeededRng(seed).split("train"))
        return model, time.perf_counter() - t0

    if cache_dir is None:
        model, wall = train()
        return model, log, wall, False
    key = dense_key(dataset, rows, dims, train_cfg, seed)
    model, wall, hit = cached_model(cache_dir, "dense", key, train)
    return model, log, wall, hit


def retrain_reprune(
    dataset: Dataset,
    split: DeletionSplit,
    dims: list[int],
    train_cfg: TrainCfg,
    sparsity: float,
    seed: int,
    mode: str = "unstructured",
    scope: str = "global",
    cache_dir: str | None = None,
) -> tuple[MaskedModel, float]:
    """Train on the retained rows only, prune to the target, return wall time.

    The wall is the training's (the stored one, when the dense model comes
    from the cache at ``cache_dir``) plus the prune's. Oracles of one seed
    at several sparsities share that one dense model.
    """
    topo = topology(mode, scope)
    model, _, wall, _ = train_model(cache_dir, dataset, split.retain_indices,
                                    dims, train_cfg, seed)
    t0 = time.perf_counter()
    topo.prune(model, sparsity)
    return model, wall + time.perf_counter() - t0


def _stored_wall(path: str) -> float:
    """The build wall time a cache entry's header carries."""
    text = snapshot_header(path).get("wall", "")
    try:
        wall = float(text)
    except ValueError:
        wall = math.nan
    if not (math.isfinite(wall) and wall >= 0.0):
        raise FormatError(f"{path}: wall={text!r} is not a build time")
    return wall


def cached_model(
    cache_dir: str,
    kind: str,
    key: str,
    build: Callable[[], tuple[MaskedModel, float]],
) -> tuple[MaskedModel, float, bool]:
    """``build()`` behind the snapshot cache; returns (model, wall_s, hit).

    The entry ``<kind>-<key>.bin`` carries the wall time of the build it
    stands for, and a hit returns that stored time, not the time of the
    read. An entry that fails to load or has no stored wall is deleted and
    rebuilt like a miss.
    """
    path = os.path.join(cache_dir, f"{kind}-{key}.bin")
    if os.path.exists(path):
        try:
            model = load_snapshot(path)
            wall = _stored_wall(path)
        except FormatError:
            os.remove(path)
        else:
            return model, wall, True
    model, wall = build()
    os.makedirs(cache_dir, exist_ok=True)
    # Write a private temp file and rename it into place, so a reader never
    # sees a half-written snapshot under the cache name.
    fd, tmp = tempfile.mkstemp(prefix=f"{kind}-{key}.", suffix=".tmp",
                               dir=cache_dir)
    os.close(fd)
    try:
        save_snapshot(model, tmp, {"wall": repr(wall)})
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return model, wall, False


def cached_oracle(
    cache_dir: str | None,
    dataset: Dataset,
    split: DeletionSplit,
    dims: list[int],
    train_cfg: TrainCfg,
    sparsity: float,
    seed: int,
    mode: str = "unstructured",
    scope: str = "global",
    rewind_from: None = None,
    imp_rounds: int = 1,
) -> tuple[MaskedModel, float, bool]:
    """retrain_reprune behind the model cache; returns (model, wall_s, hit).

    ``rewind_from`` and ``imp_rounds`` only keep the positional slots that
    perfbench/workloads.py fills with ``None`` and ``1``; the oracle has no
    other variant, so any other value is an ``InputError``.
    """
    if rewind_from is not None or imp_rounds != 1:
        raise InputError(f"the oracle takes rewind_from=None and imp_rounds=1, "
                         f"got {rewind_from!r} and {imp_rounds!r}")

    def retrain() -> tuple[MaskedModel, float]:
        return retrain_reprune(dataset, split, dims, train_cfg, sparsity, seed,
                               mode, scope, cache_dir)

    if cache_dir is None:
        model, wall = retrain()
        return model, wall, False
    key = oracle_key(dataset, split, dims, train_cfg, sparsity, mode, scope,
                     seed)
    return cached_model(cache_dir, "oracle", key, retrain)
