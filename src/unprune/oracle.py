"""The gold standard: retrain from scratch on retained data, then re-prune.

The oracle reuses the run's architecture and seed discipline: a fresh init
from the same seed, which is the original model's init (``rewind_from``
starts it from another model's init snapshot instead).

Trained models are deterministic functions of their inputs, so both the
oracle and the dense original are cached as snapshots under a content hash
of those inputs (``cached_model``); repeated runs skip the training.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
import time
from collections.abc import Callable

import numpy as np

from .core import Structured, topology
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
from .train import TrainCfg, train_with_cfg


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


def oracle_key(
    dataset: Dataset,
    split: DeletionSplit,
    dims: list[int],
    train_cfg: TrainCfg,
    sparsity: float,
    mode: str,
    scope: str,
    seed: int,
    rewind: bool,
    imp_rounds: int,
) -> str:
    """Content hash identifying one oracle run."""
    return cache_key(
        dataset, split.forget_indices,
        (dims, train_cfg, float(sparsity), mode, scope, int(seed),
         bool(rewind), int(imp_rounds)),
    )


def dense_key(dataset: Dataset, dims: list[int], train_cfg: TrainCfg,
              seed: int) -> str:
    """Content hash identifying one dense training run on all of ``dataset``."""
    return cache_key(dataset, (dims, train_cfg, int(seed)))


def retrain_reprune(
    dataset: Dataset,
    split: DeletionSplit,
    dims: list[int],
    train_cfg: TrainCfg,
    sparsity: float,
    seed: int,
    mode: str = "unstructured",
    scope: str = "global",
    rewind_from: MaskedModel | None = None,
    imp_rounds: int = 1,
) -> tuple[MaskedModel, float]:
    """Train on the retained rows only, prune to the target, return wall time.

    ``imp_rounds > 1`` switches to iterative magnitude pruning with rewind to
    the saved init between rounds (an optional unstructured oracle variant,
    off by default and outside the CI acceptance path).
    """
    topo = topology(mode, scope)
    if imp_rounds < 1:
        raise InputError(f"imp_rounds must be >= 1, got {imp_rounds}")
    if imp_rounds > 1 and isinstance(topo, Structured):
        raise InputError("imp_rounds > 1 needs unstructured pruning")
    t0 = time.perf_counter()
    model = build_model(dims, seed)
    if rewind_from is not None:
        for w, s in zip(model.weights, rewind_from.init_snapshot):
            w[...] = s
        model.init_snapshot = [s.copy() for s in rewind_from.init_snapshot]
    # Same seed discipline as the original run: identical init and shuffle
    # streams, so the mask difference against the original is data-driven.
    rng = SeededRng(seed).split("train")
    if imp_rounds == 1:
        train_with_cfg(model, dataset, split.retain_indices, train_cfg, rng)
        topo.prune(model, sparsity)
    else:
        targets = [sparsity * (r + 1) / imp_rounds for r in range(imp_rounds)]
        for r, target in enumerate(targets):
            train_with_cfg(
                model, dataset, split.retain_indices, train_cfg,
                rng.split(f"imp-{r}"),
            )
            topo.prune(model, target)
            if r + 1 < imp_rounds:
                # LTH rewind: surviving weights back to their init values.
                for w, m, s in zip(model.weights, model.masks, model.init_snapshot):
                    w[...] = s * m
    return model, time.perf_counter() - t0


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
    rewind_from: MaskedModel | None = None,
    imp_rounds: int = 1,
) -> tuple[MaskedModel, float, bool]:
    """retrain_reprune behind the model cache; returns (model, wall_s, hit)."""

    def retrain() -> tuple[MaskedModel, float]:
        return retrain_reprune(dataset, split, dims, train_cfg, sparsity, seed,
                               mode, scope, rewind_from, imp_rounds)

    if cache_dir is None:
        model, wall = retrain()
        return model, wall, False
    key = oracle_key(dataset, split, dims, train_cfg, sparsity, mode, scope,
                     seed, rewind_from is not None, imp_rounds)
    return cached_model(cache_dir, "oracle", key, retrain)
