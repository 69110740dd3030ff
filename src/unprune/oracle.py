"""The gold standard: retrain from scratch on retained data, then re-prune.

The oracle reuses the run's architecture and seed discipline: a fresh init
from the same seed, which is the original model's init (``rewind_from``
starts it from another model's init snapshot instead). Oracle snapshots are
cached under a content hash of (dataset, split, config), so repeated
comparisons skip the retrain.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time

import numpy as np

from .core import Structured, topology
from .data import Dataset, DeletionSplit
from .errors import FormatError, InputError
from .model import MaskedModel, init_model, load_snapshot, mlp_specs, save_snapshot
from .numeric import SeededRng
from .train import TrainCfg, train_with_cfg


def build_model(dims: list[int], seed: int) -> MaskedModel:
    """Fresh dense model; the single place that fixes the init seed discipline."""
    return init_model(mlp_specs(dims), SeededRng(seed).split("init"))


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
    h = hashlib.sha256()
    h.update(dataset.inputs.tobytes())
    h.update(dataset.labels.tobytes())
    h.update(dataset.name.encode())
    h.update(split.forget_indices.tobytes())
    h.update(
        repr((dims, train_cfg, float(sparsity), mode, scope, int(seed),
              bool(rewind), int(imp_rounds))).encode()
    )
    return h.hexdigest()[:16]


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
    """retrain_reprune behind a snapshot cache; returns (model, wall_s, hit).

    A cached file that fails to load is deleted and retrained like a miss.
    """
    if cache_dir is None:
        model, wall = retrain_reprune(
            dataset, split, dims, train_cfg, sparsity, seed, mode, scope,
            rewind_from, imp_rounds,
        )
        return model, wall, False
    key = oracle_key(
        dataset, split, dims, train_cfg, sparsity, mode, scope, seed,
        rewind_from is not None, imp_rounds,
    )
    path = os.path.join(cache_dir, f"oracle-{key}.bin")
    if os.path.exists(path):
        t0 = time.perf_counter()
        try:
            model = load_snapshot(path)
        except FormatError:
            os.remove(path)
        else:
            return model, time.perf_counter() - t0, True
    model, wall = retrain_reprune(
        dataset, split, dims, train_cfg, sparsity, seed, mode, scope,
        rewind_from, imp_rounds,
    )
    os.makedirs(cache_dir, exist_ok=True)
    # Write a private temp file and rename it into place, so a reader never
    # sees a half-written snapshot under the cache name.
    fd, tmp = tempfile.mkstemp(prefix=f"oracle-{key}.", suffix=".tmp",
                               dir=cache_dir)
    os.close(fd)
    try:
        save_snapshot(model, tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return model, wall, False
