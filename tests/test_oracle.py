import math
import os
from dataclasses import replace

import numpy as np
import pytest

import unprune.oracle as oracle_module
from unprune.config import ExperimentConfig
from unprune.core import topology
from unprune.data import gen_blobs, split_delete
from unprune.errors import InputError
from unprune.experiment import build_data, prepare_seed
from unprune.metrics import MaskPair, iou, kl_masked_weights
from unprune.model import load_snapshot, save_snapshot, snapshot_header
from unprune.numeric import SeededRng
from unprune.oracle import (
    build_model,
    cached_oracle,
    dense_key,
    oracle_key,
    retrain_reprune,
)
from unprune.prune import sparsity_of
from unprune.train import TrainCfg

# A small task whose dense original prepare_seed trains in well under 1 s.
DENSE_CFG = ExperimentConfig(
    n_per_class=30, test_per_class=10, hidden=(10,),
    train=TrainCfg(epochs=120, lr=0.3, batch_size=60), seeds=(60,),
)


@pytest.fixture(scope="module")
def small_task():
    rng = SeededRng(60)
    train = gen_blobs(rng.split("tr"), 60, 2, 2, 1.2)
    split = split_delete(train, 0.1, rng.split("del"))
    return train, split, TrainCfg(epochs=120, lr=0.3, batch_size=120)


@pytest.fixture(params=["oracle", "dense"])
def entry(request, small_task):
    """One kind of model-cache entry: (lookup, build, file name, files).

    ``lookup(cache_dir)`` returns (model, wall_s, hit) through the cache,
    ``build()`` the same model built without one; ``files`` lists the cache
    directory after a lookup (an oracle also stores its dense model).
    """
    train, split, cfg = small_task
    if request.param == "oracle":
        args = (train, split, [2, 10, 2], cfg, 0.5, 60)
        key = oracle_key(*args[:5], "unstructured", "global", 60)
        retained = dense_key(train, split.retain_indices, [2, 10, 2], cfg, 60)
        return (lambda cache: cached_oracle(cache, *args),
                lambda: retrain_reprune(*args)[0], f"oracle-{key}.bin",
                [f"dense-{retained}.bin", f"oracle-{key}.bin"])

    def lookup(cache):
        setup = prepare_seed(DENSE_CFG, 60, cache)
        return setup.dense, setup.train_wall, setup.log is None

    dense_data = build_data(DENSE_CFG, 60)[0]
    key = dense_key(dense_data, np.arange(dense_data.n), DENSE_CFG.arch_dims(),
                    DENSE_CFG.train, 60)
    name = f"dense-{key}.bin"
    return (lookup, lambda: prepare_seed(DENSE_CFG, 60).dense, name, [name])


def _same_model(a, b):
    for got, want in ((a.weights, b.weights), (a.biases, b.biases),
                      (a.masks, b.masks), (a.init_snapshot, b.init_snapshot)):
        assert all(np.array_equal(x, y) for x, y in zip(got, want))


def test_oracle_deterministic(small_task):
    train, split, cfg = small_task
    a, _ = retrain_reprune(train, split, [2, 10, 2], cfg, 0.5, 60)
    b, _ = retrain_reprune(train, split, [2, 10, 2], cfg, 0.5, 60)
    assert np.array_equal(a.flat_weights(), b.flat_weights())
    assert np.array_equal(a.flat_masks(), b.flat_masks())


def test_oracle_vs_itself(small_task):
    train, split, cfg = small_task
    model, _ = retrain_reprune(train, split, [2, 10, 2], cfg, 0.5, 60)
    kept = topology("unstructured").kept(model)
    assert iou(MaskPair(kept, kept)) == 1.0
    assert kl_masked_weights(model, model) == 0.0


def test_oracle_reaches_requested_sparsity(small_task):
    train, split, cfg = small_task
    model, _ = retrain_reprune(train, split, [2, 10, 2], cfg, 0.5, 60)
    report = sparsity_of(model)
    assert abs(report.sparsity - 0.5) <= 1.0 / report.total_weights


def test_cache_round_trip(tmp_path, small_task):
    train, split, cfg = small_task
    cache = str(tmp_path / "cache")
    fresh, wall0, hit0 = cached_oracle(cache, train, split, [2, 10, 2], cfg,
                                       0.5, 60)
    again, wall1, hit1 = cached_oracle(cache, train, split, [2, 10, 2], cfg,
                                       0.5, 60)
    assert not hit0 and hit1
    assert np.array_equal(fresh.flat_weights(), again.flat_weights())
    assert np.array_equal(fresh.flat_masks(), again.flat_masks())
    # A hit reports the retrain it stands for, not the time of the read.
    assert wall0 > 0.0 and wall1 == wall0


def test_cache_key_sensitivity(small_task):
    train, split, cfg = small_task
    base = oracle_key(train, split, [2, 10, 2], cfg, 0.5, "unstructured",
                      "global", 60)
    other_seed = oracle_key(train, split, [2, 10, 2], cfg, 0.5, "unstructured",
                            "global", 61)
    other_sparsity = oracle_key(train, split, [2, 10, 2], cfg, 0.6,
                                "unstructured", "global", 60)
    assert len({base, other_seed, other_sparsity}) == 3
    rows = np.arange(train.n)
    dense = {
        dense_key(train, rows, [2, 10, 2], cfg, 60),
        dense_key(train, split.retain_indices, [2, 10, 2], cfg, 60),
        dense_key(train, rows, [2, 10, 2], cfg, 61),
        dense_key(train, rows, [2, 12, 2], cfg, 60),
        dense_key(train, rows, [2, 10, 2], replace(cfg, epochs=121), 60),
        dense_key(train, rows, [2, 10, 2], replace(cfg, lr=0.2), 60),
        dense_key(train, rows, [2, 10, 2], replace(cfg, batch_size=60), 60),
    }
    assert len(dense) == 7


def test_cache_version_salts_every_key(small_task, monkeypatch):
    train, split, cfg = small_task

    def keys():
        return (oracle_key(train, split, [2, 10, 2], cfg, 0.5, "unstructured",
                           "global", 60),
                dense_key(train, np.arange(train.n), [2, 10, 2], cfg, 60))

    before = keys()
    monkeypatch.setattr(oracle_module, "CACHE_VERSION",
                        oracle_module.CACHE_VERSION + 1)
    after = keys()
    assert before[0] != after[0] and before[1] != after[1]


def test_oracle_diverges_from_original(ref_grid):
    # The data-dependence phenomenon: retraining without the forgotten rows
    # lands on a visibly different mask even from the same seed.
    values = [row.iou for row in ref_grid[0].select(method="original")]
    assert len(values) == 5
    assert all(not math.isnan(v) and v < 1.0 for v in values)


def test_cache_write_is_atomic(tmp_path, entry, monkeypatch):
    lookup, _, _, files = entry
    cache = tmp_path / "cache"

    def broken_save(model, path, extra=None):
        with open(path, "wb") as fh:
            fh.write(b"unprune-model 1\nseed=")
        raise OSError("disk full")

    monkeypatch.setattr(oracle_module, "save_snapshot", broken_save)
    with pytest.raises(OSError, match="disk full"):
        lookup(str(cache))
    assert os.listdir(cache) == []
    monkeypatch.undo()
    _, _, hit = lookup(str(cache))
    assert not hit
    assert sorted(os.listdir(cache)) == files


def _benchmark_oracle(cache_dir, cfg, seed, sparsity, train, split):
    # The call of perfbench/workloads.py:cached_oracle, by position.
    return cached_oracle(
        cache_dir, train, split, cfg.arch_dims(), cfg.train, sparsity, seed,
        cfg.prune_mode, cfg.scope, None, cfg.imp_rounds)


def test_benchmark_call_misses_through_one_retrain_then_hits(
        tmp_path, monkeypatch):
    train, _, split = build_data(DENSE_CFG, 60)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return retrain_reprune(*args, **kwargs)

    monkeypatch.setattr(oracle_module, "retrain_reprune", counting)
    cache = str(tmp_path / "cache")
    first, wall, hit = _benchmark_oracle(cache, DENSE_CFG, 60, 0.5, train,
                                         split)
    assert not hit and len(calls) == 1
    again, stored, hit = _benchmark_oracle(cache, DENSE_CFG, 60, 0.5, train,
                                           split)
    assert hit and len(calls) == 1 and stored == wall
    _same_model(again, first)


def test_rewind_and_imp_slots_take_only_none_and_one(small_task):
    train, split, cfg = small_task
    args = (None, train, split, [2, 10, 2], cfg, 0.5, 60, "unstructured",
            "global")
    for rewind, rounds in ((build_model([2, 10, 2], 60), 1), (None, 0),
                           (None, 3)):
        with pytest.raises(InputError, match="imp_rounds"):
            cached_oracle(*args, rewind, rounds)


def test_corrupt_cache_file_is_retrained(tmp_path, entry):
    lookup, build, name, files = entry
    cache = tmp_path / "cache"
    lookup(str(cache))
    path = cache / name
    path.write_bytes(path.read_bytes()[:-9])  # a truncated snapshot
    model, _, hit = lookup(str(cache))
    assert not hit
    fresh = build()
    for got in (model, load_snapshot(str(path))):
        _same_model(got, fresh)
    assert sorted(os.listdir(cache)) == files


def test_entry_without_stored_wall_is_rebuilt(tmp_path, entry):
    # An entry that carries no build wall time cannot report one on a hit.
    lookup, build, name, _ = entry
    cache = tmp_path / "cache"
    cache.mkdir()
    save_snapshot(build(), str(cache / name))
    model, wall, hit = lookup(str(cache))
    assert not hit
    assert float(snapshot_header(str(cache / name))["wall"]) == wall
    _, again, hit = lookup(str(cache))
    assert hit and again == wall
    _same_model(model, load_snapshot(str(cache / name)))
