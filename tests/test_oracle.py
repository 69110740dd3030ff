import math
import os
from dataclasses import replace

import numpy as np
import pytest

import unprune.oracle as oracle_module
from unprune.config import ExperimentConfig
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
    """One kind of model-cache entry: (lookup, build, file name).

    ``lookup(cache_dir)`` returns (model, wall_s, hit) through the cache,
    ``build()`` the same model built without one.
    """
    train, split, cfg = small_task
    if request.param == "oracle":
        args = (train, split, [2, 10, 2], cfg, 0.5, 60)
        key = oracle_key(*args[:5], "unstructured", "global", 60, False, 1)
        return (lambda cache: cached_oracle(cache, *args),
                lambda: retrain_reprune(*args)[0], f"oracle-{key}.bin")

    def lookup(cache):
        setup = prepare_seed(DENSE_CFG, 60, cache)
        return setup.dense, setup.train_wall, setup.log is None

    dense_data = build_data(DENSE_CFG, 60)[0]
    key = dense_key(dense_data, DENSE_CFG.arch_dims(), DENSE_CFG.train, 60)
    return (lookup, lambda: prepare_seed(DENSE_CFG, 60).dense,
            f"dense-{key}.bin")


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
    assert iou(MaskPair.from_models(model, model)) == 1.0
    assert kl_masked_weights(model, model) == 0.0


def test_oracle_reaches_requested_sparsity(small_task):
    train, split, cfg = small_task
    model, _ = retrain_reprune(train, split, [2, 10, 2], cfg, 0.5, 60)
    report = sparsity_of(model)
    assert abs(report.sparsity - 0.5) <= 1.0 / report.total_weights


def test_oracle_rewind_uses_given_init(small_task):
    train, split, cfg = small_task
    donor = build_model([2, 10, 2], 999)
    model, _ = retrain_reprune(train, split, [2, 10, 2], cfg, 0.5, 60,
                               rewind_from=donor)
    for snap, donor_snap in zip(model.init_snapshot, donor.init_snapshot):
        assert np.array_equal(snap, donor_snap)


def test_imp_variant_runs_and_restores_sparsity(small_task):
    train, split, cfg = small_task
    model, _ = retrain_reprune(train, split, [2, 10, 2], cfg, 0.6, 60,
                               imp_rounds=3)
    report = sparsity_of(model)
    assert abs(report.sparsity - 0.6) <= 1.0 / report.total_weights


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
                      "global", 60, False, 1)
    other_seed = oracle_key(train, split, [2, 10, 2], cfg, 0.5, "unstructured",
                            "global", 61, False, 1)
    other_sparsity = oracle_key(train, split, [2, 10, 2], cfg, 0.6,
                                "unstructured", "global", 60, False, 1)
    assert len({base, other_seed, other_sparsity}) == 3
    dense = {
        dense_key(train, [2, 10, 2], cfg, 60),
        dense_key(train, [2, 10, 2], cfg, 61),
        dense_key(train, [2, 12, 2], cfg, 60),
        dense_key(train, [2, 10, 2], replace(cfg, epochs=121), 60),
        dense_key(train, [2, 10, 2], replace(cfg, lr=0.2), 60),
        dense_key(train, [2, 10, 2], replace(cfg, batch_size=60), 60),
    }
    assert len(dense) == 6


def test_cache_version_salts_every_key(small_task, monkeypatch):
    train, split, cfg = small_task

    def keys():
        return (oracle_key(train, split, [2, 10, 2], cfg, 0.5, "unstructured",
                           "global", 60, False, 1),
                dense_key(train, [2, 10, 2], cfg, 60))

    before = keys()
    monkeypatch.setattr(oracle_module, "CACHE_VERSION",
                        oracle_module.CACHE_VERSION + 1)
    after = keys()
    assert before[0] != after[0] and before[1] != after[1]


def test_oracle_diverges_from_original(ref_runs, ref_oracles):
    # The data-dependence phenomenon: retraining without the forgotten rows
    # lands on a visibly different mask even from the same seed.
    values = []
    for seed, run in ref_runs.items():
        pair = MaskPair.from_models(run.pruned[0.6], ref_oracles[(seed, 0.6)])
        value = iou(pair)
        assert not math.isnan(value)
        values.append(value)
    assert all(v < 1.0 for v in values)


def test_cache_write_is_atomic(tmp_path, entry, monkeypatch):
    lookup, _, name = entry
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
    assert os.listdir(cache) == [name]


def test_structured_imp_rounds_rejected(small_task):
    # Iterative magnitude pruning is defined for unstructured masks only.
    train, split, cfg = small_task
    with pytest.raises(InputError, match="imp_rounds"):
        retrain_reprune(train, split, [2, 10, 10, 2], cfg, 0.5, 60,
                        mode="structured", imp_rounds=3)


def test_imp_rounds_below_one_rejected(small_task):
    # 0 and -3 would otherwise train one round under their own cache keys.
    train, split, cfg = small_task
    for rounds in (0, -3):
        with pytest.raises(InputError, match="imp_rounds"):
            retrain_reprune(train, split, [2, 10, 2], cfg, 0.5, 60,
                            imp_rounds=rounds)


def test_corrupt_cache_file_is_retrained(tmp_path, entry):
    lookup, build, name = entry
    cache = tmp_path / "cache"
    lookup(str(cache))
    path = cache / name
    path.write_bytes(path.read_bytes()[:-9])  # a truncated snapshot
    model, _, hit = lookup(str(cache))
    assert not hit
    fresh = build()
    for got in (model, load_snapshot(str(path))):
        _same_model(got, fresh)
    assert os.listdir(cache) == [name]


def test_entry_without_stored_wall_is_rebuilt(tmp_path, entry):
    # An entry that carries no build wall time cannot report one on a hit.
    lookup, build, name = entry
    cache = tmp_path / "cache"
    cache.mkdir()
    save_snapshot(build(), str(cache / name))
    model, wall, hit = lookup(str(cache))
    assert not hit
    assert float(snapshot_header(str(cache / name))["wall"]) == wall
    _, again, hit = lookup(str(cache))
    assert hit and again == wall
    _same_model(model, load_snapshot(str(cache / name)))
