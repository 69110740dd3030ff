import math
import os

import numpy as np
import pytest

import unprune.oracle as oracle_module
from unprune.data import gen_blobs, split_delete
from unprune.errors import InputError
from unprune.metrics import MaskPair, iou, kl_masked_weights
from unprune.model import load_snapshot
from unprune.numeric import SeededRng
from unprune.oracle import build_model, cached_oracle, oracle_key, retrain_reprune
from unprune.prune import sparsity_of
from unprune.train import TrainCfg


@pytest.fixture(scope="module")
def small_task():
    rng = SeededRng(60)
    train = gen_blobs(rng.split("tr"), 60, 2, 2, 1.2)
    split = split_delete(train, 0.1, rng.split("del"))
    return train, split, TrainCfg(epochs=120, lr=0.3, batch_size=120)


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
    fresh, _, hit0 = cached_oracle(cache, train, split, [2, 10, 2], cfg, 0.5, 60)
    again, _, hit1 = cached_oracle(cache, train, split, [2, 10, 2], cfg, 0.5, 60)
    assert not hit0 and hit1
    assert np.array_equal(fresh.flat_weights(), again.flat_weights())
    assert np.array_equal(fresh.flat_masks(), again.flat_masks())


def test_cache_key_sensitivity(small_task):
    train, split, cfg = small_task
    base = oracle_key(train, split, [2, 10, 2], cfg, 0.5, "unstructured",
                      "global", 60, False, 1)
    other_seed = oracle_key(train, split, [2, 10, 2], cfg, 0.5, "unstructured",
                            "global", 61, False, 1)
    other_sparsity = oracle_key(train, split, [2, 10, 2], cfg, 0.6,
                                "unstructured", "global", 60, False, 1)
    assert len({base, other_seed, other_sparsity}) == 3


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


def test_cache_write_is_atomic(tmp_path, small_task, monkeypatch):
    train, split, cfg = small_task
    cache = tmp_path / "cache"

    def broken_save(model, path):
        with open(path, "wb") as fh:
            fh.write(b"unprune-model 1\nseed=")
        raise OSError("disk full")

    monkeypatch.setattr(oracle_module, "save_snapshot", broken_save)
    with pytest.raises(OSError, match="disk full"):
        cached_oracle(str(cache), train, split, [2, 10, 2], cfg, 0.5, 60)
    assert os.listdir(cache) == []
    monkeypatch.undo()
    _, _, hit = cached_oracle(str(cache), train, split, [2, 10, 2], cfg, 0.5, 60)
    assert not hit
    key = oracle_key(train, split, [2, 10, 2], cfg, 0.5, "unstructured",
                     "global", 60, False, 1)
    assert os.listdir(cache) == [f"oracle-{key}.bin"]


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


def test_corrupt_cache_file_is_retrained(tmp_path, small_task):
    train, split, cfg = small_task
    cache = tmp_path / "cache"
    args = (train, split, [2, 10, 2], cfg, 0.5, 60)
    cached_oracle(str(cache), *args)
    (path,) = cache.iterdir()
    path.write_bytes(path.read_bytes()[:-9])  # a truncated snapshot
    model, _, hit = cached_oracle(str(cache), *args)
    fresh, _ = retrain_reprune(*args)
    assert not hit
    for got in (model, load_snapshot(str(path))):
        assert np.array_equal(got.flat_weights(), fresh.flat_weights())
        assert np.array_equal(got.flat_masks(), fresh.flat_masks())
    assert os.listdir(cache) == [path.name]
