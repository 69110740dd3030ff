import numpy as np
import pytest

from unprune.data import Dataset, gen_blobs
from unprune.errors import NumericError
from unprune.model import init_model
from unprune.numeric import SeededRng
from unprune.oracle import build_model
from unprune.prune import prune_magnitude, sparsity_of
from unprune.train import TrainCfg, evaluate, train_sgd, train_with_cfg


def xor_dataset():
    return Dataset(
        inputs=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
        labels=np.array([0, 1, 1, 0]),
        num_classes=2,
        name="xor",
    )


def test_zero_lr_leaves_weights_unchanged():
    data = gen_blobs(SeededRng(0), 20, 2, 2, 1.0)
    model = build_model([2, 8, 2], 0)
    before = [w.copy() for w in model.weights]
    log = train_sgd(model, data, np.arange(data.n), 5, 0.0, SeededRng(1))
    for w, b in zip(model.weights, before):
        assert np.array_equal(w, b)
    losses = {row[2] for row in log.rows}
    assert len(losses) == 1  # flat log


def test_xor_reaches_full_accuracy_within_2000_epochs():
    data = xor_dataset()
    model = build_model([2, 16, 2], 2)
    log = train_sgd(model, data, np.arange(4), 2000, 0.1, SeededRng(2))
    assert max(row[3] for row in log.rows) == 1.0


def test_masked_entries_stay_zero_through_training():
    data = gen_blobs(SeededRng(3), 40, 2, 2, 1.0)
    model = build_model([2, 12, 2], 3)
    prune_magnitude(model, 0.5)
    masks = [m.copy() for m in model.masks]
    train_sgd(model, data, np.arange(data.n), 30, 0.2, SeededRng(4))
    for w, m, m0 in zip(model.weights, model.masks, masks):
        assert np.array_equal(m, m0)
        assert np.all(w[m == 0.0] == 0.0)


def test_nonzero_pruned_weights_are_zeroed_before_the_first_step():
    # A model handed over with nonzero pruned weights trains as its
    # mask-applied copy does: the first pass already reads stored zeros.
    data = gen_blobs(SeededRng(3), 40, 2, 2, 1.0)
    model = build_model([2, 12, 2], 3)
    prune_magnitude(model, 0.5)
    shadow = model.clone()
    for w, m in zip(shadow.weights, shadow.masks):
        w[m == 0.0] = 123.456
    logs = [train_sgd(m, data, np.arange(data.n), 10, 0.2, SeededRng(4)).rows
            for m in (model, shadow)]
    assert logs[0] == logs[1]
    for a, b in zip(model.weights + model.biases,
                    shadow.weights + shadow.biases):
        assert np.array_equal(a, b)


def test_frozen_topology_sparsity_preserved():
    data = gen_blobs(SeededRng(5), 40, 2, 2, 1.0)
    model = build_model([2, 12, 2], 5)
    prune_magnitude(model, 0.4)
    before = sparsity_of(model).sparsity
    train_sgd(model, data, np.arange(data.n), 20, 0.2, SeededRng(6))
    assert sparsity_of(model).sparsity == before


def test_training_is_seed_reproducible():
    data = gen_blobs(SeededRng(7), 40, 2, 2, 1.0)
    logs = []
    finals = []
    for _ in range(2):
        model = build_model([2, 12, 2], 7)
        log = train_sgd(model, data, np.arange(data.n), 15, 0.2, SeededRng(8))
        logs.append(log.rows)
        finals.append(model.flat_weights())
    assert logs[0] == logs[1]
    assert np.array_equal(finals[0], finals[1])


def test_divergence_raises_numeric_error_naming_epoch():
    data = gen_blobs(SeededRng(9), 40, 2, 2, 1.0)
    model = build_model([2, 12, 2], 9)
    with pytest.raises(NumericError, match="epoch"):
        train_sgd(model, data, np.arange(data.n), 50, 1e9, SeededRng(10))


def test_evaluate_all_correct():
    data = xor_dataset()
    model = build_model([2, 16, 2], 2)
    train_sgd(model, data, np.arange(4), 2000, 0.1, SeededRng(2))
    _, acc = evaluate(model, data, np.arange(4))
    assert acc == 1.0


def test_evaluate_random_model_near_chance():
    # Labels independent of inputs: any fixed model scores ~ coin flips.
    rng = SeededRng(11)
    data = Dataset(
        inputs=rng.normal(1000 * 2).reshape(1000, 2),
        labels=np.tile([0, 1], 500),
        num_classes=2,
        name="noise",
    )
    model = init_model([2, 16, 2], SeededRng(123).split("init"))
    _, acc = evaluate(model, data, np.arange(data.n))
    assert abs(acc - 0.5) <= 0.05


def test_memorization_gap_on_reference_run(ref_runs):
    # Accuracy on the forgotten rows (seen in training) beats held-out accuracy.
    run = ref_runs[0]
    _, ua = evaluate(run.dense, run.train_data, run.split.forget_indices)
    _, ta = evaluate(run.dense, run.test_data, np.arange(run.test_data.n))
    assert ua > ta


def test_trainlog_csv(tmp_path):
    data = xor_dataset()
    model = build_model([2, 8, 2], 0)
    log = train_with_cfg(model, data, np.arange(4), TrainCfg(3, 0.1), SeededRng(0))
    path = tmp_path / "log.csv"
    log.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,split,loss,accuracy"
    assert len(lines) == 4


def test_full_batch_divergence_in_last_epoch_names_epoch():
    # One step leaves finite weights whose forward pass overflows; only the
    # closing evaluate of the trained model can see it.
    data = gen_blobs(SeededRng(9), 40, 2, 2, 1.0)
    model = build_model([2, 12, 2], 9)
    with pytest.raises(NumericError, match="epoch 0"):
        train_sgd(model, data, np.arange(data.n), 1, 1e200, SeededRng(10))


def test_full_batch_log_rows_equal_evaluate_after_each_epoch():
    data = gen_blobs(SeededRng(12), 20, 2, 2, 1.0)
    rows = np.arange(data.n)
    model = build_model([2, 12, 2], 12)
    log = train_sgd(model, data, rows, 10, 0.5, SeededRng(13))
    for k in range(10):
        model = build_model([2, 12, 2], 12)
        train_sgd(model, data, rows, k + 1, 0.5, SeededRng(13))
        assert log.rows[k] == (k, "train", *evaluate(model, data, rows))
