import hashlib

import numpy as np
import pytest

from unprune.data import gen_blobs, split_delete
from unprune.errors import ConfigError, InputError
from unprune.model import backward, init_model
from unprune.numeric import SeededRng
from unprune.oracle import build_model
from unprune.train import TrainCfg, evaluate, train_sgd, train_with_cfg
from unprune.unlearn import (
    METHODS,
    UnlearnConfig,
    fisher_diag,
    unlearn,
    unlearn_finetune,
    unlearn_fisher_forgetting,
    unlearn_gradient_ascent,
)


@pytest.fixture(scope="module")
def task():
    rng = SeededRng(40)
    train = gen_blobs(rng.split("tr"), 60, 2, 2, 1.5)
    split = split_delete(train, 0.2, rng.split("del"))
    model = build_model([2, 16, 2], 40)
    train_with_cfg(model, train, np.arange(train.n), TrainCfg(200, 0.3),
                   SeededRng(40).split("sgd"))
    return train, split, model


def flat_params(model):
    return np.concatenate(
        [w.ravel() for w in model.weights] + [b.ravel() for b in model.biases]
    )


def test_noop_leaves_model_unchanged(task):
    train, split, model = task
    m = model.clone()
    unlearn(m, split, train, UnlearnConfig(method="noop"), SeededRng(0))
    assert np.array_equal(flat_params(m), flat_params(model))


def test_unknown_method_rejected(task):
    train, split, model = task
    with pytest.raises(ConfigError):
        unlearn(model.clone(), split, train,
                UnlearnConfig(method="teleport"), SeededRng(0))


def test_dispatch_deterministic(task):
    train, split, model = task
    for method in METHODS:
        cfg = UnlearnConfig(method=method, steps=3, rate=1e-3,
                            fisher_noise_scale=1e-3)
        a = unlearn(model.clone(), split, train, cfg, SeededRng(9))
        b = unlearn(model.clone(), split, train, cfg, SeededRng(9))
        assert np.array_equal(flat_params(a), flat_params(b)), method


def test_gradient_ascent_increases_forget_loss(task):
    train, split, model = task
    m = model.clone()
    before = evaluate(m, train, split.forget_indices)[0]
    unlearn(m, split, train,
            UnlearnConfig(method="gradient_ascent", steps=1, rate=1e-4),
            SeededRng(0))
    after = evaluate(m, train, split.forget_indices)[0]
    assert after > before


def test_gradient_ascent_zero_rate_is_identity(task):
    train, split, model = task
    m = model.clone()
    unlearn_gradient_ascent(m, train, split.forget_indices, 5, 0.0)
    assert np.array_equal(flat_params(m), flat_params(model))


def test_gradient_ascent_first_order_taylor(task):
    # One ascent step on one sample: dloss ~ eta * |grad|^2 within 10%.
    train, split, model = task
    row = split.forget_indices[:1]
    m = model.clone()
    x, y = train.inputs[row], train.labels[row]
    loss0, grads = backward(m, x, y)
    grad_sq = sum(float((g ** 2).sum())
                  for g in grads.weights + grads.biases)
    unlearn_gradient_ascent(m, train, row, 1, 1e-4)
    loss1, _ = backward(m, x, y)
    assert (loss1 - loss0) == pytest.approx(1e-4 * grad_sq, rel=0.1)


def test_gradient_ascent_drops_forget_accuracy(ref_runs, ref_pruned):
    run = ref_runs[0]
    m = ref_pruned[0].clone()
    ua_before = evaluate(m, run.train_data, run.split.forget_indices)[1]
    unlearn_gradient_ascent(m, run.train_data, run.split.forget_indices, 50, 1e-3)
    ua_after = evaluate(m, run.train_data, run.split.forget_indices)[1]
    assert ua_after < ua_before


def test_fisher_diag_nonnegative_and_congruent(task):
    train, split, model = task
    fisher = fisher_diag(model, train, split.retain_indices)
    for f, w in zip(fisher.weights, model.weights):
        assert f.shape == w.shape
        assert np.all(f >= 0.0)
    for f, b in zip(fisher.biases, model.biases):
        assert f.shape == b.shape
        assert np.all(f >= 0.0)


def test_fisher_diag_zero_for_zero_gradients():
    # Saturated logits drive the per-sample gradient to exactly zero.
    model = init_model([2, 2], SeededRng(0))
    model.weights[0][...] = np.array([[400.0, 0.0], [-400.0, 0.0]])
    data = gen_blobs(SeededRng(1), 4, 2, 2, 1e-6)
    from unprune.data import Dataset

    data = Dataset(inputs=np.tile([[1.0, 0.0]], (4, 1)),
                   labels=np.zeros(4, dtype=np.int64), num_classes=2,
                   name="saturated")
    fisher = fisher_diag(model, data, np.arange(4))
    for f in fisher.weights + fisher.biases:
        assert np.all(f == 0.0)


def test_fisher_diag_invariant_under_duplication(task):
    train, split, model = task
    rows = split.retain_indices[:20]
    a = fisher_diag(model, train, rows)
    b = fisher_diag(model, train, np.concatenate([rows, rows]))
    for fa, fb in zip(a.weights + a.biases, b.weights + b.biases):
        assert np.allclose(fa, fb, atol=1e-12)


def test_fisher_forgetting_zero_scale_is_identity(task):
    train, split, model = task
    m = model.clone()
    unlearn_fisher_forgetting(m, split, train, 0.0, SeededRng(3))
    assert np.array_equal(flat_params(m), flat_params(model))


def test_fisher_noise_smaller_on_important_parameters(task):
    # Statistically over 100 draws: |noise| on the top-Fisher decile is
    # smaller than on the bottom decile.
    train, split, model = task
    fisher = fisher_diag(model, train, split.retain_indices)
    flat_f = np.concatenate([f.ravel() for f in fisher.weights])
    top = np.argsort(flat_f)[-20:]
    bottom = np.argsort(flat_f)[:20]
    deltas = []
    for draw in range(100):
        m = model.clone()
        unlearn_fisher_forgetting(m, split, train, 1e-3, SeededRng(1000 + draw))
        diff = np.concatenate(
            [(a - b).ravel() for a, b in zip(m.weights, model.weights)]
        )
        deltas.append(np.abs(diff))
    mean_abs = np.mean(deltas, axis=0)
    assert mean_abs[top].mean() < mean_abs[bottom].mean()


def test_fisher_scrubbing_hits_forget_set_harder():
    # Class-targeted deletion: scrubbing with a retain-set Fisher degrades
    # accuracy on the forgotten rows more than on the retained rows.
    rng = SeededRng(7)
    train = gen_blobs(rng.split("data-train"), 200, 2, 2, 2.0)
    split = split_delete(train, 0.15, rng.split("delete"), target_class=0)
    model = build_model([2, 64, 32, 2], 7)
    train_with_cfg(model, train, np.arange(train.n), TrainCfg(2000, 1.0),
                   SeededRng(7).split("train"))
    acc_f0 = evaluate(model, train, split.forget_indices)[1]
    acc_r0 = evaluate(model, train, split.retain_indices)[1]
    scrubbed = model.clone()
    unlearn_fisher_forgetting(scrubbed, split, train, 0.03,
                              SeededRng(7).split("noise"))
    acc_f1 = evaluate(scrubbed, train, split.forget_indices)[1]
    acc_r1 = evaluate(scrubbed, train, split.retain_indices)[1]
    assert (acc_f0 - acc_f1) > (acc_r0 - acc_r1)


def test_finetune_zero_steps_is_identity(task):
    train, split, model = task
    m = model.clone()
    unlearn_finetune(m, train, split.retain_indices, 0, 0.1)
    assert np.array_equal(flat_params(m), flat_params(model))


def test_finetune_full_batch_descent_monotone(task):
    train, split, model = task
    m = model.clone()
    losses = [evaluate(m, train, split.retain_indices)[0]]
    for _ in range(5):
        unlearn_finetune(m, train, split.retain_indices, 1, 0.01)
        losses.append(evaluate(m, train, split.retain_indices)[0])
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_config_validation():
    # Only the settings a method reads are checked: Fisher scrubbing reads
    # neither steps nor rate, noop reads nothing, and the step loops ignore
    # the noise scale.
    UnlearnConfig("fisher_forgetting", steps=0, rate=-5.0).validate()
    UnlearnConfig("noop", steps=0, rate=-5.0, fisher_noise_scale=-1.0).validate()
    for method in ("gradient_ascent", "finetune"):
        UnlearnConfig(method, fisher_noise_scale=-1.0).validate()
        for bad in ({"steps": 0}, {"rate": 0.0}, {"rate": float("nan")}):
            with pytest.raises(ConfigError, match=f"{method} "):
                UnlearnConfig(method, **bad).validate()
    for scale in (-1.0, float("nan")):
        with pytest.raises(ConfigError, match="fisher_noise_scale must be >= 0"):
            UnlearnConfig("fisher_forgetting",
                          fisher_noise_scale=scale).validate()


def test_empty_row_sets_rejected(task):
    train, split, model = task
    with pytest.raises(InputError):
        unlearn_gradient_ascent(model.clone(), train, np.array([], dtype=int), 1, 1e-3)
    with pytest.raises(InputError):
        fisher_diag(model, train, np.array([], dtype=int))


def _digest_update(h, arrays):
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())


# SHA-256 over every gradient path on reference seed 0 at 60% sparsity:
# the diagonal Fisher, the three non-noop unlearners and training with its
# log. A change that moves these numbers must re-pin them and say why.
GRADIENT_PATHS_SHA256 = (
    "28ee18f1ddb21bf530d91c9298af98322cf20f979e0619cde1f1166f03126eb3")


def test_gradient_paths_pinned(ref_runs, ref_pruned):
    run = ref_runs[0]
    pruned, data, split = ref_pruned[0], run.train_data, run.split
    h = hashlib.sha256()
    for rows in (split.retain_indices, split.forget_indices):
        fisher = fisher_diag(pruned, data, rows)
        _digest_update(h, fisher.weights + fisher.biases)
    for method in ("fisher_forgetting", "gradient_ascent", "finetune"):
        cfg = UnlearnConfig(method=method, steps=7, rate=0.05,
                            fisher_noise_scale=1e-3)
        m = unlearn(pruned.clone(), split, data, cfg, SeededRng(0))
        _digest_update(h, m.weights + m.biases)
    m = pruned.clone()
    log = train_sgd(m, data, split.retain_indices, 3, 0.1,
                    SeededRng(0).split("pin"))
    _digest_update(h, m.weights + m.biases)
    h.update(repr(log.rows).encode())
    assert h.hexdigest() == GRADIENT_PATHS_SHA256
