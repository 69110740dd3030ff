"""Every step loop gives the bits of a loop on ``model.backward``.

``model.backward`` is the reference. Training (``train.train_sgd``) and the
gradient unlearners (``unlearn._descend``) call the three functions it is
made of, ``model._forward_trace``, ``numeric._cross_entropy_rows`` and
``model._backward_from_trace``, but compute the loss only where training
logs it and check an unlearning batch's labels once. The loops' weights
must equal the reference's to the last bit, signed zeros included, or every
pinned digest would move. A step loop sets the BLAS thread count once,
however many products it runs, and a diverging loop raises a
``NumericError`` naming its epoch without a floating-point warning.
"""

import importlib
import warnings

import numpy as np
import pytest

from unprune import numeric
from unprune.data import Dataset, gen_blobs
from unprune.errors import NumericError
from unprune.model import apply_mask, backward, init_model, mlp_specs
from unprune.numeric import SeededRng, softmax
from unprune.oracle import build_model
from unprune.train import train_sgd
from unprune.unlearn import unlearn_finetune, unlearn_gradient_ascent


def _same_bits(expected, got):
    for a, b in zip(expected, got, strict=True):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def _model_with_signed_zeros(classes, pruned, seed):
    model = init_model(mlp_specs([3, 8, 6, classes]), SeededRng(seed).split("init"))
    rng = SeededRng(seed).split("edit")
    for w, b, m in zip(model.weights, model.biases, model.masks):
        flat = w.reshape(-1)
        picks = rng.choice(flat.size, 4)
        flat[picks[:2]] = 0.0
        flat[picks[2:]] = -0.0
        b[::2] = -0.0
        if pruned:
            m[rng.uniform(0.0, 1.0, m.size).reshape(m.shape) < 0.3] = 0.0
    # Dead hidden units: their ReLU derivative turns each delta they receive
    # into a zero with that delta's sign.
    for l, unit in ((0, 1), (0, 4), (0, 6), (1, 2), (1, 5)):
        model.weights[l][unit] = -0.0
        model.biases[l][unit] = -1.0
    # A pruned weight is a stored 0, signed as the weight it replaced.
    return apply_mask(model)


def _reference_loop(model, x, y, steps, rate, shuffle=None):
    """``steps`` steps ``theta -= rate * grad`` on ``model.backward``; with
    a ``shuffle`` rng, each step first permutes the rows and the mask is
    applied before and after it, as ``train_sgd`` does."""
    for _ in range(steps):
        bx, by = x, y
        if shuffle is not None:
            perm = shuffle.permutation(len(x))
            bx, by = x[perm], y[perm]
            apply_mask(model)
        _, g = backward(model, bx, by)
        for p, gp in zip(model.weights + model.biases, g.weights + g.biases):
            p -= rate * gp
        if shuffle is not None:
            apply_mask(model)


@pytest.mark.parametrize("pruned", [True, False])
@pytest.mark.parametrize("rows", [1, 7, 40, 360])
@pytest.mark.parametrize("classes", [2, 3, 10])
def test_gradient_step_matches_backward_bit_for_bit(pruned, rows, classes):
    model = _model_with_signed_zeros(classes, pruned, seed=rows * 10 + classes)
    rng = SeededRng(rows).split("batch")
    x = rng.normal(rows * 3).reshape(rows, 3)
    y = rng.permutation(rows) % classes
    data = Dataset(inputs=x, labels=y, num_classes=classes, name="grid")
    order = rng.permutation(rows)
    rate = 0.5
    for loop, sign in ((unlearn_gradient_ascent, -1.0), (unlearn_finetune, 1.0)):
        ref, got = model.clone(), model.clone()
        _reference_loop(ref, x[order], y[order], 3, sign * rate)
        loop(got, data, order, 3, rate)
        _same_bits(ref.weights + ref.biases, got.weights + got.biases)
    ref, got = model.clone(), model.clone()
    _reference_loop(ref, x[order], y[order], 3, rate, SeededRng(rows + 1))
    train_sgd(got, data, order, 3, rate, SeededRng(rows + 1))
    _same_bits(ref.weights + ref.biases, got.weights + got.biases)


def test_descend_checks_labels_once_per_call(monkeypatch):
    # Every module that binds the check is patched, wherever a loop calls it.
    real = numeric._true_class_index
    calls = []

    def counting(*args):
        calls.append(args[1:])
        return real(*args)

    for name in ("numeric", "model", "train", "unlearn"):
        # The package exports a function named unlearn, so import by path.
        module = importlib.import_module(f"unprune.{name}")
        if getattr(module, "_true_class_index", None) is real:
            monkeypatch.setattr(module, "_true_class_index", counting)
    data = gen_blobs(SeededRng(9), 40, 3, 2, 1.0)
    model = build_model([2, 12, 3], 9)
    rows = np.arange(0, data.n, 2)
    for loop in (unlearn_gradient_ascent, unlearn_finetune):
        calls.clear()
        loop(model, data, rows, 4, 0.01)
        assert calls == [(len(rows), 3)]


@pytest.mark.parametrize("classes", [2, 3, 10])
def test_softmax_matches_row_max_formula(classes):
    z = SeededRng(classes).normal(37 * classes, 0.0, 30.0).reshape(37, classes)
    z[0] = 0.0
    z[1] = -0.0
    z[2] = z[2, 0]         # a tie across every class
    z[3, 0] = 700.0        # exp would overflow without the shift
    z[4, -1] = -700.0      # and underflow to 0
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    expected = e / e.sum(axis=1, keepdims=True)
    _same_bits([expected], [softmax(z)])


def test_full_batch_divergence_mid_run_names_epoch():
    # The first step leaves finite weights whose next forward pass overflows;
    # that pass scores the model epoch 0 left.
    data = gen_blobs(SeededRng(9), 40, 2, 2, 1.0)
    model = build_model([2, 12, 2], 9)
    with pytest.raises(NumericError, match="epoch 0"):
        train_sgd(model, data, np.arange(data.n), 3, 1e200, SeededRng(10))


def _run_loop(loop, rate):
    """Five epochs or steps of one step loop on a 40-row task."""
    data = gen_blobs(SeededRng(9), 40, 2, 2, 1.0)
    model = build_model([2, 12, 2], 9)
    rows = np.arange(data.n)
    if loop == "ascent":
        unlearn_gradient_ascent(model, data, rows, 5, rate)
    elif loop == "finetune":
        unlearn_finetune(model, data, rows, 5, rate)
    else:
        train_sgd(model, data, rows, 5, rate, SeededRng(10))


@pytest.mark.parametrize("loop", ["full_batch", "ascent", "finetune"])
def test_step_loop_sets_blas_threads_once(blas_threads, loop):
    _run_loop(loop, 0.05)
    assert blas_threads.sets == [1, 3]


# The error each diverging loop raised when every product set its own error
# state: the loop's epoch and the first non-finite product.
_DIVERGED = {
    "full_batch": "^training diverged at epoch 0: matmul produced non-finite",
    "ascent": "^matmul produced non-finite",
}


@pytest.mark.parametrize("loop", ["full_batch", "ascent"])
def test_failing_step_loop_restores_blas_threads(blas_threads, loop):
    errstate = np.geterr()
    for rate in (1e200, 1e300):
        blas_threads.sets.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=_DIVERGED[loop]):
                _run_loop(loop, rate)
        assert blas_threads.sets == [1, 3]
        assert blas_threads.count == 3
        assert np.geterr() == errstate
