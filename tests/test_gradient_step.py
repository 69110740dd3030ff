"""Every step gives the bits of a frozen copy of the step.

``_frozen_gradients`` is the reference: the full-batch step as it was
before the step was made leaner, written with plain numpy. Its softmax
works row by row, it keeps a separate ReLU output and recomputes each
ReLU mask from the pre-activations, and it takes bias gradients with
``sum(axis=0)``. Training (``train.train_sgd``), the gradient unlearners
(``unlearn._descend``) and ``model.backward`` all run on the three
functions the step is made of, ``model._forward_trace``,
``numeric._cross_entropy_rows`` and ``model._backward_from_trace``; their
loss, gradients and weights must equal the reference's to the last bit,
signed zeros included, or every pinned digest would move. A step loop sets
the BLAS thread count once, however many products it runs, and a
diverging loop raises a ``NumericError`` naming its epoch without a
floating-point warning.
"""

import importlib
import warnings

import numpy as np
import pytest

from unprune import numeric
from unprune.data import Dataset, gen_blobs
from unprune.errors import NumericError
from unprune.model import apply_mask, backward, init_model
from unprune.numeric import SeededRng, softmax
from unprune.oracle import build_model
from unprune.train import train_sgd
from unprune.unlearn import unlearn_finetune, unlearn_gradient_ascent


def _same_bits(expected, got):
    for a, b in zip(expected, got, strict=True):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def _frozen_gradients(weights, biases, x, y):
    """(mean loss, weight gradients, bias gradients) of one full-batch step,
    computed as the step computed them before it was made leaner."""
    acts, pre = [x], []
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w.T
        z += b
        pre.append(z)
        acts.append(np.maximum(z, 0.0) if l < len(weights) - 1 else z)
    logits = acts[-1]
    top = logits[:, 0].copy()
    for k in range(1, logits.shape[1]):
        np.maximum(top, logits[:, k], out=top)
    p = logits - top[:, None]
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=1)[:, None]
    rows = np.arange(len(y))
    loss = float((-np.log(np.maximum(p[rows, y], 1e-300))).mean())
    p[rows, y] -= 1.0
    p /= len(p)
    g_w, g_b = [None] * len(weights), [None] * len(weights)
    delta = p
    for l in range(len(weights) - 1, -1, -1):
        g_w[l] = delta.T @ acts[l]
        g_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ weights[l]
            delta *= pre[l - 1] > 0.0
    return loss, g_w, g_b


def _frozen_loop(model, x, y, steps, rate, shuffle=None):
    """``steps`` steps ``theta -= rate * grad`` on ``_frozen_gradients``; with
    a ``shuffle`` rng, each step first permutes the rows and the mask is
    applied before and after it, as ``train_sgd`` does."""
    for _ in range(steps):
        bx, by = x, y
        if shuffle is not None:
            perm = shuffle.permutation(len(x))
            bx, by = x[perm], y[perm]
            apply_mask(model)
        _, g_w, g_b = _frozen_gradients(model.weights, model.biases, bx, by)
        for p, gp in zip(model.weights + model.biases, g_w + g_b):
            gp *= rate
            p -= gp
        if shuffle is not None:
            apply_mask(model)


# Hidden units killed by a negative bias on zero weights: their ReLU
# derivative turns each delta they receive into a zero with that delta's
# sign.
_DEAD_UNITS = ((0, 1), (0, 4), (0, 6), (1, 2), (1, 5))


def _model_with_signed_zeros(dims, pruned, seed):
    model = init_model(dims, SeededRng(seed).split("init"))
    rng = SeededRng(seed).split("edit")
    for w, b, m in zip(model.weights, model.biases, model.masks):
        flat = w.reshape(-1)
        picks = rng.choice(flat.size, min(4, flat.size))
        flat[picks[:2]] = 0.0
        flat[picks[2:]] = -0.0
        b[::2] = -0.0
        if pruned:
            m[rng.uniform(0.0, 1.0, m.size).reshape(m.shape) < 0.3] = 0.0
    for l, unit in _DEAD_UNITS:
        if unit < dims[l + 1]:
            model.weights[l][unit] = -0.0
            model.biases[l][unit] = -1.0
    # A pruned weight is a stored 0, signed as the weight it replaced.
    return apply_mask(model)


@pytest.mark.parametrize("pruned", [True, False])
@pytest.mark.parametrize("rows", [1, 7, 40, 80, 360, 720])
@pytest.mark.parametrize("classes", [2, 3, 7, 8, 10])
def test_gradient_step_matches_backward_bit_for_bit(pruned, rows, classes):
    # Classes 2-7 run the class-major cross-entropy, 8 and 10 the row one;
    # the second net's width-1 layer takes its bias gradient with sum.
    rng = SeededRng(rows).split("batch")
    x = rng.normal(rows * 3).reshape(rows, 3)
    y = rng.permutation(rows) % classes
    data = Dataset(inputs=x, labels=y, num_classes=classes, name="grid")
    order = rng.permutation(rows)
    rate = 0.5
    for hidden in ([8, 6], [6, 1]):
        model = _model_with_signed_zeros([3, *hidden, classes], pruned,
                                         seed=rows * 10 + classes)
        loss, g_w, g_b = _frozen_gradients(model.weights, model.biases,
                                           x[order], y[order])
        got_loss, got = backward(model, x[order], y[order])
        assert np.float64(got_loss).view(np.int64) == np.float64(loss).view(
            np.int64)
        _same_bits(g_w + g_b, got.weights + got.biases)
        for loop, sign in ((unlearn_gradient_ascent, -1.0),
                           (unlearn_finetune, 1.0)):
            ref, got = model.clone(), model.clone()
            _frozen_loop(ref, x[order], y[order], 3, sign * rate)
            loop(got, data, order, 3, rate)
            _same_bits(ref.weights + ref.biases, got.weights + got.biases)
        ref, got = model.clone(), model.clone()
        _frozen_loop(ref, x[order], y[order], 3, rate, SeededRng(rows + 1))
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


@pytest.mark.parametrize("classes", [2, 3, 7, 8, 10])
def test_softmax_matches_row_max_formula(classes):
    # The cross-entropy's probabilities are softmax's too, class-major
    # below 8 classes: its gradient and likelihoods come from the formula.
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
    labels = np.arange(37) % classes
    rows = np.arange(37)
    nll, grad = numeric._cross_entropy_rows(
        z, numeric._true_class_index(labels, 37, classes))
    _same_bits([-np.log(np.maximum(expected[rows, labels], 1e-300))], [nll])
    expected[rows, labels] -= 1.0
    _same_bits([expected / 37], [grad])
    assert grad.flags.c_contiguous


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
