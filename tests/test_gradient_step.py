"""A step loop's gradient path gives the bits of ``model.backward``.

``model.backward`` is the reference; ``GradientStep`` runs the same
functions for a step loop, skipping the loss and repeated label checks.
The two must agree to the last bit, signed zeros included, or every pinned
digest would move. A step loop sets the BLAS thread count once, however
many products it runs, and a diverging loop raises a ``NumericError``
naming its epoch without a floating-point warning.
"""

import warnings

import numpy as np
import pytest

from unprune.data import gen_blobs
from unprune.errors import NumericError
from unprune.model import GradientStep, apply_mask, backward, init_model, mlp_specs
from unprune.numeric import SeededRng, softmax
from unprune.oracle import build_model
from unprune.train import sgd_step, train_sgd
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


@pytest.mark.parametrize("pruned", [True, False])
@pytest.mark.parametrize("rows", [1, 7, 40, 360])
@pytest.mark.parametrize("classes", [2, 3, 10])
def test_gradient_step_matches_backward_bit_for_bit(pruned, rows, classes):
    model = _model_with_signed_zeros(classes, pruned, seed=rows * 10 + classes)
    rng = SeededRng(rows).split("batch")
    x = rng.normal(rows * 3).reshape(rows, 3)
    y = rng.permutation(rows) % classes
    half = max(rows // 2, 1)
    # The full batch twice (labels checked once), then a smaller batch.
    batches = [(x, y), (x, y), (x[:half], y[:half])]
    ref, got = model.clone(), model.clone()
    step = GradientStep()
    rate = 0.5
    for bx, by in batches:
        _, g_ref = backward(ref, bx, by)
        g_step = step.gradients(got, bx, by)
        _same_bits(g_ref.weights + g_ref.biases, g_step.weights + g_step.biases)
        for p, g in zip(ref.weights + ref.biases, g_ref.weights + g_ref.biases):
            p -= rate * g
        sgd_step(got, g_step, rate)
        _same_bits(ref.weights + ref.biases, got.weights + got.biases)


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
