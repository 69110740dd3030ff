"""Plain full-batch gradient descent, plus accuracy evaluation.

No minibatches, momentum, weight decay or schedules: the simplest
optimizer keeps seed-for-seed comparisons between runs interpretable.
Masks are applied before the first step and re-applied after every step,
so training never changes the topology.

Training and the gradient unlearners (``unlearn._descend``) run one step,
``_FlatStep``. It copies the model's weights and biases into one flat
float64 vector and works on views into it: each weight gradient is
written into its view of a gradient vector in the same layout, the update
is two vector operations, and training re-applies the mask as one
multiply of the weight region by the flat mask. When the loop returns or
raises, the vector is copied back into the model's arrays.

A loop's row count is fixed, so the step keeps a workspace for the whole
loop: the first forward pass allocates each layer's activation, each
hidden layer's ReLU mask and one delta per hidden layer, and every later
step writes its products into those arrays with ``out=``. No product
changes its operands or their layout, so every value is computed as a
per-layer step computes it, and the weights are the same bit for bit.

The forward products go through ``numeric._product``, whose guard raises
on a non-finite product. The backward products run unguarded; in their
place the gradient vector is checked once, after it is scaled by the rate
and before it is applied. That check is at least as strict as one guard
per product: a non-finite weight gradient lands in the vector directly,
and a non-finite hidden delta survives the ReLU mask (inf * 0 and NaN * 0
are NaN), so it reaches its layer's bias gradient, a column sum of the
delta. The check also covers the bias sums themselves, which can overflow
when every product is finite. A failed check leaves the parameters as the
last finished step left them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, write_csv
from .errors import InputError, NumericError
from .model import (GradientSet, MaskedModel, _backward_from_trace,
                    _forward_trace, apply_mask, forward)
from .model import backward  # noqa: F401  (perfbench wraps unprune.train.backward)
from .numeric import (SeededRng, _all_finite, _class_index,
                      _cross_entropy_rows, _mean_loss, _product,
                      _true_class_index, blas_scope, softmax_cross_entropy)


@dataclass(frozen=True)
class TrainCfg:
    epochs: int = 200
    lr: float = 0.1


@dataclass
class TrainLog:
    rows: list[tuple[int, str, float, float]] = field(default_factory=list)

    def record(self, epoch: int, split: str, loss: float, accuracy: float) -> None:
        self.rows.append((epoch, split, float(loss), float(accuracy)))

    def to_csv(self, path: str) -> None:
        write_csv(path, ("epoch", "split", "loss", "accuracy"), self.rows)


def train_sgd(
    model: MaskedModel,
    dataset: Dataset,
    indices: np.ndarray,
    epochs: int,
    lr: float,
    rng: SeededRng,
) -> TrainLog:
    """Full-batch gradient descent on the given rows; mutates the model.

    Each epoch is one step on all rows in a seeded shuffle. The mask is
    applied before the first step and re-applied after every step, so a
    pruned weight is a stored 0 in every pass, and a non-finite loss,
    forward product or gradient aborts with an error naming the epoch.

    Log row ``k`` is the (loss, accuracy) over ``indices`` of the model as
    epoch ``k`` left it. The step of epoch ``k + 1`` forward-passes every
    row through that model, so row ``k`` is scored from that pass, with
    the per-row losses summed in ``indices`` order as ``evaluate`` sums
    them. The last row comes from ``evaluate``, which also checks that the
    trained model's forward pass is finite. A row scored from a step
    equals ``evaluate``'s bit for bit provided the BLAS computes each row
    of a product independently of its position in the batch. OpenBLAS's
    Haswell kernels break that for the 2-32-32-2 and 2-64-32-2 nets when
    the row count is not a multiple of 4; a logged loss can then differ
    in the last bits. The weights never depend on it.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) == 0:
        raise InputError("training index set is empty")
    if lr < 0:
        raise InputError(f"lr must be >= 0, got {lr}")
    labels = np.asarray(dataset.labels[indices], dtype=np.int64)
    # Checked once: each epoch's labels are these in another order.
    _true_class_index(labels, len(indices), model.weights[-1].shape[0])
    log = TrainLog()
    apply_mask(model)
    mask = model.flat_masks()
    with _flat_step(model) as flat:
        for epoch in range(epochs):
            perm = rng.permutation(len(indices))
            x, y = dataset.inputs[indices[perm]], labels[perm]
            with _diverged_at(max(epoch - 1, 0)):
                # This pass sees the model as the previous epoch left it.
                trace = flat.trace(x)
                logits = trace[0][-1]
                nll, delta = _cross_entropy_rows(
                    logits, _class_index(y, *logits.shape), epoch > 0)
                if epoch > 0:
                    # evaluate sums the per-row losses in `indices` order.
                    by_index = np.empty_like(nll)
                    by_index[perm] = nll
                    loss = _mean_loss(by_index)
            if epoch > 0:
                accuracy = float((np.argmax(logits, axis=1) == y).mean())
                log.record(epoch - 1, "train", loss, accuracy)
            with _diverged_at(epoch):
                flat.update(trace, delta, lr)
                flat.weights *= mask
                if epoch == epochs - 1:
                    log.record(epoch, "train",
                               *evaluate(flat.model, dataset, indices))
    return log


class _FlatStep:
    """The full-batch step on one flat copy of a model's parameters.

    ``theta`` holds every layer's weights, row-major, then every layer's
    biases, so ``weights`` is one region of it. ``model`` is the caller's
    model with views into ``theta`` in place of its weights and biases,
    and ``grads`` holds views into ``grad``, a vector in ``theta``'s layout.
    Every ``trace`` of one step must pass as many rows: the first one
    allocates the workspace that the later ones write into.
    """

    def __init__(self, model: MaskedModel):
        self.caller = model
        params = model.weights + model.biases
        self.theta = np.concatenate([p.ravel() for p in params])
        self.grad = np.empty_like(self.theta)
        views, grads = _views(self.theta, params), _views(self.grad, params)
        n = len(model.weights)
        self.weights = self.theta[:sum(w.size for w in model.weights)]
        self.model = replace(model, weights=views[:n], biases=views[n:])
        self.grads = GradientSet(weights=grads[:n], biases=grads[n:])
        self._trace = self._deltas = None

    def trace(self, x: np.ndarray):
        """``_forward_trace`` of ``model`` on the rows ``x``, in the
        workspace; the trace is valid until the next call."""
        trace = _forward_trace(self.model, x, _product, self._trace)
        if self._trace is None:
            # A hidden layer's delta is shaped like its activation.
            self._deltas = [np.empty_like(a) for a in trace[0][1:-1]]
        self._trace = trace
        return trace

    def update(self, trace, delta: np.ndarray, rate: float) -> None:
        """``theta -= rate * grad`` for the gradient of a ``trace`` of this
        step's model and its logit gradient ``delta``; a negative rate
        ascends. A non-finite ``rate * grad`` raises ``NumericError`` and
        leaves ``theta`` as it was. The mask is left to the caller."""
        _backward_from_trace(self.model, trace, delta, np.matmul, self.grads,
                             self._deltas)
        self.grad *= rate
        if not _all_finite(self.grad):
            raise NumericError("gradient has non-finite values")
        self.theta -= self.grad

    def copy_back(self) -> None:
        """Write ``theta`` into the caller's weight and bias arrays."""
        for mine, theirs in zip(self.model.weights + self.model.biases,
                                self.caller.weights + self.caller.biases):
            theirs[...] = mine


def _views(vector: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Consecutive views into ``vector`` shaped like the arrays ``like``."""
    views, start = [], 0
    for array in like:
        views.append(vector[start:start + array.size].reshape(array.shape))
        start += array.size
    return views


@contextmanager
def _flat_step(model: MaskedModel):
    """A ``_FlatStep`` on ``model`` inside one ``blas_scope``. The
    parameters are copied back into ``model`` when the block exits, by a
    return or a raise, so a failed step leaves the model as the last
    finished step left it."""
    flat = _FlatStep(model)
    try:
        with blas_scope():
            yield flat
    finally:
        flat.copy_back()


@contextmanager
def _diverged_at(epoch: int):
    try:
        yield
    except NumericError as exc:
        raise NumericError(f"training diverged at epoch {epoch}: {exc}") from exc


def train_with_cfg(
    model: MaskedModel,
    dataset: Dataset,
    indices: np.ndarray,
    cfg: TrainCfg,
    rng: SeededRng,
) -> TrainLog:
    return train_sgd(model, dataset, indices, cfg.epochs, cfg.lr, rng)


def evaluate(
    model: MaskedModel, dataset: Dataset, indices: np.ndarray
) -> tuple[float, float]:
    """(mean loss, argmax accuracy) over the given rows; ties pick class 0 first."""
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) == 0:
        raise InputError("evaluation index set is empty")
    logits = forward(model, dataset.inputs[indices])
    labels = dataset.labels[indices]
    loss, _ = softmax_cross_entropy(logits, labels)
    predictions = np.argmax(logits, axis=1)
    accuracy = float((predictions == labels).mean())
    return loss, accuracy
